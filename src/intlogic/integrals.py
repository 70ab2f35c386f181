"""Three interchangeable integral computations and the algebraic validators.

`integral_expectation` is the working definition (the weighted sum the
evaluator computes).  `integral_dissection` recomputes it from first principles
as the exact supremum over all set partitions of the universe and exists
purely as an oracle.  `integral_layercake` is the simple-function form
built from level sets.  On finite models the three agree exactly.

These three, the two slices and `double_sum` compute on integers: each
reads the subset's integer form (`FuzzySubset.den` and `.row`) and the
model's integer weights (`IntegerForm.weight_row` of `model.integer_form`),
both computed at most once per object, and makes a single `Fraction`, for
its result.  The two oracles share only that conversion with the
expectation form.  The dissection also keeps the mass of every block per
weight tuple, and finds its supremum by recursion over subsets rather
than by scoring each partition.  The subsets this module builds, the
slices and the connectives of the law checker, are computed on integer
rows and built from them (`FuzzySubset._trusted`), so integrating them
converts nothing; a subset's `values` are made only when read.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Callable, Sequence

from .errors import ArityMismatch, FormatError, NotCrisp, UniverseTooLarge
from .rational import DEFAULT_GRID, ONE, implies
from .reporting import Report
from .model import FuzzySubset, WeakProbModel, integer_form, mu_set, truth_set
from .syntax import APPROX_PRED

DISSECTION_MAX_UNIVERSE = 8


def _require(subset: FuzzySubset, universe: tuple[str, ...], arity: int) -> None:
    if subset.arity != arity:
        raise ArityMismatch(f"expected a fuzzy subset of arity {arity}, got arity {subset.arity}")
    if subset.universe != universe:
        raise FormatError(f"fuzzy subset over the universe {subset.universe}, expected {universe}")


def _scaled(subset: FuzzySubset, model: WeakProbModel) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The subset's values and the weights as integers, and their common scale.

    Value i is `row[i] / den` (in universe order for a unary subset) and
    weight i is `weights[i] / M`, so a sum of value-weight products is
    exact over `den * M`, the scale returned.
    """
    form = integer_form(model)
    return subset.row, form.weight_row, subset.den * form.m_den


def integral_expectation(subset: FuzzySubset, model: WeakProbModel) -> Fraction:
    """Sum of f(m) * mu(m) over the universe."""
    _require(subset, model.universe, 1)
    values, weights, scale = _scaled(subset, model)
    return Fraction(sum(map(mul, values, weights)), scale)


@lru_cache(maxsize=None)
def set_partitions(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All partitions of range(n) into non-empty blocks (Bell(n) of them)."""
    if n == 0:
        return ((),)
    out = []
    for smaller in set_partitions(n - 1):
        last = n - 1
        for i in range(len(smaller)):
            out.append(smaller[:i] + (smaller[i] + (last,),) + smaller[i + 1:])
        out.append(smaller + ((last,),))
    return tuple(out)


@lru_cache(maxsize=32)
def _blocks(weights: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The mass and the lowest element of every block of range(n), indexed by the block as a bitmask."""
    n = len(weights)
    mass, lowest = [0] * (1 << n), [0] * (1 << n)
    for block in range(1, 1 << n):
        rest = block & (block - 1)
        i = lowest[block] = (block ^ rest).bit_length() - 1
        mass[block] = mass[rest] + weights[i]
    return tuple(mass), tuple(lowest)


def _best_dissection(score: Sequence[int], n: int) -> int:
    """The maximum over the partitions of range(n) of the sum of their blocks' scores.

    `score[block]` is indexed by the block as a bitmask.  Every partition of
    a set S is a block B holding S's lowest element plus a partition of
    S - B, so `best[S]`, the maximum over S's partitions, is the maximum of
    `score[B] + best[S - B]` over those B.  Only range(n) and the sets
    without element 0 arise as S; each is computed after the smaller sets
    it reads, in increasing order.
    """
    full = (1 << n) - 1
    best = [0] * (full + 1)
    for s in [*range(2, full, 2), full] if n else ():
        low = s & -s
        rest = sub = s ^ low
        top = score[s]
        while sub:
            sub = (sub - 1) & rest
            total = score[low | sub] + best[rest ^ sub]
            if total > top:
                top = total
        best[s] = top
    return best[full]


def integral_dissection(subset: FuzzySubset, model: WeakProbModel) -> Fraction:
    """Supremum over all measurable dissections of sum(inf f on block * mu(block)).

    The supremum is exact over every set partition of the universe, so it
    is capped at small universes; it serves as the independent oracle for
    the expectation form.  Each of the 2^n - 1 blocks is scored once, on
    values and weights over shared integer denominators; the block masses
    are kept per weight tuple.  The best partition is then found by
    recursion over subsets (`_best_dissection`), not by scoring each of
    the Bell(n) partitions.
    """
    _require(subset, model.universe, 1)
    n = len(model.universe)
    if n > DISSECTION_MAX_UNIVERSE:
        raise UniverseTooLarge(f"dissection enumeration capped at |M| <= {DISSECTION_MAX_UNIVERSE}")
    values, weights, scale = _scaled(subset, model)
    mass, lowest = _blocks(weights)
    # a block's infimum is the lesser of its lowest element's value and the
    # infimum of the rest of the block; over the empty block it is 1, `den`
    low = [subset.den] * (1 << n)
    for block in range(1, 1 << n):
        value, rest = values[lowest[block]], low[block & (block - 1)]
        low[block] = value if value < rest else rest
    return Fraction(_best_dissection(list(map(mul, low, mass)), n), scale)


def integral_layercake(subset: FuzzySubset, model: WeakProbModel) -> Fraction:
    """Sum over the distinct values 0 = v0 < v1 < ... of (vi - vi-1) * mu{f >= vi}."""
    _require(subset, model.universe, 1)
    values, weights, scale = _scaled(subset, model)
    total = previous = 0
    for level in sorted(set(values) - {0}):
        total += (level - previous) * sum([w for v, w in zip(values, weights) if v >= level])
        previous = level
    return Fraction(total, scale)


def integral_dirac(subset: FuzzySubset, model: WeakProbModel) -> Fraction:
    """mu(f^-1(1)) for crisp f; the Dirac-style shortcut is only sound there."""
    _require(subset, model.universe, 1)
    if not subset.is_crisp():
        raise NotCrisp("the Dirac integral is only defined for {0,1}-valued subsets")
    return mu_set(model, truth_set(subset), 1)


# ---------------------------------------------------------------------------
# Pointwise combinations (used by the law checks)


def pointwise(op: Callable, *subsets: FuzzySubset) -> FuzzySubset:
    """The subset x -> op(f1(x), f2(x), ...); every value `op` returns must lie in [0, 1]."""
    first = subsets[0]
    for other in subsets[1:]:
        _require(other, first.universe, first.arity)
    tables = [s.values for s in subsets]
    return FuzzySubset(first.universe, {key: op(*[table[key] for table in tables]) for key in tables[0]})


def _inner_sums(h: FuzzySubset, model: WeakProbModel, over_first: bool) -> tuple[list[int], tuple[int, ...], int]:
    """Numerators of h integrated over one argument, in universe order, as `_scaled` gives.

    `h`'s integer row is in (a, b) order, so row a holds h(a, .); integrating
    over the first argument sums its columns instead.
    """
    _require(h, model.universe, 2)
    values, weights, scale = _scaled(h, model)
    n = len(weights)
    rows = [values[i * n:(i + 1) * n] for i in range(n)]
    if over_first:
        rows = zip(*rows)
    return [sum(map(mul, row, weights)) for row in rows], weights, scale


def _slice(h: FuzzySubset, model: WeakProbModel, over_first: bool) -> FuzzySubset:
    sums, _, scale = _inner_sums(h, model, over_first)
    # each value is a weighted mean of values in [0, 1], so it lies in [0, 1]
    return FuzzySubset._trusted(model.universe, 1, scale, sums)


def slice_first(h: FuzzySubset, model: WeakProbModel) -> FuzzySubset:
    """Integrate a binary subset over its first argument: g(y) = sum_a h(a,y)mu(a)."""
    return _slice(h, model, True)


def slice_second(h: FuzzySubset, model: WeakProbModel) -> FuzzySubset:
    """Integrate a binary subset over its second argument: g(x) = sum_b h(x,b)mu(b)."""
    return _slice(h, model, False)


def double_sum(h: FuzzySubset, model: WeakProbModel) -> Fraction:
    """Product-measure double sum: sum over (a,b) of h(a,b)mu(a)mu(b)."""
    sums, weights, scale = _inner_sums(h, model, False)
    return Fraction(sum(map(mul, sums, weights)), scale * integer_form(model).m_den)


# ---------------------------------------------------------------------------
# The five semantic-integral laws


def check_semantic_integral_laws(
    model: WeakProbModel,
    pairs: Sequence[tuple[FuzzySubset, FuzzySubset]] = (),
    bivariate: Sequence[FuzzySubset] = (),
    constants: Sequence[Fraction] = DEFAULT_GRID,
    integral: Callable = integral_expectation,
) -> Report:
    """Check the constant, complement, implication, additivity and iteration laws.

    Violations are report entries carrying the offending sample, never
    exceptions.  The implication law is an inequality; the other four are
    exact equalities.

    Within one call, `integral` sees each unary subset of `pairs` once,
    subsets that are equal counting as one, and its complement once, when
    it is first the left of a pair;
    each pair then costs three calls, on `f -> g`, `f (+) g` and `f (x) g`.
    These are computed on the two subsets' integer rows over the lcm of
    their denominators, never on `Fraction`s.
    """
    report = Report()

    def record(law, lhs, rhs, sample):
        report.add("integral-law-violation", law=law, lhs=str(lhs), rhs=str(rhs), sample=sample)

    for r in constants:
        lhs = integral(FuzzySubset.constant(model.universe, r), model)
        report.tally()
        if lhs != r:
            record("constant", lhs, r, {"r": str(r)})

    integrals: dict[FuzzySubset, Fraction] = {}
    complements: dict[FuzzySubset, tuple] = {}  #: both sides of the complement law

    def integrated(f):
        if f not in integrals:
            integrals[f] = integral(f, model)
        return f.den, f.row, integrals[f]

    for f, g in pairs:
        den_f, row_f, int_f = integrated(f)
        den_g, row_g, int_g = integrated(g)
        universe, arity = f.universe, f.arity
        _require(g, universe, arity)

        complement = complements.get(f)
        if complement is None:
            not_f = FuzzySubset._trusted(universe, arity, den_f, [den_f - x for x in row_f])
            complement = complements[f] = (integral(not_f, model), ONE - int_f)
        lhs, rhs = complement
        report.tally()
        if lhs != rhs:
            record("complement", lhs, rhs, _sample(f=f))

        # both rows over the lcm of their denominators
        den = lcm(den_f, den_g)
        a = row_f if den == den_f else [x * (den // den_f) for x in row_f]
        b = row_g if den == den_g else [y * (den // den_g) for y in row_g]

        f_implies_g = FuzzySubset._trusted(universe, arity, den, [min(den, den - x + y) for x, y in zip(a, b)])
        lhs = integral(f_implies_g, model)
        rhs = implies(int_f, int_g)
        report.tally()
        if lhs > rhs:
            record("implication", lhs, rhs, _sample(f=f, g=g))

        f_or_g = FuzzySubset._trusted(universe, arity, den, [min(den, x + y) for x, y in zip(a, b)])
        f_and_g = FuzzySubset._trusted(universe, arity, den, [max(0, x + y - den) for x, y in zip(a, b)])
        lhs = integral(f_or_g, model)
        rhs = int_f + int_g - integral(f_and_g, model)
        report.tally()
        if lhs != rhs:
            record("additivity", lhs, rhs, _sample(f=f, g=g))

    for h in bivariate:
        first_then_second = integral(slice_first(h, model), model)
        second_then_first = integral(slice_second(h, model), model)
        report.tally()
        if first_then_second != second_then_first:
            record("iteration", first_then_second, second_then_first, _sample(h=h))

    return report


def _sample(**subsets: FuzzySubset) -> dict:
    return {
        name: {",".join(k): str(v) for k, v in sorted(s.values.items())}
        for name, s in subsets.items()
    }


# ---------------------------------------------------------------------------
# Lipschitz validators for similarity-equipped models


def check_similarity_lipschitz(model: WeakProbModel) -> Report:
    """Check the similarity compatibility of functions and predicates.

    For every function symbol: min_i sim(a_i, b_i) <= sim(f(a), f(b)).
    For every predicate symbol: |P(a) - P(b)| <= max_i (1 - sim(a_i, b_i)),
    the 1-Lipschitz condition under the distance d(x, y) = 1 - sim(x, y).
    """
    if APPROX_PRED not in model.predicates or model.pred_arity(APPROX_PRED) != 2:
        raise FormatError(f"{APPROX_PRED!r} must be a binary predicate of the model")
    sim = model.predicates[APPROX_PRED]
    report = Report()

    for name, table in model.functions.items():
        arity = model.func_arity(name)
        for xs in itertools.product(model.universe, repeat=arity):
            for ys in itertools.product(model.universe, repeat=arity):
                tuple_sim = min(sim[(a, b)] for a, b in zip(xs, ys))
                image_sim = sim[(table[xs], table[ys])]
                report.tally()
                if tuple_sim > image_sim:
                    report.add(
                        "function-similarity-violation",
                        function=name, left=list(xs), right=list(ys),
                        tuple_similarity=str(tuple_sim), image_similarity=str(image_sim),
                    )

    for name, table in model.predicates.items():
        if name == APPROX_PRED:
            continue
        arity = model.pred_arity(name)
        for xs in itertools.product(model.universe, repeat=arity):
            for ys in itertools.product(model.universe, repeat=arity):
                value_gap = abs(table[xs] - table[ys])
                distance = max(ONE - sim[(a, b)] for a, b in zip(xs, ys))
                report.tally()
                if value_gap > distance:
                    report.add(
                        "predicate-lipschitz-violation",
                        predicate=name, left=list(xs), right=list(ys),
                        value_gap=str(value_gap), distance=str(distance),
                    )

    return report


# ---------------------------------------------------------------------------
# Closure of a user-restricted family of fuzzy subsets


def check_family_closure(
    family: Sequence[FuzzySubset],
    constants: Sequence[Fraction] = DEFAULT_GRID,
) -> Report:
    """Check that a family contains the given constants and is closed under ->.

    The evaluator always works with the full space of rational fuzzy
    subsets, where this holds trivially; the check exists for restricted
    families supplied by the caller.
    """
    report = Report()
    if not family:
        raise FormatError("family must be non-empty")
    universe = family[0].universe
    members = set(family)

    for r in constants:
        report.tally()
        if FuzzySubset.constant(universe, r) not in members:
            report.add("missing-constant", value=str(r))

    for f in family:
        for g in family:
            report.tally()
            if pointwise(implies, f, g) not in members:
                report.add("not-closed-under-implication", sample=_sample(f=f, g=g))

    return report
