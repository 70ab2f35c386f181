"""Three interchangeable integral computations and the algebraic validators.

`integral_expectation` is the working definition (the weighted sum used by
the evaluator).  `integral_dissection` recomputes it from first principles
as a supremum over all set partitions of the universe and exists purely as
a brute-force oracle.  `integral_layercake` is the simple-function form
built from level sets.  On finite models the three agree exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Sequence

from .errors import ArityMismatch, FormatError, NotCrisp, UniverseTooLarge
from .rational import DEFAULT_GRID, ONE, ZERO, implies, neg, strong_and, strong_or
from .reporting import Report
from .model import FuzzySubset, WeakProbModel, mu_set, truth_set

DISSECTION_MAX_UNIVERSE = 8


def _require_unary(subset: FuzzySubset, model: WeakProbModel) -> None:
    if subset.arity != 1:
        raise ArityMismatch(f"expected a unary fuzzy subset, got arity {subset.arity}")
    if tuple(subset.universe) != tuple(model.universe):
        raise FormatError("fuzzy subset and model disagree on the universe")


def integral_expectation(subset: FuzzySubset, model: WeakProbModel) -> Fraction:
    """Sum of f(m) * mu(m) over the universe."""
    _require_unary(subset, model)
    total = ZERO
    for m in model.universe:
        total += subset.values[(m,)] * model.measure[m]
    return total


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


@lru_cache(maxsize=None)
def _partition_masks(n: int) -> tuple[tuple[int, ...], ...]:
    """`set_partitions(n)` with each block as a bitmask over range(n)."""
    return tuple(tuple(sum(1 << i for i in block) for block in partition) for partition in set_partitions(n))


def _scaled(subset: FuzzySubset, model: WeakProbModel) -> tuple[list[int], list[int], int]:
    """The values and weights in universe order as integers, and their common scale.

    Value i is `values[i] / value_den` and weight i is `weights[i] /
    weight_den`, so a sum of value-weight products is exact over
    `value_den * weight_den`, the scale returned.
    """
    values = [subset.values[(m,)] for m in model.universe]
    weights = [model.measure[m] for m in model.universe]
    value_den = lcm(*[v.denominator for v in values])
    weight_den = lcm(*[w.denominator for w in weights])
    return ([v.numerator * (value_den // v.denominator) for v in values],
            [w.numerator * (weight_den // w.denominator) for w in weights],
            value_den * weight_den)


def integral_dissection(subset: FuzzySubset, model: WeakProbModel,
                        max_size: int = DISSECTION_MAX_UNIVERSE) -> Fraction:
    """Supremum over all measurable dissections of sum(inf f on block * mu(block)).

    Enumerates every set partition of the universe (Bell-number many), so it
    is capped at small universes; it serves as the independent oracle for the
    expectation form.  Each of the 2^n - 1 blocks is scored once, on values
    and weights rescaled to shared integer denominators, so a partition's
    total is a sum of its blocks' scores, exactly.
    """
    _require_unary(subset, model)
    n = len(model.universe)
    if n > max_size:
        raise UniverseTooLarge(f"dissection enumeration capped at |M| <= {max_size}")
    values, weights, scale = _scaled(subset, model)
    # a block is its lowest element i plus the smaller block `rest`
    low, mass, score = [0] * (1 << n), [0] * (1 << n), [0] * (1 << n)
    for block in range(1, 1 << n):
        rest = block & (block - 1)
        i = (block ^ rest).bit_length() - 1
        low[block] = min(low[rest], values[i]) if rest else values[i]
        mass[block] = mass[rest] + weights[i]
        score[block] = low[block] * mass[block]
    best = max(sum([score[block] for block in partition]) for partition in _partition_masks(n))
    return Fraction(best, scale)


def integral_layercake(subset: FuzzySubset, model: WeakProbModel) -> Fraction:
    """Sum over the distinct values 0 = v0 < v1 < ... of (vi - vi-1) * mu{f >= vi}."""
    _require_unary(subset, model)
    values, weights, scale = _scaled(subset, model)
    total = previous = 0
    for level in sorted(set(values) - {0}):
        total += (level - previous) * sum([w for v, w in zip(values, weights) if v >= level])
        previous = level
    return Fraction(total, scale)


def integral_dirac(subset: FuzzySubset, model: WeakProbModel) -> Fraction:
    """mu(f^-1(1)) for crisp f; the Dirac-style shortcut is only sound there."""
    _require_unary(subset, model)
    if not subset.is_crisp():
        raise NotCrisp("the Dirac integral is only defined for {0,1}-valued subsets")
    return mu_set(model, truth_set(subset), 1)


# ---------------------------------------------------------------------------
# Pointwise combinations (used by the law checks)


def pointwise(op: Callable, *subsets: FuzzySubset) -> FuzzySubset:
    first = subsets[0]
    values = {key: op(*(s.values[key] for s in subsets)) for key in first.values}
    return FuzzySubset(first.universe, values)


def slice_first(h: FuzzySubset, model: WeakProbModel) -> FuzzySubset:
    """Integrate a binary subset over its first argument: g(y) = sum_a h(a,y)mu(a)."""
    if h.arity != 2:
        raise ArityMismatch("expected a binary fuzzy subset")
    values = {}
    for b in model.universe:
        total = ZERO
        for a in model.universe:
            total += h.values[(a, b)] * model.measure[a]
        values[(b,)] = total
    return FuzzySubset(model.universe, values)


def slice_second(h: FuzzySubset, model: WeakProbModel) -> FuzzySubset:
    """Integrate a binary subset over its second argument: g(x) = sum_b h(x,b)mu(b)."""
    if h.arity != 2:
        raise ArityMismatch("expected a binary fuzzy subset")
    values = {}
    for a in model.universe:
        total = ZERO
        for b in model.universe:
            total += h.values[(a, b)] * model.measure[b]
        values[(a,)] = total
    return FuzzySubset(model.universe, values)


def double_sum(h: FuzzySubset, model: WeakProbModel) -> Fraction:
    """Product-measure double sum: sum over (a,b) of h(a,b)mu(a)mu(b)."""
    if h.arity != 2:
        raise ArityMismatch("expected a binary fuzzy subset")
    total = ZERO
    for (a, b), value in h.values.items():
        total += value * model.measure[a] * model.measure[b]
    return total


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
    """
    report = Report()

    def record(law, lhs, rhs, sample):
        report.add("integral-law-violation", law=law, lhs=str(lhs), rhs=str(rhs), sample=sample)

    for r in constants:
        lhs = integral(FuzzySubset.constant(model.universe, r), model)
        report.tally()
        if lhs != r:
            record("constant", lhs, r, {"r": str(r)})

    for f, g in pairs:
        int_f = integral(f, model)
        int_g = integral(g, model)

        lhs = integral(pointwise(neg, f), model)
        report.tally()
        if lhs != ONE - int_f:
            record("complement", lhs, ONE - int_f, _sample(f=f))

        lhs = integral(pointwise(implies, f, g), model)
        rhs = implies(int_f, int_g)
        report.tally()
        if lhs > rhs:
            record("implication", lhs, rhs, _sample(f=f, g=g))

        lhs = integral(pointwise(strong_or, f, g), model)
        rhs = int_f + int_g - integral(pointwise(strong_and, f, g), model)
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


def check_similarity_lipschitz(model: WeakProbModel, approx_pred: str = "approx") -> Report:
    """Check the similarity compatibility of functions and predicates.

    For every function symbol: min_i sim(a_i, b_i) <= sim(f(a), f(b)).
    For every predicate symbol: |P(a) - P(b)| <= max_i (1 - sim(a_i, b_i)),
    the 1-Lipschitz condition under the distance d(x, y) = 1 - sim(x, y).
    """
    if approx_pred not in model.predicates or model.pred_arity(approx_pred) != 2:
        raise FormatError(f"{approx_pred!r} must be a binary predicate of the model")
    sim = model.predicates[approx_pred]
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
        if name == approx_pred:
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
    members = {tuple(sorted(s.values.items())) for s in family}

    for r in constants:
        report.tally()
        k_r = FuzzySubset.constant(universe, r)
        if tuple(sorted(k_r.values.items())) not in members:
            report.add("missing-constant", value=str(r))

    for f in family:
        for g in family:
            report.tally()
            h = pointwise(implies, f, g)
            if tuple(sorted(h.values.items())) not in members:
                report.add("not-closed-under-implication", sample=_sample(f=f, g=g))

    return report
