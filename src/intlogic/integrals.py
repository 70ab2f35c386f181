"""Three interchangeable integral computations and the algebraic validators.

`integral_expectation` is the working definition (the weighted sum the
evaluator computes).  `integral_dissection` recomputes it from first principles
as the exact supremum over all set partitions of the universe and exists
purely as an oracle.  `integral_layercake` is the simple-function form
built from level sets.  On finite models the three agree exactly.

These three, the two slices and `double_sum` compute on integers: each
reads the subset's integer form (`FuzzySubset.den` and `.row`) and the
model's integer weights (`IntegerForm.weight_row` of `WeakProbModel.form`),
both stored on the object, and makes a single `Fraction`, for its
result.  The two oracles share only that conversion with the expectation
form.  The dissection runs one straight-line integer function per
universe size, generated from the splits of its recursion over subsets
(`_splits`, `_source`) and compiled on first use (`_kernel`); it scores
every block once and finds the supremum by that recursion rather than by
scoring each partition.  Its source names only integer indices, so no
symbol, value or input enters it.
The layer cake is one walk over the values by decreasing value.  The law
checker integrates rows, not subsets, with the core of
`integral_expectation` by default, and decides each law by integer
cross-multiplication.  Its rows are prepared once per sample set
(`prepare_law_samples`): each distinct subset is checked and looked up
once, and the rows of complements, of each pair's three combinations and
of each bivariate subset's split are derived before any model is seen.
Each model then only integrates and compares (`check_prepared_laws`);
`validate.integral_law_suite` keeps the prepared samples, so every
measure's suite on one sample set shares them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .errors import ArityMismatch, FormatError, NotCrisp, UniverseTooLarge
from .rational import DEFAULT_GRID, ONE, unit
from .reporting import Report
from .model import FuzzySubset, IntegerForm, WeakProbModel
from .syntax import APPROX_PRED

DISSECTION_MAX_UNIVERSE = 8


def _require(subset: FuzzySubset, universe: tuple[str, ...], arity: int) -> None:
    if subset.arity != arity:
        raise ArityMismatch(f"expected a fuzzy subset of arity {arity}, got arity {subset.arity}")
    if subset.universe != universe:
        raise FormatError(f"fuzzy subset over the universe {subset.universe}, expected {universe}")


def _expectation(den: int, row: Sequence[int], form: IntegerForm) -> tuple[int, int]:
    """The expectation of the unary row `row / den` (in universe order) under `form`'s
    weights `weight_row / M`, as its numerator over the scale `den * M`."""
    return sum(map(mul, row, form.weight_row)), den * form.m_den


def integral_expectation(subset: FuzzySubset, model: WeakProbModel) -> Fraction:
    """Sum of f(m) * mu(m) over the universe."""
    _require(subset, model.universe, 1)
    return Fraction(*_expectation(subset.den, subset.row, model.form))


def set_partitions(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All partitions of range(n) into non-empty blocks (Bell(n) of them); nothing is kept between calls."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"set_partitions needs a non-negative integer, got {n!r}")
    if n == 0:
        return ((),)
    out = []
    for smaller in set_partitions(n - 1):
        last = n - 1
        for i in range(len(smaller)):
            out.append(smaller[:i] + (smaller[i] + (last,),) + smaller[i + 1:])
        out.append(smaller + ((last,),))
    return tuple(out)


def _splits(n: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """The sets S whose best partition the kernel computes, in order, each with its splits.

    A split of S is a block B that holds S's lowest element and is not S
    itself, with the rest S - B, both as bitmasks.  The S are range(n) and
    the non-empty sets without element 0, in increasing order, so every
    rest comes before the sets that read it.
    """
    full = (1 << n) - 1
    sets = []
    for s in [*range(2, full, 2), full] if n else ():
        low = s & -s
        rest = sub = s ^ low
        splits = []
        while sub:
            sub = (sub - 1) & rest
            splits.append((low | sub, rest ^ sub))
        sets.append((s, tuple(splits)))
    return sets


def _source(n: int, scores: bool) -> str:
    """The source of the straight-line kernel over range(n) (`_kernel`).

    Its locals are named by integer indices alone: `s{B}` is the score of
    the block B and `b{S}` the best sum of block scores over the partitions
    of S, both as bitmasks.  Every partition of S is a block B holding S's
    lowest element plus a partition of S - B, so `b{S}` is the largest of
    `s{S}` and of `s{B} + b{S - B}` over S's splits (`_splits`).  With
    `scores`, `kernel(score)` unpacks the scores from a list indexed by
    block.  Without, `kernel(values, top, weights)` scores each block as
    its lowest value times its mass: the lowest value `l{B}` is the lesser
    of its lowest element's value `v{i}` and that of the rest of the block
    (`top`, the value 1, for the empty rest), and the mass `m{B}` adds
    `w{i}` to the rest's.
    """
    blocks = range(1, 1 << n)
    if scores:
        lines = ["_, " + "".join(f"s{b}, " for b in blocks) + "= score"]
    else:
        lines = ["".join(f"v{i}, " for i in range(n)) + "= values", "".join(f"w{i}, " for i in range(n)) + "= weights"]
        for b in blocks:
            rest = b & (b - 1)
            i = (b ^ rest).bit_length() - 1
            low, mass = (f"l{rest}", f"m{rest} + ") if rest else ("top", "")
            lines += [f"l{b} = v{i} if v{i} < {low} else {low}", f"m{b} = {mass}w{i}", f"s{b} = l{b} * m{b}"]
    for s, splits in _splits(n):
        lines.append(f"b{s} = s{s}")
        for block, rest in splits:
            lines += [f"t = s{block} + b{rest}", f"if t > b{s}: b{s} = t"]
    lines.append(f"return b{(1 << n) - 1}" if n else "return 0")
    parameters = "score" if scores else "values, top, weights"
    return f"def kernel({parameters}):\n" + "".join(f"    {line}\n" for line in lines)


@lru_cache(maxsize=DISSECTION_MAX_UNIVERSE)
def _kernel(n: int, scores: bool = False) -> Callable[..., int]:
    """`_source(n, scores)` compiled on first use; it reads no global and no builtin.

    The dissection only ever asks for `n <= DISSECTION_MAX_UNIVERSE`, so
    the cache keeps every kernel it builds.
    """
    namespace: dict = {}
    exec(_source(n, scores), {"__builtins__": {}}, namespace)
    return namespace["kernel"]


def _best_dissection(score: Sequence[int], n: int) -> int:
    """The maximum over the partitions of range(n) of the sum of their blocks' scores.

    `score[block]` is indexed by the block as a bitmask; the recursion is
    the dissection kernel's (`_source`).
    """
    return _kernel(n, True)(score)


def integral_dissection(subset: FuzzySubset, model: WeakProbModel) -> Fraction:
    """Supremum over all measurable dissections of sum(inf f on block * mu(block)).

    The supremum is exact over every set partition of the universe, so it
    is capped at small universes; it serves as the independent oracle for
    the expectation form.  One straight-line kernel per universe size
    (`_kernel`, generated on first use) scores each of the 2^n - 1 blocks
    once, on values and weights over shared integer denominators, and finds
    the best partition by recursion over subsets, not by scoring each of
    the Bell(n) partitions.
    """
    _require(subset, model.universe, 1)
    n = len(model.universe)
    if n > DISSECTION_MAX_UNIVERSE:
        raise UniverseTooLarge(f"dissection enumeration capped at |M| <= {DISSECTION_MAX_UNIVERSE}")
    form = model.form
    return Fraction(_kernel(n)(subset.row, subset.den, form.weight_row), subset.den * form.m_den)


def integral_layercake(subset: FuzzySubset, model: WeakProbModel) -> Fraction:
    """Sum over the distinct values 0 = v0 < v1 < ... of (vi - vi-1) * mu{f >= vi}.

    One walk over the (value, weight) pairs by decreasing value keeps the
    running mass mu{f >= v} of the values seen; each distinct value adds
    its term when the walk passes below it.
    """
    _require(subset, model.universe, 1)
    form = model.form
    total = mass = level = 0
    for value, weight in sorted(zip(subset.row, form.weight_row), reverse=True):
        if value != level:
            total += (level - value) * mass
            level = value
        mass += weight
    return Fraction(total + level * mass, subset.den * form.m_den)


def integral_dirac(subset: FuzzySubset, model: WeakProbModel) -> Fraction:
    """mu(f^-1(1)) for crisp f, which is f's expectation; the Dirac-style shortcut is only sound there."""
    _require(subset, model.universe, 1)
    if not subset.is_crisp():
        raise NotCrisp("the Dirac integral is only defined for {0,1}-valued subsets")
    return Fraction(*_expectation(1, subset.row, model.form))


# ---------------------------------------------------------------------------
# Slices of a binary subset


def _rows(h: FuzzySubset, universe: tuple[str, ...]) -> list[Sequence[int]]:
    """The rows h(a, .) of a binary subset's integer row, in universe order, once `h` is checked against `universe`."""
    _require(h, universe, 2)
    values, n = h.row, len(universe)
    return [values[i * n:(i + 1) * n] for i in range(n)]


def _slice_row(h: FuzzySubset, model: WeakProbModel, over_first: bool) -> tuple[int, list[int]]:
    """h integrated over one argument as a unary row over its den, `h.den * M`, in universe order.

    `h`'s integer row is in (a, b) order, so row a holds h(a, .); integrating
    over the first argument sums its columns instead.  Each value is a
    weighted mean of values in [0, 1], so it lies in [0, 1].
    """
    rows, form = _rows(h, model.universe), model.form
    if over_first:
        rows = zip(*rows)
    return h.den * form.m_den, [sum(map(mul, row, form.weight_row)) for row in rows]


def slice_first(h: FuzzySubset, model: WeakProbModel) -> FuzzySubset:
    """Integrate a binary subset over its first argument: g(y) = sum_a h(a,y)mu(a)."""
    return FuzzySubset._trusted(model.universe, 1, *_slice_row(h, model, True))


def slice_second(h: FuzzySubset, model: WeakProbModel) -> FuzzySubset:
    """Integrate a binary subset over its second argument: g(x) = sum_b h(x,b)mu(b)."""
    return FuzzySubset._trusted(model.universe, 1, *_slice_row(h, model, False))


def double_sum(h: FuzzySubset, model: WeakProbModel) -> Fraction:
    """Product-measure double sum: sum over (a,b) of h(a,b)mu(a)mu(b)."""
    (scale, sums), form = _slice_row(h, model, False), model.form
    return Fraction(sum(map(mul, sums, form.weight_row)), scale * form.m_den)


# ---------------------------------------------------------------------------
# The five semantic-integral laws


class LawSamples(NamedTuple):
    """The rows of the law checks on one sample set over one universe, derived once for every model.

    `rows` lists the `(den, row)` of every core call that no model changes,
    in the order the core sees them: one per constant, then, pair by pair,
    the calls on `f`, `g` and `~f` that are new and those on `f -> g`,
    `f (+) g` and `f (x) g`.  `constants` holds each constant with its
    value as `(numerator, denominator)`; `pairs` holds each pair with the
    positions in `rows` of `f`'s, `g`'s and `~f`'s calls and of its first
    own call.  `lines` lists the distinct rows and columns of the bivariate
    subsets, and `bivariate` holds each bivariate subset with its den and
    the positions in `lines` of its columns and of its rows.  All of it is
    tuples.
    """

    universe: tuple[str, ...]
    rows: tuple[tuple[int, tuple[int, ...]], ...]
    constants: tuple[tuple[Fraction, tuple[int, int]], ...]
    pairs: tuple[tuple[FuzzySubset, FuzzySubset, int, int, int, int], ...]
    lines: tuple[tuple[int, ...], ...]
    bivariate: tuple[tuple[FuzzySubset, int, tuple[int, ...], tuple[int, ...]], ...]


def prepare_law_samples(
    universe: tuple[str, ...],
    pairs: Sequence[tuple[FuzzySubset, FuzzySubset]] = (),
    bivariate: Sequence[FuzzySubset] = (),
    constants: Sequence[Fraction] = DEFAULT_GRID,
) -> LawSamples:
    """The law checks' rows on these samples, independent of any model (`LawSamples`).

    Each subset object is checked against `universe` and matched by
    equality on its first occurrence only; after that its entry, the
    positions of its call and of its complement's, is found by identity.
    Both sides of a pair are checked before either's row is taken, and
    every subset is checked before any core call is made.
    """
    n = len(universe)
    rows = []
    prepared_constants = []
    for r in constants:
        q = unit(r)
        prepared_constants.append((r, (q.numerator, q.denominator)))
        rows.append((q.denominator, (q.numerator,) * n))

    # one entry per distinct subset, [the position of its call, that of its complement's],
    # each filled on first use; `prepared_pairs` keeps every subset keyed by `id` alive
    by_id: dict[int, list] = {}
    by_value: dict[FuzzySubset, list] = {}

    def entry(f):
        _require(f, universe, 1)
        by_id[id(f)] = found = by_value.setdefault(f, [None, None])
        return found

    prepared_pairs = []
    for f, g in pairs:
        left = by_id.get(id(f)) or entry(f)
        right = by_id.get(id(g)) or entry(g)
        if left[0] is None:
            left[0] = len(rows)
            rows.append((f.den, f.row))
        if right[0] is None:
            right[0] = len(rows)
            rows.append((g.den, g.row))
        if left[1] is None:
            left[1] = len(rows)
            rows.append((f.den, tuple([f.den - x for x in f.row])))
        prepared_pairs.append((f, g, left[0], right[0], left[1], len(rows)))
        den, a, b = _aligned(f, g)
        rows += [(den, tuple([min(den, den - x + y) for x, y in zip(a, b)])),
                 (den, tuple([min(den, x + y) for x, y in zip(a, b)])),
                 (den, tuple([max(0, x + y - den) for x, y in zip(a, b)]))]

    lines: dict[tuple[int, ...], int] = {}  # each distinct row or column, with its position in `lines`

    def number(line):
        return lines.setdefault(line, len(lines))

    prepared_bivariate = []
    for h in bivariate:
        split = _rows(h, universe)
        prepared_bivariate.append((h, h.den, tuple(map(number, zip(*split))), tuple(map(number, split))))
    return LawSamples(universe, tuple(rows), tuple(prepared_constants), tuple(prepared_pairs), tuple(lines),
                      tuple(prepared_bivariate))


def check_prepared_laws(model: WeakProbModel, samples: LawSamples, integral: Callable = _expectation) -> Report:
    """The law checks of `samples` on one model: integrate the rows, then decide each law on integers.

    The core sees `samples.rows` in order, then each bivariate subset's two
    slices, the first over its columns, the second over its rows, both
    weighted by this model.
    """
    universe, form = model.universe, model.form
    if samples.universe != universe:
        raise FormatError(f"law samples over the universe {samples.universe}, expected {universe}")
    report = Report(checked=len(samples.constants) + 3 * len(samples.pairs) + len(samples.bivariate))

    def record(law, lhs, rhs, sample):
        report.add("integral-law-violation", law=law, lhs=str(Fraction(*lhs)), rhs=str(Fraction(*rhs)),
                   sample=sample)

    def equal(p, q):
        return p[0] * q[1] == q[0] * p[1]

    out = [integral(den, row, form) for den, row in samples.rows]

    for lhs, (r, rhs) in zip(out, samples.constants):
        if not equal(lhs, rhs):
            record("constant", lhs, rhs, {"r": str(r)})

    for f, g, i, j, k, p in samples.pairs:
        (num_f, scale_f), (num_g, scale_g) = out[i], out[j]
        lhs, rhs = out[k], (scale_f - num_f, scale_f)
        if not equal(lhs, rhs):
            record("complement", lhs, rhs, _sample(f=f))

        # int f and int g are cross_f / scale and cross_g / scale
        scale = scale_f * scale_g
        cross_f, cross_g = num_f * scale_g, num_g * scale_f

        lhs, rhs = out[p], (min(scale, scale - cross_f + cross_g), scale)
        if lhs[0] * scale > rhs[0] * lhs[1]:
            record("implication", lhs, rhs, _sample(f=f, g=g))

        lhs, (num_and, scale_and) = out[p + 1], out[p + 2]
        rhs = ((cross_f + cross_g) * scale_and - num_and * scale, scale * scale_and)
        if not equal(lhs, rhs):
            record("additivity", lhs, rhs, _sample(f=f, g=g))

    # each distinct row and column of a bivariate subset integrated once, h(a, .) and h(., b) alike
    weights, m_den = form.weight_row, form.m_den
    sums = [sum(map(mul, line, weights)) for line in samples.lines]
    for h, den, columns, rows in samples.bivariate:
        scale = den * m_den
        first_then_second = integral(scale, [sums[i] for i in columns], form)
        second_then_first = integral(scale, [sums[i] for i in rows], form)
        if not equal(first_then_second, second_then_first):
            record("iteration", first_then_second, second_then_first, _sample(h=h))

    return report


def check_semantic_integral_laws(
    model: WeakProbModel,
    pairs: Sequence[tuple[FuzzySubset, FuzzySubset]] = (),
    bivariate: Sequence[FuzzySubset] = (),
    constants: Sequence[Fraction] = DEFAULT_GRID,
    integral: Callable = _expectation,
) -> Report:
    """Check the constant, complement, implication, additivity and iteration laws.

    Violations are report entries carrying the offending sample, never
    exceptions.  The implication law is an inequality; the other four are
    exact equalities.

    `integral(den, row, form) -> (numerator, scale)`, with `scale > 0`, has
    `_expectation`'s contract; each row holds one value in [0, den] per
    element.  It sees each unary subset of `pairs` once, subsets that are
    equal counting as one, and its complement once, when it is first the
    left of a pair; each pair then costs three calls, on the rows of
    `f -> g`, `f (+) g` and `f (x) g` over the lcm of the two
    denominators, and each bivariate subset two, on its slices.

    The check runs in two steps.  `prepare_law_samples` checks every
    subset against the model's universe, once per distinct subset, and
    derives every row that depends on the samples alone: the subsets' and
    complements' rows, the three rows of each pair and the rows and
    columns of each bivariate subset.  `check_prepared_laws` integrates
    them on this model and decides each law.  A bad subset anywhere
    raises before the core is called.  `validate.integral_law_suite`
    keeps the prepared samples, so the rows of one sample set are derived
    once for every model.
    """
    return check_prepared_laws(model, prepare_law_samples(model.universe, pairs, bivariate, constants), integral)


def _aligned(f: FuzzySubset, g: FuzzySubset) -> tuple[int, Sequence[int], Sequence[int]]:
    """Both subsets' rows over the lcm of their denominators."""
    den = lcm(f.den, g.den)
    a = f.row if den == f.den else [x * (den // f.den) for x in f.row]
    b = g.row if den == g.den else [y * (den // g.den) for y in g.row]
    return den, a, b


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
    predicates = model.predicates
    if APPROX_PRED not in predicates or model.pred_arity(APPROX_PRED) != 2:
        raise FormatError(f"{APPROX_PRED!r} must be a binary predicate of the model")
    sim = predicates[APPROX_PRED]
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

    for name, table in predicates.items():
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
    """Check that a family contains the given constants, at its arity, and is closed under ->.

    The evaluator always works with the full space of rational fuzzy
    subsets, where this holds trivially; the check exists for restricted
    families supplied by the caller.
    """
    report = Report()
    if not family:
        raise FormatError("family must be non-empty")
    universe, arity = family[0].universe, family[0].arity
    members = set(family)

    tuples = len(universe) ** arity
    for r in constants:
        value = unit(r)
        report.tally()
        if FuzzySubset._trusted(universe, arity, value.denominator, [value.numerator] * tuples) not in members:
            report.add("missing-constant", value=str(r))

    for f in family:
        _require(f, universe, arity)
    for f in family:
        for g in family:
            den, a, b = _aligned(f, g)
            f_implies_g = FuzzySubset._trusted(universe, arity, den, [min(den, den - x + y) for x, y in zip(a, b)])
            report.tally()
            if f_implies_g not in members:
                report.add("not-closed-under-implication", sample=_sample(f=f, g=g))

    return report
