"""Model generation, axiom validity testing and countermodel search.

Models are generated over one grid of exact rationals, as integers alone:
a measure is a draw of the grid's numerators over its lcm, one per
element, normalised on integers (`model.integer_measure`; all-zero draws
are dropped or redrawn), a predicate table is a row of grid numerators and
a function table a row of element positions.  One materialiser
(`_Models.model`) makes every generated model's integer form from such
rows, and no `Fraction` table.  Exhaustive mode enumerates every grid
combination in a deterministic order; random mode is reproducible from
the seed.
Countermodel search and the axiom checks enumerate only the models that
are least in their orbit under relabellings of the universe
(`exhaustive_models`).  The odometer works this out position by position:
it compares a model's indices with their images only while some
relabelling still maps the prefix before the changed position to itself,
and skips every model of a prefix that one maps lower.  An axiom
instantiation with a failing check is swept again over every model, for
every record; its `checked` count is always that of every model, taken
from the plan that its sweeps run on.

Exhaustive mode has one enumeration path, an odometer over factor indices
(`_Odometer`): one factor for the measure and one per predicate table,
function table and constant.  The choices of every factor depend only on
the size, the grid and the arities, and are built once per process
(`_plan`); the odometer labels them with the vocabulary's names and
copies nothing.  `exhaustive_models` materialises a model per step, as
`random_models` does per draw.
Axiom checks and countermodel search run on the same odometer without
building models (`_bound_models`): each formula has its own integer view
(`evaluate.SweepView`).  The view hands the odometer its writes once per
sweep, with predicate rows over the `D` the evaluator chose for the
formula; the sweep stages it per measure, carries out the writes of the
factors that changed and reads its `numerator` and `scale`, nothing
else.  Verdicts are decided on the views' integers, and a
`WeakProbModel` is built from the indices only for a violation record, a
gap witness or a countermodel.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Iterator, Sequence

from .errors import (
    ContainmentViolated,
    FormatError,
    IntlogicError,
    InvalidSpec,
    NotASentence,
    SearchSpaceTooLarge,
    TableIncomplete,
)
from .evaluate import SweepView, compile_formula, compile_integers
from .integrals import LawSamples, check_prepared_laws, prepare_law_samples
from .model import (
    FuzzySubset,
    IntegerForm,
    WeakProbModel,
    integer_measure,
    integer_row,
    model_to_json,
    nested,
    reduct,
    relabelled,
    rename,
)
from .parser import print_formula
from .proofs import axiom_sides
from .rational import DEFAULT_GRID, ONE, ZERO, unit
from .reporting import Report
from .syntax import (
    APPROX_PRED,
    EQ_PRED,
    And,
    Atom,
    Formula,
    Not,
    StrongAnd,
    TruthConst,
    Variable,
    Vocabulary,
    free_vars,
    infer_vocabulary,
    is_well_formed,
    mentions_eq,
    rename_symbols,
)

_ELEMENT_NAMES = "abcdefghijklmnopqrstuvwxyz"

EXHAUSTIVE_SPACE_CAP = 2_000_000
LAW_SUITE_CAP = 100_000  #: the most unary pairs, and bivariate subsets, of an exhaustive law suite


@dataclass(frozen=True)
class ModelGenSpec:
    """How to draw models: universe size, grid, seed, count.

    The grid gives both the table values and the measure draws; repeated
    values are dropped, keeping the first occurrence of each.
    """

    size: int = 2
    grid: tuple[Fraction, ...] = DEFAULT_GRID
    seed: int = 0
    count: int = 100
    exhaustive: bool = False

    def __post_init__(self):
        if self.size < 1:
            raise InvalidSpec("universe size must be >= 1")
        if self.count < 1:
            raise InvalidSpec("model count must be >= 1")
        if not self.grid:
            raise InvalidSpec("the grid must be non-empty")
        object.__setattr__(self, "grid", tuple(dict.fromkeys(Fraction(v) for v in self.grid)))
        # generated models skip the model checks, so the grid must make them valid
        for v in self.grid:
            if not ZERO <= v <= ONE:
                raise InvalidSpec(f"value {v} is outside [0, 1]")
        if max(self.grid) <= ZERO:
            # every measure draw would sum to 0, and measures are draws renormalized
            raise InvalidSpec("the grid needs a positive value")


def universe_names(size: int) -> tuple[str, ...]:
    if size <= len(_ELEMENT_NAMES):
        return tuple(_ELEMENT_NAMES[:size])
    return tuple(f"e{i}" for i in range(1, size + 1))


def _grid_measures(size: int, numerators: Sequence[int]) -> list[tuple]:
    """`integer_measure` of every distinct measure a draw of `numerators` per element normalises to, in draw order.

    Draws run through `itertools.product(numerators, ...)`; an all-zero draw
    is dropped, and a measure is kept at its first draw.
    """
    forms = {}
    for draw in itertools.product(numerators, repeat=size):
        if any(draw):
            form = integer_measure(draw)
            forms.setdefault(form[1], form)
    return list(forms.values())


def grid_measures(size: int, grid: Sequence[Fraction]) -> list[dict[str, Fraction]]:
    """All distinct measures obtained by renormalizing grid draws, in the order of their first draws.

    The draws run through the sorted grid.  A draw takes a numerator over the grid's lcm per element and is
    normalised on integers (`integer_measure`); all-zero draws are dropped.
    """
    names = universe_names(size)
    return [{name: Fraction(w, m_den) for name, w in zip(names, weight_row)}
            for m_den, weight_row in _grid_measures(size, integer_row(sorted(grid))[1])]


def _pred_symbols(voc: Vocabulary) -> list[tuple[str, int]]:
    """The predicate tables a generated model draws: the vocabulary's, then `approx`."""
    return list(voc.predicates) + ([(APPROX_PRED, 2)] if voc.has_approx else [])


def _identity(size: int, den: int) -> tuple:
    """The rows of `eq`, the crisp identity, over `den`: the one table no draw sets."""
    return nested([den if i == j else 0 for i in range(size) for j in range(size)], size, 2)


def _table_images(sigma: tuple[int, ...], arity: int, values: Sequence[int]) -> list[int]:
    """The index of each table's image under the relabelling `sigma`, by table index.

    A table is a mixed-radix number: one digit per key, in the plan's
    product order with the first key the most significant, and `len(values)`
    digit values.  The image moves the digit at key `k` to key `sigma(k)`
    and turns digit `d` into `values[d]`.
    """
    keys = list(itertools.product(range(len(sigma)), repeat=arity))
    position = {key: i for i, key in enumerate(keys)}
    base, last = len(values), len(keys) - 1
    weights = [base ** (last - position[tuple(sigma[e] for e in key)]) for key in keys]
    return [sum(map(operator.mul, digits, weights)) for digits in itertools.product(values, repeat=len(keys))]


def _relabellings(measures: list[tuple[int, tuple[int, ...]]], grid_size: int, pred_arities: Sequence[int | None],
                  func_arities: Sequence[int], constants: int) -> list[list]:
    """The images of every factor choice under each relabelling of the universe but the identity.

    A relabelling `sigma` maps element `j` to element `sigma[j]`.  Its
    images hold one list per odometer position (the measure, each
    predicate table, each function table, each constant) with the index of
    each choice's image.  `measures` holds each measure as
    `integer_measure` gives it, `(M, weight_row)`.  A predicate arity of
    None is a fixed table, which every relabelling maps to itself.  Factors of one kind and arity share their
    image list.
    """
    size = len(measures[0][1])
    measure_index = {row: i for i, (_, row) in enumerate(measures)}
    out = []
    for sigma in itertools.islice(itertools.permutations(range(size)), 1, None):
        moved = []
        for _, row in measures:
            image = [None] * size
            for j, weight in zip(sigma, row):
                image[j] = weight
            moved.append(measure_index[tuple(image)])
        preds = {arity: [0] if arity is None else _table_images(sigma, arity, range(grid_size))
                 for arity in set(pred_arities)}
        funcs = {arity: _table_images(sigma, arity, sigma) for arity in set(func_arities)}
        out.append([moved, *map(preds.get, pred_arities), *map(funcs.get, func_arities), *[sigma] * constants])
    return out


class _Models:
    """Models over a universe of `size` elements and a sorted grid, made from integer rows alone.

    `names` is the universe, `den` the grid's lcm and `numerators` the grid
    values times `den`, in order.  `model` is the one materialiser of
    generated models, exhaustive and random; it makes no name of an
    element, since a model's form holds positions alone.
    """

    def __init__(self, size: int, grid: Sequence[Fraction]):
        self.names = universe_names(size)
        self.den, self.numerators = integer_row(grid)

    def model(self, measure: tuple, parts: Iterable[tuple]) -> WeakProbModel:
        """The model of `measure`, as `integer_measure` gives it, and of one `(kind, name, choice)` per other part.

        A predicate's choice is its nested rows of numerators over `den`, a
        function's its nested rows of positions and a constant's a position.
        The model's integer form holds the rows, the measure and the
        positions as they are.
        """
        rows = {"predicate": {}, "function": {}, "constant": {}}
        for kind, name, choice in parts:
            rows[kind][name] = choice
        form = IntegerForm(self.den, rows["predicate"], *measure, rows["function"], rows["constant"])
        return WeakProbModel._trusted(self.names, form)


class _Plan(_Models):
    """Everything an exhaustive enumeration derives from its shape, and nothing from symbol names.

    The shape is the universe size, the sorted grid, the arity of each drawn
    predicate table (the vocabulary's, then `approx`), whether `eq` is the
    fixed identity, the arity of each function table and the number of
    constants.  The plan holds each measure once, as `integer_measure`
    gives it (`(M, weight_row)`), and each factor's choices once, as
    integer rows: a predicate's are its nested rows of numerators over the
    grid's lcm `den` (one list per arity, which the predicates of that
    arity share), `eq`'s is the identity, a function's are its nested rows
    of positions and a constant's are the positions.  Every measure and
    every row is a tuple, so the models built on a plan cannot change it.
    """

    def __init__(self, size: int, grid: tuple[Fraction, ...], pred_arities: tuple[int, ...], eq: bool,
                 func_arities: tuple[int, ...], constants: int):
        super().__init__(size, grid)
        den, numerators = self.den, self.numerators
        self.measures = _grid_measures(size, numerators)

        space = len(self.measures)
        for arity in pred_arities:
            space *= len(grid) ** (size ** arity)
        for arity in func_arities:
            space *= size ** (size ** arity)
        space *= size ** constants
        if space > EXHAUSTIVE_SPACE_CAP:
            raise SearchSpaceTooLarge(f"exhaustive space has {space} models (cap {EXHAUSTIVE_SPACE_CAP})")

        def choices(arity: int, values: Sequence[int]) -> list[tuple]:
            """Every nested row of `values` of this arity, in product order."""
            return [nested(combo, size, arity) for combo in itertools.product(values, repeat=size ** arity)]

        by_arity = {arity: choices(arity, numerators) for arity in set(pred_arities)}
        #: the choices of each factor after the measure, in the odometer's order
        self.choices = [by_arity[arity] for arity in pred_arities] + [[_identity(size, den)]] * eq
        by_arity = {arity: choices(arity, range(size)) for arity in set(func_arities)}
        self.choices += [by_arity[arity] for arity in func_arities] + [range(size)] * constants
        self.radices = [len(self.measures), *map(len, self.choices)]
        self._images = (len(grid), [*pred_arities, *[None] * eq], func_arities, constants)

    @functools.cached_property
    def relabellings(self) -> list[tuple]:
        """`_relabellings` of the plan's choices, built on the first sweep that prunes by orbit."""
        return _relabellings(self.measures, *self._images)


PLAN_CHOICES_KEPT = 1024  #: the most choices, summed over a plan's factors, of a plan kept for later sweeps
PLANS_KEPT = 8  #: the most plans kept at once

_PLANS: dict[tuple, _Plan] = {}  #: the plans kept, by shape, least recently used first


def _kept(kept: dict, key, build, size, bound: int, count: int):
    """The value under `key` in `kept`, or a new one from `build()`, kept only when `size(value) <= bound`.

    `kept` holds at most `count` values, least recently used first, and
    drops the first when full.  An error of `build()` is raised and keeps
    nothing.
    """
    value = kept.pop(key, None)
    if value is None:
        value = build()
        if size(value) > bound:
            return value
        if len(kept) >= count:
            del kept[next(iter(kept))]
    kept[key] = value
    return value


def _plan(*shape) -> _Plan:
    """The `_Plan` of this shape: the one kept from an earlier sweep, or a new one, kept when small."""
    return _kept(_PLANS, shape, lambda: _Plan(*shape), lambda plan: sum(plan.radices), PLAN_CHOICES_KEPT, PLANS_KEPT)


def _shape(gen: ModelGenSpec, voc: Vocabulary, eq: bool) -> tuple:
    """The shape of the `_Plan` that enumerates `voc`'s models, with `eq` as in `exhaustive_models`."""
    return (gen.size, tuple(sorted(gen.grid)), tuple(arity for _, arity in _pred_symbols(voc)), eq,
            tuple(arity for _, arity in voc.functions), len(voc.constants))


class _Odometer:
    """The exhaustive enumeration over the grid: one factor per part of a model.

    Position 0 is the measure, then come one position per predicate table
    (the vocabulary's, `approx`, then the fixed ones), per function table
    and per constant.  A model is a list of indices, one choice per factor,
    and models come in lexicographic order on those lists.  Orbit pruning
    works per position, on the prefixes of that list (`sweep`).

    The choices, the measures and the radices stay on the `_Plan` of the
    enumeration's shape, which is built once per process (`_plan`), or
    handed in by a caller that has it.  The odometer only labels the
    factors after the measure with the vocabulary's names, as `(kind, name,
    choices)`, with the plan's choices: a predicate's rows over the grid's
    lcm, a function's rows of positions and a constant's positions.
    """

    def __init__(self, gen: ModelGenSpec, voc: Vocabulary, eq: bool, orbit_least: bool,
                 plan: _Plan | None = None):
        plan = self.plan = plan or _plan(*_shape(gen, voc, eq))
        labels = [("predicate", name) for name, _ in _pred_symbols(voc)] + [("predicate", EQ_PRED)] * eq
        labels += [("function", name) for name, _ in voc.functions] + [("constant", name) for name in voc.constants]
        self.factors = [(*label, choices) for label, choices in zip(labels, plan.choices)]
        # the images of each relabelling but the identity, one list per position; none without pruning
        self.relabellings = plan.relabellings if orbit_least else []

    def sweep(self, views: Sequence[SweepView] = ()) -> Iterator[tuple[list[int], int]]:
        """`(indices, changed)` of every model in order; with orbit pruning, of the orbit-least ones.

        `indices` is the odometer's own list, which the next step changes in
        place; `changed` is the least position whose index changed since
        the model before (0 for the first model).  Each view hands in its
        writes once per sweep (`SweepView.writes`).  Before each model,
        every view is staged for a new measure and then gets the slots of
        the changed factors rewritten.

        Orbit pruning compares prefixes: `ties[p]` holds the relabellings
        that map `indices[:p]` to itself, and `free` is the first position
        whose ties are empty.  Every relabelling maps `indices[:free]`
        higher, so a step that changes no position before `free` needs no
        check; otherwise the check starts at the changed position `p`.  A
        relabelling in `ties[p]` that maps `indices[p]` lower maps every
        model with the prefix `indices[:p + 1]` lower, so the sweep skips
        them all (`step(p)`).  While the last position is at or after
        `free`, the rest of its choices are yielded in a plain loop.
        """
        plan, relabellings = self.plan, self.relabellings
        radices, n = plan.radices, len(plan.radices)
        writes = [[] for _ in range(n)]  #: per position, (view list, slot, choices) of each view reading it
        for view in views:
            for position, values, slot, choices in view.writes(self.factors):
                writes[position].append((values, slot, choices))
        last, last_writes = n - 1, writes[-1]
        ties = [relabellings] + [None] * n
        free = n + 1 if relabellings else 0  #: n + 1 until the first check, and where no ties are empty

        indices = [0] * n

        def step(position: int) -> int:
            """Count `indices` up by one at `position`; the position changed, or -1 past the last model."""
            while indices[position] + 1 == radices[position]:
                indices[position] = 0
                position -= 1
                if position < 0:
                    return -1
            indices[position] += 1
            return position

        def pruned(position: int) -> bool:
            """Whether a relabelling in `ties[position]` maps `indices[position]` lower.

            If none does, `ties[p + 1]` is set for each position `p` from
            `position` on until the ties run out, and `free` to the first
            position whose ties are empty, or to `n + 1` when some
            relabelling maps the whole model to itself.  A check starts at
            the position a step changed, so every later index is 0, which
            no relabelling maps lower.
            """
            nonlocal free
            for p in range(position, n):
                i, tied = indices[p], []
                for images in ties[p]:
                    j = images[p][i]
                    if j < i:
                        return True
                    if j == i:
                        tied.append(images)
                ties[p + 1] = tied
                if not tied:
                    free = p + 1
                    return False
            free = n + 1
            return False

        changed = position = 0
        while position >= 0:
            if position < free and pruned(position):
                # every model with this prefix maps lower too: skip them all
                position = step(position)
                changed = min(changed, position)
                continue
            if not changed:
                m_den, weight_row = plan.measures[indices[0]]
                for view in views:
                    view.stage(m_den, weight_row)
            for p in range(changed, n):
                i = indices[p]
                for values, slot, choices in writes[p]:
                    values[slot] = choices[i]
            yield indices, changed
            if free <= last and last:
                # every further choice of the last factor is orbit-least too (a measure would need staging)
                for i in range(indices[last] + 1, radices[last]):
                    indices[last] = i
                    for values, slot, choices in last_writes:
                        values[slot] = choices[i]
                    yield indices, last
            position = changed = step(last)

    def model(self, indices: Sequence[int]) -> WeakProbModel:
        """The model at `indices` (`_Models.model`): it shares the plan's measure and rows."""
        plan = self.plan
        return plan.model(plan.measures[indices[0]],
                          [(kind, name, choices[i]) for (kind, name, choices), i in zip(self.factors, indices[1:])])


def exhaustive_models(gen: ModelGenSpec, voc: Vocabulary, eq: bool = False, *,
                      orbit_least: bool = False) -> Iterator[WeakProbModel]:
    """Every model over the grid, in a fixed deterministic order.

    With `eq`, every model also interprets `eq` as the crisp identity.  The
    models are valid by construction.  Each is made from the integer rows
    of the grid's plan (`_Plan`), which is built once per process; its
    integer form shares the plan's measures and rows, all tuples, so no
    model can change the plan.

    The order is lexicographic on the factor indices: the measure's, each
    predicate table's, each function table's and each constant's.  With
    `orbit_least`, only the models that are least in their orbit under
    relabellings of the universe are yielded, those that no relabelling
    maps to a model with smaller indices.  A sentence has the same value
    on every relabelling of a model, so the first model with some value is
    orbit-least and is found either way; so is the first model where an
    axiom check fails (`_failures`).  A prefix of the indices that a
    relabelling maps lower skips every model that starts with it, and a
    prefix that every relabelling maps higher leaves the models that start
    with it unchecked (`_Odometer.sweep`).
    """
    odometer = _Odometer(gen, voc, eq, orbit_least)
    for indices, _ in odometer.sweep():
        yield odometer.model(indices)


def random_models(gen: ModelGenSpec, voc: Vocabulary, eq: bool = False) -> Iterator[WeakProbModel]:
    """`gen.count` models drawn reproducibly from the seed; `eq` as in `exhaustive_models`.

    A model is drawn as integers alone: per element a numerator over the
    sorted grid's lcm for the measure (all-zero draws redrawn), then per
    tuple a numerator for each predicate table, a position for each
    function table, and a position for each constant.  It is made from the
    draws as `exhaustive_models` makes a model from the plan's rows
    (`_Models.model`), so it is valid by construction and carries its
    integer form, with `D` the grid's lcm.
    """
    models, size, rng = _Models(gen.size, sorted(gen.grid)), gen.size, random.Random(gen.seed)
    names, numerators, elements = models.names, models.numerators, range(size)
    symbols = [("predicate", name, arity, numerators) for name, arity in _pred_symbols(voc)]
    symbols += [("function", name, arity, elements) for name, arity in voc.functions]
    fixed = [("predicate", EQ_PRED, _identity(size, models.den))] * eq
    for _ in range(gen.count):
        while not any(draw := [rng.choice(numerators) for _ in names]):
            pass  # an all-zero draw is no measure: draw again
        parts = [(kind, name, nested([rng.choice(values) for _ in range(size ** arity)], size, arity))
                 for kind, name, arity, values in symbols]
        parts += fixed + [("constant", name, rng.choice(elements)) for name in voc.constants]
        yield models.model(integer_measure(draw), parts)


def generate_models(gen: ModelGenSpec, voc: Vocabulary, eq: bool = False) -> Iterator[WeakProbModel]:
    """The one place that chooses between exhaustive and seeded-random enumeration.

    Pass `eq=mentions_eq(formulas)`: term equality `eq` is then read as the
    crisp identity, which no draw changes, and models for formulas without
    `eq` carry no table for it.  Exhaustive enumeration yields every model
    (`exhaustive_models` without orbit pruning); the sweeps that prune by
    orbit, countermodel search and the axiom checks, run on the odometer
    directly (`_bound_models`).
    """
    if gen.exhaustive:
        return exhaustive_models(gen, voc, eq)
    return random_models(gen, voc, eq)


# ---------------------------------------------------------------------------
# Fuzzy-subset samples for the integral-law suite


def _subset_grid(universe: tuple[str, ...], grid: Sequence[Fraction], arity: int) -> tuple[int, tuple[int, ...]]:
    """The sorted grid as checked values over their lcm, once the universe and arity are checked too.

    Every row over them is then a valid fuzzy subset, so the callers build
    their subsets from rows without the per-value checks.  The errors are
    those the `FuzzySubset` constructor raises for the same input.
    """
    if not universe:
        raise FormatError("universe must be non-empty")
    if len(set(universe)) != len(universe):
        raise TableIncomplete("a universe with repeated elements has too few distinct tuples")
    if arity < 1:
        raise FormatError("fuzzy subset must have arity >= 1")
    return integer_row([unit(v) for v in sorted(grid)])


def grid_fuzzy_subsets(universe: Sequence[str], grid: Sequence[Fraction],
                       arity: int = 1) -> Iterator[FuzzySubset]:
    """Every fuzzy subset of the given arity with values on the grid."""
    universe = tuple(universe)
    den, values = _subset_grid(universe, grid, arity)
    for row in itertools.product(values, repeat=len(universe) ** arity):
        yield FuzzySubset._trusted(universe, arity, den, row)


def random_fuzzy_subset(universe: Sequence[str], grid: Sequence[Fraction],
                        rng: random.Random, arity: int = 1) -> FuzzySubset:
    universe = tuple(universe)
    return _random_subset(universe, arity, *_subset_grid(universe, grid, arity), rng)


def _random_subset(universe: tuple[str, ...], arity: int, den: int, values: Sequence[int],
                   rng: random.Random) -> FuzzySubset:
    """A subset whose every value is drawn from `values`, numerators over `den` as `_subset_grid` gives them."""
    return FuzzySubset._trusted(universe, arity, den, [rng.choice(values) for _ in range(len(universe) ** arity)])


LAW_SAMPLES_KEPT = 2048  #: the most pairs plus bivariate subsets of a law sample kept for later suites
LAW_SAMPLE_SETS_KEPT = 4  #: the most law samples kept at once

#: the prepared samples kept, by universe and grid (and seed and count in random mode), least recently used first
_LAW_SAMPLES: dict[tuple, LawSamples] = {}


def _exhaustive_law_samples(universe: tuple[str, ...], grid: tuple[Fraction, ...]) -> tuple[tuple, tuple]:
    """Every `(f, g)` pair of unary grid subsets and every bivariate grid subset, guarded against blowup."""
    unary_count = len(grid) ** len(universe)
    bivariate_count = len(grid) ** len(universe) ** 2
    if max(unary_count ** 2, bivariate_count) > LAW_SUITE_CAP:
        raise SearchSpaceTooLarge(
            f"{unary_count}^2 sample pairs and {bivariate_count} bivariate subsets"
            f" (cap {LAW_SUITE_CAP} each); use random sampling for this size")
    unary = list(grid_fuzzy_subsets(universe, grid, 1))
    return tuple([(f, g) for f in unary for g in unary]), tuple(grid_fuzzy_subsets(universe, grid, 2))


def _random_law_samples(universe: tuple[str, ...], gen: ModelGenSpec) -> tuple[tuple, tuple]:
    """`gen.count` seeded `(f, g)` pairs, then as many bivariate subsets, drawn in turn from one generator."""
    rng = random.Random(gen.seed)
    den, values = _subset_grid(universe, gen.grid, 1)  # the same for arity 2
    pairs = tuple([(_random_subset(universe, 1, den, values, rng), _random_subset(universe, 1, den, values, rng))
                   for _ in range(gen.count)])
    return pairs, tuple([_random_subset(universe, 2, den, values, rng) for _ in range(gen.count)])


def integral_law_suite(model: WeakProbModel, gen: ModelGenSpec) -> Report:
    """Run the five-law check over grid samples on one model.

    Exhaustive mode takes every (f, g) pair and every bivariate subset on
    the grid (guarded against blowup).  Random mode takes `gen.count`
    seeded samples of each shape, the subsets that `random_fuzzy_subset`
    draws in turn from one seeded generator, with the grid converted once.
    The samples, and so every row the law checks derive from them, depend
    only on the universe and the grid as given, and in random mode the seed
    and the count.  So they are drawn and prepared (`prepare_law_samples`,
    with the grid as the constants) once per process and kept when small
    (`LAW_SAMPLES_KEPT`), for the suites of the other measures, which only
    integrate the kept rows and compare.
    """
    universe, grid = model.universe, gen.grid
    if gen.exhaustive:
        key, draw = (universe, grid), lambda: _exhaustive_law_samples(universe, grid)
    else:
        key, draw = (universe, grid, gen.seed, gen.count), lambda: _random_law_samples(universe, gen)
    samples = _kept(_LAW_SAMPLES, key, lambda: prepare_law_samples(universe, *draw(), grid),
                    lambda samples: len(samples.pairs) + len(samples.bivariate), LAW_SAMPLES_KEPT, LAW_SAMPLE_SETS_KEPT)
    return check_prepared_laws(model, samples)


# ---------------------------------------------------------------------------
# Axiom validation


def _axiom_instantiations(axiom: str, gen: ModelGenSpec) -> list[dict]:
    p_x = Atom("P", (Variable("x"),))
    q_x = Atom("Q", (Variable("x"),))
    r_xy = Atom("R", (Variable("x"), Variable("y")))
    if axiom == "mu1":
        bodies: list[Formula] = [Atom("P", (Variable("y"),))]
        bodies += [TruthConst(r) for r in gen.grid]
        return [{"v": body, "x": "x"} for body in bodies]
    if axiom == "mu2":
        return [
            {"phi": p_x, "x": "x"},
            {"phi": Not(p_x), "x": "x"},
            {"phi": And(p_x, q_x), "x": "x"},
            {"phi": StrongAnd(p_x, q_x), "x": "x"},
        ]
    if axiom in ("mu3", "mu4"):
        return [
            {"phi": p_x, "psi": q_x, "x": "x"},
            {"phi": q_x, "psi": p_x, "x": "x"},
            {"phi": p_x, "psi": p_x, "x": "x"},
        ]
    if axiom == "mu5":
        return [
            {"phi": r_xy, "x": "x", "y": "y"},
            {"phi": Atom("R", (Variable("y"), Variable("x"))), "x": "x", "y": "y"},
        ]
    raise ValueError(f"unknown axiom {axiom!r}")


def _bound_models(formulas: Sequence[Formula], names: Sequence[str], gen: ModelGenSpec, voc: Vocabulary,
                  eq: bool = False, *, orbit_least: bool = False, plan: _Plan | None = None) -> Iterator[tuple]:
    """`(model_at, bound)` per model `random_models` or `exhaustive_models` gives, in its order.

    `bound` holds each formula's `(numerator, S)` on the model, as
    `compile_integers(formula, names)` binds it, and `model_at()` builds
    the model; both hold only until the next item.  An exhaustive sweep
    gives each formula one `SweepView`, rewritten in place per model, and
    builds a model only when `model_at` is called; it runs on `plan` when
    given, the plan of its shape.  Random mode binds each drawn model.
    """
    if not gen.exhaustive:
        binds = [compile_integers(formula, names) for formula in formulas]
        for model in random_models(gen, voc, eq):
            yield (lambda model=model: model), [bind(model) for bind in binds]
        return
    odometer = _Odometer(gen, voc, eq, orbit_least, plan)
    views = [SweepView(formula, names, odometer.plan.names, odometer.plan.den) for formula in formulas]
    for indices, changed in odometer.sweep(views):
        if not changed:  # a new measure: new scales
            bound = [(view.numerator, view.scale) for view in views]
            model_at = functools.partial(odometer.model, indices)
        yield model_at, bound


def _failures(axiom: str, gen: ModelGenSpec, equality: bool, report: Report) -> Iterator[dict]:
    """The record of every check of `axiom` where the sides fail, in order.

    A check is an instantiation, a model and a valuation of the sides' free
    names.  The sides fail where they differ, or without `equality` only
    where the left side is above the right.  They are compared on
    integers, scaled to the product of both scales.  `report.checked`
    counts every check, once per instantiation: its valuations times its
    models, `gen.count` of them, or in exhaustive mode the product of the
    plan's radices.  The plan is looked up once per instantiation, and its
    sweeps run on it.

    An exhaustive instantiation is decided on the orbit-least models only
    (`exhaustive_models`), on a sweep that compares indices with their
    images per position, and only where some relabelling still ties the
    prefix (`_Odometer.sweep`).  A relabelling of the universe maps a check
    to one with the same two values, and the valuations are all of the
    universe's tuples, so the failing models are closed under relabelling:
    when no orbit-least model fails, no model fails, and the first failing
    model is orbit-least.  On a failure the instantiation is swept again in
    full from the start, for every record in order; the first of them is
    the record the pruned sweep met, which is yielded as it stands.
    """
    universe = universe_names(gen.size)
    for inst in _axiom_instantiations(axiom, gen):
        left, right = axiom_sides(axiom, **inst)
        names = sorted(free_vars(left) | free_vars(right))
        voc = infer_vocabulary([left, right])
        valuations = list(itertools.product(universe, repeat=len(names)))
        plan = _plan(*_shape(gen, voc, False)) if gen.exhaustive else None
        report.checked += len(valuations) * (prod(plan.radices) if plan else gen.count)

        def records(orbit_least: bool) -> Iterator[dict]:
            for model_at, ((lhs, left_scale), (rhs, right_scale)) in _bound_models(
                    (left, right), names, gen, voc, orbit_least=orbit_least, plan=plan):
                for elements in valuations:
                    left_value, right_value = lhs(elements) * right_scale, rhs(elements) * left_scale
                    if left_value != right_value and (equality or left_value > right_value):
                        yield _check_record(axiom, model_at, left, right, names, elements, left_value,
                                            right_value, left_scale * right_scale)

        if not gen.exhaustive:
            yield from records(False)
            continue
        first = next(records(True), None)
        if first is not None:
            yield first
            yield from itertools.islice(records(False), 1, None)


def _check_record(axiom, model_at, left, right, names, elements, lhs, rhs, scale) -> dict:
    """A replayable record of one check: the model inline, both sides and both values."""
    return {
        "axiom": axiom,
        "model": model_to_json(model_at()),
        "instantiation": f"{print_formula(left)}  vs  {print_formula(right)}",
        "valuation": dict(zip(names, elements)),
        "lhs": str(Fraction(lhs, scale)),
        "rhs": str(Fraction(rhs, scale)),
    }


def validate_axiom(axiom: str, gen: ModelGenSpec) -> Report:
    """Check an axiom schema over generated models and instantiations.

    mu1, mu2, mu4 and mu5 are checked as exact equalities of the two sides;
    mu3 is checked in the implication direction (left side at most the
    right).  Each violation record carries the model inline, the printed
    instantiation and the two values, so it replays directly.  An
    exhaustive check is decided on the orbit-least models; an
    instantiation that fails there is swept again over every model, so the
    records and `checked` are those of every model, in order.
    """
    report = Report()
    for record in _failures(axiom, gen, axiom != "mu3", report):
        report.add("axiom-violation", **record)
    return report


def mu3_equality_gap(gen: ModelGenSpec) -> dict | None:
    """A witness where mu3 read as an equality fails (the law is only <=).

    It is the first failing check of every model; in exhaustive mode the
    sweep of orbit-least models meets it first, so no full sweep runs.
    """
    return next(_failures("mu3", gen, True, Report()), None)


# ---------------------------------------------------------------------------
# Countermodel search


def find_countermodel(formula: Formula, gen: ModelGenSpec) -> WeakProbModel | None:
    """First generated model (deterministic order) whose value for the sentence is < 1.

    `gen.exhaustive` chooses between the whole grid and `gen.count` seeded
    draws.  The grid is searched up to relabelling: only orbit-least models
    are tried, and the first hit is the same model.  Models on which a
    quantifier-equality precondition fails are skipped.
    """
    free = free_vars(formula)
    if free:
        raise NotASentence(free)
    if gen.exhaustive and (gen.size > 3 or len(gen.grid) > 5):
        raise SearchSpaceTooLarge(
            "exhaustive countermodel search is bounded by size <= 3 and grid <= 5")
    for model_at, ((numerator, scale),) in _bound_models((formula,), (), gen, infer_vocabulary(formula),
                                                         mentions_eq(formula), orbit_least=True):
        try:
            value = numerator()
        except ContainmentViolated:
            continue
        if value < scale:
            return model_at()
    return None


# ---------------------------------------------------------------------------
# Abstract-logic closure properties


def _outcome(thunk):
    try:
        return ("value", thunk())
    except IntlogicError as exc:  # the error class is the datum; other errors are bugs
        return ("error", type(exc).__name__)


def _closed_value(sentence: Formula):
    """`model -> value` of a sentence compiled once; raises as `evaluate_closed` does."""
    free = free_vars(sentence)
    if free:
        def not_a_sentence(model):
            raise NotASentence(free)
        return not_a_sentence
    value_in = compile_formula(sentence)
    return lambda model: value_in(model)()


def check_abstract_logic_properties(gen: ModelGenSpec, pool: Sequence[Formula]) -> Report:
    """Evaluation invariance under renaming, reducts and universe relabeling.

    The isomorphic image of each model keeps its universe and reverses its
    positions: position `n - 1 - i` carries what position `i` carries.
    Also checks structurally that well-formedness is monotone under
    vocabulary extension.
    """
    report = Report()
    voc = infer_vocabulary(pool)
    symbol_map = {name: f"{name}_r" for name in sorted(voc.symbol_names())}
    sentences = []
    for sentence in pool:
        sentence_voc = infer_vocabulary(sentence)
        extended = sentence_voc.merged(Vocabulary(predicates=(("extra_wf_probe", 1),)))
        monotone = is_well_formed(sentence, sentence_voc) and is_well_formed(sentence, extended)
        sentences.append((sentence, _closed_value(sentence),
                          _closed_value(rename_symbols(sentence, symbol_map)), sentence_voc, monotone))

    for m_index, model in enumerate(generate_models(gen, voc, eq=mentions_eq(pool))):
        reversal = range(len(model.universe) - 1, -1, -1)
        relabeled = WeakProbModel._trusted(model.universe, relabelled(model.form, reversal))
        renamed_model = rename(model, symbol_map)

        for sentence, value_in, renamed_value_in, sentence_voc, monotone in sentences:
            base = _outcome(lambda: value_in(model))
            for kind, image in (("isomorphism", lambda: value_in(relabeled)),
                                ("renaming", lambda: renamed_value_in(renamed_model)),
                                ("reduct", lambda: value_in(reduct(model, sentence_voc)))):
                report.tally()
                outcome = _outcome(image)
                if outcome != base:
                    report.add(f"{kind}-variance", model=m_index,
                               sentence=print_formula(sentence), base=str(base), image=str(outcome))

            report.tally()
            if not monotone:
                report.add("sentence-monotonicity-failure", model=m_index,
                           sentence=print_formula(sentence))
    return report
