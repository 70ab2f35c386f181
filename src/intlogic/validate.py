"""Model generation, axiom validity testing and countermodel search.

Models are drawn over value/measure grids of exact rationals: measures are
grid draws renormalized by exact division (all-zero draws redrawn), tables
are grid draws.  Exhaustive mode enumerates every grid combination in a
deterministic order; random mode is reproducible from the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence

from .errors import ContainmentViolated, IntlogicError, InvalidSpec, NotASentence, SearchSpaceTooLarge
from .evaluate import compile_formula
from .integrals import check_semantic_integral_laws
from .model import (
    FuzzySubset,
    IntegerForm,
    WeakProbModel,
    integer_table,
    integer_weights,
    model_to_json,
    reduct,
    relabel_universe,
    rename,
)
from .parser import print_formula
from .proofs import axiom_sides
from .rational import DEFAULT_GRID, ONE, ZERO
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


@dataclass(frozen=True)
class ModelGenSpec:
    """How to draw models: universe size, value/measure grids, seed, count."""

    size: int = 2
    value_grid: tuple[Fraction, ...] = DEFAULT_GRID
    measure_grid: tuple[Fraction, ...] = DEFAULT_GRID
    seed: int = 0
    count: int = 100
    exhaustive: bool = False

    def __post_init__(self):
        if self.size < 1:
            raise InvalidSpec("universe size must be >= 1")
        if not self.value_grid or not self.measure_grid:
            raise InvalidSpec("grids must be non-empty")
        object.__setattr__(self, "value_grid", tuple(Fraction(v) for v in self.value_grid))
        object.__setattr__(self, "measure_grid", tuple(Fraction(v) for v in self.measure_grid))
        # generated models skip the model checks, so the grids must make them valid
        for v in self.value_grid:
            if not ZERO <= v <= ONE:
                raise InvalidSpec(f"value {v} is outside [0, 1]")
        for v in self.measure_grid:
            if v < ZERO:
                raise InvalidSpec(f"measure grid value {v} is negative")
        if max(self.measure_grid) <= ZERO:
            # every measure draw would sum to 0, and measures are draws renormalized
            raise InvalidSpec("the measure grid needs a positive value")


def universe_names(size: int) -> tuple[str, ...]:
    if size <= len(_ELEMENT_NAMES):
        return tuple(_ELEMENT_NAMES[:size])
    return tuple(f"e{i}" for i in range(1, size + 1))


def grid_measures(size: int, grid: Sequence[Fraction]) -> list[dict[str, Fraction]]:
    """All distinct measures obtained by renormalizing grid draws, sorted."""
    names = universe_names(size)
    seen = set()
    out = []
    for draw in itertools.product(sorted(grid), repeat=size):
        total = sum(draw, ZERO)
        if total == ZERO:
            continue
        weights = tuple(w / total for w in draw)
        if weights in seen:
            continue
        seen.add(weights)
        out.append(dict(zip(names, weights)))
    return out


def _all_tables(names: tuple[str, ...], arity: int, values: Sequence) -> Iterator[dict]:
    keys = list(itertools.product(names, repeat=arity))
    for combo in itertools.product(values, repeat=len(keys)):
        yield dict(zip(keys, combo))


def _random_table(names: tuple[str, ...], arity: int, values: Sequence, rng: random.Random) -> dict:
    return {key: rng.choice(values) for key in itertools.product(names, repeat=arity)}


def _random_measure(names, grid, rng) -> dict[str, Fraction]:
    while True:
        draw = [rng.choice(grid) for _ in names]
        total = sum(draw, ZERO)
        if total != ZERO:
            return {name: w / total for name, w in zip(names, draw)}


def _pred_symbols(voc: Vocabulary) -> list[tuple[str, int]]:
    """The predicate tables a generated model draws: the vocabulary's, then `approx`."""
    return list(voc.predicates) + ([(APPROX_PRED, 2)] if voc.has_approx else [])


def _fixed_tables(names: tuple[str, ...], eq: bool) -> dict:
    """The tables no draw sets: `eq` as the crisp identity when asked for."""
    if not eq:
        return {}
    return {EQ_PRED: {(a, b): ONE if a == b else ZERO for a in names for b in names}}


def exhaustive_models(gen: ModelGenSpec, voc: Vocabulary, eq: bool = False) -> Iterator[WeakProbModel]:
    """Every model over the grids, in a fixed deterministic order.

    With `eq`, every model also interprets `eq` as the crisp identity.  The
    models are valid by construction and share their parts: each grid table
    is converted to integers over the value grid's lcm once, each measure
    once, and models that differ only in functions and constants share one
    predicate dict and one integer form.
    """
    names = universe_names(gen.size)
    measures = grid_measures(gen.size, gen.measure_grid)
    pred_symbols = _pred_symbols(voc)

    space = len(measures)
    for _, arity in pred_symbols:
        space *= len(gen.value_grid) ** (gen.size ** arity)
    for _, arity in voc.functions:
        space *= gen.size ** (gen.size ** arity)
    space *= gen.size ** len(voc.constants)
    if space > EXHAUSTIVE_SPACE_CAP:
        raise SearchSpaceTooLarge(f"exhaustive space has {space} models (cap {EXHAUSTIVE_SPACE_CAP})")

    # one factor per symbol, each a list of (name, choice); a fixed table is a factor of one choice
    grid = sorted(gen.value_grid)
    den = lcm(*[v.denominator for v in grid])
    pred_factors = [[(name, table) for table in _all_tables(names, arity, grid)] for name, arity in pred_symbols]
    pred_factors += [[(name, table)] for name, table in _fixed_tables(names, eq).items()]
    int_factors = [[(name, integer_table(table, den)) for name, table in choices] for choices in pred_factors]
    func_factors = [[(name, table) for table in _all_tables(names, arity, names)] for name, arity in voc.functions]
    const_factors = [[(name, element) for element in names] for name in voc.constants]

    for measure in measures:
        m_den, weights = integer_weights(names, measure)
        for preds, ints in zip(itertools.product(*pred_factors), itertools.product(*int_factors)):
            predicates = dict(preds)
            form = IntegerForm(den, dict(ints), m_den, weights)
            for funcs in itertools.product(*func_factors):
                functions = dict(funcs)
                for consts in itertools.product(*const_factors):
                    yield WeakProbModel._trusted(names, measure, predicates, functions, dict(consts), form)


def random_models(gen: ModelGenSpec, voc: Vocabulary, eq: bool = False) -> Iterator[WeakProbModel]:
    """`gen.count` models drawn reproducibly from the seed; `eq` as in `exhaustive_models`.

    The models are valid by construction; they share the `eq` table.
    """
    names = universe_names(gen.size)
    rng = random.Random(gen.seed)
    grid = sorted(gen.value_grid)
    mgrid = sorted(gen.measure_grid)
    pred_symbols = _pred_symbols(voc)
    fixed = _fixed_tables(names, eq)
    for _ in range(gen.count):
        measure = _random_measure(names, mgrid, rng)
        preds = {name: _random_table(names, arity, grid, rng) for name, arity in pred_symbols}
        preds.update(fixed)
        funcs = {name: _random_table(names, arity, names, rng) for name, arity in voc.functions}
        consts = {name: rng.choice(names) for name in voc.constants}
        yield WeakProbModel._trusted(names, measure, preds, funcs, consts)


def generate_models(gen: ModelGenSpec, voc: Vocabulary, eq: bool = False) -> Iterator[WeakProbModel]:
    """The one place that chooses between exhaustive and seeded-random enumeration.

    Pass `eq=mentions_eq(formulas)`: term equality `eq` is then read as the
    crisp identity, which no draw changes, and models for formulas without
    `eq` carry no table for it.
    """
    if gen.exhaustive:
        return exhaustive_models(gen, voc, eq)
    return random_models(gen, voc, eq)


# ---------------------------------------------------------------------------
# Fuzzy-subset samples for the integral-law suite


def grid_fuzzy_subsets(universe: Sequence[str], grid: Sequence[Fraction],
                       arity: int = 1) -> Iterator[FuzzySubset]:
    """Every fuzzy subset of the given arity with values on the grid."""
    universe = tuple(universe)
    for table in _all_tables(universe, arity, sorted(grid)):
        yield FuzzySubset(universe, table)


def random_fuzzy_subset(universe: Sequence[str], grid: Sequence[Fraction],
                        rng: random.Random, arity: int = 1) -> FuzzySubset:
    universe = tuple(universe)
    return FuzzySubset(universe, _random_table(universe, arity, sorted(grid), rng))


def integral_law_suite(model: WeakProbModel, gen: ModelGenSpec) -> Report:
    """Run the five-law check over grid samples on one model.

    Exhaustive mode takes every (f, g) pair and every bivariate subset on
    the value grid (guarded against blowup); random mode takes `gen.count`
    seeded samples of each shape.
    """
    universe = model.universe
    if gen.exhaustive:
        unary_count = len(gen.value_grid) ** len(universe)
        if unary_count ** 2 > 100_000:
            raise SearchSpaceTooLarge(
                f"{unary_count}^2 sample pairs; use random sampling for this size")
        unary = list(grid_fuzzy_subsets(universe, gen.value_grid, 1))
        pairs = [(f, g) for f in unary for g in unary]
        bivariate = list(grid_fuzzy_subsets(universe, gen.value_grid, 2))
    else:
        rng = random.Random(gen.seed)
        pairs = [
            (random_fuzzy_subset(universe, gen.value_grid, rng),
             random_fuzzy_subset(universe, gen.value_grid, rng))
            for _ in range(gen.count)
        ]
        bivariate = [
            random_fuzzy_subset(universe, gen.value_grid, rng, arity=2)
            for _ in range(gen.count)
        ]
    return check_semantic_integral_laws(model, pairs, bivariate, constants=gen.value_grid)


# ---------------------------------------------------------------------------
# Axiom validation


def _axiom_instantiations(axiom: str, gen: ModelGenSpec) -> list[dict]:
    p_x = Atom("P", (Variable("x"),))
    q_x = Atom("Q", (Variable("x"),))
    r_xy = Atom("R", (Variable("x"), Variable("y")))
    if axiom == "mu1":
        bodies: list[Formula] = [Atom("P", (Variable("y"),))]
        bodies += [TruthConst(r) for r in gen.value_grid]
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


def _axiom_checks(axiom: str, gen: ModelGenSpec, instances: int | None = None) -> Iterator[tuple]:
    """(model, left, right, valuation, lhs, rhs) for every instantiation, model and valuation."""
    for inst in _axiom_instantiations(axiom, gen)[:instances]:
        left, right = axiom_sides(axiom, **inst)
        voc = infer_vocabulary([left, right])
        names = sorted(free_vars(left) | free_vars(right))
        left_in, right_in = compile_formula(left, names), compile_formula(right, names)
        for model in generate_models(gen, voc):
            lhs, rhs = left_in(model), right_in(model)
            for combo in itertools.product(model.universe, repeat=len(names)):
                yield model, left, right, dict(zip(names, combo)), lhs(combo), rhs(combo)


def _check_record(axiom, model, left, right, valuation, lhs, rhs) -> dict:
    """A replayable record of one check: the model inline, both sides and both values."""
    return {
        "axiom": axiom,
        "model": model_to_json(model),
        "instantiation": f"{print_formula(left)}  vs  {print_formula(right)}",
        "valuation": dict(valuation),
        "lhs": str(lhs),
        "rhs": str(rhs),
    }


def validate_axiom(axiom: str, gen: ModelGenSpec, instances: int | None = None) -> Report:
    """Check an axiom schema over generated models and instantiations.

    mu1, mu2, mu4 and mu5 are checked as exact equalities of the two sides;
    mu3 is checked in the implication direction (left side at most the
    right).  Each violation record carries the model inline, the printed
    instantiation and the two values, so it replays directly.
    """
    report = Report()
    for check in _axiom_checks(axiom, gen, instances):
        lhs, rhs = check[4:]
        report.tally()
        if not (lhs <= rhs if axiom == "mu3" else lhs == rhs):
            report.add("axiom-violation", **_check_record(axiom, *check))
    return report


def mu3_equality_gap(gen: ModelGenSpec) -> dict | None:
    """A witness where mu3 read as an equality fails (the law is only <=)."""
    for check in _axiom_checks("mu3", gen):
        if check[4] != check[5]:
            return _check_record("mu3", *check)
    return None


# ---------------------------------------------------------------------------
# Countermodel search


def find_countermodel(formula: Formula, gen: ModelGenSpec) -> WeakProbModel | None:
    """First generated model (deterministic order) whose value for the sentence is < 1.

    `gen.exhaustive` chooses between the whole grid and `gen.count` seeded
    draws.  Models on which a quantifier-equality precondition fails are
    skipped.
    """
    free = free_vars(formula)
    if free:
        raise NotASentence(free)
    if gen.exhaustive and (gen.size > 3 or len(gen.value_grid) > 5):
        raise SearchSpaceTooLarge(
            "exhaustive countermodel search is bounded by size <= 3 and grid <= 5")
    value_in = compile_formula(formula)
    for model in generate_models(gen, infer_vocabulary(formula), eq=mentions_eq(formula)):
        try:
            value = value_in(model)()
        except ContainmentViolated:
            continue
        if value < ONE:
            return model
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
        flipped = dict(zip(model.universe, reversed(model.universe)))
        relabeled = relabel_universe(model, flipped)
        renamed_model = rename(model, symbol_map)

        for sentence, value_in, renamed_value_in, sentence_voc, monotone in sentences:
            base = _outcome(lambda: value_in(model))

            report.tally()
            iso = _outcome(lambda: value_in(relabeled))
            if iso != base:
                report.add("isomorphism-variance", model=m_index,
                           sentence=print_formula(sentence), base=str(base), image=str(iso))

            report.tally()
            ren = _outcome(lambda: renamed_value_in(renamed_model))
            if ren != base:
                report.add("renaming-variance", model=m_index,
                           sentence=print_formula(sentence), base=str(base), image=str(ren))

            report.tally()
            red = _outcome(lambda: value_in(reduct(model, sentence_voc)))
            if red != base:
                report.add("reduct-variance", model=m_index,
                           sentence=print_formula(sentence), base=str(base), image=str(red))

            report.tally()
            if not monotone:
                report.add("sentence-monotonicity-failure", model=m_index,
                           sentence=print_formula(sentence))
    return report
