"""The recursive evaluator, kept as the test oracle for `intlogic.evaluate`.

It follows the truth-value clauses node by node on `Fraction`s: a dict
valuation copied per binder, and a `FuzzySubset` summed as `Fraction`
products for every `INT`, so it shares no integer form with the compiled
evaluator or the integrals module.  Quantifier equality builds its
matrices and level sets here too, and decides the level-set condition and
its Dirac case on `Fraction` masses, so no value it returns comes from
the compiled evaluator or the satisfaction module.

`law_report` is the same kind of oracle for
`integrals.check_semantic_integral_laws`, `dissection` for
`integrals.integral_dissection`, `layercake` for
`integrals.integral_layercake`, `isomorphic` for `model.isomorphic`,
`grid_measures` for `validate.grid_measures`, `grid_model_keys` for
`validate.exhaustive_models`, `orbit_least_steps` for the pruned
`validate._Odometer.sweep`, `attained_levels` for
`satisfaction.default_level_config`, `tokens` for the parser's scan and
`tree_depth` for the depth the parser counts against `MAX_NESTING`.
The pieces they need (the Lukasiewicz connectives on `Fraction`s,
`pointwise`, `set_partitions`, `level_set`, `mass`) are defined here, so
the oracle imports no code of the modules it checks but `LevelConfig`, the
parameter type of `hsat_qeq`.

A model builds its dicts afresh on every read, so each function here that
takes a model reads each of them once per call, into `Tables`, and works
on that.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import NamedTuple

from intlogic.errors import (
    ArityMismatch,
    ContainmentViolated,
    FormatError,
    NotASentence,
    UnboundVariable,
    UnknownSymbol,
)
from intlogic.model import FuzzySubset, WeakProbModel
from intlogic.rational import DEFAULT_GRID, ONE, ZERO
from intlogic.reporting import Report
from intlogic.satisfaction import LevelConfig
from intlogic.syntax import (
    APPROX_PRED,
    EQ_PRED,
    And,
    Atom,
    Constant,
    Exists,
    Forall,
    Formula,
    FuncApp,
    Implies,
    Integral,
    Not,
    Or,
    QuantEq,
    StrongAnd,
    StrongOr,
    Term,
    TruthConst,
    Variable,
    Vocabulary,
    free_vars,
)


class Tables(NamedTuple):
    """A model's universe and dicts, each read once."""

    universe: tuple
    measure: dict
    predicates: dict
    functions: dict
    constants: dict


def tables(model) -> Tables:
    """The `Tables` of a model, or `model` itself when it is one already."""
    if isinstance(model, Tables):
        return model
    return Tables(model.universe, model.measure, model.predicates, model.functions, model.constants)


# Lukasiewicz truth functions.  All arguments are assumed to be in [0, 1].

def neg(x: Fraction) -> Fraction:
    return ONE - x


def implies(x: Fraction, y: Fraction) -> Fraction:
    """x -> y = min(1, 1 - x + y); equals 1 exactly when x <= y."""
    return min(ONE, ONE - x + y)


def weak_and(x: Fraction, y: Fraction) -> Fraction:
    return min(x, y)


def weak_or(x: Fraction, y: Fraction) -> Fraction:
    return max(x, y)


def strong_and(x: Fraction, y: Fraction) -> Fraction:
    return max(ZERO, x + y - ONE)


def strong_or(x: Fraction, y: Fraction) -> Fraction:
    return min(ONE, x + y)


def eval_term(term: Term, model: WeakProbModel, valuation) -> str:
    if isinstance(term, Variable):
        try:
            return valuation[term.name]
        except KeyError:
            raise UnboundVariable(term.name) from None
    if isinstance(term, Constant):
        try:
            return model.constants[term.name]
        except KeyError:
            raise UnknownSymbol(term.name, message=f"constant {term.name!r} is not interpreted") from None
    args = tuple(eval_term(a, model, valuation) for a in term.args)
    try:
        table = model.functions[term.func]
    except KeyError:
        raise UnknownSymbol(term.func, message=f"function {term.func!r} is not interpreted") from None
    return table[args]


def value_matrix(body: Formula, var: str, model: WeakProbModel, valuation=None) -> FuzzySubset:
    model = tables(model)
    base = dict(valuation or {})
    values = {}
    for m in model.universe:
        base[var] = m
        values[(m,)] = evaluate(body, model, base)
    return FuzzySubset(model.universe, values)


def _side_matrix(side: Formula, model: WeakProbModel) -> FuzzySubset:
    if free_vars(side):
        raise NotASentence(free_vars(side))
    return value_matrix(side.body, side.var, model)


def level_set(f: FuzzySubset, alpha: Fraction) -> frozenset[str]:
    """{x : f(x) > alpha} of a unary subset."""
    return frozenset(key[0] for key, value in f.values.items() if value > alpha)


def mass(model: WeakProbModel, elements) -> Fraction:
    return sum((model.measure[m] for m in elements), ZERO)


def attained_levels(f: FuzzySubset, g: FuzzySubset) -> LevelConfig:
    """The automatic levels of `=`: diagonal pairs over the values strictly inside (0, 1) that `f` or `g` attains."""
    attained = set(f.values.values()) | set(g.values.values())
    return LevelConfig.diagonal(sorted(a for a in attained if ZERO < a < ONE))


def hsat_qeq(left: Formula, right: Formula, model: WeakProbModel, cfg: LevelConfig | None = None) -> bool:
    """`satisfaction.hsat_qeq`, on matrices built here and level sets of `Fraction`s."""
    model = tables(model)
    f = _side_matrix(left, model)
    g = _side_matrix(right, model)
    if cfg is None:
        attained = set(f.values.values()) | set(g.values.values())
        if attained <= {ZERO, ONE}:
            # the Dirac case: a crisp subset's truth set is its level set at 0
            f_true, g_true = level_set(f, ZERO), level_set(g, ZERO)
            if not g_true <= f_true:
                raise ContainmentViolated(None, "the right truth set must be contained in the left truth set")
            return mass(model, f_true - g_true) == ZERO
        cfg = attained_levels(f, g)
    total = ZERO
    for i, j in cfg.pairs:
        f_level = level_set(f, cfg.levels[i])
        g_level = level_set(g, cfg.levels[j])
        if not g_level <= f_level:
            raise ContainmentViolated((i, j))
        total += mass(model, f_level - g_level)
    return total == ZERO


def evaluate(formula: Formula, model: WeakProbModel, valuation=None) -> Fraction:
    model = tables(model)
    v = valuation or {}
    if isinstance(formula, Atom):
        args = tuple(eval_term(a, model, v) for a in formula.args)
        try:
            table = model.predicates[formula.pred]
        except KeyError:
            raise UnknownSymbol(
                formula.pred, message=f"predicate {formula.pred!r} is not interpreted") from None
        return table[args]
    if isinstance(formula, TruthConst):
        return formula.value
    if isinstance(formula, Not):
        return neg(evaluate(formula.body, model, v))
    if isinstance(formula, And):
        return weak_and(evaluate(formula.left, model, v), evaluate(formula.right, model, v))
    if isinstance(formula, Or):
        return weak_or(evaluate(formula.left, model, v), evaluate(formula.right, model, v))
    if isinstance(formula, StrongAnd):
        return strong_and(evaluate(formula.left, model, v), evaluate(formula.right, model, v))
    if isinstance(formula, StrongOr):
        return strong_or(evaluate(formula.left, model, v), evaluate(formula.right, model, v))
    if isinstance(formula, Implies):
        return implies(evaluate(formula.left, model, v), evaluate(formula.right, model, v))
    if isinstance(formula, (Forall, Exists)):
        scoped = dict(v)
        values = []
        for m in model.universe:
            scoped[formula.var] = m
            values.append(evaluate(formula.body, model, scoped))
        if isinstance(formula, Forall):
            return min(values, default=ONE)
        return max(values, default=ZERO)
    if isinstance(formula, Integral):
        matrix = value_matrix(formula.body, formula.var, model, v).values
        return sum((matrix[(m,)] * model.measure[m] for m in model.universe), ZERO)
    if isinstance(formula, QuantEq):
        return ONE if hsat_qeq(formula.left, formula.right, model) else ZERO
    raise TypeError(f"not a formula: {formula!r}")


def evaluate_closed(formula: Formula, model: WeakProbModel) -> Fraction:
    free = free_vars(formula)
    if free:
        raise NotASentence(free)
    return evaluate(formula, model, {})


def pointwise(op, *subsets: FuzzySubset) -> FuzzySubset:
    """The subset x -> op(f1(x), f2(x), ...) of subsets over one universe and arity;
    every value `op` returns must lie in [0, 1]."""
    first = subsets[0]
    for other in subsets[1:]:
        if other.arity != first.arity:
            raise ArityMismatch(f"expected a fuzzy subset of arity {first.arity}, got arity {other.arity}")
        if other.universe != first.universe:
            raise FormatError(f"fuzzy subset over the universe {other.universe}, expected {first.universe}")
    tables = [s.values for s in subsets]
    return FuzzySubset(first.universe, {key: op(*[table[key] for table in tables]) for key in tables[0]})


def law_report(model: WeakProbModel, pairs=(), bivariate=(), constants=DEFAULT_GRID, *, integral) -> Report:
    """`check_semantic_integral_laws`, one `Fraction` loop with no integer rows and no sharing.

    `integral(subset, model)` returns a `Fraction`.  Every derived subset is
    built by `pointwise` with this module's connectives, and slices as
    `Fraction` sums; `integral` is called afresh for every side of every law.
    """
    report = Report()
    measure = model.measure

    def record(law, lhs, rhs, **subsets):
        sample = {name: {",".join(k): str(v) for k, v in sorted(s.values.items())} for name, s in subsets.items()}
        report.add("integral-law-violation", law=law, lhs=str(lhs), rhs=str(rhs), sample=sample)

    def sliced(h, over_first):
        universe, mu, table = model.universe, measure, h.values
        if over_first:
            return FuzzySubset(universe, {(b,): sum((table[(a, b)] * mu[a] for a in universe), ZERO)
                                          for b in universe})
        return FuzzySubset(universe, {(a,): sum((table[(a, b)] * mu[b] for b in universe), ZERO)
                                      for a in universe})

    for r in constants:
        lhs = integral(FuzzySubset.constant(model.universe, r), model)
        report.tally()
        if lhs != r:
            report.add("integral-law-violation", law="constant", lhs=str(lhs), rhs=str(r), sample={"r": str(r)})

    for f, g in pairs:
        int_f, int_g = integral(f, model), integral(g, model)
        lhs = integral(pointwise(neg, f), model)
        report.tally()
        if lhs != ONE - int_f:
            record("complement", lhs, ONE - int_f, f=f)
        lhs = integral(pointwise(implies, f, g), model)
        report.tally()
        if lhs > implies(int_f, int_g):
            record("implication", lhs, implies(int_f, int_g), f=f, g=g)
        lhs = integral(pointwise(strong_or, f, g), model)
        rhs = int_f + int_g - integral(pointwise(strong_and, f, g), model)
        report.tally()
        if lhs != rhs:
            record("additivity", lhs, rhs, f=f, g=g)

    for h in bivariate:
        lhs, rhs = integral(sliced(h, True), model), integral(sliced(h, False), model)
        report.tally()
        if lhs != rhs:
            record("iteration", lhs, rhs, h=h)
    return report


def set_partitions(items: list) -> list[list[list]]:
    """Every partition of `items` into non-empty blocks: the first item alone or
    added to a block of a partition of the rest."""
    if not items:
        return [[]]
    first, partitions = items[0], []
    for partition in set_partitions(items[1:]):
        partitions.append([[first], *partition])
        partitions += [[*partition[:i], [first, *block], *partition[i + 1:]] for i, block in enumerate(partition)]
    return partitions


def dissection(f: FuzzySubset, model: WeakProbModel) -> Fraction:
    """`integral_dissection` as a `Fraction` loop: the best partition's sum of inf f times mu(block)."""
    table, model = f.values, tables(model)
    return max(sum((min(table[(m,)] for m in block) * mass(model, block) for block in partition), ZERO)
               for partition in set_partitions(list(model.universe)))


def layercake(f: FuzzySubset, model: WeakProbModel) -> Fraction:
    """`integral_layercake` as a `Fraction` loop over the distinct levels 0 < v1 < v2 < ... of f:
    the sum of (vi - vi-1) * mu{f >= vi}, where {f >= v} holds v itself, unlike the strict `level_set`."""
    table, total, previous, model = f.values, ZERO, ZERO, tables(model)
    for level in sorted(set(table.values()) - {ZERO}):
        total += (level - previous) * mass(model, [m for m in model.universe if table[(m,)] >= level])
        previous = level
    return total


def isomorphic(left: WeakProbModel, right: WeakProbModel) -> bool:
    """`model.isomorphic` without pre-checks: try every bijection of the universes and
    look up each weight, table entry and constant of `left` at its image in `right`."""
    if len(left.universe) != len(right.universe):
        return False
    left, right = tables(left), tables(right)
    names = lambda model: (set(model.predicates), set(model.functions), set(model.constants))
    if names(left) != names(right):
        return False
    for image in itertools.permutations(right.universe):
        h = dict(zip(left.universe, image))
        carry = lambda key: tuple(h[e] for e in key)
        if (all(right.measure[h[m]] == w for m, w in left.measure.items())
                and all(right.constants[c] == h[e] for c, e in left.constants.items())
                and all(right.predicates[name].get(carry(key)) == v
                        for name, table in left.predicates.items() for key, v in table.items())
                and all(right.functions[name].get(carry(key)) == h[v]
                        for name, table in left.functions.items() for key, v in table.items())):
            return True
    return False


def model_key(model: WeakProbModel) -> tuple:
    """A model's measure, tables and constants as one hashable value, whatever the order of its dicts."""
    return _key(model.measure, model.predicates, model.functions, model.constants)


def _key(measure, predicates, functions, constants) -> tuple:
    items = lambda mapping: tuple(sorted(mapping.items()))
    return (items(measure), items(constants), tuple((name, items(predicates[name])) for name in sorted(predicates)),
            tuple((name, items(functions[name])) for name in sorted(functions)))


def grid_measures(size: int, grid) -> list[dict]:
    """Every distinct measure a draw of grid values per element renormalises to, by `Fraction` division.

    The draws run through the sorted grid in product order, the first
    element the slowest; all-zero draws are dropped, and each measure is
    kept at its first draw.
    """
    names = tuple("abcdefghijklmnopqrstuvwxyz"[:size])
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


def grid_model_keys(size: int, grid, voc: Vocabulary, eq: bool = False, orbit_least: bool = False) -> list[tuple]:
    """The `model_key` of every model `validate.exhaustive_models` gives, in its order, by nested loops.

    Measures are those of `grid_measures`; tables run through the grid (or
    the universe) with the first key the slowest; the models run through every measure, then every table of
    each predicate (the vocabulary's, then `approx`), of each function, and
    every element of each constant, the first the slowest.  `eq` is the
    crisp identity.  With `orbit_least`, a model is kept only when no
    relabelling of the universe maps it to an earlier one.
    """
    names = tuple("abcdefghijklmnopqrstuvwxyz"[:size])
    grid = sorted(set(grid))
    measures = grid_measures(size, grid)

    def tables(arity, values):
        keys = list(itertools.product(names, repeat=arity))
        return [dict(zip(keys, combo)) for combo in itertools.product(values, repeat=len(keys))]

    predicates = [*voc.predicates, *([(APPROX_PRED, 2)] if voc.has_approx else [])]
    fixed = {EQ_PRED: {(a, b): ONE if a == b else ZERO for a in names for b in names}} if eq else {}
    models = []
    for measure, *choices in itertools.product(measures, *[tables(arity, grid) for _, arity in predicates],
                                               *[tables(arity, names) for _, arity in voc.functions],
                                               *[names for _ in voc.constants]):
        preds = {**dict(zip([name for name, _ in predicates], choices)), **fixed}
        funcs = dict(zip([name for name, _ in voc.functions], choices[len(predicates):]))
        consts = dict(zip(voc.constants, choices[len(predicates) + len(voc.functions):]))
        models.append((measure, preds, funcs, consts))
    keys = [_key(*model) for model in models]
    if not orbit_least:
        return keys

    position = {key: i for i, key in enumerate(keys)}
    relabellings = [dict(zip(names, images)) for images in itertools.permutations(names)]
    return [key for i, (key, model) in enumerate(zip(keys, models))
            if all(position[_image(*model, h)] >= i for h in relabellings)]


def _image(measure, preds, funcs, consts, h) -> tuple:
    """The `_key` of the model of these dicts carried along the relabelling `h`, a dict of elements."""
    carry = lambda table: {tuple(h[e] for e in key): v for key, v in table.items()}
    return _key({h[m]: w for m, w in measure.items()}, {name: carry(t) for name, t in preds.items()},
                {name: {key: h[e] for key, e in carry(t).items()} for name, t in funcs.items()},
                {c: h[e] for c, e in consts.items()})


def orbit_least_steps(models) -> list[tuple[tuple[int, ...], int]]:
    """`(indices, changed)` of each orbit-least model among `models`, by brute force.

    `models` holds `(indices, model)` of every model of an unpruned
    exhaustive sweep, in its order.  A model is kept when no relabelling of
    the universe maps it to a model with smaller indices; `changed` is the
    least position at which its indices differ from those of the model kept
    before it (0 for the first).
    """
    index_of = {model_key(model): indices for indices, model in models}
    names = models[0][1].universe
    relabellings = [dict(zip(names, images)) for images in itertools.permutations(names)]
    kept = []
    for indices, model in models:
        parts = (model.measure, model.predicates, model.functions, model.constants)
        if all(index_of[_image(*parts, h)] >= indices for h in relabellings):
            previous = kept[-1][0] if kept else indices
            kept.append((indices, next((p for p, (a, b) in enumerate(zip(previous, indices)) if a != b), 0)))
    return kept


# The concrete syntax's lexer as one `finditer` scan with a named group per
# kind, and the formula tree's depth as a walk over the parsed tree.

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<WAND>/\\)
  | (?P<WOR>\\/)
  | (?P<SOR>\|\+\|)
  | (?P<ARROW>->)
  | (?P<TILDE>~)
  | (?P<AMP>&)
  | (?P<EQUALS>=)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<DOT>\.)
  | (?P<SLASH>/)
  | (?P<NUMBER>\d+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<BAD>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def tokens(text: str) -> list[tuple[str, str, int, int]]:
    """`(kind, text, start, end)` of every token of `text`, bad characters (`BAD`) included, then `EOF`."""
    found = [(m.lastgroup, m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text) if m.lastgroup != "WS"]
    return found + [("EOF", "", len(text), len(text))]


def tree_depth(formula: Formula) -> int:
    """Nesting depth of the formula tree, walked without recursion.

    Every `~`, quantifier, `INT`, binary connective and function
    application is one level deeper than its operands; an atom's arguments
    and the two sides of `=` are not.
    """
    deepest = 0
    stack = [(formula, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, Atom):
            stack.extend((arg, depth) for arg in node.args)
        elif isinstance(node, FuncApp):
            stack.extend((arg, depth + 1) for arg in node.args)
        elif isinstance(node, QuantEq):
            stack += [(node.left, depth), (node.right, depth)]
        elif isinstance(node, (Not, Forall, Exists, Integral)):
            stack.append((node.body, depth + 1))
        elif isinstance(node, (And, Or, StrongAnd, StrongOr, Implies)):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
    return deepest
