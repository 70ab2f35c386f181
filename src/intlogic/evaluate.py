"""The exact truth-value function over finite weak probabilistic models.

Connective clauses: negation 1-x, weak and/or min/max, strong and/or the
Lukasiewicz t-norm/t-conorm, implication min(1, 1-x+y).  The universal and
existential quantifiers take min/max over the universe, and the integral
quantifier takes the expectation of the bound variable's value matrix.
Quantifier equality evaluates to a crisp 0 or 1 via the level-set condition
in the satisfaction module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import NotASentence, UnboundVariable, UnknownSymbol
from .integrals import integral_expectation
from .model import FuzzySubset, WeakProbModel
from .rational import ONE, ZERO, implies, neg, strong_and, strong_or, weak_and, weak_or
from .syntax import (
    And,
    Atom,
    Constant,
    Exists,
    Forall,
    Formula,
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
    free_vars,
)

Valuation = Mapping[str, str]


def eval_term(term: Term, model: WeakProbModel, valuation: Valuation) -> str:
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


def value_matrix(
    body: Formula,
    var: str,
    model: WeakProbModel,
    valuation: Valuation | None = None,
) -> FuzzySubset:
    """The unary fuzzy subset m -> value of `body` with `var` bound to m."""
    base = dict(valuation or {})
    values = {}
    for m in model.universe:
        base[var] = m
        values[(m,)] = evaluate(body, model, base)
    return FuzzySubset(model.universe, values)


def evaluate(formula: Formula, model: WeakProbModel, valuation: Valuation | None = None) -> Fraction:
    """Exact rational truth value of `formula` under `valuation`."""
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
        matrix = value_matrix(formula.body, formula.var, model, v)
        return integral_expectation(matrix, model)
    if isinstance(formula, QuantEq):
        from . import satisfaction  # deferred: satisfaction evaluates bodies through us

        holds = satisfaction.hsat_qeq(formula.left, formula.right, model)
        return ONE if holds else ZERO
    raise TypeError(f"not a formula: {formula!r}")


def evaluate_closed(formula: Formula, model: WeakProbModel) -> Fraction:
    """Evaluate a sentence; raises NotASentence when free variables remain."""
    free = free_vars(formula)
    if free:
        raise NotASentence(free)
    return evaluate(formula, model, {})
