"""The exact truth-value function over finite weak probabilistic models.

Connective clauses: negation 1-x, weak and/or min/max, strong and/or the
Lukasiewicz t-norm/t-conorm, implication min(1, 1-x+y).  The universal and
existential quantifiers take min/max over the universe, and the integral
quantifier takes the expectation of the bound variable's values.
Quantifier equality evaluates to a crisp 0 or 1 via the level-set condition
in the satisfaction module.

There is one evaluator, `compile_formula`.  It walks the formula once and
turns every node into a closure `(view, env) -> int`:

- `env` is a positional environment: the free names take the first slots,
  and each binder the slot after those of the binders around it.
- `view` is the model's integer view, built once per compiled formula and
  model from the model's integer form (`model.integer_form`): one entry per
  table, constant, truth constant, scale and power the closures read, at
  indices fixed when compiling.
- A subformula whose `INT` nesting height is `e` has the value `n / S_e`,
  with `S_e = D * M**e`.  `D` is the form's common denominator of the
  model's tables, raised to the lcm with the formula's truth-constant
  denominators when those do not divide it, and `M` the lcm of the
  measure's denominators.  The connectives are integer min, max and clamps
  after aligning their operands by powers of `M`, and `INT` sums the body's
  numerators times the integer weights `mu(m) * M`.

A `Fraction` is made only for the result.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Sequence

from .errors import NotASentence, UnboundVariable, UnknownSymbol
from .model import FuzzySubset, WeakProbModel, integer_form
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

#: A compiled formula bound to one model: elements for its free names -> value.
Bound = Callable[[Sequence[str]], Fraction]


class _Missing:
    """The view entry of a table the model lacks: a lookup raises `UnknownSymbol`."""

    __slots__ = ("kind", "name")

    def __init__(self, kind: str, name: str):
        self.kind, self.name = kind, name

    def __getitem__(self, key):
        raise UnknownSymbol(self.name, message=f"{self.kind} {self.name!r} is not interpreted")


# Connectives on numerators over one S_e; `s` is the view index of S_e.  The
# left operand is evaluated first, so errors surface in reading order.

def _weak_and(left, right, s):
    def run(view, env):
        a = left(view, env)
        b = right(view, env)
        return a if a < b else b
    return run


def _weak_or(left, right, s):
    def run(view, env):
        a = left(view, env)
        b = right(view, env)
        return a if a > b else b
    return run


def _strong_and(left, right, s):
    def run(view, env):
        v = left(view, env) + right(view, env) - view[s]
        return v if v > 0 else 0
    return run


def _strong_or(left, right, s):
    def run(view, env):
        v = left(view, env) + right(view, env)
        top = view[s]
        return v if v < top else top
    return run


def _implies(left, right, s):
    def run(view, env):
        d = left(view, env) - right(view, env)
        return view[s] - d if d > 0 else view[s]
    return run


_CONNECTIVES = {
    And: _weak_and,
    Or: _weak_or,
    StrongAnd: _strong_and,
    StrongOr: _strong_or,
    Implies: _implies,
}


def _over_universe(pick, body, slot, u):
    """`ALL` (`pick` is `min`) or `EX` (`max`) of `body` with `slot` ranging over the universe."""
    def run(view, env):
        values = []
        for m in view[u]:
            env[slot] = m
            values.append(body(view, env))
        return pick(values)
    return run


def _integral(body, slot, w):
    def run(view, env):
        total = 0
        for m, weight in view[w]:
            env[slot] = m
            total += weight * body(view, env)
        return total
    return run


# The values of the view entries, each computed per model as
# `build(key, model, den, tables, form)`: `den` is D, `tables` the predicate
# tables as integers over D, and `form` the model's integer form.

def _predicate(name, model, den, tables, form):
    table = tables.get(name)
    return _Missing("predicate", name) if table is None else table


def _function(name, model, den, tables, form):
    table = model.functions.get(name)
    return _Missing("function", name) if table is None else table


def _constant(name, model, den, tables, form):
    return model.constants.get(name)


def _truth(value, model, den, tables, form):
    return value.numerator * (den // value.denominator)


def _scale(e, model, den, tables, form):
    return den * form.m_den ** e


def _power(d, model, den, tables, form):
    return form.m_den ** d


def _universe(_, model, den, tables, form):
    return model.universe


def _weights(_, model, den, tables, form):
    return form.weights


def _model(_, model, den, tables, form):
    return model


class _Compiler:
    """One walk over a formula: its closures, its slots and the entries of its view."""

    def __init__(self, free_names: Sequence[str]):
        self.depth = self.width = len(free_names)
        self.entries: list[tuple[Callable, object]] = []
        self.index: dict[tuple[Callable, object], int] = {}
        self.predicates: list[str] = []
        self.truth_den = 1

    def entry(self, build: Callable, key=None) -> int:
        """The view index of the per-model value `build(key, ...)`."""
        if (build, key) not in self.index:
            self.index[(build, key)] = len(self.entries)
            self.entries.append((build, key))
            if build is _predicate:
                self.predicates.append(key)
            elif build is _truth:
                self.truth_den = lcm(self.truth_den, key.denominator)
        return self.index[(build, key)]

    def node(self, formula: Formula, scope: dict[str, int]):
        """`(closure, e)`: the value of `formula` is `closure(view, env) / S_e`.

        `scope` maps each variable in scope to its slot.  A binder takes slot
        `self.depth`, the number of free names plus the binders around it.
        """
        if isinstance(formula, Atom):
            return self.atom(formula, scope), 0
        if isinstance(formula, TruthConst):
            k = self.entry(_truth, formula.value)
            return (lambda view, env: view[k]), 0
        if isinstance(formula, Not):
            body, e = self.node(formula.body, scope)
            s = self.entry(_scale, e)
            return (lambda view, env: view[s] - body(view, env)), e
        if type(formula) in _CONNECTIVES:
            left, e_left = self.node(formula.left, scope)
            right, e_right = self.node(formula.right, scope)
            e = max(e_left, e_right)
            combine = _CONNECTIVES[type(formula)]
            return combine(self.aligned(left, e - e_left), self.aligned(right, e - e_right),
                           self.entry(_scale, e)), e
        if isinstance(formula, (Forall, Exists, Integral)):
            slot = self.depth
            self.depth += 1
            self.width = max(self.width, self.depth)
            body, e = self.node(formula.body, {**scope, formula.var: slot})
            self.depth -= 1
            if isinstance(formula, Integral):
                return _integral(body, slot, self.entry(_weights)), e + 1
            pick = min if isinstance(formula, Forall) else max
            return _over_universe(pick, body, slot, self.entry(_universe)), e
        if isinstance(formula, QuantEq):
            from .satisfaction import hsat_qeq  # deferred: satisfaction evaluates bodies through us

            s, m = self.entry(_scale, 0), self.entry(_model)
            left, right = formula.left, formula.right
            return (lambda view, env: view[s] if hsat_qeq(left, right, view[m]) else 0), 0
        raise TypeError(f"not a formula: {formula!r}")

    def aligned(self, closure, d: int):
        """`closure` moved from S_e to S_(e+d), by a factor M**d."""
        if not d:
            return closure
        p = self.entry(_power, d)
        return lambda view, env: closure(view, env) * view[p]

    def atom(self, atom: Atom, scope: dict[str, int]):
        k = self.entry(_predicate, atom.pred)
        slots = [scope.get(t.name) if isinstance(t, Variable) else None for t in atom.args]
        if len(slots) == 1 and slots[0] is not None:
            s = slots[0]
            return lambda view, env: view[k][(env[s],)]
        if len(slots) == 2 and None not in slots:
            s, t = slots
            return lambda view, env: view[k][(env[s], env[t])]
        args = [self.term(t, scope) for t in atom.args]
        return lambda view, env: view[k][tuple([a(view, env) for a in args])]

    def term(self, term: Term, scope: dict[str, int]):
        """A closure `(view, env) -> element`."""
        if isinstance(term, Variable):
            if term.name not in scope:
                name = term.name

                def unbound(view, env):
                    raise UnboundVariable(name)
                return unbound
            s = scope[term.name]
            return lambda view, env: env[s]
        if isinstance(term, Constant):
            k, name = self.entry(_constant, term.name), term.name

            def constant(view, env):
                if view[k] is None:
                    raise UnknownSymbol(name, message=f"constant {name!r} is not interpreted")
                return view[k]
            return constant
        k = self.entry(_function, term.func)
        args = [self.term(a, scope) for a in term.args]
        return lambda view, env: view[k][tuple([a(view, env) for a in args])]

    def view(self, model: WeakProbModel) -> list:
        """The model's integer view: the value of every entry, in index order.

        It reads the model's integer form.  Only when a truth constant's
        denominator does not divide the form's `D` are the tables the
        formula reads rescaled, to the lcm of the two.
        """
        form = integer_form(model)
        den, tables = form.den, form.tables
        if den % self.truth_den:
            scaled = lcm(den, self.truth_den)
            factor = scaled // den
            tables = {name: {key: v * factor for key, v in tables[name].items()}
                      for name in self.predicates if name in tables}
            den = scaled
        return [build(key, model, den, tables, form) for build, key in self.entries]


def compile_formula(formula: Formula, free_names: Sequence[str] = ()) -> Callable[[WeakProbModel], Bound]:
    """Compile `formula` once; `compile_formula(f, names)(model)(elements)` is its value.

    `elements` gives, in order, the elements bound to `free_names`.  Binding
    to a model builds its integer view once, so one bound formula serves
    every valuation.  Errors surface when running, in the order the
    recursive clauses meet them: a variable that neither `free_names` nor a
    binder binds raises `UnboundVariable`, a symbol the model lacks
    `UnknownSymbol`.
    """
    compiler = _Compiler(free_names)
    root, e = compiler.node(formula, {name: slot for slot, name in enumerate(free_names)})
    top = compiler.entry(_scale, e)
    pad = [None] * (compiler.width - len(free_names))

    def bind(model: WeakProbModel) -> Bound:
        view = compiler.view(model)
        den = view[top]

        def value(elements: Sequence[str] = ()) -> Fraction:
            return Fraction(root(view, [*elements, *pad]), den)
        return value
    return bind


def value_matrix(
    body: Formula,
    var: str,
    model: WeakProbModel,
    valuation: Valuation | None = None,
) -> FuzzySubset:
    """The unary fuzzy subset m -> value of `body` with `var` bound to m."""
    base = {name: m for name, m in (valuation or {}).items() if name != var}
    value = compile_formula(body, (*base, var))(model)
    fixed = tuple(base.values())
    return FuzzySubset(model.universe, {(m,): value((*fixed, m)) for m in model.universe})


def evaluate(formula: Formula, model: WeakProbModel, valuation: Valuation | None = None) -> Fraction:
    """Exact rational truth value of `formula` under `valuation`."""
    v = valuation or {}
    return compile_formula(formula, tuple(v))(model)(tuple(v.values()))


def evaluate_closed(formula: Formula, model: WeakProbModel) -> Fraction:
    """Evaluate a sentence; raises NotASentence when free variables remain."""
    free = free_vars(formula)
    if free:
        raise NotASentence(free)
    return compile_formula(formula)(model)()
