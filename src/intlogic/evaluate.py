"""The exact truth-value function over finite weak probabilistic models.

Connective clauses: negation 1-x, weak and/or min/max, strong and/or the
Lukasiewicz t-norm/t-conorm, implication min(1, 1-x+y).  The universal and
existential quantifiers take min/max over the universe, and the integral
quantifier takes the expectation of the bound variable's values.
Quantifier equality evaluates to a crisp 0 or 1 via the level-set condition,
decided here on the integer rows of its two sides (`_levels_agree`).

There is one evaluator, `compile_formula`.  It walks the formula once and
turns every node into a closure `(view, env) -> int`.  The closures compute
on element positions `0..n-1`, the indices of the elements in the
universe, never on element names:

- `env` is a positional environment of element positions: the free names
  take the first slots, and each binder the slot after those of the
  binders around it.  Elements given at the public boundary
  (`compile_integers`, `compile_formula`, `value_matrix`) are mapped to
  positions once per call, through a map from the model's universe that
  a bind builds only for a formula with free names; an element outside
  the universe raises `FormatError`.
- `view` is the model's integer view, built once per compiled formula and
  model from the model's integer form (`WeakProbModel.form`): one entry per
  table, constant, truth constant, scale and power the closures read, at
  indices fixed when compiling.  A table is a nested tuple with one level
  per argument (`model.nested`), so a unary atom reads `row[i]` and a
  binary one `rows[i][j]`: a predicate's rows hold its values over `D`, a
  function's the positions of its values, and a constant's entry is its
  position.  A general atom or function term evaluates every argument
  before its first subscript, so errors surface in reading order.  The
  universe entry is `range(n)`; it, the truth constants, scales and powers
  depend on the model only through the universe's size, `D` and `M`;
  tables, constants and weights change per model.  The weights entry
  holds the `(position, weight)` pairs that `INT` and `=` iterate, built
  from the form's `weight_row` once per view or measure (`_Compiler.stage`).
  Every bind builds a new view, so every bound formula keeps its own list.
  An exhaustive sweep instead gives each formula one private view for the
  whole sweep (`SweepView`), staged by the same `stage`: once per measure,
  and its per-model slots are rewritten in place, only when their part of
  the model changes.  Nothing but the sweep reads it, so no bound
  formula sees it change.  The sweep sees only the view's `stage`, its
  list of writes, its `numerator` and its `scale`.
- A subformula whose `INT` nesting height is `e` has the value `n / S_e`,
  with `S_e = D * M**e`.  `D` is the form's common denominator of the
  model's tables, raised to the lcm with the formula's truth-constant
  denominators when those do not divide it, and `M` the lcm of the
  measure's denominators.  Only the evaluator raises `D`: a bind
  rescales the model's rows the formula reads, and a `SweepView` the
  grid rows it reads, once per sweep.  The connectives are integer
  min, max and clamps after aligning their operands by powers of `M`,
  and `INT` sums the body's numerators times the integer weights
  `mu(m) * M`.

`compile_integers` gives a bound formula's root numerator and its scale
`S` on one model, and a `SweepView` the same on the model a sweep last
wrote, so a sweep decides a verdict on integers; `compile_formula` makes
one `Fraction` from them for the result, and `value_matrix` builds its
fuzzy subset from the numerators over `S` (`FuzzySubset._trusted`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ArityMismatch, ContainmentViolated, FormatError, NotASentence, UnboundVariable, UnknownSymbol
from .model import FuzzySubset, WeakProbModel, arity_of
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

#: `(numerator, S)` of a compiled formula bound to one model: the value at
#: `elements` is `numerator(elements) / S`.
BoundIntegers = tuple[Callable[[Sequence[str]], int], int]


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


def _read(k, args):
    """A closure reading the rows at view index `k` at the positions `args` give.

    Every argument is evaluated before the first subscript, so an argument's
    error comes before that of a missing table.
    """
    if len(args) == 1:
        a, = args
        return lambda view, env: view[k][a(view, env)]
    if len(args) == 2:
        a, b = args

        def read2(view, env):
            i = a(view, env)
            j = b(view, env)
            return view[k][i][j]
        return read2

    def read(view, env):
        positions = [a(view, env) for a in args]
        rows = view[k]
        for i in positions:
            rows = rows[i]
        return rows
    return read


def _interior(f: Iterable, g: Iterable, top) -> list:
    """The values strictly between 0 and `top` that `f` or `g` attains, ascending.

    They are the automatic levels of `=`, on numerators over `top` or on `Fraction`s with `top` 1.
    """
    return sorted({*f, *g} - {0, top})


def _levels_agree(f: list[int], g: list[int], weights: Sequence[int], top: int, cfg) -> bool:
    """The level-set condition of `=` on rows of numerators over `top`, weighted by `weights` by position.

    The level set of `a` is `{n > a * top}`.  Levels and pairs come from `cfg`,
    else from the Dirac rule (crisp rows) or the attained interior values.
    """
    if cfg is not None:
        cuts = [a.numerator * top // a.denominator for a in cfg.levels]
        pairs, level = cfg.pairs, cfg.levels.__getitem__
    elif {*f, *g} <= {0, top}:
        cuts, pairs, level = [0], [(0, 0)], None
    else:
        cuts = _interior(f, g, top)
        pairs, level = [(i, i) for i in range(len(cuts))], lambda i: Fraction(cuts[i], top)
    mass = 0
    for i, j in pairs:
        a, b = cuts[i], cuts[j]
        for x, y, weight in zip(f, g, weights):
            if x > a and y <= b:
                mass += weight
            elif y > b and x <= a:
                if level is None:
                    raise ContainmentViolated(
                        None, "the right truth set must be contained in the left truth set")
                raise ContainmentViolated(
                    (i, j), f"level pair ({level(i)}, {level(j)}) violates containment")
    return mass == 0


# The view entries that depend on the model only through its universe's
# size, D and M, each computed as `build(key, size, den, m_den)`.

def _truth(value, size, den, m_den):
    return value.numerator * (den // value.denominator)


def _scale(e, size, den, m_den):
    return den * m_den ** e


def _power(d, size, den, m_den):
    return m_den ** d


def _universe(_, size, den, m_den):
    return range(size)


def _scaled(rows: tuple, factor: int) -> tuple:
    """Nested predicate rows with every value times `factor`."""
    if isinstance(rows[0], tuple):
        return tuple([_scaled(row, factor) for row in rows])
    return tuple([v * factor for v in rows])


#: The kinds of per-model entry: a predicate's rows (integers over D), a
#: function's rows (positions), a constant (a position), and the measure's
#: integer weights (by position).
_PREDICATE, _FUNCTION, _CONSTANT, _WEIGHTS = "predicate", "function", "constant", "weights"


class _Compiler:
    """One walk over a formula: its closures, its slots and the entries of its view."""

    def __init__(self, free_names: Sequence[str], cfg=None):
        self.names = tuple(free_names)
        self.depth = self.width = len(self.names)
        self.cfg = cfg  #: the levels and pairs of every `=` node; None for automatic ones
        self.entries: list[tuple[Callable | None, object]] = []  #: a per-model entry has no `build`
        self.index: dict[tuple, int] = {}
        self.per_model: list[tuple[int, int, str, object]] = []  #: (index, kind, name, value if absent)
        self.arities: dict[int, set[int]] = {}  #: by view index, the argument counts each table is read with
        self.pairs: int | None = None  #: the view index of the weights entry, the (position, weight) pairs
        self.truth_den = 1

    def entry(self, build: Callable, key=None) -> int:
        """The view index of `build(key, size, D, M)`, the same for every model with those."""
        if (build, key) not in self.index:
            self.index[(build, key)] = len(self.entries)
            self.entries.append((build, key))
            if build is _truth:
                self.truth_den = lcm(self.truth_den, key.denominator)
        return self.index[(build, key)]

    def slot(self, kind: str, name: str | None = None, arity: int | None = None) -> int:
        """The view index of a per-model entry: the model's `name` of this kind, or its weights.

        A table's entry is read with `arity` arguments.
        """
        if (kind, name) not in self.index:
            i = self.index[(kind, name)] = len(self.entries)
            self.entries.append((None, None))
            if kind == _WEIGHTS:
                self.pairs = i
                return i
            absent = None if kind == _CONSTANT else _Missing(kind, name)
            self.per_model.append((i, kind, name, absent))
        i = self.index[(kind, name)]
        if arity is not None:
            self.arities.setdefault(i, set()).add(arity)
        return i

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
            body, e, slot = self.bound(formula, scope)
            if isinstance(formula, Integral):
                return _integral(body, slot, self.slot(_WEIGHTS)), e + 1
            pick = min if isinstance(formula, Forall) else max
            return _over_universe(pick, body, slot, self.entry(_universe)), e
        if isinstance(formula, QuantEq):
            return self.quant_eq(formula)
        raise TypeError(f"not a formula: {formula!r}")

    def bound(self, formula, scope: dict[str, int]):
        """`(body, e, slot)`: a binder's body compiled with its variable in a fresh slot."""
        slot = self.depth
        self.depth += 1
        self.width = max(self.width, self.depth)
        body, e = self.node(formula.body, {**scope, formula.var: slot})
        self.depth -= 1
        return body, e, slot

    def quant_eq(self, formula: QuantEq):
        """`(closure, e)` for `=`: S_e when the sides' rows, aligned to S_e, meet the condition."""
        sides = [(free_vars(side), *self.bound(side, {})) for side in (formula.left, formula.right)]
        e = max(e_side for _, _, e_side, _ in sides)
        rows = [(free, self.aligned(body, e - e_side), slot) for free, body, e_side, slot in sides]
        s, w, cfg = self.entry(_scale, e), self.slot(_WEIGHTS), self.cfg

        def run(view, env):
            f, g = [], []
            for row, (free, body, slot) in zip((f, g), rows):
                if free:
                    raise NotASentence(free)
                for m, _ in view[w]:
                    env[slot] = m
                    row.append(body(view, env))
            return view[s] if _levels_agree(f, g, [weight for _, weight in view[w]], view[s], cfg) else 0
        return run, e

    def aligned(self, closure, d: int):
        """`closure` moved from S_e to S_(e+d), by a factor M**d."""
        if not d:
            return closure
        p = self.entry(_power, d)
        return lambda view, env: closure(view, env) * view[p]

    def atom(self, atom: Atom, scope: dict[str, int]):
        k = self.slot(_PREDICATE, atom.pred, len(atom.args))
        slots = [scope.get(t.name) if isinstance(t, Variable) else None for t in atom.args]
        if len(slots) == 1 and slots[0] is not None:
            s = slots[0]
            return lambda view, env: view[k][env[s]]
        if len(slots) == 2 and None not in slots:
            s, t = slots
            return lambda view, env: view[k][env[s]][env[t]]
        return _read(k, [self.term(t, scope) for t in atom.args])

    def term(self, term: Term, scope: dict[str, int]):
        """A closure `(view, env) -> position`."""
        if isinstance(term, Variable):
            if term.name not in scope:
                name = term.name

                def unbound(view, env):
                    raise UnboundVariable(name)
                return unbound
            s = scope[term.name]
            return lambda view, env: env[s]
        if isinstance(term, Constant):
            k, name = self.slot(_CONSTANT, term.name), term.name

            def constant(view, env):
                if view[k] is None:
                    raise UnknownSymbol(name, message=f"constant {name!r} is not interpreted")
                return view[k]
            return constant
        return _read(self.slot(_FUNCTION, term.func, len(term.args)), [self.term(a, scope) for a in term.args])

    def compile(self, formula: Formula) -> Callable[[WeakProbModel], BoundIntegers]:
        """`formula` compiled over this compiler's free names (see `compile_integers`).

        It also keeps the root closure and the view index of its scale.
        """
        self.root, e = self.node(formula, {name: slot for slot, name in enumerate(self.names)})
        self.top = self.entry(_scale, e)

        def bind(model: WeakProbModel) -> BoundIntegers:
            view = self.view(model)
            # the position of each element, which only a formula with free names reads
            at = dict(zip(model.universe, range(len(model.universe)))) if self.names else {}

            def positions(elements: Sequence[str]) -> list[int]:
                try:
                    return list(map(at.__getitem__, elements))
                except KeyError:
                    outside = next(m for m in elements if m not in at)
                    raise FormatError(f"{outside!r} is not an element of the universe") from None
            return self.numerator(view, positions), view[self.top]
        return bind

    def numerator(self, view: list, positions: Callable[[Sequence[str]], list]) -> Callable[[Sequence[str]], int]:
        """The root's numerator on `view`, with `elements` bound to the free names in order.

        The closures read positions: `positions(elements)` lists those of the elements.
        """
        root, pad = self.root, [None] * (self.width - len(self.names))
        if not self.names:
            return lambda elements=(): root(view, pad[:])
        return lambda elements=(): root(view, [*positions(elements), *pad])

    def den(self, den: int) -> int:
        """The `D` of a view over tables whose common denominator is `den`.

        Only when a truth constant's denominator does not divide `den` is it
        raised, to the lcm of the two, and the tables rescaled to it.
        """
        return den if den % self.truth_den == 0 else lcm(den, self.truth_den)

    def stage(self, view: list, den: int, m_den: int, weight_row: tuple[int, ...]) -> None:
        """Fill `view` in place for a measure with this `M` and integer weights by position, and this `D`.

        The entries that depend on the model only through the universe's
        size, `D` and `M` are built, and the weights entry holds the
        `(position, weight)` pairs that `INT` and `=` iterate; every other
        per-model entry holds its value for a model that lacks it.
        """
        size = len(weight_row)
        view[:] = [build and build(key, size, den, m_den) for build, key in self.entries]
        for i, _, _, absent in self.per_model:
            view[i] = absent
        if self.pairs is not None:
            view[self.pairs] = tuple(enumerate(weight_row))

    def view(self, model: WeakProbModel) -> list:
        """The model's integer view: the value of every entry, in index order.

        It is staged (`stage`) for the model's measure and then reads the
        rest of the model's integer form: the rows of the predicates the
        formula reads, rescaled when `self.den` raises the form's `D`, and
        the positions of the functions and constants the formula reads.  A
        table the formula reads with another number of arguments than its
        arity raises `ArityMismatch`.
        """
        form, view = model.form, []
        den = self.den(form.den)
        factor = den // form.den
        self.stage(view, den, form.m_den, form.weight_row)
        for i, kind, name, _ in self.per_model:
            if kind == _CONSTANT:
                view[i] = form.constants.get(name)
                continue
            rows = (form.tables if kind == _PREDICATE else form.functions).get(name)
            if rows is None:
                continue
            arity, read = arity_of(rows), self.arities[i]
            if len(read) > 1 or arity not in read:
                n = min(read - {arity})
                raise ArityMismatch(f"{kind} {name!r} has arity {arity}, but is read with {n} argument{'s' * (n != 1)}")
            view[i] = rows if kind == _FUNCTION or factor == 1 else _scaled(rows, factor)
        return view


class SweepView:
    """A compiled formula's own view for a sweep over the models of one universe and grid.

    A sweep makes one per formula, and nothing else reads it.  The view
    raises the grid's `den` to its own `D` as `compile_integers` does.
    Once per sweep, `writes(factors)` hands the sweep the write of every
    factor the formula reads, with predicate tables already over `D`.
    Per measure, `stage(M, weight_row)` rebuilds in place the entries that
    depend on the measure and resets every per-model entry to its value
    for a model that lacks it; the sweep then carries out the writes of
    the factors that changed.  On the model written,
    `numerator(elements) / scale` is the formula's value, as
    `compile_integers` gives it.
    """

    def __init__(self, formula: Formula, free_names: Sequence[str], universe: tuple[str, ...], den: int):
        self._compiler = compiler = _Compiler(free_names)
        compiler.compile(formula)
        self._grid_den, self._den = den, compiler.den(den)
        self._values: list = []
        # the positions of every tuple of elements the free names can take, for the sweep's valuations
        positions = {elements: [universe.index(m) for m in elements]
                     for elements in itertools.product(universe, repeat=len(compiler.names))}
        self.numerator = compiler.numerator(self._values, positions.__getitem__)

    def writes(self, factors: Sequence[tuple]) -> list[tuple]:
        """`(position, values, slot, choices)` per factor read: model `i` sets `values[slot] = choices[i]`.

        `factors` labels the sweep's positions from 1 on, each as `(kind,
        name, choices)` with `kind` one of "predicate", "function" and
        "constant".  The choices are a predicate's rows over the grid's
        `den`, a function's rows of positions and a constant's positions.
        When `D` raises the grid's `den`, the view rescales the rows it
        reads, for itself alone.
        """
        factor = self._den // self._grid_den
        slots = {(kind, name): i for i, kind, name, _ in self._compiler.per_model}
        out = []
        for position, (kind, name, choices) in enumerate(factors, 1):
            slot = slots.get((kind, name))
            if slot is None:
                continue
            if kind == _PREDICATE and factor != 1:
                choices = [_scaled(rows, factor) for rows in choices]
            out.append((position, self._values, slot, choices))
        return out

    def stage(self, m_den: int, weight_row: tuple[int, ...]) -> None:
        """Rebuild the view for a measure with this `M` and integer weights, by position."""
        self._compiler.stage(self._values, self._den, m_den, weight_row)

    @property
    def scale(self) -> int:
        return self._values[self._compiler.top]


def compile_integers(formula: Formula,
                     free_names: Sequence[str] = ()) -> Callable[[WeakProbModel], BoundIntegers]:
    """Compile `formula` once; `compile_integers(f, names)(model)` is `(numerator, S)`.

    The value at `elements` is `numerator(elements) / S`: `elements` gives,
    in order, the elements bound to `free_names`, and `S` is the scale of
    the formula's `INT` height on this model.  Binding to a model builds
    its integer view once, so one bound formula serves every valuation.
    Binding raises `ArityMismatch` for a table the model has but the
    formula reads with another number of arguments.  Other errors surface
    when running, in the order the recursive clauses meet them: a variable
    that neither `free_names` nor a binder binds raises `UnboundVariable`,
    a symbol the model lacks `UnknownSymbol`, and an element outside the
    universe `FormatError`.
    """
    return _Compiler(free_names).compile(formula)


def compile_formula(formula: Formula, free_names: Sequence[str] = ()) -> Callable[[WeakProbModel], Bound]:
    """Compile `formula` once; `compile_formula(f, names)(model)(elements)` is its value.

    The value is the `Fraction` of `compile_integers`' numerator over its
    scale; binding and errors are as there.
    """
    bind_integers = compile_integers(formula, free_names)

    def bind(model: WeakProbModel) -> Bound:
        numerator, scale = bind_integers(model)
        return lambda elements=(): Fraction(numerator(elements), scale)
    return bind


def value_matrix(
    body: Formula,
    var: str,
    model: WeakProbModel,
    valuation: Valuation | None = None,
) -> FuzzySubset:
    """The unary fuzzy subset m -> value of `body` with `var` bound to m."""
    base = {name: m for name, m in (valuation or {}).items() if name != var}
    numerator, scale = compile_integers(body, (*base, var))(model)
    fixed = tuple(base.values())
    return FuzzySubset._trusted(model.universe, 1, scale, [numerator((*fixed, m)) for m in model.universe])


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
