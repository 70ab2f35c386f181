"""Independent reference semantics used to check the benchmark's outputs.

Formulas are plain tuples, written to the concrete syntax by `text` and
handed to the program as strings, so the program's parser is checked too.
The evaluator memoises each subformula on the values of its free variables;
it shares no code with the package under test.

Terms:    ("var", x) | ("const", c) | ("fn", f, (t, ...))
Formulas: ("atom", P, (t, ...)) | ("rat", q) | ("not", a)
          | (op, a, b) for op in and, or, sand, sor, imp
          | (q, x, body) for q in all, ex, int
          | ("qeq", side, side) with each side an all/ex/int formula
"""

from __future__ import annotations

import itertools
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
GRID = (ZERO, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), ONE)

BINOPS = {"and": "/\\", "or": "\\/", "sand": "&", "sor": "|+|", "imp": "->"}
QUANTS = {"all": "ALL", "ex": "EX", "int": "INT"}


class ContainmentViolated(Exception):
    """The level-set precondition of a quantifier equality fails."""


# ---------------------------------------------------------------------------
# Construction helpers and the printer


def var(x):
    return ("var", x)


def const(c):
    return ("const", c)


def atom(pred, *args):
    return ("atom", pred, tuple(args))


def rat(num, den=1):
    return ("rat", Fraction(num, den))


def neg(a):
    return ("not", a)


def imp(a, b):
    return ("imp", a, b)


def term_text(t) -> str:
    if t[0] in ("var", "const"):
        return t[1]
    return f"{t[1]}({', '.join(term_text(a) for a in t[2])})"


def text(phi) -> str:
    """Fully parenthesised concrete syntax for `phi`."""
    kind = phi[0]
    if kind == "atom":
        return f"{phi[1]}({', '.join(term_text(t) for t in phi[2])})"
    if kind == "rat":
        return f"rat({phi[1].numerator}/{phi[1].denominator})"
    if kind == "not":
        return f"~({text(phi[1])})"
    if kind in BINOPS:
        return f"({text(phi[1])} {BINOPS[kind]} {text(phi[2])})"
    if kind == "int":
        return f"(INT {text(phi[2])} d{phi[1]})"
    if kind in QUANTS:
        return f"({QUANTS[kind]} {phi[1]}. {text(phi[2])})"
    if kind == "qeq":
        return f"{text(phi[1])} = {text(phi[2])}"
    raise ValueError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Models


class Model:
    """A finite model: universe, exact measure and total tables."""

    def __init__(self, universe, measure, preds=None, funcs=None, consts=None):
        self.universe = tuple(universe)
        self.measure = dict(measure)
        self.preds = {k: dict(v) for k, v in (preds or {}).items()}
        self.funcs = {k: dict(v) for k, v in (funcs or {}).items()}
        self.consts = dict(consts or {})

    def key(self):
        """A canonical, comparable form of the whole interpretation."""
        return (
            self.universe,
            tuple(sorted(self.measure.items())),
            tuple(sorted((n, tuple(sorted(t.items()))) for n, t in self.preds.items())),
            tuple(sorted((n, tuple(sorted(t.items()))) for n, t in self.funcs.items())),
            tuple(sorted(self.consts.items())),
        )

    def to_json(self) -> dict:
        def table(t, fmt):
            return {",".join(k): fmt(v) for k, v in sorted(t.items())}

        return {
            "universe": list(self.universe),
            "measure": {m: str(w) for m, w in self.measure.items()},
            "predicates": {n: {"arity": len(next(iter(t))), "table": table(t, str)}
                           for n, t in sorted(self.preds.items())},
            "functions": {n: {"arity": len(next(iter(t))), "table": table(t, str)}
                          for n, t in sorted(self.funcs.items())},
            "constants": dict(sorted(self.consts.items())),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Model":
        def split(raw):
            return tuple(p.strip() for p in raw.split(","))

        return cls(
            data["universe"],
            {m: Fraction(w) for m, w in data["measure"].items()},
            {n: {split(k): Fraction(v) for k, v in e["table"].items()}
             for n, e in data.get("predicates", {}).items()},
            {n: {split(k): v for k, v in e["table"].items()}
             for n, e in data.get("functions", {}).items()},
            data.get("constants", {}),
        )


def element_names(size: int) -> tuple[str, ...]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    if size <= len(letters):
        return tuple(letters[:size])
    return tuple(f"e{i}" for i in range(1, size + 1))


def grid_measures(size: int) -> list[dict]:
    """Renormalised grid draws, first occurrence kept, in draw order."""
    names = element_names(size)
    seen = set()
    out = []
    for draw in itertools.product(GRID, repeat=size):
        total = sum(draw)
        if total == 0:
            continue
        weights = tuple(w / total for w in draw)
        if weights not in seen:
            seen.add(weights)
            out.append(dict(zip(names, weights)))
    return out


def grid_models(size: int, preds, funcs=(), consts=()):
    """Every grid model over the symbols, measure slowest, tables in name order.

    `preds` and `funcs` are (name, arity) pairs and `consts` names, each
    sorted by name; every table runs over the value grid (or the elements).
    """
    names = element_names(size)

    def tables(arity, values):
        keys = list(itertools.product(names, repeat=arity))
        return [dict(zip(keys, combo)) for combo in itertools.product(values, repeat=len(keys))]

    pred_tables = [tables(a, GRID) for _, a in preds]
    func_tables = [tables(a, names) for _, a in funcs]
    for measure in grid_measures(size):
        for ptabs in itertools.product(*pred_tables):
            for ftabs in itertools.product(*func_tables):
                for cs in itertools.product(names, repeat=len(consts)):
                    yield Model(
                        names, measure,
                        {n: t for (n, _), t in zip(preds, ptabs)},
                        {n: t for (n, _), t in zip(funcs, ftabs)},
                        dict(zip(consts, cs)),
                    )


# ---------------------------------------------------------------------------
# Evaluation


def _term_vars(t) -> frozenset:
    if t[0] == "var":
        return frozenset((t[1],))
    if t[0] == "const":
        return frozenset()
    return frozenset().union(*(_term_vars(a) for a in t[2]))


def free_vars(phi) -> frozenset:
    kind = phi[0]
    if kind == "atom":
        return frozenset().union(*(_term_vars(t) for t in phi[2]))
    if kind == "rat":
        return frozenset()
    if kind == "not":
        return free_vars(phi[1])
    if kind in BINOPS or kind == "qeq":
        return free_vars(phi[1]) | free_vars(phi[2])
    return free_vars(phi[2]) - {phi[1]}


class Evaluator:
    """Exact truth values on one model, memoised per subformula and valuation."""

    def __init__(self, model: Model):
        self.model = model
        self.memo = {}
        self.free = {}

    def term(self, t, env):
        if t[0] == "var":
            return env[t[1]]
        if t[0] == "const":
            return self.model.consts[t[1]]
        return self.model.funcs[t[1]][tuple(self.term(a, env) for a in t[2])]

    def value(self, phi, env=None):
        env = env or {}
        free = self.free.get(id(phi))
        if free is None:
            free = self.free[id(phi)] = tuple(sorted(free_vars(phi)))
        key = (id(phi), tuple(env[x] for x in free))
        cached = self.memo.get(key)
        if cached is None:
            cached = self.memo[key] = self._value(phi, env)
        return cached

    def matrix(self, body, x, env):
        scoped = dict(env)
        out = []
        for m in self.model.universe:
            scoped[x] = m
            out.append(self.value(body, scoped))
        return out

    def _value(self, phi, env):
        kind = phi[0]
        if kind == "atom":
            return self.model.preds[phi[1]][tuple(self.term(t, env) for t in phi[2])]
        if kind == "rat":
            return phi[1]
        if kind == "not":
            return ONE - self.value(phi[1], env)
        if kind in BINOPS:
            a = self.value(phi[1], env)
            b = self.value(phi[2], env)
            if kind == "and":
                return min(a, b)
            if kind == "or":
                return max(a, b)
            if kind == "sand":
                return max(ZERO, a + b - ONE)
            if kind == "sor":
                return min(ONE, a + b)
            return min(ONE, ONE - a + b)
        if kind == "qeq":
            return ONE if self.qeq(phi[1], phi[2], env) else ZERO
        values = self.matrix(phi[2], phi[1], env)
        if kind == "all":
            return min(values)
        if kind == "ex":
            return max(values)
        return sum((v * self.model.measure[m] for v, m in zip(values, self.model.universe)), ZERO)

    def qeq(self, left, right, env):
        """Level-set reading of 'Q phi(x) = Q psi(y)'; only the bodies matter."""
        f = self.matrix(left[2], left[1], env)
        g = self.matrix(right[2], right[1], env)
        universe = self.model.universe
        mass = self.model.measure
        crisp = all(v in (ZERO, ONE) for v in f + g)
        levels = [ZERO] if crisp else sorted({v for v in f + g if ZERO < v < ONE})
        total = ZERO
        for a in levels:
            upper_f = {m for m, v in zip(universe, f) if v > a}
            upper_g = {m for m, v in zip(universe, g) if v > a}
            if not upper_g <= upper_f:
                raise ContainmentViolated(a)
            total += sum((mass[m] for m in upper_f - upper_g), ZERO)
        return total == ZERO


def evaluate(phi, model: Model) -> Fraction:
    return Evaluator(model).value(phi)


def first_countermodel(phi, size: int, preds, funcs=(), consts=()) -> Model | None:
    """The first grid model, in enumeration order, on which `phi` is below 1."""
    for model in grid_models(size, preds, funcs, consts):
        try:
            if evaluate(phi, model) < ONE:
                return model
        except ContainmentViolated:
            continue
    return None
