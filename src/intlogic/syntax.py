"""Vocabularies, terms and formulas of the integral-logic language.

Formulas are immutable trees with structural equality, which downstream code
relies on everywhere (approximation relations compare sentences, the proof
checker compares lines, test oracles compare round-tripped trees).

The connective inventory: weak conjunction/disjunction (min/max), strong
conjunction/disjunction (Lukasiewicz t-norm/t-conorm), Lukasiewicz
implication, negation, rational truth constants, the three quantifiers
ALL / EX / INT, and equality between two quantifier expressions.  Term
equality `eq` and similarity `approx` are distinguished binary predicates,
not formula constructors of their own: `eq` (like '=') is in every
vocabulary, `approx` only where the `has_approx` flag is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Literal, Mapping

from .errors import (
    ArityMismatch,
    CaptureError,
    FlagMissing,
    IntlogicError,
    InvalidSpec,
    NestedQuantEq,
    UnknownSymbol,
)
from .rational import unit

EQ_PRED = "eq"
APPROX_PRED = "approx"

#: The words of the concrete syntax; never a variable, a term or a symbol.
KEYWORDS = frozenset({"ALL", "EX", "INT", "rat"})
#: Names with fixed meaning in the concrete syntax; never usable as symbols.
RESERVED_NAMES = KEYWORDS | {EQ_PRED, APPROX_PRED}


@dataclass(frozen=True)
class Vocabulary:
    """A signature: predicate and function symbols with arities, constants.

    Every vocabulary admits '=' between quantifier expressions and the
    reserved binary predicate `eq`; `has_approx` admits the reserved
    similarity predicate `approx`.
    """

    predicates: tuple[tuple[str, int], ...] = ()
    functions: tuple[tuple[str, int], ...] = ()
    constants: tuple[str, ...] = ()
    has_approx: bool = False

    def __post_init__(self):
        object.__setattr__(self, "predicates", tuple((str(n), int(a)) for n, a in self.predicates))
        object.__setattr__(self, "functions", tuple((str(n), int(a)) for n, a in self.functions))
        object.__setattr__(self, "constants", tuple(str(n) for n in self.constants))
        names = [n for n, _ in self.predicates] + [n for n, _ in self.functions] + list(self.constants)
        # not a field, so equality and hash stay those of the fields
        object.__setattr__(self, "_symbol_names", frozenset(names))
        if len(self._symbol_names) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise InvalidSpec(f"duplicate symbol names in vocabulary: {dupes}")
        for n in names:
            if n in RESERVED_NAMES:
                raise InvalidSpec(f"symbol name {n!r} is reserved")
        for n, a in self.predicates + self.functions:
            if a < 1:
                raise InvalidSpec(f"symbol {n!r} must have arity >= 1, got {a}")

    def predicate_arity(self, name: str) -> int | None:
        if name == EQ_PRED:
            return 2
        if name == APPROX_PRED:
            return 2 if self.has_approx else None
        for n, a in self.predicates:
            if n == name:
                return a
        return None

    def function_arity(self, name: str) -> int | None:
        for n, a in self.functions:
            if n == name:
                return a
        return None

    def is_constant(self, name: str) -> bool:
        return name in self.constants

    def symbol_names(self) -> frozenset[str]:
        """Every predicate, function and constant name, built once with the vocabulary."""
        return self._symbol_names

    def merged(self, other: "Vocabulary") -> "Vocabulary":
        """Union of two vocabularies; arities must agree on shared names."""
        consts = list(self.constants) + [c for c in other.constants if c not in self.constants]
        return Vocabulary(
            _arity_union("predicate", self.predicates, other.predicates),
            _arity_union("function", self.functions, other.functions),
            tuple(consts),
            has_approx=self.has_approx or other.has_approx,
        )


def _arity_union(kind: str, mine: tuple[tuple[str, int], ...],
                 theirs: tuple[tuple[str, int], ...]) -> tuple[tuple[str, int], ...]:
    """The `(name, arity)` pairs of both, sorted; a name shared with two arities is an error."""
    arities = dict(mine)
    for n, a in theirs:
        if arities.setdefault(n, a) != a:
            raise ArityMismatch(f"{kind} {n!r} declared with arities {arities[n]} and {a}")
    return tuple(sorted(arities.items()))


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Constant:
    name: str


@dataclass(frozen=True)
class FuncApp:
    func: str
    args: tuple["Term", ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


Term = Variable | Constant | FuncApp


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class TruthConst:
    """A rational truth constant; its value is pinned to Q intersect [0,1]."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", unit(self.value))


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class StrongAnd:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class StrongOr:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Integral:
    var: str
    body: "Formula"


_QUANTIFIERS = (Forall, Exists, Integral)


@dataclass(frozen=True)
class QuantEq:
    """Equality between two quantifier formulas (top-level only)."""

    left: "Formula"
    right: "Formula"

    def __post_init__(self):
        if not (isinstance(self.left, _QUANTIFIERS) and isinstance(self.right, _QUANTIFIERS)):
            raise ValueError("'=' may only relate quantifier expressions")


Formula = (
    Atom | TruthConst | Not | And | Or | StrongAnd | StrongOr | Implies
    | Forall | Exists | Integral | QuantEq
)

# QuantEq has the shape of a binary connective, so the walkers here treat it as
# one; well-formedness adds its top-level rule, and parsing, printing and
# evaluation keep their own case.
_BINARY = (And, Or, StrongAnd, StrongOr, Implies, QuantEq)


def _parts(formula: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of `formula`, in reading order; an atom or a truth constant has none."""
    if isinstance(formula, (Atom, TruthConst)):
        return ()
    if isinstance(formula, (Not, *_QUANTIFIERS)):
        return (formula.body,)
    if isinstance(formula, _BINARY):
        return (formula.left, formula.right)
    raise TypeError(f"not a formula: {formula!r}")


def _rebuilt(formula: Formula, part: Callable[[Formula], Formula]) -> Formula:
    """`formula` with `part` applied to each of its parts; an atom or a truth constant as it is."""
    parts = _parts(formula)
    if isinstance(formula, _QUANTIFIERS):
        return type(formula)(formula.var, part(*parts))
    return type(formula)(*map(part, parts)) if parts else formula


# ---------------------------------------------------------------------------
# Free variables and substitution


def term_vars(term: Term) -> frozenset[str]:
    if isinstance(term, Variable):
        return frozenset({term.name})
    if isinstance(term, Constant):
        return frozenset()
    out: frozenset[str] = frozenset()
    for arg in term.args:
        out |= term_vars(arg)
    return out


def free_vars(formula: Formula) -> frozenset[str]:
    """Variables with at least one free occurrence; quantifiers bind theirs."""
    if isinstance(formula, Atom):
        out: frozenset[str] = frozenset()
        for arg in formula.args:
            out |= term_vars(arg)
        return out
    if isinstance(formula, TruthConst):
        return frozenset()
    if isinstance(formula, Not):
        return free_vars(formula.body)
    if isinstance(formula, _BINARY):
        return free_vars(formula.left) | free_vars(formula.right)
    if isinstance(formula, _QUANTIFIERS):
        return free_vars(formula.body) - {formula.var}
    raise TypeError(f"not a formula: {formula!r}")


def _subst_term(term: Term, var: str, repl: Term) -> Term:
    if isinstance(term, Variable):
        return repl if term.name == var else term
    if isinstance(term, Constant):
        return term
    return FuncApp(term.func, tuple(_subst_term(a, var, repl) for a in term.args))


def _subst_binder(binder_var: str, body: Formula, var: str, term: Term):
    # caller guarantees binder_var != var
    if var in free_vars(body) and binder_var in term_vars(term):
        raise CaptureError(
            f"substituting for {var!r} would capture {binder_var!r} bound here"
        )
    return substitute(body, var, term)


def substitute(formula: Formula, var: str, term: Term) -> Formula:
    """Replace every free occurrence of `var` by `term` (capture-checked)."""
    if isinstance(formula, Atom):
        return Atom(formula.pred, tuple(_subst_term(a, var, term) for a in formula.args))
    if isinstance(formula, _QUANTIFIERS):
        if formula.var == var:
            return formula
        return type(formula)(formula.var, _subst_binder(formula.var, formula.body, var, term))
    return _rebuilt(formula, lambda part: substitute(part, var, term))


# ---------------------------------------------------------------------------
# Well-formedness


def _check_term(term: Term, voc: Vocabulary) -> None:
    if isinstance(term, Variable):
        return
    if isinstance(term, Constant):
        if not voc.is_constant(term.name):
            raise UnknownSymbol(term.name, message=f"constant {term.name!r} is not declared")
        return
    arity = voc.function_arity(term.func)
    if arity is None:
        raise UnknownSymbol(term.func, message=f"function {term.func!r} is not declared")
    if arity != len(term.args):
        raise ArityMismatch(f"function {term.func!r} expects {arity} arguments, got {len(term.args)}")
    for arg in term.args:
        _check_term(arg, voc)


def check_formula(formula: Formula, voc: Vocabulary, _top: bool = True) -> None:
    """Raise unless `formula` is well-formed over `voc`.

    Quantifier equality is only admitted at the top level.
    """
    if isinstance(formula, Atom):
        arity = voc.predicate_arity(formula.pred)
        if arity is None:
            if formula.pred == APPROX_PRED:
                raise FlagMissing(f"predicate {formula.pred!r} is not enabled in this vocabulary")
            raise UnknownSymbol(formula.pred, message=f"predicate {formula.pred!r} is not declared")
        if arity != len(formula.args):
            raise ArityMismatch(f"predicate {formula.pred!r} expects {arity} arguments, got {len(formula.args)}")
        for arg in formula.args:
            _check_term(arg, voc)
        return
    if isinstance(formula, TruthConst):
        return
    if isinstance(formula, Not):
        check_formula(formula.body, voc, _top=False)
        return
    if isinstance(formula, QuantEq) and not _top:
        raise NestedQuantEq("quantifier equality must be the top-level connective")
    if isinstance(formula, _BINARY):
        check_formula(formula.left, voc, _top=False)
        check_formula(formula.right, voc, _top=False)
        return
    if isinstance(formula, _QUANTIFIERS):
        check_formula(formula.body, voc, _top=False)
        return
    raise TypeError(f"not a formula: {formula!r}")


def is_well_formed(formula: Formula, voc: Vocabulary) -> bool:
    """True when `check_formula` accepts the formula over `voc`."""
    try:
        check_formula(formula, voc)
    except IntlogicError:
        return False
    return True


def subformulas(formula: Formula) -> Iterator[Formula]:
    """Pre-order walk over the formula tree."""
    yield formula
    for part in _parts(formula):
        yield from subformulas(part)


def _collect_term_symbols(term: Term, funcs: dict, consts: set) -> None:
    if isinstance(term, Constant):
        consts.add(term.name)
    elif isinstance(term, FuncApp):
        seen = funcs.setdefault(term.func, len(term.args))
        if seen != len(term.args):
            raise ArityMismatch(f"function {term.func!r} used with arities {seen} and {len(term.args)}")
        for arg in term.args:
            _collect_term_symbols(arg, funcs, consts)


def _as_list(formulas: Formula | Iterable[Formula]) -> Iterable[Formula]:
    """The formulas given; a single formula is a list of one."""
    return formulas if isinstance(formulas, (list, tuple, set, frozenset)) else [formulas]


def infer_vocabulary(formulas: Formula | Iterable[Formula]) -> Vocabulary:
    """The minimal vocabulary over which the given formulas are well-formed."""
    preds: dict[str, int] = {}
    funcs: dict[str, int] = {}
    consts: set[str] = set()
    has_approx = False
    for root in _as_list(formulas):
        for sub in subformulas(root):
            if isinstance(sub, Atom):
                if sub.pred == APPROX_PRED:
                    has_approx = True
                elif sub.pred != EQ_PRED:
                    seen = preds.setdefault(sub.pred, len(sub.args))
                    if seen != len(sub.args):
                        raise ArityMismatch(
                            f"predicate {sub.pred!r} used with arities {seen} and {len(sub.args)}"
                        )
                for arg in sub.args:
                    _collect_term_symbols(arg, funcs, consts)
    return Vocabulary(
        tuple(sorted(preds.items())),
        tuple(sorted(funcs.items())),
        tuple(sorted(consts)),
        has_approx=has_approx,
    )


def mentions_eq(formulas: Formula | Iterable[Formula]) -> bool:
    """True when an atom of the formulas uses the term-equality predicate `eq`."""
    return any(isinstance(sub, Atom) and sub.pred == EQ_PRED
               for root in _as_list(formulas) for sub in subformulas(root))


# ---------------------------------------------------------------------------
# Symbol renaming (for the renaming closure property)


def _rename_term(term: Term, mapping: Mapping[str, str]) -> Term:
    if isinstance(term, Variable):
        return term
    if isinstance(term, Constant):
        return Constant(mapping.get(term.name, term.name))
    return FuncApp(mapping.get(term.func, term.func), tuple(_rename_term(a, mapping) for a in term.args))


def rename_symbols(formula: Formula, mapping: Mapping[str, str]) -> Formula:
    """Apply a vocabulary renaming to every symbol occurrence (variables untouched)."""
    if isinstance(formula, Atom):
        return Atom(mapping.get(formula.pred, formula.pred), tuple(_rename_term(a, mapping) for a in formula.args))
    return _rebuilt(formula, lambda part: rename_symbols(part, mapping))


# ---------------------------------------------------------------------------
# Congruence axiom generation for '=' and 'approx'


def _fresh_names(base: str, count: int, taken: frozenset[str]) -> list[str]:
    out = []
    for i in range(1, count + 1):
        name = f"{base}{i}"
        while name in taken:
            name += "_"
        out.append(name)
    return out


def _fold_and(parts: list[Formula]) -> Formula:
    acc = parts[0]
    for part in parts[1:]:
        acc = And(acc, part)
    return acc


def _biconditional(a: Formula, b: Formula) -> Formula:
    return And(Implies(a, b), Implies(b, a))


def congruence_axioms(voc: Vocabulary, relation: Literal["eq", "approx"]) -> list[Formula]:
    """Congruence formulas for the chosen relation, one per function and predicate.

    For each n-ary function f:  (x1 R y1 /\\ ... /\\ xn R yn) -> f(xs) R f(ys).
    For each n-ary predicate P the consequent relates the two atoms: a single
    implication P(xs) -> P(ys) for `eq`, and the biconditional (truth-value
    similarity) for `approx`, since the similarity of two formula values is
    their Lukasiewicz biresiduum.
    """
    if relation == "eq":
        rel_pred = EQ_PRED
    elif relation == "approx":
        if not voc.has_approx:
            raise FlagMissing("vocabulary does not enable 'approx'")
        rel_pred = APPROX_PRED
    else:
        raise ValueError(f"relation must be 'eq' or 'approx', got {relation!r}")

    taken = voc.symbol_names() | RESERVED_NAMES
    axioms: list[Formula] = []

    def antecedent(xs, ys):
        return _fold_and([Atom(rel_pred, (Variable(x), Variable(y))) for x, y in zip(xs, ys)])

    for fname, arity in voc.functions:
        xs = _fresh_names("x", arity, taken)
        ys = _fresh_names("y", arity, taken)
        lhs = FuncApp(fname, tuple(Variable(x) for x in xs))
        rhs = FuncApp(fname, tuple(Variable(y) for y in ys))
        axioms.append(Implies(antecedent(xs, ys), Atom(rel_pred, (lhs, rhs))))

    for pname, arity in voc.predicates:
        xs = _fresh_names("x", arity, taken)
        ys = _fresh_names("y", arity, taken)
        left_atom = Atom(pname, tuple(Variable(x) for x in xs))
        right_atom = Atom(pname, tuple(Variable(y) for y in ys))
        if relation == "eq":
            consequent: Formula = Implies(left_atom, right_atom)
        else:
            consequent = _biconditional(left_atom, right_atom)
        axioms.append(Implies(antecedent(xs, ys), consequent))

    return axioms
