"""Seeded random generators shared by the test modules.

Formulas are drawn over a fixed test vocabulary; variable names are kept
disjoint from the declared symbols so printing and reparsing classify them
identically.
"""

from __future__ import annotations

import random
from fractions import Fraction

import intlogic as il

VOC = il.Vocabulary(
    predicates=(("P", 1), ("Q", 1), ("R", 2)),
    functions=(("f", 1), ("g", 2)),
    constants=("c", "d"),
    has_approx=True,
)

VAR_POOL = ("x", "y", "z", "u")

_TERM_KINDS = ("var", "const", "func1", "func2")
_LEAF_KINDS = ("atom", "rat", "approx")
_NODE_KINDS = (
    "not", "and", "or", "sand", "sor", "implies",
    "forall", "exists", "integral", "atom", "rat",
)


def random_term(rng: random.Random, scope: tuple[str, ...], depth: int):
    kind = rng.choice(_TERM_KINDS if depth > 0 else _TERM_KINDS[:2])
    if kind == "var" and scope:
        return il.Variable(rng.choice(scope))
    if kind == "func1" and depth > 0:
        return il.FuncApp("f", (random_term(rng, scope, depth - 1),))
    if kind == "func2" and depth > 0:
        return il.FuncApp("g", (random_term(rng, scope, depth - 1),
                                random_term(rng, scope, depth - 1)))
    return il.Constant(rng.choice(("c", "d")))


def random_rational(rng: random.Random) -> Fraction:
    den = rng.randint(1, 6)
    num = rng.randint(0, den)
    return Fraction(num, den)


def random_formula(rng: random.Random, depth: int, scope: tuple[str, ...] = ()):
    """A formula of nesting depth at most `depth`; free variables allowed."""
    kind = rng.choice(_NODE_KINDS if depth > 0 else _LEAF_KINDS)
    if kind == "atom":
        pred, arity = rng.choice((("P", 1), ("Q", 1), ("R", 2)))
        args = tuple(random_term(rng, scope, max(depth - 1, 0)) for _ in range(arity))
        return il.Atom(pred, args)
    if kind == "approx":
        args = (random_term(rng, scope, 0), random_term(rng, scope, 0))
        return il.Atom("approx", args)
    if kind == "rat":
        return il.TruthConst(random_rational(rng))
    if kind == "not":
        return il.Not(random_formula(rng, depth - 1, scope))
    if kind in ("and", "or", "sand", "sor", "implies"):
        cls = {"and": il.And, "or": il.Or, "sand": il.StrongAnd,
               "sor": il.StrongOr, "implies": il.Implies}[kind]
        return cls(random_formula(rng, depth - 1, scope),
                   random_formula(rng, depth - 1, scope))
    var = rng.choice(VAR_POOL)
    cls = {"forall": il.Forall, "exists": il.Exists, "integral": il.Integral}[kind]
    return cls(var, random_formula(rng, depth - 1, scope + (var,)))


def random_toplevel(rng: random.Random, depth: int):
    """Like random_formula but occasionally a quantifier equality."""
    if rng.random() < 0.15:
        def side():
            var = rng.choice(VAR_POOL)
            quant = rng.choice((il.Forall, il.Exists, il.Integral))
            return quant(var, random_formula(rng, depth - 1, (var,)))

        return il.QuantEq(side(), side())
    return random_formula(rng, depth)


def random_sentence(rng: random.Random, depth: int = 3):
    """A closed formula: atoms only use variables already in scope, so no frees."""
    formula = random_formula(rng, depth)
    for name in sorted(il.free_vars(formula)):
        formula = il.substitute(formula, name, il.Constant(rng.choice(("c", "d"))))
    return formula


def random_model(rng: random.Random, size: int = 2, voc: il.Vocabulary = VOC) -> il.WeakProbModel:
    gen = il.ModelGenSpec(size=size, seed=rng.randrange(2**32), count=1)
    return next(il.generate_models(gen, voc))


def weakening_system(rng: random.Random, base: list, extras: list):
    """A structurally valid approximation system: chains of \\/-weakenings.

    Every edge goes from a sentence to a disjunctive weakening of it, so
    satisfaction monotonicity holds on every model; the relation is closed
    under transitivity by construction.
    """
    sentences = list(base)
    rel = set()
    for start_index, start in enumerate(base):
        current = start
        current_index = start_index
        chain = [current_index]
        for extra in rng.sample(extras, k=rng.randint(0, min(2, len(extras)))):
            current = il.Or(current, extra)
            sentences.append(current)
            current_index = len(sentences) - 1
            for earlier in chain:
                rel.add((earlier, current_index))
            chain.append(current_index)
    return il.ApproximationSystem(tuple(sentences), frozenset(rel))
