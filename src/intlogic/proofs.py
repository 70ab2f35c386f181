"""Hilbert-style proof scripts over the integral axioms and four rules.

A script is a numbered list of formulas, each justified as a premise, as an
instance of one of the axiom schemata mu1..mu5, or by a rule applied to
earlier lines: modus ponens, generalization, integral introduction
(phi / INT phi dx) and integral monotonicity (phi -> psi / INT phi dx ->
INT psi dx).  Line references are 1-based, as in the file format.

Axiom instances are written as biconditionals: the schema's two sides L, R
appear as (L -> R) & (R -> L).
"""

from __future__ import annotations

from dataclasses import dataclass

from .reporting import Report
from .syntax import (
    Formula,
    Forall,
    Implies,
    Integral,
    Not,
    StrongAnd,
    StrongOr,
    free_vars,
)

AXIOM_IDS = ("mu1", "mu2", "mu3", "mu4", "mu5")


@dataclass(frozen=True)
class Premise:
    pass


@dataclass(frozen=True)
class AxiomInstance:
    schema: str

    def __post_init__(self):
        if self.schema not in AXIOM_IDS:
            raise ValueError(f"unknown axiom schema {self.schema!r}")


@dataclass(frozen=True)
class ModusPonens:
    antecedent: int
    implication: int


@dataclass(frozen=True)
class Generalization:
    source: int
    var: str


@dataclass(frozen=True)
class IntegralIntro:
    source: int
    var: str


@dataclass(frozen=True)
class IntegralMono:
    source: int
    var: str


Justification = Premise | AxiomInstance | ModusPonens | Generalization | IntegralIntro | IntegralMono


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class ProofScript:
    lines: tuple[ProofLine, ...]

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))


# ---------------------------------------------------------------------------
# Axiom schema matching (structural, by destructuring)


def axiom_sides(schema: str, *, x: str = "x", y: str = "y",
                phi: Formula | None = None, psi: Formula | None = None,
                v: Formula | None = None) -> tuple[Formula, Formula]:
    """Build the two sides (L, R) of an axiom schema instance."""
    if schema == "mu1":
        if v is None:
            raise ValueError("mu1 needs the x-free formula v")
        return Integral(x, v), v
    if schema == "mu2":
        return Integral(x, Not(phi)), Not(Integral(x, phi))
    if schema == "mu3":
        return Integral(x, Implies(phi, psi)), Implies(Integral(x, phi), Integral(x, psi))
    if schema == "mu4":
        left = Integral(x, StrongOr(phi, psi))
        right = Implies(
            Implies(Integral(x, phi), Integral(x, StrongAnd(phi, psi))),
            Integral(x, psi),
        )
        return left, right
    if schema == "mu5":
        return Integral(y, Integral(x, phi)), Integral(x, Integral(y, phi))
    raise ValueError(f"unknown axiom schema {schema!r}")


def axiom_formula(schema: str, **parts) -> Formula:
    left, right = axiom_sides(schema, **parts)
    return StrongAnd(Implies(left, right), Implies(right, left))


def _biconditional_sides(formula: Formula) -> tuple[Formula, Formula] | None:
    if not isinstance(formula, StrongAnd):
        return None
    fwd, bwd = formula.left, formula.right
    if not (isinstance(fwd, Implies) and isinstance(bwd, Implies)):
        return None
    if fwd.left != bwd.right or fwd.right != bwd.left:
        return None
    return fwd.left, fwd.right


def matches_axiom(schema: str, formula: Formula) -> bool:
    """Does the formula instantiate the named schema (as a biconditional)?

    The schema's parts are read off the left side once, and the instance they
    determine is rebuilt with `axiom_sides` and compared with both sides.
    """
    sides = _biconditional_sides(formula)
    if sides is None:
        return False
    left = sides[0]
    if schema not in AXIOM_IDS:
        raise ValueError(f"unknown axiom schema {schema!r}")
    if not isinstance(left, Integral):
        return False
    x, body = left.var, left.body
    if schema == "mu1":
        if x in free_vars(body):
            return False
        parts = {"x": x, "v": body}
    elif schema == "mu2" and isinstance(body, Not):
        parts = {"x": x, "phi": body.body}
    elif (schema == "mu3" and isinstance(body, Implies)) or (schema == "mu4" and isinstance(body, StrongOr)):
        parts = {"x": x, "phi": body.left, "psi": body.right}
    elif schema == "mu5" and isinstance(body, Integral):
        parts = {"y": x, "x": body.var, "phi": body.body}
    else:
        return False
    return axiom_sides(schema, **parts) == sides


# ---------------------------------------------------------------------------
# Proof checking


def _check_line(script: ProofScript, number: int) -> str | None:
    """Reason the 1-based line `number` is invalid, or None when it checks out.

    A rule's cited lines are checked first, in citation order, so modus
    ponens reports a bad antecedent before a bad implication.
    """
    line = script.lines[number - 1]
    just = line.justification

    if isinstance(just, Premise):
        return None

    if isinstance(just, AxiomInstance):
        if not matches_axiom(just.schema, line.formula):
            return f"formula does not instantiate axiom {just.schema}"
        return None

    if isinstance(just, ModusPonens):
        cited = (just.antecedent, just.implication)
    elif isinstance(just, (Generalization, IntegralIntro, IntegralMono)):
        cited = (just.source,)
    else:
        return f"unknown justification {just!r}"
    for reference in cited:
        if not 1 <= reference < number:
            return f"reference {reference} is not an earlier line"
    source = script.lines[cited[0] - 1].formula

    if isinstance(just, ModusPonens):
        if script.lines[just.implication - 1].formula != Implies(source, line.formula):
            return (
                f"line {just.implication} is not the implication "
                f"(line {just.antecedent} -> this line)"
            )
    elif isinstance(just, Generalization):
        if line.formula != Forall(just.var, source):
            return f"formula is not ALL {just.var}. (line {just.source})"
    elif isinstance(just, IntegralIntro):
        if line.formula != Integral(just.var, source):
            return f"formula is not INT (line {just.source}) d{just.var}"
    elif not isinstance(source, Implies):
        return f"line {just.source} is not an implication"
    elif line.formula != Implies(Integral(just.var, source.left), Integral(just.var, source.right)):
        return "formula is not the integral-monotonicity consequence"
    return None


def check_proof(script: ProofScript) -> Report:
    """Verify every line; violations carry the 1-based line number and reason."""
    report = Report()
    for number in range(1, len(script.lines) + 1):
        report.tally()
        reason = _check_line(script, number)
        if reason is not None:
            report.add("invalid-line", line=number, reason=reason)
    return report


def first_invalid_line(report: Report) -> int | None:
    lines = [entry["line"] for entry in report.violations if entry["kind"] == "invalid-line"]
    return min(lines) if lines else None
