import random
from fractions import Fraction

import pytest

from intlogic.proofs import (
    AxiomInstance,
    Generalization,
    IntegralIntro,
    IntegralMono,
    ModusPonens,
    Premise,
    ProofLine,
    ProofScript,
    axiom_formula,
    axiom_sides,
    check_proof,
    first_invalid_line,
    matches_axiom,
)
from intlogic.syntax import (
    And,
    Atom,
    Forall,
    Implies,
    Integral,
    Not,
    StrongAnd,
    StrongOr,
    TruthConst,
    Variable,
)

import gen

P = Atom("P", (Variable("x"),))
Q = Atom("Q", (Variable("x"),))
R = Atom("R", (Variable("x"), Variable("y")))
P_y = Atom("P", (Variable("y"),))


def script(*lines):
    return ProofScript(tuple(ProofLine(f, j) for f, j in lines))


class TestRules:
    def test_integral_introduction(self):
        proof = script((P, Premise()), (Integral("x", P), IntegralIntro(1, "x")))
        assert check_proof(proof).ok

    def test_integral_monotonicity(self):
        proof = script(
            (Implies(P, Q), Premise()),
            (Implies(Integral("x", P), Integral("x", Q)), IntegralMono(1, "x")),
        )
        assert check_proof(proof).ok

    def test_generalization(self):
        proof = script((P, Premise()), (Forall("x", P), Generalization(1, "x")))
        assert check_proof(proof).ok

    def test_modus_ponens(self):
        proof = script(
            (P, Premise()),
            (Implies(P, Q), Premise()),
            (Q, ModusPonens(1, 2)),
        )
        assert check_proof(proof).ok

    def test_modus_ponens_shape_mismatch(self):
        proof = script(
            (P, Premise()),
            (And(P, Q), Premise()),
            (Q, ModusPonens(1, 2)),
        )
        report = check_proof(proof)
        assert first_invalid_line(report) == 3

    def test_forward_reference_rejected(self):
        proof = script((Integral("x", P), IntegralIntro(2, "x")), (P, Premise()))
        assert first_invalid_line(check_proof(proof)) == 1

    def test_self_reference_rejected(self):
        proof = script((Integral("x", P), IntegralIntro(1, "x")))
        assert first_invalid_line(check_proof(proof)) == 1

    def test_wrong_variable_rejected(self):
        proof = script((P, Premise()), (Integral("y", P), IntegralIntro(1, "x")))
        assert first_invalid_line(check_proof(proof)) == 2


# line 3 of a four-line script, by rule and by which reference is bad; the other references are good
BAD_REFERENCE_LINES = {
    "mp-antecedent": lambda bad: (Q, ModusPonens(bad, 2)),
    "mp-implication": lambda bad: (Q, ModusPonens(1, bad)),
    "mp-both": lambda bad: (Q, ModusPonens(bad, -1)),  # the antecedent is reported first
    "gen": lambda bad: (Forall("x", P), Generalization(bad, "x")),
    "int-intro": lambda bad: (Integral("x", P), IntegralIntro(bad, "x")),
    "int-mono": lambda bad: (Implies(Integral("x", P), Integral("x", Q)), IntegralMono(bad, "x")),
}


@pytest.mark.parametrize("bad", [4, 3, 0], ids=["forward", "self", "zero"])
@pytest.mark.parametrize("rule", sorted(BAD_REFERENCE_LINES))
def test_bad_reference_records(rule, bad):
    proof = script((P, Premise()), (Implies(P, Q), Premise()), BAD_REFERENCE_LINES[rule](bad), (P, Premise()))
    report = check_proof(proof)
    assert report.checked == 4
    assert report.violations == [{"kind": "invalid-line", "line": 3, "reason": f"reference {bad} is not an earlier line"}]


class TestAxiomMatching:
    def test_every_schema_matches_its_instances(self):
        cases = {
            "mu1": dict(v=P_y, x="x"),
            "mu2": dict(phi=P, x="x"),
            "mu3": dict(phi=P, psi=Q, x="x"),
            "mu4": dict(phi=P, psi=Q, x="x"),
            "mu5": dict(phi=R, x="x", y="y"),
        }
        for schema, parts in cases.items():
            instance = axiom_formula(schema, **parts)
            assert matches_axiom(schema, instance), schema
            for other in cases:
                if other != schema:
                    assert not matches_axiom(other, instance), (schema, other)

    def test_mu1_freeness_side_condition(self):
        bound_ok = axiom_formula("mu1", v=P_y, x="x")
        assert matches_axiom("mu1", bound_ok)
        x_free = axiom_formula("mu1", v=P, x="x")  # v contains x freely
        assert not matches_axiom("mu1", x_free)

    def test_mu1_accepts_truth_constant_body(self):
        instance = axiom_formula("mu1", v=TruthConst(Fraction(1, 3)), x="x")
        assert matches_axiom("mu1", instance)

    def test_single_implication_is_not_an_instance(self):
        left, right = axiom_sides("mu2", phi=P, x="x")
        assert not matches_axiom("mu2", Implies(left, right))

    def test_swapped_biconditional_rejected(self):
        left, right = axiom_sides("mu2", phi=P, x="x")
        backwards = StrongAnd(Implies(left, right), Implies(left, right))
        assert not matches_axiom("mu2", backwards)

    def test_mu4_shape(self):
        instance = axiom_formula("mu4", phi=P, psi=Q, x="x")
        sides = instance.left
        assert isinstance(sides.left, Integral)
        assert isinstance(sides.left.body, StrongOr)

    def test_axiom_line_in_proof(self):
        proof = script((axiom_formula("mu5", phi=R, x="x", y="y"), AxiomInstance("mu5")))
        assert check_proof(proof).ok

    def test_unknown_schema_rejected_at_construction(self):
        with pytest.raises(ValueError):
            AxiomInstance("mu9")


def _valid_scripts():
    """A spread of valid proofs covering all five schemata and all four rules."""
    scripts = []
    for schema, parts in [
        ("mu1", dict(v=P_y, x="x")),
        ("mu2", dict(phi=P, x="x")),
        ("mu3", dict(phi=P, psi=Q, x="x")),
        ("mu4", dict(phi=P, psi=Q, x="x")),
        ("mu5", dict(phi=R, x="x", y="y")),
    ]:
        scripts.append(script((axiom_formula(schema, **parts), AxiomInstance(schema))))

    scripts.append(script((P, Premise()), (Integral("x", P), IntegralIntro(1, "x"))))
    scripts.append(script((Q, Premise()), (Forall("x", Q), Generalization(1, "x"))))
    scripts.append(script(
        (Implies(P, Q), Premise()),
        (Implies(Integral("x", P), Integral("x", Q)), IntegralMono(1, "x")),
    ))
    scripts.append(script(
        (P, Premise()), (Implies(P, Q), Premise()), (Q, ModusPonens(1, 2)),
    ))
    scripts.append(script(
        (P, Premise()),
        (Integral("x", P), IntegralIntro(1, "x")),
        (Integral("y", Integral("x", P)), IntegralIntro(2, "y")),
    ))
    scripts.append(script(
        (Not(P), Premise()),
        (Forall("y", Not(P)), Generalization(1, "y")),
        (Integral("z", Forall("y", Not(P))), IntegralIntro(2, "z")),
    ))
    scripts.append(script(
        (axiom_formula("mu2", phi=Q, x="z"), AxiomInstance("mu2")),
        (P, Premise()),
        (Integral("x", P), IntegralIntro(2, "x")),
    ))
    scripts.append(script(
        (Implies(Q, P), Premise()),
        (Implies(Integral("u", Q), Integral("u", P)), IntegralMono(1, "u")),
        (Integral("u", Q), Premise()),
        (Integral("u", P), ModusPonens(3, 2)),
    ))
    scripts.append(script(
        (And(P, Q), Premise()),
        (Implies(And(P, Q), Q), Premise()),
        (Q, ModusPonens(1, 2)),
        (Forall("x", Q), Generalization(3, "x")),
    ))
    base = [
        ("mu3", dict(phi=Q, psi=P, x="y")),
        ("mu4", dict(phi=Not(P), psi=Q, x="x")),
        ("mu5", dict(phi=Atom("R", (Variable("y"), Variable("x"))), x="y", y="x")),
        ("mu2", dict(phi=And(P, Q), x="x")),
        ("mu1", dict(v=TruthConst(Fraction(2, 5)), x="x")),
    ]
    for schema, parts in base:
        scripts.append(script(
            (axiom_formula(schema, **parts), AxiomInstance(schema)),
            (P, Premise()),
            (Integral("x", P), IntegralIntro(2, "x")),
        ))
    scripts.append(script(
        (TruthConst(Fraction(1, 2)), Premise()),
        (Integral("x", TruthConst(Fraction(1, 2))), IntegralIntro(1, "x")),
    ))
    return scripts


def _corrupt(proof: ProofScript, rng: random.Random):
    """Break one justified (non-premise) line; returns (script, corrupted_line_no)."""
    candidates = [
        i for i, line in enumerate(proof.lines)
        if not isinstance(line.justification, Premise)
    ]
    index = rng.choice(candidates)
    line = proof.lines[index]
    just = line.justification
    if isinstance(just, AxiomInstance):
        broken = ProofLine(Not(line.formula), just)
    elif isinstance(just, ModusPonens):
        broken = ProofLine(Not(line.formula), just)
    else:
        broken = ProofLine(line.formula, type(just)(just.source, just.var + "_zz"))
    lines = list(proof.lines)
    lines[index] = broken
    return ProofScript(tuple(lines)), index + 1


def test_valid_corpus_accepted():
    scripts = _valid_scripts()
    assert len(scripts) >= 20
    for proof in scripts:
        report = check_proof(proof)
        assert report.ok, report.violations


def test_corrupted_corpus_rejected_at_the_line():
    rng = random.Random(99)
    for proof in _valid_scripts():
        broken, line_no = _corrupt(proof, rng)
        report = check_proof(broken)
        assert not report.ok
        assert first_invalid_line(report) == line_no


def test_random_rule_applications_always_verify():
    rng = random.Random(123)
    for _ in range(120):
        lines = [ProofLine(gen.random_sentence(rng, depth=2), Premise())]
        for _ in range(rng.randint(1, 5)):
            source_index = rng.randrange(len(lines))
            source = lines[source_index].formula
            var = rng.choice(("x", "y", "z"))
            kind = rng.randrange(4)
            if kind == 0:
                lines.append(ProofLine(Integral(var, source), IntegralIntro(source_index + 1, var)))
            elif kind == 1:
                lines.append(ProofLine(Forall(var, source), Generalization(source_index + 1, var)))
            elif kind == 2 and isinstance(source, Implies):
                lines.append(ProofLine(
                    Implies(Integral(var, source.left), Integral(var, source.right)),
                    IntegralMono(source_index + 1, var)))
            else:
                target = gen.random_sentence(rng, depth=1)
                lines.append(ProofLine(Implies(source, target), Premise()))
                lines.append(ProofLine(target, ModusPonens(source_index + 1, len(lines))))
        assert check_proof(ProofScript(tuple(lines))).ok
