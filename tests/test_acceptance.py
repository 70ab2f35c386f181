"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is exact; no tolerances apply anywhere.  Time
budgets are asserted with the wall clock.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction


from intlogic.evaluate import evaluate_closed
from intlogic.integrals import (
    double_sum,
    integral_dissection,
    integral_expectation,
    integral_layercake,
    slice_first,
    slice_second,
)
from intlogic.model import FuzzySubset, WeakProbModel
from intlogic.parser import parse_formula, print_formula
from intlogic.proofs import check_proof, first_invalid_line
from intlogic.rational import DEFAULT_GRID
from intlogic.satisfaction import (
    ApproximationSystem,
    LevelConfig,
    hasat,
    hsat,
    hsat_qeq,
    hsat_qeq_dirac,
    validate_approximation_system,
)
from intlogic.syntax import (
    And,
    Atom,
    Constant,
    Exists,
    Forall,
    Integral,
    Or,
    StrongAnd,
    Variable,
)
from intlogic.validate import (
    ModelGenSpec,
    check_abstract_logic_properties,
    grid_fuzzy_subsets,
    grid_measures,
    integral_law_suite,
    mu3_equality_gap,
    random_fuzzy_subset,
    universe_names,
    validate_axiom,
)

import gen
from test_proofs import _corrupt, _valid_scripts

F = Fraction
HALF = F(1, 2)


@contextmanager
def budget(number, description, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"criterion {number} took {elapsed:.1f}s (budget {seconds}s)"
    print(f"PASS criterion {number}: {description} [{elapsed:.2f}s]")


def test_criterion_01_worked_quantifier_example():
    with budget(1, "EX satisfied, ALL not, value exactly 1/2", 1.0):
        universe = ("n1", "n2", "n3")
        model = WeakProbModel(
            universe,
            {m: F(1, 3) for m in universe},
            {"Phi": {("n1",): HALF, ("n2",): F(4, 5), ("n3",): F(1)}},
            {},
            {"c1": "n1", "c2": "n2", "c3": "n3"},
        )
        phi_x = Atom("Phi", (Variable("x"),))
        assert hsat(Exists("x", phi_x), model)
        assert not hsat(Forall("x", phi_x), model)
        assert evaluate_closed(Forall("x", phi_x), model) == HALF


def test_criterion_02_disjunction_vs_conjunctions():
    with budget(2, "9/10 vs 1: disjunction holds, both conjunctions fail", 1.0):
        model = WeakProbModel(
            ("w",), {"w": F(1)},
            {"P": {("w",): F(9, 10)}, "Q": {("w",): F(1)}},
            {}, {"c": "w"},
        )
        phi = Atom("P", (Constant("c"),))
        psi = Atom("Q", (Constant("c"),))
        assert hsat(Or(phi, psi), model)
        assert not hsat(StrongAnd(phi, psi), model)
        assert not hsat(And(phi, psi), model)


def test_criterion_03_integral_law_suite():
    with budget(3, "five integral laws, exhaustive |M|=2 grid", 60.0):
        gen_spec = ModelGenSpec(size=2, exhaustive=True)
        names = universe_names(2)
        total_checks = 0
        for measure in grid_measures(2, DEFAULT_GRID):
            model = WeakProbModel(names, measure, {}, {}, {})
            report = integral_law_suite(model, gen_spec)
            assert report.ok, report.violations[:1]
            total_checks += report.checked
        assert total_checks == 13 * (5 + 3 * 625 + 625)


def test_criterion_04_axiom_suite():
    with budget(4, "mu1/mu2/mu4/mu5 exact, mu3 as implication, plus gap witness", 120.0):
        gen_spec = ModelGenSpec(size=2, exhaustive=True)
        for axiom in ("mu1", "mu2", "mu4", "mu5", "mu3"):
            report = validate_axiom(axiom, gen_spec)
            assert report.ok, (axiom, report.violations[:1])
            assert report.checked > 0
        witness = mu3_equality_gap(gen_spec)
        assert witness is not None
        assert F(witness["lhs"]) < F(witness["rhs"])


def test_criterion_05_fubini_on_random_bivariate():
    with budget(5, "1000 random bivariate subsets: iterated = double sum", 10.0):
        rng = random.Random(20260810)
        names = universe_names(3)
        measures = grid_measures(3, DEFAULT_GRID)
        for _ in range(1000):
            model = WeakProbModel(names, rng.choice(measures), {}, {}, {})
            h = random_fuzzy_subset(names, DEFAULT_GRID, rng, arity=2)
            product = double_sum(h, model)
            assert integral_expectation(slice_first(h, model), model) == product
            assert integral_expectation(slice_second(h, model), model) == product


def test_criterion_06_integral_oracle_agreement():
    with budget(6, "expectation = layercake = dissection for all |M| <= 4", 60.0):
        checked = 0
        for size in (1, 2, 3, 4):
            names = universe_names(size)
            subsets = list(grid_fuzzy_subsets(names, DEFAULT_GRID))
            for measure in grid_measures(size, DEFAULT_GRID):
                model = WeakProbModel(names, measure, {}, {}, {})
                for f in subsets:
                    expectation = integral_expectation(f, model)
                    assert integral_dissection(f, model) == expectation
                    assert integral_layercake(f, model) == expectation
                    checked += 1
        assert checked == 5 + 13 * 25 + 91 * 125 + 529 * 625


def test_criterion_07_satisfaction_strength_chain():
    with budget(7, "hsat implies hasat over 500 seeded triples; diagonal valid", 30.0):
        rng = random.Random(7777)
        triples = 0
        while triples < 500:
            base = [gen.random_sentence(rng, depth=2) for _ in range(2)]
            extras = [gen.random_sentence(rng, depth=1) for _ in range(3)]
            system = gen.weakening_system(rng, base, extras)
            model = gen.random_model(rng, size=2)
            diagonal = ApproximationSystem.diagonal(system.sentences)
            assert validate_approximation_system(diagonal, [model]).ok
            for sentence in system.sentences:
                if triples >= 500:
                    break
                if hsat(sentence, model):
                    assert hasat(sentence, model, system)
                triples += 1


def test_criterion_08_quantifier_equality_semantics():
    with budget(8, "qeq reflexivity, Dirac agreement, null vs massive witness", 10.0):
        rng = random.Random(4242)
        for _ in range(200):
            model = gen.random_model(rng, size=2)
            var = rng.choice(("x", "y"))
            quant = rng.choice((Forall, Exists, Integral))
            side = quant(var, gen.random_formula(rng, depth=2, scope=(var,)))
            assert hsat_qeq(side, side, model)

        # Dirac vs general level-set checker at level 1/2 on crisp matrices
        universe = ("a", "b", "c")
        cfg = LevelConfig((HALF,), ((0, 0),))
        for _ in range(100):
            ones_f = {m for m in universe if rng.random() < 0.6}
            ones_g = {m for m in ones_f if rng.random() < 0.7}
            weights = [F(1, 6), F(1, 3), HALF]
            rng.shuffle(weights)
            model = WeakProbModel(
                universe,
                dict(zip(universe, weights)),
                {"P": {(m,): F(1) if m in ones_f else F(0) for m in universe},
                 "Q": {(m,): F(1) if m in ones_g else F(0) for m in universe}},
                {}, {})
            f = FuzzySubset.from_predicate(model, "P")
            g = FuzzySubset.from_predicate(model, "Q")
            left = Integral("x", Atom("P", (Variable("x"),)))
            right = Integral("y", Atom("Q", (Variable("y"),)))
            assert hsat_qeq_dirac(f, g, model) == hsat_qeq(left, right, model, cfg)

        # the level-set difference {b} has mass 0 in one model, mass 1/2 in the other
        def witness_model(mu_a, mu_b):
            return WeakProbModel(
                ("a", "b"), {"a": mu_a, "b": mu_b},
                {"P": {("a",): F(3, 4), ("b",): F(1, 4)},
                 "Q": {("a",): F(3, 4), ("b",): F(0)}},
                {}, {})

        left = Integral("x", Atom("P", (Variable("x"),)))
        right = Integral("y", Atom("Q", (Variable("y"),)))
        low_cfg = LevelConfig((F(1, 8),), ((0, 0),))
        assert hsat_qeq(left, right, witness_model(F(1), F(0)), low_cfg)
        assert not hsat_qeq(left, right, witness_model(HALF, HALF), low_cfg)


def test_criterion_09_closure_properties():
    with budget(9, "renaming/reduct/isomorphism invariance on 200 seeded pairs", 10.0):
        rng = random.Random(909)
        pool = [gen.random_sentence(rng, depth=3) for _ in range(10)]
        gen_spec = ModelGenSpec(size=2, seed=909, count=20)
        report = check_abstract_logic_properties(gen_spec, pool)
        assert report.ok, report.violations[:1]
        assert report.checked == 20 * 10 * 4  # 200 pairs, four checks each


def test_criterion_10_parser_round_trip():
    with budget(10, "parse(print(f)) = f for 10000 formulas up to depth 6", 10.0):
        rng = random.Random(101010)
        for _ in range(10_000):
            formula = gen.random_toplevel(rng, depth=rng.randint(0, 6))
            assert parse_formula(print_formula(formula), gen.VOC) == formula


def test_criterion_11_proof_corpus():
    with budget(11, "20 valid scripts accepted, 20 corruptions rejected in place", 5.0):
        scripts = _valid_scripts()[:20]
        assert len(scripts) == 20
        for proof in scripts:
            assert check_proof(proof).ok
        rng = random.Random(1111)
        for proof in scripts:
            broken, line_no = _corrupt(proof, rng)
            report = check_proof(broken)
            assert not report.ok
            assert first_invalid_line(report) == line_no
