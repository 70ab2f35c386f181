import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import intlogic as il
from intlogic import errors
from intlogic.evaluate import evaluate_closed
from intlogic.model import FuzzySubset, WeakProbModel
from intlogic.satisfaction import (
    ApproximationSystem,
    LevelConfig,
    check_elementary_substructure,
    check_weak_negation,
    default_level_config,
    hasat,
    hsat,
    hsat_qeq,
    hsat_qeq_dirac,
    theory_of,
    validate_approximation_system,
)
from intlogic.syntax import (
    And,
    Atom,
    Constant,
    Exists,
    Forall,
    Integral,
    Not,
    Or,
    StrongAnd,
    Variable,
)

import gen
import oracle

F = Fraction
HALF = F(1, 2)


def pq_model(p=F(9, 10), q=F(1)):
    return WeakProbModel(
        ("w",),
        {"w": F(1)},
        {"P": {("w",): p}, "Q": {("w",): q}},
        {},
        {"c": "w"},
    )


def matrix_model(p_values, mu=None):
    universe = tuple(sorted(p_values))
    mu = mu or {m: F(1, len(universe)) for m in universe}
    return WeakProbModel(universe, mu, {"P": {(m,): v for m, v in p_values.items()},
                                        "Q": {(m,): F(0) for m in universe}}, {}, {})


P_c = Atom("P", (Constant("c"),))
Q_c = Atom("Q", (Constant("c"),))


class TestHsat:
    def test_disjunction_satisfied_conjunctions_not(self):
        model = pq_model(F(9, 10), F(1))
        assert hsat(Or(P_c, Q_c), model)
        assert not hsat(StrongAnd(P_c, Q_c), model)
        assert not hsat(And(P_c, Q_c), model)

    def test_quantifiers_on_worked_model(self):
        universe = ("n1", "n2", "n3")
        model = WeakProbModel(
            universe,
            {m: F(1, 3) for m in universe},
            {"Phi": {("n1",): HALF, ("n2",): F(4, 5), ("n3",): F(1)}},
            {},
            {},
        )
        phi_x = Atom("Phi", (Variable("x"),))
        assert hsat(il.Exists("x", phi_x), model)
        assert not hsat(Forall("x", phi_x), model)

    def test_intermediate_value_satisfies_neither(self):
        model = pq_model(HALF, F(0))
        assert not hsat(P_c, model)
        assert not hsat(Not(P_c), model)

    def test_negation_needs_value_zero(self):
        model = pq_model(F(0), F(0))
        assert hsat(Not(P_c), model)

    def test_requires_sentence(self):
        with pytest.raises(errors.NotASentence):
            hsat(Atom("P", (Variable("x"),)), pq_model())

    def test_strong_and_weak_conjunction_agree_at_one(self):
        rng = random.Random(5)
        for _ in range(60):
            model = gen.random_model(rng, size=2)
            a = gen.random_sentence(rng, depth=2)
            b = gen.random_sentence(rng, depth=2)
            both = hsat(a, model) and hsat(b, model)
            assert hsat(And(a, b), model) == both
            assert hsat(StrongAnd(a, b), model) == both


def crisp(universe, ones):
    return FuzzySubset(tuple(universe), {(m,): F(1) if m in ones else F(0) for m in universe})


class TestDiracCase:
    def test_equal_matrices(self):
        model = matrix_model({"a": F(1), "b": F(0)})
        f = crisp("ab", {"a"})
        assert hsat_qeq_dirac(f, f, model)

    def test_null_difference_accepted(self):
        model = matrix_model({"a": F(1), "b": F(1)}, mu={"a": F(1), "b": F(0)})
        f = crisp("ab", {"a", "b"})
        g = crisp("ab", {"a"})
        assert hsat_qeq_dirac(f, g, model)

    def test_massive_difference_rejected(self):
        model = matrix_model({"a": F(1), "b": F(1)})
        f = crisp("ab", {"a", "b"})
        g = crisp("ab", {"a"})
        assert not hsat_qeq_dirac(f, g, model)

    def test_containment_required(self):
        model = matrix_model({"a": F(1), "b": F(0)})
        f = crisp("ab", {"a"})
        g = crisp("ab", {"a", "b"})
        with pytest.raises(errors.ContainmentViolated):
            hsat_qeq_dirac(f, g, model)

    def test_crispness_required(self):
        model = matrix_model({"a": HALF, "b": F(0)})
        f = FuzzySubset(("a", "b"), {("a",): HALF, ("b",): F(0)})
        with pytest.raises(errors.NotCrisp):
            hsat_qeq_dirac(f, f, model)


AB = ("a", "b")


# One row per way a Dirac-case input can be malformed: f, g (None: f again) and
# the error, over `matrix_model({"a": 1, "b": 0})`.
DIRAC_BAD_INPUT = [
    pytest.param(FuzzySubset(AB, {(m, n): F(m == n) for m in AB for n in AB}), None,
                 errors.ArityMismatch, id="binary-crisp-against-itself"),
    pytest.param(crisp("ab", {"a"}), FuzzySubset(AB, {(m, n): F(0) for m in AB for n in AB}),
                 errors.ArityMismatch, id="binary-right-side"),
    pytest.param(crisp("xy", {"x"}), None, errors.FormatError, id="equal-over-another-universe"),
    pytest.param(crisp("ab", {"a"}), crisp("xy", {"x", "y"}), errors.FormatError, id="right-over-another-universe"),
    pytest.param(crisp("ba", {"a"}), crisp("ab", {"a"}), errors.FormatError, id="universe-in-another-order"),
    pytest.param(crisp("abc", {"a"}), None, errors.FormatError, id="larger-universe"),
    pytest.param(FuzzySubset(AB, {(m, n): HALF for m in AB for n in AB}), None, errors.NotCrisp,
                 id="graded-binary"),
    pytest.param(crisp("xy", {"x"}), FuzzySubset(AB, {("a",): HALF, ("b",): F(0)}), errors.NotCrisp,
                 id="graded-right-side"),
]


@pytest.mark.parametrize("f, g, kind", DIRAC_BAD_INPUT)
def test_dirac_case_rejects_malformed_subsets(f, g, kind):
    with pytest.raises(kind):
        hsat_qeq_dirac(f, f if g is None else g, matrix_model({"a": F(1), "b": F(0)}))


@st.composite
def pq_models(draw, values):
    """A model over 1-4 elements, some weights 0, with unary P and Q drawn from `values`."""
    universe = tuple(f"m{i}" for i in range(draw(st.integers(1, 4))))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(universe), max_size=len(universe)).filter(any))
    rows = [draw(st.lists(st.sampled_from(values), min_size=len(universe), max_size=len(universe)))
            for _ in "PQ"]
    return WeakProbModel(universe, {m: F(w, sum(weights)) for m, w in zip(universe, weights)},
                         {name: {(m,): v for m, v in zip(universe, row)} for name, row in zip("PQ", rows)}, {}, {})


def outcome(run):
    """`run()`'s result, or the type and level pair of the `ContainmentViolated` it raises."""
    try:
        return run()
    except errors.ContainmentViolated as exc:
        return errors.ContainmentViolated, exc.pair


class TestAgainstTheOracle:
    """The Dirac case and the automatic levels against the oracle's `Fraction` statements of them."""

    @settings(max_examples=200, deadline=None)
    @given(pq_models([F(0), F(1)]))
    def test_dirac_case(self, model):
        f, g = (FuzzySubset.from_predicate(model, name) for name in "PQ")
        expected = outcome(lambda: oracle.hsat_qeq(qexpr("P"), qexpr("Q"), model))
        assert outcome(lambda: hsat_qeq_dirac(f, g, model)) == expected

    @settings(max_examples=200, deadline=None)
    @given(pq_models([F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)]))
    def test_default_level_config(self, model):
        f, g = (FuzzySubset.from_predicate(model, name) for name in "PQ")
        cfg = default_level_config(f, g)
        assert cfg == oracle.attained_levels(f, g)
        if not (f.is_crisp() and g.is_crisp()):
            expected = outcome(lambda: oracle.hsat_qeq(qexpr("P"), qexpr("Q"), model))
            assert outcome(lambda: hsat_qeq(qexpr("P"), qexpr("Q"), model, cfg)) == expected


def qexpr(pred, var="x", quant=Integral):
    return quant(var, Atom(pred, (Variable(var),)))


class TestHsatQeq:
    def test_reflexive(self):
        rng = random.Random(31)
        for _ in range(100):
            model = gen.random_model(rng, size=2)
            var = rng.choice(("x", "y"))
            quant = rng.choice((Forall, Exists, Integral))
            side = quant(var, gen.random_formula(rng, depth=2, scope=(var,)))
            assert hsat_qeq(side, side, model)

    def test_level_set_difference_with_null_mass(self):
        # f = {a: 3/4, b: 1/4}, g = {a: 3/4, b: 0}; at level 1/8 the difference is {b}
        model = WeakProbModel(
            ("a", "b"), {"a": F(1), "b": F(0)},
            {"P": {("a",): F(3, 4), ("b",): F(1, 4)}, "Q": {("a",): F(3, 4), ("b",): F(0)}},
            {}, {})
        cfg = LevelConfig((F(1, 8),), ((0, 0),))
        assert hsat_qeq(qexpr("P"), qexpr("Q"), model, cfg)

    def test_level_set_difference_with_positive_mass(self):
        model = WeakProbModel(
            ("a", "b"), {"a": HALF, "b": HALF},
            {"P": {("a",): F(3, 4), ("b",): F(1, 4)}, "Q": {("a",): F(3, 4), ("b",): F(0)}},
            {}, {})
        cfg = LevelConfig((F(1, 8),), ((0, 0),))
        assert not hsat_qeq(qexpr("P"), qexpr("Q"), model, cfg)

    def test_containment_violation_raises(self):
        model = WeakProbModel(
            ("a", "b"), {"a": HALF, "b": HALF},
            {"P": {("a",): F(3, 4), ("b",): F(0)}, "Q": {("a",): F(3, 4), ("b",): F(3, 4)}},
            {}, {})
        cfg = LevelConfig((HALF,), ((0, 0),))
        with pytest.raises(errors.ContainmentViolated):
            hsat_qeq(qexpr("P"), qexpr("Q"), model, cfg)

    @staticmethod
    def half_model():
        # P = {a: 1/2, b: 0} and Q = {a: 1/2, b: 1/2}: INT P = 1/4, INT Q = 1/2
        return WeakProbModel(
            ("a", "b"), {"a": HALF, "b": HALF},
            {"P": {("a",): HALF, ("b",): F(0)}, "Q": {("a",): HALF, ("b",): HALF}},
            {}, {})

    def test_level_sets_are_strict(self):
        model = self.half_model()
        # {P > 1/2} = {Q > 1/2} = {}; read as >=, {a, b} would not lie inside {a}
        assert hsat_qeq(qexpr("P"), qexpr("Q"), model, LevelConfig((HALF,), ((0, 0),)))
        with pytest.raises(errors.ContainmentViolated):
            hsat_qeq(qexpr("P"), qexpr("Q"), model, LevelConfig((F(1, 4),), ((0, 0),)))

    def test_auto_levels_skip_the_band_below_the_least_level(self):
        # 1/2 is the only attained interior value, so the band (0, 1/2], where
        # P and Q differ on b, is never compared: '=' holds with unequal integrals
        model = self.half_model()
        assert evaluate_closed(qexpr("P"), model) == F(1, 4)
        assert evaluate_closed(qexpr("Q"), model) == HALF
        assert hsat_qeq(qexpr("P"), qexpr("Q"), model)

    def test_crisp_default_agrees_with_dirac_and_half_level(self):
        rng = random.Random(77)
        universe = ("a", "b", "c")
        cfg = LevelConfig((HALF,), ((0, 0),))
        for _ in range(80):
            ones_f = {m for m in universe if rng.random() < 0.6}
            ones_g = {m for m in ones_f if rng.random() < 0.7}  # containment by construction
            weights = [F(w) for w in (1, 2, 3)]
            rng.shuffle(weights)
            total = sum(weights)
            model = WeakProbModel(
                universe,
                {m: w / total for m, w in zip(universe, weights)},
                {"P": {(m,): F(1) if m in ones_f else F(0) for m in universe},
                 "Q": {(m,): F(1) if m in ones_g else F(0) for m in universe}},
                {}, {})
            f = FuzzySubset.from_predicate(model, "P")
            g = FuzzySubset.from_predicate(model, "Q")
            dirac = hsat_qeq_dirac(f, g, model)
            via_default = hsat_qeq(qexpr("P"), qexpr("Q"), model)
            via_half = hsat_qeq(qexpr("P"), qexpr("Q"), model, cfg)
            assert dirac == via_default == via_half

    def test_mixed_quantifier_kinds_allowed(self):
        model = matrix_model({"a": F(1), "b": F(0)})
        left = qexpr("P", quant=Forall)
        right = qexpr("P", quant=Integral)
        assert hsat_qeq(left, right, model)

    def test_body_with_extra_free_variable_rejected(self):
        model = matrix_model({"a": F(1), "b": F(0)})
        side = Integral("x", Atom("Q", (Variable("z"),)))
        with pytest.raises(errors.NotASentence):
            hsat_qeq(side, side, model)

    def test_default_config_uses_interior_values(self):
        f = FuzzySubset(("a", "b"), {("a",): F(3, 4), ("b",): F(0)})
        g = FuzzySubset(("a", "b"), {("a",): F(1), ("b",): F(1, 4)})
        cfg = default_level_config(f, g)
        assert cfg.levels == (F(1, 4), F(3, 4))
        assert cfg.pairs == ((0, 0), (1, 1))

    def test_symmetric_under_mutual_containment(self):
        # both matrices cut to the same level set at 1/4, in either order
        model = WeakProbModel(
            ("a", "b"), {"a": HALF, "b": HALF},
            {"P": {("a",): F(3, 4), ("b",): F(0)}, "Q": {("a",): HALF, ("b",): F(0)}},
            {}, {})
        cfg = LevelConfig((F(1, 4),), ((0, 0),))
        assert hsat_qeq(qexpr("P"), qexpr("Q"), model, cfg)
        assert hsat_qeq(qexpr("Q"), qexpr("P"), model, cfg)


class TestLevelConfig:
    def test_levels_must_be_interior(self):
        with pytest.raises(errors.FormatError):
            LevelConfig((F(0),), ((0, 0),))

    def test_levels_must_ascend(self):
        with pytest.raises(errors.FormatError):
            LevelConfig((HALF, F(1, 4)), ((0, 0),))

    def test_pairs_in_range(self):
        with pytest.raises(errors.FormatError):
            LevelConfig((HALF,), ((0, 1),))


class TestApproximationSystems:
    def test_diagonal_system_valid_everywhere(self):
        rng = random.Random(3)
        sentences = tuple(gen.random_sentence(rng, depth=2) for _ in range(4))
        system = ApproximationSystem.diagonal(sentences)
        models = [gen.random_model(rng, size=2) for _ in range(5)]
        assert validate_approximation_system(system, models).ok

    def test_weakening_edge_is_monotone(self):
        system = ApproximationSystem((P_c, Or(P_c, Q_c)), frozenset({(0, 1)}))
        models = [pq_model(F(1), F(0)), pq_model(F(0), F(1)), pq_model(HALF, HALF)]
        assert validate_approximation_system(system, models).ok

    def test_strengthening_edge_reported(self):
        system = ApproximationSystem((Or(P_c, Q_c), P_c), frozenset({(0, 1)}))
        countermodel = pq_model(F(0), F(1))
        report = validate_approximation_system(system, [countermodel])
        assert any(v["kind"] == "not-monotone" for v in report.violations)

    def test_transitivity_reported(self):
        system = ApproximationSystem(
            (P_c, Or(P_c, Q_c), Or(Or(P_c, Q_c), Q_c)),
            frozenset({(0, 1), (1, 2)}),
        )
        report = validate_approximation_system(system, [])
        assert any(v["kind"] == "not-transitive" for v in report.violations)

    def test_index_bounds_checked(self):
        with pytest.raises(errors.FormatError):
            ApproximationSystem((P_c,), frozenset({(0, 3)}))


class TestHasat:
    def test_vacuous_without_edges(self):
        system = ApproximationSystem((P_c,), frozenset())
        assert hasat(P_c, pq_model(HALF), system)

    def test_diagonal_matches_hsat(self):
        rng = random.Random(13)
        for _ in range(40):
            model = gen.random_model(rng, size=2)
            sentence = gen.random_sentence(rng, depth=2)
            system = ApproximationSystem.diagonal((sentence,))
            assert hasat(sentence, model, system) == hsat(sentence, model)

    def test_hsat_implies_hasat_on_valid_system(self):
        rng = random.Random(17)
        for _ in range(60):
            base = [gen.random_sentence(rng, depth=2) for _ in range(2)]
            extras = [gen.random_sentence(rng, depth=1) for _ in range(3)]
            system = gen.weakening_system(rng, base, extras)
            model = gen.random_model(rng, size=2)
            for sentence in system.sentences:
                if hsat(sentence, model):
                    assert hasat(sentence, model, system)

    def test_sentence_not_in_system(self):
        system = ApproximationSystem((P_c,), frozenset())
        with pytest.raises(errors.SentenceNotInSystem):
            hasat(Q_c, pq_model(), system)


class TestWeakNegation:
    def test_crisp_model_passes_both_clauses(self):
        pool = [P_c, Not(P_c)]
        # the system must also hold the negations of the approximations
        system = ApproximationSystem.diagonal((P_c, Not(P_c), Not(Not(P_c))))
        model = pq_model(F(1), F(0))
        report = check_weak_negation(pool, system, [model])
        assert report.ok

    def test_intermediate_value_violates_totality(self):
        pool = [P_c, Not(P_c)]
        system = ApproximationSystem.diagonal(tuple(pool))
        model = pq_model(HALF, F(0))
        report = check_weak_negation(pool, system, [model])
        kinds = {v["kind"] for v in report.violations}
        assert "totality-violation" in kinds
        assert "exclusion-violation" not in kinds

    def test_missing_negation_reported(self):
        pool = [P_c]
        system = ApproximationSystem.diagonal((P_c,))
        model = pq_model(F(1), F(0))
        report = check_weak_negation(pool, system, [model])
        assert any(v["kind"] == "negation-missing-from-pool" for v in report.violations)


class TestSubstructure:
    def small_large(self):
        small = WeakProbModel(("a",), {"a": F(1)},
                              {"P": {("a",): F(1)}}, {}, {})
        large = WeakProbModel(("a", "b"), {"a": HALF, "b": HALF},
                              {"P": {("a",): F(1), ("b",): F(0)}}, {}, {})
        return small, large

    def test_model_is_substructure_of_itself(self):
        rng = random.Random(41)
        model = gen.random_model(rng, size=2)
        pool = [gen.random_sentence(rng, depth=2) for _ in range(4)]
        system = ApproximationSystem.diagonal(tuple(pool))
        assert check_elementary_substructure(model, model, pool, system)

    def test_empty_pool_vacuous(self):
        small, large = self.small_large()
        system = ApproximationSystem.diagonal(())
        assert check_elementary_substructure(small, large, [], system)

    def test_named_element_sentence_transfers(self):
        small, large = self.small_large()
        pool = [Atom("P", (Constant("a"),))]
        system = ApproximationSystem.diagonal(tuple(pool))
        assert check_elementary_substructure(small, large, pool, system)

    def test_universal_sentence_fails_in_extension(self):
        small, large = self.small_large()
        pool = [Forall("x", Atom("P", (Variable("x"),)))]
        system = ApproximationSystem.diagonal(tuple(pool))
        assert not check_elementary_substructure(small, large, pool, system)

    def test_universe_inclusion_checked(self):
        small, large = self.small_large()
        with pytest.raises(errors.NotASubuniverse):
            check_elementary_substructure(large, small, [], ApproximationSystem.diagonal(()))

    def test_theory_of_collects_hasat_sentences(self):
        small, _ = self.small_large()
        pool = [Atom("P", (Constant("a"),)), Not(Atom("P", (Constant("a"),)))]
        system = ApproximationSystem.diagonal(tuple(pool))
        expanded = il.expand_by_constants(small)
        assert theory_of(expanded, pool, system) == {pool[0]}
