import itertools
import random
from fractions import Fraction

import pytest

import intlogic as il
from intlogic import errors
from intlogic.integrals import check_semantic_integral_laws, pointwise, slice_first, slice_second
from intlogic.model import FuzzySubset, WeakProbModel, integer_form, model_from_json, model_to_json
from intlogic.rational import DEFAULT_GRID, implies, neg, strong_and, strong_or
from intlogic.syntax import Atom, Constant, Implies, Integral, Not, Or, Variable, Vocabulary
from intlogic.validate import (
    ModelGenSpec,
    check_abstract_logic_properties,
    exhaustive_models,
    find_countermodel,
    grid_fuzzy_subsets,
    grid_measures,
    integral_law_suite,
    mu3_equality_gap,
    random_fuzzy_subset,
    random_models,
    universe_names,
    validate_axiom,
)

F = Fraction
HALF = F(1, 2)
P_c = Atom("P", (Constant("c"),))


class TestModelGeneration:
    def test_grid_measures_normalized_and_distinct(self):
        measures = grid_measures(2, (F(0), F(1, 4), HALF, F(3, 4), F(1)))
        assert len(measures) == len({tuple(m.values()) for m in measures})
        for measure in measures:
            assert sum(measure.values()) == 1

    def test_grid_measures_known_count_size2(self):
        # normalized pairs from {0..4}/4 with gcd-reduced ratios: 13 of them
        measures = grid_measures(2, (F(0), F(1, 4), HALF, F(3, 4), F(1)))
        assert len(measures) == 13

    def test_exhaustive_counts(self):
        gen = ModelGenSpec(size=2, exhaustive=True)
        voc = Vocabulary(predicates=(("P", 1),))
        models = list(exhaustive_models(gen, voc))
        assert len(models) == 13 * 5 ** 2

    def test_exhaustive_cap(self):
        gen = ModelGenSpec(size=3, exhaustive=True)
        voc = Vocabulary(predicates=(("P", 2), ("Q", 2), ("R", 2)))
        with pytest.raises(errors.SearchSpaceTooLarge):
            list(exhaustive_models(gen, voc))

    def test_random_models_deterministic(self):
        gen = ModelGenSpec(size=2, seed=42, count=10)
        voc = Vocabulary(predicates=(("P", 1),), functions=(("f", 1),), constants=("c",))
        first = list(random_models(gen, voc))
        second = list(random_models(gen, voc))
        assert first == second

    def test_random_models_validity(self):
        gen = ModelGenSpec(size=3, seed=7, count=20)
        voc = Vocabulary(predicates=(("P", 1),), has_approx=True)
        for model in random_models(gen, voc):
            assert sum(model.measure.values()) == 1
            assert "approx" in model.predicates

    @pytest.mark.parametrize("kwargs", [
        dict(size=0),
        dict(measure_grid=(F(0),)),  # no positive value, so no measure to renormalize to
        dict(measure_grid=()),
        dict(value_grid=(F(0), HALF, F(3, 2))),
        dict(value_grid=(F(-1, 2), F(1)), exhaustive=True),
        # the draw (-1, -1) would renormalize to the uniform measure
        dict(size=2, measure_grid=(-1, 1), exhaustive=True),
    ])
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(errors.InvalidSpec):
            ModelGenSpec(**kwargs)

    def test_universe_names(self):
        assert universe_names(3) == ("a", "b", "c")
        assert universe_names(27)[-1] == "e27"


class TestValidateAxioms:
    def test_mu1_constant_body(self):
        gen = ModelGenSpec(size=2, exhaustive=True)
        report = validate_axiom("mu1", gen)
        assert report.ok

    def test_mu2_exhaustive_size2(self):
        report = validate_axiom("mu2", ModelGenSpec(size=2, exhaustive=True))
        assert report.ok and report.checked > 0

    def test_mu5_fubini_exhaustive_size2(self):
        report = validate_axiom("mu5", ModelGenSpec(size=2, exhaustive=True))
        assert report.ok

    def test_mu3_implication_direction(self):
        report = validate_axiom("mu3", ModelGenSpec(size=2, exhaustive=True))
        assert report.ok

    def test_mu3_equality_reading_fails_somewhere(self):
        witness = mu3_equality_gap(ModelGenSpec(size=2, exhaustive=True))
        assert witness is not None
        assert witness["lhs"] != witness["rhs"]
        # the witness replays: rebuild the model and re-evaluate both sides
        model = model_from_json(witness["model"])
        assert model is not None

    def test_random_mode_also_clean(self):
        report = validate_axiom("mu4", ModelGenSpec(size=3, seed=5, count=40))
        assert report.ok

    def test_violation_record_shape(self):
        # force a fake violation by validating mu3 as equality via the gap prober
        witness = mu3_equality_gap(ModelGenSpec(size=2, exhaustive=True))
        assert {"axiom", "model", "instantiation", "valuation", "lhs", "rhs"} <= set(witness)


class TestFindCountermodel:
    def test_excluded_middle_fails(self):
        formula = Or(P_c, Not(P_c))
        model = find_countermodel(formula, ModelGenSpec(size=1, exhaustive=True))
        assert model is not None
        assert il.evaluate_closed(formula, model) < 1

    def test_constant_one_has_no_countermodel(self):
        formula = il.TruthConst(F(1))
        assert find_countermodel(formula, ModelGenSpec(size=1, exhaustive=True)) is None

    def test_reflexive_implication_under_integral(self):
        P_x = Atom("P", (Variable("x"),))
        formula = Integral("x", Implies(P_x, P_x))
        assert find_countermodel(formula, ModelGenSpec(size=2, exhaustive=True)) is None

    def test_exhaustive_bounds(self):
        with pytest.raises(errors.SearchSpaceTooLarge):
            find_countermodel(P_c, ModelGenSpec(size=4, exhaustive=True))

    def test_random_mode(self):
        formula = Or(P_c, Not(P_c))
        model = find_countermodel(formula, ModelGenSpec(size=2, seed=3, count=50))
        assert model is not None

    def test_requires_sentence(self):
        with pytest.raises(errors.NotASentence):
            find_countermodel(Atom("P", (Variable("x"),)), ModelGenSpec(size=1))


class TestClosureProperties:
    def test_clean_on_random_pool(self):
        rng = random.Random(19)
        import gen as testgen

        pool = [testgen.random_sentence(rng, depth=3) for _ in range(5)]
        report = check_abstract_logic_properties(ModelGenSpec(size=2, seed=8, count=20), pool)
        assert report.ok
        assert report.checked == 20 * len(pool) * 4

    def test_programming_errors_are_not_outcomes(self, monkeypatch):
        def broken(formula, free_names=()):
            def value(elements=()):
                raise ZeroDivisionError
            return lambda model: value

        monkeypatch.setattr("intlogic.validate.compile_formula", broken)
        with pytest.raises(ZeroDivisionError):
            check_abstract_logic_properties(ModelGenSpec(size=2, seed=8, count=2), [P_c])

    def test_quantifier_equality_outcomes_transport(self):
        pool = [il.parse_formula("INT P(x) dx = INT P(y) dy",
                                 Vocabulary(predicates=(("P", 1),)))]
        report = check_abstract_logic_properties(ModelGenSpec(size=2, seed=8, count=10), pool)
        assert report.ok


class TestIntegralLawSuite:
    def test_exhaustive_on_two_elements(self):
        model = il.WeakProbModel(("a", "b"), {"a": HALF, "b": HALF},
                                 {"P": {("a",): F(1), ("b",): F(0)}}, {}, {})
        report = integral_law_suite(model, ModelGenSpec(size=2, exhaustive=True))
        assert report.ok
        assert report.checked == 5 + 3 * 625 + 625

    def test_random_sampling(self):
        model = il.WeakProbModel(("a", "b", "c"),
                                 {"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)}, {}, {}, {})
        report = integral_law_suite(model, ModelGenSpec(size=3, seed=4, count=50))
        assert report.ok

    def test_exhaustive_guard(self):
        names = universe_names(8)
        model = il.WeakProbModel(names, {n: F(1, 8) for n in names}, {}, {}, {})
        with pytest.raises(errors.SearchSpaceTooLarge):
            integral_law_suite(model, ModelGenSpec(size=8, exhaustive=True))


MIXED_GRID = (F(0), F(1, 3), HALF, F(5, 6), F(1))
FULL_VOC = Vocabulary(predicates=(("P", 1), ("R", 2)), functions=(("f", 1),), constants=("c",),
                      has_approx=True)


class TestTrustedGeneration:
    """Generated models skip the model checks; they must be what the checking constructor builds."""

    @staticmethod
    def assert_valid_with_its_form(model):
        rebuilt = WeakProbModel(model.universe, model.measure, model.predicates, model.functions,
                                model.constants)
        assert model == rebuilt
        assert model_to_json(model) == model_to_json(rebuilt)
        # the shared integer form must belong to this model's own tables and measure
        form = integer_form(model)
        assert set(form.tables) == set(model.predicates)
        for name, table in model.predicates.items():
            assert {key: F(v, form.den) for key, v in form.tables[name].items()} == table
        assert [(m, F(w, form.m_den)) for m, w in form.weights] == \
            [(m, model.measure[m]) for m in model.universe]

    @pytest.mark.parametrize("size, voc, eq, stride", [
        (1, FULL_VOC, True, 1),
        (2, Vocabulary(predicates=(("P", 1),), functions=(("f", 1),), constants=("c",)), True, 7),
        (2, Vocabulary(predicates=(("R", 2),)), False, 97),
    ])
    def test_exhaustive_models(self, size, voc, eq, stride):
        spec = ModelGenSpec(size=size, value_grid=MIXED_GRID, measure_grid=MIXED_GRID, exhaustive=True)
        models = list(itertools.islice(exhaustive_models(spec, voc, eq), 0, None, stride))
        assert len(models) > 20
        for model in models:
            self.assert_valid_with_its_form(model)
            assert ("eq" in model.predicates) == eq

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("eq", [False, True])
    def test_random_models(self, size, eq):
        spec = ModelGenSpec(size=size, value_grid=MIXED_GRID, measure_grid=MIXED_GRID, seed=5, count=40)
        for model in random_models(spec, FULL_VOC, eq):
            self.assert_valid_with_its_form(model)

    def test_sweeps_never_run_the_model_checks(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a generated model went through the model checks")

        monkeypatch.setattr(WeakProbModel, "__post_init__", refuse)
        assert validate_axiom("mu2", ModelGenSpec(size=2, exhaustive=True)).ok
        formula = il.close_free_names(il.parse_formula("INT P(x) dx -> P(k)"))
        assert find_countermodel(formula, ModelGenSpec(size=2, exhaustive=True)) is not None
        assert find_countermodel(formula, ModelGenSpec(size=2, seed=1, count=50)) is not None


def test_grid_fuzzy_subset_count():
    subsets = list(grid_fuzzy_subsets(("a", "b"), (F(0), HALF, F(1))))
    assert len(subsets) == 9
    assert len(list(grid_fuzzy_subsets(("a",), (F(0), F(1)), arity=2))) == 2


def _table(arity, **values):
    return {"arity": arity, "table": {key.replace("_", ","): value for key, value in values.items()}}


class TestGolden:
    """Enumeration order and random draws, pinned so that a rewrite of model generation keeps them."""

    def test_first_exhaustive_countermodel(self):
        formula = il.close_free_names(il.parse_formula("INT P(x) dx -> P(k)"))
        model = find_countermodel(formula, ModelGenSpec(size=2, exhaustive=True))
        assert model_to_json(model) == {
            "universe": ["a", "b"],
            "measure": {"a": "0", "b": "1"},
            "predicates": {"P": _table(1, a="0", b="1/4")},
            "functions": {},
            "constants": {"k": "a"},
        }

    def test_mu3_equality_gap_witness(self):
        assert mu3_equality_gap(ModelGenSpec(size=2, exhaustive=True)) == {
            "axiom": "mu3",
            "model": {
                "universe": ["a", "b"],
                "measure": {"a": "1/2", "b": "1/2"},
                "predicates": {"P": _table(1, a="0", b="1/4"), "Q": _table(1, a="1/4", b="0")},
                "functions": {},
                "constants": {},
            },
            "instantiation": "INT P(x) -> Q(x) dx  vs  INT P(x) dx -> INT Q(x) dx",
            "valuation": {},
            "lhs": "7/8",
            "rhs": "1",
        }

    def test_first_random_models(self):
        voc = Vocabulary(predicates=(("P", 1),), functions=(("f", 1),), constants=("c",), has_approx=True)
        models = [model_to_json(m) for m in random_models(ModelGenSpec(size=2, seed=7, count=3), voc)]
        expected = [
            ("2/3", "1/3", dict(a="3/4", b="0"), dict(a_a="0", a_b="1", b_a="0", b_b="1/2"), "a", "a"),
            ("0", "1", dict(a="3/4", b="0"), dict(a_a="1/4", a_b="0", b_a="1", b_b="3/4"), "a", "a"),
            ("1", "0", dict(a="1", b="1"), dict(a_a="3/4", a_b="0", b_a="1/4", b_b="0"), "b", "b"),
        ]
        assert models == [
            {
                "universe": ["a", "b"],
                "measure": {"a": mu_a, "b": mu_b},
                "predicates": {"P": _table(1, **p), "approx": _table(2, **approx)},
                "functions": {"f": _table(1, a="a", b=f_b)},
                "constants": {"c": c},
            }
            for mu_a, mu_b, p, approx, f_b, c in expected
        ]


class TestReplay:
    """Every record replays: its model reloads from JSON and re-evaluates to the recorded values."""

    def test_mu3_equality_gap_witness(self):
        witness = mu3_equality_gap(ModelGenSpec(size=2, exhaustive=True))
        model = model_from_json(witness["model"])
        sides = [il.parse_formula(text, model.vocabulary())
                 for text in witness["instantiation"].split("  vs  ")]
        replayed = [str(il.evaluate(side, model, witness["valuation"])) for side in sides]
        assert replayed == [witness["lhs"], witness["rhs"]]

    def test_countermodel(self):
        formula = il.parse_formula("INT P(x) dx -> EX x. P(x) & Q(x)")
        model = find_countermodel(formula, ModelGenSpec(size=2, exhaustive=True))
        reloaded = model_from_json(model_to_json(model))
        assert il.evaluate_closed(formula, reloaded) == il.evaluate_closed(formula, model) < 1

    def test_integral_law_violations(self):
        def squared_sup(f, model):  # deliberately not an integral
            return max(f.values.values()) ** 2

        model = next(il.generate_models(ModelGenSpec(size=2, seed=5, count=1), Vocabulary()))
        rng = random.Random(5)
        universe = model.universe
        pairs = [(random_fuzzy_subset(universe, DEFAULT_GRID, rng),
                  random_fuzzy_subset(universe, DEFAULT_GRID, rng)) for _ in range(20)]
        bivariate = [random_fuzzy_subset(universe, DEFAULT_GRID, rng, arity=2) for _ in range(20)]
        report = check_semantic_integral_laws(model, pairs, bivariate, integral=squared_sup)
        assert {v["law"] for v in report.violations} == {
            "constant", "complement", "implication", "additivity", "iteration"}

        reloaded = model_from_json(model_to_json(model))
        for record in report.violations:
            lhs, rhs = _replay_law(record["law"], record["sample"], reloaded, squared_sup)
            assert (str(lhs), str(rhs)) == (record["lhs"], record["rhs"])


def _replay_law(law, sample, model, integral):
    """Both sides of one law, recomputed from a violation record's sample."""
    if law == "constant":
        r = Fraction(sample["r"])
        return integral(FuzzySubset.constant(model.universe, r), model), r
    f, g, h = (FuzzySubset(model.universe, {tuple(k.split(",")): Fraction(v)
                                            for k, v in sample[name].items()})
               if name in sample else None for name in ("f", "g", "h"))
    if law == "complement":
        return integral(pointwise(neg, f), model), 1 - integral(f, model)
    if law == "implication":
        return integral(pointwise(implies, f, g), model), implies(integral(f, model), integral(g, model))
    if law == "additivity":
        return (integral(pointwise(strong_or, f, g), model),
                integral(f, model) + integral(g, model) - integral(pointwise(strong_and, f, g), model))
    return integral(slice_first(h, model), model), integral(slice_second(h, model), model)
