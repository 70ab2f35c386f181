import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import intlogic as il
from intlogic import errors, integrals, validate
from intlogic.evaluate import _Compiler, compile_formula, compile_integers
from intlogic.integrals import check_prepared_laws, check_semantic_integral_laws, slice_first, slice_second
from intlogic.model import (
    FuzzySubset,
    WeakProbModel,
    model_from_json,
    model_to_json,
    relabel_universe,
)
from intlogic.proofs import AXIOM_IDS, axiom_sides
from intlogic.rational import DEFAULT_GRID
from intlogic.syntax import (
    And,
    Atom,
    Constant,
    Exists,
    Forall,
    FuncApp,
    Implies,
    Integral,
    Not,
    Or,
    QuantEq,
    StrongAnd,
    TruthConst,
    Variable,
    Vocabulary,
    free_vars,
    infer_vocabulary,
    mentions_eq,
)
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

import oracle
from oracle import implies, neg, pointwise, strong_and, strong_or

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

    @settings(max_examples=80, deadline=None)
    @given(size=st.integers(min_value=1, max_value=3),
           grid=st.lists(st.sampled_from((*DEFAULT_GRID, F(1, 3), F(2, 7))), min_size=1, max_size=7).filter(any))
    def test_grid_measures_as_the_oracle(self, size, grid):
        # measures normalised on integers, in the oracle's order of first draws, with the same keys in order
        measures = grid_measures(size, grid)
        assert [list(m.items()) for m in measures] == [list(m.items()) for m in oracle.grid_measures(size, grid)]
        assert all(type(w) is Fraction for m in measures for w in m.values())

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
        dict(grid=(F(0),)),  # no positive value, so no measure to renormalize to
        dict(grid=()),
        dict(grid=(F(0), HALF, F(3, 2))),
        dict(grid=(F(-1, 2), F(1)), exhaustive=True),
        # the draw (-1, -1) would renormalize to the uniform measure
        dict(size=2, grid=(-1, 1), exhaustive=True),
        # no model to draw: an empty run would report success
        dict(count=0),
        dict(count=-3),
    ])
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(errors.InvalidSpec):
            ModelGenSpec(**kwargs)

    def test_repeated_grid_values_keep_first_occurrence(self):
        # mu1's constant instantiations follow the grid's own order
        assert ModelGenSpec(grid=(1, HALF, 0, HALF, 1)).grid == (F(1), HALF, F(0))

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


def _orbit_least(models):
    """The models that no relabelling of the universe maps to an earlier one, found by brute force."""
    position = {oracle.model_key(model): i for i, model in enumerate(models)}
    names = models[0].universe
    relabellings = [dict(zip(names, image)) for image in itertools.permutations(names)]
    return [model for i, model in enumerate(models)
            if all(position[oracle.model_key(relabel_universe(model, r))] >= i for r in relabellings)]


def _space(size, grid, voc):
    """The number of models `exhaustive_models` enumerates for this size, grid and vocabulary."""
    space = len(grid_measures(size, grid)) * size ** len(voc.constants)
    for _, arity in validate._pred_symbols(voc):
        space *= len(grid) ** size ** arity
    for _, arity in voc.functions:
        space *= size ** size ** arity
    return space


def _pruning_sentence(rng, depth, scope=()):
    """A formula over P, f, c, eq and approx; with no scope, a closed one, now and then an `=`."""
    def term(d):
        kind = rng.choice(("var", "const", "func") if d else ("var", "const"))
        if kind == "var" and scope:
            return Variable(rng.choice(scope))
        if kind == "func":
            return FuncApp("f", (term(d - 1),))
        return Constant("c")

    def quantified(cls):
        var = rng.choice(("x", "y"))
        return cls(var, _pruning_sentence(rng, depth - 1, (*scope, var)))

    kinds = ("P", "eq", "approx", "rat")
    if depth > 0:
        kinds += ("not", "and", "sand", "implies", "all", "ex", "int") + (("qeq",) if not scope else ())
    kind = rng.choice(kinds)
    if kind == "P":
        return Atom("P", (term(1),))
    if kind in ("eq", "approx"):
        return Atom(kind, (term(1), term(1)))
    if kind == "rat":
        return TruthConst(rng.choice((F(0), HALF, F(1))))
    if kind == "not":
        return Not(_pruning_sentence(rng, depth - 1, scope))
    if kind in ("and", "sand", "implies"):
        cls = {"and": And, "sand": StrongAnd, "implies": Implies}[kind]
        return cls(_pruning_sentence(rng, depth - 1, scope), _pruning_sentence(rng, depth - 1, scope))
    if kind == "qeq":
        return QuantEq(quantified(rng.choice((Forall, Exists, Integral))),
                       quantified(rng.choice((Forall, Exists, Integral))))
    return quantified({"all": Forall, "ex": Exists, "int": Integral}[kind])


class TestOrbitLeastEnumeration:
    """Countermodel search enumerates one model per orbit under relabelling and finds the same first model."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), depth=st.integers(min_value=1, max_value=3))
    def test_same_first_countermodel_as_the_full_enumeration(self, seed, depth):
        rng = random.Random(seed)
        sentence = _pruning_sentence(rng, depth)
        voc, eq = infer_vocabulary(sentence), mentions_eq(sentence)
        configs = [(size, grid) for size in (3, 2) for grid in ((F(0), F(1)), (F(0), HALF, F(1)))]
        rng.shuffle(configs)
        size, grid = next(((size, grid) for size, grid in configs if _space(size, grid, voc) <= 1500),
                          (2, (F(0), F(1))))
        spec = ModelGenSpec(size=size, grid=grid, exhaustive=True)
        models = list(exhaustive_models(spec, voc, eq))
        pruned = list(exhaustive_models(spec, voc, eq, orbit_least=True))
        assert [oracle.model_key(m) for m in pruned] == [oracle.model_key(m) for m in _orbit_least(models)]

        value_in = compile_formula(sentence)
        first = None
        for model in models:
            try:
                if value_in(model)() < 1:
                    first = model
                    break
            except errors.ContainmentViolated:
                continue
        found = find_countermodel(sentence, spec)
        assert (found and model_to_json(found)) == (first and model_to_json(first)), il.print_formula(sentence)

    def test_orbit_least_count_of_the_size_3_row(self):
        # an exact count, so it holds on a machine of any speed
        formula = il.parse_formula("INT (P(x) -> Q(x)) dx -> (INT P(x) dx -> INT Q(x) dx)")
        voc = infer_vocabulary(formula)
        size2 = ModelGenSpec(size=2, exhaustive=True)
        pruned = sum(1 for _ in exhaustive_models(size2, voc, orbit_least=True))
        assert pruned == len(_orbit_least(list(exhaustive_models(size2, voc)))) == 4075
        size3 = ModelGenSpec(size=3, exhaustive=True)
        assert sum(1 for _ in exhaustive_models(size3, voc, orbit_least=True)) == 241_050  # of 1 421 875


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

    def test_isomorphic_images_move_positions(self, monkeypatch):
        # an `INT` that pairs positions with the sorted weights depends on positions, so an image that
        # keeps every position sees no change, and the reversed image does
        def sorted_stage(compiler, view, den, m_den, weight_row):
            stage(compiler, view, den, m_den, tuple(sorted(weight_row)))

        stage = _Compiler.stage
        monkeypatch.setattr(_Compiler, "stage", sorted_stage)
        pool = [il.parse_formula("INT P(x) dx", Vocabulary(predicates=(("P", 1),)))]
        report = check_abstract_logic_properties(ModelGenSpec(size=2, seed=3, count=20), pool)
        assert report.checked == 20 * 4
        assert [record["kind"] for record in report.violations] == ["isomorphism-variance"] * 14

    # (model, sentence, base, image) of each variance when one image flips its first table entry, P(a)
    FLIPPED_P_A = {
        "relabelled": ("isomorphism", [(0, 0, "2, 5", "4, 5"), (2, 0, "1, 1", "1, 4")]),
        "rename": ("renaming", [(0, 0, "2, 5", "1, 5"), (0, 1, "1, 1", "1, 4"), (1, 0, "1, 1", "0, 1"),
                                (1, 1, "3, 4", "0, 1"), (2, 0, "1, 1", "3, 4")]),
        "reduct": ("reduct", [(0, 0, "2, 5", "1, 5"), (0, 1, "1, 1", "1, 4"), (1, 0, "1, 1", "0, 1"),
                              (1, 1, "3, 4", "0, 1"), (2, 0, "1, 1", "3, 4")]),
    }

    @pytest.mark.parametrize("image", sorted(FLIPPED_P_A))
    def test_variance_records(self, monkeypatch, image):
        def flipped(*args):
            model = original(*args)
            if image == "relabelled":  # a form: flip the value of P at position 0, the element a
                row = model.tables["P"]
                return model._replace(tables={**model.tables, "P": (model.den - row[0], *row[1:])})
            name = min(model.predicates)
            table = model.predicates[name]
            key = min(table)
            predicates = {**model.predicates, name: {**table, key: 1 - table[key]}}
            return il.WeakProbModel(model.universe, model.measure, predicates, model.functions, model.constants)

        original = getattr(validate, image)
        monkeypatch.setattr(validate, image, flipped)
        voc = Vocabulary(predicates=(("P", 1), ("Q", 1)), constants=("c",))
        pool = [il.parse_formula("INT P(x) dx", voc), il.parse_formula("Q(c) & EX x. P(x)", voc)]
        report = check_abstract_logic_properties(ModelGenSpec(size=2, seed=3, count=3), pool)
        kind, records = self.FLIPPED_P_A[image]
        expected = [{"kind": f"{kind}-variance", "model": model, "sentence": il.print_formula(pool[sentence]),
                     "base": f"('value', Fraction({base}))", "image": f"('value', Fraction({value}))"}
                    for model, sentence, base, value in records]
        assert report.checked == 3 * 2 * 4
        assert json.dumps(report.violations) == json.dumps(expected)


def _squared_sup_core(den, row, form):  # deliberately not an integral: it breaks all five laws
    return max(row) ** 2, den ** 2


def _law_suite_outputs(model, spec):
    report = integral_law_suite(model, spec)
    return report.checked, json.dumps(report.violations)


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

    @pytest.mark.parametrize("core", [integrals._expectation, _squared_sup_core])
    def test_random_suite_converts_the_grid_once(self, monkeypatch, core):
        monkeypatch.setattr(validate, "check_prepared_laws",
                            functools.partial(check_prepared_laws, integral=core))
        model = il.WeakProbModel(("a", "b", "c"), {"a": F(1, 6), "b": HALF, "c": F(1, 3)}, {}, {}, {})
        spec = ModelGenSpec(size=3, seed=7, count=20)
        rng = random.Random(spec.seed)
        pairs = [(random_fuzzy_subset(model.universe, spec.grid, rng),
                  random_fuzzy_subset(model.universe, spec.grid, rng)) for _ in range(spec.count)]
        bivariate = [random_fuzzy_subset(model.universe, spec.grid, rng, arity=2) for _ in range(spec.count)]
        expected = check_semantic_integral_laws(model, pairs, bivariate, constants=spec.grid, integral=core)
        calls, subset_grid = [], validate._subset_grid
        monkeypatch.setattr(validate, "_subset_grid", lambda *args: calls.append(args) or subset_grid(*args))
        monkeypatch.setattr(validate, "_LAW_SAMPLES", {})
        assert _law_suite_outputs(model, spec) == (expected.checked, json.dumps(expected.violations))
        assert len(calls) == 1 and (expected.violations == []) == (core is integrals._expectation)
        assert _law_suite_outputs(model, spec) == (expected.checked, json.dumps(expected.violations))
        assert len(calls) == 1  # the second suite takes the kept samples

    def test_exhaustive_guard(self):
        names = universe_names(8)
        model = il.WeakProbModel(names, {n: F(1, 8) for n in names}, {}, {}, {})
        with pytest.raises(errors.SearchSpaceTooLarge):
            integral_law_suite(model, ModelGenSpec(size=8, exhaustive=True))

    def test_exhaustive_guard_counts_bivariate_subsets(self, monkeypatch):
        # 125^2 unary pairs at |M| = 3 pass the cap; 5^9 bivariate subsets do
        # not, and the guard fires before any subset is built
        def unbuilt(*args):
            raise AssertionError("a grid subset was built")
        monkeypatch.setattr(validate, "grid_fuzzy_subsets", unbuilt)
        names = universe_names(3)
        model = il.WeakProbModel(names, {n: F(1, 3) for n in names}, {}, {}, {})
        with pytest.raises(errors.SearchSpaceTooLarge):
            integral_law_suite(model, ModelGenSpec(size=3, exhaustive=True))


MIXED_GRID = (F(0), F(1, 3), HALF, F(5, 6), F(1))
FULL_VOC = Vocabulary(predicates=(("P", 1), ("R", 2)), functions=(("f", 1),), constants=("c",),
                      has_approx=True)


def assert_form_of_its_own_tables(model):
    """The model's integer form holds its own tables and measure, by position: each predicate's rows are
    the table times D and each function's rows the positions of its values, in product order with one
    tuple level per argument, and each weight is the measure times M."""
    form, universe = model.form, model.universe
    assert form.constants == {name: universe.index(e) for name, e in model.constants.items()}
    for rows, tables, value_of in ((form.tables, model.predicates, lambda n: F(n, form.den)),
                                   (form.functions, model.functions, universe.__getitem__)):
        assert set(rows) == set(tables)
        for name, table in tables.items():
            for key in itertools.product(range(len(universe)), repeat=len(next(iter(table)))):
                value = rows[name]
                for i in key:
                    assert type(value) is tuple and len(value) == len(universe)
                    value = value[i]
                assert value_of(value) == table[tuple(universe[i] for i in key)]
    assert type(form.weight_row) is tuple
    assert [F(w, form.m_den) for w in form.weight_row] == [model.measure[m] for m in universe]


def _digest(models) -> str:
    """The sha256 of the models' JSON, in order: it changes with any table, measure or order of generation."""
    return hashlib.sha256(json.dumps([model_to_json(model) for model in models]).encode()).hexdigest()


#: `_digest` of the strided models of each `test_exhaustive_models` case, by size, eq and stride
EXHAUSTIVE_DIGESTS = {
    (1, True, 1): "f99c26b8acfb040a8452ff451cc4e0aeaa3f9708bf0470a01ae2252f8af8a90c",
    (2, True, 7): "b1bc561ceb1cbe3bc6888ab93fcaa2b6074f2adca46d2080f3d2548f63caef6b",
    (2, False, 97): "51c0412b5c28aa78c31595b633a33b01880689f793b0379f0f77bcc574a0c79b",
    (1, False, 1): "a8ca963ac13b66616251f8a09c450d4c3b1c738cf5e651f2813e26cb78a158c4",
}
#: `_digest` of 40 models of `FULL_VOC` on `MIXED_GRID` for each of the seeds 0-9, by size and eq
RANDOM_DIGESTS = {
    (1, False): "57fc8c522fffcf6a2497a2348b473ef0513a00ca3f7a33383c6469b0c815cd9e",
    (1, True): "3bba1daf688ea4afa9db7200c2e6f0f7e68a48547f92049ee028551854089556",
    (2, False): "e54f795ff77f117bdf8f4c22c3391dd222bfe30e0b2e0d30e614c21a7ec9e58c",
    (2, True): "b9495aacf94c6e9aa89124010d06bc87c32984fafb2aec0f4118aca4e10e437d",
    (3, False): "d25ef9049c23b0fe2b86d3631c4975bca2219f5eef0abcd16a867a5228e0f300",
    (3, True): "38786a2a2f8f23e8e3c9656c620d2fa2163b0d0c6c6d51806e600d46d472da84",
}


class TestTrustedGeneration:
    """Generated models skip the model checks; they must be what the checking constructor builds, in a pinned
    order from pinned draws."""

    @staticmethod
    def assert_valid_with_its_form(model):
        rebuilt = WeakProbModel(model.universe, model.measure, model.predicates, model.functions,
                                model.constants)
        assert model == rebuilt
        assert model_to_json(model) == model_to_json(rebuilt)
        # the shared integer form must belong to this model's own tables and measure, and agree with
        # the one the checking constructor's model makes (over its own D)
        assert_form_of_its_own_tables(model)
        form, own = model.form, rebuilt.form
        assert (form.m_den, form.weight_row, form.constants) == (own.m_den, own.weight_row, own.constants)
        assert form.den % own.den == 0
        for name in model.predicates:
            assert FuzzySubset.from_predicate(model, name) == FuzzySubset.from_predicate(rebuilt, name)
        for name in model.functions:
            assert form.functions[name] == own.functions[name]

    @pytest.mark.parametrize("size, voc, eq, stride", [
        (1, FULL_VOC, True, 1),
        (2, Vocabulary(predicates=(("P", 1),), functions=(("f", 1),), constants=("c",)), True, 7),
        (2, Vocabulary(predicates=(("R", 2),)), False, 97),
        (1, FULL_VOC, False, 1),
    ])
    def test_exhaustive_models(self, size, voc, eq, stride):
        spec = ModelGenSpec(size=size, grid=MIXED_GRID, exhaustive=True)
        models = list(itertools.islice(exhaustive_models(spec, voc, eq), 0, None, stride))
        assert len(models) > 20
        for model in models:
            self.assert_valid_with_its_form(model)
            assert ("eq" in model.predicates) == eq
        assert _digest(models) == EXHAUSTIVE_DIGESTS[size, eq, stride]

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("eq", [False, True])
    def test_random_models(self, size, eq):
        spec = ModelGenSpec(size=size, grid=MIXED_GRID, seed=5, count=40)
        for model in random_models(spec, FULL_VOC, eq):
            self.assert_valid_with_its_form(model)
        specs = [ModelGenSpec(size=size, grid=MIXED_GRID, seed=seed, count=40) for seed in range(10)]
        drawn = [model for spec in specs for model in random_models(spec, FULL_VOC, eq)]
        assert _digest(drawn) == RANDOM_DIGESTS[size, eq]

    def test_sweeps_never_run_the_model_checks(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a generated model went through the model checks")

        monkeypatch.setattr(WeakProbModel, "__post_init__", refuse)
        assert validate_axiom("mu2", ModelGenSpec(size=2, exhaustive=True)).ok
        formula = il.close_free_names(il.parse_formula("INT P(x) dx -> P(k)"))
        assert find_countermodel(formula, ModelGenSpec(size=2, exhaustive=True)) is not None
        assert find_countermodel(formula, ModelGenSpec(size=2, seed=1, count=50)) is not None


SIZE2 = ModelGenSpec(size=2, exhaustive=True)
#: `checked` of each schema on every size-2 model of the default grid: instantiations x models x valuations
AXIOM_CHECKS = {"mu1": 715, "mu2": 16900, "mu3": 16575, "mu4": 16575, "mu5": 16250}
#: `mu3_equality_gap(SIZE2)` as JSON, as computed before sweeps ran on factor indices
MU3_GAP_JSON = (
    '{"axiom": "mu3", "model": {"universe": ["a", "b"], "measure": {"a": "1/2", "b": "1/2"}, '
    '"predicates": {"P": {"arity": 1, "table": {"a": "0", "b": "1/4"}}, '
    '"Q": {"arity": 1, "table": {"a": "1/4", "b": "0"}}}, "functions": {}, "constants": {}}, '
    '"instantiation": "INT P(x) -> Q(x) dx  vs  INT P(x) dx -> INT Q(x) dx", "valuation": {}, '
    '"lhs": "7/8", "rhs": "1"}')


def _sweep_formula(rng, depth, scope=()):
    """A formula over P, Q, R, f, c, eq, approx and `=`, with truth constants off the grids' lcms.

    Its free variables are among `scope`; now and then it reads a variable
    nothing binds, so that evaluation raises.
    """
    def term(d):
        kind = rng.choice(("var", "var", "const", "func") if d else ("var", "const"))
        if kind == "var" and (scope or rng.random() < 0.1):
            return Variable(rng.choice(scope) if scope and rng.random() < 0.97 else "z")
        if kind == "func":
            return FuncApp("f", (term(d - 1),))
        return Constant("c")

    def quantified(cls, inner_scope):
        var = rng.choice(("x", "y"))
        return cls(var, _sweep_formula(rng, depth - 1, (*inner_scope, var)))

    kinds = ("P", "Q", "R", "eq", "approx", "rat")
    if depth > 0:
        kinds += ("not", "and", "or", "sand", "implies", "all", "ex", "int", "int", "qeq", "qeq")
    kind = rng.choice(kinds)
    if kind in ("P", "Q"):
        return Atom(kind, (term(1),))
    if kind in ("R", "eq", "approx"):
        return Atom(kind, (term(1), term(1)))
    if kind == "rat":
        return TruthConst(rng.choice((F(0), F(1, 3), HALF, F(2, 7), F(1))))
    if kind == "not":
        return Not(_sweep_formula(rng, depth - 1, scope))
    if kind in ("and", "or", "sand", "implies"):
        cls = {"and": And, "or": Or, "sand": StrongAnd, "implies": Implies}[kind]
        return cls(_sweep_formula(rng, depth - 1, scope), _sweep_formula(rng, depth - 1, scope))
    if kind == "qeq":
        # both sides closed but now and then, so that `=` raises NotASentence
        sides = [quantified(rng.choice((Forall, Exists, Integral)), () if rng.random() < 0.9 else ("z",))
                 for _ in range(2)]
        return QuantEq(*sides)
    return quantified({"all": Forall, "ex": Exists, "int": Integral}[kind], scope)


def _outcomes(bound, valuations):
    """The value, as `(numerator, S)`, or the error class of a bound formula at each valuation."""
    numerator, scale = bound
    out = []
    for elements in valuations:
        try:
            out.append((numerator(elements), scale))
        except errors.IntlogicError as exc:
            out.append(type(exc).__name__)
    return out


def _small_spec(rng, voc, limit):
    configs = [(size, grid) for size in (1, 2, 3) for grid in ((F(0), F(1)), (F(0), HALF, F(1)),
                                                                 (F(0), F(1, 3), F(1)))]
    rng.shuffle(configs)
    size, grid = next(((size, grid) for size, grid in configs if _space(size, grid, voc) <= limit),
                      (1, (F(0), F(1))))
    return ModelGenSpec(size=size, grid=grid, exhaustive=True)


class TestSweepDifferential:
    """Sweeps on factor indices against the reference: `exhaustive_models` plus `compile_integers` per model."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), orbit_least=st.booleans())
    def test_per_model_outcomes(self, seed, orbit_least):
        rng = random.Random(seed)
        names = rng.choice(((), ("x",), ("x", "y")))
        formulas = [_sweep_formula(rng, rng.randint(0, 3), names) for _ in range(rng.choice((1, 2, 3)))]
        voc = infer_vocabulary(formulas)
        if voc.predicates and rng.random() < 0.2:  # a symbol the models lack
            voc = Vocabulary(voc.predicates[1:], voc.functions, voc.constants, voc.has_approx)
        eq = mentions_eq(formulas) and rng.random() < 0.8
        spec = _small_spec(rng, voc, 1500)
        valuations = list(itertools.product(universe_names(spec.size), repeat=len(names)))

        binds = [compile_integers(formula, names) for formula in formulas]
        expected = [(model_to_json(model), [_outcomes(bind(model), valuations) for bind in binds])
                    for model in exhaustive_models(spec, voc, eq, orbit_least=orbit_least)]
        swept = [(model_to_json(model_at()), [_outcomes(b, valuations) for b in bound])
                 for model_at, bound in validate._bound_models(formulas, names, spec, voc, eq,
                                                               orbit_least=orbit_least)]
        assert swept == expected, [il.print_formula(f) for f in formulas]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_first_countermodel(self, seed):
        rng = random.Random(seed)
        sentence = il.close_free_names(_sweep_formula(rng, rng.randint(1, 3)))
        voc = infer_vocabulary(sentence)
        spec = _small_spec(rng, voc, 1500)
        bind = compile_integers(sentence)
        expected = None
        try:
            for model in exhaustive_models(spec, voc, mentions_eq(sentence), orbit_least=True):
                numerator, scale = bind(model)
                try:
                    if numerator() < scale:
                        expected = model_to_json(model)
                        break
                except errors.ContainmentViolated:
                    continue
        except errors.IntlogicError as exc:
            expected = type(exc).__name__
        try:
            found = find_countermodel(sentence, spec)
            found = found and model_to_json(found)
        except errors.IntlogicError as exc:
            found = type(exc).__name__
        assert found == expected, il.print_formula(sentence)

    @pytest.mark.parametrize("size, grid, voc, eq", [
        (1, DEFAULT_GRID, Vocabulary((("P", 1), ("R", 2)), (("f", 1),), ("c", "d"), has_approx=True), True),
        (2, (F(0), HALF, F(1)), Vocabulary((("R", 2),), constants=("c", "d")), True),
        (2, (F(0), F(1)), Vocabulary((("R", 2),), (("f", 1),), ("c", "d"), has_approx=True), False),
        # on these grids some size-3 measures are fixed by a transposition, so ties can last to the final position
        (3, (F(0), F(1)), Vocabulary((("P", 1),), (("f", 1),), ("c",)), True),
        (3, (F(0), F(1)), Vocabulary((("R", 2),), constants=("c",)), False),
        (3, (F(0), HALF, F(1)), Vocabulary((("P", 1),), constants=("c", "d")), True),
    ])
    def test_pruned_steps_as_the_brute_force_reference(self, size, grid, voc, eq):
        spec = ModelGenSpec(size=size, grid=grid, exhaustive=True)
        full = validate._Odometer(spec, voc, eq, False)
        models = [(tuple(indices), full.model(indices)) for indices, _ in full.sweep()]
        expected = oracle.orbit_least_steps(models)
        pruned = [(tuple(indices), changed) for indices, changed in validate._Odometer(spec, voc, eq, True).sweep()]
        assert pruned == expected
        assert len(expected) < len(models) or size == 1
        if size == 3:  # some orbit-least model is fixed by a relabelling, so its check ran to the last position
            by_indices, names = dict(models), universe_names(size)
            assert any(oracle.model_key(relabel_universe(by_indices[indices], dict(zip(names, image))))
                       == oracle.model_key(by_indices[indices])
                       for indices, _ in expected for image in itertools.islice(itertools.permutations(names), 1, None))

    def test_each_view_raises_its_own_den(self):
        # 1/3 and 2/7 are off the default grid: the views' D are 12 and 28, over the grid's 4
        names = ("x",)
        formulas = [il.parse_formula("P(x) & rat(1/3)"), il.parse_formula("(INT (P(y) -> rat(2/7)) dy) |+| Q(x)")]
        voc = infer_vocabulary(formulas)
        valuations = [(m,) for m in universe_names(2)]
        binds = [compile_integers(formula, names) for formula in formulas]
        models = 0
        for model_at, bound in validate._bound_models(formulas, names, SIZE2, voc):
            model = model_at()
            assert [_outcomes(b, valuations) for b in bound] == [_outcomes(bind(model), valuations) for bind in binds]
            assert [scale % k for (_, scale), k in zip(bound, (3, 7))] == [0, 0]
            models += 1
        assert models == 13 * 25 * 25
        shape = (2, DEFAULT_GRID, (1, 1), False, (), 0)
        kept, fresh = validate._PLANS[shape], validate._Plan(*shape)
        assert kept.choices == fresh.choices


class TestSweepResults:
    """The exact results of the size-2 exhaustive sweeps."""

    @pytest.mark.parametrize("axiom", sorted(AXIOM_CHECKS))
    def test_checked(self, axiom):
        report = validate_axiom(axiom, SIZE2)
        assert (report.checked, report.violations) == (AXIOM_CHECKS[axiom], [])

    def test_mu3_equality_gap_bytes(self):
        assert json.dumps(mu3_equality_gap(SIZE2)) == MU3_GAP_JSON

    @pytest.mark.parametrize("spec, voc, eq, orbit_least", [
        (SIZE2, Vocabulary(predicates=(("P", 1), ("Q", 1))), False, False),
        (ModelGenSpec(size=2, grid=MIXED_GRID, exhaustive=True),
         Vocabulary(predicates=(("P", 1),), functions=(("f", 1),), constants=("c", "d")), True, False),
        (ModelGenSpec(size=2, grid=(F(0), F(1)), exhaustive=True),
         Vocabulary(predicates=(("R", 2),), constants=("c",), has_approx=True), False, True),
        (ModelGenSpec(size=3, grid=(F(0), HALF, F(1)), exhaustive=True),
         Vocabulary(predicates=(("P", 1),), functions=(("f", 1),), constants=("c",)), True, True),
    ])
    def test_models_from_indices(self, spec, voc, eq, orbit_least):
        odometer = validate._Odometer(spec, voc, eq, orbit_least)
        enumerated = list(exhaustive_models(spec, voc, eq, orbit_least=orbit_least))
        steps = [(tuple(indices), odometer.model(indices)) for indices, _ in odometer.sweep()]
        assert len(steps) == len(enumerated) > 100
        plan = odometer.plan
        for (indices, model), expected in zip(steps, enumerated):
            assert model_to_json(model) == model_to_json(expected)
            assert model.form == expected.form
            assert_form_of_its_own_tables(model)
            assert model == WeakProbModel(model.universe, model.measure, model.predicates, model.functions,
                                          model.constants)
            # the measure and every row of the integer form are the plan's own objects, not copies per model
            chosen = iter(zip(indices[1:], plan.choices))
            m_den, weight_row = plan.measures[indices[0]]
            form = model.form
            assert form.m_den == m_den
            rows = [(form.weight_row, weight_row)]
            for name in model.predicates:
                i, choices = next(chosen)
                rows.append((form.tables[name], choices[i]))
            for name in model.functions:
                i, choices = next(chosen)
                rows.append((form.functions[name], choices[i]))
            assert list(form.constants.values()) == [i for i, _ in chosen]
            assert len(rows) == 1 + len(model.predicates) + len(model.functions)
            assert all(part is own and type(own) is tuple for part, own in rows)


@st.composite
def _shapes(draw):
    """`(spec, voc)` of a small exhaustive enumeration: |M| 1-3, a grid from DEFAULT_GRID, 0-2 predicates
    of arity 1-2 and 0-1 constant; grid values, then predicates, are dropped until it has at most 600 models."""
    size = draw(st.integers(min_value=1, max_value=3))
    grid = draw(st.lists(st.sampled_from(DEFAULT_GRID), min_size=1, max_size=5, unique=True).filter(any))
    names = draw(st.lists(st.sampled_from("PQR"), max_size=2, unique=True))
    predicates = [(name, draw(st.integers(min_value=1, max_value=2))) for name in names]
    constants = draw(st.sampled_from(((), ("c",))))
    while True:
        voc = Vocabulary(predicates=tuple(predicates), constants=constants)
        if _space(size, grid, voc) <= 600:
            return ModelGenSpec(size=size, grid=grid, exhaustive=True), voc
        if len(grid) > 2:
            grid = [min(grid), max(grid)]
        else:
            predicates.pop()


def _enumeration(spec, voc, eq, orbit_least):
    """The odometer's `(indices, changed)` steps and the `oracle.model_key` of the model at each."""
    odometer = validate._Odometer(spec, voc, eq, orbit_least)
    steps = [(tuple(indices), changed, oracle.model_key(odometer.model(indices)))
             for indices, changed in odometer.sweep()]
    return [step[:2] for step in steps], [step[2] for step in steps]


def _cold_enumeration(spec, voc, eq, orbit_least):
    """`_enumeration` on a plan built for it, with the kept plans put aside."""
    kept, validate._PLANS = validate._PLANS, {}
    try:
        return _enumeration(spec, voc, eq, orbit_least)
    finally:
        validate._PLANS = kept


class TestPlanCache:
    """A grid's plan is built once per process and kept only when small; models never share it mutably."""

    @settings(max_examples=60, deadline=None)
    @given(shape=_shapes())
    def test_cold_and_warm_plans_enumerate_as_the_oracle(self, shape):
        spec, voc = shape
        renamed = Vocabulary(tuple((f"{name}_r", arity) for name, arity in voc.predicates),
                             constants=("k",) * len(voc.constants))
        options = list(itertools.product((False, True), repeat=2))  # eq, orbit_least
        cold = [_cold_enumeration(spec, voc, eq, orbit_least) for eq, orbit_least in options]
        for eq, orbit_least in options:  # keep a plan per option, among those kept for earlier shapes
            _enumeration(spec, voc, eq, orbit_least)
        for (eq, orbit_least), (steps, keys) in zip(options, cold):
            warm_steps, warm_keys = _enumeration(spec, renamed, eq, orbit_least)
            assert warm_steps == steps
            assert keys == oracle.grid_model_keys(spec.size, spec.grid, voc, eq, orbit_least)
            assert warm_keys == oracle.grid_model_keys(spec.size, spec.grid, renamed, eq, orbit_least)
            if not orbit_least:  # pruned axiom checks report this count of every model, read off the plan
                assert math.prod(validate._plan(*validate._shape(spec, voc, eq)).radices) == len(steps)

    def test_returned_models_share_no_mutable_table(self):
        formula = il.close_free_names(il.parse_formula("INT P(x) dx -> P(k)"))
        voc = infer_vocabulary(formula)
        first = find_countermodel(formula, SIZE2)
        listed = next(exhaustive_models(SIZE2, voc))
        expected = [(model_to_json(model), model.form) for model in (first, listed)]
        for model in (first, listed):
            for mapping, value in ((model.predicates["P"], HALF), (model.measure, HALF),
                                   (model.form.tables["P"], 3)):
                try:
                    mapping[next(iter(mapping))] = value
                except TypeError:  # a read-only table
                    pass
        again = [find_countermodel(formula, SIZE2), next(exhaustive_models(SIZE2, voc))]
        assert [(model_to_json(model), model.form) for model in again] == expected

    def test_only_a_few_small_plans_are_kept(self, monkeypatch):
        monkeypatch.setattr(validate, "_PLANS", {})
        big = validate._Odometer(ModelGenSpec(size=3, grid=(F(0), HALF, F(1)), exhaustive=True),
                                 Vocabulary(predicates=(("R", 2),)), False, False)
        assert sum(big.plan.radices) > validate.PLAN_CHOICES_KEPT and validate._PLANS == {}

        def measures(constants):  # a plan of its own per number of constants
            voc = Vocabulary(constants=tuple(f"c{i}" for i in range(constants)))
            return validate._Odometer(ModelGenSpec(size=1, exhaustive=True), voc, False, False).plan.measures

        kept = [measures(n) for n in range(validate.PLANS_KEPT)]
        assert [measures(n) for n in range(validate.PLANS_KEPT)] == kept
        assert all(measures(n) is plan for n, plan in enumerate(kept))
        measures(validate.PLANS_KEPT)  # drops the least recently used plan, that of no constant
        assert len(validate._PLANS) == validate.PLANS_KEPT
        assert measures(1) is kept[1] and measures(0) is not kept[0]


class TestLawSampleCache:
    """A law suite's samples are built once per process per universe and grid (and seed and count in random
    mode), and kept only when small."""

    SPEC = ModelGenSpec(size=2, exhaustive=True)

    @pytest.mark.parametrize("core", [integrals._expectation, _squared_sup_core])
    def test_cold_and_kept_samples_give_the_same_report(self, monkeypatch, core):
        monkeypatch.setattr(validate, "check_prepared_laws",
                            functools.partial(check_prepared_laws, integral=core))
        for measure in grid_measures(2, DEFAULT_GRID)[::5]:
            model = il.WeakProbModel(("a", "b"), measure, {}, {}, {})
            monkeypatch.setattr(validate, "_LAW_SAMPLES", {})
            cold = _law_suite_outputs(model, self.SPEC)
            samples = validate._LAW_SAMPLES[(model.universe, self.SPEC.grid)]
            kept = _law_suite_outputs(model, self.SPEC)
            assert validate._LAW_SAMPLES[(model.universe, self.SPEC.grid)] is samples
            assert kept == cold and cold[0] == 5 + 3 * 625 + 625
            assert (cold[1] == "[]") == (core is integrals._expectation)

    def test_grid_orders_are_kept_apart(self, monkeypatch):
        monkeypatch.setattr(validate, "check_prepared_laws",
                            functools.partial(check_prepared_laws, integral=_squared_sup_core))
        monkeypatch.setattr(validate, "_LAW_SAMPLES", {})
        model = il.WeakProbModel(("a", "b"), {"a": F(1, 4), "b": F(3, 4)}, {}, {}, {})
        grids = [(F(1), F(0)), (F(0), F(1)), (HALF, F(1, 3)), (F(1, 3), HALF)]
        specs = [ModelGenSpec(size=2, grid=grid, exhaustive=True) for grid in grids]
        cold = [_law_suite_outputs(model, spec) for spec in specs]
        assert list(validate._LAW_SAMPLES) == [(model.universe, grid) for grid in grids]
        assert [_law_suite_outputs(model, spec) for spec in reversed(specs)] == cold[::-1]
        assert cold[2] != cold[3]  # the constant law's two records follow the grid's order

    def test_large_samples_are_not_kept(self, monkeypatch):
        monkeypatch.setattr(validate, "_LAW_SAMPLES", {})
        grid = tuple(F(k, 6) for k in range(7))
        model = il.WeakProbModel(("a", "b"), {"a": HALF, "b": HALF}, {}, {}, {})
        report = integral_law_suite(model, ModelGenSpec(size=2, grid=grid, exhaustive=True))
        assert 7 ** 4 + 7 ** 4 > validate.LAW_SAMPLES_KEPT and report.checked == 7 + 3 * 7 ** 4 + 7 ** 4
        assert validate._LAW_SAMPLES == {}

    def test_only_a_few_sample_sets_are_kept(self, monkeypatch):
        monkeypatch.setattr(validate, "_LAW_SAMPLES", {})
        model = il.WeakProbModel(("a",), {"a": F(1)}, {}, {}, {})

        def samples(k):  # samples of their own per grid
            spec = ModelGenSpec(size=1, grid=(F(0), F(1, k + 1)), exhaustive=True)
            integral_law_suite(model, spec)
            return validate._LAW_SAMPLES.get((model.universe, spec.grid))

        kept = [samples(k) for k in range(validate.LAW_SAMPLE_SETS_KEPT)]
        assert all(samples(k) is sample for k, sample in enumerate(kept))
        samples(validate.LAW_SAMPLE_SETS_KEPT)  # drops the least recently used samples, those of grid 0, 1
        assert len(validate._LAW_SAMPLES) == validate.LAW_SAMPLE_SETS_KEPT
        assert samples(1) is kept[1] and samples(0) is not kept[0]

    def test_kept_rows_report_as_a_fresh_check_on_every_measure(self, monkeypatch):
        monkeypatch.setattr(validate, "check_prepared_laws",
                            functools.partial(check_prepared_laws, integral=_squared_sup_core))
        monkeypatch.setattr(validate, "_LAW_SAMPLES", {})
        universe, grid = ("a", "b"), self.SPEC.grid
        for measure in grid_measures(2, DEFAULT_GRID):
            model = il.WeakProbModel(universe, measure, {}, {}, {})
            pairs, bivariate = validate._exhaustive_law_samples(universe, grid)
            fresh = check_semantic_integral_laws(model, pairs, bivariate, grid, integral=_squared_sup_core)
            assert _law_suite_outputs(model, self.SPEC) == (fresh.checked, json.dumps(fresh.violations))
            assert fresh.violations and list(validate._LAW_SAMPLES) == [(universe, grid)]
        assert len(grid_measures(2, DEFAULT_GRID)) == 13

    def test_one_preparation_per_sample_set(self, monkeypatch):
        monkeypatch.setattr(validate, "_LAW_SAMPLES", {})
        prepared, prepare = [], validate.prepare_law_samples
        monkeypatch.setattr(validate, "prepare_law_samples", lambda *args: prepared.append(args) or prepare(*args))
        models = [il.WeakProbModel(("a", "b"), measure, {}, {}, {}) for measure in grid_measures(2, DEFAULT_GRID)]
        for model in models:
            integral_law_suite(model, self.SPEC)
        assert len(prepared) == 1
        one = il.WeakProbModel(("a",), {"a": F(1)}, {}, {}, {})
        for k in range(validate.LAW_SAMPLE_SETS_KEPT):  # evicts the size-2 set
            integral_law_suite(one, ModelGenSpec(size=1, grid=(F(0), F(1, k + 1)), exhaustive=True))
        assert len(prepared) == 1 + validate.LAW_SAMPLE_SETS_KEPT
        for model in models:
            integral_law_suite(model, self.SPEC)
        assert len(prepared) == 2 + validate.LAW_SAMPLE_SETS_KEPT

    RANDOM = ModelGenSpec(size=2, seed=11, count=40)

    @pytest.mark.parametrize("core", [integrals._expectation, _squared_sup_core])
    def test_cold_and_kept_random_samples_give_the_same_report(self, monkeypatch, core):
        monkeypatch.setattr(validate, "check_prepared_laws",
                            functools.partial(check_prepared_laws, integral=core))
        key = (("a", "b"), self.RANDOM.grid, self.RANDOM.seed, self.RANDOM.count)
        for measure in grid_measures(2, DEFAULT_GRID)[::5]:
            model = il.WeakProbModel(("a", "b"), measure, {}, {}, {})
            monkeypatch.setattr(validate, "_LAW_SAMPLES", {})
            cold = _law_suite_outputs(model, self.RANDOM)
            samples = validate._LAW_SAMPLES[key]
            kept = _law_suite_outputs(model, self.RANDOM)
            assert validate._LAW_SAMPLES[key] is samples and list(validate._LAW_SAMPLES) == [key]
            assert kept == cold and cold[0] == 5 + 3 * 40 + 40
            assert (cold[1] == "[]") == (core is integrals._expectation)

    def test_seeds_and_counts_are_kept_apart(self, monkeypatch):
        monkeypatch.setattr(validate, "check_prepared_laws",
                            functools.partial(check_prepared_laws, integral=_squared_sup_core))
        model = il.WeakProbModel(("a", "b"), {"a": F(1, 4), "b": F(3, 4)}, {}, {}, {})
        specs = [ModelGenSpec(size=2, seed=seed, count=count) for seed, count in [(1, 30), (2, 30), (1, 31)]]
        cold = []
        for spec in specs:
            monkeypatch.setattr(validate, "_LAW_SAMPLES", {})
            cold.append(_law_suite_outputs(model, spec))
        monkeypatch.setattr(validate, "_LAW_SAMPLES", {})
        assert [_law_suite_outputs(model, spec) for spec in specs] == cold
        assert [_law_suite_outputs(model, spec) for spec in reversed(specs)] == cold[::-1]
        assert list(validate._LAW_SAMPLES) == [(model.universe, spec.grid, spec.seed, spec.count)
                                                for spec in reversed(specs)]
        assert len(set(cold)) == 3

    def test_a_count_over_the_bound_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(validate, "_LAW_SAMPLES", {})
        model = il.WeakProbModel(("a",), {"a": F(1)}, {}, {}, {})
        bound = validate.LAW_SAMPLES_KEPT // 2  # a random sample holds `count` pairs and `count` bivariate subsets
        integral_law_suite(model, ModelGenSpec(size=1, seed=4, count=bound))
        assert list(validate._LAW_SAMPLES) == [(model.universe, DEFAULT_GRID, 4, bound)]
        report = integral_law_suite(model, ModelGenSpec(size=1, seed=4, count=bound + 1))
        assert report.checked == 5 + 3 * (bound + 1) + bound + 1
        assert list(validate._LAW_SAMPLES) == [(model.universe, DEFAULT_GRID, 4, bound)]


def _mu1_against_its_right_side_integrated(schema, **parts):
    """`axiom_sides`, but mu1's right side `v` becomes `INT v dy`, which differs from `v` when `y` is free."""
    left, right = axiom_sides(schema, **parts)
    return (left, Integral("y", right)) if schema == "mu1" else (left, right)


def _mu1_records(rows):
    """The violation records of the changed mu1, one per `(mu(a), mu(b), P(a), P(b), y, lhs, rhs)` row."""
    return [{"kind": "axiom-violation", "axiom": "mu1",
             "model": {"universe": ["a", "b"], "measure": {"a": mu_a, "b": mu_b},
                       "predicates": {"P": _table(1, a=p_a, b=p_b)}, "functions": {}, "constants": {}},
             "instantiation": "INT P(y) dx  vs  INT P(y) dy", "valuation": {"y": y}, "lhs": lhs, "rhs": rhs}
            for mu_a, mu_b, p_a, p_b, y, lhs, rhs in rows]


class TestViolationRecords:
    """The count, the bytes and the order of axiom-violation records, pinned on an axiom made to fail."""

    @pytest.mark.parametrize("spec, checked, rows", [
        (ModelGenSpec(size=2, grid=(F(0), F(1)), exhaustive=True), 30, [
            ("0", "1", "0", "1", "a", "0", "1"),
            ("0", "1", "1", "0", "a", "1", "0"),
            ("1", "0", "0", "1", "b", "1", "0"),
            ("1", "0", "1", "0", "b", "0", "1"),
            ("1/2", "1/2", "0", "1", "a", "0", "1/2"),
            ("1/2", "1/2", "0", "1", "b", "1", "1/2"),
            ("1/2", "1/2", "1", "0", "a", "1", "1/2"),
            ("1/2", "1/2", "1", "0", "b", "0", "1/2"),
        ]),
        (ModelGenSpec(size=2, seed=5, count=3), 21, [
            ("2/3", "1/3", "1/2", "1", "a", "1/2", "2/3"),
            ("2/3", "1/3", "1/2", "1", "b", "1", "2/3"),
            ("0", "1", "1/4", "0", "a", "1/4", "0"),
            ("1", "0", "1/2", "3/4", "b", "3/4", "1/2"),
        ]),
    ])
    def test_records(self, monkeypatch, spec, checked, rows):
        monkeypatch.setattr(validate, "axiom_sides", _mu1_against_its_right_side_integrated)
        report = validate_axiom("mu1", spec)
        assert report.checked == checked
        assert json.dumps(report.violations) == json.dumps(_mu1_records(rows))


def _swapped(schema, **parts):
    left, right = axiom_sides(schema, **parts)
    return right, left


def _negated(schema, **parts):
    left, right = axiom_sides(schema, **parts)
    return left, Not(right)


def _wrongly_integrated(schema, **parts):
    """mu1 against its right side integrated; any other schema with its left side's outer `INT` dropped."""
    if schema == "mu1":
        return _mu1_against_its_right_side_integrated(schema, **parts)
    left, right = axiom_sides(schema, **parts)
    return left.body, right


AXIOM_SIDES = {"sound": axiom_sides, "swapped": _swapped, "negated": _negated, "integrated": _wrongly_integrated}


def _brute_force_checks(axiom, spec, equality):
    """Each check of `axiom` in order, on every model `exhaustive_models` gives, bound per model with
    `compile_integers`: its record where the sides fail as in `validate._failures`, else None."""
    for inst in validate._axiom_instantiations(axiom, spec):
        left, right = validate.axiom_sides(axiom, **inst)
        names = sorted(free_vars(left) | free_vars(right))
        valuations = list(itertools.product(universe_names(spec.size), repeat=len(names)))
        binds = [compile_integers(side, names) for side in (left, right)]
        for model in exhaustive_models(spec, infer_vocabulary([left, right]), orbit_least=False):
            (lhs, left_scale), (rhs, right_scale) = [bind(model) for bind in binds]
            for elements in valuations:
                lhs_value, rhs_value = F(lhs(elements), left_scale), F(rhs(elements), right_scale)
                failed = lhs_value != rhs_value and (equality or lhs_value > rhs_value)
                yield {"axiom": axiom, "model": model_to_json(model),
                       "instantiation": f"{il.print_formula(left)}  vs  {il.print_formula(right)}",
                       "valuation": dict(zip(names, elements)), "lhs": str(lhs_value),
                       "rhs": str(rhs_value)} if failed else None


AXIOM_GRIDS = ((F(0), F(1)), (F(0), HALF, F(1)))


def _axiom_spec(size, grid, axiom, sides):
    """The exhaustive spec of `size` and `grid`, when `axiom`'s sides have at most 1 500 models on it."""
    voc = infer_vocabulary([side for inst in validate._axiom_instantiations(axiom, ModelGenSpec())
                            for side in sides(axiom, **inst)])
    assume(_space(size, grid, voc) <= 1500)
    return ModelGenSpec(size=size, grid=grid, exhaustive=True)


class TestPrunedAxiomChecks:
    """Axiom checks decided on orbit-least models, against every model; a full sweep only on a failure."""

    @settings(max_examples=60, deadline=None)
    @given(axiom=st.sampled_from(AXIOM_IDS), sides=st.sampled_from(sorted(AXIOM_SIDES)),
           size=st.integers(min_value=1, max_value=3), grid=st.sampled_from(AXIOM_GRIDS))
    def test_report_as_on_every_model(self, axiom, sides, size, grid):
        spec = _axiom_spec(size, grid, axiom, AXIOM_SIDES[sides])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(validate, "axiom_sides", AXIOM_SIDES[sides])
            checks = list(_brute_force_checks(axiom, spec, axiom != "mu3"))
            report = validate_axiom(axiom, spec)
        assert report.checked == len(checks)
        expected = [{"kind": "axiom-violation", **record} for record in checks if record]
        assert json.dumps(report.violations) == json.dumps(expected), (spec.size, spec.grid)

    @settings(max_examples=30, deadline=None)
    @given(sides=st.sampled_from(sorted(AXIOM_SIDES)), size=st.integers(min_value=1, max_value=3),
           grid=st.sampled_from(AXIOM_GRIDS))
    def test_gap_witness_as_on_every_model(self, sides, size, grid):
        spec = _axiom_spec(size, grid, "mu3", AXIOM_SIDES[sides])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(validate, "axiom_sides", AXIOM_SIDES[sides])
            expected = next(filter(None, _brute_force_checks("mu3", spec, True)), None)
            assert json.dumps(mu3_equality_gap(spec)) == json.dumps(expected), (spec.size, spec.grid)

    def test_one_plan_per_instantiation(self, monkeypatch):
        # no plan is kept, so each lookup builds one: the count and every sweep of an instantiation
        # share the one plan, whether it passes (mu2) or fails and is swept again in full (mu1)
        built = []
        build = validate._Plan.__init__

        def counted(plan, *shape):
            built.append(shape)
            build(plan, *shape)

        monkeypatch.setattr(validate, "_PLANS", {})
        monkeypatch.setattr(validate, "PLAN_CHOICES_KEPT", 0)
        monkeypatch.setattr(validate._Plan, "__init__", counted)
        assert validate_axiom("mu2", SIZE2).ok
        assert len(built) == len(validate._axiom_instantiations("mu2", SIZE2)) == 4
        built.clear()
        monkeypatch.setattr(validate, "axiom_sides", _mu1_against_its_right_side_integrated)
        report = validate_axiom("mu1", SIZE2)
        assert not report.ok and report.checked == AXIOM_CHECKS["mu1"]
        assert len(built) == len(validate._axiom_instantiations("mu1", SIZE2)) == 1 + len(DEFAULT_GRID)
        assert validate._PLANS == {}

    def test_full_sweeps_only_for_failing_instantiations(self, monkeypatch):
        # counts sweeps, not time, so it holds on a machine of any speed
        full_sweeps = []
        bound_models = validate._bound_models

        def counted(*args, orbit_least=False, **kwargs):
            full_sweeps.append(not orbit_least)
            return bound_models(*args, orbit_least=orbit_least, **kwargs)

        monkeypatch.setattr(validate, "_bound_models", counted)
        assert validate_axiom("mu2", SIZE2).ok
        assert full_sweeps == [False] * 4

        full_sweeps.clear()
        monkeypatch.setattr(validate, "axiom_sides", _mu1_against_its_right_side_integrated)
        report = validate_axiom("mu1", SIZE2)
        failing = {record["instantiation"] for record in report.violations}
        assert len(failing) == 1 and report.checked == AXIOM_CHECKS["mu1"]
        assert sum(full_sweeps) == len(failing) and len(full_sweeps) == 1 + len(DEFAULT_GRID) + len(failing)


def test_grid_fuzzy_subset_count():
    subsets = list(grid_fuzzy_subsets(("a", "b"), (F(0), HALF, F(1))))
    assert len(subsets) == 9
    assert len(list(grid_fuzzy_subsets(("a",), (F(0), F(1)), arity=2))) == 2


class TestGridSubsets:
    """Grid subsets skip the subset checks; the universe, arity and grid are checked once per call."""

    @pytest.mark.parametrize("arity", [1, 2])
    def test_subsets_are_what_the_checks_build(self, arity):
        grid = (1, F(1, 3), 0, HALF)  # unsorted, and not all Fractions
        rng = random.Random(2)
        subsets = list(grid_fuzzy_subsets(("a", "b"), grid, arity))
        subsets += [random_fuzzy_subset(("a", "b"), grid, rng, arity) for _ in range(10)]
        for subset in subsets:
            validated = FuzzySubset(subset.universe, subset.values)
            assert subset == validated and subset.arity == validated.arity == arity
            assert all(type(v) is Fraction for v in subset.values.values())
            assert (subset.den, subset.row) == (validated.den, validated.row)

    @pytest.mark.parametrize("universe, grid, arity, error", [
        (("a", "b"), (F(0), F(3, 2)), 1, errors.ValueOutOfRange),
        (("a", "b"), (F(0), F(1)), 0, errors.FormatError),
        (("a", "a"), (F(0), F(1)), 1, errors.TableIncomplete),
        ((), (F(0), F(1)), 1, errors.FormatError),
    ])
    def test_bad_input(self, universe, grid, arity, error):
        with pytest.raises(error):
            list(grid_fuzzy_subsets(universe, grid, arity))
        with pytest.raises(error):
            random_fuzzy_subset(universe, grid, random.Random(0), arity)


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
        model = next(il.generate_models(ModelGenSpec(size=2, seed=5, count=1), Vocabulary()))
        _assert_squared_sup_violations_replay(model)


def _squared_sup(f, model):  # deliberately not an integral
    return max(f.values.values()) ** 2


def _assert_squared_sup_violations_replay(model):
    """`_squared_sup`'s core on rows breaks all five laws, and each record replays on `_squared_sup`."""
    rng = random.Random(5)
    universe = model.universe
    pairs = [(random_fuzzy_subset(universe, DEFAULT_GRID, rng),
              random_fuzzy_subset(universe, DEFAULT_GRID, rng)) for _ in range(20)]
    bivariate = [random_fuzzy_subset(universe, DEFAULT_GRID, rng, arity=2) for _ in range(20)]
    report = check_semantic_integral_laws(model, pairs, bivariate,
                                          integral=lambda den, row, form: (max(row) ** 2, den ** 2))
    assert {v["law"] for v in report.violations} == {
        "constant", "complement", "implication", "additivity", "iteration"}

    reloaded = model_from_json(model_to_json(model))
    for record in report.violations:
        lhs, rhs = _replay_law(record["law"], record["sample"], reloaded, _squared_sup)
        assert (str(lhs), str(rhs)) == (record["lhs"], record["rhs"])


class TestLawsOnIntegers:
    """The law checker decides every law on integers: it makes a `Fraction` only for a violation record."""

    def test_no_fraction_without_a_violation(self, monkeypatch):
        made = []
        monkeypatch.setattr(integrals, "Fraction", lambda *args: made.append(args) or Fraction(*args))
        model = il.WeakProbModel(("a", "b"), {"a": F(1, 4), "b": F(3, 4)}, {}, {}, {})
        report = integral_law_suite(model, ModelGenSpec(size=2, exhaustive=True))
        assert (report.checked, report.violations, made) == (5 + 3 * 625 + 625, [], [])

        _assert_squared_sup_violations_replay(model)
        assert made


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
