import copy
import dataclasses
import itertools
import json
import pickle
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import gen
import intlogic as il
import oracle
from intlogic import errors
from intlogic.model import (
    FuzzySubset,
    WeakProbModel,
    expand_by_constants,
    isomorphic,
    level_set,
    model_from_json,
    model_to_json,
    mu_set,
    reduct,
    relabel_universe,
    relabelled,
    rename,
)
from intlogic.satisfaction import ApproximationSystem, check_elementary_substructure
from intlogic.syntax import RESERVED_NAMES

HALF = Fraction(1, 2)


def uniform2(p_a=Fraction(1), p_b=Fraction(0)):
    return WeakProbModel(
        ("a", "b"),
        {"a": HALF, "b": HALF},
        {"P": {("a",): p_a, ("b",): p_b}},
        {},
        {"c": "a"},
    )


MODEL_DOC = {
    "universe": ["a", "b"],
    "measure": {"a": "1/2", "b": "1/2"},
    "predicates": {"P": {"arity": 1, "table": {"a": "1", "b": "0"}}},
    "functions": {"swap": {"arity": 1, "table": {"a": "b", "b": "a"}}},
    "constants": {"c": "a"},
}


class TestLoading:
    def test_valid_model(self, tmp_path):
        from intlogic.files import load_model

        path = tmp_path / "m.json"
        path.write_text(json.dumps(MODEL_DOC))
        model = load_model(path)
        assert sum(model.measure.values()) == 1

    def test_integer_weights(self, tmp_path):
        from intlogic.files import load_model

        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(MODEL_DOC, measure={"a": "1/6", "b": "5/6"})))
        model = load_model(path)
        form = model.form
        assert (form.m_den, form.weight_row, form.den, form.constants) == (6, (1, 5), 1, {"c": 0})
        assert form.tables == {"P": (1, 0)} and form.functions == {"swap": (1, 0)}  # made by the constructor

    def test_unnormalized_measure(self):
        doc = dict(MODEL_DOC, measure={"a": "1/3", "b": "1/3"})
        with pytest.raises(errors.MeasureNotNormalized):
            model_from_json(doc)

    def test_value_out_of_range(self):
        doc = dict(MODEL_DOC, predicates={"P": {"arity": 1, "table": {"a": "3/2", "b": "0"}}})
        with pytest.raises(errors.ValueOutOfRange):
            model_from_json(doc)

    def test_incomplete_table(self):
        doc = dict(MODEL_DOC, predicates={"P": {"arity": 1, "table": {"a": "1"}}})
        with pytest.raises(errors.TableIncomplete):
            model_from_json(doc)

    def test_function_outside_universe(self):
        doc = dict(MODEL_DOC, functions={"swap": {"arity": 1, "table": {"a": "zz", "b": "a"}}})
        with pytest.raises(errors.FormatError):
            model_from_json(doc)

    @pytest.mark.parametrize("name", ["eq", "approx"])
    def test_reserved_predicate_must_be_binary(self, name):
        doc = dict(MODEL_DOC, predicates={name: {"arity": 1, "table": {"a": "1", "b": "0"}}})
        with pytest.raises(errors.FormatError):
            model_from_json(doc)

    @pytest.mark.parametrize("section, names", [
        ("predicates", ["ALL", "EX", "INT", "rat"]),
        ("functions", ["ALL", "EX", "INT", "rat", "eq", "approx"]),
        ("constants", ["ALL", "EX", "INT", "rat", "eq", "approx"]),
    ])
    def test_keyword_names_are_rejected(self, section, names):
        entry = {"predicates": {"arity": 2, "table": {"a,a": "1", "a,b": "0", "b,a": "0", "b,b": "1"}},
                 "functions": {"arity": 1, "table": {"a": "b", "b": "a"}}, "constants": "b"}[section]
        for name in names:
            with pytest.raises(errors.FormatError, match=f"^symbol name '{name}' is reserved$"):
                model_from_json(dict(MODEL_DOC, **{section: {name: entry}}))
            model = model_from_json(dict(MODEL_DOC, **{section: {"K": entry}}))
            with pytest.raises(errors.FormatError, match=f"^symbol name '{name}' is reserved$"):
                rename(model, {"K": name})

    def test_a_keyword_name_is_checked_where_its_symbol_is(self):
        # each symbol's own checks come first, and the sections keep their order
        bad_table = {"arity": 1, "table": {"a": "1"}}
        with pytest.raises(errors.TableIncomplete):
            model_from_json(dict(MODEL_DOC, predicates={"INT": bad_table}))
        with pytest.raises(errors.TableIncomplete):
            model_from_json(dict(MODEL_DOC, predicates={"P": bad_table}, constants={"rat": "a"}))
        with pytest.raises(errors.FormatError, match="^function 'INT' maps"):
            model_from_json(dict(MODEL_DOC, functions={"INT": {"arity": 1, "table": {"a": "z", "b": "a"}}}))
        with pytest.raises(errors.FormatError, match="^constant 'rat' points at unknown element 'z'$"):
            model_from_json(dict(MODEL_DOC, constants={"rat": "z"}))
        with pytest.raises(errors.FormatError, match="^symbol name 'ALL' is reserved$"):
            model_from_json(dict(MODEL_DOC, predicates={"ALL": bad_table | {"table": {"a": "1", "b": "0"}}},
                                 constants={"rat": "a"}))

    def test_json_round_trip(self):
        model = model_from_json(MODEL_DOC)
        assert model_from_json(model_to_json(model)) == model

    @pytest.mark.parametrize("name", ["a,b", " a", "a ", "a\n", 1])
    def test_element_name_that_cannot_round_trip(self, name):
        with pytest.raises(errors.FormatError):
            WeakProbModel((name,), {name: Fraction(1)})

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=3),
           st.lists(st.text(alphabet=" ,\tab", max_size=3), min_size=3, max_size=3, unique=True))
    def test_json_round_trip_property(self, seed, size, names):
        model = gen.random_model(random.Random(seed), size)
        names = names[:size]
        try:
            model = relabel_universe(model, dict(zip(model.universe, names)))
        except errors.FormatError:
            assert any("," in n or n != n.strip() for n in names)
            return
        text = json.dumps(model_to_json(model))
        assert model_from_json(json.loads(text)) == model


class TestMuSet:
    def test_singleton(self):
        assert mu_set(uniform2(), {"a"}) == HALF

    def test_product_measure_pairs(self):
        # mu{(a,a),(a,b)} = 1/4 + 1/4 by the product formula
        assert mu_set(uniform2(), {("a", "a"), ("a", "b")}, k=2) == HALF

    def test_empty(self):
        assert mu_set(uniform2(), set()) == 0

    def test_finitely_additive_and_monotone(self):
        model = WeakProbModel(
            ("a", "b", "c"),
            {"a": Fraction(1, 6), "b": Fraction(1, 3), "c": HALF},
            {}, {}, {},
        )
        parts = [{"a"}, {"b"}, {"c"}]
        whole = {"a", "b", "c"}
        assert sum(mu_set(model, p) for p in parts) == mu_set(model, whole) == 1
        assert mu_set(model, {"a"}) <= mu_set(model, {"a", "b"})

    def test_arity_checked(self):
        with pytest.raises(errors.FormatError):
            mu_set(uniform2(), {("a", "b")}, k=1)


class TestFuzzySubset:
    def test_totality_enforced(self):
        with pytest.raises(errors.TableIncomplete):
            FuzzySubset(("a", "b"), {("a",): HALF})

    def test_keys_outside_universe_rejected(self):
        # as many keys as tuples, but one names no element
        with pytest.raises(errors.FormatError):
            FuzzySubset(("a", "b"), {("a",): 1, ("z",): 0})

    def test_constant_and_crisp(self):
        const = FuzzySubset.constant(("a", "b"), HALF)
        assert not const.is_crisp()
        crisp = FuzzySubset(("a", "b"), {("a",): Fraction(1), ("b",): Fraction(0)})
        assert crisp.is_crisp()

    def test_level_set_is_strict(self):
        f = FuzzySubset(("a", "b"), {("a",): HALF, ("b",): Fraction(1)})
        assert level_set(f, HALF) == {"b"}
        assert level_set(f, Fraction(0)) == {"a", "b"}
        assert level_set(f, Fraction(1)) == frozenset()


@st.composite
def integer_forms(draw):
    """`(universe, arity, den, row)`: a row of numerators over a random denominator."""
    universe = tuple(draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=3, unique=True)))
    arity = draw(st.integers(min_value=1, max_value=2))
    den = draw(st.integers(min_value=1, max_value=12))
    size = len(universe) ** arity
    row = draw(st.lists(st.integers(min_value=0, max_value=den), min_size=size, max_size=size))
    return universe, arity, den, row


class TestSubsetForms:
    """`_trusted` keeps the integer form and the checking constructor converts its table to it; both agree."""

    @settings(max_examples=200, deadline=None)
    @given(form=integer_forms(), values_first=st.booleans(), data=st.data())
    def test_both_constructors_agree(self, form, values_first, data):
        universe, arity, den, row = form
        keys = list(itertools.product(universe, repeat=arity))
        table = {key: Fraction(n, den) for key, n in zip(keys, row)}
        names = ("values", "den", "row") if values_first else ("row", "den", "values")

        def pair():
            shuffled = data.draw(st.permutations(keys))
            return FuzzySubset._trusted(universe, arity, den, row), FuzzySubset(universe, {k: table[k] for k in shuffled})

        trusted, checked = pair()
        assert [getattr(trusted, name) for name in names] == [getattr(checked, name) for name in names]
        assert trusted.values == table
        assert list(trusted.values) == keys
        assert trusted.den == lcm(*[v.denominator for v in table.values()])
        assert trusted.row == tuple([v.numerator * (trusted.den // v.denominator) for v in table.values()])
        assert trusted.is_crisp() == checked.is_crisp() == all(v in (0, 1) for v in table.values())

        trusted, checked = pair()  # equality, hash and copies of subsets whose `values` were never read
        assert trusted == checked and hash(trusted) == hash(checked)
        for subset in pair():
            copies = copy.deepcopy(subset), pickle.loads(pickle.dumps(subset))
            fields = [(s.universe, s.arity, s.den, s.row) for s in (*copies, subset)]
            assert fields[0] == fields[1] == fields[2]
            for copied in copies:
                assert copied == subset and hash(copied) == hash(subset)
                assert copied.values == table and copied.arity == arity


QUARTER_GRID = (Fraction(0), Fraction(1, 4), HALF)
CONTRACT_VOC = il.Vocabulary(predicates=(("P", 1), ("R", 2)), functions=(("f", 1),), constants=("c",),
                             has_approx=True)


def grid_models() -> list:
    """Models generated over `D` 4, the grid's lcm, whose own tables often need less: random, exhaustive and a
    countermodel found in each mode."""
    formula = il.close_free_names(il.parse_formula("INT P(x) dx -> P(k)"))
    exhaustive = il.ModelGenSpec(size=2, grid=QUARTER_GRID, exhaustive=True)
    random_spec = il.ModelGenSpec(size=3, grid=QUARTER_GRID, seed=4, count=30)
    return [*il.generate_models(random_spec, CONTRACT_VOC, eq=True),
            *itertools.islice(il.generate_models(exhaustive, il.Vocabulary(predicates=(("P", 1),))), 0, None, 5),
            il.find_countermodel(formula, exhaustive), il.find_countermodel(formula, random_spec)]


class TestModelContract:
    """A model stores its integer form alone: dicts are built on read, and equality, the hash and copies read the
    form with `D` reduced."""

    def test_grid_and_loaded_models_are_equal(self):
        models = grid_models()
        loaded = [model_from_json(model_to_json(model)) for model in models]
        assert any(model.form.den != again.form.den for model, again in zip(models, loaded))
        for model, again in zip(models, loaded):
            assert again == model and hash(again) == hash(model)
            assert len({model, again}) == 1
        assert len(set(models)) == len({json.dumps(model_to_json(model), sort_keys=True) for model in models})
        predicates = models[0].predicates
        predicates["P"][next(iter(predicates["P"]))] = Fraction(1, 3)  # off the grid
        changed = WeakProbModel(models[0].universe, models[0].measure, predicates, models[0].functions,
                                models[0].constants)
        assert changed != models[0] and model_from_json(model_to_json(changed)) == changed

    def test_changing_a_read_dict_leaves_the_model(self):
        sentences = [il.parse_formula(text, CONTRACT_VOC)
                     for text in ("INT P(f(x)) & R(x, c) dx", "ALL x. approx(x, f(c))")]
        for model in (grid_models()[0], model_from_json(MODEL_DOC | {"predicates": {
                "P": {"arity": 1, "table": {"a": "1/3", "b": "0"}},
                "R": {"arity": 2, "table": {"a,a": "1", "a,b": "0", "b,a": "1/2", "b,b": "0"}},
                "approx": {"arity": 2, "table": {"a,a": "1", "a,b": "1/4", "b,a": "1/4", "b,b": "1"}}},
                "functions": {"f": {"arity": 1, "table": {"a": "b", "b": "a"}}}})):
            before = (model_to_json(model), hash(model), [il.evaluate_closed(s, model) for s in sentences])
            measure, predicates, functions, constants = model.measure, model.predicates, model.functions, \
                model.constants
            first = model.universe[0]
            constants["c"] = model.universe[-1] if constants["c"] == first else first
            constants["k"] = first
            measure[first] = Fraction(1, 7)
            predicates["P"][(first,)] = HALF
            predicates["R"].clear()
            functions["f"][(first,)] = first
            del functions["f"]
            predicates["Q"] = {(m,): HALF for m in model.universe}
            assert (model_to_json(model), hash(model), [il.evaluate_closed(s, model) for s in sentences]) == before
            assert model.measure != measure and model.predicates != predicates and model.functions != functions
            assert model.constants != constants and "k" not in model.constants

    def test_copies_keep_equality_and_hash(self):
        for model in [*grid_models()[::7], model_from_json(MODEL_DOC)]:
            for copied in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
                assert copied == model and hash(copied) == hash(model)
                assert model_to_json(copied) == model_to_json(model)

    def test_the_form_is_all_a_model_stores(self):
        for model in [*grid_models()[::7], model_from_json(MODEL_DOC)]:
            assert set(vars(model)) == {"universe", "form"}
            form = model.form
            assert type(form) is il.model.IntegerForm
            assert form._fields == ("den", "tables", "m_den", "weight_row", "functions", "constants")
            integers = [form.den, form.m_den, *form.weight_row, *form.constants.values(),
                        *itertools.chain.from_iterable(il.model.flattened(rows, il.model.arity_of(rows))
                                                       for rows in (*form.tables.values(), *form.functions.values()))]
            assert all(type(n) is int for n in integers)
            with pytest.raises(dataclasses.FrozenInstanceError):
                model.universe = ()
            with pytest.raises(AttributeError):
                model.measure = {}

    def test_measure_reads_in_universe_order(self):
        model = model_from_json(dict(MODEL_DOC, measure={"b": "2/3", "a": "1/3"}))
        assert list(model.measure.items()) == [("a", Fraction(1, 3)), ("b", Fraction(2, 3))]
        assert list(model_to_json(model)["measure"]) == ["a", "b"]


class TestStructureOps:
    @pytest.mark.parametrize("seed", range(8))
    def test_relabelling_and_reduct_carry_the_integer_form(self, seed):
        # a relabelled model keeps every element's position, a reduct forgets tables, a renaming
        # renames them and an expansion adds constants, so each builds its form from the form of the
        # model it is given; it must be the form of the model they return, with the tables of its symbols
        rng = random.Random(seed)
        model = gen.random_model(rng, size=rng.randint(1, 3))
        image = tuple(rng.sample(["n1", "n2", "zz"], len(model.universe)))
        voc = il.Vocabulary(predicates=(("R", 2),), functions=(("g", 2),), constants=("d",))
        relabelled = relabel_universe(model, dict(zip(model.universe, image)))
        assert relabelled.form is model.form
        swap = {"P": "Q", "Q": "P", "f": "h", "c": "d", "d": "c"}
        renamed = rename(model, swap)
        for tables, renamed_tables in ((model.predicates, renamed.predicates), (model.functions, renamed.functions)):
            assert renamed_tables == {swap.get(name, name): table for name, table in tables.items()}
        for derived in (relabelled, reduct(model, voc), renamed, expand_by_constants(relabelled),
                        rename(expand_by_constants(relabelled, image[:1]), swap)):
            form = derived.form
            rebuilt = WeakProbModel(derived.universe, derived.measure, derived.predicates, derived.functions,
                                    derived.constants)
            assert derived == rebuilt and hash(derived) == hash(rebuilt)
            assert form.constants == rebuilt.form.constants == {name: derived.universe.index(e)
                                                                for name, e in derived.constants.items()}
            assert set(form.tables) == set(rebuilt.form.tables) and form.functions == rebuilt.form.functions
            for name in form.tables:
                assert FuzzySubset.from_predicate(derived, name) == FuzzySubset.from_predicate(rebuilt, name)
            body = il.parse_formula("INT R(x, g(c, y)) dx -> P(y)", gen.VOC) if derived.constants.get("c") \
                else il.parse_formula("ALL x. R(x, g(d, y))", gen.VOC)
            for m in derived.universe:
                assert il.evaluate(body, derived, {"y": m}) == oracle.evaluate(body, rebuilt, {"y": m})

    @pytest.mark.parametrize("seed", range(16))
    def test_relabelled_transports_along_the_image(self, seed):
        # the checking constructor, given every element moved along the image, builds the relabelled form;
        # from size 3 the image is no involution, so a relabelling along its inverse fails here
        rng = random.Random(seed)
        size = seed % 4 + 1
        model = gen.random_model(rng, size)  # unary and binary predicates and functions, constants, approx
        image = tuple(rng.sample(range(size), size))
        while size > 2 and all(image[image[i]] == i for i in range(size)):
            image = tuple(rng.sample(range(size), size))
        move = {m: model.universe[j] for m, j in zip(model.universe, image)}
        moved = lambda key: tuple(map(move.__getitem__, key))
        expected = WeakProbModel(
            model.universe, {move[m]: w for m, w in model.measure.items()},
            {name: {moved(key): v for key, v in table.items()} for name, table in model.predicates.items()},
            {name: {moved(key): move[v] for key, v in table.items()} for name, table in model.functions.items()},
            {name: move[m] for name, m in model.constants.items()})
        assert relabelled(model.form, image) == expected.form
        assert isomorphic(model, expected)

    def test_reduct_drops_symbols(self):
        model = model_from_json(MODEL_DOC)
        small = reduct(model, il.Vocabulary(predicates=(("P", 1),)))
        assert "swap" not in small.functions
        assert small.constants == {}

    def test_reduct_missing_symbol(self):
        model = model_from_json(MODEL_DOC)
        with pytest.raises(errors.NotSubvocabulary):
            reduct(model, il.Vocabulary(predicates=(("Zap", 1),)))

    def test_rename_bijection(self):
        model = model_from_json(MODEL_DOC)
        renamed = rename(model, {"P": "Q", "swap": "rot", "c": "k"})
        assert set(renamed.predicates) == {"Q"}
        assert set(renamed.functions) == {"rot"}
        assert renamed.constants == {"k": "a"}

    @pytest.mark.parametrize("mapping", [{"P": "eq"}, {"P": "approx"}, {"swap": "P", "P": "eq"}])
    def test_rename_keeps_the_reserved_name_rule(self, mapping):
        model = model_from_json(MODEL_DOC)
        with pytest.raises(errors.FormatError, match="^the reserved predicate '(eq|approx)' must be binary$"):
            rename(model, mapping)

    def test_rename_collision_rejected(self):
        model = WeakProbModel(("a",), {"a": Fraction(1)},
                              {"P": {("a",): Fraction(1)}, "Q": {("a",): Fraction(0)}}, {}, {})
        with pytest.raises(errors.FormatError):
            rename(model, {"P": "Q"})

    def test_isomorphic_to_itself(self):
        model = model_from_json(MODEL_DOC)
        assert isomorphic(model, model)

    def test_isomorphic_under_relabeling(self):
        model = model_from_json(MODEL_DOC)
        relabeled = relabel_universe(model, {"a": "x2", "b": "x1"})
        assert isomorphic(model, relabeled)

    def test_not_isomorphic_when_values_differ(self):
        left = uniform2(Fraction(1), Fraction(0))
        right = uniform2(HALF, HALF)
        assert not isomorphic(left, right)

    def test_isomorphic_distinguishes_measure(self):
        left = WeakProbModel(("a", "b"), {"a": Fraction(1, 4), "b": Fraction(3, 4)},
                             {"P": {("a",): Fraction(1), ("b",): Fraction(1)}}, {}, {})
        right = WeakProbModel(("a", "b"), {"a": Fraction(1, 3), "b": Fraction(2, 3)},
                              {"P": {("a",): Fraction(1), ("b",): Fraction(1)}}, {}, {})
        assert not isomorphic(left, right)

    def test_universe_cap(self):
        names = tuple(f"e{i}" for i in range(9))
        weights = {n: Fraction(1, 9) for n in names}
        model = WeakProbModel(names, weights, {}, {}, {})
        with pytest.raises(errors.UniverseTooLarge):
            isomorphic(model, model)

    @pytest.mark.parametrize("change", ["measure", "predicate values", "constant names",
                                        "arity", "symbol names"])
    def test_invariants_decide_without_relabelling(self, change, monkeypatch):
        names = tuple(f"e{i}" for i in range(8))
        uniform = {n: Fraction(1, 8) for n in names}
        unary = {"P": {(n,): Fraction(i % 2) for i, n in enumerate(names)}}
        left = WeakProbModel(names, uniform, unary, {"f": {(n,): n for n in names}}, {"c": "e0"})
        right = {
            "measure": lambda: WeakProbModel(
                names, {n: Fraction(1 + (i < 4), 12) for i, n in enumerate(names)},
                unary, left.functions, left.constants),
            "predicate values": lambda: WeakProbModel(
                names, uniform, {"P": {(n,): Fraction(i % 2, 2) for i, n in enumerate(names)}},
                left.functions, left.constants),
            "constant names": lambda: WeakProbModel(names, uniform, unary, left.functions, {"d": "e0"}),
            "arity": lambda: WeakProbModel(
                names, uniform, unary, {"f": {(m, n): n for m in names for n in names}}, left.constants),
            "symbol names": lambda: WeakProbModel(names, uniform, {"Q": unary["P"]}, left.functions,
                                                  left.constants),
        }[change]()
        relabellings = []
        relabel = il.model.relabelled
        monkeypatch.setattr(il.model, "relabelled", lambda *args: relabellings.append(args) or relabel(*args))
        assert not isomorphic(left, right)
        assert relabellings == []

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=4),
           st.sampled_from(["relabelled", "swapped", "independent"]))
    def test_isomorphic_agrees_with_brute_force(self, seed, size, how):
        rng = random.Random(seed)
        vocs = (il.Vocabulary(predicates=(("P", 1),)),
                il.Vocabulary(predicates=(("P", 1), ("R", 2)), functions=(("f", 1),), constants=("c",)),
                il.Vocabulary(predicates=(("R", 2),), constants=("c", "d")))
        left = gen.random_model(rng, size, rng.choice(vocs))
        if how == "independent":
            right = gen.random_model(rng, size, rng.choice(vocs))
        else:
            image = [f"r{i}" for i in range(size)]
            rng.shuffle(image)
            right = relabel_universe(left, dict(zip(left.universe, image)))
            # listed in name order, every element moves to the position its new name sorts to
            right = WeakProbModel(sorted(right.universe), right.measure, right.predicates, right.functions,
                                  right.constants)
        if how == "swapped":
            # exchange two entries of one table: every multiset stays, the structure may not
            name = rng.choice(sorted(right.predicates))
            table = dict(right.predicates[name])
            one, two = rng.sample(sorted(table), 2) if len(table) > 1 else (next(iter(table)),) * 2
            table[one], table[two] = table[two], table[one]
            right = WeakProbModel(right.universe, right.measure, {**right.predicates, name: table},
                                  right.functions, right.constants)
        assert isomorphic(left, right) == oracle.isomorphic(left, right)

    def test_expand_by_constants(self):
        model = uniform2()
        expanded = expand_by_constants(model)
        assert expanded.constants["a"] == "a" and expanded.constants["b"] == "b"
        # idempotent on the same names
        assert expand_by_constants(expanded).constants == expanded.constants

    @pytest.mark.parametrize("elements, message", [
        (["a", "z"], "'z' is not an element of the universe"),
        (["c"], "constant name 'c' is already taken"),
        (["P"], "name 'P' is already a symbol of the model"),
        (["swap"], "name 'swap' is already a symbol of the model"),
    ])
    def test_expand_by_constants_errors(self, elements, message):
        # the universe names an element like the constant `c`, the predicate `P` and the function `swap`
        model = WeakProbModel(("a", "c", "P", "swap"), {m: Fraction(1, 4) for m in ("a", "c", "P", "swap")},
                              {"P": {(m,): Fraction(1) for m in ("a", "c", "P", "swap")}},
                              {"swap": {(m,): m for m in ("a", "c", "P", "swap")}}, {"c": "a"})
        with pytest.raises(errors.FormatError, match=f"^{message}$"):
            expand_by_constants(model, elements)

    @pytest.mark.parametrize("name", sorted(RESERVED_NAMES))
    def test_expand_by_constants_rejects_a_reserved_element_name(self, name):
        model = WeakProbModel((name, "b"), {name: HALF, "b": HALF}, {"P": {(name,): 1, ("b",): 0}}, {}, {})
        message = f"^element '{name}' cannot name a constant: the name is reserved$"
        with pytest.raises(errors.FormatError, match=message):
            expand_by_constants(model)
        assert expand_by_constants(model, ["b"]).constants == {"b": "b"}
        # the substructure check expands both models by the first one's elements, so it raises too
        pool = [il.parse_formula("EX x. P(x)")]
        with pytest.raises(errors.FormatError, match=message):
            check_elementary_substructure(model, model, pool, ApproximationSystem.diagonal(tuple(pool)))

    def test_expand_by_constants_keeps_a_constant_naming_its_own_element(self):
        model = WeakProbModel(("a", "b"), {"a": HALF, "b": HALF}, {}, {}, {"a": "a", "k": "b"})
        assert expand_by_constants(model).constants == {"a": "a", "k": "b", "b": "b"}
        # relabelled, the constant `c` names the element it points at
        relabelled = relabel_universe(uniform2(), {"a": "c", "b": "d"})
        assert relabelled.constants == {"c": "c"}
        expanded = expand_by_constants(relabelled)
        assert expanded.constants == {"c": "c", "d": "d"}
        assert expanded == WeakProbModel(("c", "d"), {"c": HALF, "d": HALF}, {"P": {("c",): 1, ("d",): 0}}, {},
                                         {"c": "c", "d": "d"})
        with pytest.raises(errors.FormatError, match="^constant name 'c' is already taken$"):
            expand_by_constants(relabel_universe(uniform2(), {"a": "d", "b": "c"}))
