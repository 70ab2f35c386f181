import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import intlogic as il
from intlogic import errors
from intlogic.evaluate import compile_formula, evaluate, evaluate_closed, value_matrix
from intlogic.model import (
    WeakProbModel,
    integer_form,
    model_from_json,
    model_to_json,
    reduct,
    relabel_universe,
    rename,
)
from intlogic.validate import exhaustive_models
from intlogic.syntax import (
    And,
    Atom,
    Constant,
    Exists,
    Forall,
    Implies,
    Integral,
    Not,
    Or,
    StrongAnd,
    StrongOr,
    TruthConst,
    Variable,
    infer_vocabulary,
    rename_symbols,
)

import gen
import oracle

F = Fraction
HALF = F(1, 2)

Phi_x = Atom("Phi", (Variable("x"),))


def three_constant_model():
    """Three named elements with Phi-values 1/2, 4/5, 1 under a uniform measure."""
    universe = ("n1", "n2", "n3")
    return WeakProbModel(
        universe,
        {m: F(1, 3) for m in universe},
        {"Phi": {("n1",): HALF, ("n2",): F(4, 5), ("n3",): F(1)}},
        {},
        {"c1": "n1", "c2": "n2", "c3": "n3"},
    )


def two_element_model(p_a=F(1), p_b=F(0)):
    return WeakProbModel(
        ("a", "b"),
        {"a": HALF, "b": HALF},
        {"P": {("a",): p_a, ("b",): p_b}},
        {},
        {"c": "a"},
    )


class TestConnectives:
    def test_implication_values(self):
        model = two_element_model(F(7, 10), F(3, 10))
        P_c = Atom("P", (Constant("c"),))
        P_x = Atom("P", (Variable("x"),))
        assert evaluate(Implies(P_c, P_x), model, {"x": "b"}) == F(3, 5)
        assert evaluate(Implies(P_x, P_c), model, {"x": "b"}) == 1

    def test_quantifiers_on_worked_model(self):
        model = three_constant_model()
        assert evaluate_closed(Exists("x", Phi_x), model) == 1
        assert evaluate_closed(Forall("x", Phi_x), model) == HALF

    def test_weak_and_or_are_min_max(self):
        model = two_element_model(F(3, 4), F(1, 4))
        P_a = Atom("P", (Constant("c"),))
        formula_and = And(P_a, TruthConst(HALF))
        formula_or = Or(P_a, TruthConst(HALF))
        assert evaluate_closed(formula_and, model) == HALF
        assert evaluate_closed(formula_or, model) == F(3, 4)

    def test_strong_connectives(self):
        model = two_element_model(F(3, 4), F(1, 4))
        P_c = Atom("P", (Constant("c"),))
        assert evaluate_closed(StrongAnd(P_c, TruthConst(HALF)), model) == F(1, 4)
        assert evaluate_closed(StrongOr(P_c, TruthConst(HALF)), model) == 1


class TestEvalClosed:
    def test_truth_constant(self):
        assert evaluate_closed(TruthConst(HALF), two_element_model()) == HALF

    def test_integral_expectation(self):
        assert evaluate_closed(Integral("x", Atom("P", (Variable("x"),))), two_element_model()) == HALF

    def test_not_a_sentence(self):
        with pytest.raises(errors.NotASentence):
            evaluate_closed(Atom("P", (Variable("x"),)), two_element_model())

    def test_unbound_variable(self):
        with pytest.raises(errors.UnboundVariable):
            evaluate(Atom("P", (Variable("x"),)), two_element_model(), {})

    def test_unknown_symbol(self):
        with pytest.raises(errors.UnknownSymbol):
            evaluate_closed(Atom("Zap", (Constant("c"),)), two_element_model())


class TestDualsAndLaws:
    def setup_method(self):
        self.rng = random.Random(11)
        self.models = [gen.random_model(self.rng, size=s) for s in (1, 2, 3)]

    def _sentences(self, count=60):
        return [gen.random_sentence(self.rng, depth=3) for _ in range(count)]

    def test_quantifier_duality(self):
        for model in self.models:
            for _ in range(40):
                body = gen.random_formula(self.rng, depth=2, scope=("x",))
                lhs = evaluate_closed(Not(Forall("x", body)), model)
                rhs = evaluate_closed(Exists("x", Not(body)), model)
                assert lhs == rhs

    def test_integral_duality(self):
        for model in self.models:
            for _ in range(40):
                body = gen.random_formula(self.rng, depth=2, scope=("x",))
                lhs = evaluate_closed(Integral("x", Not(body)), model)
                rhs = 1 - evaluate_closed(Integral("x", body), model)
                assert lhs == rhs

    def test_integral_of_variable_free_body(self):
        for model in self.models:
            for sentence in self._sentences(30):
                assert evaluate_closed(Integral("x", sentence), model) == \
                    evaluate_closed(sentence, model)

    def test_truth_constant_laws(self):
        from intlogic.rational import implies

        model = self.models[1]
        for _ in range(40):
            r = gen.random_rational(self.rng)
            s = gen.random_rational(self.rng)
            assert evaluate_closed(Not(TruthConst(r)), model) == 1 - r
            assert evaluate_closed(Implies(TruthConst(r), TruthConst(s)), model) == implies(r, s)

    def test_threshold_reading_of_implication(self):
        for model in self.models:
            for sentence in self._sentences(30):
                value = evaluate_closed(sentence, model)
                for r in (F(0), F(1, 4), HALF, F(3, 4), F(1)):
                    at_most = evaluate_closed(Implies(sentence, TruthConst(r)), model)
                    at_least = evaluate_closed(Implies(TruthConst(r), sentence), model)
                    assert (at_most == 1) == (value <= r)
                    assert (at_least == 1) == (value >= r)

    def test_connective_orderings(self):
        for model in self.models:
            for _ in range(40):
                a = gen.random_sentence(self.rng, depth=2)
                b = gen.random_sentence(self.rng, depth=2)
                v_and = evaluate_closed(And(a, b), model)
                v_or = evaluate_closed(Or(a, b), model)
                v_strong = evaluate_closed(StrongAnd(a, b), model)
                assert v_strong <= v_and <= v_or


class TestStructureInvariance:
    def setup_method(self):
        self.rng = random.Random(23)

    def test_reduct_preserves_value(self):
        for _ in range(25):
            model = gen.random_model(self.rng, size=2)
            sentence = gen.random_sentence(self.rng, depth=3)
            small = reduct(model, infer_vocabulary(sentence))
            assert evaluate_closed(sentence, model) == evaluate_closed(sentence, small)

    def test_renaming_preserves_value(self):
        mapping = {"P": "Pr", "Q": "Qr", "R": "Rr", "f": "fr", "g": "gr", "c": "cr", "d": "dr"}
        for _ in range(25):
            model = gen.random_model(self.rng, size=2)
            sentence = gen.random_sentence(self.rng, depth=3)
            assert evaluate_closed(sentence, model) == \
                evaluate_closed(rename_symbols(sentence, mapping), rename(model, mapping))

    def test_relabeling_preserves_value(self):
        for _ in range(25):
            model = gen.random_model(self.rng, size=3)
            sentence = gen.random_sentence(self.rng, depth=3)
            flipped = dict(zip(model.universe, reversed(model.universe)))
            assert evaluate_closed(sentence, model) == \
                evaluate_closed(sentence, relabel_universe(model, flipped))


def test_value_matrix_shape():
    model = two_element_model(F(3, 4), F(1, 4))
    matrix = value_matrix(Atom("P", (Variable("x"),)), "x", model)
    assert matrix.values == {("a",): F(3, 4), ("b",): F(1, 4)}


# ---------------------------------------------------------------------------
# Differential: the compiled evaluator against the recursive oracle

DIFF = settings(max_examples=150, deadline=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=1, max_value=3)

#: Values and weights with denominators 1, 2, 3 and 6: D and M are then lcms
#: of several denominators, and every INT level rescales by M.
MIXED_GRID = (F(0), F(1, 3), F(1, 2), F(5, 6), F(1))


def outcome(thunk):
    try:
        return ("value", thunk())
    except Exception as exc:  # the error class is the datum compared
        return ("error", type(exc).__name__)


def mixed_model(rng, size):
    spec = il.ModelGenSpec(size=size, value_grid=MIXED_GRID, measure_grid=MIXED_GRID,
                           seed=rng.randrange(2**32), count=1)
    return next(il.generate_models(spec, gen.VOC))


def assert_agree(formula, model, valuation=None):
    if valuation is None:
        new = outcome(lambda: evaluate_closed(formula, model))
        old = outcome(lambda: oracle.evaluate_closed(formula, model))
    else:
        new = outcome(lambda: evaluate(formula, model, valuation))
        old = outcome(lambda: oracle.evaluate(formula, model, valuation))
    assert new == old, f"{il.print_formula(formula)} on {il.model_to_json(model)}"


class TestDifferential:
    @DIFF
    @given(seed=seeds, size=sizes, depth=st.integers(min_value=1, max_value=4))
    def test_toplevel_formulas(self, seed, size, depth):
        rng = random.Random(seed)
        model = gen.random_model(rng, size=size)
        assert_agree(gen.random_toplevel(rng, depth), model, {})
        assert_agree(gen.random_sentence(rng, depth), model)

    @DIFF
    @given(seed=seeds, size=sizes, depth=st.integers(min_value=1, max_value=4))
    def test_quantifier_equalities(self, seed, size, depth):
        rng = random.Random(seed)
        model = gen.random_model(rng, size=size)
        sentence = gen.random_toplevel(rng, depth)
        while not isinstance(sentence, il.QuantEq):
            sentence = gen.random_toplevel(rng, depth)
        assert_agree(sentence, model)

    @DIFF
    @given(seed=seeds, size=sizes, depth=st.integers(min_value=0, max_value=3))
    def test_mixed_denominators_and_nested_integrals(self, seed, size, depth):
        rng = random.Random(seed)
        model = mixed_model(rng, size)
        inner = gen.random_formula(rng, depth, ("x", "y"))
        other = gen.random_formula(rng, depth, ("x",))
        connective = rng.choice((il.And, il.Or, il.StrongAnd, il.StrongOr, il.Implies))
        nested = il.Integral("x", connective(il.Integral("y", inner), other))
        assert_agree(nested, model, {})
        assert_agree(il.Not(connective(nested, gen.random_sentence(rng, depth + 1))), model, {})
        assert_agree(gen.random_sentence(rng, depth + 1), model)

    @DIFF
    @given(seed=seeds, size=sizes, depth=st.integers(min_value=0, max_value=4))
    def test_open_formulas(self, seed, size, depth):
        rng = random.Random(seed)
        model = rng.choice((gen.random_model, mixed_model))(rng, size)
        formula = gen.random_formula(rng, depth, ("x", "y"))
        full = {name: rng.choice(model.universe) for name in gen.VAR_POOL}
        assert_agree(formula, model, full)
        missing = dict(full)
        del missing[rng.choice(gen.VAR_POOL)]
        assert_agree(formula, model, missing)
        var = rng.choice(gen.VAR_POOL)
        assert outcome(lambda: value_matrix(formula, var, model, missing)) == \
            outcome(lambda: oracle.value_matrix(formula, var, model, missing))

    @DIFF
    @given(seed=seeds, size=sizes, depth=st.integers(min_value=1, max_value=4))
    def test_reduct_lacking_a_symbol(self, seed, size, depth):
        rng = random.Random(seed)
        model = gen.random_model(rng, size=size)
        voc = gen.VOC
        dropped = rng.choice([("predicates", p) for p in voc.predicates]
                             + [("functions", f) for f in voc.functions]
                             + [("constants", c) for c in voc.constants])
        kept = {key: tuple(s for s in getattr(voc, key) if (key, s) != dropped)
                for key in ("predicates", "functions", "constants")}
        small = reduct(model, il.Vocabulary(**kept, has_approx=rng.random() < 0.5))
        assert_agree(gen.random_toplevel(rng, depth), small, {})
        assert_agree(gen.random_sentence(rng, depth), small)


    @DIFF
    @given(seed=seeds, size=sizes, depth=st.integers(min_value=0, max_value=3))
    def test_generated_models_and_truth_constants_off_their_grid(self, seed, size, depth):
        # 1/3 and 2/7 divide neither the default grid's lcm nor the mixed grid's, so the
        # tables the formula reads are rescaled when binding
        rng = random.Random(seed)
        if rng.random() < 0.5:
            model = rng.choice((gen.random_model, mixed_model))(rng, size)
        else:
            spec = il.ModelGenSpec(size=1, value_grid=rng.choice((il.DEFAULT_GRID, MIXED_GRID)),
                                   exhaustive=True)
            models = exhaustive_models(spec, gen.VOC, eq=True)
            model = next(itertools.islice(models, rng.randrange(625), None))
        constant = il.TruthConst(rng.choice((F(1, 3), F(2, 7))))
        connective = rng.choice((il.And, il.Or, il.StrongAnd, il.StrongOr, il.Implies))
        body = gen.random_formula(rng, depth, ("x",))
        assert_agree(il.Integral("x", connective(constant, body)), model, {})
        assert_agree(connective(gen.random_sentence(rng, depth), constant), model)
        assert_agree(gen.random_sentence(rng, depth + 1), model)


def test_binding_a_model_twice():
    # a model loaded from JSON is built by the checking constructor; its integer form
    # is computed on the first binding, and the rescaling of an off-grid constant
    # must leave it untouched
    model = model_from_json(model_to_json(gen.random_model(random.Random(11), size=3)))
    formulas = [il.parse_formula(text, gen.VOC) for text in
                ("INT (rat(1/3) -> P(x)) & R(x, c) dx", "ALL x. EX y. R(x, y) -> P(f(y))")]
    compiled = [compile_formula(f) for f in formulas]
    first = [bound(model)() for bound in compiled]
    form = integer_form(model)
    assert [bound(model)() for bound in compiled] == first
    assert integer_form(model) is form
    assert first == [oracle.evaluate_closed(f, model) for f in formulas]


def test_each_missing_symbol_kind_raises_unknown_symbol():
    model = reduct(gen.random_model(random.Random(3)),
                   il.Vocabulary(predicates=(("P", 1),), constants=("c",)))
    for text in ("Q(c)", "P(f(c))", "P(d)", "ALL x. approx(x, x)", "INT P(x) & R(x, x) dx"):
        formula = il.parse_formula(text, gen.VOC)
        with pytest.raises(errors.UnknownSymbol):
            evaluate_closed(formula, model)
        assert_agree(formula, model)
