import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import intlogic as il
from intlogic import errors
from intlogic.evaluate import compile_formula, compile_integers, evaluate, evaluate_closed, value_matrix
from intlogic.model import (
    WeakProbModel,
    model_from_json,
    model_to_json,
    reduct,
    relabel_universe,
    rename,
)
from intlogic.satisfaction import LevelConfig, hsat_qeq
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
        model = self.models[1]
        for _ in range(40):
            r = gen.random_rational(self.rng)
            s = gen.random_rational(self.rng)
            assert evaluate_closed(Not(TruthConst(r)), model) == 1 - r
            assert evaluate_closed(Implies(TruthConst(r), TruthConst(s)), model) == oracle.implies(r, s)

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
    spec = il.ModelGenSpec(size=size, grid=MIXED_GRID, seed=rng.randrange(2**32), count=1)
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
        sides = [nested, rng.choice((il.Forall, il.Exists, il.Integral))("x", other)]
        rng.shuffle(sides)  # '=' between sides of different INT heights
        assert_agree(il.QuantEq(*sides), model)

    @DIFF
    @given(seed=seeds, size=sizes, depth=st.integers(min_value=1, max_value=4))
    def test_quantifier_equalities_at_explicit_levels(self, seed, size, depth):
        rng = random.Random(seed)
        model = rng.choice((gen.random_model, mixed_model))(rng, size)
        sentence = gen.random_toplevel(rng, depth)
        while not isinstance(sentence, il.QuantEq):
            sentence = gen.random_toplevel(rng, depth)
        left, right = sentence.left, sentence.right
        attained = sorted({v for side in (left, right)
                           for v in oracle.value_matrix(side.body, side.var, model).values.values()
                           if 0 < v < 1})
        # levels attained by a side or not, with denominators that need not divide the scale
        levels = sorted({rng.choice(attained) if attained and rng.random() < 0.5
                         else F(rng.randint(1, d - 1), d)
                         for d in rng.choices((2, 3, 5, 7, 12), k=rng.randint(1, 4))})
        pairs = [(rng.randrange(len(levels)), rng.randrange(len(levels)))
                 for _ in range(rng.randint(1, 4))]
        cfg = LevelConfig(tuple(levels), tuple(pairs))
        assert outcome(lambda: hsat_qeq(left, right, model, cfg)) == \
            outcome(lambda: oracle.hsat_qeq(left, right, model, cfg)), \
            f"{il.print_formula(sentence)} at {cfg} on {il.model_to_json(model)}"

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
            spec = il.ModelGenSpec(size=1, grid=rng.choice((il.DEFAULT_GRID, MIXED_GRID)), exhaustive=True)
            models = exhaustive_models(spec, gen.VOC, eq=True)
            model = next(itertools.islice(models, rng.randrange(625), None))
        constant = il.TruthConst(rng.choice((F(1, 3), F(2, 7))))
        connective = rng.choice((il.And, il.Or, il.StrongAnd, il.StrongOr, il.Implies))
        body = gen.random_formula(rng, depth, ("x",))
        assert_agree(il.Integral("x", connective(constant, body)), model, {})
        assert_agree(connective(gen.random_sentence(rng, depth), constant), model)
        assert_agree(gen.random_sentence(rng, depth + 1), model)


@DIFF
@given(seed=seeds, depth=st.integers(min_value=0, max_value=3))
def test_every_bound_formula_keeps_its_own_view(seed, depth):
    # one compiled formula bound to models that share their universe, D and M and to
    # models that do not; every value is read again after all the binds
    rng = random.Random(seed)
    names = rng.choice(((), ("x",), ("x", "y")))
    formula = gen.random_toplevel(rng, depth) if rng.random() < 0.3 else gen.random_formula(rng, depth, names)
    if rng.random() < 0.3:  # a truth constant off the grids rescales the tables when binding
        formula = il.StrongOr(formula, il.TruthConst(rng.choice((F(1, 3), F(2, 7)))))
    size = rng.randint(1, 3)
    models = []
    for grid in (il.DEFAULT_GRID, MIXED_GRID, (F(0), F(1))):
        spec = il.ModelGenSpec(size=size, grid=grid, seed=rng.randrange(2**32), count=rng.randint(1, 4))
        models += il.generate_models(spec, gen.VOC, eq=True)
    models.append(gen.random_model(rng, size=rng.randint(1, 3)))
    rng.shuffle(models)
    compiled = compile_formula(formula, names)
    bound = [(model, compiled(model)) for model in models]
    for model, value in bound:
        for elements in itertools.product(model.universe, repeat=len(names)):
            valuation = dict(zip(names, elements))
            assert outcome(lambda: value(elements)) == outcome(lambda: oracle.evaluate(formula, model, valuation)), \
                f"{il.print_formula(formula)} at {valuation} on {il.model_to_json(model)}"


def test_binding_a_model_twice():
    # a model loaded from JSON is built by the checking constructor, which makes its integer
    # form; the rescaling of an off-grid constant must leave the form's rows untouched
    model = model_from_json(model_to_json(gen.random_model(random.Random(11), size=3)))
    formulas = [il.parse_formula(text, gen.VOC) for text in
                ("INT (rat(1/3) -> P(x)) & R(x, c) dx", "ALL x. EX y. R(x, y) -> P(f(y))")]
    compiled = [compile_formula(f) for f in formulas]
    form = model.form
    tables, functions = dict(form.tables), dict(form.functions)
    first = [bound(model)() for bound in compiled]
    assert [bound(model)() for bound in compiled] == first
    assert model.form is form and form.tables == tables and form.functions == functions
    assert first == [oracle.evaluate_closed(f, model) for f in formulas]


def test_each_missing_symbol_kind_raises_unknown_symbol():
    model = reduct(gen.random_model(random.Random(3)),
                   il.Vocabulary(predicates=(("P", 1),), constants=("c",)))
    for text in ("Q(c)", "P(f(c))", "P(d)", "ALL x. approx(x, x)", "INT P(x) & R(x, x) dx"):
        formula = il.parse_formula(text, gen.VOC)
        with pytest.raises(errors.UnknownSymbol):
            evaluate_closed(formula, model)
        assert_agree(formula, model)


# ---------------------------------------------------------------------------
# Positions: the evaluator reads tables by element position, not by name

#: element names that sort in another order than any universe drawn from them lists them
POSITION_NAMES = ("e10", "e2", "b", "a")


@st.composite
def unsorted_models(draw):
    """`(model, rng)`: a model over 1-4 elements out of sorted order, by the checking constructor.

    It interprets P, Q, R, approx, eq (the crisp identity), f, g, c and d;
    every table lists its keys in a shuffled order, and the values and
    weights have denominators 1, 2, 3 and 6.
    """
    rng = random.Random(draw(seeds))
    size = draw(st.integers(min_value=1, max_value=4))
    universe = draw(st.permutations(POSITION_NAMES))[:size]
    universe = tuple(reversed(universe) if universe == sorted(universe) else universe)

    def table(arity, value):
        keys = list(itertools.product(universe, repeat=arity))
        rng.shuffle(keys)
        return {key: value(key) for key in keys}

    def graded(key):
        return rng.choice(MIXED_GRID)

    def element(key):
        return rng.choice(universe)

    draws = [rng.choice(MIXED_GRID[1:]) for _ in universe]
    measure = {m: w / sum(draws) for m, w in zip(universe, draws)}
    predicates = {"P": table(1, graded), "Q": table(1, graded), "R": table(2, graded),
                  "approx": table(2, graded), "eq": table(2, lambda key: F(key[0] == key[1]))}
    functions = {"f": table(1, element), "g": table(2, element)}
    constants = {"c": rng.choice(universe), "d": rng.choice(universe)}
    return WeakProbModel(universe, measure, predicates, functions, constants), rng


@settings(max_examples=150, deadline=None)
@given(case=unsorted_models(), depth=st.integers(min_value=0, max_value=3))
def test_compile_integers_on_unsorted_universes(case, depth):
    # nested unary and binary function terms, constants, eq, approx and `=`, with every variable of
    # the pool a free name; compared with the oracle, which reads the tables by element name
    model, rng = case
    names = gen.VAR_POOL
    formula = gen.random_toplevel(rng, depth + 1)
    if rng.random() < 0.5:
        eq = Atom("eq", (gen.random_term(rng, names, 2), gen.random_term(rng, names, 2)))
        formula = rng.choice((il.And, il.Implies, il.StrongOr))(formula, eq)
    numerator, scale = compile_integers(formula, names)(model)
    valuations = list(itertools.product(model.universe, repeat=len(names)))
    for elements in rng.sample(valuations, min(12, len(valuations))):
        expected = outcome(lambda: oracle.evaluate(formula, model, dict(zip(names, elements))))
        assert outcome(lambda: F(numerator(elements), scale)) == expected, \
            f"{il.print_formula(formula)} at {elements} on {il.model_to_json(model)}"


#: `(text, error class, message)` of the first error in reading order, where every argument of an atom or
#: a function term comes before its table: a missing predicate or function with an unbound argument or a
#: missing constant, and the same under `=`; on `ERROR_ORDER_MODEL`, which lacks Q, S, f, h and k
ERROR_ORDER = [
    ("Q(z)", "UnboundVariable", "variable 'z' has no value in the valuation"),
    ("R(z, z)", "UnboundVariable", "variable 'z' has no value in the valuation"),
    ("R(c, z)", "UnboundVariable", "variable 'z' has no value in the valuation"),
    ("EX x. Q(x) & Q(z)", "UnknownSymbol", "predicate 'Q' is not interpreted"),
    ("P(f(k))", "UnknownSymbol", "constant 'k' is not interpreted"),
    ("R(k, f(c))", "UnknownSymbol", "constant 'k' is not interpreted"),
    ("R(f(c), k)", "UnknownSymbol", "function 'f' is not interpreted"),
    ("P(g(f(c), k))", "UnknownSymbol", "function 'f' is not interpreted"),
    ("P(g(k, f(c)))", "UnknownSymbol", "constant 'k' is not interpreted"),
    ("Q(f(k))", "UnknownSymbol", "constant 'k' is not interpreted"),
    ("Q(f(z))", "UnboundVariable", "variable 'z' has no value in the valuation"),
    ("P(g(c, f(z)))", "UnboundVariable", "variable 'z' has no value in the valuation"),
    ("S(c, z)", "UnboundVariable", "variable 'z' has no value in the valuation"),
    ("S(z, c)", "UnboundVariable", "variable 'z' has no value in the valuation"),
    ("P(h(c, k))", "UnknownSymbol", "constant 'k' is not interpreted"),
    ("S(c, h(c, z))", "UnboundVariable", "variable 'z' has no value in the valuation"),
    ("(INT Q(z) dx) = (INT P(x) dx)", "NotASentence", "formula has free variables: z"),
    ("(INT P(x) dx) = (INT Q(z) dy)", "NotASentence", "formula has free variables: z"),
    ("(INT P(f(k)) dx) = (INT P(x) dx)", "UnknownSymbol", "constant 'k' is not interpreted"),
    ("(INT P(x) dx) = (INT R(x, f(k)) dx)", "UnknownSymbol", "constant 'k' is not interpreted"),
    ("(INT Q(x) dx) = (INT P(f(x)) dx)", "UnknownSymbol", "predicate 'Q' is not interpreted"),
    ("(ALL x. Q(x)) = (INT P(x) dx)", "UnknownSymbol", "predicate 'Q' is not interpreted"),
]
ERROR_ORDER_VOC = il.Vocabulary(predicates=(("P", 1), ("Q", 1), ("R", 2), ("S", 2)),
                                functions=(("f", 1), ("g", 2), ("h", 2)), constants=("c", "k"))
ERROR_ORDER_MODEL = reduct(gen.random_model(random.Random(5), size=2),
                           il.Vocabulary(predicates=(("P", 1), ("R", 2)), functions=(("g", 2),), constants=("c",)))


@pytest.mark.parametrize("text, kind, message", ERROR_ORDER)
def test_error_order(text, kind, message):
    with pytest.raises(getattr(errors, kind)) as raised:
        evaluate(il.parse_formula(text, ERROR_ORDER_VOC), ERROR_ORDER_MODEL, {})
    assert str(raised.value) == message


#: library input the vocabulary check of the parser would reject: `(text, valuation, error, message)` on
#: `BAD_INPUT_MODEL`, whose `R` is binary and whose `P` and `f` are unary
BAD_INPUT = [
    ("ALL x. R(x)", {}, "ArityMismatch", "predicate 'R' has arity 2, but is read with 1 argument"),
    ("EX x. P(x, x)", {}, "ArityMismatch", "predicate 'P' has arity 1, but is read with 2 arguments"),
    ("INT P(f(x, x)) dx", {}, "ArityMismatch", "function 'f' has arity 1, but is read with 2 arguments"),
    ("INT R(x, x) & R(x, y, x) dx", {"y": "a"}, "ArityMismatch",
     "predicate 'R' has arity 2, but is read with 3 arguments"),
    ("P(x)", {"x": "zz"}, "FormatError", "'zz' is not an element of the universe"),
    ("INT R(x, y) dx", {"y": "zz"}, "FormatError", "'zz' is not an element of the universe"),
]
BAD_INPUT_MODEL = WeakProbModel(("a", "b", "c"), {"a": F(1, 2), "b": F(1, 4), "c": F(1, 4)},
                                {"R": {(x, y): F(1, 3) for x in "abc" for y in "abc"},
                                 "P": {"a": F(1), "b": F(0), "c": HALF}},
                                {"f": {"a": "b", "b": "c", "c": "a"}}, {})
#: the four ways the library evaluates a formula under a valuation
EVALUATORS = {
    "evaluate": lambda formula, model, valuation: evaluate(formula, model, valuation),
    "evaluate_closed": lambda formula, model, valuation: evaluate_closed(formula, model),
    "compile_formula": lambda formula, model, valuation: compile_formula(formula, tuple(valuation))(model)(
        tuple(valuation.values())),
    "compile_integers": lambda formula, model, valuation: compile_integers(formula, tuple(valuation))(model)[0](
        tuple(valuation.values())),
}


@pytest.mark.parametrize("evaluator, text, valuation, kind, message", [
    (evaluator, *case) for case in BAD_INPUT for evaluator in sorted(EVALUATORS)
    if evaluator != "evaluate_closed" or not case[1]])  # evaluate_closed takes sentences only
def test_bad_input_raises_an_intlogic_error(evaluator, text, valuation, kind, message):
    with pytest.raises(getattr(errors, kind)) as raised:
        EVALUATORS[evaluator](il.parse_formula(text), BAD_INPUT_MODEL, valuation)
    assert str(raised.value) == message


def test_cold_and_kept_rows_give_the_same_values():
    # a model made by the checking constructor holds every symbol's rows from the start; binds that
    # read them again agree with the first binds and with binds on a fresh model of the same file
    texts = ("INT R(x, f(c)) dx", "EX x. P(g(x, d)) & R(d, x)", "ALL x. (INT approx(x, y) dy) -> Q(f(x))",
             "P(c) |+| rat(1/3)")
    formulas = [il.parse_formula(text, gen.VOC) for text in texts]
    binds = [compile_integers(formula) for formula in formulas]
    for seed in range(12):
        document = model_to_json(gen.random_model(random.Random(seed), size=1 + seed % 3))
        kept = model_from_json(document)
        assert set(kept.form.tables) == {"P", "Q", "R", "approx"} and set(kept.form.functions) == {"f", "g"}
        first = [bind(kept) for bind in binds]
        again = [bind(kept) for bind in binds]
        cold = [bind(model_from_json(document)) for bind in binds]
        values = [[numerator() for numerator, _ in bound] for bound in (first, again, cold)]
        scales = [[scale for _, scale in bound] for bound in (first, again, cold)]
        assert values[0] == values[1] == values[2] and scales[0] == scales[1] == scales[2]
        assert [F(n, s) for n, s in zip(values[0], scales[0])] == \
            [oracle.evaluate_closed(formula, kept) for formula in formulas]
