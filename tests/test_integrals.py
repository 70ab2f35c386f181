import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from intlogic import errors
from intlogic.integrals import (
    DISSECTION_MAX_UNIVERSE,
    _best_dissection,
    _expectation,
    _kernel,
    check_family_closure,
    check_prepared_laws,
    check_semantic_integral_laws,
    check_similarity_lipschitz,
    double_sum,
    integral_dirac,
    integral_dissection,
    integral_expectation,
    integral_layercake,
    prepare_law_samples,
    set_partitions,
    slice_first,
    slice_second,
)
from intlogic.model import FuzzySubset, WeakProbModel, mu_set
from intlogic.rational import DEFAULT_GRID, ZERO
from intlogic.validate import grid_fuzzy_subsets, grid_measures

import oracle
from oracle import implies, pointwise

F = Fraction
HALF = F(1, 2)


def model2(mu_a=HALF, mu_b=HALF):
    return WeakProbModel(("a", "b"), {"a": mu_a, "b": mu_b}, {}, {}, {})


def fs(**values):
    universe = tuple(sorted(values))
    return FuzzySubset(universe, {(k,): v for k, v in values.items()})


class TestExpectation:
    def test_constant_function(self):
        model = model2()
        assert integral_expectation(FuzzySubset.constant(model.universe, F(1, 3)), model) == F(1, 3)

    def test_characteristic_function_equals_measure(self):
        model = model2()
        f = fs(a=F(1), b=F(0))
        assert integral_expectation(f, model) == HALF
        assert integral_expectation(f, model) == mu_set(model, oracle.level_set(f, ZERO), 1)
        assert integral_dirac(f, model) == mu_set(model, oracle.level_set(f, ZERO), 1)

    def test_weighted_sum(self):
        model = model2(F(1, 4), F(3, 4))
        f = fs(a=HALF, b=F(1, 3))
        assert integral_expectation(f, model) == F(3, 8)


class TestSetPartitions:
    def test_bell_numbers(self):
        for n, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
            assert len(set_partitions(n)) == bell

    def test_blocks_partition_the_range(self):
        for partition in set_partitions(4):
            flat = sorted(i for block in partition for i in block)
            assert flat == [0, 1, 2, 3]

    @pytest.mark.parametrize("n", [-1, -1000, 2.5, 3.0, "3", None])
    def test_a_negative_or_non_integer_size_is_a_value_error(self, n):
        with pytest.raises(ValueError, match="non-negative integer"):
            set_partitions(n)

    def test_nothing_is_held_once_the_result_is_dropped(self):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            partitions = set_partitions(9)
            assert len(partitions) == 21147
            del partitions
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 2 ** 20


@st.composite
def levelled_subsets(draw):
    """A unary subset on a model over 1-6 elements, whose weights may be 0.

    The values are k/d for one drawn d up to 12, so they often tie, or the
    row is all 0s or all 1s.
    """
    names = tuple(f"e{i}" for i in range(draw(st.integers(min_value=1, max_value=6))))
    raw = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=len(names), max_size=len(names)).filter(any))
    model = WeakProbModel(names, {m: F(w, sum(raw)) for m, w in zip(names, raw)}, {}, {}, {})
    kind = draw(st.sampled_from(("levels", "zeros", "ones")))
    if kind == "levels":
        den = draw(st.integers(min_value=1, max_value=12))
        values = [F(draw(st.integers(min_value=0, max_value=den)), den) for _ in names]
    else:
        values = [F(kind == "ones")] * len(names)
    return FuzzySubset(names, {(m,): v for m, v in zip(names, values)}), model


class TestDissection:
    def test_constant_function(self):
        model = model2()
        assert integral_dissection(FuzzySubset.constant(model.universe, F(2, 7)), model) == F(2, 7)

    def test_crisp_best_partition(self):
        model = model2()
        assert integral_dissection(fs(a=F(1), b=F(0)), model) == HALF

    def test_matches_expectation_exhaustively_size2(self):
        grid = DEFAULT_GRID
        for measure in grid_measures(2, grid):
            model = WeakProbModel(("a", "b"), measure, {}, {}, {})
            for f in grid_fuzzy_subsets(("a", "b"), grid):
                assert integral_dissection(f, model) == integral_expectation(f, model)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=0, max_value=6))
    def test_recursion_is_the_maximum_over_every_partition(self, data, n):
        # arbitrary scores, negative and superadditive ones too, so no shortcut can match by chance
        score = [0] + data.draw(st.lists(st.integers(min_value=-1000, max_value=1000),
                                         min_size=(1 << n) - 1, max_size=(1 << n) - 1))
        expected = max(sum(score[sum(1 << i for i in block)] for block in partition)
                       for partition in set_partitions(n))
        assert _best_dissection(score, n) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_fraction_oracle(self, n):
        rng = random.Random(n)
        names = tuple(f"e{i}" for i in range(n))
        for zeros in range(n):
            # `zeros` elements of weight 0, the rest weights with several denominators
            weights = [F(0)] * zeros + [rng.choice(MIXED[1:]) for _ in range(n - zeros)]
            rng.shuffle(weights)
            total = sum(weights)
            model = WeakProbModel(names, {m: w / total for m, w in zip(names, weights)}, {}, {}, {})
            for _ in range(12):
                f = FuzzySubset(names, {(m,): rng.choice(MIXED) for m in names})
                assert integral_dissection(f, model) == oracle.dissection(f, model)

    def test_matches_the_fraction_oracle_at_the_cap(self):
        names = tuple(f"e{i}" for i in range(DISSECTION_MAX_UNIVERSE))
        weights = [F(1, 3), F(0), F(1, 12), F(1, 5), F(1, 30), F(1, 7), F(0)]
        model = WeakProbModel(names, dict(zip(names, [*weights, 1 - sum(weights)])), {}, {}, {})
        f = FuzzySubset(names, {(m,): v for m, v in zip(names, MIXED)})
        assert integral_dissection(f, model) == oracle.dissection(f, model) == integral_expectation(f, model)

    @settings(max_examples=300, deadline=None)
    @given(inputs=levelled_subsets())
    def test_splits_match_the_fraction_oracle(self, inputs):
        """`_best_dissection` on the splits kept per n against the oracle's maximum over every partition."""
        f, model = inputs
        assert integral_dissection(f, model) == oracle.dissection(f, model)

    @pytest.mark.parametrize("n", range(1, DISSECTION_MAX_UNIVERSE + 1))
    def test_every_size_matches_the_fraction_oracle(self, n):
        rng = random.Random(100 + n)
        names = tuple(f"e{i}" for i in range(n))
        for _ in range(3):
            weights = [rng.choice(MIXED) for _ in names[1:]] + [rng.choice(MIXED[1:])]
            model = WeakProbModel(names, {m: w / sum(weights) for m, w in zip(names, weights)}, {}, {}, {})
            f = FuzzySubset(names, {(m,): rng.choice(MIXED) for m in names})
            assert integral_dissection(f, model) == oracle.dissection(f, model)

    def test_kernels_cold_and_kept_agree(self):
        """The kernels are built on first use per size, at most one per size the dissection takes."""
        assert _kernel.cache_info().maxsize == DISSECTION_MAX_UNIVERSE
        names = tuple(f"e{i}" for i in range(5))
        model = WeakProbModel(names, dict(zip(names, [F(1, 3), F(0), F(1, 6), F(1, 4), F(1, 4)])), {}, {}, {})
        f = FuzzySubset(names, {(m,): v for m, v in zip(names, MIXED)})
        _kernel.cache_clear()
        cold = integral_dissection(f, model)
        assert _kernel.cache_info().currsize == 1
        assert integral_dissection(f, model) == cold == oracle.dissection(f, model)

    def test_universe_cap(self):
        names = tuple(f"e{i}" for i in range(9))
        model = WeakProbModel(names, {n: F(1, 9) for n in names}, {}, {}, {})
        f = FuzzySubset.constant(names, HALF)
        with pytest.raises(errors.UniverseTooLarge):
            integral_dissection(f, model)


class TestLayercake:
    def test_hand_computed(self):
        # layers: (1/3)*mu{f>=1/3} + (1/2-1/3)*mu{f>=1/2} = 1/3*1 + 1/6*1/4
        model = model2(F(1, 4), F(3, 4))
        f = fs(a=HALF, b=F(1, 3))
        assert integral_layercake(f, model) == F(1, 3) + F(1, 6) * F(1, 4) == F(3, 8)

    def test_constant(self):
        model = model2()
        assert integral_layercake(FuzzySubset.constant(model.universe, F(5, 7)), model) == F(5, 7)

    def test_zero(self):
        model = model2()
        assert integral_layercake(FuzzySubset.constant(model.universe, F(0)), model) == 0

    @settings(max_examples=300, deadline=None)
    @given(inputs=levelled_subsets())
    def test_matches_the_fraction_oracle(self, inputs):
        f, model = inputs
        assert integral_layercake(f, model) == oracle.layercake(f, model)


class TestDirac:
    def test_crisp_reduces_to_measure(self):
        model = model2()
        assert integral_dirac(fs(a=F(1), b=F(0)), model) == HALF

    def test_rejects_non_crisp(self):
        model = model2()
        with pytest.raises(errors.NotCrisp):
            integral_dirac(fs(a=HALF, b=F(0)), model)


class TestIntegralLaws:
    def test_all_laws_on_uniform_grid(self):
        model = model2()
        unary = list(grid_fuzzy_subsets(("a", "b"), DEFAULT_GRID))
        pairs = [(f, g) for f in unary for g in unary]
        bivariate = list(grid_fuzzy_subsets(("a", "b"), DEFAULT_GRID, arity=2))
        report = check_semantic_integral_laws(model, pairs, bivariate)
        assert report.ok
        assert report.checked == len(DEFAULT_GRID) + 3 * len(pairs) + len(bivariate)

    def test_complement_law_at_one(self):
        model = model2()
        f = FuzzySubset.constant(model.universe, F(1))
        lhs = integral_expectation(pointwise(lambda x: 1 - x, f), model)
        assert lhs == 0 == 1 - integral_expectation(f, model)

    def test_implication_law_strict_witness(self):
        model = model2()
        f = fs(a=F(1), b=F(0))
        g = fs(a=F(0), b=F(1))
        lhs = integral_expectation(pointwise(implies, f, g), model)
        rhs = implies(integral_expectation(f, model), integral_expectation(g, model))
        assert lhs == HALF and rhs == 1 and lhs < rhs

    def test_product_subset_iterates_to_product_of_sums(self):
        model = model2(F(1, 4), F(3, 4))
        f = fs(a=HALF, b=F(1, 3))
        g = fs(a=F(1), b=F(1, 4))
        h = FuzzySubset(
            model.universe,
            {(a, b): f.values[(a,)] * g.values[(b,)]
             for a in model.universe for b in model.universe},
        )
        expected = integral_expectation(f, model) * integral_expectation(g, model)
        assert integral_expectation(slice_second(h, model), model) == expected
        assert integral_expectation(slice_first(h, model), model) == expected
        assert double_sum(h, model) == expected

    def test_violation_is_reported_not_raised(self):
        # a deliberately wrong "integral" breaks the constant law
        model = model2()
        report = check_semantic_integral_laws(
            model, constants=(HALF,), integral=lambda den, row, form: (0, 1))
        assert not report.ok
        assert report.violations[0]["law"] == "constant"


class TestSlices:
    # h is not symmetric and the weights differ, so a swapped axis shows
    H = {("a", "a"): F(1), ("a", "b"): HALF, ("b", "a"): F(0), ("b", "b"): F(1, 3)}

    def test_slice_values(self):
        model = model2(F(1, 4), F(3, 4))
        h = FuzzySubset(model.universe, self.H)
        # g(y) = h(a,y)/4 + h(b,y)*3/4 and g(x) = h(x,a)/4 + h(x,b)*3/4
        assert slice_first(h, model).values == {("a",): F(1, 4), ("b",): F(3, 8)}
        assert slice_second(h, model).values == {("a",): F(5, 8), ("b",): F(1, 4)}
        assert double_sum(h, model) == F(11, 32)

    def test_keys_out_of_universe_order(self):
        model = model2(F(1, 4), F(3, 4))
        h = FuzzySubset(model.universe, dict(reversed(self.H.items())))
        assert slice_first(h, model).values == {("a",): F(1, 4), ("b",): F(3, 8)}
        assert slice_second(h, model).values == {("a",): F(5, 8), ("b",): F(1, 4)}
        f = FuzzySubset(model.universe, {("b",): F(1, 3), ("a",): HALF})
        assert (f.den, f.row) == (6, (3, 2))
        for integral in (integral_expectation, integral_layercake, integral_dissection):
            assert integral(f, model) == F(3, 8)


class TestUniverseChecks:
    MODEL = model2(F(1, 4), F(3, 4))

    @staticmethod
    def binary(universe):
        return FuzzySubset(universe, {key: HALF for key in itertools.product(universe, repeat=2)})

    @pytest.mark.parametrize("universe", [("a", "c"), ("b", "a")])
    @pytest.mark.parametrize("integrate", [slice_first, slice_second, double_sum])
    def test_bivariate_over_another_universe(self, integrate, universe):
        with pytest.raises(errors.FormatError):
            integrate(self.binary(universe), self.MODEL)

    @pytest.mark.parametrize("universe", [("a", "c"), ("b", "a")])
    def test_pointwise_over_another_universe(self, universe):
        f = fs(a=F(1), b=F(0))
        g = FuzzySubset(universe, {(m,): HALF for m in universe})
        for combine in (lambda: pointwise(implies, f, g), lambda: check_family_closure([f, g]),
                        lambda: check_semantic_integral_laws(self.MODEL, [(f, g)])):
            with pytest.raises(errors.FormatError):
                combine()

    @pytest.mark.parametrize("universe", [("a", "c"), ("b", "a")])
    def test_prepared_samples_over_another_universe(self, universe):
        samples = prepare_law_samples(self.MODEL.universe, [(fs(a=F(1), b=F(0)),) * 2])
        model = WeakProbModel(universe, {m: HALF for m in universe}, {}, {}, {})
        with pytest.raises(errors.FormatError, match="law samples over the universe"):
            check_prepared_laws(model, samples)
        assert check_prepared_laws(self.MODEL, samples).checked == len(DEFAULT_GRID) + 3

    @pytest.mark.parametrize("integrate", [slice_first, slice_second, double_sum])
    def test_bivariate_needs_arity_two(self, integrate):
        with pytest.raises(errors.ArityMismatch):
            integrate(fs(a=F(1), b=F(0)), self.MODEL)

    def test_pointwise_needs_one_arity(self):
        f, h = fs(a=F(1), b=F(0)), self.binary(("a", "b"))
        for combine in (lambda: pointwise(implies, f, h), lambda: check_family_closure([f, h]),
                        lambda: check_family_closure([h, f])):
            with pytest.raises(errors.ArityMismatch):
                combine()

    def test_pointwise_checks_values(self):
        with pytest.raises(errors.ValueOutOfRange):
            pointwise(lambda x: x + 1, fs(a=HALF, b=F(0)))


# values with many different denominators, for subsets and (divided by |M|) for measures
MIXED = [F(0), F(1), HALF, F(1, 3), F(2, 5), F(5, 7), F(3, 4), F(1, 6), F(7, 9), F(4, 11)]


@st.composite
def measured_universes(draw):
    """A model over 1-4 elements whose weights have differing denominators."""
    names = ("a", "b", "c", "d")[:draw(st.integers(min_value=1, max_value=4))]
    head = [v / len(names) for v in draw(st.lists(st.sampled_from(MIXED), min_size=len(names) - 1,
                                                  max_size=len(names) - 1))]
    measure = dict(zip(names, [*head, 1 - sum(head, F(0))]))
    return WeakProbModel(names, measure, {}, {}, {})


def drawn_subset(draw, universe, arity):
    """A subset with values from MIXED and its dict keys in a drawn order."""
    keys = draw(st.permutations(list(itertools.product(universe, repeat=arity))))
    return FuzzySubset(universe, {key: draw(st.sampled_from(MIXED)) for key in keys})


class TestAgainstFractionSums:
    """The integer integrals against plain `Fraction` sums over the dict values."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), model=measured_universes())
    def test_unary_integrals(self, data, model):
        f = drawn_subset(data.draw, model.universe, 1)
        expected = sum((f.values[(m,)] * model.measure[m] for m in model.universe), F(0))
        assert integral_expectation(f, model) == expected
        assert integral_layercake(f, model) == expected
        assert integral_dissection(f, model) == expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), model=measured_universes())
    def test_slices_and_double_sum(self, data, model):
        universe, mu = model.universe, model.measure
        h = drawn_subset(data.draw, universe, 2)
        first = {(b,): sum((h.values[(a, b)] * mu[a] for a in universe), F(0)) for b in universe}
        second = {(a,): sum((h.values[(a, b)] * mu[b] for b in universe), F(0)) for a in universe}
        for computed, values in ((slice_first(h, model), first), (slice_second(h, model), second)):
            assert computed.values == values
            validated = FuzzySubset(universe, values)
            assert computed == validated and computed.arity == validated.arity == 1
            assert (computed.den, computed.row) == (validated.den, validated.row)
        total = sum((v * mu[a] * mu[b] for (a, b), v in h.values.items()), F(0))
        assert double_sum(h, model) == total


def squared_sup(f, model):  # deliberately not an integral: it breaks all five laws
    return max(f.values.values()) ** 2


def squared_sup_core(den, row, form):
    """`squared_sup` as a core on integer rows, for `check_semantic_integral_laws`."""
    return max(row) ** 2, den ** 2


@st.composite
def law_inputs(draw):
    """A model, pairs over a small pool of unary subsets and bivariate subsets.

    Each pool subset takes its values either from MIXED or as k/d for one
    drawn d, so the two subsets of a pair often have different
    denominators.  Pairs repeat pool subsets, and a subset may be a pair's
    left side, its right side or both.
    """
    model = draw(measured_universes())
    universe = model.universe
    pool = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            pool.append(drawn_subset(draw, universe, 1))
        else:
            den = draw(st.sampled_from((1, 2, 3, 4, 6, 10)))
            pool.append(FuzzySubset(universe, {(m,): F(draw(st.integers(0, den)), den) for m in universe}))
    index = st.integers(min_value=0, max_value=len(pool) - 1)
    pairs = [(pool[i], pool[j]) for i, j in draw(st.lists(st.tuples(index, index), max_size=8))]
    bivariate = [drawn_subset(draw, universe, 2) for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    return model, pairs, bivariate


class TestLawsAgainstFractionLoop:
    """`check_semantic_integral_laws` on integer rows against the `Fraction` loop in `oracle.law_report`."""

    @settings(max_examples=200, deadline=None)
    @given(inputs=law_inputs(), integrals=st.sampled_from([(_expectation, integral_expectation),
                                                           (squared_sup_core, squared_sup)]))
    def test_same_report(self, inputs, integrals):
        """Each core against its `Fraction` form: the default one and one that breaks every law."""
        model, pairs, bivariate = inputs
        core, integral = integrals
        received = []

        def recording(den, row, form):
            received.append((den, row, form))
            return core(den, row, form)

        constants = (F(0), F(1, 3), F(1))
        report = check_semantic_integral_laws(model, pairs, bivariate, constants, integral=recording)
        expected = oracle.law_report(model, pairs, bivariate, constants, integral=integral)
        assert report.checked == expected.checked
        assert report.violations == expected.violations
        for den, row, form in received:
            assert form is model.form and den > 0
            assert len(row) == len(model.universe) and all(0 <= x <= den for x in row)
        if core is _expectation:
            assert report.ok

    def test_integral_calls_per_distinct_subset(self):
        model = model2(F(1, 4), F(3, 4))
        unary = list(grid_fuzzy_subsets(model.universe, DEFAULT_GRID))
        pairs = [(f, g) for f in unary for g in unary]
        calls = []
        check_semantic_integral_laws(model, pairs, constants=(),
                                     integral=lambda den, row, form: calls.append(row) or (0, 1))
        # f and ~f once per distinct subset, then f -> g, f (+) g and f (x) g per pair
        assert len(calls) == 2 * len(unary) + 3 * len(pairs)

    def test_integral_call_sequence(self):
        """Every core call's `den` and row, in order: denominators 1, 2 and 4, two equal subsets, one bivariate."""
        model = model2(F(1, 4), F(3, 4))
        crisp, halves, quarters = fs(a=F(1), b=F(0)), fs(a=HALF, b=F(1)), fs(a=F(1, 4), b=HALF)
        twin = fs(a=F(1, 4), b=HALF)
        assert twin == quarters and twin is not quarters
        h = FuzzySubset(model.universe, {("a", "a"): F(1), ("a", "b"): HALF, ("b", "a"): F(0), ("b", "b"): F(3, 4)})
        pairs = [(crisp, halves), (quarters, crisp), (halves, twin), (twin, quarters), (crisp, quarters)]
        calls = []
        check_semantic_integral_laws(model, pairs, [h], constants=(F(1, 3),),
                                     integral=lambda den, row, form: calls.append((den, tuple(row))) or (0, 1))
        assert calls == [
            (3, (1, 1)),  # the constant 1/3
            (1, (1, 0)), (2, (1, 2)), (1, (0, 1)),  # crisp, halves, ~crisp
            (2, (1, 2)), (2, (2, 2)), (2, (1, 0)),  # crisp -> halves, (+), (x)
            (4, (1, 2)), (4, (3, 2)),  # quarters, ~quarters
            (4, (4, 2)), (4, (4, 2)), (4, (1, 0)),  # quarters -> crisp, (+), (x)
            (2, (1, 0)),  # ~halves; twin is quarters
            (4, (3, 2)), (4, (3, 4)), (4, (0, 2)),  # halves -> twin, (+), (x)
            (4, (4, 4)), (4, (2, 4)), (4, (0, 0)),  # twin -> quarters, (+), (x)
            (4, (1, 4)), (4, (4, 2)), (4, (1, 0)),  # crisp -> quarters, (+), (x)
            (16, (4, 11)), (16, (10, 9)),  # h's first slice, then its second
        ]

    @pytest.mark.parametrize("g, error", [
        (FuzzySubset(("a", "c"), {("a",): HALF, ("c",): HALF}), errors.FormatError),
        (FuzzySubset(("b", "a"), {("a",): HALF, ("b",): HALF}), errors.FormatError),
        (TestUniverseChecks.binary(("a", "b")), errors.ArityMismatch),
    ])
    def test_pair_that_does_not_match(self, g, error):
        # this integral checks nothing; both sides of a pair must still be unary over the model's universe
        f = fs(a=F(1), b=F(0))
        for pair in ((f, g), (g, f)):
            with pytest.raises(error):
                check_semantic_integral_laws(model2(), [pair], integral=lambda den, row, form: (0, 1))


    @pytest.mark.parametrize("pairs, bivariate, error, message", [
        ([(fs(a=F(1), b=F(0)), FuzzySubset(("a", "c"), {("a",): HALF, ("c",): HALF}))], [], errors.FormatError,
         "fuzzy subset over the universe ('a', 'c'), expected ('a', 'b')"),
        ([(TestUniverseChecks.binary(("a", "b")), fs(a=F(1), b=F(0)))], [], errors.ArityMismatch,
         "expected a fuzzy subset of arity 1, got arity 2"),
        ([], [fs(a=F(1), b=F(0))], errors.ArityMismatch, "expected a fuzzy subset of arity 2, got arity 1"),
    ])
    def test_a_bad_subset_raises_before_any_core_call(self, pairs, bivariate, error, message):
        # the bad subset comes after every grid pair and a good bivariate subset
        model = model2(F(1, 4), F(3, 4))
        unary = list(grid_fuzzy_subsets(model.universe, DEFAULT_GRID))
        calls = []
        with pytest.raises(error) as caught:
            check_semantic_integral_laws(model, [*itertools.product(unary, repeat=2), *pairs],
                                         [TestUniverseChecks.binary(("a", "b")), *bivariate],
                                         integral=lambda den, row, form: calls.append(row) or (0, 1))
        assert type(caught.value) is error and str(caught.value) == message
        assert calls == []


class TestLipschitz:
    @staticmethod
    def with_similarity(sim_table, func_table=None, pred_table=None):
        preds = {"approx": sim_table}
        if pred_table is not None:
            preds["P"] = pred_table
        funcs = {"h": func_table} if func_table is not None else {}
        return WeakProbModel(("a", "b"), {"a": HALF, "b": HALF}, preds, funcs, {})

    def test_crisp_identity_passes(self):
        sim = {("a", "a"): F(1), ("b", "b"): F(1), ("a", "b"): F(0), ("b", "a"): F(0)}
        model = self.with_similarity(sim, func_table={("a",): "b", ("b",): "a"})
        assert check_similarity_lipschitz(model).ok

    def test_total_similarity_passes(self):
        sim = {key: F(1) for key in itertools.product(("a", "b"), repeat=2)}
        model = self.with_similarity(sim, func_table={("a",): "a", ("b",): "a"})
        assert check_similarity_lipschitz(model).ok

    def test_function_violation_detected(self):
        # sim(a,b) = 1 but both map to a with sim(a,a) = 0: 1 <= 0 fails
        sim = {("a", "a"): F(0), ("b", "b"): F(1), ("a", "b"): F(1), ("b", "a"): F(1)}
        model = self.with_similarity(sim, func_table={("a",): "a", ("b",): "a"})
        report = check_similarity_lipschitz(model)
        assert any(v["kind"] == "function-similarity-violation" for v in report.violations)

    def test_predicate_lipschitz_violation(self):
        # P jumps by 1 between fully similar elements
        sim = {key: F(1) for key in itertools.product(("a", "b"), repeat=2)}
        pred = {("a",): F(1), ("b",): F(0)}
        model = self.with_similarity(sim, pred_table=pred)
        report = check_similarity_lipschitz(model)
        assert any(v["kind"] == "predicate-lipschitz-violation" for v in report.violations)

    def test_requires_binary_predicate(self):
        model = model2()
        with pytest.raises(errors.FormatError):
            check_similarity_lipschitz(model)


class TestFamilyClosure:
    def test_full_grid_family_on_singleton_universe(self):
        universe = ("a",)
        family = [FuzzySubset(universe, {("a",): v}) for v in DEFAULT_GRID]
        # implications of grid values can leave the grid (1/4 -> 3/4 = 1 stays, 3/4 -> 1/4 = 1/2 stays)
        report = check_family_closure(family, constants=DEFAULT_GRID)
        assert report.ok

    def test_missing_constant_detected(self):
        universe = ("a",)
        family = [FuzzySubset(universe, {("a",): F(1)})]
        report = check_family_closure(family, constants=(HALF,))
        assert any(v["kind"] == "missing-constant" for v in report.violations)

    @pytest.mark.parametrize("arity", [1, 2])
    def test_constants_at_the_family_arity(self, arity):
        keys = list(itertools.product(("a", "b"), repeat=arity))
        constant = lambda v: FuzzySubset(("a", "b"), {key: v for key in keys})
        report = check_family_closure([constant(v) for v in (F(0), HALF, F(1))], constants=(F(0), HALF, F(1)))
        assert (report.checked, report.violations) == (12, [])
        report = check_family_closure([constant(F(0)), constant(F(1))], constants=(F(0), HALF, F(1)))
        assert (report.checked, report.violations) == (7, [{"kind": "missing-constant", "value": "1/2"}])
        with pytest.raises(errors.ValueOutOfRange):
            check_family_closure([constant(F(0))], constants=(F(3, 2),))

    def test_not_closed_detected(self):
        universe = ("a",)
        family = [FuzzySubset(universe, {("a",): F(3, 4)}),
                  FuzzySubset(universe, {("a",): F(1, 4)})]
        report = check_family_closure(family, constants=())
        assert any(v["kind"] == "not-closed-under-implication" for v in report.violations)


class TestValuesOnlyWhenRead:
    """A subset stores nothing but its integer form; its `Fraction` table is made when it is read."""

    def test_no_values_until_read(self, monkeypatch):
        model = model2(F(1, 4), F(3, 4))
        unary = list(grid_fuzzy_subsets(model.universe, DEFAULT_GRID))
        binary = list(grid_fuzzy_subsets(model.universe, (F(0), HALF, F(1)), 2))
        pairs = [(f, g) for f in unary for g in unary]
        built, read = [], []
        trusted, post_init, values = FuzzySubset._trusted, FuzzySubset.__post_init__, FuzzySubset.values
        monkeypatch.setattr(FuzzySubset, "_trusted", staticmethod(lambda *args: built.append(args) or trusted(*args)))
        monkeypatch.setattr(FuzzySubset, "__post_init__", lambda self, table: built.append(table) or post_init(self, table))
        monkeypatch.setattr(FuzzySubset, "values", property(lambda self: read.append(self) or values.fget(self)))
        report = check_semantic_integral_laws(model, pairs, binary)
        # the checker integrates rows: it builds no subset, by either constructor, and reads no values
        assert report.ok and report.checked == len(DEFAULT_GRID) + 3 * len(pairs) + len(binary)
        assert built == [] and read == []
        monkeypatch.undo()

        slices = [slice_first(h, model) for h in binary] + [slice_second(h, model) for h in binary]
        for subset in unary + slices:
            assert FuzzySubset(subset.universe, subset.values) == subset

        # members given in another key order than the constants and implications are built in
        family = [FuzzySubset(model.universe, {("b",): y, ("a",): x}) for x in DEFAULT_GRID for y in DEFAULT_GRID]
        report = check_family_closure(family, constants=DEFAULT_GRID)
        assert report.ok and report.checked == len(DEFAULT_GRID) + len(family) ** 2

        assert FuzzySubset.__slots__ == ("universe", "arity", "den", "row")
        assert not any(hasattr(subset, "__dict__") for subset in unary + binary + slices + family)

    def test_changing_values_leaves_the_subset(self):
        for subset in (FuzzySubset(("a", "b"), {("a",): F(1, 4), ("b",): HALF}),
                       FuzzySubset._trusted(("a", "b"), 1, 4, [1, 2])):
            same, before = FuzzySubset(subset.universe, subset.values), hash(subset)
            subset.values[("a",)] = F(1)
            subset.values.clear()
            assert subset == same and hash(subset) == before and subset.row == (1, 2)
            assert subset.values == {("a",): F(1, 4), ("b",): HALF}
