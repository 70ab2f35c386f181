"""Three roads to the same integral: expectation, dissections, layer cake.

The expectation form sum f(m)mu(m) is what the evaluator uses.  The
dissection form recomputes it as a supremum over every set partition of the
universe (a brute-force oracle), and the layer-cake form rebuilds it from
level sets.  On finite models all three agree exactly, in exact rationals.

Run with: python3 demos/integral_trio.py
"""

import random
from fractions import Fraction as F

from intlogic import (
    FuzzySubset,
    WeakProbModel,
    integral_dirac,
    integral_dissection,
    integral_expectation,
    integral_layercake,
    level_set,
    set_partitions,
)
from intlogic.integrals import DISSECTION_MAX_UNIVERSE
from intlogic.rational import DEFAULT_GRID
from intlogic.validate import grid_fuzzy_subsets, grid_measures, random_fuzzy_subset, universe_names

model = WeakProbModel(
    universe=("a", "b", "c"),
    measure={"a": F(1, 6), "b": F(1, 3), "c": F(1, 2)},
    predicates={}, functions={}, constants={},
)

f = FuzzySubset(("a", "b", "c"), {("a",): F(3, 4), ("b",): F(1, 4), ("c",): F(1, 2)})

print("f =", dict(f.values), "under mu =", dict(model.measure))
print()
print("  expectation :", integral_expectation(f, model))
print("  dissections :", integral_dissection(f, model),
      f"(sup over {len(set_partitions(3))} partitions of a 3-element universe)")
print("  layer cake  :", integral_layercake(f, model))
print()

print("Level sets behind the layer cake (strict thresholds):")
for alpha in (F(0), F(1, 4), F(1, 2), F(3, 4)):
    print(f"  {{x : f(x) > {alpha}}} =", sorted(level_set(f, alpha)))
print()

crisp = FuzzySubset(("a", "b", "c"), {("a",): F(1), ("b",): F(0), ("c",): F(1)})
print("For a crisp subset the integral is just the measure of its truth set:")
print("  expectation :", integral_expectation(crisp, model))
print("  Dirac form  :", integral_dirac(crisp, model))
print()

print("Exhaustive agreement over every grid-valued f and grid measure, |M| = 2:")
checked = 0
for measure in grid_measures(2, DEFAULT_GRID):
    two = WeakProbModel(("a", "b"), measure, {}, {}, {})
    for subset in grid_fuzzy_subsets(("a", "b"), DEFAULT_GRID):
        e = integral_expectation(subset, two)
        assert integral_dissection(subset, two) == e == integral_layercake(subset, two)
        checked += 1
print(f"  {checked} triples checked, zero mismatches")
print()

print(f"Seeded agreement at every universe size up to the dissection's cap, |M| <= {DISSECTION_MAX_UNIVERSE}:")
rng = random.Random(29)
for size in range(1, DISSECTION_MAX_UNIVERSE + 1):
    names = universe_names(size)
    # some elements weigh 0, never the last
    weights = [rng.randint(0, 4) for _ in names[1:]] + [rng.randint(1, 4)]
    sized = WeakProbModel(names, {m: F(w, sum(weights)) for m, w in zip(names, weights)}, {}, {}, {})
    total = F(0)
    for _ in range(20):
        subset = random_fuzzy_subset(names, DEFAULT_GRID, rng)
        e = integral_expectation(subset, sized)
        assert integral_dissection(subset, sized) == e == integral_layercake(subset, sized)
        total += e
    print(f"  |M| = {size}: 20 seeded subsets agree, their integrals sum to {total}")
