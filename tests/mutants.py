"""A catalogue of mutants of the package, each with the tests expected to kill it.

A mutant replaces one exact snippet `old` of one module under
`src/intlogic/` with `new`.  Run as a script from the repository root,

    python tests/mutants.py [ID ...]

it copies `src` to a temporary directory once per mutant, applies that
mutant alone, runs the mutant's tests against the copy with pytest and
prints `killed` or `survived` (with pytest's exit code) for each of the
named mutants, or for all of them.  It exits 1 when any mutant survives.
`tests/test_mutants.py` checks only that every `old` snippet occurs exactly
once in today's source; a change that moves such code updates its entry
here.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    file: str  #: the module's path under src/intlogic/
    old: str
    new: str
    tests: tuple[str, ...]  #: pytest node ids, relative to the repository root


MUTANTS = [
    Mutant(
        "lexer-ignores-bad-characters", "parser.py",
        'if "BAD" in kinds:',
        'if "BAD" in kinds[:0]:',
        ("tests/test_parser.py::test_error_type_message_and_span",
         "tests/test_parser.py::test_long_input_is_rejected_in_linear_time"),
    ),
    Mutant(
        "nesting-cap-off-by-one", "parser.py",
        "if self.depth == MAX_NESTING:",
        "if self.depth == MAX_NESTING + 1:",
        ("tests/test_parser.py::test_error_type_message_and_span",),
    ),
    Mutant(
        "binary-chain-depth-not-counted", "parser.py",
        "left, depth = make(left, right), max(depth, right_depth) + 1",
        "left, depth = make(left, right), max(depth, right_depth)",
        ("tests/test_parser.py::test_error_type_message_and_span",),
    ),
    Mutant(
        "token-column-off-by-one", "parser.py",
        'return self.start - self.source.rfind("\\n", 0, self.start)',
        'return self.start - self.source.rfind("\\n", 0, self.start) + 1',
        ("tests/test_parser.py::test_tokens_locate_their_text",
         "tests/test_parser.py::test_error_type_message_and_span"),
    ),
    Mutant(
        "output-flag-skips-the-last-command", "cli.py",
        "for p in sub.choices.values():",
        "for p in list(sub.choices.values())[:-1]:",
        ("tests/test_cli.py::test_help_and_usage_bytes_are_pinned",),
    ),
    Mutant(
        "dirac-case-loses-its-universe-check", "satisfaction.py",
        "_require(subset, model.universe, 1)",
        "_require(subset, subset.universe, 1)",
        ("tests/test_satisfaction.py::test_dirac_case_rejects_malformed_subsets",),
    ),
    Mutant(
        "dirac-case-swaps-f-and-g", "satisfaction.py",
        "_levels_agree(f.row, g.row, model.form.weight_row, 1, None)",
        "_levels_agree(g.row, f.row, model.form.weight_row, 1, None)",
        ("tests/test_satisfaction.py::TestDiracCase",
         "tests/test_satisfaction.py::TestAgainstTheOracle::test_dirac_case"),
    ),
    Mutant(
        "rename-keeps-the-old-form-keys", "model.py",
        "tables = {ren(n): rows for n, rows in form.tables.items()}",
        "tables = dict(form.tables)",
        ("tests/test_model.py::TestStructureOps::test_relabelling_and_reduct_carry_the_integer_form",
         "tests/test_model.py::TestStructureOps::test_rename_keeps_the_reserved_name_rule"),
    ),
    Mutant(
        "model-equality-reads-unreduced-form", "model.py",
        "form = _reduced(self.form)\n        return (self.universe,",
        "form = self.form\n        return (self.universe,",
        ("tests/test_model.py::TestModelContract::test_grid_and_loaded_models_are_equal",),
    ),
    Mutant(
        "materialiser-transposes-binary-rows", "validate.py",
        "rows[kind][name] = choice",
        "rows[kind][name] = tuple(zip(*choice)) if type(choice[0]) is tuple else choice",
        ("tests/test_validate.py::TestTrustedGeneration::test_exhaustive_models",
         "tests/test_validate.py::TestTrustedGeneration::test_random_models",
         "tests/test_validate.py::TestGolden::test_first_random_models"),
    ),
    Mutant(
        "orbit-pruning-on-a-tie", "validate.py",
        "if j < i:",
        "if j <= i:",
        ("tests/test_validate.py::TestSweepDifferential::test_pruned_steps_as_the_brute_force_reference",
         "tests/test_validate.py::TestPlanCache::test_cold_and_warm_plans_enumerate_as_the_oracle"),
    ),
    Mutant(
        "tight-loop-drops-the-last-choice", "validate.py",
        "yield indices, last",
        "if i + 1 < radices[last]: yield indices, last",
        ("tests/test_validate.py::TestSweepDifferential::test_pruned_steps_as_the_brute_force_reference",
         "tests/test_validate.py::TestPlanCache::test_cold_and_warm_plans_enumerate_as_the_oracle"),
    ),
    Mutant(
        "free-kept-when-the-whole-model-ties", "validate.py",
        "free = n + 1\n            return False",
        "return False",
        ("tests/test_validate.py::TestSweepDifferential::test_pruned_steps_as_the_brute_force_reference",
         "tests/test_validate.py::TestPlanCache::test_cold_and_warm_plans_enumerate_as_the_oracle"),
    ),
    Mutant(
        "never-re-sweep", "validate.py",
        "yield from itertools.islice(records(False), 1, None)",
        "pass",
        ("tests/test_validate.py::TestViolationRecords::test_records",
         "tests/test_validate.py::TestPrunedAxiomChecks::test_report_as_on_every_model",
         "tests/test_validate.py::TestPrunedAxiomChecks::test_full_sweeps_only_for_failing_instantiations"),
    ),
    Mutant(
        "re-sweep-repeats-the-first-record", "validate.py",
        "yield from itertools.islice(records(False), 1, None)",
        "yield from records(False)",
        ("tests/test_validate.py::TestViolationRecords::test_records",),
    ),
    Mutant(
        # a set's best starts from its first split, so the whole set is never one block unless it is a singleton
        "dissection-drops-the-whole-set-candidate", "integrals.py",
        'lines.append(f"b{s} = s{s}")',
        'lines.append(f"b{s} = s{splits[0][0]} + b{splits[0][1]}" if splits else f"b{s} = s{s}")',
        ("tests/test_integrals.py::TestDissection::test_recursion_is_the_maximum_over_every_partition",),
    ),
    Mutant(
        "layer-cake-drops-its-last-term", "integrals.py",
        "total + level * mass",
        "total",
        ("tests/test_integrals.py::TestLayercake::test_hand_computed",
         "tests/test_integrals.py::TestLayercake::test_matches_the_fraction_oracle"),
    ),
    Mutant(
        "slice-first-over-the-wrong-axis", "integrals.py",
        "_slice_row(h, model, True)",
        "_slice_row(h, model, False)",
        ("tests/test_integrals.py::TestSlices::test_slice_values",
         "tests/test_integrals.py::TestAgainstFractionSums::test_slices_and_double_sum"),
    ),
    Mutant(
        "law-strong-or-row-unclamped", "integrals.py",
        "min(den, x + y)",
        "x + y",
        ("tests/test_integrals.py::TestIntegralLaws::test_all_laws_on_uniform_grid",
         "tests/test_integrals.py::TestLawsAgainstFractionLoop::test_integral_call_sequence"),
    ),
    Mutant(
        "law-complement-row-uncomplemented", "integrals.py",
        "tuple([f.den - x for x in f.row])",
        "f.row",
        ("tests/test_integrals.py::TestIntegralLaws::test_all_laws_on_uniform_grid",
         "tests/test_integrals.py::TestLawsAgainstFractionLoop::test_integral_call_sequence"),
    ),
    Mutant(
        "law-rows-kept-without-the-grid", "validate.py",
        "key, draw = (universe, grid), lambda",
        "key, draw = (universe,), lambda",
        ("tests/test_validate.py::TestLawSampleCache::test_grid_orders_are_kept_apart",),
    ),
    Mutant(
        "evaluator-strong-or-unclamped", "evaluate.py",
        "return v if v < top else top",
        "return v",
        ("tests/test_evaluate.py::TestConnectives::test_strong_connectives",
         "tests/test_evaluate.py::TestDifferential::test_toplevel_formulas"),
    ),
    Mutant(
        # a side of a connective or of `=` stays on its own scale, S_e, instead of moving to S_(e+d)
        "evaluator-alignment-drops-the-power", "evaluate.py",
        "return lambda view, env: closure(view, env) * view[p]",
        "return closure",
        ("tests/test_evaluate.py::TestDifferential::test_mixed_denominators_and_nested_integrals",),
    ),
    Mutant(
        "constants-read-the-wrong-element", "model.py",
        "return {name: self.universe[i] for name, i in self.form.constants.items()}",
        "return {name: self.universe[i - 1] for name, i in self.form.constants.items()}",
        ("tests/test_model.py::TestLoading::test_json_round_trip",
         "tests/test_model.py::TestStructureOps::test_expand_by_constants_keeps_a_constant_naming_its_own_element",
         "tests/test_validate.py::TestTrustedGeneration::test_random_models"),
    ),
    Mutant(
        # every element is integrated with another's weight unless the measure is sorted by position
        "stage-sorts-the-weights", "evaluate.py",
        "view[self.pairs] = tuple(enumerate(weight_row))",
        "view[self.pairs] = tuple(enumerate(sorted(weight_row)))",
        ("tests/test_evaluate.py::TestDifferential::test_toplevel_formulas",
         "tests/test_satisfaction.py::TestHsatQeq::test_level_set_difference_with_null_mass",
         "tests/test_validate.py::TestViolationRecords::test_records"),
    ),
    Mutant(
        # a sorted position map reads every free name's element at the wrong position on an unsorted universe
        "bind-maps-the-sorted-universe", "evaluate.py",
        "at = dict(zip(model.universe, range(len(model.universe))))",
        "at = dict(zip(sorted(model.universe), range(len(model.universe))))",
        ("tests/test_evaluate.py::test_compile_integers_on_unsorted_universes",),
    ),
    Mutant(
        # `->` prints its left operand bare and the other tiers their right one, so each reparses the other way
        "printer-flips-associativity", "parser.py",
        "left_level, right_level = tier + (tier == 1), tier + (tier != 1)",
        "left_level, right_level = tier + (tier != 1), tier + (tier == 1)",
        ("tests/test_parser.py::TestRoundTrip::test_seeded_round_trip",
         "tests/test_parser.py::TestRoundTrip::test_hypothesis_round_trip"),
    ),
    Mutant(
        "rebuilt-reverses-the-parts", "syntax.py",
        "return type(formula)(*map(part, parts)) if parts else formula",
        "return type(formula)(*map(part, parts[::-1])) if parts else formula",
        ("tests/test_syntax.py::TestSubstitute::test_quant_eq_side_binding_the_variable_unchanged",
         "tests/test_syntax.py::TestRenameSymbols::test_renames_all_kinds"),
    ),
    Mutant(
        # each model's isomorphic image is the model itself, so no position moves
        "closure-image-is-the-model", "validate.py",
        "relabeled = WeakProbModel._trusted(model.universe, relabelled(model.form, reversal))",
        "relabeled = WeakProbModel._trusted(model.universe, model.form)",
        ("tests/test_validate.py::TestClosureProperties::test_isomorphic_images_move_positions",),
    ),
    Mutant(
        "relabelled-leaves-function-values", "model.py",
        "functions={name: carried(rows, image) for name, rows in form.functions.items()}",
        "functions={name: carried(rows) for name, rows in form.functions.items()}",
        ("tests/test_model.py::TestStructureOps::test_relabelled_transports_along_the_image",
         "tests/test_model.py::TestStructureOps::test_isomorphic_agrees_with_brute_force"),
    ),
    Mutant(
        # the same as the image for an involution, such as check-closure's reversal; `isomorphic` tries every
        # permutation and its inverse alike, so only transport along a longer cycle tells the two apart
        "relabelled-moves-along-the-inverse", "model.py",
        "source = sorted(range(len(image)), key=image.__getitem__)",
        "source, image = image, sorted(range(len(image)), key=image.__getitem__)",
        ("tests/test_model.py::TestStructureOps::test_relabelled_transports_along_the_image",),
    ),
]


def source(mutant: Mutant, root: Path = ROOT) -> str:
    return (root / "src" / "intlogic" / mutant.file).read_text()


def run(mutant: Mutant) -> int:
    """pytest's exit code on the mutant's tests, with `src` replaced by a mutated copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        text = source(mutant, Path(tmp))
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.id}: the old snippet does not occur exactly once")
        (copy / "intlogic" / mutant.file).write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode


def main(ids: list[str]) -> int:
    chosen = [m for m in MUTANTS if not ids or m.id in ids]
    unknown = set(ids) - {m.id for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutant ids: {sorted(unknown)}")
    survived = 0
    for mutant in chosen:
        code = run(mutant)
        if code not in (0, 1, 2):  # 2: interrupted, as by a collection error
            raise SystemExit(f"{mutant.id}: pytest could not run its tests (exit {code})")
        survived += code == 0
        print(f"{'survived' if code == 0 else 'killed'} (pytest exit {code})  {mutant.id}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
