import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from intlogic import cli
from intlogic.cli import main
from intlogic.evaluate import evaluate_closed
from intlogic.model import model_from_json
from intlogic.parser import MAX_NESTING, parse_formula, print_formula

F = Fraction

MODEL_DOC = {
    "universe": ["a", "b"],
    "measure": {"a": "1/2", "b": "1/2"},
    "predicates": {"P": {"arity": 1, "table": {"a": "1", "b": "0"}},
                   "Q": {"arity": 1, "table": {"a": "0", "b": "0"}}},
    "functions": {},
    "constants": {"c": "a"},
}

EX2_DOC = {
    "universe": ["n1", "n2", "n3"],
    "measure": {"n1": "1/3", "n2": "1/3", "n3": "1/3"},
    "predicates": {"Phi": {"arity": 1, "table": {"n1": "1/2", "n2": "4/5", "n3": "1"}}},
    "functions": {},
    "constants": {"c1": "n1", "c2": "n2", "c3": "n3"},
}


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(MODEL_DOC))
    return str(path)


@pytest.fixture
def ex2_path(tmp_path):
    path = tmp_path / "ex2.json"
    path.write_text(json.dumps(EX2_DOC))
    return str(path)


class TestEval:
    def test_integral_value(self, model_path, capsys):
        code = main(["eval", "--model", model_path, "--formula", "INT P(x) dx"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1/2"

    def test_json_output(self, model_path, capsys):
        code = main(["eval", "--model", model_path, "--formula", "rat(1/3)", "--output", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"value": "1/3"}

    def test_formula_file(self, model_path, tmp_path, capsys):
        formula_file = tmp_path / "f.txt"
        formula_file.write_text("P(c)\n")
        code = main(["eval", "--model", model_path, "--formula-file", str(formula_file)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_value_past_the_digit_limit(self, output, tmp_path, capsys):
        # the sum's denominator has about 4 400 digits, past the interpreter's default limit of 4 300 for `str(int)`,
        # which used to exit 3
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"universe": ["a"], "measure": {"a": "1"}}))
        p, q = int("9" * 2200), int("9" * 2199 + "7")
        value = F(1, p) + F(1, q)

        def digits(n):  # `str(n)` in chunks, each short enough for `str`
            chunks = []
            while n:
                n, chunk = divmod(n, 10 ** 100)
                chunks.append(chunk)
            return str(chunks[-1]) + "".join(f"{chunk:0100d}" for chunk in reversed(chunks[:-1]))

        formula = f"rat(1/{'9' * 2200}) |+| rat(1/{'9' * 2199}7)"
        assert main(["eval", "--model", str(path), "--formula", formula, "--output", output]) == 0
        out, err = capsys.readouterr()
        text = f"{digits(value.numerator)}/{digits(value.denominator)}"
        assert (out, err) == ((json.dumps({"value": text}) if output == "json" else text) + "\n", "")
        assert len(text) > 6000

    def test_bad_model_exits_2(self, capsys):
        code = main(["eval", "--model", "/definitely/missing.json", "--formula", "P(c)"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_exits_2(self, model_path, capsys):
        code = main(["eval", "--model", model_path, "--formula", "P(x) + Q(x)"])
        assert code == 2
        assert "at line" in capsys.readouterr().err


class TestSat:
    def test_existential_satisfied(self, ex2_path, capsys):
        code = main(["sat", "--model", ex2_path, "--formula", "EX x. Phi(x)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "H-SAT"

    def test_universal_not_satisfied(self, ex2_path, capsys):
        code = main(["sat", "--model", ex2_path, "--formula", "ALL x. Phi(x)"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "NOT H-SAT"

    def test_qeq_formula_through_sat(self, model_path, capsys):
        code = main(["sat", "--model", model_path, "--formula", "INT P(x) dx = INT P(y) dy"])
        assert code == 0

    def test_levels_only_for_quantifier_equality(self, ex2_path, capsys):
        # levels configure '=' alone; on any other sentence they would go unread
        exits_2_with_one_line(["sat", "--model", ex2_path, "--formula", "EX x. Phi(x)",
                               "--levels", "1/2"], capsys)


class TestQeq:
    def test_reflexive(self, model_path, capsys):
        code = main(["qeq", "--model", model_path, "--formula", "INT P(x) dx = INT P(y) dy"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "H-SAT"

    def test_explicit_levels(self, model_path):
        code = main(["qeq", "--model", model_path,
                     "--formula", "INT P(x) dx = INT Q(y) dy",
                     "--levels", "1/2", "--pairs", "0:0"])
        assert code == 1

    def test_containment_violation_is_input_error(self, model_path, capsys):
        code = main(["qeq", "--model", model_path,
                     "--formula", "INT Q(x) dx = INT P(y) dy",
                     "--levels", "1/2", "--pairs", "0:0"])
        assert code == 2
        assert "containment" in capsys.readouterr().err

    def test_non_qeq_rejected(self, model_path):
        assert main(["qeq", "--model", model_path, "--formula", "P(c)"]) == 2


class TestValidateAxioms:
    def test_mu5_exhaustive(self, capsys):
        code = main(["validate-axioms", "--axiom", "mu5", "--exhaustive", "--size", "2"])
        assert code == 0
        assert "0 violations" in capsys.readouterr().out

    def test_custom_grid(self, capsys):
        code = main(["validate-axioms", "--axiom", "mu2", "--exhaustive", "--size", "2",
                     "--grid", "0,1/2,1"])
        assert code == 0

    def test_repeated_grid_value_checked_once(self, capsys):
        code = main(["validate-axioms", "--axiom", "mu1", "--size", "1", "--exhaustive",
                     "--grid", "0,0,1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0 violations (4 checks)"

    @pytest.mark.parametrize("axiom, grid, checks", [
        ("mu1", "0,1/2,1", 1596), ("mu2", "0,1/2,1", 28728), ("mu3", "0,1/2,1", 28215),
        ("mu4", "0,1/2,1", 28215), ("mu5", "0,1", 7168)])
    def test_size_3_counts_every_model(self, axiom, grid, checks, capsys):
        # the checks are decided on orbit-least models, but the count is that of the whole grid
        code = main(["validate-axioms", "--axiom", axiom, "--size", "3", "--grid", grid, "--exhaustive"])
        assert code == 0
        assert capsys.readouterr().out == f"0 violations ({checks} checks)\n"


class TestApproxSat:
    def test_weakening_system(self, model_path, tmp_path, capsys):
        sys_doc = {"sentences": ["P(c)", "P(c) \\/ Q(c)"], "rel": [[0, 1]]}
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps(sys_doc))
        code = main(["approx-sat", "--model", model_path, "--approx-system", str(sys_path),
                     "--formula", "P(c)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "HA-SAT"


class TestValidateApproxSystem:
    def test_diagonal_accepted(self, model_path, tmp_path, capsys):
        sys_doc = {"sentences": ["P(c)", "Q(c)"], "rel": [[0, 0], [1, 1]]}
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps(sys_doc))
        code = main(["validate-approx-system", "--approx-system", str(sys_path),
                     "--model", model_path])
        assert code == 0
        assert "0 violations" in capsys.readouterr().out

    def test_bad_system_rejected(self, model_path, tmp_path, capsys):
        sys_doc = {"sentences": ["P(c) \\/ Q(c)", "Q(c)"], "rel": [[0, 1]]}
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps(sys_doc))
        code = main(["validate-approx-system", "--approx-system", str(sys_path),
                     "--model", model_path])
        assert code == 1


class TestProofCommand:
    def test_valid_proof(self, tmp_path, capsys):
        lines = [
            {"formula": "P(x)", "just": "premise"},
            {"formula": "INT P(x) dx", "just": "int-intro:1,x"},
        ]
        path = tmp_path / "proof.json"
        path.write_text(json.dumps(lines))
        code = main(["check-proof", "--proof", str(path)])
        assert code == 0
        assert "VALID" in capsys.readouterr().out

    def test_invalid_proof_names_line(self, tmp_path, capsys):
        lines = [
            {"formula": "P(x)", "just": "premise"},
            {"formula": "INT Q(x) dx", "just": "int-intro:1,x"},
        ]
        path = tmp_path / "proof.json"
        path.write_text(json.dumps(lines))
        code = main(["check-proof", "--proof", str(path)])
        assert code == 1
        assert "line 2" in capsys.readouterr().out


class TestCountermodel:
    def test_found(self, capsys):
        code = main(["find-countermodel", "--formula", "P(k) \\/ ~P(k)",
                     "--size", "1", "--exhaustive"])
        assert code == 1
        record = json.loads(capsys.readouterr().out)
        assert Fraction(record["value"]) < 1

    def test_not_found(self, capsys):
        code = main(["find-countermodel", "--formula", "rat(1)", "--size", "1", "--exhaustive"])
        assert code == 0
        assert "no countermodel" in capsys.readouterr().out

    def test_term_equality_is_identity(self, capsys):
        code = main(["find-countermodel", "--size", "2", "--formula", "ALL x. eq(x,x)"])
        assert code == 0
        assert capsys.readouterr().out == "no countermodel found\n"

    def test_term_equality_countermodel(self, capsys):
        code = main(["find-countermodel", "--size", "2", "--formula", "ALL x. ALL y. eq(x,y)"])
        assert code == 1
        record = json.loads(capsys.readouterr().out)
        assert record["value"] == "0"
        assert record["model"]["predicates"]["eq"]["table"] == {"a,a": "1", "a,b": "0", "b,a": "0", "b,b": "1"}

    def test_replays_to_its_value(self, capsys):
        formula = "INT P(x) dx -> INT Q(x) dx"
        assert main(["find-countermodel", "--size", "2", "--formula", formula]) == 1
        record = json.loads(capsys.readouterr().out)
        model = model_from_json(record["model"])
        value = evaluate_closed(parse_formula(formula, model.vocabulary()), model)
        assert value == Fraction(record["value"]) < 1


class TestOtherCommands:
    def test_validate_integral_laws_on_model(self, model_path, capsys):
        code = main(["validate-integral-laws", "--model", model_path, "--exhaustive"])
        assert code == 0
        assert capsys.readouterr().out == "0 violations (2505 checks)\n"

    def test_validate_integral_laws_generated_models(self, capsys):
        code = main(["validate-integral-laws", "--size", "2", "--seed", "6", "--count", "20"])
        assert code == 0
        assert capsys.readouterr().out == "0 violations (1700 checks)\n"

    @pytest.mark.parametrize("output, expected", [("text", "0 violations (32565 checks)\n"), ("json", "")],
                             ids=["text", "json"])
    def test_validate_integral_laws_exhaustive(self, output, expected, capsys):
        # 13 grid measures, each with 5 constants, 3 laws on 625 pairs and 625 bivariate subsets
        code = main(["validate-integral-laws", "--exhaustive", "--size", "2", "--output", output])
        assert code == 0
        assert capsys.readouterr().out == expected

    def test_check_closure(self, tmp_path, capsys):
        pool_path = tmp_path / "pool.json"
        pool_path.write_text(json.dumps(["Big(k) -> Big(k)", "INT Big(x) dx"]))
        code = main(["check-closure", "--pool", str(pool_path), "--size", "2",
                     "--seed", "3", "--count", "10"])
        assert code == 0

    def test_gen_models_identity_only_with_eq(self, tmp_path, capsys):
        pool_path = tmp_path / "pool.json"
        for pool, has_eq in ((["P(k)"], False), (["eq(k,k) -> P(k)"], True)):
            pool_path.write_text(json.dumps(pool))
            assert main(["gen-models", "--pool", str(pool_path), "--size", "2", "--count", "2"]) == 0
            for line in capsys.readouterr().out.splitlines():
                assert ("eq" in json.loads(line)["predicates"]) == has_eq

    def test_gen_models_deterministic(self, capsys):
        argv = ["gen-models", "--size", "2", "--seed", "9", "--count", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert len(first.strip().splitlines()) == 3

    def test_gen_models_repeated_grid_value(self, capsys):
        assert main(["gen-models", "--size", "1", "--exhaustive", "--grid", "0,0,1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert len(set(lines)) == 2

    def test_congruence(self, model_path, capsys):
        code = main(["congruence", "--model", model_path, "--relation", "approx"])
        assert code == 0
        out = capsys.readouterr().out
        assert "approx(x1,y1)" in out

    def test_check_substructure(self, tmp_path, capsys):
        small = {
            "universe": ["a"], "measure": {"a": "1"},
            "predicates": {"P": {"arity": 1, "table": {"a": "1"}}},
            "functions": {}, "constants": {},
        }
        large = {
            "universe": ["a", "b"], "measure": {"a": "1/2", "b": "1/2"},
            "predicates": {"P": {"arity": 1, "table": {"a": "1", "b": "0"}}},
            "functions": {}, "constants": {},
        }
        small_path = tmp_path / "small.json"
        large_path = tmp_path / "large.json"
        small_path.write_text(json.dumps(small))
        large_path.write_text(json.dumps(large))
        pool_path = tmp_path / "pool.json"
        pool_path.write_text(json.dumps(["P(a)"]))
        code = main(["check-substructure", "--model", str(small_path), "--model", str(large_path),
                     "--pool", str(pool_path)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "SUBSTRUCTURE"

        pool_path.write_text(json.dumps(["ALL x. P(x)"]))
        code = main(["check-substructure", "--model", str(small_path), "--model", str(large_path),
                     "--pool", str(pool_path)])
        assert code == 1

        capsys.readouterr()
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps({"sentences": ["P(a)"], "rel": [[0, 0]]}))
        code = main(["check-substructure", "--model", str(small_path), "--model", str(large_path),
                     "--pool", str(pool_path), "--approx-system", str(sys_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: sentence not in the pool: ALL x. P(x)\n"

    def test_check_weak_negation(self, model_path, tmp_path, capsys):
        sys_doc = {"sentences": ["P(c)", "~P(c)", "~~P(c)"], "rel": [[0, 0], [1, 1], [2, 2]]}
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps(sys_doc))
        pool_path = tmp_path / "pool.json"
        pool_path.write_text(json.dumps(["P(c)", "~P(c)"]))
        code = main(["check-weak-negation", "--approx-system", str(sys_path),
                     "--pool", str(pool_path), "--model", model_path])
        assert code == 0


# One element, so quantifier nests evaluate once per level.
ONE_ELEMENT_DOC = {
    "universe": ["a"],
    "measure": {"a": "1"},
    "predicates": {"P": {"arity": 1, "table": {"a": "1/2"}}},
    "functions": {"f": {"arity": 1, "table": {"a": "a"}}},
    "constants": {"c": "a"},
}

NESTED = {
    "negation": lambda n: "~" * n + "P(c)",
    "parentheses": lambda n: "(" * n + "P(c)" + ")" * n,
    "integral": lambda n: "INT " * n + "P(x)" + " dx" * n,
    "universal": lambda n: "ALL x. " * n + "P(x)",
    "implication": lambda n: "P(c) -> " * n + "P(c)",
    "conjunction chain": lambda n: "P(c) & " * n + "P(c)",
    "function application": lambda n: "P(" + "f(" * n + "c" + ")" * n + ")",
    "quantifier equality": lambda n: "INT " * n + "P(x)" + " dx" * n + " = INT P(y) dy",
}


class TestNestingLimit:
    @pytest.fixture
    def one_path(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(ONE_ELEMENT_DOC))
        return str(path)

    @pytest.mark.parametrize("shape", NESTED)
    def test_at_limit_parses_prints_and_evaluates(self, shape, one_path, capsys):
        text = NESTED[shape](MAX_NESTING)
        formula = parse_formula(text)
        assert parse_formula(print_formula(formula)) == formula
        assert main(["eval", "--model", one_path, "--formula", text]) == 0
        assert main(["sat", "--model", one_path, "--formula", text]) in (0, 1)
        if "=" in text:
            assert main(["qeq", "--model", one_path, "--formula", text]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("shape", NESTED)
    def test_past_limit_exits_2_with_one_line(self, shape, one_path, capsys):
        text = NESTED[shape](MAX_NESTING + 1)
        assert main(["eval", "--model", one_path, "--formula", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"nests deeper than {MAX_NESTING} levels" in captured.err


def test_byte_identical_reruns(ex2_path, capsys):
    argv = ["validate-axioms", "--axiom", "mu1", "--exhaustive", "--size", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


class TestRepeatedCalls:
    """A call to `main` leaves nothing behind for the next one in the same process."""

    def test_model_flags_do_not_accumulate(self, model_path, tmp_path, capsys):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**MODEL_DOC, "measure": {"a": "1/4", "b": "3/4"}}))
        assert main(["eval", "--model", model_path, "--formula", "INT P(x) dx"]) == 0
        assert main(["eval", "--model", str(other), "--formula", "INT P(x) dx"]) == 0
        assert capsys.readouterr().out == "1/2\n1/4\n"

    def test_usage_error_after_a_good_call(self, model_path, capsys):
        bad = ["eval", "--model", model_path, "--formula", "P(c)", "--bogus"]
        with pytest.raises(SystemExit) as fresh:
            cli.build_parser().parse_args(bad)
        expected = capsys.readouterr()
        assert main(["eval", "--model", model_path, "--formula", "P(c)"]) == 0
        assert capsys.readouterr().out == "1\n"
        for _ in range(2):
            with pytest.raises(SystemExit) as reused:
                main(bad)
            assert reused.value.code == fresh.value.code == 2
            assert capsys.readouterr() == expected


class TestSharedParser:
    """`main` builds its argparse tree once per process and parses every call with it."""

    @pytest.fixture(autouse=True)
    def unbuilt(self):
        cli._shared_parser.cache_clear()
        yield
        cli._shared_parser.cache_clear()

    def test_built_once(self, model_path, monkeypatch, capsys):
        builds = []

        def counting_build():
            builds.append(None)
            return real_build()

        real_build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting_build)
        for _ in range(5):
            assert main(["eval", "--model", model_path, "--formula", "P(c)"]) == 0
        assert capsys.readouterr().out == "1\n" * 5
        assert len(builds) == 1

    @pytest.mark.parametrize("command", [None, *sorted(cli._HANDLERS)])
    @pytest.mark.parametrize("flag", ["--help", "--bogus"])
    def test_help_and_usage_error_bytes(self, command, flag, capsys):
        argv = [flag] if command is None else [command, flag]
        with pytest.raises(SystemExit) as fresh:
            cli.build_parser().parse_args(argv)
        expected = capsys.readouterr()
        assert expected.out if flag == "--help" else expected.err
        for _ in range(2):
            with pytest.raises(SystemExit) as shared:
                main(argv)
            assert shared.value.code == fresh.value.code == (0 if flag == "--help" else 2)
            assert capsys.readouterr() == expected


# sha256 of stdout, NUL, stderr, NUL and the exit code of `main([command, flag])` (either one may be
# missing) at 80 columns under Python 3.11: a change to any help text, usage line or no-flag run of a
# command shows here, which `TestSharedParser` (a fresh parser against the shared one) cannot see.
HELP_AND_USAGE_DIGESTS = [
    (None, "--help", "4af6ec347c826f822f713906577b3a2d53daeb7c01c0fca80f830f177aac546e"),
    (None, "--bogus", "d8047be3224da3c0a5b09909cb4f13e7a2c482ce69551f1fd3cc8160146bf23b"),
    (None, None, "d8047be3224da3c0a5b09909cb4f13e7a2c482ce69551f1fd3cc8160146bf23b"),
    ("approx-sat", "--help", "73dfc6e472c7a6fee18afd6f07d61be9eda877ad89abe6a7e2bc03f569e5e8d6"),
    ("approx-sat", "--bogus", "f43c96287529b56b957a43fb4fad436785b9d3c348899c6d210085e5599bbbbb"),
    ("approx-sat", None, "f43c96287529b56b957a43fb4fad436785b9d3c348899c6d210085e5599bbbbb"),
    ("check-closure", "--help", "ba40c8e9ce35e99a16ac611a381de41f6562b536c47084405a64ceb68058e8e9"),
    ("check-closure", "--bogus", "74144b1671940d8e0223a4e7a2cb8262f103f94a0b9d66ac53e845ef4d3990b4"),
    ("check-closure", None, "74144b1671940d8e0223a4e7a2cb8262f103f94a0b9d66ac53e845ef4d3990b4"),
    ("check-proof", "--help", "d0c52cb8a2b9222577f2240a95a5d5d8aa3f17bee8e2038bdd49f821b885d943"),
    ("check-proof", "--bogus", "b1fad0d66ca31838cc16979c2c98dfbbd4fff1c4d3e60b8e4eae86f7662b215b"),
    ("check-proof", None, "b1fad0d66ca31838cc16979c2c98dfbbd4fff1c4d3e60b8e4eae86f7662b215b"),
    ("check-substructure", "--help", "f61b9d265ba31d31881dc31527ac9be4e98da15aec441049a6d98c5c951f547d"),
    ("check-substructure", "--bogus", "183e2c744fbb6392cb8ff13b319f2c6ab35b0233eaf6d49a8ec15f6d8539756f"),
    ("check-substructure", None, "183e2c744fbb6392cb8ff13b319f2c6ab35b0233eaf6d49a8ec15f6d8539756f"),
    ("check-weak-negation", "--help", "d3ffd676ea0cc606434500789dfae746f09bac7092ef1a08f91ed3403f1fcb4b"),
    ("check-weak-negation", "--bogus", "93e89ab4a918a7c7e1fa0d4e5048b68121e530747c8954e0a7c6097aa604b8a8"),
    ("check-weak-negation", None, "93e89ab4a918a7c7e1fa0d4e5048b68121e530747c8954e0a7c6097aa604b8a8"),
    ("congruence", "--help", "d4e75f22fa472955b33ede2941b4e847a91658151a878002e89cc35daf9ce48b"),
    ("congruence", "--bogus", "38e13c8146b9c990bc256c308ec485de2c4a89907614e842f9e54823b2859382"),
    ("congruence", None, "38e13c8146b9c990bc256c308ec485de2c4a89907614e842f9e54823b2859382"),
    ("eval", "--help", "f1dc0918358dfc575b049908a10969d9996b70e086b2d8fb64f5d84903577a6a"),
    ("eval", "--bogus", "c15b63590fc2e09c4f1f1db25ad07fb852b023f6a293b3133cee1429385a636e"),
    ("eval", None, "c15b63590fc2e09c4f1f1db25ad07fb852b023f6a293b3133cee1429385a636e"),
    ("find-countermodel", "--help", "0f364ce2768b367d13b8484233b5b3b5d2ce34363e806f6f4cbf7608e92e85a1"),
    ("find-countermodel", "--bogus", "c6d3cd538dc766971038f2db910c237b052bc400debe90df614488ecbb1a06f6"),
    ("find-countermodel", None, "c6d3cd538dc766971038f2db910c237b052bc400debe90df614488ecbb1a06f6"),
    ("gen-models", "--help", "174d21da5077cacd71d115a036640c802f3cd010b074d85febf0ffa8bc166cbf"),
    ("gen-models", "--bogus", "eafed2424ff2b2ebccb3b2d268dbb0a2346ab8832987fbd1a99f5af08babda3d"),
    ("gen-models", None, "a1cffa9e69eab2b0cdc33198c1c06596312e31ffd68a193a69173d07769f0201"),
    ("qeq", "--help", "25f40dc4a8263ab45c2cb735b5b7d1bb40ef4c57c8005a3d869d105a087a7f37"),
    ("qeq", "--bogus", "c8a347006cfed7f367296e0d93b24174502bb37cb41314d6a43d2261090297a6"),
    ("qeq", None, "c8a347006cfed7f367296e0d93b24174502bb37cb41314d6a43d2261090297a6"),
    ("sat", "--help", "ae174550be040d0d6de6550de8fa176eebc83235b42acf3f61e8a567eeb781c8"),
    ("sat", "--bogus", "861df69a4952d7bf2cc3032f00496336a65695def6a6d23cbb4a597e9da5db65"),
    ("sat", None, "861df69a4952d7bf2cc3032f00496336a65695def6a6d23cbb4a597e9da5db65"),
    ("validate-approx-system", "--help", "7903d948a6e9aacddbb98eddd6af2770989799843d7b29adbb2913952d5093a1"),
    ("validate-approx-system", "--bogus", "fb4896e06ae3ef6d81bfc74ee59c17d1aea6a95a6dda28166fe3b8104e5b0c2a"),
    ("validate-approx-system", None, "fb4896e06ae3ef6d81bfc74ee59c17d1aea6a95a6dda28166fe3b8104e5b0c2a"),
    ("validate-axioms", "--help", "7507e0b733956f30c04b38d649188a40cf3de2d35c368a33c45ec0ea739d9566"),
    ("validate-axioms", "--bogus", "eafed2424ff2b2ebccb3b2d268dbb0a2346ab8832987fbd1a99f5af08babda3d"),
    ("validate-axioms", None, "60791ed808994d78c463bd32bcaa8758bb446ae973cf1d113a1e670f370d3b10"),
    ("validate-integral-laws", "--help", "03147f83681da00d91463aaa13528e71cf25c006646043a3b96e856e16580f6e"),
    ("validate-integral-laws", "--bogus", "eafed2424ff2b2ebccb3b2d268dbb0a2346ab8832987fbd1a99f5af08babda3d"),
    ("validate-integral-laws", None, "6b17845e26e242bb106fb41cdd6c96742d5fafc39213e519732354e4ac28f641"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse lays help out differently in other versions")
@pytest.mark.parametrize("command, flag, digest", HELP_AND_USAGE_DIGESTS)
def test_help_and_usage_bytes_are_pinned(command, flag, digest, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [arg for arg in (command, flag) if arg is not None]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert hashlib.sha256(f"{captured.out}\0{captured.err}\0{code}".encode()).hexdigest() == digest


def test_internal_error_exits_3_with_one_line(model_path, monkeypatch, capsys):
    def broken(args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setitem(cli._HANDLERS, "eval", broken)
    assert main(["eval", "--model", model_path, "--formula", "P(c)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ZeroDivisionError: division by zero\n"


def exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


class TestInputErrorsExit2:
    @pytest.mark.parametrize("argv", [
        ["gen-models", "--size", "0"],
        ["find-countermodel", "--size", "1", "--formula", "P(eq(x))"],
        ["find-countermodel", "--size", "1", "--formula", "P(x) -> Q(P(x))"],
        # no model to draw, so an empty run must not report success
        ["validate-axioms", "--axiom", "mu1", "--count", "-3"],
        ["find-countermodel", "--formula", "P(c) & ~P(c)", "--count", "0"],
    ])
    def test_bad_generation_or_vocabulary(self, argv, capsys):
        exits_2_with_one_line(argv, capsys)

    def test_exhaustive_law_suite_over_the_cap(self, capsys):
        # 125^2 unary pairs at |M| = 3 pass the cap; 5^9 bivariate subsets do not
        exits_2_with_one_line(["validate-integral-laws", "--exhaustive", "--size", "3"], capsys)

    @pytest.mark.parametrize("grid", ["0,1/2,3/2", "-1/2,1"])
    @pytest.mark.parametrize("command", [
        ["gen-models", "--size", "2", "--count", "50"],
        ["gen-models", "--size", "2", "--exhaustive"],
        ["find-countermodel", "--size", "2", "--count", "50", "--formula", "P(c) \\/ ~P(c)"],
        ["find-countermodel", "--size", "2", "--exhaustive", "--formula", "P(c) \\/ ~P(c)"],
    ])
    def test_grid_out_of_range_prints_no_model(self, command, grid, capsys):
        # the grid is checked before the first model is drawn, not per model
        exits_2_with_one_line([*command, f"--grid={grid}"], capsys)

    @pytest.mark.parametrize("command", [
        lambda path, model: ["eval", "--model", path, "--formula", "P(c)"],
        lambda path, model: ["check-proof", "--proof", path],
        lambda path, model: ["eval", "--model", model, "--formula-file", path],
        lambda path, model: ["find-countermodel", "--formula-file", path, "--count", "1"],
        lambda path, model: ["check-closure", "--pool", path, "--count", "1"],
    ])
    def test_non_utf8_file(self, command, model_path, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x80")
        exits_2_with_one_line(command(str(path), model_path), capsys)

    @pytest.mark.parametrize("line", [
        {"formula": None, "just": "premise"},
        {"formula": "P(x)", "just": None},
        {"formula": ["P(x)"], "just": "premise"},
        {"formula": "P(x)", "just": 3},
    ])
    def test_proof_line_field_types(self, line, tmp_path, capsys):
        path = tmp_path / "proof.json"
        path.write_text(json.dumps([line]))
        exits_2_with_one_line(["check-proof", "--proof", str(path)], capsys)

    @pytest.mark.parametrize("field, value", [
        (("predicates", "INT"), {"arity": 1, "table": {"a": "1", "b": "0"}}),
        (("functions", "INT"), {"arity": 1, "table": {"a": "b", "b": "a"}}),
        (("constants", "rat"), "a"),
        (("constants", "eq"), "a"),
    ])
    @pytest.mark.parametrize("command", [
        ["congruence", "--relation", "eq"],
        ["validate-integral-laws", "--count", "1"],
        ["eval", "--formula", "P(c)"],
    ])
    def test_reserved_symbol_names_in_a_model(self, field, value, command, tmp_path, capsys):
        # a model file is checked as it loads, whichever command reads it
        path = tmp_path / "m.json"
        path.write_text(json.dumps(with_field(MODEL_DOC, field, value)))
        assert main([*command, "--model", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: symbol name {field[-1]!r} is reserved\n")

    @pytest.mark.parametrize("element, message", [
        ("rat", "element 'rat' cannot name a constant: the name is reserved"),
        ("eq", "element 'eq' cannot name a constant: the name is reserved"),
        ("P", "name 'P' is already a symbol of the model"),
    ])
    def test_substructure_element_that_cannot_name_a_constant(self, element, message, tmp_path, capsys):
        # the elements of the first model become constants; no file names such a symbol
        small = {"universe": [element], "measure": {element: "1"},
                 "predicates": {"P": {"arity": 1, "table": {element: "1"}}}}
        small_path, pool_path = tmp_path / "small.json", tmp_path / "pool.json"
        small_path.write_text(json.dumps(small))
        pool_path.write_text(json.dumps(["EX x. P(x)"]))
        assert main(["check-substructure", "--model", str(small_path), "--model", str(small_path),
                     "--pool", str(pool_path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("field, value", [
        (("measure", "a"), 1),
        (("predicates", "P", "table", "a"), 1),
        (("constants", "c"), ["a"]),
        (("predicates",), ["P"]),
        (("functions",), "f"),
    ])
    def test_model_field_types(self, field, value, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(with_field(MODEL_DOC, field, value)))
        exits_2_with_one_line(["eval", "--model", str(path), "--formula", "P(c)"], capsys)

    def test_approx_system_rel_not_an_array(self, model_path, tmp_path, capsys):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"sentences": ["P(c)"], "rel": 0}))
        exits_2_with_one_line(["validate-approx-system", "--approx-system", str(path),
                               "--model", model_path], capsys)

    @pytest.mark.parametrize("arity", [True, "1"])
    def test_boolean_arity_is_no_arity(self, arity, tmp_path, capsys):
        # JSON true is an instance of int in Python; it must be rejected as a string is
        path = tmp_path / "m.json"
        path.write_text(json.dumps(with_field(MODEL_DOC, ("predicates", "P", "arity"), arity)))
        assert main(["eval", "--model", str(path), "--formula", "INT P(x) dx"]) == 2
        assert capsys.readouterr() == ("", "error: arity of 'P' must be a positive integer\n")

    @pytest.mark.parametrize("literal, message", [
        ("1/" + "9" * 5000, "denominator has too many digits (at line 1, column 7)"),
        ("0" * 5000 + "1", "numerator has too many digits (at line 1, column 5)"),
    ], ids=["denominator", "numerator"])
    def test_oversized_truth_constant(self, literal, message, model_path, capsys):
        # `int` raises ValueError past the interpreter's limit on digits, which used to exit 3
        assert main(["eval", "--model", model_path, "--formula", f"rat({literal})"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("rel", [[[True, False]], [["0", 0]]])
    def test_boolean_rel_index_is_no_index(self, rel, model_path, tmp_path, capsys):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"sentences": ["P(c)", "Q(c)"], "rel": rel}))
        assert main(["approx-sat", "--model", model_path, "--approx-system", str(path), "--formula", "P(c)"]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: each 'rel' entry must be a pair of indices\n")


def with_field(doc, field, value):
    """A deep copy of a JSON document with the value at the key path `field` replaced."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    return doc


# -- fuzzing ------------------------------------------------------------------

FUZZ_MODEL_DOC = {
    "universe": ["a", "b"],
    "measure": {"a": "1/2", "b": "1/2"},
    "predicates": {"P": {"arity": 1, "table": {"a": "1", "b": "1/4"}},
                   "R": {"arity": 2, "table": {"a,a": "1", "a,b": "0", "b,a": "1/2", "b,b": "0"}}},
    "functions": {"f": {"arity": 1, "table": {"a": "b", "b": "a"}}},
    "constants": {"c": "a"},
}

FUZZ_PROOF = [
    {"formula": "P(x)", "just": "premise"},
    {"formula": "INT P(x) dx", "just": "int-intro:1,x"},
]

FORMULA_TOKENS = (
    "ALL", "EX", "INT", "x", "y", "dx", "dy", ".", "(", ")", ",", "~", "/\\", "\\/", "&",
    "|+|", "->", "=", "rat(1/2)", "rat", "P", "R", "c", "f", "eq", "approx", "1", "/", "-",
)

formula_texts = st.one_of(
    st.lists(st.sampled_from(FORMULA_TOKENS), max_size=12).map(" ".join),
    st.text(max_size=20),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(["", "a", "b", "1/2", "x", "a,b"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["a", "b", "arity", "table"]),
                                                                inner, max_size=3),
    max_leaves=6,
)

MODEL_FIELDS = [
    ("universe",), ("measure",), ("measure", "a"), ("predicates",), ("predicates", "P"),
    ("predicates", "P", "arity"), ("predicates", "P", "table"), ("predicates", "R", "table", "a,b"),
    ("functions",), ("functions", "f", "arity"), ("functions", "f", "table", "a"),
    ("constants",), ("constants", "c"),
]


def run_cli(argv) -> int:
    """`main`'s exit code, output discarded; argparse's usage errors exit through SystemExit."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


FUZZ = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "model.json").write_text(json.dumps(FUZZ_MODEL_DOC))
    return directory


class TestFuzz:
    @FUZZ
    @given(text=formula_texts, command=st.sampled_from(["eval", "sat", "qeq", "find-countermodel"]))
    def test_formula_text(self, fuzz_dir, text, command):
        if command == "find-countermodel":
            argv = [command, f"--formula={text}", "--size", "1", "--count", "2"]
        else:
            argv = [command, "--model", str(fuzz_dir / "model.json"), f"--formula={text}"]
        assert run_cli(argv) in (0, 1, 2)

    @FUZZ
    @given(data=st.binary(max_size=40), use=st.sampled_from(["model", "proof", "pool", "formula-file"]))
    def test_file_bytes(self, fuzz_dir, data, use):
        path = fuzz_dir / "bytes.bin"
        path.write_bytes(data)
        argv = {
            "model": ["eval", "--model", str(path), "--formula", "P(c)"],
            "proof": ["check-proof", "--proof", str(path)],
            "pool": ["check-closure", "--pool", str(path), "--size", "1", "--count", "1"],
            "formula-file": ["find-countermodel", "--formula-file", str(path), "--size", "1", "--count", "1"],
        }[use]
        assert run_cli(argv) in (0, 1, 2)

    @FUZZ
    @given(field=st.sampled_from(MODEL_FIELDS), value=json_values)
    def test_model_fields(self, fuzz_dir, field, value):
        path = fuzz_dir / "fuzzed_model.json"
        path.write_text(json.dumps(with_field(FUZZ_MODEL_DOC, field, value)))
        assert run_cli(["eval", "--model", str(path), "--formula", "INT R(x, f(c)) dx"]) in (0, 1, 2)

    @FUZZ
    @given(line=st.sampled_from([0, 1]), field=st.sampled_from([None, "formula", "just"]), value=json_values)
    def test_proof_line_fields(self, fuzz_dir, line, field, value):
        proof = json.loads(json.dumps(FUZZ_PROOF))
        if field is None:
            proof[line] = value
        else:
            proof[line][field] = value
        path = fuzz_dir / "fuzzed_proof.json"
        path.write_text(json.dumps(proof))
        assert run_cli(["check-proof", "--proof", str(path)]) in (0, 1, 2)
