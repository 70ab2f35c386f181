import contextlib
import io
import json
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
        assert "0 violations" in capsys.readouterr().out

    def test_validate_integral_laws_generated_models(self, capsys):
        code = main(["validate-integral-laws", "--size", "2", "--seed", "6", "--count", "20"])
        assert code == 0
        assert "0 violations" in capsys.readouterr().out

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
    ])
    def test_bad_generation_or_vocabulary(self, argv, capsys):
        exits_2_with_one_line(argv, capsys)

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
