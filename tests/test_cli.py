import json
from fractions import Fraction

import pytest

from intlogic.cli import main
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
