"""Conformance digests: one sha256 per fixed CLI call, to compare Python versions.

Run from anywhere as

    python tests/conformance.py

It writes its input files to a temporary directory and runs there, so no
path but a relative one reaches the output.  Each call of `CALLS` runs
in-process through `intlogic.cli.main`, imported from this repository's
`src`, and each demo of `demos/` as a subprocess of the same interpreter.
One line is printed per call: the sha256 of its stdout, a NUL, its stderr,
a NUL and its exit code, then the call's id.  Two interpreters that print
the same lines behave the same on every call.  `demos/integral_trio.py`
runs the generated dissection kernel at every universe size it takes, so
its line compares those kernels too.  Help and usage errors are
not among the calls: argparse lays them out differently across versions.
Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from intlogic.cli import main  # noqa: E402  (the repository's package, whatever is installed)

MODEL = {
    "universe": ["b", "a", "c"],
    "measure": {"c": "1/2", "a": "1/3", "b": "1/6"},
    "predicates": {
        "P": {"arity": 1, "table": {"a": "1", "b": "1/4", "c": "0"}},
        "Q": {"arity": 1, "table": {"a": "1/2", "b": "1", "c": "1/2"}},
        "R": {"arity": 2, "table": {f"{x},{y}": "1" if x == y else "1/3" for x in "abc" for y in "abc"}},
        "approx": {"arity": 2, "table": {f"{x},{y}": "1" if x == y else "1/2" for x in "abc" for y in "abc"}},
    },
    "functions": {"f": {"arity": 1, "table": {"a": "b", "b": "c", "c": "a"}}},
    "constants": {"c1": "a", "c2": "c"},
}
SMALL = {"universe": ["a"], "measure": {"a": "1"}, "predicates": {"P": {"arity": 1, "table": {"a": "1"}}}}
FILES = {
    "model.json": MODEL,
    "small.json": SMALL,
    "bool-arity.json": {**SMALL, "predicates": {"P": {"arity": True, "table": {"a": "1"}}}},
    "pool.json": ["ALL x. P(x) -> Q(f(x))", "INT P(x) dx", "eq(c1, c1) -> P(c1) \\/ ~P(c1)"],
    "small-pool.json": ["P(a)", "EX x. P(x)", "INT P(x) dx"],
    "system.json": {"sentences": ["P(c1)", "P(c1) \\/ Q(c1)", "~P(c1)"], "rel": [[0, 1], [2, 2]]},
    "system-pool.json": ["P(c1)", "P(c1) \\/ Q(c1)", "~P(c1)"],
    "bad-system.json": {"sentences": ["P(c1) \\/ Q(c1)", "Q(c1)"], "rel": [[0, 1]]},
    "bool-rel.json": {"sentences": ["P(c1)", "Q(c1)"], "rel": [[True, False]]},
    "proof.json": [{"formula": "P(x)", "just": "premise"}, {"formula": "INT P(x) dx", "just": "int-intro:1,x"}],
    # a bad rational is reported before the empty universe
    "bad-rational-empty-universe.json": {"universe": [], "measure": {"a": "1/x"}},
    # a keyword is no symbol name: a table named `INT` is rejected as the file loads
    "keyword-predicate.json": {**SMALL, "predicates": {**SMALL["predicates"], "INT": SMALL["predicates"]["P"]}},
    # an element named like a keyword cannot name a constant
    "rat-small.json": {"universe": ["rat"], "measure": {"rat": "1"},
                       "predicates": {"P": {"arity": 1, "table": {"rat": "1"}}}},
    "rat-pool.json": ["EX x. P(x)"],
}
# files written as they are, not as JSON
TEXT_FILES = {"crlf-formula.txt": "P(c1) /\\\r\n  + Q(c1)\r\n"}

M = ["--model", "model.json"]
CALLS = {
    "eval": ["eval", *M, "--formula", "INT (P(x) -> R(x, f(c1))) dx & EX y. approx(y, c2)"],
    "sat": ["sat", *M, "--formula", "EX x. P(x)"],
    "sat-levels": ["sat", *M, "--formula", "INT P(x) dx = INT P(y) dy", "--levels", "1/4,1/2",
                   "--pairs", "0:0,1:1"],
    "qeq": ["qeq", *M, "--formula", "INT Q(x) dx = INT Q(y) dy"],
    "approx-sat": ["approx-sat", *M, "--approx-system", "system.json", "--formula", "P(c1)"],
    "validate-approx-system": ["validate-approx-system", "--approx-system", "system.json", *M],
    "validate-approx-system-fails": ["validate-approx-system", "--approx-system", "bad-system.json", *M],
    "check-proof": ["check-proof", "--proof", "proof.json"],
    "check-closure": ["check-closure", "--pool", "pool.json", "--size", "2", "--seed", "3", "--count", "5"],
    "check-closure-exhaustive": ["check-closure", "--pool", "pool.json", "--size", "1", "--exhaustive"],
    # the isomorphism image reverses the universe, so it differs from the model
    "check-closure-exhaustive-size-2": ["check-closure", "--pool", "pool.json", "--size", "2", "--grid", "0,1",
                                        "--exhaustive"],
    "congruence": ["congruence", *M, "--relation", "approx"],
    "check-substructure": ["check-substructure", "--model", "small.json", *M, "--pool", "small-pool.json"],
    "check-weak-negation": ["check-weak-negation", "--approx-system", "system.json", "--pool", "system-pool.json",
                            *M],
    "find-countermodel": ["find-countermodel", "--formula", "INT P(x) dx -> P(k)", "--size", "2", "--seed", "5"],
    "find-countermodel-exhaustive": ["find-countermodel", "--formula", "INT (P(x) -> Q(x)) dx -> (INT P(x) dx -> "
                                     "INT Q(x) dx)", "--size", "2", "--exhaustive"],
    "gen-models": ["gen-models", "--pool", "pool.json", "--size", "2", "--seed", "7", "--count", "4"],
    "gen-models-exhaustive": ["gen-models", "--size", "2", "--grid", "0,1/2,1", "--exhaustive"],
    "validate-axioms": ["validate-axioms", "--size", "2", "--seed", "2", "--count", "10"],
    "validate-axioms-exhaustive": ["validate-axioms", "--axiom", "mu3", "--size", "2", "--grid", "0,1/2,1",
                                   "--exhaustive"],
    # the first countermodel's measure, 1/4 1/4 1/2, is fixed by a transposition, so the orbit checks run to the end
    "find-countermodel-exhaustive-size-3": ["find-countermodel", "--size", "3", "--grid", "0,1/2,1", "--exhaustive",
                                            "--formula", "EX x. ~(INT eq(x, y) dy) \\/ (INT eq(c, y) dy -> INT "
                                            "eq(d, y) dy) \\/ ~P(f(c)) \\/ P(d)"],
    "validate-integral-laws": ["validate-integral-laws", *M, "--count", "20", "--seed", "1"],
    "validate-integral-laws-exhaustive": ["validate-integral-laws", "--size", "1", "--exhaustive"],
    # every generated model's suite integrates the rows of one prepared sample set
    "validate-integral-laws-exhaustive-size-2": ["validate-integral-laws", "--size", "2", "--exhaustive"],
    "validate-integral-laws-size-3": ["validate-integral-laws", "--size", "3", "--count", "40", "--seed", "1"],
    # input errors: each exits 2 with one line
    "bad-boolean-arity": ["eval", "--model", "bool-arity.json", "--formula", "INT P(x) dx"],
    "bad-boolean-rel": ["approx-sat", *M, "--approx-system", "bool-rel.json", "--formula", "P(c1)"],
    "bad-unknown-symbol": ["eval", *M, "--formula", "Z(c1)"],
    "bad-qeq-containment": ["eval", *M, "--formula", "INT P(x) dx = INT Q(y) dy"],
    "bad-parse": ["eval", *M, "--formula", "P(c1) + Q(c1)"],
    "bad-missing-file": ["eval", "--model", "missing.json", "--formula", "P(c1)"],
    "bad-grid": ["gen-models", "--size", "2", "--grid", "0,3/2"],
    "bad-oversized-literal": ["eval", *M, "--formula", "rat(1/" + "9" * 5000 + ")"],
    "bad-character-after-nesting-overflow": ["eval", *M, "--formula", "~" * 200 + "P(c1) $"],
    "bad-crlf-formula-file": ["eval", *M, "--formula-file", "crlf-formula.txt"],
    "bad-rational-and-empty-universe": ["eval", "--model", "bad-rational-empty-universe.json", "--formula", "P(a)"],
    "bad-keyword-predicate": ["congruence", "--model", "keyword-predicate.json", "--relation", "eq"],
    "bad-keyword-element": ["check-substructure", "--model", "rat-small.json", "--model", "rat-small.json",
                            "--pool", "rat-pool.json"],
    "non-ascii-digit": ["eval", *M, "--formula", "rat(\u0663/4)"],
    # a value whose denominator has more digits than `str(int)` prints by default
    "value-past-the-digit-limit": ["eval", "--model", "small.json", "--formula",
                                   f"rat(1/{'9' * 2200}) |+| rat(1/{'9' * 2199}7)"],
}
CALLS |= {f"{name} --output json": [*argv, "--output", "json"] for name, argv in list(CALLS.items())}


def digest(out: str, err: str, code) -> str:
    return hashlib.sha256(f"{out}\0{err}\0{code}".encode()).hexdigest()


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return digest(out.getvalue(), err.getvalue(), code)


def run_demo(path: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    return digest(done.stdout, done.stderr, done.returncode)


def lines() -> list[str]:
    out = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            for name, content in FILES.items():
                Path(name).write_text(json.dumps(content))
            for name, content in TEXT_FILES.items():
                Path(name).write_bytes(content.encode())
            out += [f"{run(argv)}  {name}" for name, argv in CALLS.items()]
        finally:
            os.chdir(here)
    out += [f"{run_demo(path)}  demos/{path.name}" for path in sorted((ROOT / "demos").glob("*.py"))]
    return out


if __name__ == "__main__":
    print("\n".join(lines()))
