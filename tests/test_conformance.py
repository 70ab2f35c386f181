"""Every Python the package claims prints the same bytes: `tests/conformance.py` under each, against this one.

`pyproject.toml` claims Python 3.10 and later.  Each of `python3.10`,
`python3.12` and `python3.13` found on PATH runs the conformance script,
and its lines must equal those of the interpreter running the tests.  An
interpreter that is not found, or does not run, is skipped with the reason.
The interpreter running the tests must also print exactly
`tests/conformance_digests.txt`, so the CLI's bytes are pinned across
commits too: a change to any of them edits that file.
A pyenv shim runs the interpreter of the version that `PYENV_VERSION`
names; other interpreters ignore the variable.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent / "conformance.py"
DIGESTS = SCRIPT.with_name("conformance_digests.txt")
VERSIONS = ("3.10", "3.12", "3.13")
PROBE = "import sys; print('%d.%d' % sys.version_info[:2])"


def _start(command: list[str], version: str | None = None) -> subprocess.Popen:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    if version:
        env["PYENV_VERSION"] = version
    return subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _interpreter(version: str) -> tuple[str | None, str]:
    """`(path, "")` of a `python<version>` that runs as that version, or `(None, why not)`."""
    path = shutil.which(f"python{version}")
    if path is None:
        return None, f"python{version} is not on PATH"
    probe = _start([path, "-c", PROBE], version)
    out, _ = probe.communicate(timeout=60)
    if probe.returncode != 0 or out.strip() != version:
        return None, f"python{version} on PATH ({path}) does not run as Python {version}"
    return path, ""


@pytest.fixture(scope="module")
def runs() -> dict:
    """`(returncode, stdout, stderr)` of the script per version, run side by side; a skip reason for the absent."""
    started = {"reference": _start([sys.executable, str(SCRIPT)])}
    skipped = {}
    for version in VERSIONS:
        path, why = _interpreter(version)
        if path is None:
            skipped[version] = why
        else:
            started[version] = _start([path, str(SCRIPT)], version)
    done = {}
    for key, process in started.items():
        out, err = process.communicate(timeout=600)
        done[key] = process.returncode, out, err
    return done | skipped


@pytest.mark.parametrize("version", VERSIONS)
def test_same_bytes_as_this_interpreter(version, runs):
    if "%d.%d" % sys.version_info[:2] == version:
        pytest.skip(f"the tests run under Python {version}")
    if isinstance(runs[version], str):
        pytest.skip(runs[version])
    reference, other = runs["reference"], runs[version]
    assert reference[0] == 0 and reference[2] == "", reference[2][-2000:]
    assert other[0] == 0 and other[2] == "", other[2][-2000:]
    assert other[1].splitlines() == reference[1].splitlines()


def test_every_call_has_a_line(runs):
    code, out, _ = runs["reference"]
    assert code == 0
    names = [line.split("  ", 1)[1] for line in out.splitlines()]
    assert len(names) == len(set(names)) > 60
    assert sum(name.startswith("demos/") for name in names) == 5


def test_pinned_digests(runs):
    code, out, err = runs["reference"]
    assert code == 0 and err == "", err[-2000:]
    assert out.splitlines() == DIGESTS.read_text().splitlines()
