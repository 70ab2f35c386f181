"""The benchmark's smoke run must pass.

It runs the first jobs of every workload, traced and untraced, and checks
their outputs against the benchmark's independent reference evaluator.  A
change that breaks a traced name or an output then fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_run_passes():
    result = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert json.loads(result.stdout.splitlines()[-1])["smoke_ok"] is True
