"""Run one intlogic benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One client runs the workload's job list in a closed loop (next job after
the previous one ends), in this process, with no threads or subprocesses.
The list is built from the seed alone.  With --trace 0 the loop repeats the
list until --seconds have passed (always at least one full pass) and the
end-to-end metrics are reported; with --trace 1 one untraced pass is
followed by one traced pass and the per-layer metrics are reported.  Every
output is checked after timing.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the line before it
carries the environment stamp, the job-list hash and the details behind
each metric.  Times are scaled to a reference machine speed (speed.py).
--smoke runs the first few jobs of every workload in both modes and checks
that every metric named in BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
SMOKE_JOBS = 3
TAIL_BEYOND = 10


class ProgramMissing(Exception):
    pass


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(spec: dict) -> dict[bool, dict[str, str]]:
    """Metric name -> unit as BENCHMARK.json names them, for --trace 0 (False) and 1 (True)."""
    return {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}


# ---------------------------------------------------------------------------
# Set-up: import the program, build the job list, warm up


def import_program() -> SimpleNamespace:
    """A fresh import of every intlogic module from this checkout's src/."""
    if not (SRC / "intlogic" / "__init__.py").is_file():
        raise ProgramMissing(f"no intlogic package under {SRC}")
    for name in [n for n in sys.modules if n == "intlogic" or n.startswith("intlogic.")]:
        del sys.modules[name]
    package = importlib.import_module("intlogic")
    importlib.import_module("intlogic.cli")
    if SRC.resolve() not in Path(package.__file__).resolve().parents:
        raise ProgramMissing(f"intlogic was imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{n.split(".", 1)[1]: m for n, m in sys.modules.items()
                              if n.startswith("intlogic.")})


def run_job(job):
    """(output, start, end) of one execution; an escaping exception is its output."""
    start = perf_counter()
    try:
        output = job.run()
    except Exception as exc:  # noqa: BLE001 - an escaping exception is a job outcome
        output = ("raise", type(exc).__name__)
    return output, start, perf_counter()


def setup(workload: str, seed: int, workdir: Path, repeats: int):
    """Import, build and warm up `repeats` times: the last jobs and files, and each (start, end)."""
    intervals = []
    for _ in range(repeats):
        start = perf_counter()
        mods = import_program()
        jobs, files = workloads.build(workload, seed, mods, workdir)
        run_job(jobs[0])
        intervals.append((start, perf_counter()))
    gc.collect()
    return jobs, files, intervals


def job_list_hash(jobs, files) -> str:
    digest = hashlib.sha256()
    for job in jobs:
        digest.update(f"{job.id}\t{job.spec}\n".encode())
    for name in sorted(files):
        digest.update(f"{name}\t{hashlib.sha256(files[name]).hexdigest()}\n".encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Measuring and checking


class Outcomes:
    """First output of every job, and how many later executions differed from it."""

    def __init__(self, n: int):
        self.first = [None] * n
        self.executions = [0] * n
        self.changed = [0] * n

    def record(self, i: int, output) -> None:
        if self.executions[i] == 0:
            self.first[i] = output
        elif output != self.first[i]:
            self.changed[i] += 1
        self.executions[i] += 1

    def verify(self, jobs):
        """(attempted, failed, correct, failures) after checking every first output.

        `attempted` and `failed` count jobs, not executions: a job fails once,
        however often the loop ran it, so both counts follow from the job list
        and the program alone and not from how many passes fitted in the time.
        """
        attempted, failed, correct, failures = 0, 0, True, []
        for i, job in enumerate(jobs):
            if not self.executions[i]:
                continue
            attempted += 1
            output = self.first[i]
            try:
                reason = job.check(output)
            except Exception as exc:  # noqa: BLE001 - a malformed output fails its check
                reason = f"check raised {type(exc).__name__}: {exc}"
            raised = output[0] == "raise"
            if reason is None and self.changed[i]:
                reason = f"output changed in {self.changed[i]} of {self.executions[i]} executions"
                raised = False
            if reason is not None:
                failed += 1
                known = raised and job.known_defect is not None
                correct = correct and known
                failures.append({"job": i, "id": job.id, "spec": job.spec[:200],
                                 "executions": self.executions[i],
                                 "kind": f"known defect: {job.known_defect}" if known
                                 else "unexpected exception" if raised else "wrong output",
                                 "reason": reason[:300]})
        return attempted, failed, correct, failures


class Timing:
    """Executions of one measuring loop: (job, pass, raw seconds, scaled seconds)."""

    def __init__(self, executions, passes: int, sampler: speed.Sampler):
        times = sampler.scale([(start, end) for _, _, start, end in executions])
        self.runs = [(i, p, raw, scaled) for (i, p, _, _), (raw, scaled) in zip(executions, times)]
        self.passes = passes
        self.kernel_s = sampler.kernel_median()

    def job_times(self, n_jobs: int, column: int) -> list[float]:
        """Median time of each job over its executions, sorted."""
        samples = [[] for _ in range(n_jobs)]
        for run in self.runs:
            samples[run[0]].append(run[column])
        return sorted(statistics.median(s) for s in samples if s)

    def pass_times(self, column: int) -> list[float]:
        totals = [0.0] * self.passes
        for run in self.runs:
            if run[1] < self.passes:
                totals[run[1]] += run[column]
        return totals


RAW, SCALED = 2, 3


def measure(jobs, seconds: float, outcomes: Outcomes, sampler: speed.Sampler, tracer=None):
    """Cycle through the job list until `seconds` have passed and one pass is complete.

    Returns the executions, as (job, pass, start, end), and the number of full passes.
    """
    executions = []
    start = perf_counter()
    i = passes = 0
    while True:
        if tracer is not None:
            tracer.job_id = i
        output, job_start, job_end = run_job(jobs[i])
        outcomes.record(i, output)
        executions.append((i, passes, job_start, job_end))
        sampler.poll()
        i += 1
        done = job_end - start >= seconds
        if i == len(jobs):
            i, passes = 0, passes + 1
            if done:
                break
        elif passes and done:
            break
    return executions, passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(setup_times, timing: Timing, n_jobs: int, rss: float):
    per_job = timing.job_times(n_jobs, SCALED)
    rank = max(1, len(per_job) - TAIL_BEYOND)
    raw_job = timing.job_times(n_jobs, RAW)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup_times),
        "wall_s": statistics.median(timing.pass_times(SCALED)),
        "job_p50_ms": statistics.median(per_job) * 1000,
        "job_tail_ms": per_job[rank - 1] * 1000,
        "peak_rss_mb": rss,
    }
    details = {
        "jobs": len(per_job),
        "tail_percentile": round(100 * rank / len(per_job), 2),
        "tail_jobs_beyond": len(per_job) - rank,
        "passes": timing.passes,
        "executions": len(timing.runs),
        "times_are": "scaled to the reference machine speed (speed.py); raw_* are as measured",
        "kernel_s": timing.kernel_s,
        "raw_setup_s": statistics.median(raw for raw, _ in setup_times),
        "raw_wall_s": statistics.median(timing.pass_times(RAW)),
        "raw_job_p50_ms": statistics.median(raw_job) * 1000,
        "raw_job_tail_ms": raw_job[rank - 1] * 1000,
        "pass_s": timing.pass_times(SCALED),
        "setup_samples_s": [scaled for _, scaled in setup_times],
    }
    return metrics, details


def traced_pass(jobs, outcomes: Outcomes, baseline: Timing, spans_path: Path):
    """One pass with the tracer installed; the kernel is timed only between jobs."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with speed.Sampler(timer=False) as sampler:
            executions, passes = measure(jobs, 0, outcomes, sampler, tracer)
    finally:
        tracer.uninstall()
    timing = Timing(executions, passes, sampler)
    scale = speed.REFERENCE_S / timing.kernel_s
    metrics = tracer.metrics()
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] *= scale
    traced, untraced = timing.pass_times(SCALED)[0], baseline.pass_times(SCALED)[0]
    metrics["trace.overhead_ratio"] = traced / untraced
    busy = sum(run[RAW] for run in timing.runs)
    metrics["trace.coverage"] = sum(tracer.self_times().values()) / busy
    tracer.write_spans(spans_path, executions[0][2])
    details = {"spans": len(tracer.start), "spans_file": str(spans_path.relative_to(ROOT)),
               "traced_wall_s": traced, "untraced_wall_s": untraced,
               "times_are": "scaled to the reference machine speed (speed.py)",
               "kernel_s": timing.kernel_s,
               "waiting": "none: one closed-loop client, no queue and no second thread"}
    return metrics, details


# ---------------------------------------------------------------------------
# One run


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": " ".join((os.uname().sysname, os.uname().release, os.uname().machine)),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_file = git / ref_name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "intlogic").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool, limit: int | None = None,
        repeats: int = SETUP_REPEATS):
    """Result object and details for one run of one workload."""
    units = metric_units(benchmark_spec())[trace]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        if trace:
            jobs, files, _ = setup(workload, seed, workdir, 1)
            job_hash = job_list_hash(jobs, files)
            jobs = jobs[:limit]
            outcomes = Outcomes(len(jobs))
            with speed.Sampler() as sampler:
                executions, passes = measure(jobs, 0, outcomes, sampler)
            baseline = Timing(executions, passes, sampler)
            spans_path = OUT / f"spans-{workload}-seed{seed}.bin.gz"
            metrics, details = traced_pass(jobs, outcomes, baseline, spans_path)
        else:
            with speed.Sampler() as sampler:
                jobs, files, setup_intervals = setup(workload, seed, workdir, repeats)
                job_hash = job_list_hash(jobs, files)
                jobs = jobs[:limit]
                outcomes = Outcomes(len(jobs))
                executions, passes = measure(jobs, seconds, outcomes, sampler)
                rss = peak_rss_mb()
            timing = Timing(executions, passes, sampler)
            metrics, details = end_to_end(sampler.scale(setup_intervals), timing, len(jobs), rss)
        attempted, failed, correct, failures = outcomes.verify(jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details.update({
        "workload": workload,
        "trace": int(trace),
        "environment": environment(seed),
        "job_list_sha256": job_hash,
        "fail_ratio": failed / attempted,
        "failures": failures,
        "unlisted_metrics": sorted(set(metrics) - set(units)),
        "client": "one closed-loop client in one process",
    })
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, details


def layer_group_problems(names) -> list[str]:
    """Per-layer metrics that do not belong to exactly one group of layers.json."""
    groups = json.loads((HERE / "layers.json").read_text())["groups"]
    problems = []
    for name in names:
        owners = [g["layer"] for g in groups if any(name.startswith(p) for p in g["prefixes"])]
        if len(owners) != 1:
            problems.append(f"{name} is in {len(owners)} groups of layers.json")
    return problems


def smoke(seed: int) -> int:
    """Run the first jobs of every workload in both modes; check every named metric."""
    spec = benchmark_spec()
    wanted = metric_units(spec)
    problems = layer_group_problems(wanted[True])
    for problem in problems:
        print(f"smoke: {problem}")
    for workload in [entry["name"] for entry in spec["workloads"]]:
        for trace in (False, True):
            result, details = run(workload, seed, 0, trace, limit=SMOKE_JOBS, repeats=1)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            missing = [f"{n} [{u}]" for n, u in wanted[trace].items() if printed.get(n) != u]
            unlisted = details["unlisted_metrics"]
            label = f"{workload} trace={int(trace)}"
            print(f"smoke {label}: {result['attempted']} attempted, {result['failed']} failed, "
                  f"correct={result['correct']}, missing={missing}, unlisted={unlisted}")
            if missing or unlisted or not result["correct"]:
                problems.append(label)
    print(json.dumps({"smoke_ok": not problems, "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke(args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - report a broken run without printing a result
        traceback.print_exc()
        return 1
    for failure in details["failures"][:10]:
        print(f"perfbench: job {failure['job']} {failure['id']}: {failure['kind']}: {failure['reason']}",
              file=sys.stderr)
    print(json.dumps({"perfbench": details}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
