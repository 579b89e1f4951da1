"""Sweep benchmark for qmetro.

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs `qmetro run ...` invocations in-process through
qmetro.cli.main, one closed-loop client, in fresh processes with BLAS
pinned to one thread.  Every record is checked against closed forms.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1).  Exits 2 when the checkout holds no
src/qmetro to benchmark, 1 when a benchmark process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

WORKER = ROOT / "perfbench" / "worker.py"
# Single-threaded BLAS for a plain baseline; a fixed hash seed removes one
# source of speed difference between otherwise identical processes.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
# An untraced run starts up to this many fresh processes in turn.  Each
# gives one setup_s, cold_s and peak_rss_mb sample and warm passes, and
# gets this share of --seconds for its import, cold pass and warm passes,
# so the samples of every metric are spread over the whole run.
FRESH_PROCESSES = 6
RUN_BUDGET_S = 170.0  # a run must end within 180 s


class BenchmarkError(RuntimeError):
    """A benchmark process crashed, timed out or printed no result."""


def git_sha():
    """The checkout's commit from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Starts worker processes one at a time, all inside one time budget."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, **WORKER_ENV)

    def worker(self, mode, workload, seed, seconds):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError("time budget spent before all processes ran")
        cmd = [sys.executable, str(WORKER), mode, workload, str(seed), str(seconds)]
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{mode} process for {workload} timed out")
        if done.returncode != 0 or not done.stdout.strip():
            raise BenchmarkError(
                f"{mode} process for {workload} exited {done.returncode}:\n{done.stderr[-2000:]}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def tally(results):
    """Sum attempted/failed over processes.  A process whose cold pass
    differs in bytes from the first process's fails each differing
    invocation once more."""
    reference = results[0]["digests"]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    for result in results[1:]:
        differing = sum(a != b for a, b in zip(result["digests"], reference))
        if differing:
            failed += differing
            problems.append(f"{differing} invocations differ in bytes across processes")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "meta": {k: results[0][k] for k in ("records_per_pass", "environment")}}


def measure(runner, workload, seed, seconds):
    """Untraced run: the median of every end-to-end metric."""
    share = seconds / FRESH_PROCESSES
    deadline, fresh = time.monotonic() + seconds, []
    # A process runs at least one warm pass, so on a workload with long
    # passes it outlasts its share and fewer processes fit in the run.
    while not fresh or deadline - time.monotonic() >= share / 2:
        remaining = max(0.0, deadline - time.monotonic())
        fresh.append(runner.worker("warm", workload, seed, min(share, remaining)))
    samples = {
        "sweep_s": [t for r in fresh for t in r["warm_s"]],
        "cold_s": [r["cold_s"] for r in fresh],
        "setup_s": [r["setup_s"] for r in fresh],
        "peak_rss_mb": [r["peak_rss_mb"] for r in fresh],
    }
    metrics, lines = {}, []
    for name, unit, _ in END_TO_END:
        values = samples[name]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        lines.append(f"{name} = {metrics[name]['value']:.6g} {unit} (median of {len(values)}, "
                     f"min {min(values):.6g}, max {max(values):.6g})")
    return dict(tally(fresh), metrics=metrics, lines=lines)


def trace(runner, workload, seed, seconds):
    """Traced run: per-layer metrics, each the median over the traced passes."""
    result = runner.worker("trace", workload, seed, seconds)
    passes = len(result["traced_s"])
    metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit in PER_LAYER}
    lines = [f"{name} = {m['value']:.6g} {m['unit']} (median of {passes} traced passes)"
             for name, m in metrics.items()]
    out = dict(tally([result]), metrics=metrics, lines=lines)
    out["meta"]["traced_passes"] = passes
    return out


def run_one(workload, seed, seconds, trace_on):
    """One run in its own time budget; prints its lines and returns its result."""
    result = (trace if trace_on else measure)(Runner(), workload, seed, seconds)
    for line in result["lines"]:
        print(f"{workload} {line}")
    print(f"{workload} fail_share = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} invocations)")
    for problem in result["problems"]:
        print(f"{workload} FAILED {problem}")
    meta = dict(result["meta"], workload=workload, seed=seed, trace=trace_on, git_sha=git_sha())
    print("meta " + json.dumps(meta, sort_keys=True))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: 0, or both with --workload all)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qmetro" / "cli.py").is_file():
        print(f"error: no src/qmetro/cli.py under {ROOT} to benchmark", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in ((0, 1) if args.trace is None else (args.trace,))]
    else:
        runs = [(args.workload, args.trace or 0)]
    metrics, attempted, failed = {}, 0, 0
    try:
        for workload, trace_on in runs:
            result = run_one(workload, args.seed, args.seconds, trace_on)
            prefix = "" if len(runs) == 1 else f"{workload}.{'trace.' if trace_on else ''}"
            metrics.update({prefix + k: v for k, v in result["metrics"].items()})
            attempted += result["attempted"]
            failed += result["failed"]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
