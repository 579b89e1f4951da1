"""Tests of the benchmark itself: tiny smoke passes, failure counting,
tracer clean-up and the BENCHMARK.json tables."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, worker
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.tracing import Tracer, layer_stats, wrap_targets
from perfbench.workloads import WORKLOADS, _spin_ramsey, parse_records

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def cli():
    return worker.import_cli()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_pass_of_each_workload_passes_its_checks(cli, name):
    invocations = WORKLOADS[name].invocations(seed=7, tiny=True)
    _, outputs = worker.run_pass(cli, invocations)
    tally = worker.Tally()
    tally.verify(invocations, outputs)
    assert tally.problems == []
    assert (tally.attempted, tally.failed) == (len(invocations), 0)


def test_same_seed_same_argv_other_seed_other_grid():
    spin = WORKLOADS["spin-mle"]
    assert [i.argv for i in spin.invocations(3)] == [i.argv for i in spin.invocations(3)]
    assert [i.argv for i in spin.invocations(3)] != [i.argv for i in spin.invocations(4)]


def test_corrupted_record_counts_as_failure(cli):
    invocations = WORKLOADS["two-mode"].invocations(seed=1, tiny=True)
    _, outputs = worker.run_pass(cli, invocations)
    code, text = outputs[0]
    row = parse_records(text)[0]
    corrupted = text.replace(row["qfi"], repr(2.0 * float(row["qfi"])), 1)
    tally = worker.Tally()
    tally.verify(invocations, [(code, corrupted), outputs[1]])
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "!= 2N(N+1)" in tally.problems[0]

    tally = worker.Tally()  # corrupted bytes after a clean first pass
    tally.verify(invocations, outputs)
    tally.verify(invocations, [(code, corrupted), outputs[1]])
    assert (tally.attempted, tally.failed) == (4, 1)
    assert "differ from the first pass" in tally.problems[-1]


def test_changed_bytes_and_bad_exit_count_as_failures(cli):
    invocations = WORKLOADS["two-mode"].invocations(seed=1, tiny=True)
    _, outputs = worker.run_pass(cli, invocations)
    tally = worker.Tally()
    tally.verify(invocations, outputs)
    tally.verify(invocations, [outputs[0], (3, outputs[1][1] + " ")])
    assert (tally.attempted, tally.failed) == (4, 1)

    # a process whose cold pass differs from the first process's
    process = {"attempted": 2, "failed": 0, "problems": [], "records_per_pass": 1,
               "environment": {}}
    counted = run.tally([dict(process, digests=["a", "b"]), dict(process, digests=["a", "c"])])
    assert (counted["attempted"], counted["failed"]) == (4, 1)


def _bindings():
    """Every place a wrap target is bound, with the object bound there."""
    targets = wrap_targets()
    modules = [m for k, m in sys.modules.items() if k == "qmetro" or k.startswith("qmetro.")]
    holders = {id(h): h for owner, _, _ in targets for h in [owner, *modules]}
    names = {attr for _, attr, _ in targets}
    return {(id(h), a): vars(h)[a] for h in holders.values() for a in names if a in vars(h)}


# the Ramsey part of spin-mle alone: its Monte-Carlo part costs a full pass even when tiny
RAMSEY_PART = _spin_ramsey(random.Random(2), tiny=True)


@pytest.mark.parametrize("invocations, per_point", [
    (WORKLOADS["two-mode"].invocations(seed=2, tiny=True), 16),
    (RAMSEY_PART, 15),
])
def test_traced_run_removes_wrappers_and_keeps_bytes(cli, invocations, per_point):
    before = _bindings()
    tracer = Tracer()
    result = worker.trace(cli, invocations, deadline=0.0, tracer=tracer)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert result["failed"] == 0  # traced records are byte-identical to untraced ones
    assert tracer.spans and all(s is not None for s in tracer.spans)
    layers = result["layers"]
    assert set(layers) == {name for name, _ in PER_LAYER}
    assert layers["interferom.propagations_per_point"] == per_point
    assert layers["linalg.eigh.calls"] > 0
    tracer.install()
    try:
        with pytest.raises(RuntimeError):  # a second install without remove is refused
            tracer.install()
    finally:
        tracer.remove()
    assert all(_bindings()[k] is before[k] for k in before)


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, -1, "a", 0.0, 10.0, 0),
        (0, 0, "b", 1.0, 4.0, 8),
        (0, 1, "c", 2.0, 3.0, 0),
        (1, -1, "a", 0.0, 99.0, 0),  # another pass
    ]
    stats = layer_stats(spans, 0)
    assert stats["a"]["self_s"] == pytest.approx(7.0)
    assert stats["b"]["self_s"] == pytest.approx(2.0)
    assert stats["b"]["total_s"] == pytest.approx(3.0)
    assert (stats["a"]["calls"], stats["b"]["work"]) == (1, 8)


def test_benchmark_json_mirrors_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["bound"]) for m in spec["end_to_end"]] == [
        (n, u, b) for n, u, b in END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "two-mode", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
