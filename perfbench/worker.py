"""One fresh benchmark process: import qmetro.cli, run passes of a workload
in-process through qmetro.cli.main, check every record, and print one
JSON line of results.

    python3 perfbench/worker.py {warm,trace} WORKLOAD SEED SECONDS

warm   time `import qmetro.cli`, the cold pass, then warm passes until
       SECONDS after the process started (at least one)
trace  import, the cold pass, then untraced and traced passes in turn
       until SECONDS after the process started (at least one pair);
       reports per-layer metrics and writes the spans

The parent sets the BLAS thread variables before this process starts.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import pass_layer_metrics  # noqa: E402
from perfbench.tracing import Tracer, layer_stats  # noqa: E402
from perfbench.workloads import WORKLOADS, parse_records  # noqa: E402

SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
MAX_PROBLEMS = 5  # problem messages kept per process


def import_cli():
    """Import qmetro.cli from this checkout's src/, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qmetro.cli

    if Path(qmetro.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"qmetro imported from {qmetro.cli.__file__}, not {SRC}")
    return qmetro.cli


def run_pass(cli, invocations):
    """Run every invocation back to back; return (seconds, [(exit, text)]).

    Records go to an in-memory buffer.  An exception or SystemExit is
    kept as the invocation's exit value, so it counts as a failure.
    """
    outputs = []
    start = time.perf_counter()
    for inv in invocations:
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(list(inv.argv))
        except (Exception, SystemExit) as exc:
            code = f"raised {exc!r}"
        outputs.append((code, out.getvalue()))
    return time.perf_counter() - start, outputs


class Tally:
    """Attempted and failed invocations, with the first few problems.

    The first pass it checks is the reference: every later pass must
    emit the same bytes.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None

    def verify(self, invocations, outputs):
        """Check one pass's (exit, text) outputs."""
        if self.reference is None:
            self.reference = [text for _, text in outputs]
        for inv, (code, text), first in zip(invocations, outputs, self.reference):
            problems = []
            if code != 0:
                problems.append(f"exit {code}")
            else:
                rows = parse_records(text)
                if len(rows) != inv.expected_rows:
                    problems.append(f"{len(rows)} records, expected {inv.expected_rows}")
                problems += inv.check(rows)
            if text != first:
                problems.append("records differ from the first pass")
            self.attempted += 1
            if problems:
                self.failed += 1
                room = MAX_PROBLEMS - len(self.problems)
                self.problems += [f"{' '.join(inv.argv)}: {p}" for p in problems[:room]]

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems,
                "digests": [hashlib.sha256(t.encode()).hexdigest() for t in self.reference]}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _phi_records(outputs):
    return sum(1 for _, text in outputs for row in parse_records(text) if row.get("phi"))


def _keep_going(times, deadline):
    """Start another pass while one more fits before the deadline."""
    return not times or time.perf_counter() + statistics.median(times) <= deadline


def measure(cli, invocations, deadline):
    """The cold pass, then warm passes until `deadline` (at least one)."""
    tally = Tally()
    cold_s, outputs = run_pass(cli, invocations)
    tally.verify(invocations, outputs)
    warm_s = []
    while _keep_going(warm_s, deadline):
        elapsed, outputs = run_pass(cli, invocations)
        warm_s.append(elapsed)
        tally.verify(invocations, outputs)
    return {"cold_s": cold_s, "warm_s": warm_s, **tally.as_dict()}


def trace(cli, invocations, deadline, tracer):
    """Untraced and traced passes in turn; per-layer medians of the traced ones.

    Wrappers are installed only for each traced pass, so the untraced
    passes that `trace.overhead` compares against run unwrapped.
    """
    tally = Tally()
    tally.verify(invocations, run_pass(cli, invocations)[1])
    plain_s, traced_s, per_pass = [], [], []
    while _keep_going([a + b for a, b in zip(plain_s, traced_s)], deadline):
        elapsed, outputs = run_pass(cli, invocations)
        plain_s.append(elapsed)
        tally.verify(invocations, outputs)

        tracer.pass_id = len(traced_s)
        tracer.install()
        try:
            elapsed, outputs = run_pass(cli, invocations)
        finally:
            tracer.remove()
        traced_s.append(elapsed)
        tally.verify(invocations, outputs)
        stats = layer_stats(tracer.spans, tracer.pass_id)
        output_bytes = sum(len(text.encode()) for _, text in outputs)
        per_pass.append(pass_layer_metrics(stats, _phi_records(outputs), output_bytes))

    layers = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    layers["trace.traced_sweep_s"] = statistics.median(traced_s)
    layers["trace.overhead"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    return {"layers": layers, "traced_s": traced_s, "plain_s": plain_s, **tally.as_dict()}


def environment():
    """Versions, BLAS build and thread pinning of this process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv):
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    start = time.perf_counter()
    cli = import_cli()
    result = {"setup_s": time.perf_counter() - start}
    invocations = WORKLOADS[workload].invocations(seed)
    if mode == "trace":
        tracer = Tracer()
        result.update(trace(cli, invocations, start + seconds, tracer))
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.dump(str(SPAN_DIR / f"spans-{workload}-seed{seed}.json.gz"))
    else:
        result.update(measure(cli, invocations, start + seconds))
    result["records_per_pass"] = sum(inv.expected_rows for inv in invocations)
    result["peak_rss_mb"] = _peak_rss_mb()
    result["environment"] = environment()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
