"""Metric definitions: the end-to-end metrics of an untraced run and the
per-layer metrics of a traced run.  BENCHMARK.json mirrors these tables
(test_perfbench checks that it does).
"""

from __future__ import annotations

# name, unit, bound (share of the parent's median it may worsen by); all lower-is-better
END_TO_END = (
    ("sweep_s", "s", 0.25),
    ("cold_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.1),
)

_SPAN_FIELDS = {"calls": ("calls", "count"), "self_s": ("self_s", "s"),
                "total_s": ("total_s", "s"), "n3_sum": ("work", "count")}

# per-layer metrics read straight off one span name: span.field
_SPAN_METRICS = (
    "spinops.collective_ops.calls",
    "spinops.collective_ops.self_s",
    "spinops.rotate.calls",
    "spinops.evolve.calls",
    "spinops.evolve.self_s",
    "spinops.moments.self_s",
    "spinops.expectation_vector.self_s",
    "linalg.eigh.calls",
    "linalg.eigh.self_s",
    "linalg.eigh.n3_sum",
    "linalg.eigvalsh.calls",
    "linalg.eigvalsh.self_s",
    "linalg.eigvalsh.n3_sum",
    "interferom.ramsey.calls",
    "interferom.mz_two_mode.calls",
    "interferom.mz_two_mode.self_s",
    "interferom.parity_sector_povm.total_s",
    "interferom.parity_expectation.self_s",
    "interferom.phase_sweep.total_s",
    "estimate.classical_fisher.total_s",
    "estimate.qfi_from_family.total_s",
    "estimate.error_propagation.total_s",
    "estimate.povm_probabilities.calls",
    "estimate.povm_probabilities.self_s",
    "estimate.run_monte_carlo.total_s",
    "estimate.DistributionFamily.probabilities.calls",
    "estimate.DistributionFamily.probabilities.self_s",
    "search.grid_then_golden.self_s",
    "search.golden_section.self_s",
    "statelib.css.self_s",
    "statelib.twin_fock.self_s",
    "statelib.ecs.self_s",
    "squeeze.oat_evolve.calls",
    "squeeze.oat_evolve.self_s",
    "squeeze.squeezing_parameters.self_s",
    "squeeze.ground_state.self_s",
    "squeeze.bjj_hamiltonian.self_s",
    "cli.parse_config.self_s",
    "cli.run_sweep.self_s",
)

# per-layer metrics computed from several spans or from the output
_DERIVED_UNITS = {
    "estimate.Povm.init_s": "s",
    "estimate.povm_dense_bytes": "B",
    "interferom.propagations_per_point": "ratio",
    "estimate.likelihood_evals_per_trial": "ratio",
    "cli.output_bytes": "B",
    "trace.traced_sweep_s": "s",
    "trace.overhead": "ratio",
}


def _split(metric):
    span, field = metric.rsplit(".", 1)
    return span, _SPAN_FIELDS[field]


PER_LAYER = tuple((m, _split(m)[1][1]) for m in _SPAN_METRICS) + tuple(_DERIVED_UNITS.items())

PROPAGATIONS = ("interferom.ramsey", "interferom.mz_two_mode")


def pass_layer_metrics(stats: dict, phi_records: int, output_bytes: int) -> dict:
    """Per-layer values of one traced pass (every name but trace.*).

    `stats` is tracing.layer_stats of the pass; a span that never ran
    counts 0.  Ratios with an empty base are 0.
    """
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "in_search_calls": 0}

    def get(span):
        return stats.get(span, empty)

    values = {}
    for metric in _SPAN_METRICS:
        span, (field, _) = _split(metric)
        values[metric] = get(span)[field]
    povm_init = get("estimate.Povm.__post_init__")
    values["estimate.Povm.init_s"] = povm_init["total_s"]
    values["estimate.povm_dense_bytes"] = povm_init["work"]
    propagations = sum(get(s)["calls"] for s in PROPAGATIONS)
    values["interferom.propagations_per_point"] = propagations / phi_records if phi_records else 0
    searches = get("search.grid_then_golden")["calls"]
    evals = get("estimate.DistributionFamily.probabilities")["in_search_calls"]
    values["estimate.likelihood_evals_per_trial"] = evals / searches if searches else 0
    values["cli.output_bytes"] = output_bytes
    return values
