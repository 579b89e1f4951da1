"""Benchmark workloads: the `qmetro run` argv each one sends, and the
closed-form checks every emitted record must pass.

A workload is a list of invocations run back to back (one closed-loop
client).  Its inputs come only from the benchmark seed: the seed shifts
the start of the phi / t grid a little and picks the Monte-Carlo seed.
The CLI sees nothing but the generated argv.

Two workloads split the experiments by layer.  `spin-mle` runs every
sweep that goes through spinops, and the Monte-Carlo MLE; `two-mode`
runs the two-mode Fock sweeps, which use neither.  A change to spinops
or to the MLE has one workload that exercises it and one that bypasses
it, and so has a change to the two-mode code.  The parts of `spin-mle`
share one workload because a run of the pure-Python MLE alone spread by
up to 30% from run to run on a shared 2-core host: its speed follows the
host's load more than that of the linear-algebra-bound sweeps.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

# Relative slack for the inequality checks (F <= F_Q, dphi >= crb >= qcrb):
# the CLI's finite-difference stencils are accurate to about 1e-9.
INEQ_SLACK = 1e-6

# monte-carlo: mse / crb_variance over T trials scatters like chi2_T / T,
# whose standard deviation is sqrt(2 / T).  The band is five of those.
MC_BAND_SIGMAS = 5.0


@dataclass(frozen=True)
class Invocation:
    """One `qmetro` command line and what its records must satisfy."""

    argv: tuple
    expected_rows: int
    check: Callable[[list], list]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, bool], list]

    def invocations(self, seed: int, tiny: bool = False) -> list:
        """The invocations of one pass; the same seed gives the same argv."""
        return self.build(random.Random(f"{self.name}:{seed}"), tiny)


def parse_records(text: str) -> list:
    """CSV records as dicts of strings, header row removed."""
    return list(csv.DictReader(io.StringIO(text)))


def _f(row, key):
    return float(row[key])


def _rel_err(got, want):
    return abs(got - want) / abs(want)


def legendre(n: int, x: float) -> float:
    """Legendre polynomial P_n(x) by the three-term recurrence."""
    p_prev, p = 1.0, x
    if n == 0:
        return p_prev
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p


def _bounds_ordered(row) -> list:
    """F <= F_Q and dphi_errorprop >= crb >= qcrb, each to INEQ_SLACK."""
    fisher, qfi = _f(row, "classical_fisher"), _f(row, "qfi")
    ep, crb, qcrb = (_f(row, k) for k in ("delta_theta_errorprop", "crb", "qcrb"))
    problems = []
    if fisher > qfi * (1 + INEQ_SLACK):
        problems.append(f"F={fisher} > F_Q={qfi}")
    if not ep >= crb * (1 - INEQ_SLACK) >= qcrb * (1 - 2 * INEQ_SLACK):
        problems.append(f"ordering dphi={ep} >= crb={crb} >= qcrb={qcrb} broken")
    return problems


def check_ramsey_css(rows) -> list:
    """F/N, QFI/N and sqrt(N) dphi_errorprop are 1 to 1e-6 (SQL)."""
    problems = []
    for row in rows:
        n = int(row["n"])
        for label, value in (
            ("F/N", _f(row, "classical_fisher") / n),
            ("QFI/N", _f(row, "qfi") / n),
            ("sqrt(N) dphi", math.sqrt(n) * _f(row, "delta_theta_errorprop")),
        ):
            if not abs(value - 1.0) <= 1e-6:
                problems.append(f"n={n} phi={row['phi']}: {label} = {value}")
    return problems


def check_ramsey_sss(rows) -> list:
    """Bounds ordered at every point; the best point beats the SQL."""
    problems = []
    best = {}
    for row in rows:
        problems += [f"phi={row['phi']}: {p}" for p in _bounds_ordered(row)]
        n = int(row["n"])
        best[n] = min(best.get(n, math.inf), _f(row, "delta_theta_errorprop"))
    for n, dphi in best.items():
        if not dphi < 1.0 / math.sqrt(n):
            problems.append(f"n={n}: min dphi {dphi} does not beat 1/sqrt(N)")
    return problems


def check_twinfock_parity(rows) -> list:
    """QFI = 2N(N+1) to 1e-6, parity = P_N(cos 2 phi) to 1e-8, F <= F_Q."""
    problems = []
    for row in rows:
        n, phi = int(row["n"]), _f(row, "phi")
        qfi = _f(row, "qfi")
        if not _rel_err(qfi, 2.0 * n * (n + 1)) <= 1e-6:
            problems.append(f"n={n} phi={phi}: QFI {qfi} != 2N(N+1)")
        parity = _f(row, "parity")
        if not abs(parity - legendre(n, math.cos(2.0 * phi))) <= 1e-8:
            problems.append(f"n={n} phi={phi}: parity {parity} != P_N(cos 2phi)")
        if _f(row, "classical_fisher") > qfi * (1 + INEQ_SLACK):
            problems.append(f"n={n} phi={phi}: F > F_Q")
    return problems


def check_ecs_qfi(rows) -> list:
    """QFI = 4 a^2 N^2 + 4 (1 - N^2) a^4 N^2, N^2 = 1 / (2 (1 + e^-a^2))."""
    problems = []
    for row in rows:
        alpha = _f(row, "alpha")
        na_sq = 1.0 / (2.0 * (1.0 + math.exp(-(alpha**2))))
        closed = 4 * alpha**2 * na_sq + 4 * (1 - na_sq) * alpha**4 * na_sq
        if not _rel_err(_f(row, "qfi"), closed) <= 1e-6:
            problems.append(f"alpha={alpha}: QFI {row['qfi']} != {closed}")
    return problems


def check_oat_squeeze(rows) -> list:
    """xi_S^2 <= xi_R^2 < 1: the twisted state is spin squeezed."""
    problems = []
    for row in rows:
        xi_s, xi_r = _f(row, "xi_s_sq"), _f(row, "xi_r_sq")
        if not xi_s <= xi_r * (1 + 1e-12) or not xi_r < 1.0:
            problems.append(f"n={row['n']} t={row['t']}: xi_S^2={xi_s} xi_R^2={xi_r}")
    return problems


def check_bjj_ground(rows) -> list:
    """Josephson regime, positive gap, non-degenerate ground state."""
    problems = []
    for row in rows:
        if row["regime"] != "josephson":
            problems.append(f"n={row['n']}: regime {row['regime']}")
        # the CLI writes numpy booleans as "False"
        if not _f(row, "gap") > 0.0 or row["ground_degenerate"].lower() != "false":
            problems.append(f"n={row['n']}: gap {row['gap']}, degenerate {row['ground_degenerate']}")
    return problems


def check_monte_carlo(rows) -> list:
    """mse / crb_variance within MC_BAND_SIGMAS * sqrt(2 / trials) of 1."""
    problems = []
    for row in rows:
        ratio = _f(row, "mse") / _f(row, "crb_variance")
        half_width = MC_BAND_SIGMAS * math.sqrt(2.0 / int(row["trials"]))
        if not abs(ratio - 1.0) <= half_width:
            problems.append(f"mse/crb = {ratio} outside 1 +- {half_width}")
    return problems


PHI_STOP = "3.0915926535897931"  # the CLI's default phi grid end, pi - 0.05


def _grid(start: float, stop: str, count: int) -> str:
    # fixed-point text: the CLI's number parser takes no exponent
    return f"{start:.12f}:{stop}:{count}"


def _spin_ramsey(rng: random.Random, tiny: bool) -> list:
    points = 3 if tiny else 8
    css_n, sss_n = ("2,4", "20") if tiny else ("10,100", "40")
    phi = _grid(0.05 + rng.uniform(0.0, 0.02), PHI_STOP, points)
    return [
        Invocation(("run", "ramsey-css", "--n", css_n, "--phi", phi), 2 * points,
                   check_ramsey_css),
        Invocation(("run", "ramsey-sss", "--n", sss_n, "--chi", "0.05", "--t", "1",
                    "--phi", phi), points, check_ramsey_sss),
    ]


def _two_mode_parity(rng: random.Random, tiny: bool) -> list:
    n_list, points = ("2,3", 3) if tiny else ("5,10,14", 10)
    phi = _grid(rng.uniform(0.001, 0.02), "pi/2", points)
    alphas = "0.5,1" if tiny else "0.5,1,2,4"
    return [
        Invocation(("run", "twinfock-parity", "--n", n_list, "--phi", phi),
                   len(n_list.split(",")) * points, check_twinfock_parity),
        Invocation(("run", "ecs-qfi", "--alpha", alphas), len(alphas.split(",")),
                   check_ecs_qfi),
    ]


def _mle_monte_carlo(rng: random.Random, tiny: bool) -> list:
    # the CLI fixes 200 trials, so a tiny pass costs as much as a full one
    mc_seed = str(rng.randrange(2**31))
    return [Invocation(("run", "monte-carlo", "--v", "10000", "--seed", mc_seed), 1,
                       check_monte_carlo)]


def _large_n_squeeze(rng: random.Random, tiny: bool) -> list:
    oat_n, bjj_n = ("20,40", "10,20") if tiny else ("400,1000", "100,400,1000")
    t = _grid(0.1 + rng.uniform(0.0, 0.05), "1", 2)
    return [
        Invocation(("run", "oat-squeeze", "--n", oat_n, "--chi", "0.01", "--t", t),
                   2 * len(oat_n.split(",")), check_oat_squeeze),
        Invocation(("run", "bjj-ground", "--n", bjj_n, "--ec", "1"),
                   len(bjj_n.split(",")), check_bjj_ground),
    ]


def _spin_mle(rng: random.Random, tiny: bool) -> list:
    return _spin_ramsey(rng, tiny) + _large_n_squeeze(rng, tiny) + _mle_monte_carlo(rng, tiny)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spin-mle",
            "spinops sweeps, small Ramsey propagations and 1001-dim eigh, plus the "
            "pure-Python MLE with no linear algebra",
            _spin_mle,
        ),
        Workload(
            "two-mode",
            "no spinops and no MLE: dense two-mode Fock grid, sector-wise "
            "Mach-Zehnder, parity POVM with its eigvalsh validation",
            _two_mode_parity,
        ),
    )
}
