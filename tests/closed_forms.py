"""The closed forms of the CLI's records, the one copy the tests and CI read.

FORMS[name](row, cfg) maps a record row (CSV cells) and its run's parsed
configuration to {column: (expected, tolerance)}.  `failures` adds the
bounds 0 <= F <= F_Q (1 + 1e-6) and |parity| <= 1, and the swept values.
`python tests/closed_forms.py run <experiment> [flags]` runs the installed
`qmetro` on those flags (records on stdout, so no --out) and exits 1 naming
each row and column off its form, or 2 if no `qmetro` console script is on
PATH.
"""

import csv
import io
import itertools
import json
import math
import subprocess
import sys

from qmetro import cli


def legendre(n, x):
    """Legendre polynomial P_n(x) by the three-term recurrence."""
    p_prev, p = 1.0, x
    if n == 0:
        return p_prev
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p


def oat_closed_form(n, chi_t):
    """One-axis twisting of the x-polarized CSS for time t under chi Jz^2
    (Kitagawa & Ueda, PRA 47, 5138, 1993): the three squeezing parameters
    and the mean spin length |<J>|.

    With mu = 2 chi t and L(x) = log1p(-2 sin^2(x/2)), which is log cos x
    without the rounding of cos near 1:
    A = 1 - cos^(N-2) mu, B = 4 sin(mu/2) cos^(N-2)(mu/2),
    xi_S^2 = 1 - (N-1)/4 (sqrt(A^2 + B^2) - A), written as
    1 - (N-1)/4 B^2 / (A + hypot(A, B)) so nothing cancels, and
    |<J>| = (N/2) cos^(N-1)(mu/2).
    """
    def log_cos(x):
        return math.log1p(-2.0 * math.sin(0.5 * x) ** 2)

    mu = 2.0 * chi_t
    a = -math.expm1((n - 2) * log_cos(mu))
    b = 4.0 * math.sin(0.5 * mu) * math.exp((n - 2) * log_cos(0.5 * mu))
    xi_s_sq = 1.0 - 0.25 * (n - 1) * b * b / (a + math.hypot(a, b))
    mean_spin = 0.5 * n * math.exp((n - 1) * log_cos(0.5 * mu))
    return {
        "xi_s_sq": xi_s_sq,
        "xi_r_sq": n * n * xi_s_sq / (4.0 * mean_spin**2),
        "xi_h_sq": n * xi_s_sq / (2.0 * mean_spin),
        "mean_spin": mean_spin,
    }


def _rel(expected, tolerance):
    return expected, tolerance * abs(expected)


def _quantum(qfi, cfg, tolerance):
    """F_Q and its bound qcrb = 1 / sqrt(v F_Q), to one relative tolerance."""
    return {"qfi": _rel(qfi, tolerance), "qcrb": _rel((qfi * (cfg.v or 1)) ** -0.5, tolerance)}


def _css(row, cfg):
    """The coherent spin state at the standard quantum limit: F = F_Q = N,
    and sqrt(N) dtheta = 1."""
    n = int(row["n"])
    quantum = _quantum(n, cfg, 1e-8)
    classical = {"classical_fisher": quantum["qfi"], "crb": quantum["qcrb"]}
    return {**quantum, **classical, "delta_theta_errorprop": _rel(n**-0.5, 1e-8)}


def _kitagawa_ueda(row, cfg):
    """The twisted CSS's xi at chi t; xi_R^2 and xi_H^2 divide by powers of
    |<J>|, so their tolerance grows with its conditioning N / (2 |<J>|)."""
    n = int(row["n"])
    closed = oat_closed_form(n, float(row["chi"]) * float(row["t"]))
    conditioned = 1e-12 * max(1.0, n / (2.0 * closed["mean_spin"]))
    tolerances = {"xi_s_sq": 1e-12, "xi_r_sq": conditioned, "xi_h_sq": conditioned}
    return {key: _rel(closed[key], tolerance) for key, tolerance in tolerances.items()}


def _ramsey_sss(row, cfg):
    """Rotations keep the twisted CSS's xi; at phi = pi/2 error propagation
    reaches sqrt(N) dtheta = xi_R (Wineland et al., PRA 50, 67, 1994)."""
    checks = _kitagawa_ueda(row, cfg)
    if float(row["phi"]) == math.pi / 2:
        root_n = math.sqrt(int(row["n"]))
        checks["delta_theta_errorprop"] = (math.sqrt(float(row["xi_r_sq"])) / root_n, 1e-9 / root_n)
    return checks


def _ecs(row, cfg):
    """F_Q = 4 Var n_b of the entangled coherent state of amplitude alpha."""
    alpha = float(row["alpha"])
    na_sq = 1.0 / (2.0 * (1.0 + math.exp(-(alpha**2))))
    return _quantum(4 * alpha**2 * na_sq + 4 * (1 - na_sq) * alpha**4 * na_sq, cfg, 1e-6)


def twin_fock_qfi(n):
    """F_Q of twin Fock |N, N> under the Mach-Zehnder phase, at every phi."""
    return 2.0 * n * (n + 1)


def _twin_fock(row, cfg):
    """F_Q = 2N(N+1), and the parity P_N(cos 2 phi)."""
    n = int(row["n"])
    parity = legendre(n, math.cos(2 * float(row["phi"])))
    return {**_quantum(twin_fock_qfi(n), cfg, 1e-9), "parity": (parity, 1e-12)}


def _bjj_ground(row, cfg):
    """At E_c = 0, H = -J Jx + delta Jz is omega = (J^2 + delta^2)^(1/2)
    times a spin component: levels spaced by omega, the ground state the
    CSS along (J, 0, -delta), at alpha = atan2(|delta|, J) from the x axis.
    Elsewhere no form is known."""
    if cfg.ec != 0 or cfg.jtun == 0:
        return {}
    n, omega = int(row["n"]), math.hypot(cfg.jtun, cfg.delta)
    half_alpha = 0.5 * math.atan2(abs(cfg.delta), cfg.jtun)
    return {
        "regime": ("rabi", 0), "ground_degenerate": ("false", 0),
        "ground_energy": _rel(-0.5 * n * omega, 1e-12),
        "gap": _rel(omega, 1e-12),
        # absolute: a tiny overlap is the round-off floor of the eigenvector
        "css_overlap": (math.cos(half_alpha) ** (2 * n), 1e-12),
    }


def _monte_carlo(row, cfg):
    """mse / crb_variance over T trials scatters like chi2_T / T, of
    standard deviation sqrt(2 / T): it lies within five of those of 1."""
    crb = float(row["crb_variance"])
    return {"mse": (crb, 5.0 * math.sqrt(2.0 / int(row["trials"])) * crb)}


FORMS = {
    "mz-single": lambda row, cfg: {"n": (1, 0), **_css({**row, "n": "1"}, cfg)},  # N = 1
    "ramsey-css": _css,
    "ramsey-sss": _ramsey_sss,
    "noon-qfi": lambda row, cfg: _quantum(int(row["n"]) ** 2, cfg, 1e-10),
    "ecs-qfi": _ecs,
    "twinfock-parity": _twin_fock,
    "bjj-ground": _bjj_ground,
    "oat-squeeze": _kitagawa_ueda,
    "monte-carlo": _monte_carlo,
}


def config(argv):
    """The configuration of `qmetro run *argv`, as the CLI parses it."""
    return cli.parse_config(cli._build_parser().parse_args(cli._joined(["run", *argv])))


def failures(argv, text):
    """Each row and column of `qmetro run *argv`'s records off its form, bound or grid."""
    cfg = config(argv)
    records = csv.DictReader(io.StringIO(text)) if cfg.format == "csv" else json.loads(text)
    rows = [{key: cli._format_cell(value) for key, value in row.items()} for row in records]
    keys = [key for key in ("n", "alpha", "t", "phi") if hasattr(cfg, key)]  # outermost first
    grid = list(itertools.product(*(getattr(cfg, key) for key in keys)))
    if len(rows) != len(grid):
        return [f"{len(rows)} records, expected {len(grid)}"]
    found = []
    for i, (row, point) in enumerate(zip(rows, grid)):
        checks = {"parity": (0.0, 1.0)} if "parity" in row else {}
        if "qfi" in row and "classical_fisher" in row:
            top = float(row["qfi"]) * (1 + 1e-6)
            checks["classical_fisher"] = (0.5 * top, 0.5 * top)  # 0 <= F <= top
        checks.update(FORMS[cfg.experiment](row, cfg))
        checks.update((key, (float(value), 0)) for key, value in zip(keys, point))
        for column, (expected, tolerance) in checks.items():
            value = row[column]
            if isinstance(expected, str):
                holds = value == expected
            else:
                holds = abs(float(value) - expected) <= tolerance  # NaN does not
            if not holds:
                found.append(f"row {i}: {column} = {value}, expected {expected!r} +- {tolerance:.3g}")
    return found


def report(argv, text):
    """Print each failure of `qmetro run *argv`; the exit status, 1 if any."""
    found = failures(argv, text)
    for line in found or ["every record holds its closed forms"]:
        print(f"qmetro run {' '.join(argv)}: {line}")
    return 1 if found else 0


def main(args):
    if args[:1] != ["run"]:
        print("usage: python tests/closed_forms.py run <experiment> [flags]", file=sys.stderr)
        return 2
    try:
        done = subprocess.run(["qmetro", *args], capture_output=True, text=True)
    except FileNotFoundError:  # exit 1 is kept for a record off its form
        print("no `qmetro` console script on PATH: install the package (pip install -e .)",
              file=sys.stderr)
        return 2
    sys.stderr.write(done.stderr)
    return done.returncode or report(args[1:], done.stdout)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
