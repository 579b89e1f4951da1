"""Command-line front end: named experiment sweeps with CSV/JSON output.

Subcommands:
  run <experiment>   execute one named sweep and emit records
  list-experiments   print the available experiment names
  version            print the package version

Flags override values from an optional flat key=value config file
(--config).  Each experiment reads a fixed set of keys (see
EXPERIMENTS); any other flag or config key is a configuration error,
except --out, --format and --config, which every experiment accepts.
Grids use the syntax start:stop:count where endpoints may be pi
expressions ("pi", "pi/2", "2pi", "0.25pi").  Output is byte
deterministic for identical configurations (including the Monte-Carlo
seed) at a fixed BLAS thread count; the environment variable
QMETRO_OUT_DIR prefixes relative output paths.

Exit codes: 0 success, 2 configuration error, 3 computation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import __version__
from .estimate import (
    DistributionFamily,
    Readout,
    classical_fisher,
    cramer_rao,
    readout_moments,
    run_monte_carlo,
)
from .interferom import (
    _mode_numbers,
    mz_single_particle_state,
    mz_two_mode,
    parity_sector_povm,
    phase_sweep,
    ramsey,
)
from .spinops import BasisTag, CollectiveSpinState, rotate
from .squeeze import (
    BjjParams,
    OatParams,
    bjj_hamiltonian,
    classify_regime,
    ground_state,
    oat_evolve,
    squeezing_parameters,
)
from .statelib import css, ecs, ghz, twin_fock

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3

ENV_OUT_DIR = "QMETRO_OUT_DIR"


class ConfigError(Exception):
    """Configuration problem; maps to exit code 2."""


_PI_TOKEN = re.compile(
    r"^(?P<sign>[+-]?)(?P<mult>\d+\.?\d*|\.\d+)?\s*\*?\s*(?P<pi>pi)?"
    r"(?:/(?P<div>\d+\.?\d*|\.\d+))?$"
)


def parse_scalar(text: str) -> float:
    """Parse a float or a pi expression like 'pi', '2pi', 'pi/2', '0.25pi'."""
    token = text.strip().lower()
    m = _PI_TOKEN.match(token)
    if not m or (m.group("mult") is None and m.group("pi") is None):
        raise ConfigError(f"cannot parse number {text!r}")
    value = float(m.group("mult")) if m.group("mult") else 1.0
    if m.group("pi"):
        value *= math.pi
    elif m.group("mult") is None:
        raise ConfigError(f"cannot parse number {text!r}")
    if m.group("div"):
        divisor = float(m.group("div"))
        if divisor == 0:
            raise ConfigError(f"division by zero in {text!r}")
        value /= divisor
    if m.group("sign") == "-":
        value = -value
    return value


def parse_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:count' into an inclusive linspace, or a single value."""
    parts = text.strip().split(":")
    if len(parts) == 1:
        return np.array([parse_scalar(parts[0])])
    if len(parts) != 3:
        raise ConfigError(f"grid spec must be start:stop:count, got {text!r}")
    start, stop = parse_scalar(parts[0]), parse_scalar(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise ConfigError(f"grid count must be an integer, got {parts[2]!r}")
    if count < 1:
        raise ConfigError("grid is empty")
    return np.linspace(start, stop, count)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"cannot parse integer list {text!r}")
    if not values:
        raise ConfigError("empty integer list")
    if any(v < 1 for v in values):
        raise ConfigError("particle numbers must be positive")
    return values


def _parse_float_list(text: str) -> tuple[float, ...]:
    values = tuple(parse_scalar(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise ConfigError("empty list")
    return values


# config key -> (SweepConfig field, parser of the key's text)
_KEYS = {
    "n": ("n_list", _parse_int_list),
    "phi": ("phi", str),
    "alpha": ("alpha", str),
    "chi": ("chi", parse_scalar),
    "delta": ("delta", parse_scalar),
    "ec": ("ec", parse_scalar),
    "jtun": ("jtun", parse_scalar),
    "t": ("t", str),
    "v": ("v", int),
    "seed": ("seed", int),
    "out": ("out", str),
    "format": ("fmt", str),
}

# keys every experiment accepts
_COMMON_KEYS = frozenset({"out", "format"})


@dataclass
class SweepConfig:
    """Resolved configuration of one experiment sweep."""

    experiment: str
    n_list: tuple[int, ...] = (10,)
    phi: str = "0.05:3.0915926535897931:100"
    alpha: str = "0.5,1,2"
    chi: float = 0.01
    delta: float = 0.0
    ec: float = 0.0
    jtun: float = 1.0
    t: str = "1"
    v: Optional[int] = None
    seed: int = 0
    out: Optional[str] = None
    fmt: str = "csv"

    def __post_init__(self):
        _experiment(self.experiment)
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        if self.v is not None and self.v < 1:
            raise ConfigError("repetitions v must be >= 1")

    def phi_grid(self) -> np.ndarray:
        return parse_grid(self.phi)

    def t_grid(self) -> np.ndarray:
        return parse_grid(self.t)

    def output_path(self) -> Optional[str]:
        if self.out is None:
            return None
        base = os.environ.get(ENV_OUT_DIR)
        if base and not os.path.isabs(self.out):
            return os.path.join(base, self.out)
        return self.out


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}"
                    )
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    return values


def parse_config(args: argparse.Namespace) -> SweepConfig:
    """Merge config-file values and command-line flags (flags win).

    A key the experiment does not read is an error, whether it comes
    from a flag or from the config file.
    """
    merged = _read_config_file(args.config) if args.config else {}
    for key in _KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value

    unused = sorted(set(merged) - _experiment(args.experiment).keys - _COMMON_KEYS)
    if unused:
        flags = ", ".join(f"--{key}" for key in unused)
        raise ConfigError(f"{args.experiment} does not read {flags}")

    try:
        resolved = {
            field: parse(str(merged[key]))
            for key, (field, parse) in _KEYS.items()
            if key in merged
        }
    except ValueError as exc:
        raise ConfigError(str(exc))

    cfg = SweepConfig(experiment=args.experiment, **resolved)
    cfg.phi_grid()  # validate grids eagerly so bad specs exit with code 2
    cfg.t_grid()
    _parse_float_list(cfg.alpha)
    return cfg


# ---------------------------------------------------------------------------
# experiment runners: each returns (rows, summary line); a row is a dict
# keyed by the experiment's columns, "experiment" excepted


def _min_summary(rows, column, swept="phi"):
    finite = [r for r in rows if math.isfinite(r[column])]
    if not finite:
        return f"no finite {column} in sweep"
    best = min(finite, key=lambda r: r[column])
    return f"min {column} = {best[column]:.6g} at {swept} = {best[swept]:.6g}"


def _squeezing_cells(report) -> dict:
    return {"xi_h_sq": report.xi_h_sq, "xi_s_sq": report.xi_s_sq, "xi_r_sq": report.xi_r_sq}


def _sweep_rows(cfg: SweepConfig, n: int, state_family, readout, **extra) -> list[dict]:
    """Rows of one `phase_sweep` over the configured phase grid."""
    reports = phase_sweep(state_family, readout, cfg.phi_grid(), repetitions=cfg.v or 1)
    return [
        {
            "n": n,
            **extra,
            "phi": r.theta,
            "classical_fisher": r.classical_fisher,
            "qfi": r.quantum_fisher,
            "crb": r.crb,
            "qcrb": r.qcrb,
            "delta_theta_errorprop": r.error_prop,
        }
        for r in reports
    ]


def _run_mz_single(cfg: SweepConfig):
    # one particle is the N = 1 spin; by the Schwinger map path b is m = -1/2,
    # and the readout counts +1 in path a and -1 in path b
    rows = _sweep_rows(
        cfg,
        1,
        lambda phi: CollectiveSpinState(1, mz_single_particle_state(phi)[::-1]),
        Readout(np.array([-1.0, 1.0]), BasisTag("spin", 1)),
    )
    return rows, _min_summary(rows, "delta_theta_errorprop")


def _run_ramsey_css(cfg: SweepConfig):
    rows = []
    for n in cfg.n_list:
        probe = css(n, 0.0, 0.0)
        jz = Readout(probe.m_values, probe.basis_tag)
        rows += _sweep_rows(cfg, n, lambda phi: ramsey(probe, phi), jz)
    return rows, _min_summary(rows, "delta_theta_errorprop")


def _prepare_squeezed_probe(n: int, chi: float, t: float):
    """One-axis-twisted coherent state, mean spin along -z, squeezed
    quadrature aligned with y (the variance the Ramsey chain reads out)."""
    equator = css(n, math.pi / 2.0, 0.0)
    twisted = oat_evolve(equator, OatParams(chi=chi, t=t))
    probe = rotate(twisted, (0.0, 1.0, 0.0), math.pi / 2.0)
    direction = squeezing_parameters(probe).min_perp_direction
    beta = math.atan2(direction[0], direction[1])  # bring it onto the y axis
    return rotate(probe, (0.0, 0.0, 1.0), beta)


def _run_ramsey_sss(cfg: SweepConfig):
    t_grid = cfg.t_grid()
    if t_grid.size != 1:
        raise ConfigError(f"ramsey-sss takes one --t value, got a grid of {t_grid.size}")
    t = float(t_grid[0])
    rows = []
    for n in cfg.n_list:
        probe = _prepare_squeezed_probe(n, cfg.chi, t)
        squeezing = _squeezing_cells(squeezing_parameters(probe))
        jz = Readout(probe.m_values, probe.basis_tag)
        rows += _sweep_rows(
            cfg, n, lambda phi: ramsey(probe, phi), jz, chi=cfg.chi, t=t, **squeezing
        )
    return rows, _min_summary(rows, "delta_theta_errorprop")


def _run_noon_qfi(cfg: SweepConfig):
    rows = []
    for n in cfg.n_list:
        probe = ghz(n)
        qfi = 4.0 * readout_moments(probe, Readout(probe.m_values, probe.basis_tag))[1]
        rows.append({"n": n, "qfi": qfi, "qcrb": cramer_rao(qfi, cfg.v or 1)})
    return rows, _min_summary(rows, "qcrb", swept="n")


def _run_ecs_qfi(cfg: SweepConfig):
    rows = []
    for alpha in _parse_float_list(cfg.alpha):
        # F_Q = 4 Var n_b under the phase e^{i phi n_b}, exact
        state = ecs(alpha)
        n_b = Readout(_mode_numbers(state.cutoff, "b").reshape(-1), state.basis_tag)
        qfi = 4.0 * readout_moments(state, n_b)[1]
        rows.append({"alpha": float(alpha), "qfi": qfi, "qcrb": cramer_rao(qfi, cfg.v or 1)})
    return rows, _min_summary(rows, "qcrb", swept="alpha")


def _run_twinfock_parity(cfg: SweepConfig):
    rows = []
    for n in cfg.n_list:
        probe = twin_fock(n)
        readout = parity_sector_povm("b", probe.cutoff)

        def family(phi):
            return mz_two_mode(probe, phi)

        rows += [
            {**row, "parity": readout_moments(family(row["phi"]), readout)[0]}
            for row in _sweep_rows(cfg, n, family, readout)
        ]
    return rows, _min_summary(rows, "delta_theta_errorprop")


def _run_bjj_ground(cfg: SweepConfig):
    rows = []
    for n in cfg.n_list:
        params = BjjParams(
            n_particles=n,
            tunneling=cfg.jtun,
            imbalance=cfg.delta,
            charging_energy=cfg.ec,
        )
        spectrum = ground_state(bjj_hamiltonian(params))
        reference = css(n, math.pi / 2.0, 0.0)
        overlap = abs(np.vdot(reference.amplitudes, spectrum.states[:, 0])) ** 2
        rows.append(
            {
                "n": n,
                "regime": classify_regime(params).value,
                "ground_energy": spectrum.ground_energy,
                "gap": spectrum.gap,
                "ground_degenerate": spectrum.ground_degenerate,
                "css_overlap": float(overlap),
            }
        )
    return rows, _min_summary(rows, "gap", swept="n")


def _run_oat_squeeze(cfg: SweepConfig):
    rows = []
    for n in cfg.n_list:
        initial = css(n, math.pi / 2.0, 0.0)
        for t in cfg.t_grid():
            evolved = oat_evolve(initial, OatParams(chi=cfg.chi, t=float(t)))
            squeezing = _squeezing_cells(squeezing_parameters(evolved))
            rows.append({"n": n, "t": float(t), "chi": cfg.chi, **squeezing})
    return rows, _min_summary(rows, "xi_r_sq", swept="t")


MONTE_CARLO_THETA_TRUE = 0.5
MONTE_CARLO_TRIALS = 200
MONTE_CARLO_INTERVAL = (0.01, 0.99)


def _run_monte_carlo(cfg: SweepConfig):
    family = DistributionFamily(
        outcome_labels=("success", "failure"),
        prob_at=lambda theta: np.array([theta, 1.0 - theta]),
        derivative=lambda theta: np.array([1.0, -1.0]),
    )
    v = cfg.v or 10_000
    run = run_monte_carlo(
        family,
        MONTE_CARLO_THETA_TRUE,
        v,
        MONTE_CARLO_TRIALS,
        cfg.seed,
        MONTE_CARLO_INTERVAL,
    )
    fisher = classical_fisher(family, MONTE_CARLO_THETA_TRUE)
    crb_variance = 1.0 / (v * fisher)
    row = {
        "theta_true": MONTE_CARLO_THETA_TRUE,
        "v": v,
        "seed": cfg.seed,
        "trials": MONTE_CARLO_TRIALS,
        "classical_fisher": fisher,
        "bias": run.bias,
        "mse": run.mse,
        "crb_variance": crb_variance,
    }
    summary = f"mse/crb = {run.mse / crb_variance:.6g} over {MONTE_CARLO_TRIALS} trials"
    return [row], summary


# ---------------------------------------------------------------------------
# the experiment table


@dataclass(frozen=True)
class Experiment:
    """A named sweep: its runner, its record columns, the config keys it reads."""

    run: Callable[[SweepConfig], tuple[list[dict], str]]
    columns: tuple[str, ...]
    keys: frozenset[str]


def _entry(run, columns: str, keys: str) -> Experiment:
    return Experiment(run, ("experiment", *columns.split()), frozenset(keys.split()))


_BOUNDS = "classical_fisher qfi crb qcrb delta_theta_errorprop"
_XI = "xi_h_sq xi_s_sq xi_r_sq"

# ordered as `list-experiments` prints them
EXPERIMENTS = {
    "mz-single": _entry(_run_mz_single, f"n phi {_BOUNDS}", "phi v"),
    "ramsey-css": _entry(_run_ramsey_css, f"n phi {_BOUNDS}", "n phi v"),
    "ramsey-sss": _entry(_run_ramsey_sss, f"n phi chi t {_BOUNDS} {_XI}", "n phi chi t v"),
    "noon-qfi": _entry(_run_noon_qfi, "n qfi qcrb", "n v"),
    "ecs-qfi": _entry(_run_ecs_qfi, "alpha qfi qcrb", "alpha v"),
    "twinfock-parity": _entry(_run_twinfock_parity, f"n phi parity {_BOUNDS}", "n phi v"),
    "bjj-ground": _entry(
        _run_bjj_ground,
        "n regime ground_energy gap ground_degenerate css_overlap",
        "n jtun delta ec",
    ),
    "oat-squeeze": _entry(_run_oat_squeeze, f"n t chi {_XI}", "n chi t"),
    "monte-carlo": _entry(
        _run_monte_carlo,
        "theta_true v seed trials classical_fisher bias mse crb_variance",
        "v seed",
    ),
}


def _experiment(name: str) -> Experiment:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ConfigError(f"unknown experiment {name!r}") from None


# ---------------------------------------------------------------------------
# serialization: one schema, two encodings

def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.17g}"
    return str(value)


def _json_cell(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _render_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _render_json(columns, rows) -> str:
    payload = [{c: _json_cell(row[c]) for c in columns} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def run_sweep(cfg: SweepConfig) -> int:
    """Execute a configured sweep, emit records, print a one-line summary."""
    experiment = _experiment(cfg.experiment)
    try:
        rows, summary = experiment.run(cfg)
    except ConfigError:
        raise
    except Exception as exc:
        print(f"error: {cfg.experiment}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    rows = [{"experiment": cfg.experiment, **row} for row in rows]
    render = _render_csv if cfg.fmt == "csv" else _render_json
    text = render(experiment.columns, rows)
    path = cfg.output_path()
    if path is None:
        sys.stdout.write(text)
        print(f"{cfg.experiment}: {summary}", file=sys.stderr)
    else:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"{cfg.experiment}: {summary} -> {path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmetro",
        description="Deterministic quantum-metrology experiment sweeps.",
    )
    sub = parser.add_subparsers(dest="command")

    runp = sub.add_parser("run", help="run a named experiment sweep")
    runp.add_argument("experiment", help="experiment name (see list-experiments)")
    runp.add_argument("--n", help="comma-separated particle numbers")
    runp.add_argument("--phi", help="phase grid start:stop:count (pi literals ok)")
    runp.add_argument("--alpha", help="comma-separated coherent amplitudes")
    runp.add_argument("--chi", help="one-axis-twisting nonlinearity")
    runp.add_argument("--delta", help="detuning / imbalance")
    runp.add_argument("--ec", help="charging energy")
    runp.add_argument("--jtun", help="tunneling strength")
    runp.add_argument("--t", help="evolution time (scalar or grid)")
    runp.add_argument("--v", help="number of repetitions for the bounds")
    runp.add_argument("--seed", help="Monte-Carlo seed")
    runp.add_argument("--out", help="output file (QMETRO_OUT_DIR prefixes relative paths)")
    runp.add_argument("--format", choices=("csv", "json"), help="csv or json")
    runp.add_argument("--config", help="flat key=value config file")

    sub.add_parser("list-experiments", help="print available experiment names")
    sub.add_parser("version", help="print the package version")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    if args.command == "list-experiments":
        for name in EXPERIMENTS:
            print(name)
        return EXIT_OK
    if args.command == "version":
        print(__version__)
        return EXIT_OK
    try:
        cfg = parse_config(args)
        return run_sweep(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
