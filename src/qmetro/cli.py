"""Command-line front end: named experiment sweeps with CSV/JSON output.

Subcommands:
  run <experiment>   execute one named sweep and emit records
  list-experiments   print the available experiment names
  version            print the package version

Every configuration key is declared once, in the table _KEYS, with its
parser, its default text and its help: `run` takes --<key> for each
entry, an optional flat key=value config file (--config) takes the same
keys, and flags override file values.  `parse_config` parses each value
once, checks included.  Each experiment reads a fixed set of keys (see
EXPERIMENTS); any other flag or config key is a configuration error,
except --out, --format and --config, which every experiment accepts.
Numbers may use exponents ("1e-3") and pi expressions ("pi", "pi/2",
"2pi", "0.25pi"); grids use start:stop:count.  Output is byte
deterministic for identical configurations (including the Monte-Carlo
seed) at a fixed BLAS thread count; the environment variable
QMETRO_OUT_DIR prefixes relative output paths.

Exit codes: 0 success, 2 configuration error, 3 computation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

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
    _mode_moments,
    mz_two_mode,
    parity_expectation,
    parity_sector_povm,
    phase_sweep,
    ramsey,
)
from .spinops import _count, rotate
from .squeeze import (
    BjjParams,
    OatParams,
    _lowest_states,
    bjj_hamiltonian,
    classify_regime,
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


_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?"
_PI_TOKEN = re.compile(
    rf"^(?P<sign>[+-]?)(?P<mult>{_NUMBER})?\s*\*?\s*(?P<pi>pi)?(?:/(?P<div>{_NUMBER}))?$"
)


def parse_scalar(text: str) -> float:
    """Parse a float or a pi expression like '1e-3', 'pi', '2pi', 'pi/2', '0.25pi'."""
    m = _PI_TOKEN.match(text.strip().lower())
    if not m or (m.group("mult") is None and m.group("pi") is None):
        raise ConfigError(f"cannot parse number {text!r}")
    value = float(m.group("mult") or 1.0)
    if m.group("pi"):
        value *= math.pi
    if m.group("div"):
        divisor = float(m.group("div"))
        if divisor == 0:
            raise ConfigError(f"division by zero in {text!r}")
        value /= divisor
    if not math.isfinite(value):
        raise ConfigError(f"number out of range {text!r}")
    return -value if m.group("sign") == "-" else value


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
    return tuple(_count("particle numbers", v, 1) for v in values)


def _parse_float_list(text: str) -> tuple[float, ...]:
    values = tuple(parse_scalar(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise ConfigError("empty list")
    return values


def _repetitions(text: str) -> int:
    return _count("repetitions v", int(text), 1)


def _seed(text: str) -> int:
    return _count("seed", int(text), 0)


def _out_path(text: str) -> str:
    base = os.environ.get(ENV_OUT_DIR)
    return os.path.join(base, text) if base and not os.path.isabs(text) else text


def _format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {text!r}")
    return text


# The one list of configuration keys: key -> (parser of its text, default
# text or None, help).  `run` takes --<key> for each; a config file takes
# the same keys.
_KEYS = {
    "n": (_parse_int_list, "10", "comma-separated particle numbers"),
    "phi": (parse_grid, "0.05:3.0915926535897931:100",
            "phase grid start:stop:count or one value (pi literals ok)"),
    "alpha": (_parse_float_list, "0.5,1,2", "comma-separated coherent amplitudes"),
    "chi": (parse_scalar, "0.01", "one-axis-twisting nonlinearity"),
    "delta": (parse_scalar, "0", "detuning / imbalance"),
    "ec": (parse_scalar, "0", "charging energy"),
    "jtun": (parse_scalar, "1", "tunneling strength"),
    "t": (parse_grid, "1", "evolution time, one value or a grid"),
    "v": (_repetitions, None, "repetitions for the bounds; 10000 for monte-carlo, 1 elsewhere"),
    "seed": (_seed, "0", "Monte-Carlo seed, >= 0"),
    "out": (_out_path, None,
            "output file, stdout if absent; QMETRO_OUT_DIR prefixes relative paths"),
    "format": (_format, "csv", "csv or json"),
}

# keys every experiment accepts
_COMMON_KEYS = frozenset({"out", "format"})


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
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read config file {path}: not UTF-8 text")
    return values


def parse_config(args: argparse.Namespace) -> SimpleNamespace:
    """Resolve the keys the experiment reads, each parsed once: from its
    flag, else from its config-file line, else from its default in _KEYS.

    A key the experiment does not read is an error, whether it comes
    from a flag or from the config file.
    """
    given = _read_config_file(args.config) if args.config else {}
    given.update({k: v for k, v in vars(args).items() if k in _KEYS and v is not None})
    reads = _experiment(args.experiment).keys | _COMMON_KEYS
    unused = sorted(set(given) - reads)
    if unused:
        flags = ", ".join(f"--{key}" for key in unused)
        raise ConfigError(f"{args.experiment} does not read {flags}")

    cfg = SimpleNamespace(experiment=args.experiment)
    for key, (parse, default, _) in _KEYS.items():
        if key not in reads:
            continue
        text = given.get(key, default)
        try:
            setattr(cfg, key, None if text is None else parse(text))
        except (ConfigError, ValueError, MemoryError) as exc:  # a grid count too large
            raise ConfigError(f"--{key}: {exc}") from None
    return cfg


# ---------------------------------------------------------------------------
# experiment runners: each returns (rows, summary line); a row is a dict
# keyed by the experiment's columns, "experiment" excepted


def _min_summary(rows, column, swept="phi"):
    finite = [r for r in rows if math.isfinite(r[column])]
    if not finite:
        return f"no finite {column} in sweep"
    best = min(r[column] for r in finite)
    # rows within 1e-9 relative of the least value tie with it at round-off
    ties = [r[swept] for r in finite if r[column] - best <= 1e-9 * abs(best)]
    if len(ties) == 1:
        return f"min {column} = {best:.6g} at {swept} = {ties[0]:.6g}"
    span = f"{swept} = {min(ties):.6g} to {max(ties):.6g}"
    return f"min {column} = {best:.6g}, flat over {len(ties)} points ({span})"


def _squeezing_cells(report) -> dict:
    return {"xi_h_sq": report.xi_h_sq, "xi_s_sq": report.xi_s_sq, "xi_r_sq": report.xi_r_sq}


def _sweep_rows(cfg: SimpleNamespace, n: int, state_family, readout, **extra) -> list[dict]:
    """Rows of one `phase_sweep` over the configured phase grid."""
    reports = phase_sweep(state_family, readout, cfg.phi, repetitions=cfg.v or 1)
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


def _run_mz_single(cfg: SimpleNamespace):
    # one particle is the N = 1 spin (Yurke, McCall & Klauder, PRA 33, 4033, 1986)
    return _run_ramsey_css(SimpleNamespace(**vars(cfg), n=(1,)))


def _run_ramsey_css(cfg: SimpleNamespace):
    rows = []
    for n in cfg.n:
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


def _run_ramsey_sss(cfg: SimpleNamespace):
    if cfg.t.size != 1:
        raise ConfigError(f"ramsey-sss takes one --t value, got a grid of {cfg.t.size}")
    t = float(cfg.t[0])
    rows = []
    for n in cfg.n:
        probe = _prepare_squeezed_probe(n, cfg.chi, t)
        squeezing = _squeezing_cells(squeezing_parameters(probe))
        jz = Readout(probe.m_values, probe.basis_tag)
        rows += _sweep_rows(
            cfg, n, lambda phi: ramsey(probe, phi), jz, chi=cfg.chi, t=t, **squeezing
        )
    return rows, _min_summary(rows, "delta_theta_errorprop")


def _run_noon_qfi(cfg: SimpleNamespace):
    rows = []
    for n in cfg.n:
        probe = ghz(n)
        qfi = 4.0 * readout_moments(probe, Readout(probe.m_values, probe.basis_tag))[1]
        rows.append({"n": n, "qfi": qfi, "qcrb": cramer_rao(qfi, cfg.v or 1)})
    return rows, _min_summary(rows, "qcrb", swept="n")


def _run_ecs_qfi(cfg: SimpleNamespace):
    rows = []
    for alpha in cfg.alpha:
        # F_Q = 4 Var n_b under the phase e^{i phi n_b}, exact
        state = ecs(alpha)
        qfi = 4.0 * _mode_moments(state, "b", np.arange(state.cutoff + 1.0))[1]
        rows.append({"alpha": float(alpha), "qfi": qfi, "qcrb": cramer_rao(qfi, cfg.v or 1)})
    return rows, _min_summary(rows, "qcrb", swept="alpha")


def _run_twinfock_parity(cfg: SimpleNamespace):
    rows = []
    for n in cfg.n:
        probe = twin_fock(n)
        readout = parity_sector_povm("b", probe.cutoff)
        rows += [
            {**row, "parity": parity_expectation(mz_two_mode(probe, row["phi"]), "b")}
            for row in _sweep_rows(cfg, n, lambda phi: mz_two_mode(probe, phi), readout)
        ]
    return rows, _min_summary(rows, "delta_theta_errorprop")


def _run_bjj_ground(cfg: SimpleNamespace):
    rows = []
    for n in cfg.n:
        params = BjjParams(
            n_particles=n,
            tunneling=cfg.jtun,
            imbalance=cfg.delta,
            charging_energy=cfg.ec,
        )
        spectrum = _lowest_states(bjj_hamiltonian(params))
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


def _run_oat_squeeze(cfg: SimpleNamespace):
    rows = []
    for n in cfg.n:
        initial = css(n, math.pi / 2.0, 0.0)
        for t in cfg.t:
            evolved = oat_evolve(initial, OatParams(chi=cfg.chi, t=float(t)))
            squeezing = _squeezing_cells(squeezing_parameters(evolved))
            rows.append({"n": n, "t": float(t), "chi": cfg.chi, **squeezing})
    return rows, _min_summary(rows, "xi_r_sq", swept="t")


MONTE_CARLO_THETA_TRUE = 0.5
MONTE_CARLO_TRIALS = 200
MONTE_CARLO_INTERVAL = (0.01, 0.99)
# the coin P = (theta, 1 - theta); a table row is its prob_at bit for bit
_MONTE_CARLO_COIN = DistributionFamily(
    outcome_labels=("success", "failure"),
    prob_at=lambda theta: np.array([theta, 1.0 - theta]),
    derivative=lambda theta: np.array([1.0, -1.0]),
    table_at=lambda thetas: np.stack([thetas, 1.0 - thetas], axis=-1),
)


def _run_monte_carlo(cfg: SimpleNamespace):
    v = cfg.v or 10_000
    run = run_monte_carlo(
        _MONTE_CARLO_COIN,
        MONTE_CARLO_THETA_TRUE,
        v,
        MONTE_CARLO_TRIALS,
        cfg.seed,
        MONTE_CARLO_INTERVAL,
    )
    fisher = classical_fisher(_MONTE_CARLO_COIN, MONTE_CARLO_THETA_TRUE)
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

    run: Callable[[SimpleNamespace], tuple[list[dict], str]]
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
    if isinstance(value, float):  # inf formats as "inf", -inf as "-inf"
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


def run_sweep(cfg: SimpleNamespace) -> int:
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
    render = _render_csv if cfg.format == "csv" else _render_json
    text = render(experiment.columns, rows)
    if cfg.out is None:
        sys.stdout.write(text)
        print(f"{cfg.experiment}: {summary}", file=sys.stderr)
        return EXIT_OK
    try:
        directory = os.path.dirname(cfg.out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {cfg.out}: {exc.strerror}") from None
    print(f"{cfg.experiment}: {summary} -> {cfg.out}")
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qmetro",
        description="Deterministic quantum-metrology experiment sweeps.",
        allow_abbrev=False,  # flags are exact names on every parser, as `_joined` reads them
    )
    sub = parser.add_subparsers(dest="command")

    runp = sub.add_parser("run", help="run a named experiment sweep", allow_abbrev=False)
    runp.add_argument("experiment", help="experiment name (see list-experiments)")
    for key, (_, default, text) in _KEYS.items():
        runp.add_argument(f"--{key}", help=f"{text} (default {default})" if default else text)
    runp.add_argument("--config", help="flat key=value config file")

    sub.add_parser("list-experiments", help="print available experiment names", allow_abbrev=False)
    sub.add_parser("version", help="print the package version", allow_abbrev=False)
    return parser


def _joined(argv: list[str]) -> list[str]:
    """argv with each value flag (--<key> of _KEYS, --config) joined to the
    token after it as --flag=value, so that a value starting with "-", as
    in "--phi -1:1:3", is read as the value; a value flag with no token
    after it is left as it is, for argparse to reject."""
    flags, tokens, joined = {f"--{key}" for key in (*_KEYS, "config")}, iter(argv), []
    for token in tokens:
        value = next(tokens, None) if token in flags else None
        joined.append(token if value is None else f"{token}={value}")
    return joined


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_joined(sys.argv[1:] if argv is None else argv))
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
