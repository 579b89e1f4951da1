"""Parameter-estimation bounds: Fisher information, quantum Fisher
information (both pure-state forms), Cramer-Rao bounds, error
propagation, diagonal-readout probabilities, and a seeded
maximum-likelihood Monte-Carlo harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._search import grid_then_golden
from .spinops import BasisTag, Observable, _readonly, moments

__all__ = [
    "InvalidDistributionError",
    "InvalidFamilyError",
    "DistributionFamily",
    "Readout",
    "PrecisionReport",
    "MonteCarloRun",
    "ErrorPropagation",
    "classical_fisher",
    "povm_probabilities",
    "povm_family",
    "projective_povm",
    "qfi_generator",
    "qfi_from_family",
    "cramer_rao",
    "error_propagation",
    "run_monte_carlo",
]

ZERO_PROB_CUTOFF = 1e-12  # outcomes below this are dropped from Fisher sums
PROB_STEP = 1e-5   # central-difference step for probability families
STATE_STEP = 1e-4  # central-difference step for state families
PSD_TOL = 1e-10
MLE_GRID = 512  # grid points of the maximum-likelihood search


class InvalidDistributionError(ValueError):
    """A probability family produced negative or unnormalized probabilities."""


class InvalidFamilyError(ValueError):
    """A state family drifted off unit norm or changed dimension."""


def _central_diff(f, x: float, h: float):
    """Central difference with one Richardson refinement: O(h^4) accurate."""

    def d(s):
        return (f(x + s) - f(x - s)) / (2.0 * s)

    return (4.0 * d(0.5 * h) - d(h)) / 3.0


@dataclass(frozen=True)
class DistributionFamily:
    """Parameter-indexed outcome distribution theta -> {P(x_i | theta)}.

    ``derivative`` optionally supplies dP/dtheta analytically; otherwise
    Fisher information falls back to central differences.
    """

    outcome_labels: tuple
    prob_at: Callable[[float], np.ndarray]
    derivative: Optional[Callable[[float], np.ndarray]] = None

    def probabilities(self, theta: float) -> np.ndarray:
        p = np.asarray(self.prob_at(theta), dtype=float)
        if p.shape != (len(self.outcome_labels),):
            raise InvalidDistributionError(
                f"expected {len(self.outcome_labels)} probabilities, got {p.shape}"
            )
        if p.min() < -PSD_TOL:
            raise InvalidDistributionError(
                f"negative probability {p.min()!r} at theta={theta}"
            )
        total = float(p.sum())
        if abs(total - 1.0) > 1e-10:
            raise InvalidDistributionError(
                f"probabilities sum to {total!r} at theta={theta}"
            )
        return np.clip(p, 0.0, None)


@dataclass(frozen=True)
class Readout:
    """Diagonal measurement in the computational basis of a tagged space.

    ``outcome[i]`` is the outcome that basis state i is counted as, so
    P(k) = sum of |psi_i|^2 over the i with outcome[i] == k.  Population
    counting and mode parity both have this form.  One label per basis
    state makes the measurement complete and positive by construction.
    """

    outcome: np.ndarray
    basis_tag: BasisTag

    def __post_init__(self):
        labels = np.array(self.outcome)
        dim = self.basis_tag.dim
        if labels.shape != (dim,):
            raise ValueError(f"outcome labels have shape {labels.shape}, expected ({dim},)")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"outcome labels must be integers, got {labels.dtype}")
        if labels.min() < 0:
            raise ValueError(f"negative outcome label {labels.min()}")
        object.__setattr__(self, "outcome", _readonly(labels))

    def __len__(self):
        return int(self.outcome.max()) + 1


class ErrorPropagation(NamedTuple):
    """Result of the error-propagation formula; value is +inf when the
    signal slope vanishes (stationary readout point)."""

    value: float
    stationary: bool


@dataclass(frozen=True)
class PrecisionReport:
    """Precision bounds for one configuration at one parameter value."""

    theta: float
    classical_fisher: float
    quantum_fisher: float
    repetitions: int
    crb: float
    qcrb: float
    error_prop: float
    stationary: bool = False


@dataclass(frozen=True)
class MonteCarloRun:
    """Maximum-likelihood estimates from repeated simulated experiments."""

    seed: int
    repetitions: int
    theta_true: float
    estimates: np.ndarray
    bias: float
    mse: float

    def __post_init__(self):
        est = np.asarray(self.estimates, dtype=float)
        est.setflags(write=False)
        object.__setattr__(self, "estimates", est)


def classical_fisher(
    family: DistributionFamily, theta: float, step: float = PROB_STEP
) -> float:
    """Fisher information F(theta) = sum_i P_i (d ln P_i / d theta)^2.

    Outcomes with P < 1e-12 are excluded: their contribution vanishes
    analytically and keeping them would divide by ~0.
    """
    p = family.probabilities(theta)
    if family.derivative is not None:
        dp = np.asarray(family.derivative(theta), dtype=float)
    else:
        dp = _central_diff(lambda t: family.probabilities(t), theta, step)
    keep = p >= ZERO_PROB_CUTOFF
    return float(np.sum(dp[keep] ** 2 / p[keep]))


def povm_probabilities(state, readout: Readout) -> np.ndarray:
    """Outcome probabilities of a diagonal readout on a pure state."""
    if state.basis_tag != readout.basis_tag:
        raise ValueError(
            f"basis mismatch: state {state.basis_tag}, readout {readout.basis_tag}"
        )
    vec = np.asarray(state.vector, dtype=complex)
    probs = np.bincount(
        readout.outcome, weights=vec.real**2 + vec.imag**2, minlength=len(readout)
    )
    total = probs.sum()
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"readout probabilities sum to {total!r}")
    return probs


def povm_family(state_family, readout: Readout, labels=None) -> DistributionFamily:
    """Distribution family theta -> readout outcome probabilities on psi(theta)."""
    if labels is None:
        labels = tuple(range(len(readout)))
    return DistributionFamily(
        outcome_labels=tuple(labels),
        prob_at=lambda theta: povm_probabilities(state_family(theta), readout),
    )


def projective_povm(basis_tag: BasisTag) -> Readout:
    """Projective measurement in the computational basis of a tagged space."""
    return Readout(np.arange(basis_tag.dim), basis_tag)


def qfi_generator(initial_state, generator: Observable) -> float:
    """Quantum Fisher information 4 Var(H) of a pure state under exp(-iH theta)."""
    _, variance = moments(initial_state, generator)
    return 4.0 * variance


def _family_vector(state_family, theta: float) -> np.ndarray:
    state = state_family(theta)
    vec = np.asarray(getattr(state, "vector", state), dtype=complex)
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-8:
        raise InvalidFamilyError(f"state norm {norm!r} at theta={theta}")
    return vec


def qfi_from_family(state_family, theta: float, step: float = STATE_STEP) -> float:
    """Quantum Fisher information from the parameterized final state:

    F_Q = 4 [ <psi'|psi'> - |<psi'|psi>|^2 ],

    with psi' from central differences (one Richardson refinement).
    Agrees with ``qfi_generator`` whenever the family is exp(-iH theta) psi0.
    """
    psi = _family_vector(state_family, theta)
    dpsi = _central_diff(lambda t: _family_vector(state_family, t), theta, step)
    fq = 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(dpsi, psi)) ** 2)
    return max(0.0, float(fq))


def cramer_rao(fisher: float, repetitions: int = 1) -> float:
    """Cramer-Rao lower bound 1 / sqrt(v F); +inf for zero information."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if fisher < 0.0:
        raise ValueError("Fisher information must be non-negative")
    if fisher == 0.0:
        return math.inf
    return 1.0 / math.sqrt(repetitions * fisher)


def error_propagation(
    signal, noise, theta: float, step: float = PROB_STEP
) -> ErrorPropagation:
    """Delta theta = Delta O / |d<O>/d theta| for a readout observable.

    ``signal`` maps theta to <O>, ``noise`` maps theta to Delta O.
    The readout point is flagged stationary (and yields +inf) when the
    slope is below 1e-12 scaled by the sampled signal magnitude, or
    when it is indistinguishable from its own finite-difference error
    (the discrepancy between the two central-difference estimates that
    enter the Richardson refinement).
    """
    samples = [float(signal(theta + s)) for s in (step, -step, 0.5 * step, -0.5 * step)]
    d_full = (samples[0] - samples[1]) / (2.0 * step)
    d_half = (samples[2] - samples[3]) / step
    slope = (4.0 * d_half - d_full) / 3.0
    scale = max(1.0, *(abs(x) for x in samples))
    fd_error = abs(d_half - d_full)
    sigma = float(noise(theta))
    if abs(slope) < 1e-12 * scale or abs(slope) <= 4.0 * fd_error:
        return ErrorPropagation(math.inf, True)
    return ErrorPropagation(sigma / abs(slope), False)


def _log_likelihood(family: DistributionFamily, counts: np.ndarray, theta: float):
    p = family.probabilities(theta)
    active = counts > 0
    if np.any(p[active] <= 0.0):
        return -math.inf
    return float(np.sum(counts[active] * np.log(p[active])))


def run_monte_carlo(
    family: DistributionFamily,
    theta_true: float,
    repetitions: int,
    trials: int,
    seed: int,
    search_interval: tuple[float, float],
) -> MonteCarloRun:
    """Simulate repeated experiments and estimate theta by maximum likelihood.

    Each trial draws ``repetitions`` outcomes from P(.|theta_true), then
    maximizes the log-likelihood over ``search_interval`` by a 512-point
    grid followed by golden-section refinement to width 1e-10.  The grid
    does not depend on the trial: the family is evaluated (and validated)
    once per grid point per run, and each trial's grid log-likelihoods
    are sum_i n_i ln P_i from that one log-probability table, with the
    same float operations as a per-point evaluation, so the estimates
    are bit-identical to evaluating the likelihood afresh at every grid
    point.  Only the golden-section refinement calls the family per
    trial.  Trial streams are derived from (seed, trial index), so runs
    are reproducible bit-exactly and trials are independent.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not lo < hi:
        raise ValueError("search interval must be non-degenerate")
    if not lo <= theta_true <= hi:
        raise ValueError(
            f"theta_true={theta_true} outside search interval [{lo}, {hi}]"
        )
    p_true = family.probabilities(theta_true)
    grid_p = np.array([family.probabilities(t) for t in np.linspace(lo, hi, MLE_GRID)])
    with np.errstate(divide="ignore"):
        grid_log_p = np.log(grid_p)
    estimates = np.empty(trials)
    for trial in range(trials):
        rng = np.random.default_rng([int(seed), trial])
        counts = rng.multinomial(repetitions, p_true)
        active = counts > 0
        # -_log_likelihood at every grid point, bit for bit: numpy sums each
        # row of a C-ordered table as it sums a 1-D array (pairwise above 8
        # terms), while grid_log_p[:, active] alone comes out F-ordered and
        # would be summed column by column.  An observed outcome with P = 0
        # has ln P = -inf, so its row is +inf, as in _log_likelihood.
        terms = np.multiply(counts[active], grid_log_p[:, active], order="C")
        grid_values = -np.sum(terms, axis=1)
        estimates[trial] = grid_then_golden(
            lambda t: -_log_likelihood(family, counts, t),
            lo,
            hi,
            n_grid=MLE_GRID,
            tol=1e-10,
            grid_values=grid_values,
        )
    bias = float(estimates.mean() - theta_true)
    mse = float(np.mean((estimates - theta_true) ** 2))
    return MonteCarloRun(int(seed), repetitions, theta_true, estimates, bias, mse)
