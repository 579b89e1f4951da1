"""Parameter-estimation bounds: Fisher information, quantum Fisher
information (both pure-state forms), Cramer-Rao bounds, error
propagation, diagonal readouts (outcome probabilities and the mean and
variance of the value read out), and a seeded
maximum-likelihood Monte-Carlo harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._search import grid_then_golden_many
from .spinops import ALL, BasisTag, Observable, _moments, _occupied, _occupied_in, _readonly, moments

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
    "readout_moments",
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
LIKELIHOOD_BLOCK = 1 << 13  # most float terms summed in one likelihood block (64 kB)


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

    ``table_at`` optionally evaluates many thetas in one call: it maps a
    float64 array of M thetas to an (M, K) array whose row m equals
    ``prob_at(thetas[m])``, one row per theta in the order given.  The
    table paths (`run_monte_carlo`) use it when it is set; without it
    they call ``prob_at`` once per theta.
    """

    outcome_labels: tuple
    prob_at: Callable[[float], np.ndarray]
    derivative: Optional[Callable[[float], np.ndarray]] = None
    table_at: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def probabilities(self, theta: float) -> np.ndarray:
        return self._validated(self._evaluate(theta), theta)

    def _probability_table(self, thetas) -> np.ndarray:
        """The validated probabilities at every theta in thetas as one
        (M, K) table, the rows checked together: one ``table_at`` call on
        the float64 array of the thetas when the family has one, else one
        ``prob_at`` call per theta, taken as a Python float."""
        thetas = np.asarray(thetas, dtype=float)
        if self.table_at is None:
            return self._validated(np.array([self._evaluate(t) for t in thetas.tolist()]), thetas)
        p = np.asarray(self.table_at(thetas), dtype=float)
        expected = (thetas.size, len(self.outcome_labels))
        if p.shape != expected:
            raise InvalidDistributionError(f"table_at gave shape {p.shape}, expected {expected}")
        return self._validated(p, thetas)

    def _evaluate(self, theta) -> np.ndarray:
        p = np.asarray(self.prob_at(theta), dtype=float)
        if p.shape != (len(self.outcome_labels),):
            raise InvalidDistributionError(
                f"expected {len(self.outcome_labels)} probabilities, got {p.shape}"
            )
        return p

    @staticmethod
    def _validated(p: np.ndarray, at) -> np.ndarray:
        """p clipped at 0 after the checks of each row: no entry below
        -PSD_TOL and a sum within 1e-10 of 1.  p is one row at theta
        ``at`` or an (M, K) table at the M thetas ``at``; an error names
        the first bad row."""
        low, total = p.min(axis=-1), p.sum(axis=-1)
        # written as "not good" so that a NaN row is bad too
        bad = ~(low >= -PSD_TOL) | ~(abs(total - 1.0) <= 1e-10)
        if bad.any():
            if p.ndim == 2:
                m = int(np.argmax(bad))
                low, total, at = low[m], total[m], at[m]
            if low < -PSD_TOL:
                raise InvalidDistributionError(f"negative probability {low!r} at theta={at}")
            raise InvalidDistributionError(f"probabilities sum to {float(total)!r} at theta={at}")
        return p.clip(0.0)


@dataclass(frozen=True)
class Readout:
    """Diagonal measurement in the computational basis of a tagged space.

    ``value[i]`` is the real value the measurement reports on basis
    state i: m for a Jz population count, (-1)^n_b for a mode parity.
    The outcomes are the distinct values in ascending order
    (``outcome_values``); ``outcome[i]`` is the index of basis state i's
    outcome, so P(k) = sum of |psi_i|^2 over the i with outcome[i] == k,
    and the mean and variance of the value are those of the diagonal
    observable diag(value).  One value per basis state makes the
    measurement complete and positive by construction.
    """

    value: np.ndarray
    basis_tag: BasisTag
    outcome_values: np.ndarray = field(init=False, repr=False)
    outcome: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        value = np.array(self.value)
        dim = self.basis_tag.dim
        if value.shape != (dim,):
            raise ValueError(f"readout values have shape {value.shape}, expected ({dim},)")
        if not (np.issubdtype(value.dtype, np.integer) or np.issubdtype(value.dtype, np.floating)):
            raise ValueError(f"readout values must be real numbers, got {value.dtype}")
        value = value.astype(float)
        if not np.all(np.isfinite(value)):
            raise ValueError("readout values must be finite")
        outcome_values, outcome = np.unique(value, return_inverse=True)
        object.__setattr__(self, "value", _readonly(value))
        object.__setattr__(self, "outcome_values", _readonly(outcome_values))
        object.__setattr__(self, "outcome", _readonly(outcome))

    def __len__(self):
        return self.outcome_values.size


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
        object.__setattr__(self, "estimates", _readonly(np.asarray(self.estimates, dtype=float)))


def classical_fisher(family: DistributionFamily, theta: float) -> float:
    """Fisher information F(theta) = sum_i P_i (d ln P_i / d theta)^2.

    Outcomes with P < 1e-12 are excluded: their contribution vanishes
    analytically and keeping them would divide by ~0.
    """
    p = family.probabilities(theta)
    if family.derivative is not None:
        dp = np.asarray(family.derivative(theta), dtype=float)
    else:
        dp = _central_diff(lambda t: family.probabilities(t), theta, PROB_STEP)
    keep = p >= ZERO_PROB_CUTOFF
    return float(np.sum(dp[keep] ** 2 / p[keep]))


def povm_probabilities(state, readout: Readout) -> np.ndarray:
    """Outcome probabilities of a diagonal readout on a pure state, in the
    order of ``readout.outcome_values``, summed over the state's occupied
    entries only (`spinops._occupied`)."""
    index, vec = _occupied_in(state, readout.basis_tag)
    probs = np.bincount(
        readout.outcome[index], weights=vec.real**2 + vec.imag**2, minlength=len(readout)
    )
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError(f"readout probabilities sum to {total!r}")
    return probs


def readout_moments(state, readout: Readout) -> tuple[float, float]:
    """Mean and variance of a readout's value on a pure state, as in
    `moments`, over the state's occupied entries; no matrix is built."""
    index, vec = _occupied_in(state, readout.basis_tag)
    return _moments(vec, readout.value[index] * vec)


def povm_family(state_family, readout: Readout) -> DistributionFamily:
    """Distribution family theta -> readout outcome probabilities on psi(theta)."""
    return DistributionFamily(
        outcome_labels=tuple(readout.outcome_values.tolist()),
        prob_at=lambda theta: povm_probabilities(state_family(theta), readout),
    )


def projective_povm(basis_tag: BasisTag) -> Readout:
    """Projective measurement in the computational basis of a tagged space;
    the value of basis state i is i."""
    return Readout(np.arange(basis_tag.dim), basis_tag)


def qfi_generator(initial_state, generator: Observable) -> float:
    """Quantum Fisher information 4 Var(H) of a pure state under exp(-iH theta)."""
    _, variance = moments(initial_state, generator)
    return 4.0 * variance


def _family_vectors(state_family, thetas) -> list:
    """The family's states at thetas, each checked for unit norm, as
    amplitude vectors over the union of their occupied entries
    (`spinops._occupied`): over the shared index itself when every state
    has it, as every phase of one probe does."""
    states = [state_family(theta) for theta in thetas]
    occupied = []
    for theta, state in zip(thetas, states):
        index, vec = _occupied(state)
        norm = float(np.linalg.norm(vec))
        if not abs(norm - 1.0) <= 1e-8:  # NaN fails too
            raise InvalidFamilyError(f"state norm {norm!r} at theta={theta}")
        occupied.append((index, vec))
    first = occupied[0][0]
    if all(index is first for index, _ in occupied):
        return [vec for _, vec in occupied]
    if len({getattr(state, "basis_tag", None) for state in states}) > 1:
        raise InvalidFamilyError(f"state family changed basis near theta={thetas[0]}")
    positions = [np.arange(vec.size) if index is ALL else index for index, vec in occupied]
    union = np.unique(np.concatenate(positions))
    vectors = []
    for where, (_, vec) in zip(positions, occupied):
        spread = np.zeros(union.size, dtype=complex)
        spread[np.searchsorted(union, where)] = vec
        vectors.append(spread)
    return vectors


def qfi_from_family(state_family, theta: float) -> float:
    """Quantum Fisher information from the parameterized final state:
    F_Q = 4 ||psi' - <psi|psi'> psi||^2 (Braunstein & Caves, PRL 72, 3439,
    1994), with psi' from central differences (one Richardson refinement)
    of the five states taken on the union of their occupied entries
    (`_family_vectors`).  Agrees with ``qfi_generator`` whenever the
    family is exp(-iH theta) psi0.
    """
    half = 0.5 * STATE_STEP
    thetas = (theta, theta + half, theta - half, theta + STATE_STEP, theta - STATE_STEP)
    at = dict(zip(thetas, _family_vectors(state_family, thetas)))
    psi = at[theta]
    dpsi = _central_diff(at.__getitem__, theta, STATE_STEP)
    centered = dpsi - np.vdot(psi, dpsi) * psi
    return 4.0 * float(np.vdot(centered, centered).real)


def cramer_rao(fisher: float, repetitions: int = 1) -> float:
    """Cramer-Rao lower bound 1 / sqrt(v F); +inf for zero information."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if not fisher >= 0.0:  # NaN fails too
        raise ValueError(f"Fisher information must be non-negative, got {fisher!r}")
    if fisher == 0.0:
        return math.inf
    return 1.0 / math.sqrt(repetitions * fisher)


def error_propagation(signal, noise, theta: float) -> ErrorPropagation:
    """Delta theta = Delta O / |d<O>/d theta| for a readout observable.

    ``signal`` maps theta to <O>, ``noise`` maps theta to Delta O.
    The readout point is flagged stationary (and yields +inf) when the
    slope is below 1e-12 scaled by the sampled signal magnitude, or
    when it is indistinguishable from its own finite-difference error
    (the discrepancy between the two central-difference estimates that
    enter the Richardson refinement).
    """
    step = PROB_STEP
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


def _observed_patterns(counts):
    """The distinct patterns of observed outcomes (n_i > 0) among the rows
    of a count table, each as the array of its observed outcome indices,
    and the index of each row's pattern."""
    patterns, pattern = np.unique(counts > 0, axis=0, return_inverse=True)
    return [np.flatnonzero(p) for p in patterns], pattern.reshape(-1)  # numpy 2.0.0: a column


def _minus_log_likelihoods(counts, log_p, patterns, pattern) -> np.ndarray:
    """-sum_i n_i ln P_i of each trial at each of M points, bit for bit as
    np.sum sums one trial's observed terms at one point.

    ``counts`` is (R, K), one row of outcome counts per trial; ``log_p``
    is (R, M, K), trial r's ln P at its own M points, or (1, M, K), one
    table shared by every trial; ``patterns[pattern[r]]`` lists the
    outcomes trial r observed (`_observed_patterns`, found once per run).
    Returns (R, M).  Only observed outcomes enter a sum, as one C-ordered
    row: numpy sums each row of such a table as it sums a 1-D array
    (pairwise above 8 terms), so the trials are taken one observed
    pattern at a time and no zero count is padded in.  A pattern's trials
    are split into blocks only when their terms exceed LIKELIHOOD_BLOCK.
    An observed outcome with P = 0 has ln P = -inf, so the value is +inf.
    """
    values = np.empty((counts.shape[0], log_p.shape[1]))
    for g, observed in enumerate(patterns):
        rows = np.flatnonzero(pattern == g)
        if not rows.size:
            continue
        blocks = min(rows.size, rows.size * log_p.shape[1] * observed.size // LIKELIHOOD_BLOCK)
        for block in np.array_split(rows, blocks) if blocks > 1 else (rows,):
            lp = log_p[:, :, observed] if log_p.shape[0] == 1 else log_p[block][:, :, observed]
            # order="C": an index on the last axis comes out F-ordered, and
            # numpy would then sum across the rows instead of along each
            terms = np.multiply(counts[block][:, None, observed], lp, order="C")
            values[block] = -np.sum(terms, axis=2)
    return values


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
    once per grid point per run, and every trial's grid log-likelihoods
    come from that one log-probability table.  The trials are then
    refined in lockstep (`_search.golden_sections`): each step evaluates
    and validates the family once, as one table with a row per trial
    still refining.  Each table is one ``table_at`` call when the family
    has one (its rows must equal ``prob_at`` at their thetas), else one
    ``prob_at`` call per theta; the trials are grouped by the outcomes
    they observed once per run.  The likelihoods are summed with the
    float operations of a per-point evaluation, so the estimates are
    bit-identical to searching each trial on its own with a scalar golden
    section.  Trial streams are derived from (seed, trial index), so runs
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
    streams = (np.random.default_rng([int(seed), trial]) for trial in range(trials))
    counts = np.array([rng.multinomial(repetitions, p_true) for rng in streams])
    patterns, pattern = _observed_patterns(counts)
    with np.errstate(divide="ignore"):
        grid_log_p = np.log(family._probability_table(np.linspace(lo, hi, MLE_GRID)))
    grid_values = _minus_log_likelihoods(counts, grid_log_p[None], patterns, pattern)

    def minus_log_likelihood(which, thetas):
        with np.errstate(divide="ignore"):
            log_p = np.log(family._probability_table(thetas))
        return _minus_log_likelihoods(counts[which], log_p[:, None], patterns, pattern[which])[:, 0]

    estimates = grid_then_golden_many(minus_log_likelihood, lo, hi, grid_values, tol=1e-10)
    bias = float(estimates.mean() - theta_true)
    mse = float(np.mean((estimates - theta_true) ** 2))
    return MonteCarloRun(int(seed), repetitions, theta_true, estimates, bias, mse)
