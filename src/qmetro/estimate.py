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
from .spinops import ALL, BasisTag, Observable, _moments, _occupied, _occupied_in
from .spinops import _value_type, moments

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
STEP = 1e-5  # central-difference step of every stencil
PSD_TOL = 1e-10
MLE_GRID = 512  # grid points of the maximum-likelihood search
LIKELIHOOD_BLOCK = 1 << 13  # most float terms summed in one likelihood block (64 kB)
SWEEP_BLOCK = 1 << 16  # most amplitudes in one phase-sweep block's stencil states (1 MB)
SWEEP_STATES = 15  # stencil states per phase point: five for each of F, F_Q and error propagation
# least amplitudes a stencil or kept state is charged against SWEEP_BLOCK
# (1 kB): a kept N = 1 state's objects hold about 570 bytes
STATE_CHARGE = 64


class InvalidDistributionError(ValueError):
    """A probability family produced negative or unnormalized probabilities."""


class InvalidFamilyError(ValueError):
    """A state family drifted off unit norm or changed dimension."""


def _stencil(thetas: np.ndarray) -> np.ndarray:
    """The points every estimator reads at each of M thetas, as a (5, M)
    array whose rows are theta, theta + STEP/2, theta - STEP/2,
    theta + STEP and theta - STEP."""
    s = 0.5 * STEP
    return np.stack([thetas, thetas + s, thetas - s, thetas + STEP, thetas - STEP])


def _central_diff(outer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central difference with one Richardson refinement, O(h^4) accurate,
    from the values at the four outer `_stencil` rows (outer[i] at row
    i + 1), and the gap between the two differences it refines (steps
    STEP/2 and STEP), which is of the order of its error."""
    half = (outer[0] - outer[1]) / STEP
    full = (outer[2] - outer[3]) / (2.0 * STEP)
    return (4.0 * half - full) / 3.0, half - full


@dataclass(frozen=True)
class DistributionFamily:
    """Parameter-indexed outcome distribution theta -> {P(x_i | theta)}.

    ``derivative`` optionally supplies dP/dtheta analytically; otherwise
    Fisher information falls back to central differences.

    ``table_at`` optionally evaluates many thetas in one call: it maps a
    float64 array of M thetas to an (M, K) array whose row m equals
    ``prob_at(thetas[m])``, one row per theta in the order given.  The
    table paths (`classical_fisher`'s stencil, `run_monte_carlo`) use it
    when it is set; without it they call ``prob_at`` once per theta.
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


@_value_type()
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
        value = value.astype(float, copy=False)
        if not np.all(np.isfinite(value)):
            raise ValueError("readout values must be finite")
        _store(self, value, self.basis_tag, *np.unique(value, return_inverse=True))

    def __len__(self):
        return self.outcome_values.size


def _store(readout, value, basis_tag, outcome_values, outcome) -> Readout:
    """``readout``, or a new `Readout` if None, holding these fields, its
    fresh arrays frozen in place: the one store of every readout, after
    the checks of its constructor or of `interferom._mode_readout`."""
    readout = object.__new__(Readout) if readout is None else readout
    for a in (value, outcome_values, outcome):
        a.setflags(write=False)
    vars(readout).update(value=value, basis_tag=basis_tag)
    vars(readout).update(outcome_values=outcome_values, outcome=outcome)
    return readout


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


@_value_type(estimates=float)
class MonteCarloRun:
    """Maximum-likelihood estimates from repeated simulated experiments."""

    seed: int
    repetitions: int
    theta_true: float
    estimates: np.ndarray
    bias: float
    mse: float


def classical_fisher(family: DistributionFamily, theta: float) -> float:
    """Fisher information F(theta) = sum_i P_i (d ln P_i / d theta)^2.

    Outcomes with P < 1e-12 are excluded: their contribution vanishes
    analytically and keeping them would divide by ~0.  Without
    ``derivative``, dP/dtheta is a central difference with one Richardson
    refinement (step STEP).  This is `_classical_fishers` at one theta.
    """
    return _classical_fishers(family, np.array([theta], dtype=float))[0]


def _classical_fishers(family: DistributionFamily, thetas: np.ndarray) -> list[float]:
    """`classical_fisher` at each of M thetas.  Without ``derivative`` the
    family is read at theta, theta +- STEP/2 and theta +- STEP
    (`_stencil`) of every theta as one `_probability_table`: one family
    call per point, one validation, and an error that names the first
    bad theta.  Each theta's F is its own masked sum."""
    if family.derivative is not None:
        p = family._probability_table(thetas)
        dp = np.array([family.derivative(theta) for theta in thetas.tolist()], dtype=float)
    else:
        table = family._probability_table(_stencil(thetas).reshape(-1))
        table = table.reshape(5, thetas.size, -1)
        p, dp = table[0], _central_diff(table[1:])[0]
    keep = p >= ZERO_PROB_CUTOFF
    terms = np.divide(dp**2, p, out=np.zeros_like(p), where=keep)
    return [float(np.sum(t[k])) for t, k in zip(terms, keep)]


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
    """Distribution family theta -> readout outcome probabilities on psi(theta).

    ``table_at`` reads the states at M thetas together (`_readout_table`)
    and ``prob_at`` is its one-row table, so the family's validation is
    the only check a probability vector gets."""

    def table_at(thetas):
        return _readout_table([state_family(theta) for theta in thetas], readout)

    return DistributionFamily(
        outcome_labels=tuple(readout.outcome_values.tolist()),
        prob_at=lambda theta: table_at((theta,))[0],
        table_at=table_at,
    )


def _readout_table(states, readout: Readout) -> np.ndarray:
    """A readout's outcome probabilities on each of M states as an (M, K)
    table, row m summed as `povm_probabilities` sums state m but not
    checked.  When the states share one index, as every phase of one
    probe does, their stacked amplitudes are read with one `np.bincount`,
    row m's outcomes offset by K m; otherwise each row is one
    `povm_probabilities` call."""
    occupied = [_occupied_in(state, readout.basis_tag) for state in states]
    index = occupied[0][0]
    if any(where is not index for where, _ in occupied):
        return np.array([povm_probabilities(state, readout) for state in states])
    vectors = np.stack([vec for _, vec in occupied])
    rows, k = len(states), len(readout)
    labels = readout.outcome[index] + k * np.arange(rows)[:, None]
    weights = vectors.real**2 + vectors.imag**2
    table = np.bincount(labels.reshape(-1), weights=weights.reshape(-1), minlength=rows * k)
    return table.reshape(rows, k)


def projective_povm(basis_tag: BasisTag) -> Readout:
    """Projective measurement in the computational basis of a tagged space;
    the value of basis state i is i."""
    return Readout(np.arange(basis_tag.dim), basis_tag)


def qfi_generator(initial_state, generator: Observable) -> float:
    """Quantum Fisher information 4 Var(H) of a pure state under exp(-iH theta)."""
    _, variance = moments(initial_state, generator)
    return 4.0 * variance


def _family_vectors(state_family, thetas: np.ndarray) -> np.ndarray:
    """The family's states at thetas as the rows of one array, over the
    union of their occupied entries (`spinops._occupied`): over the shared
    index itself when every state has it, as every phase of one probe
    does.  Every row is checked for unit norm, and an error names the
    first theta off it."""
    states = [state_family(theta) for theta in thetas]
    occupied = [_occupied(state) for state in states]
    first = occupied[0][0]
    if all(index is first for index, _ in occupied):
        vectors = np.stack([vec for _, vec in occupied])
    else:
        if len({getattr(state, "basis_tag", None) for state in states}) > 1:
            raise InvalidFamilyError(f"state family changed basis near theta={thetas[0]}")
        positions = [np.arange(vec.size) if index is ALL else index for index, vec in occupied]
        union = np.unique(np.concatenate(positions))
        vectors = np.zeros((len(states), union.size), dtype=complex)
        for row, where, (_, vec) in zip(vectors, positions, occupied):
            row[np.searchsorted(union, where)] = vec
    norms = np.linalg.norm(vectors, axis=1)
    off = ~(abs(norms - 1.0) <= 1e-8)  # NaN is off too
    if off.any():
        m = int(np.argmax(off))
        raise InvalidFamilyError(f"state norm {float(norms[m])!r} at theta={thetas[m]}")
    return vectors


def qfi_from_family(state_family, theta: float) -> float:
    """Quantum Fisher information from the parameterized final state:
    F_Q = 4 ||psi' - <psi|psi'> psi||^2 (Braunstein & Caves, PRL 72, 3439,
    1994), with psi' from central differences (one Richardson refinement)
    of the five states taken on the union of their occupied entries
    (`_family_vectors`), step STEP: the five states `classical_fisher`
    reads.  Agrees with ``qfi_generator`` whenever the family is
    exp(-iH theta) psi0.  This is `_quantum_fishers` at one theta.
    """
    return _quantum_fishers(state_family, np.array([theta], dtype=float))[0]


def _quantum_fishers(state_family, thetas: np.ndarray) -> list[float]:
    """`qfi_from_family` at each of M thetas, from the family's states at
    the five `_stencil` points of every theta taken together by
    `_family_vectors`; each theta's F_Q is its own two `np.vdot`s."""
    vectors = _family_vectors(state_family, _stencil(thetas).reshape(-1))
    vectors = vectors.reshape(5, thetas.size, -1)
    qfis = []
    for psi, dpsi in zip(vectors[0], _central_diff(vectors[1:])[0]):
        centered = dpsi - np.vdot(psi, dpsi) * psi
        qfis.append(4.0 * float(np.vdot(centered, centered).real))
    return qfis


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

    ``signal`` maps theta to <O>, ``noise`` maps theta to Delta O.  The
    slope is `_central_diff` of the signal at the four outer `_stencil`
    points (step STEP, as in `classical_fisher`).  The readout point is
    flagged stationary (and yields +inf) when the slope is below 1e-12
    scaled by the sampled signal magnitude, or when it is no larger than
    its own finite-difference error (the gap `_central_diff` gives).  The
    signal is sampled first, then the noise at theta; this is
    `_error_propagations` at one theta.
    """
    outer = _stencil(np.array([theta], dtype=float))[1:]
    signals = np.array([[float(signal(t))] for (t,) in outer.tolist()])
    return _error_propagations(signals, np.array([float(noise(theta))]))[0]


def _error_propagations(signals: np.ndarray, sigma: np.ndarray) -> list[ErrorPropagation]:
    """`error_propagation` at each of M thetas, from the (4, M) signal at
    the four outer `_stencil` rows and the (M,) noise at each theta."""
    slope, gap = np.abs(_central_diff(signals))
    scale = np.maximum(1.0, abs(signals).max(axis=0))
    stationary = (slope < 1e-12 * scale) | (slope <= 4.0 * gap)
    value = np.divide(sigma, slope, out=np.full_like(sigma, math.inf), where=~stationary)
    return [ErrorPropagation(v, s) for v, s in zip(value.tolist(), stationary.tolist())]


def _sweep_blocks(grid: np.ndarray, dim: int) -> list[np.ndarray]:
    """The grid cut into consecutive blocks of points whose SWEEP_STATES
    stencil states each, of dimension ``dim`` and each charged at least
    STATE_CHARGE, hold at most SWEEP_BLOCK amplitudes; a block has at least
    one point."""
    points = max(1, SWEEP_BLOCK // (SWEEP_STATES * max(dim, STATE_CHARGE)))
    return [grid[i : i + points] for i in range(0, grid.size, points)]


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
    Returns (R, M).  Only observed outcomes enter a sum, and no zero
    count is padded in, so the trials are taken one observed pattern at
    a time.  numpy sums a row of fewer than 8 terms left to right from 0
    (pairwise only from 8 on), so such a pattern adds its terms column
    by column into a (trials x points) accumulator; a longer one sums
    each trial's terms as one C-ordered row.  A pattern's trials are
    split into blocks only when a block's accumulator, or its terms,
    would exceed LIKELIHOOD_BLOCK floats.  An observed outcome with
    P = 0 has ln P = -inf, so the value is +inf.
    """
    values = np.empty((counts.shape[0], log_p.shape[1]))
    for g, observed in enumerate(patterns):
        rows = np.flatnonzero(pattern == g)
        if not rows.size:
            continue
        width = observed.size if observed.size >= 8 else 1
        blocks = min(rows.size, rows.size * log_p.shape[1] * width // LIKELIHOOD_BLOCK)
        for block in np.array_split(rows, blocks) if blocks > 1 else (rows,):
            lp = log_p if log_p.shape[0] == 1 else log_p[block]
            if width == 1:
                total = np.zeros((block.size, log_p.shape[1]))
                for i in observed:
                    total += counts[block, i, None] * lp[:, :, i]
                values[block] = -total
                continue
            # order="C": an index on the last axis comes out F-ordered, and
            # numpy would then sum across the rows instead of along each
            terms = np.multiply(counts[block][:, None, observed], lp[:, :, observed], order="C")
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
