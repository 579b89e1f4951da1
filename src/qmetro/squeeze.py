"""Spin squeezing measures, one-axis-twisting dynamics, and the two-mode
Bose-Hubbard (Bose-Josephson) Hamiltonian with its regime classification.

Three squeezing parameters are reported.  All three read one variance,
V = Var(d.J), measured along the squeezed direction d: the direction
perpendicular to the mean spin <J> in which the spin fluctuates least.

* xi_H^2 = 2 V / |<J>|      (uncertainty-relation form)
* xi_S^2 = 4 V / N          (minimal perpendicular variance)
* xi_R^2 = N V / |<J>|^2    (Ramsey phase-sensitivity ratio)

A state is squeezed when the parameter drops below 1; every coherent
spin state sits exactly at 1.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .spinops import (
    BasisTag,
    CollectiveSpinState,
    _band_evolve,
    _basis_tag,
    _band_spectrum,
    _dicke_ladder,
    _mean_spin,
    _moments,
    _spin_covariance,
    _value_type,
    apply,
)

__all__ = [
    "SqueezingReport",
    "OatParams",
    "BjjParams",
    "TridiagonalHamiltonian",
    "SpectralResult",
    "Regime",
    "squeezing_parameters",
    "oat_evolve",
    "bjj_hamiltonian",
    "ground_state",
    "classify_regime",
]

DEGENERACY_REL_TOL = 1e-10
_EPS = math.ulp(1.0)  # machine epsilon, 2^-52
# Laguerre steps a root search takes before it only bisects; a whole
# `_lowest_states` call takes 8-10 passes on repulsive BJJ cases and
# 7-12 on an attractive ground doublet
MAX_LAGUERRE_PASSES = 64
# how near G^2/H must read 2 before a search from below a root takes the
# double-root step (`_laguerre_root`)
PAIR_RATIO_TOL = 0.05


@_value_type(msd=float, min_perp_direction=float)
class SqueezingReport:
    """Squeezing parameters plus the directions they refer to.

    All three parameters read the one variance measured along
    ``min_perp_direction``, the squeezed direction perpendicular to the
    mean spin direction ``msd``.  ``mean_spin_degenerate`` marks a
    vanishing mean spin; xi_R and xi_H are +inf in that case and ``msd``
    falls back to the z axis by convention.
    """

    xi_h_sq: float
    xi_s_sq: float
    xi_r_sq: float
    msd: np.ndarray
    min_perp_direction: np.ndarray
    mean_spin_degenerate: bool = False


@dataclass(frozen=True)
class OatParams:
    """One-axis-twisting Hamiltonian parameters:

    H = omega J_gamma + delta Jz + chi Jz^2,
    J_gamma = cos(gamma) Jx - sin(gamma) Jy,

    evolved for duration t.
    """

    chi: float
    t: float
    omega: float = 0.0
    delta: float = 0.0
    gamma: float = 0.0


@dataclass(frozen=True)
class BjjParams:
    """Symmetric/imbalanced Bose-Josephson junction parameters."""

    n_particles: int
    tunneling: float
    imbalance: float = 0.0
    charging_energy: float = 0.0

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")


class Regime(enum.Enum):
    RABI = "rabi"
    JOSEPHSON = "josephson"
    FOCK = "fock"


def _perpendicular_pair(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    helper = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(axis, helper)) > 0.9:
        helper = np.array([1.0, 0.0, 0.0])
    n1 = np.cross(axis, helper)
    n1 /= np.linalg.norm(n1)
    n2 = np.cross(axis, n1)
    return n1, n2


def squeezing_parameters(state: CollectiveSpinState) -> SqueezingReport:
    """Evaluate all three squeezing parameters of a collective-spin state.

    The squeezed direction d is the eigenvector of the smaller eigenvalue
    of the 2x2 spin covariance (`_spin_covariance`) of the two components
    orthogonal to the mean spin direction (closed form; no search).  The
    variance V = Var(d.J) that all three parameters read is then
    measured along d itself, not taken from that eigenvalue, which
    carries the round-off of the larger one.
    """
    n = state.n_particles
    vec = state.amplitudes
    msd, jnorm = _mean_spin(state)
    degenerate = msd is None
    if degenerate:
        msd = np.array([0.0, 0.0, 1.0])

    n1, n2 = _perpendicular_pair(msd)
    _, cov = _spin_covariance(vec, (n1, n2))
    eigvecs = np.linalg.eigh(cov)[1]
    direction = eigvecs[0, 0] * n1 + eigvecs[1, 0] * n2
    direction /= np.linalg.norm(direction)
    _, min_var = _moments(vec, apply(direction, vec))

    return SqueezingReport(
        xi_h_sq=math.inf if degenerate else 2.0 * min_var / jnorm,
        xi_s_sq=4.0 * min_var / n,
        xi_r_sq=math.inf if degenerate else n * min_var / jnorm**2,
        msd=msd,
        min_perp_direction=direction,
        mean_spin_degenerate=degenerate,
    )


def oat_evolve(
    initial: CollectiveSpinState, params: OatParams
) -> CollectiveSpinState:
    """Evolve under the one-axis-twisting Hamiltonian for duration t.

    With omega = 0, H = delta Jz + chi Jz^2 is diagonal in the Dicke
    basis, and the state takes the phases e^{-i t (delta m + chi m^2)}
    in O(N).  Otherwise J_gamma = (e^{i gamma} J+ + e^{-i gamma} J-) / 2
    makes H tridiagonal, and in the gauge D = diag(e^{i k gamma}) the
    matrix T = D^dag H D is real symmetric: diagonal delta m + chi m^2,
    off-diagonal (omega / 2) sqrt(J(J+1) - m(m+1)).  The state is
    propagated as D V e^{-i t w} V^T D^dag psi from the spectral
    decomposition T = V diag(w) V^T; no (N+1)^2 operator is built.
    """
    n = initial.n_particles
    m, coupling = _dicke_ladder(n)
    diagonal = params.delta * m + params.chi * m**2
    if params.omega == 0.0:
        return CollectiveSpinState(n, np.exp(-1j * params.t * diagonal) * initial.amplitudes)
    spectrum = _band_spectrum(diagonal, 0.5 * params.omega * coupling)
    gauge = np.exp(1j * params.gamma * np.arange(n + 1))
    return CollectiveSpinState(n, _band_evolve(initial.amplitudes, spectrum, gauge, params.t))


@_value_type(diagonal=float, off_diagonal=float)
class TridiagonalHamiltonian:
    """Real symmetric tridiagonal Hamiltonian: its diagonal, its first
    off-diagonal and the basis it acts in."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    basis_tag: BasisTag

    def __post_init__(self):
        if np.iscomplexobj(self.diagonal) or np.iscomplexobj(self.off_diagonal):
            raise ValueError("tridiagonal Hamiltonian must be real")
        shapes = np.shape(self.diagonal), np.shape(self.off_diagonal)
        if shapes != ((self.basis_tag.dim,), (self.basis_tag.dim - 1,)):
            raise ValueError(f"bands of shapes {shapes} do not match basis {self.basis_tag}")

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, for tests and inspection."""
        off = self.off_diagonal
        return np.diag(self.diagonal) + np.diag(off, 1) + np.diag(off, -1)


def bjj_hamiltonian(params: BjjParams) -> TridiagonalHamiltonian:
    """Two-mode Bose-Hubbard Hamiltonian in the fixed-N collective-spin form:

    H = -J_tun Jx + delta Jz + (E_c / 2) Jz^2.

    Total particle number is conserved by construction (the matrix acts
    inside the fixed-N Dicke sector).  In the Dicke basis H is real and
    tridiagonal: diagonal delta m + (E_c / 2) m^2, off-diagonal
    -J_tun sqrt(J(J+1) - m(m+1)) / 2.
    """
    n = params.n_particles
    m, coupling = _dicke_ladder(n)
    return TridiagonalHamiltonian(
        params.imbalance * m + 0.5 * params.charging_energy * m**2,
        -params.tunneling * (0.5 * coupling),
        _basis_tag("spin", n),
    )


@_value_type(energies=float, states=None)
class SpectralResult:
    """Spectral decomposition, full or its lowest eigenpairs, with a
    ground-degeneracy flag."""

    energies: np.ndarray
    states: np.ndarray  # eigenvectors as columns, matching energy order
    ground_degenerate: bool

    @property
    def ground_energy(self) -> float:
        return float(self.energies[0])

    @property
    def gap(self) -> float:
        if len(self.energies) < 2:
            return math.inf
        return float(self.energies[1] - self.energies[0])


def _ground_degenerate(ground: float, first_excited: float, top: float) -> bool:
    """The ground state counts as degenerate when the first gap is at or
    below 1e-10 of the spectral range [ground, top]."""
    return bool(first_excited - ground <= DEGENERACY_REL_TOL * (top - ground))


def ground_state(hamiltonian: TridiagonalHamiltonian) -> SpectralResult:
    """Diagonalize a tridiagonal Hamiltonian; energies ascend.

    The full spectrum is kept.  The ground state is flagged degenerate
    when the first gap is below 1e-10 of the spectral range.
    """
    energies, states = _band_spectrum(hamiltonian.diagonal, hamiltonian.off_diagonal)
    degenerate = len(energies) >= 2 and _ground_degenerate(*energies[:2], energies[-1])
    return SpectralResult(energies, states, degenerate)


def _lowest_states(hamiltonian: TridiagonalHamiltonian) -> SpectralResult:
    """The two lowest eigenpairs of a tridiagonal Hamiltonian of dimension
    2 or more, flagged as `ground_state` flags them, without the rest of
    the spectrum and on numpy alone.

    lambda_0 is the smallest root of p(x) = det(T - x), and lambda_1 the
    smallest of p(x) / (x - lambda_0), each by Laguerre's method from the
    Gershgorin lower bound (`_laguerre_root`).  The degeneracy rule is
    monotone in the top eigenvalue, which lies between the largest
    diagonal entry and the Gershgorin upper bound; the top is found, on
    -T, only when the two ends of that bracket flag differently.  Each
    vector is one inverse-iteration solve (`_inverse_iteration`) from its
    own fixed pseudo-random start (`_start`), and the second is then
    orthogonalized against the first, so a degenerate pair comes out
    orthonormal.
    """
    peak = float(max(np.abs(hamiltonian.diagonal).max(), np.abs(hamiltonian.off_diagonal).max()))
    if not math.isfinite(peak):
        raise ValueError("tridiagonal Hamiltonian must be finite")
    # the search runs on T / unit, every entry below 2 in size, so no
    # square or derivative overflows; unit is a power of two, so the
    # results are the unscaled arithmetic's, times 1 / unit, exactly
    unit = math.ldexp(1.0, math.frexp(peak)[1] - 1) if peak else 1.0
    diagonal, off_diagonal = hamiltonian.diagonal / unit, hamiltonian.off_diagonal / unit
    n = diagonal.size
    radius = np.zeros(n)
    radius[:-1] += np.abs(off_diagonal)
    radius[1:] += np.abs(off_diagonal)
    low, high = float((diagonal - radius).min()), float((diagonal + radius).max())
    scale = max(-low, high, 0.0) or 1.0
    tol = 2.0 * _EPS * scale
    tiny = _EPS * _EPS * scale
    squares = [0.0] + (off_diagonal * off_diagonal).tolist()
    sums = functools.lru_cache(maxsize=None)(
        functools.partial(_pivot_sums, diagonal, squares, tiny)
    )
    ground = _laguerre_root(sums, n, 0, low, high + tol, tol)
    # the lambda_1 search starts where the lambda_0 search did (a pass
    # saved), or lower: far enough below lambda_0 that the deflation's
    # round-off, about tol / (lambda_0 - x)^2, stays below 1e-6 of its
    # smallest term, 1 / (high - low)
    start = min(low, ground - 1e3 * math.sqrt(tol * (high - low)))
    excited = _laguerre_root(sums, n, 1, start, high + tol, tol, lower=ground)
    degenerate = _ground_degenerate(ground, excited, float(diagonal.max()))
    if degenerate != _ground_degenerate(ground, excited, high):
        flipped = functools.partial(_pivot_sums, -diagonal, squares, tiny)
        top = -_laguerre_root(flipped, n, 0, -high, tol - low, tol)
        degenerate = _ground_degenerate(ground, excited, top)
    v0 = _inverse_iteration(diagonal, off_diagonal, squares, ground, _start(n, 0), tiny)
    v1 = _inverse_iteration(diagonal, off_diagonal, squares, excited, _start(n, 1), tiny)
    v1 -= (v0 @ v1) * v0
    v1 /= np.linalg.norm(v1)
    return SpectralResult(unit * np.array([ground, excited]), np.column_stack([v0, v1]), degenerate)


def _pivot_sums(diagonal, squares, tiny: float, x: float) -> tuple[float, float, int]:
    """One pass over the pivots d_k of the LDL^T factorization of T - x,
    with their first two derivatives in x, for the tridiagonal T of this
    diagonal and these squared off-diagonal entries (a list, led by a 0).

    Returns (G, H, below): G = p'/p = sum_i 1/(x - lambda_i) and
    H = G^2 - p''/p = sum_i 1/(x - lambda_i)^2 for p(x) = det(T - x),
    the product of the pivots, and ``below`` the number of negative
    pivots, which is the number of eigenvalues below x (Sylvester's law
    of inertia).  A zero pivot is taken as ``tiny``."""
    d, r, s = 1.0, 0.0, 0.0  # a pivot d, r = d'/d and s = d''/d
    g = h = 0.0
    below = 0
    for a, beta in zip((diagonal - x).tolist(), squares):
        q = beta / d
        s = q * (s - 2.0 * r * r)
        r = q * r - 1.0
        d = a - q
        if d <= 0.0:
            if d == 0.0:
                d = tiny
            else:
                below += 1
        r /= d
        s /= d
        g += r
        h += r * r - s
    return g, h, below


def _laguerre_root(
    sums, n: int, index: int, x: float, hi: float, tol: float, lower: float = -math.inf
) -> float:
    """Eigenvalue ``index`` (0 or 1, ascending) of an n x n tridiagonal T,
    as the smallest root of the polynomial p(x) / (x - lower) of degree
    n - index, with ``lower`` = lambda_0 when index is 1: Laguerre's
    method, one `_pivot_sums` pass ``sums(x)`` per step, from a start x
    below the root and a bound hi above it, to within ``tol``.

    With every root real, Laguerre's step from below the smallest root
    lands between x and that root, and from just above it (no other root
    between) lands between the root and x; it converges cubically at a
    simple root.  Each pass also counts the eigenvalues below x, so the
    root stays bracketed by [lo, hi], and a step that leaves the bracket,
    which only round-off can make, is replaced by bisection, and so is
    every step after MAX_LAGUERRE_PASSES, so the search ends: at the
    first step within ``tol``, or when the bracket is that narrow.

    Near a pair of roots closer to x than the rest, the plain step nears
    the pair only linearly, by a factor of about 0.29 a pass.  There
    G^2/H = (sum 1/d_i)^2 / sum 1/d_i^2, over the distances d_i to the
    roots, reads about 2, and the step is Laguerre's for a double root
    (`_laguerre_radius` with multiplicity 2), exact at an exact double
    root: from below when G^2/H is within PAIR_RATIO_TOL of 2, and from
    above when exactly the pair lies below x and G^2/H reads 2 to the
    nearest integer, where it lands between the two roots of any pair."""
    degree = n - index
    lo = x
    for passes in itertools.count():
        g, h, below = sums(x)
        if x == lower:  # the deflation's pole
            if below > index:
                return x
            lo, x = x, x + tol
            continue
        t = 1.0 / (x - lower)
        g, h = g - t, h - t * t
        if below <= index:
            lo = x
            m = 2 if abs(g * g - 2.0 * h) <= PAIR_RATIO_TOL * h else 1
            root = _laguerre_radius(degree, m, g, h)
            step = degree / (root - g) if root > g else math.nan
            if abs(step) <= tol:
                return x  # not x + step: a root hit exactly stays exact
        else:
            hi = x
            # exactly a pair below x: the double-root step lands between
            # its roots, and G^2/H reading 2 to the nearest integer keeps
            # the lower one within a few tol of x once the step is in tol
            m = 2 if below == index + 2 and g * g >= 1.5 * h else 1
            root = _laguerre_radius(degree, m, g, h)
            above_root = below == index + m and g + root > 0.0
            step = -degree / (g + root) if above_root else math.nan
            if abs(step) <= tol:
                return x + step
        if passes < MAX_LAGUERRE_PASSES and lo < x + step < hi:
            x += step
        elif hi - lo <= tol:
            return lo
        else:
            x = 0.5 * (lo + hi)


def _laguerre_radius(degree: int, multiplicity: int, g: float, h: float) -> float:
    """The square root in Laguerre's step for a root of this multiplicity
    m, sqrt((n - m)/m (n H - G^2)) for a polynomial of degree n, taken as
    0 where round-off makes the radicand negative."""
    return math.sqrt(max((degree - multiplicity) * (degree * h - g * g) / multiplicity, 0.0))


def _inverse_iteration(
    diagonal, off_diagonal, squares, shift: float, start, tiny: float
) -> np.ndarray:
    """The unit vector along (T - shift)^-1 start, from the LDL^T
    factorization of T - shift (``squares`` as in `_pivot_sums`, a zero
    pivot taken as ``tiny``): for a shift at an eigenvalue, its
    eigenvector, from any start that is not orthogonal to it.  Each
    recurrence (pivots, forward and back substitution) is one list
    comprehension, CPython's fastest loop."""
    d = z = y = 1.0
    shifted = (diagonal - shift).tolist()
    pivots = np.array([(d := (a - beta / d) or tiny) for a, beta in zip(shifted, squares)])
    multipliers = off_diagonal / pivots[:-1]
    lower = [0.0] + multipliers.tolist()
    forward = [(z := s - m * z) for s, m in zip(start.tolist(), lower)]
    upper = [0.0] + multipliers[::-1].tolist()
    back = [(y := w - m * y) for w, m in zip((np.array(forward) / pivots)[::-1].tolist(), upper)]
    v = np.array(back[::-1])
    return v / np.linalg.norm(v)


def _start(n: int, seed: int) -> np.ndarray:
    """A fixed pseudo-random start vector of length n, entries in
    [-1/2, 1/2): with no m -> -m symmetry and no smooth envelope, it
    overlaps every eigenvector of a band.  The entries are SplitMix64's
    integer hash of (seed, k), so they are the same bits on every
    machine."""
    z = np.arange(1, n + 1, dtype=np.uint64) + np.uint64(seed << 32)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53 - 0.5


def classify_regime(params: BjjParams) -> Regime:
    """Rabi / Josephson / Fock classification by |E_c / J_tun| against N.

    Rabi below 1/N, Fock above N, Josephson between (boundaries
    inclusive on the Josephson side).  Zero tunneling is Fock by
    convention and raises a warning.
    """
    if params.tunneling == 0.0:
        warnings.warn(
            "tunneling is zero; classifying as Fock regime by convention",
            RuntimeWarning,
            stacklevel=2,
        )
        return Regime.FOCK
    ratio = abs(params.charging_energy / params.tunneling)
    n = params.n_particles
    if ratio < 1.0 / n:
        return Regime.RABI
    if ratio > n:
        return Regime.FOCK
    return Regime.JOSEPHSON
