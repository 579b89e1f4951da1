"""Spin squeezing measures, one-axis-twisting dynamics, and the two-mode
Bose-Hubbard (Bose-Josephson) Hamiltonian with its regime classification.

Three squeezing parameters are reported:

* xi_H^2 = 2 Var(J_alpha) / |<J_gamma>|   (uncertainty-relation form)
* xi_S^2 = 4 min Var(J_perp) / N          (minimal perpendicular variance)
* xi_R^2 = N min Var(J_perp) / |<J>|^2    (Ramsey phase-sensitivity ratio)

A state is squeezed when the parameter drops below 1; every coherent
spin state sits exactly at 1.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .spinops import (
    BasisTag,
    CollectiveSpinState,
    _band_evolve,
    _band_spectrum,
    _dicke_ladder,
    _moments,
    _readonly,
    apply,
    expectation_vector,
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

# a mean spin counts as zero when |<J>| <= MEAN_SPIN_EPS * max(1, N/2),
# relative to its largest possible length N/2
MEAN_SPIN_EPS = 1e-10
DEGENERACY_REL_TOL = 1e-10


@dataclass(frozen=True)
class SqueezingReport:
    """Squeezing parameters plus the directions they refer to.

    ``mean_spin_degenerate`` marks a vanishing mean spin; xi_R (and the
    default-axis xi_H) are +inf in that case and ``msd`` falls back to
    the z axis by convention.
    """

    xi_h_sq: float
    xi_s_sq: float
    xi_r_sq: float
    msd: np.ndarray
    min_perp_direction: np.ndarray
    mean_spin_degenerate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "msd", _readonly(np.asarray(self.msd, float)))
        object.__setattr__(
            self,
            "min_perp_direction",
            _readonly(np.asarray(self.min_perp_direction, float)),
        )


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


def squeezing_parameters(
    state: CollectiveSpinState, xi_h_axes=None
) -> SqueezingReport:
    """Evaluate all three squeezing parameters of a collective-spin state.

    The minimal perpendicular variance is the smaller eigenvalue of the
    2x2 symmetrized covariance of the two spin components orthogonal to
    the mean spin direction (closed form; no search).  ``xi_h_axes`` may
    override the (alpha, gamma) axes of xi_H; the default pair is
    (most-squeezed perpendicular direction, mean spin direction).
    """
    n = state.n_particles
    vec = state.amplitudes
    jvec = expectation_vector(state)
    jnorm = float(np.linalg.norm(jvec))
    zero_spin = MEAN_SPIN_EPS * max(1.0, n / 2.0)
    degenerate = jnorm <= zero_spin
    msd = np.array([0.0, 0.0, 1.0]) if degenerate else jvec / jnorm

    n1, n2 = _perpendicular_pair(msd)
    applied1 = apply(n1, vec)
    applied2 = apply(n2, vec)
    mean1 = float(np.vdot(vec, applied1).real)
    mean2 = float(np.vdot(vec, applied2).real)
    var1 = float(np.vdot(applied1, applied1).real) - mean1**2
    var2 = float(np.vdot(applied2, applied2).real) - mean2**2
    cov = float(np.vdot(applied1, applied2).real) - mean1 * mean2
    cov_matrix = np.array([[var1, cov], [cov, var2]])
    eigvals, eigvecs = np.linalg.eigh(cov_matrix)
    min_var = max(0.0, float(eigvals[0]))
    direction = eigvecs[0, 0] * n1 + eigvecs[1, 0] * n2
    direction /= np.linalg.norm(direction)

    xi_s_sq = 4.0 * min_var / n
    xi_r_sq = math.inf if degenerate else n * min_var / jnorm**2

    if xi_h_axes is None:
        alpha_axis, gamma_axis = direction, msd
    else:
        alpha_axis = np.asarray(xi_h_axes[0], float)
        gamma_axis = np.asarray(xi_h_axes[1], float)
    _, var_alpha = _moments(vec, apply(alpha_axis, vec))
    mean_gamma = float(np.vdot(vec, apply(gamma_axis, vec)).real)
    if abs(mean_gamma) <= zero_spin:
        xi_h_sq = math.inf
    else:
        xi_h_sq = 2.0 * var_alpha / abs(mean_gamma)

    return SqueezingReport(
        xi_h_sq=xi_h_sq,
        xi_s_sq=xi_s_sq,
        xi_r_sq=xi_r_sq,
        msd=msd,
        min_perp_direction=direction,
        mean_spin_degenerate=degenerate,
    )


def oat_evolve(
    initial: CollectiveSpinState, params: OatParams
) -> CollectiveSpinState:
    """Evolve under the one-axis-twisting Hamiltonian for duration t.

    In the Dicke basis J_gamma = (e^{i gamma} J+ + e^{-i gamma} J-) / 2,
    so H is tridiagonal, and in the gauge D = diag(e^{i k gamma}) the
    matrix T = D^dag H D is real symmetric: diagonal delta m + chi m^2,
    off-diagonal (omega / 2) sqrt(J(J+1) - m(m+1)).  The state is
    propagated as D V e^{-i t w} V^T D^dag psi from the spectral
    decomposition T = V diag(w) V^T; no (N+1)^2 operator is built.
    """
    n = initial.n_particles
    m, coupling = _dicke_ladder(n)
    spectrum = _band_spectrum(params.delta * m + params.chi * m**2, 0.5 * params.omega * coupling)
    gauge = np.exp(1j * params.gamma * np.arange(n + 1))
    return CollectiveSpinState(n, _band_evolve(initial.amplitudes, spectrum, gauge, params.t))


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Real symmetric tridiagonal Hamiltonian: its diagonal, its first
    off-diagonal and the basis it acts in."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    basis_tag: BasisTag

    def __post_init__(self):
        if np.iscomplexobj(self.diagonal) or np.iscomplexobj(self.off_diagonal):
            raise ValueError("tridiagonal Hamiltonian must be real")
        diag = np.asarray(self.diagonal, dtype=float)
        off = np.asarray(self.off_diagonal, dtype=float)
        dim = self.basis_tag.dim
        if diag.shape != (dim,) or off.shape != (dim - 1,):
            raise ValueError(
                f"bands of shapes {diag.shape} and {off.shape} do not match basis "
                f"{self.basis_tag}"
            )
        object.__setattr__(self, "diagonal", _readonly(diag))
        object.__setattr__(self, "off_diagonal", _readonly(off))

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
        BasisTag("spin", n),
    )


@dataclass(frozen=True)
class SpectralResult:
    """Full spectral decomposition with a ground-degeneracy flag."""

    energies: np.ndarray
    states: np.ndarray  # eigenvectors as columns, matching energy order
    ground_degenerate: bool

    def __post_init__(self):
        object.__setattr__(self, "energies", _readonly(np.asarray(self.energies)))
        object.__setattr__(self, "states", _readonly(np.asarray(self.states)))

    @property
    def ground_energy(self) -> float:
        return float(self.energies[0])

    @property
    def gap(self) -> float:
        if len(self.energies) < 2:
            return math.inf
        return float(self.energies[1] - self.energies[0])


def ground_state(hamiltonian: TridiagonalHamiltonian) -> SpectralResult:
    """Diagonalize a tridiagonal Hamiltonian; energies ascend.

    The full spectrum is kept.  The ground state is flagged degenerate
    when the first gap is below 1e-10 of the spectral range.
    """
    energies, states = _band_spectrum(hamiltonian.diagonal, hamiltonian.off_diagonal)
    if len(energies) < 2:
        degenerate = False
    else:
        spectral_range = float(energies[-1] - energies[0])
        degenerate = bool(energies[1] - energies[0] <= DEGENERACY_REL_TOL * spectral_range)
    return SpectralResult(energies, states, degenerate)


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
