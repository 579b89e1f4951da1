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
    CollectiveSpinState,
    Observable,
    _dicke_ladder,
    _readonly,
    collective_ops,
    moments,
)

__all__ = [
    "SqueezingReport",
    "OatParams",
    "BjjParams",
    "SpectralResult",
    "Regime",
    "squeezing_parameters",
    "oat_evolve",
    "bjj_hamiltonian",
    "ground_state",
    "classify_regime",
]

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
    ops = collective_ops(n)
    vec = state.amplitudes
    jvec = np.array([float(np.vdot(vec, op @ vec).real) for op in (ops.jx, ops.jy, ops.jz)])
    jnorm = float(np.linalg.norm(jvec))
    degenerate = jnorm <= MEAN_SPIN_EPS
    msd = np.array([0.0, 0.0, 1.0]) if degenerate else jvec / jnorm

    n1, n2 = _perpendicular_pair(msd)
    applied1 = ops.along(n1) @ vec
    applied2 = ops.along(n2) @ vec
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
    _, var_alpha = moments(state, Observable(ops.along(alpha_axis), ops.basis_tag))
    mean_gamma = float(np.vdot(vec, ops.along(gamma_axis) @ vec).real)
    if abs(mean_gamma) <= MEAN_SPIN_EPS:
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
    # imported here: `import qmetro` does not load scipy.linalg otherwise
    from scipy.linalg import eigh_tridiagonal

    n = initial.n_particles
    m, coupling = _dicke_ladder(n)
    w, v = eigh_tridiagonal(params.delta * m + params.chi * m**2, 0.5 * params.omega * coupling)
    gauge = np.exp(1j * params.gamma * np.arange(n + 1))
    rotated = v.T @ (gauge.conj() * initial.amplitudes)
    out = gauge * (v @ (np.exp(-1j * params.t * w) * rotated))
    return CollectiveSpinState(n, out)


def bjj_hamiltonian(params: BjjParams) -> Observable:
    """Two-mode Bose-Hubbard Hamiltonian in the fixed-N collective-spin form:

    H = -J_tun Jx + delta Jz + (E_c / 2) Jz^2.

    Total particle number is conserved by construction (the matrix acts
    inside the fixed-N Dicke sector).
    """
    ops = collective_ops(params.n_particles)
    h = (
        -params.tunneling * ops.jx
        + params.imbalance * ops.jz
        + 0.5 * params.charging_energy * np.diag(np.diag(ops.jz) ** 2)
    )
    return Observable(h, ops.basis_tag)


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


def ground_state(hamiltonian: Observable) -> SpectralResult:
    """Diagonalize a Hermitian observable; energies ascend.

    The ground state is flagged degenerate when the first gap is below
    1e-10 of the spectral range.
    """
    energies, states = np.linalg.eigh(hamiltonian.matrix)
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
