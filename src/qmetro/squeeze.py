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
    _mean_spin,
    _moments,
    _readonly,
    _spin_covariance,
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


@dataclass(frozen=True)
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
    """Spectral decomposition, full or its lowest eigenpairs, with a
    ground-degeneracy flag."""

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
    2 or more, flagged as `ground_state` flags them, without the other
    N - 1 eigenvectors.

    Bisection finds the two lowest energies and the top one, which the
    degeneracy rule reads; inverse iteration finds the two vectors.
    """
    diagonal, off_diagonal = hamiltonian.diagonal, hamiltonian.off_diagonal
    top = len(diagonal) - 1
    energies, states = _band_spectrum(diagonal, off_diagonal, select="i", select_range=(0, 1))
    (highest,) = _band_spectrum(
        diagonal, off_diagonal, eigvals_only=True, select="i", select_range=(top, top)
    )
    return SpectralResult(energies, states, _ground_degenerate(*energies, highest))


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
