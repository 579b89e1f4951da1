import math

import numpy as np
import pytest
from conftest import align_phase
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetro import (
    BjjParams,
    CollectiveSpinState,
    OatParams,
    Observable,
    Regime,
    TridiagonalHamiltonian,
    bjj_hamiltonian,
    classify_regime,
    collective_ops,
    css,
    error_propagation,
    ground_state,
    moments,
    oat_evolve,
    optimal_readout_rotation,
    ramsey,
    rotate,
    squeezing_parameters,
)
from qmetro.spinops import evolve


def dicke(n, k):
    amp = np.zeros(n + 1, dtype=complex)
    amp[k] = 1.0
    return CollectiveSpinState(n, amp)


class TestSqueezingParameters:
    @pytest.mark.parametrize("n", [1, 2, 10, 41])
    @pytest.mark.parametrize("theta,phi", [(0.0, 0.0), (math.pi / 2, 0.0), (1.3, 2.1)])
    def test_css_sits_at_unity(self, n, theta, phi):
        report = squeezing_parameters(css(n, theta, phi))
        assert report.xi_s_sq == pytest.approx(1.0, abs=1e-10)
        assert report.xi_r_sq == pytest.approx(1.0, abs=1e-10)
        assert report.xi_h_sq == pytest.approx(1.0, abs=1e-10)
        assert not report.mean_spin_degenerate

    @pytest.mark.parametrize("n", [10, 1000, 2000])
    def test_degeneracy_is_relative_to_the_spin_length(self, n):
        # |J,0> has no mean spin in any frame; after a generic rotation the
        # round-off left in <J> grows with N, but stays far below N/2
        axis = np.array([0.36, -0.48, 0.8])
        report = squeezing_parameters(rotate(dicke(n, n // 2), axis, 1.1))
        assert report.mean_spin_degenerate
        assert math.isinf(report.xi_r_sq) and math.isinf(report.xi_h_sq)
        for theta, phi in [(0.0, 0.0), (1e-3, 0.2), (math.pi / 2, 0.0), (2.5, -1.0)]:
            assert not squeezing_parameters(css(n, theta, phi)).mean_spin_degenerate

    def test_mean_spin_far_below_its_length_counts_as_zero(self):
        # |<J>| ~ 1e-9 = 1e-12 N/2 at N = 2000: above an absolute 1e-10,
        # but no larger than round-off on a state of spin length N/2
        n = 2000
        amp = np.zeros(n + 1, dtype=complex)
        amp[n // 2], amp[n // 2 + 1] = 1.0, 1e-12
        report = squeezing_parameters(CollectiveSpinState(n, amp / np.linalg.norm(amp)))
        assert report.mean_spin_degenerate

    def test_dicke_zero_projection_flags_infinite_ratio(self):
        n = 4
        report = squeezing_parameters(dicke(n, n // 2))  # m = 0
        assert report.mean_spin_degenerate
        assert math.isinf(report.xi_r_sq)

    def test_min_perp_direction_orthogonal_to_msd(self):
        state = oat_evolve(css(10, math.pi / 2, 0.0), OatParams(chi=0.15, t=1.0))
        report = squeezing_parameters(state)
        assert abs(np.dot(report.msd, report.min_perp_direction)) <= 1e-10
        assert np.linalg.norm(report.min_perp_direction) == pytest.approx(1.0)

    def test_oat_evolution_squeezes(self):
        state = oat_evolve(css(40, math.pi / 2, 0.0), OatParams(chi=0.05, t=1.0))
        report = squeezing_parameters(state)
        assert report.xi_r_sq < 1.0
        assert report.xi_s_sq < 1.0

    def test_min_variance_direction_actually_minimal(self):
        state = oat_evolve(css(14, math.pi / 2, 0.0), OatParams(chi=0.1, t=1.0))
        report = squeezing_parameters(state)
        ops = collective_ops(14)
        n1 = report.min_perp_direction
        _, var_min = moments(state, Observable(ops.along(n1), ops.basis_tag))
        # sample other perpendicular directions; none may beat the reported one
        n2 = np.cross(report.msd, n1)
        for angle in np.linspace(0.0, math.pi, 37):
            direction = math.cos(angle) * n1 + math.sin(angle) * n2
            _, var = moments(
                state, Observable(ops.along(direction), ops.basis_tag)
            )
            assert var >= var_min - 1e-10

    def test_scalar_parameters_rotation_invariant(self):
        state = oat_evolve(css(12, math.pi / 2, 0.0), OatParams(chi=0.09, t=1.0))
        base = squeezing_parameters(state)
        axis = np.array([0.36, -0.48, 0.8])
        rotated = squeezing_parameters(rotate(state, axis, 1.234))
        assert rotated.xi_s_sq == pytest.approx(base.xi_s_sq, abs=1e-8)
        assert rotated.xi_r_sq == pytest.approx(base.xi_r_sq, abs=1e-8)
        assert rotated.xi_h_sq == pytest.approx(base.xi_h_sq, abs=1e-8)

    def test_xi_h_axes_override(self):
        n = 6
        state = css(n, math.pi / 2, 0.0)  # mean spin along +x
        report = squeezing_parameters(
            state, xi_h_axes=((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
        )
        # Var(Jz) = N/4 against |<Jx>| = N/2
        assert report.xi_h_sq == pytest.approx(1.0, abs=1e-10)


def dense_oat(state, params):
    """exp(-i t H) psi with the dense H = omega J_gamma + delta Jz + chi Jz^2:
    the propagator oat_evolve used before its tridiagonal form, kept as
    the oracle."""
    ops = collective_ops(state.n_particles)
    j_gamma = math.cos(params.gamma) * ops.jx - math.sin(params.gamma) * ops.jy
    h = params.omega * j_gamma + params.delta * ops.jz + params.chi * (ops.jz @ ops.jz)
    return evolve(state.amplitudes, h, params.t)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return CollectiveSpinState(n, amp / np.linalg.norm(amp))


class TestOatEvolve:
    @given(
        n=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chi=st.floats(min_value=-0.1, max_value=0.1),
        t=st.floats(min_value=0.0, max_value=2.0),
        # omega = 0 leaves H diagonal with m and -m sharing m^2 (degenerate)
        omega=st.one_of(st.just(0.0), st.floats(min_value=-2.0, max_value=2.0)),
        delta=st.one_of(st.just(0.0), st.floats(min_value=-2.0, max_value=2.0)),
        gamma=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_propagator(self, n, seed, chi, t, omega, delta, gamma):
        state = random_state(n, seed)
        params = OatParams(chi=chi, t=t, omega=omega, delta=delta, gamma=gamma)
        np.testing.assert_allclose(
            oat_evolve(state, params).amplitudes, dense_oat(state, params), rtol=0, atol=1e-12
        )

    def test_large_n_with_coupling_matches_dense_propagator(self):
        state = css(1000, math.pi / 2, 0.3)
        params = OatParams(chi=0.01, t=0.4, omega=0.8, delta=-0.2, gamma=1.1)
        np.testing.assert_allclose(
            oat_evolve(state, params).amplitudes, dense_oat(state, params), rtol=0, atol=1e-12
        )

    def test_pure_detuning_applies_linear_phases(self):
        n, delta, t = 5, 0.7, 1.3
        state = css(n, math.pi / 2, 0.4)
        out = oat_evolve(state, OatParams(chi=0.0, t=t, delta=delta))
        m = state.m_values
        expected = state.amplitudes * np.exp(-1j * delta * m * t)
        np.testing.assert_allclose(
            align_phase(out.amplitudes, expected), expected, atol=1e-12
        )

    def test_zero_time_is_identity(self):
        state = css(7, 1.0, 0.3)
        out = oat_evolve(state, OatParams(chi=0.4, t=0.0, omega=1.0, delta=0.2))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-13)

    def test_n2_closed_form_twist(self):
        # three-level evolution: amplitudes pick up e^{-i chi t m^2}
        state = css(2, math.pi / 2, 0.0)
        chi_t = math.pi / 2
        out = oat_evolve(state, OatParams(chi=chi_t, t=1.0))
        m = np.array([-1.0, 0.0, 1.0])
        expected = state.amplitudes * np.exp(-1j * chi_t * m**2)
        np.testing.assert_allclose(
            align_phase(out.amplitudes, expected), expected, atol=1e-12
        )
        np.testing.assert_allclose(
            np.abs(out.amplitudes), np.abs(state.amplitudes), atol=1e-12
        )

    @pytest.mark.parametrize("gamma", [0.0, 1.1, -2.0])
    def test_pure_coupling_matches_rotation(self, gamma):
        state = css(9, 1.2, 0.5)
        omega, t = 0.8, 1.7
        out = oat_evolve(state, OatParams(chi=0.0, t=t, omega=omega, gamma=gamma))
        axis = np.array([math.cos(gamma), -math.sin(gamma), 0.0])
        expected = rotate(state, axis, omega * t).amplitudes
        np.testing.assert_allclose(
            align_phase(out.amplitudes, expected), expected, atol=1e-10
        )


class TestBjjHamiltonian:
    def test_pure_tunneling_spectrum_linear(self):
        n, j_tun = 6, 1.4
        h = bjj_hamiltonian(BjjParams(n_particles=n, tunneling=j_tun))
        spectrum = ground_state(h)
        expected = -j_tun * np.arange(-n / 2, n / 2 + 1)[::-1]
        np.testing.assert_allclose(spectrum.energies, np.sort(expected), atol=1e-12)

    def test_repulsive_fock_even_n_ground_is_balanced(self):
        n = 8
        h = bjj_hamiltonian(BjjParams(n, tunneling=0.0, charging_energy=2.0))
        spectrum = ground_state(h)
        gs = spectrum.states[:, 0]
        assert abs(gs[n // 2]) == pytest.approx(1.0, abs=1e-12)  # m = 0

    def test_repulsive_fock_odd_n_ground_doublet(self):
        n = 7
        h = bjj_hamiltonian(BjjParams(n, tunneling=0.0, charging_energy=2.0))
        spectrum = ground_state(h)
        assert spectrum.ground_degenerate
        # the doublet lives on m = -1/2 and m = +1/2 (indices 3 and 4)
        subspace = spectrum.states[:, :2]
        weight = np.abs(subspace[3:5, :]) ** 2
        assert weight.sum() == pytest.approx(2.0, abs=1e-10)

    def test_attractive_fock_degenerate_extremes(self):
        n = 8
        h = bjj_hamiltonian(BjjParams(n, tunneling=0.0, charging_energy=-2.0))
        spectrum = ground_state(h)
        assert spectrum.ground_degenerate
        spectral_range = spectrum.energies[-1] - spectrum.energies[0]
        assert spectrum.gap <= 1e-10 * spectral_range
        subspace = spectrum.states[:, :2]
        weight = np.abs(subspace[[0, n], :]) ** 2  # m = -J and m = +J
        assert weight.sum() == pytest.approx(2.0, abs=1e-10)

    def test_rabi_regime_ground_overlaps_x_polarized_css(self):
        n = 20
        h = bjj_hamiltonian(
            BjjParams(n, tunneling=1.0, charging_energy=1e-4 / n)
        )
        spectrum = ground_state(h)
        reference = css(n, math.pi / 2, 0.0)
        fidelity = abs(np.vdot(reference.amplitudes, spectrum.states[:, 0])) ** 2
        assert fidelity > 0.999

    def test_imbalance_term(self):
        n = 2
        h = bjj_hamiltonian(BjjParams(n, tunneling=0.0, imbalance=0.5))
        np.testing.assert_allclose(
            np.diag(h.matrix), [-0.5, 0.0, 0.5], atol=1e-14
        )


bjj_cases = [
    BjjParams(1, tunneling=1.0),
    BjjParams(2, tunneling=0.7, imbalance=0.3),
    BjjParams(12, tunneling=0.9, imbalance=0.2, charging_energy=0.6),
    BjjParams(25, tunneling=1.0, charging_energy=-0.5),
    BjjParams(40, tunneling=0.2, imbalance=-0.1, charging_energy=3.0),
    BjjParams(200, tunneling=1.0, charging_energy=1.0),
    BjjParams(8, tunneling=0.0, charging_energy=-2.0),  # degenerate extremes
    BjjParams(7, tunneling=0.0, charging_energy=2.0),  # degenerate doublet
]


class TestGroundState:
    @pytest.mark.parametrize("params", bjj_cases)
    def test_bands_match_dense_eigh(self, params):
        h = bjj_hamiltonian(params)
        spectrum = ground_state(h)
        energies, states = np.linalg.eigh(h.matrix)
        spectral_range = energies[-1] - energies[0]
        np.testing.assert_allclose(
            spectrum.energies, energies, rtol=0, atol=1e-12 * spectral_range
        )
        dense_degenerate = energies[1] - energies[0] <= 1e-10 * spectral_range
        assert spectrum.ground_degenerate == dense_degenerate
        if not dense_degenerate:
            overlap = abs(np.vdot(states[:, 0], spectrum.states[:, 0]))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_hamiltonian_is_real_symmetric_tridiagonal(self):
        h = bjj_hamiltonian(BjjParams(6, tunneling=0.9, imbalance=0.2, charging_energy=0.6))
        ops = collective_ops(6)
        dense = -0.9 * ops.jx + 0.2 * ops.jz + 0.3 * (ops.jz @ ops.jz)
        assert h.matrix.dtype == float
        np.testing.assert_allclose(h.matrix, dense, rtol=0, atol=1e-15)

    def test_band_shapes_and_reality_enforced(self):
        from qmetro import BasisTag

        tag = BasisTag("spin", 2)
        with pytest.raises(ValueError, match="do not match"):
            TridiagonalHamiltonian(np.zeros(3), np.zeros(3), tag)
        with pytest.raises(ValueError, match="real"):
            TridiagonalHamiltonian(np.zeros(3, dtype=complex), np.zeros(2), tag)
        h = TridiagonalHamiltonian(np.zeros(3), np.ones(2), tag)
        with pytest.raises(ValueError):
            h.diagonal[0] = 1.0

    def test_one_by_one(self):
        # a 1x1 Hamiltonian is its own decomposition
        from qmetro import BasisTag

        h = TridiagonalHamiltonian(np.array([2.5]), np.array([]), BasisTag("fock", 0))
        spectrum = ground_state(h)
        assert spectrum.energies[0] == pytest.approx(2.5)
        assert not spectrum.ground_degenerate
        assert math.isinf(spectrum.gap)

    def test_reconstruction(self):
        h = bjj_hamiltonian(
            BjjParams(12, tunneling=0.9, imbalance=0.2, charging_energy=0.6)
        )
        spectrum = ground_state(h)
        rebuilt = (spectrum.states * spectrum.energies) @ spectrum.states.conj().T
        spectral_range = spectrum.energies[-1] - spectrum.energies[0]
        assert np.abs(rebuilt - h.matrix).max() <= 1e-10 * spectral_range

    def test_energies_ascend(self):
        h = bjj_hamiltonian(BjjParams(9, tunneling=1.1, charging_energy=-0.8))
        spectrum = ground_state(h)
        assert np.all(np.diff(spectrum.energies) >= -1e-12)


class TestClassifyRegime:
    def test_small_ratio_is_rabi(self):
        params = BjjParams(10, tunneling=1.0, charging_energy=1e-3)
        assert classify_regime(params) is Regime.RABI

    def test_large_ratio_is_fock(self):
        n = 10
        params = BjjParams(n, tunneling=1.0, charging_energy=2.0 * n)
        assert classify_regime(params) is Regime.FOCK

    @pytest.mark.parametrize("n", [2, 5, 50])
    def test_unit_ratio_is_josephson(self, n):
        params = BjjParams(n, tunneling=1.0, charging_energy=1.0)
        assert classify_regime(params) is Regime.JOSEPHSON

    def test_boundaries_fall_to_josephson(self):
        n = 10
        at_lower = BjjParams(n, tunneling=1.0, charging_energy=1.0 / n)
        at_upper = BjjParams(n, tunneling=1.0, charging_energy=float(n))
        assert classify_regime(at_lower) is Regime.JOSEPHSON
        assert classify_regime(at_upper) is Regime.JOSEPHSON

    def test_zero_tunneling_is_fock_with_warning(self):
        params = BjjParams(6, tunneling=0.0, charging_energy=1.0)
        with pytest.warns(RuntimeWarning, match="tunneling"):
            assert classify_regime(params) is Regime.FOCK


class TestSqueezedRamseyChain:
    def test_precision_bounded_by_xi_r(self):
        n = 40
        probe = rotate(
            oat_evolve(css(n, math.pi / 2, 0.0), OatParams(chi=0.05, t=1.0)),
            (0.0, 1.0, 0.0),
            math.pi / 2,
        )
        report = squeezing_parameters(probe)
        ops = collective_ops(n)
        jz = Observable(ops.jz, ops.basis_tag)

        def signal(phi):
            return moments(ramsey(probe, phi), jz)[0]

        def noise(phi):
            final = ramsey(probe, phi)
            alpha = optimal_readout_rotation(final)
            rotated = ramsey(probe, phi, readout_rotation=alpha)
            return math.sqrt(moments(rotated, jz)[1])

        prop = error_propagation(signal, noise, math.pi / 2)
        bound = math.sqrt(report.xi_r_sq / n)
        assert prop.value <= bound * (1 + 1e-3)
        assert prop.value < 1.0 / math.sqrt(n)  # beats the SQL
