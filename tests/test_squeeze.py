import math

import numpy as np
import pytest
from closed_forms import oat_closed_form
from conftest import align_phase
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmetro import (
    BasisTag,
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
from qmetro import squeeze
from qmetro.spinops import _band_evolve, _band_spectrum, _dicke_ladder, evolve
from qmetro.squeeze import _lowest_states


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

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_all_three_match_the_dense_variance_along_the_squeezed_direction(self, n):
        # xi_S^2 and xi_R^2 once came from the small eigenvalue of the 2x2
        # perpendicular covariance, off by ~eps lambda_max / lambda_min
        ops = collective_ops(n)
        axis = np.array([0.36, -0.48, 0.8])
        for t in (0.4, 0.5):
            twisted = oat_evolve(css(n, math.pi / 2, 0.0), OatParams(chi=0.01, t=t))
            for state in (twisted, rotate(twisted, axis, 1.234)):
                report = squeezing_parameters(state)
                _, var = moments(state, Observable(ops.along(report.min_perp_direction), ops.basis_tag))
                jnorm = np.linalg.norm(
                    [moments(state, Observable(j, ops.basis_tag))[0] for j in (ops.jx, ops.jy, ops.jz)]
                )
                assert report.xi_s_sq == pytest.approx(4.0 * var / n, rel=5e-15, abs=0)
                assert report.xi_r_sq == pytest.approx(n * var / jnorm**2, rel=5e-15, abs=0)
                assert report.xi_h_sq == pytest.approx(2.0 * var / jnorm, rel=5e-15, abs=0)

    @pytest.mark.parametrize("n", [2, 3, 10, 101, 1000, 2000])
    @pytest.mark.parametrize("chi_t", [1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1])
    def test_one_axis_twisting_matches_kitagawa_ueda(self, n, chi_t):
        # xi_R^2 and xi_H^2 divide by powers of |<J>|, so their error grows
        # with the conditioning N / (2 |<J>|) of the mean spin: 2.1e-9 at
        # N = 2000, chi t = 0.1, where |<J>| = 0.045
        report = squeezing_parameters(oat_evolve(css(n, math.pi / 2, 0.0), OatParams(chi=chi_t, t=1.0)))
        closed = oat_closed_form(n, chi_t)
        conditioning = max(1.0, n / (2.0 * closed["mean_spin"]))
        assert report.xi_s_sq == pytest.approx(closed["xi_s_sq"], rel=1e-12, abs=0)
        for key in ("xi_r_sq", "xi_h_sq"):
            assert getattr(report, key) == pytest.approx(closed[key], rel=1e-12 * conditioning, abs=0)

    @given(
        n=st.integers(min_value=1, max_value=2000),
        theta=st.floats(min_value=0.01, max_value=math.pi - 0.01),
        phi=st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
    )
    # _perpendicular_pair switches its helper axis at |cos theta| = 0.9
    @example(n=7, theta=math.acos(0.9) - 1e-9, phi=0.4)
    @example(n=7, theta=math.acos(0.9) + 1e-9, phi=0.4)
    @example(n=2000, theta=math.acos(-0.9) - 1e-9, phi=5.0)
    @example(n=2000, theta=math.acos(-0.9) + 1e-9, phi=5.0)
    @settings(max_examples=60, deadline=None)
    def test_every_css_sits_at_unity(self, n, theta, phi):
        report = squeezing_parameters(css(n, theta, phi))
        assert report.xi_s_sq == pytest.approx(1.0, abs=1e-12)
        assert report.xi_r_sq == pytest.approx(1.0, abs=1e-12)
        assert report.xi_h_sq == pytest.approx(1.0, abs=1e-12)


def dense_oat(state, params):
    """exp(-i t H) psi with the dense H = omega J_gamma + delta Jz + chi Jz^2:
    the propagator oat_evolve used before its tridiagonal form, kept as
    the oracle."""
    ops = collective_ops(state.n_particles)
    j_gamma = math.cos(params.gamma) * ops.jx - math.sin(params.gamma) * ops.jy
    h = params.omega * j_gamma + params.delta * ops.jz + params.chi * (ops.jz @ ops.jz)
    return evolve(state.amplitudes, h, params.t)


def banded_oat(state, params):
    """exp(-i t H) psi by oat_evolve's banded path (the spectrum of the
    tridiagonal H in its real gauge form), run even at omega = 0: the
    oracle of the diagonal path."""
    n = state.n_particles
    m, coupling = _dicke_ladder(n)
    spectrum = _band_spectrum(params.delta * m + params.chi * m**2, 0.5 * params.omega * coupling)
    gauge = np.exp(1j * params.gamma * np.arange(n + 1))
    return _band_evolve(state.amplitudes, spectrum, gauge, params.t)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000])
    @pytest.mark.parametrize("chi,delta", [(0.01, 0.0), (0.05, 0.3), (-0.2, -1.1), (0.0, 0.7)])
    def test_diagonal_path_bit_identical_to_banded_path(self, n, chi, delta):
        params = OatParams(chi=chi, t=0.7, delta=delta)
        for state in (css(n, math.pi / 2, 0.0), random_state(n, n)):
            assert np.array_equal(oat_evolve(state, params).amplitudes, banded_oat(state, params))

    def test_diagonal_path_ignores_gamma(self):
        # with omega = 0, J_gamma drops out of H; the banded path's gauge
        # e^{i k gamma} cancels only to round-off
        state = random_state(40, 3)
        params = OatParams(chi=0.05, t=1.3, delta=0.2, gamma=1.1)
        plain = OatParams(chi=0.05, t=1.3, delta=0.2)
        assert np.array_equal(oat_evolve(state, params).amplitudes, oat_evolve(state, plain).amplitudes)
        np.testing.assert_allclose(
            oat_evolve(state, params).amplitudes, banded_oat(state, params), rtol=0, atol=1e-13
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


lowest_states_cases = [
    BjjParams(10, tunneling=0.0, charging_energy=-1.0),  # A07a doublet
    # the sizes bjj-ground runs at, even and odd, Josephson regime
    *[BjjParams(n, tunneling=1.0, charging_energy=1.0) for n in (1000, 1001, 2000, 4000)],
    # E_c = 0: the ground vector is the coherent spin state along x
    BjjParams(1000, tunneling=1.0),
    BjjParams(1001, tunneling=0.3),
    # an imbalance, and a negative tunneling with its alternating ground state
    BjjParams(1000, tunneling=0.5, imbalance=-2.0, charging_energy=-0.01),
    BjjParams(400, tunneling=-1.0, imbalance=0.7, charging_energy=0.3),
    # the Fock regime at odd N: a ground doublet split far below 1e-10 of the range
    BjjParams(1001, tunneling=1.0, charging_energy=3003.0),
    # the attractive regime: a ground doublet at m = +-J, split far below round-off
    BjjParams(25, tunneling=1.0, charging_energy=-0.5),
    BjjParams(1000, tunneling=1.0, charging_energy=-1.0),
    # both zero-tunneling doublets at large N: m = +-1/2 and m = +-J
    BjjParams(1001, tunneling=0.0, charging_energy=2.0),
    BjjParams(1000, tunneling=0.0, charging_energy=-2.0),
    # zero tunneling and no charging energy: T = 0, every level degenerate
    BjjParams(6, tunneling=0.0),
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

    @pytest.mark.parametrize("params", bjj_cases + lowest_states_cases)
    def test_lowest_states_match_full_spectrum(self, params):
        self.check_lowest_states(bjj_hamiltonian(params))

    @pytest.mark.parametrize("gap,degenerate", [(1.5e-10, True), (1.8e-10, False)])
    def test_a_gap_inside_the_top_bracket_reads_the_top(self, gap, degenerate, monkeypatch):
        # spectrum {0, gap, 1 - b sqrt 2, 1, 1 + b sqrt 2}: the rule's
        # threshold 1e-10 (top - ground) lies between 1e-10 at the largest
        # diagonal entry and 2e-10 at the Gershgorin bound 1 + 2b, so only
        # the top itself, 1 + sqrt(2) / 2, decides
        b = 0.5
        h = TridiagonalHamiltonian(
            np.array([0.0, gap, 1.0, 1.0, 1.0]), np.array([0.0, 0.0, b, b]), BasisTag("spin", 4)
        )
        roots = []
        real_root = squeeze._laguerre_root

        def counting_root(*args, **kwargs):
            roots.append(real_root(*args, **kwargs))
            return roots[-1]

        monkeypatch.setattr(squeeze, "_laguerre_root", counting_root)
        self.check_lowest_states(h)
        assert len(roots) == 3 and roots[2] == pytest.approx(-(1.0 + math.sqrt(0.5)), abs=1e-14)
        assert _lowest_states(h).ground_degenerate is degenerate

    @pytest.mark.parametrize("n", [25, 1000])
    def test_an_attractive_doublet_takes_the_double_root_step(self, n, monkeypatch):
        # the ground pair at m = +-J is split below round-off, so G^2/H
        # reads 2 near it; plain Laguerre nears it by about 0.29 a pass
        # (21-27 passes), the double-root step in a few
        passes, per_root = [], []
        real_sums, real_root = squeeze._pivot_sums, squeeze._laguerre_root
        monkeypatch.setattr(squeeze, "_pivot_sums", lambda *args: passes.append(args[-1]) or real_sums(*args))

        def counting_root(*args, **kwargs):
            start = len(passes)
            root = real_root(*args, **kwargs)
            per_root.append(len(passes) - start)
            return root

        monkeypatch.setattr(squeeze, "_laguerre_root", counting_root)
        self.check_lowest_states(bjj_hamiltonian(BjjParams(n, tunneling=1.0, charging_energy=-1.0)))
        assert len(per_root) == 2 and max(per_root) <= 10

    @pytest.mark.parametrize("factor", [2.0**-1000, 2.0**-3, 2.0**5, 2.0**900])
    def test_lowest_states_scale_exactly_with_the_hamiltonian(self, factor):
        # the search runs on T over a power of two, so a power-of-two
        # factor, even one whose squares would overflow or underflow,
        # scales the energies exactly and leaves the vectors and flag alone
        h = bjj_hamiltonian(BjjParams(200, tunneling=1.0, imbalance=0.3, charging_energy=1.0))
        scaled = TridiagonalHamiltonian(factor * h.diagonal, factor * h.off_diagonal, h.basis_tag)
        low, low_scaled = _lowest_states(h), _lowest_states(scaled)
        assert np.array_equal(low_scaled.energies, factor * low.energies)
        assert np.array_equal(low_scaled.states, low.states)
        assert low_scaled.ground_degenerate == low.ground_degenerate

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_lowest_states_reject_a_non_finite_hamiltonian(self, bad):
        h = TridiagonalHamiltonian(np.array([0.0, bad, 1.0]), np.array([0.5, 0.5]), BasisTag("spin", 2))
        with pytest.raises(ValueError, match="finite"):
            _lowest_states(h)

    def test_start_is_splitmix64(self):
        # integer arithmetic only, so the start, and with it the last bits
        # of the vectors, is the same on every machine: SplitMix64's first
        # outputs from state 0, as 53-bit fractions
        first = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
        assert squeeze._start(3, 0).tolist() == [(v >> 11) * 2.0**-53 - 0.5 for v in first]

    @staticmethod
    def check_lowest_states(h):
        full = ground_state(h)
        low = _lowest_states(h)
        dim = h.diagonal.size
        spectral_range = full.energies[-1] - full.energies[0]
        assert low.energies.shape == (2,) and low.states.shape == (dim, 2)
        np.testing.assert_allclose(low.energies, full.energies[:2], rtol=0, atol=1e-12 * spectral_range)
        assert abs(low.gap - full.gap) <= 1e-12 * spectral_range
        assert low.ground_degenerate == full.ground_degenerate
        # an orthonormal pair of eigenvectors, also inside a degenerate pair
        np.testing.assert_allclose(low.states.T @ low.states, np.eye(2), rtol=0, atol=1e-13)
        applied = h.diagonal[:, None] * low.states
        applied[:-1] += h.off_diagonal[:, None] * low.states[1:]
        applied[1:] += h.off_diagonal[:, None] * low.states[:-1]
        residual = np.abs(applied - low.states * low.energies).max()
        assert residual <= 1e-12 * spectral_range
        if not full.ground_degenerate:
            overlap = abs(np.vdot(full.states[:, 0], low.states[:, 0]))
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
