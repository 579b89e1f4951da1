import math

import numpy as np
import pytest
from conftest import legendre

from qmetro import (
    DistributionFamily,
    CollectiveSpinState,
    TwoModeFockState,
    classical_fisher,
    collective_ops,
    css,
    error_propagation,
    expectation_vector,
    moments,
    mz_single_particle,
    mz_two_mode,
    number_operator,
    oat_evolve,
    OatParams,
    Observable,
    optimal_readout_rotation,
    parity_expectation,
    parity_operator,
    phase_sweep,
    projective_povm,
    ramsey,
    ramsey_single_particle,
    rotate,
    twin_fock,
)
from qmetro.spinops import evolve


def jz_obs(n):
    ops = collective_ops(n)
    return Observable(ops.jz, ops.basis_tag)


def dense_unitary(generator, angle):
    """exp(-i angle generator) as a dense matrix, by spectral decomposition."""
    w, v = np.linalg.eigh(generator)
    return (v * np.exp(-1j * angle * w)) @ v.conj().T


def ramsey_matrix(n, phi):
    """Columns: the Ramsey sequence applied to each Dicke basis state."""
    columns = [ramsey(CollectiveSpinState(n, np.eye(n + 1)[k]), phi).amplitudes
               for k in range(n + 1)]
    return np.stack(columns, axis=1)


def splitter_matrices(n):
    """Both Mach-Zehnder splitters on the total-number-n sector, applied as
    collective rotations to each basis state |k, n-k> (ascending k)."""
    ops = collective_ops(n)
    basis = np.eye(n + 1, dtype=complex)
    bs1 = np.stack([evolve(e, ops.jy, -math.pi / 2) for e in basis], axis=1)
    bs2 = np.stack([evolve(e, ops.jx, math.pi / 2) for e in basis], axis=1)
    return bs1, bs2


def bs1_coefficient(n, k):
    """Amplitude of |2k>_a |2N-2k>_b after the first splitter on |N,N>."""
    return (
        (-1.0) ** (n - k)
        / 2**n
        * math.sqrt(math.comb(2 * k, k) * math.comb(2 * n - 2 * k, n - k))
    )


class TestSingleParticle:
    def test_mz_constructive_at_zero(self):
        assert mz_single_particle(0.0) == pytest.approx((1.0, 0.0), abs=1e-14)

    @pytest.mark.parametrize("phi", np.linspace(-2 * math.pi, 2 * math.pi, 21))
    def test_mz_probabilities(self, phi):
        pa, pb = mz_single_particle(phi)
        assert pa == pytest.approx(math.cos(phi / 2) ** 2, abs=1e-12)
        assert pb == pytest.approx(math.sin(phi / 2) ** 2, abs=1e-12)

    @pytest.mark.parametrize("phi", np.linspace(-2 * math.pi, 2 * math.pi, 21))
    def test_ramsey_probabilities(self, phi):
        p_down, p_up = ramsey_single_particle(phi)
        assert p_down == pytest.approx((1 + math.cos(phi)) / 2, abs=1e-12)
        assert p_up == pytest.approx((1 - math.cos(phi)) / 2, abs=1e-12)

    @pytest.mark.parametrize(
        "pipeline", [mz_single_particle, ramsey_single_particle]
    )
    def test_fisher_is_unity(self, pipeline):
        family = DistributionFamily(
            outcome_labels=("first", "second"),
            prob_at=lambda phi: np.array(pipeline(phi)),
        )
        for phi in np.linspace(0.1, math.pi - 0.1, 20):
            assert classical_fisher(family, phi) == pytest.approx(1.0, abs=1e-9)


class TestCollectiveRamsey:
    @pytest.mark.parametrize("n", [1, 3, 10])
    @pytest.mark.parametrize("phi", [0.3, 1.0, 2.4])
    def test_mean_jz_of_all_down_probe(self, n, phi):
        final = ramsey(css(n, 0.0, 0.0), phi)
        mean, _ = moments(final, jz_obs(n))
        assert mean == pytest.approx((n / 2) * math.cos(phi), abs=1e-10)

    @pytest.mark.parametrize("n", [1, 3, 10])
    @pytest.mark.parametrize("phi", [0.3, 1.0, 2.4])
    def test_std_jz_of_all_down_probe(self, n, phi):
        final = ramsey(css(n, 0.0, 0.0), phi)
        _, var = moments(final, jz_obs(n))
        assert math.sqrt(var) == pytest.approx(
            (math.sqrt(n) / 2) * abs(math.sin(phi)), abs=1e-10
        )

    def test_zero_phase_flips_all_down_to_all_up(self):
        n = 5
        final = ramsey(css(n, 0.0, 0.0), 0.0)
        assert abs(final.amplitudes[n]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_phase_propagator_is_pi_pulse(self):
        n = 4
        expected = dense_unitary(collective_ops(n).jy, math.pi)
        np.testing.assert_allclose(ramsey_matrix(n, 0.0), expected, atol=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 0.9, 2.7])
    def test_propagator_unitary(self, phi):
        u = ramsey_matrix(6, phi)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(7), atol=1e-12)

    def test_propagator_is_pulse_phase_pulse(self):
        n, phi = 4, 1.2
        ops = collective_ops(n)
        pulse = dense_unitary(ops.jy, math.pi / 2)
        expected = pulse @ dense_unitary(ops.jz, phi) @ pulse
        np.testing.assert_allclose(ramsey_matrix(n, phi), expected, atol=1e-12)

    def test_readout_rotation_preserves_mean_spin(self):
        probe = oat_evolve(css(8, math.pi / 2, 0.0), OatParams(chi=0.1, t=1.0))
        final = ramsey(probe, 0.7)
        rotated = ramsey(probe, 0.7, readout_rotation=0.9)
        np.testing.assert_allclose(
            expectation_vector(rotated), expectation_vector(final), atol=1e-10
        )


class TestTwoModeMz:
    def test_bs1_n1_amplitudes(self):
        vec = np.zeros(3, dtype=complex)
        vec[1] = 1.0  # |1,1> inside the n=2 sector (basis ascending n_a)
        out = evolve(vec, collective_ops(2).jy, -math.pi / 2)
        np.testing.assert_allclose(
            out, [-math.sqrt(2) / 2, 0.0, math.sqrt(2) / 2], atol=1e-12
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bs1_coefficients_match_closed_form(self, n):
        # |N,N> is the middle basis state of the total-number-2N sector
        vec = np.zeros(2 * n + 1, dtype=complex)
        vec[n] = 1.0
        out = evolve(vec, collective_ops(2 * n).jy, -math.pi / 2)
        for k in range(n + 1):
            assert out[2 * k] == pytest.approx(bs1_coefficient(n, k), abs=1e-12)
        assert np.abs(out[1::2]).max() <= 1e-12  # odd occupations stay empty

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("phi", [0.0, 0.8, 2.9])
    def test_norm_and_number_conservation(self, n, phi):
        out = mz_two_mode(twin_fock(n), phi)
        assert np.sum(np.abs(out.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert list(out.total_number_support()) == [2 * n]

    @pytest.mark.parametrize("n", list(range(2, 13)))
    def test_splitters_unitary_per_sector(self, n):
        for u in splitter_matrices(n):
            np.testing.assert_allclose(
                u.conj().T @ u, np.eye(n + 1), atol=1e-12
            )

    @pytest.mark.parametrize("n", [1, 2, 5, 28])
    def test_splitter_generators_are_collective_spin(self, n):
        # h1 = i(a^dag b - b^dag a) and h2 = a^dag b + b^dag a on the sector,
        # built from the ladder a^dag b |k, n-k> = sqrt((k+1)(n-k)) |k+1, n-k-1>
        h1 = np.zeros((n + 1, n + 1), dtype=complex)
        h2 = np.zeros((n + 1, n + 1), dtype=complex)
        for k in range(n):
            amp = math.sqrt((k + 1) * (n - k))
            h1[k + 1, k], h1[k, k + 1] = 1j * amp, -1j * amp
            h2[k + 1, k] = h2[k, k + 1] = amp
        ops = collective_ops(n)
        assert np.abs(h1 + 2 * ops.jy).max() == 0.0
        assert np.abs(h2 - 2 * ops.jx).max() == 0.0

    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("phi", [0.0, 0.8, 2.9])
    def test_sector_is_splitter_phase_splitter(self, n, phi):
        bs1, bs2 = splitter_matrices(2 * n)
        phase = np.exp(1j * phi * (2 * n - np.arange(2 * n + 1)))
        start = np.zeros(2 * n + 1, dtype=complex)
        start[n] = 1.0
        expected = bs2 @ (phase * (bs1 @ start))
        out = mz_two_mode(twin_fock(n), phi).amplitudes
        sector = out[np.arange(2 * n + 1), 2 * n - np.arange(2 * n + 1)]
        np.testing.assert_allclose(sector, expected, atol=1e-12)

    def test_vacuum_takes_only_the_phase(self):
        grid = np.zeros((3, 3), dtype=complex)
        grid[0, 0] = grid[1, 0] = 1.0 / math.sqrt(2)
        out = mz_two_mode(TwoModeFockState(2, grid), 1.3).amplitudes
        assert out[0, 0] == pytest.approx(1.0 / math.sqrt(2), abs=1e-15)

    def test_insufficient_cutoff_rejected(self):
        grid = np.zeros((4, 4), dtype=complex)
        grid[3, 3] = 1.0  # total number 6 > cutoff 3
        state = TwoModeFockState(3, grid)
        with pytest.raises(ValueError, match="cutoff"):
            mz_two_mode(state, 0.1)


class TestParity:
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_zero_phase_unit_parity(self, n):
        out = mz_two_mode(twin_fock(n), 0.0)
        assert parity_expectation(out, "b") == pytest.approx(1.0, abs=1e-12)

    def test_n1_pipeline_is_cos_2phi(self):
        for phi in np.linspace(0.0, math.pi, 40):
            out = mz_two_mode(twin_fock(1), phi)
            assert parity_expectation(out, "b") == pytest.approx(
                math.cos(2 * phi), abs=1e-12
            )

    def test_n4_quarter_pi(self):
        out = mz_two_mode(twin_fock(4), math.pi / 4)
        assert parity_expectation(out, "b") == pytest.approx(3.0 / 8.0, abs=1e-10)

    @pytest.mark.parametrize("n", list(range(1, 11)))
    def test_matches_legendre_oracle(self, n):
        probe = twin_fock(n)
        for phi in np.linspace(0.0, math.pi, 100):
            got = parity_expectation(mz_two_mode(probe, phi), "b")
            assert got == pytest.approx(legendre(n, math.cos(2 * phi)), abs=1e-8)

    def test_parity_operator_eigenvalues(self):
        obs = parity_operator("b", 3)
        values = np.unique(np.real(np.diag(obs.matrix)))
        np.testing.assert_array_equal(values, [-1.0, 1.0])

    def test_parity_expectation_matches_operator(self):
        state = mz_two_mode(twin_fock(2), 0.9)
        mean, _ = moments(state, parity_operator("b", state.cutoff))
        assert parity_expectation(state, "b") == pytest.approx(mean, abs=1e-12)

    def test_error_propagation_near_zero_phase_hits_quantum_bound(self):
        # the parity readout saturates 1/sqrt(F_Q) = 1/sqrt(2N(N+1)) as phi -> 0
        for n in (3, 5, 10):
            probe = twin_fock(n)

            def signal(phi):
                return parity_expectation(mz_two_mode(probe, phi), "b")

            def noise(phi):
                mean = signal(phi)
                return math.sqrt(max(0.0, 1.0 - mean * mean))

            prop = error_propagation(signal, noise, 1e-3)
            bound = 1.0 / math.sqrt(2 * n * (n + 1))
            assert prop.value == pytest.approx(bound, rel=0.01)


class TestModeOperators:
    def test_number_operator_diagonal(self):
        obs = number_operator("b", 2)
        diag = np.real(np.diag(obs.matrix)).reshape(3, 3)
        np.testing.assert_array_equal(diag, np.tile([0, 1, 2], (3, 1)))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            number_operator("c", 2)


class TestReadoutRotation:
    def test_reaches_min_perpendicular_variance(self):
        from qmetro import squeezing_parameters

        probe = oat_evolve(css(12, math.pi / 2, 0.0), OatParams(chi=0.08, t=1.0))
        probe = rotate(probe, (0.0, 1.0, 0.0), math.pi / 2)  # mean spin to -z
        final = ramsey(probe, math.pi / 2)
        alpha = optimal_readout_rotation(final)
        rotated = ramsey(probe, math.pi / 2, readout_rotation=alpha)
        _, var = moments(rotated, jz_obs(12))
        report = squeezing_parameters(probe)
        min_var = report.xi_s_sq * 12 / 4
        assert var == pytest.approx(min_var, rel=1e-6)

    def test_degenerate_mean_spin_rejected(self):
        from qmetro import ghz

        with pytest.raises(ValueError, match="mean spin"):
            optimal_readout_rotation(ghz(4))


class TestPhaseSweep:
    def test_css_probe_reaches_sql_at_best_point(self):
        n = 100
        initial = css(n, 0.0, 0.0)
        grid = np.linspace(0.1 * math.pi, 0.9 * math.pi, 9)
        reports = phase_sweep(
            lambda phi: ramsey(initial, phi),
            projective_povm(initial.basis_tag),
            jz_obs(n),
            grid,
        )
        best = min(r.error_prop for r in reports)
        assert best == pytest.approx(0.1, abs=1e-9)
        assert [r.theta for r in reports] == pytest.approx(list(grid))

    def test_single_point_grid(self):
        n = 3
        initial = css(n, 0.0, 0.0)
        reports = phase_sweep(
            lambda phi: ramsey(initial, phi),
            projective_povm(initial.basis_tag),
            jz_obs(n),
            [0.8],
            repetitions=4,
        )
        assert len(reports) == 1
        assert reports[0].repetitions == 4
        assert reports[0].crb == pytest.approx(
            1.0 / math.sqrt(4 * reports[0].classical_fisher)
        )

    def test_empty_grid_rejected(self):
        n = 2
        initial = css(n, 0.0, 0.0)
        with pytest.raises(ValueError, match="non-empty|empty"):
            phase_sweep(
                lambda phi: ramsey(initial, phi),
                projective_povm(initial.basis_tag),
                jz_obs(n),
                [],
            )

    def test_fisher_saturates_qfi_for_css_ramsey(self):
        n = 8
        initial = css(n, 0.0, 0.0)
        reports = phase_sweep(
            lambda phi: ramsey(initial, phi),
            projective_povm(initial.basis_tag),
            jz_obs(n),
            [0.7, 1.6],
        )
        for r in reports:
            assert r.classical_fisher == pytest.approx(n, abs=1e-6)
            assert r.quantum_fisher == pytest.approx(n, abs=1e-6)
            assert r.classical_fisher <= r.quantum_fisher + 1e-6
            assert r.error_prop >= r.qcrb - 1e-8

    def test_ghz_probe_qcrb_is_heisenberg(self):
        # the phase family of a GHZ probe has qcrb = 1/N; the Dicke
        # projective readout is insensitive to the phase, so the
        # classical side honestly reports zero information
        from qmetro import CollectiveSpinState, ghz
        from qmetro.spinops import evolve

        n = 10
        probe = ghz(n)
        jz = jz_obs(n)

        def family(phi):
            return CollectiveSpinState(n, evolve(probe.amplitudes, jz.matrix, phi))

        reports = phase_sweep(
            family, projective_povm(probe.basis_tag), jz, [0.4, 1.1]
        )
        for r in reports:
            assert r.qcrb == pytest.approx(1.0 / n, abs=1e-8)
            # the readout is phase-insensitive: only round-off dust remains
            assert r.classical_fisher == pytest.approx(0.0, abs=1e-10)
            assert r.crb > 1e8
            assert r.error_prop > 1e8
