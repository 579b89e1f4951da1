import contextlib
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import legendre
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetro import (
    BasisTag,
    DistributionFamily,
    CollectiveSpinState,
    InvalidDistributionError,
    InvalidFamilyError,
    Readout,
    TwoModeFockState,
    classical_fisher,
    collective_ops,
    cramer_rao,
    css,
    ecs,
    error_propagation,
    expectation_vector,
    ghz,
    moments,
    mz_single_particle,
    mz_single_particle_state,
    mz_two_mode,
    oat_evolve,
    OatParams,
    Observable,
    optimal_readout_rotation,
    parity_expectation,
    parity_sector_povm,
    phase_sweep,
    povm_family,
    povm_probabilities,
    projective_povm,
    qfi_from_family,
    ramsey,
    ramsey_single_particle,
    readout_moments,
    rotate,
    twin_fock,
)
from qmetro import cli, estimate, interferom, spinops
from qmetro.estimate import STEP
from qmetro.interferom import _mean_spin_axis, _parity_mean, _readout_variance_series
from qmetro.spinops import _dicke_ladder, _jy_band, _occupied, _real_matvec, evolve
from search_oracles import grid_then_golden


def jz_obs(n):
    ops = collective_ops(n)
    return Observable(ops.jz, ops.basis_tag)


def jz_readout(state):
    return Readout(state.m_values, state.basis_tag)


def grid_parity(state, mode):
    """(-1)^n_mode |c|^2 summed over the Fock grid, kept inside [-1, 1]
    where the mean of +-1 values lies: the oracle for the parity
    readout's mean."""
    n = np.arange(state.cutoff + 1)
    occupation = n[:, None] if mode == "a" else n[None, :]
    total = float(np.sum((-1.0) ** occupation * np.abs(state.amplitudes) ** 2))
    return min(1.0, max(-1.0, total))


def oat_probe(n, chi=None):
    """One-axis-twisted equatorial CSS with its mean spin turned to -z."""
    chi = n ** (-2.0 / 3.0) if chi is None else chi
    probe = oat_evolve(css(n, math.pi / 2, 0.0), OatParams(chi=chi, t=1.0))
    return rotate(probe, (0.0, 1.0, 0.0), math.pi / 2)


def rotated_variance(state, angle):
    """Var Jz after rotating state by angle about its mean spin, by `rotate`."""
    return readout_moments(rotate(state, _mean_spin_axis(state), angle), jz_readout(state))[1]


def rotated_variances(state, angles):
    """`rotated_variance` at every angle, in O(N) per angle.

    With the mean spin n at polar angles (T, P), exp(-i theta n.J) is
    W exp(-i theta Jz) W^dag for W = Rz(P) Ry(T), and W^dag Jz W = k.J
    with k = (-sin T, 0, cos T).  So the variance is that of the
    tridiagonal k.J on e^{-i theta m} W^dag psi, where W^dag psi takes
    two `rotate` calls per state.
    """
    axis = _mean_spin_axis(state)
    polar, azimuth = math.acos(axis[2]), math.atan2(axis[1], axis[0])
    base = rotate(rotate(state, (0.0, 0.0, 1.0), -azimuth), (0.0, 1.0, 0.0), -polar).amplitudes
    m, coupling = _dicke_ladder(state.n_particles)
    variances = []
    for block in np.array_split(np.asarray(angles, dtype=float), max(1, len(angles) // 500)):
        a = np.exp(-1j * np.outer(m, block)) * base[:, None]
        ka = math.cos(polar) * m[:, None] * a
        ka[1:] -= 0.5 * math.sin(polar) * coupling[:, None] * a[:-1]
        ka[:-1] -= 0.5 * math.sin(polar) * coupling[:, None] * a[1:]
        mean = np.einsum("ij,ij->j", a.conj(), ka).real
        variances.append(np.einsum("ij,ij->j", ka.conj(), ka).real - mean**2)
    return np.concatenate(variances)


def assert_grid_minimum_reached(state):
    """The returned angle is no worse than a 4001-point grid over [0, 2 pi)."""
    grid_min = rotated_variances(state, np.linspace(0.0, 2.0 * math.pi, 4001)).min()
    angle = optimal_readout_rotation(state)
    assert 0.0 <= angle < 2.0 * math.pi
    assert rotated_variance(state, angle) <= grid_min + 1e-9 * max(1.0, grid_min)


def dense_unitary(generator, angle):
    """exp(-i angle generator) as a dense matrix, by spectral decomposition."""
    w, v = np.linalg.eigh(generator)
    return (v * np.exp(-1j * angle * w)) @ v.conj().T


def ramsey_matrix(n, phi):
    """Columns: the Ramsey sequence applied to each Dicke basis state."""
    columns = [ramsey(CollectiveSpinState(n, np.eye(n + 1)[k]), phi).amplitudes
               for k in range(n + 1)]
    return np.stack(columns, axis=1)


def pulse_phase_pulse(n, phi):
    """The Ramsey propagator as the dense product pulse . phase . pulse."""
    ops = collective_ops(n)
    pulse = dense_unitary(ops.jy, math.pi / 2)
    return pulse @ dense_unitary(ops.jz, phi) @ pulse


def rotate_ramsey(initial, phi, readout_rotation=None):
    """The Ramsey sequence as three validated `rotate` calls, then the
    readout rotation about the mean spin: the oracle of `ramsey`, which
    runs the sequence as two real products with Jx's cached eigenvectors
    instead."""
    state = rotate(initial, (0.0, 1.0, 0.0), math.pi / 2.0)
    state = rotate(state, (0.0, 0.0, 1.0), phi)
    state = rotate(state, (0.0, 1.0, 0.0), math.pi / 2.0)
    if readout_rotation is not None:
        jvec = expectation_vector(state)
        state = rotate(state, jvec / np.linalg.norm(jvec), readout_rotation)
    return state


def plain_ramsey(state, phi):
    """ramsey's float operations in their plain form, both real products
    taken on every call: V (e^(-i phi m) V^T F psi) with the half turn
    (F psi)_k = (-1)^k psi_{N-k}, the outer product rescaled to unit
    norm.  ramsey must equal it bit for bit."""
    n = state.n_particles
    m, _ = _dicke_ladder(n)
    _, v = _jy_band(n)
    flipped = (-1.0) ** np.arange(n + 1) * state.amplitudes[::-1]
    out = _real_matvec(v, np.exp(-1j * phi * m) * _real_matvec(v.T, flipped))
    return out / math.sqrt(np.vdot(out, out).real)


def random_spin_state(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return CollectiveSpinState(n, amp / np.linalg.norm(amp))


def splitter_matrices(n):
    """Both Mach-Zehnder splitters on the total-number-n sector, applied as
    collective rotations to each basis state |k, n-k> (ascending k)."""
    ops = collective_ops(n)
    basis = np.eye(n + 1, dtype=complex)
    bs1 = np.stack([evolve(e, ops.jy, -math.pi / 2) for e in basis], axis=1)
    bs2 = np.stack([evolve(e, ops.jx, math.pi / 2) for e in basis], axis=1)
    return bs1, bs2


def dense_mz_two_mode(state, phi):
    """The two-mode Mach-Zehnder as the dense composition per occupied
    sector n: evolve under collective_ops(n).jy by -pi/2, the phase
    e^(i phi n_b), evolve under Jx by pi/2.  The oracle of mz_two_mode."""
    grid = state.amplitudes
    out = np.zeros_like(grid)
    out[0, 0] = grid[0, 0]
    for n in state.total_number_support():
        if n == 0:
            continue
        na = np.arange(n + 1)
        nb = n - na
        ops = collective_ops(int(n))
        vec = evolve(grid[na, nb], ops.jy, -math.pi / 2)
        vec = np.exp(1j * phi * nb) * vec
        out[na, nb] = evolve(vec, ops.jx, math.pi / 2)
    return out


def gathered_mz_two_mode(state, phi):
    """mz_two_mode's float operations in their plain form: each sector
    gathered from and scattered into the dense grid by fancy indexing,
    Jx's band as band + band.T, and the sector map
    (R^dag V) (e^(i phi n_b) R V^T psi_n) with the gauge R = e^(-i pi m/2)
    written out and R^dag taken into V's rows.  mz_two_mode must equal it
    bit for bit."""
    support = state.total_number_support()
    grid = state.amplitudes
    out = np.zeros_like(grid)
    out[0, 0] = grid[0, 0]
    for n in support[support > 0].tolist():
        na = np.arange(n + 1)
        nb = n - na
        _, coupling = _dicke_ladder(n)
        band = np.diag(0.5 * coupling, 1)
        _, v = np.linalg.eigh(band + band.T)
        r_dag = np.exp(1j * (math.pi / 2.0) * (na - n / 2.0))
        vec = r_dag.conj() * _real_matvec(v.T, grid[na, nb])
        vec = np.exp(1j * phi * nb) * vec
        out[na, nb] = (r_dag[:, None] * v) @ vec
    return out


def random_fock_state(cutoff, seed):
    """Random normalized grid over every |n_a, n_b> with n_a + n_b <= cutoff:
    every sector up to the cutoff occupied, the vacuum included."""
    rng = np.random.default_rng(seed)
    na, nb = np.indices((cutoff + 1, cutoff + 1))
    amp = (rng.normal(size=na.shape) + 1j * rng.normal(size=na.shape)) * (na + nb <= cutoff)
    return TwoModeFockState(cutoff, amp / np.linalg.norm(amp))


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
        np.testing.assert_allclose(ramsey_matrix(4, 1.2), pulse_phase_pulse(4, 1.2), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 400])
    @pytest.mark.parametrize(
        "phi", [0.0, math.pi, -math.pi, float(np.random.default_rng(5).uniform(-4.0, 4.0))]
    )
    def test_agrees_with_three_rotations(self, n, phi):
        for probe in (css(n, 0.0, 0.0), random_spin_state(n, n)):
            got = ramsey(probe, phi).amplitudes
            np.testing.assert_allclose(got, rotate_ramsey(probe, phi).amplitudes, rtol=0, atol=1e-13)
            if n <= 100:
                np.testing.assert_allclose(
                    got, pulse_phase_pulse(n, phi) @ probe.amplitudes, rtol=0, atol=1e-13
                )

    @pytest.mark.parametrize("n", [8, 100])
    def test_readout_rotation_agrees_with_three_rotations(self, n):
        probe = oat_evolve(css(n, math.pi / 2, 0.0), OatParams(chi=0.1, t=1.0))
        got = ramsey(probe, 0.7, readout_rotation=0.9).amplitudes
        np.testing.assert_allclose(
            got, rotate_ramsey(probe, 0.7, 0.9).amplitudes, rtol=0, atol=1e-13
        )
        expected = pulse_phase_pulse(n, 0.7) @ probe.amplitudes
        jvec = expectation_vector(CollectiveSpinState(n, expected))
        expected = evolve(expected, collective_ops(n).along(jvec / np.linalg.norm(jvec)), 0.9)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)

    def test_readout_rotation_preserves_mean_spin(self):
        probe = oat_evolve(css(8, math.pi / 2, 0.0), OatParams(chi=0.1, t=1.0))
        final = ramsey(probe, 0.7)
        rotated = ramsey(probe, 0.7, readout_rotation=0.9)
        np.testing.assert_allclose(
            expectation_vector(rotated), expectation_vector(final), atol=1e-10
        )

    @pytest.mark.parametrize(
        "make",
        [lambda: css(10, 0.0, 0.0), lambda: random_spin_state(7, 9), lambda: oat_probe(40)],
        ids=["css-10", "random-7", "oat-40"],
    )
    def test_one_probe_at_shuffled_phases_equals_fresh_probes_bit_for_bit(self, make):
        phis = np.random.default_rng(4).permutation(np.linspace(-4.0, 4.0, 12))
        probe = make()
        for phi in phis:
            kept = ramsey(probe, phi).amplitudes
            assert np.array_equal(kept, ramsey(make(), phi).amplitudes)
            assert np.array_equal(kept, plain_ramsey(probe, phi))

    def test_kept_half_is_read_only(self):
        probe = random_spin_state(6, 5)
        ramsey(probe, 0.2)
        (sector,) = vars(probe)["_kept_half"]  # one sector: the whole vector
        where, _, *arrays = sector
        assert where == slice(None) and len(arrays) == 3  # V, -m and V^T F psi
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_norm_drift_in_the_kept_half_raises(self):
        probe = random_spin_state(6, 3)
        ramsey(probe, 0.2)
        ((where, product, v, g, pulsed),) = vars(probe)["_kept_half"]
        drifted = ((where, product, v, g, pulsed * (1.0 + 1e-9)),)
        object.__setattr__(probe, "_kept_half", drifted)
        with pytest.raises(ValueError, match="normalized"):
            ramsey(probe, 0.2)

    @pytest.mark.parametrize("n", [10, 1000, 2001])
    def test_output_is_unit_norm_to_round_off(self, n):
        # the outer product is rescaled, so the norm does not drift with phi
        probe = css(n, 0.4, 0.3)
        for phi in (0.1, 1.3, 3.0):
            amp = ramsey(probe, phi).amplitudes
            assert abs(np.vdot(amp, amp).real - 1.0) <= 4 * np.finfo(float).eps

    def test_output_is_frozen_and_shares_the_probes_basis_tag(self):
        probe = css(5, 0.3, 0.2)
        out = ramsey(probe, 0.7)
        assert out.basis_tag is probe.basis_tag
        assert out.amplitudes.shape == (6,) and out.amplitudes.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            out.amplitudes[0] = 0
        assert "_kept_half" not in vars(out)

    def test_kept_half_outlives_the_cleared_band_cache(self, monkeypatch):
        probe = random_spin_state(9, 2)
        phis = (0.6, -2.1)
        before = [ramsey(probe, phi).amplitudes for phi in phis]
        _jy_band.cache_clear()
        solves = []
        real_solve = spinops._jx_eigenvectors

        def counting_solve(*args, **kwargs):
            solves.append(args)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(spinops, "_jx_eigenvectors", counting_solve)
        after = [ramsey(probe, phi).amplitudes for phi in phis]
        assert solves == []  # the probe's half holds its own V
        for a, b in zip(before, after, strict=True):
            assert np.array_equal(a, b)


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

    @pytest.mark.parametrize(
        "probe",
        [random_fock_state(c, c) for c in (1, 2, 5, 14)] + [ecs(a) for a in (0.5, 1.0, 2.0)],
        ids=["random-1", "random-2", "random-5", "random-14", "ecs-0.5", "ecs-1", "ecs-2"],
    )
    @pytest.mark.parametrize(
        "phi", [0.0, 0.8, math.pi, float(np.random.default_rng(12).uniform(-4.0, 4.0))]
    )
    def test_matches_dense_composition_on_every_sector(self, probe, phi):
        assert list(probe.total_number_support()) == list(range(probe.cutoff + 1))
        out = mz_two_mode(probe, phi).amplitudes
        assert np.abs(out - dense_mz_two_mode(probe, phi)).max() <= 1e-12

    @pytest.mark.parametrize(
        "probe",
        [twin_fock(n) for n in (1, 2, 5, 14)]
        + [twin_fock(3, cutoff=9)]
        + [random_fock_state(c, c) for c in (1, 2, 5, 14)]
        + [ecs(a) for a in (0.5, 1.0, 2.0)]
        + [TwoModeFockState(0, np.ones((1, 1), dtype=complex))],
        ids=["twin-1", "twin-2", "twin-5", "twin-14", "twin-3-cutoff-9", "random-1",
             "random-2", "random-5", "random-14", "ecs-0.5", "ecs-1", "ecs-2", "vacuum"],
    )
    @pytest.mark.parametrize("phi", [0.0, 0.8, math.pi, -2.3])
    def test_sector_slices_equal_the_gathered_form_bit_for_bit(self, probe, phi):
        assert np.array_equal(mz_two_mode(probe, phi).amplitudes, gathered_mz_two_mode(probe, phi))

    def test_over_full_sector_raises_before_any_eigh(self, monkeypatch):
        grid = np.zeros((4, 4), dtype=complex)
        grid[1, 0] = grid[3, 3] = 1.0 / math.sqrt(2)  # sectors 1 and 6 > cutoff 3
        state = TwoModeFockState(3, grid)
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="cutoff 3 cannot hold total number 6"):
            mz_two_mode(state, 0.1)
        assert calls == []

    def test_vacuum_takes_only_the_phase(self):
        grid = np.zeros((3, 3), dtype=complex)
        grid[0, 0] = grid[1, 0] = 1.0 / math.sqrt(2)
        out = mz_two_mode(TwoModeFockState(2, grid), 1.3).amplitudes
        assert out[0, 0] == pytest.approx(1.0 / math.sqrt(2), abs=1e-15)

    @pytest.mark.parametrize("phi", [0.0, 0.8, -2.3])
    def test_ecs_vacuum_passes_unchanged_as_a_one_by_one_sector(self, phi):
        probe = ecs(1.0)
        assert probe.total_number_support()[0] == 0 and probe.amplitudes[0, 0] != 0
        out = mz_two_mode(probe, phi).amplitudes
        assert out[0, 0] == probe.amplitudes[0, 0]
        assert np.abs(out - dense_mz_two_mode(probe, phi)).max() <= 1e-12

    def test_insufficient_cutoff_rejected(self):
        grid = np.zeros((4, 4), dtype=complex)
        grid[3, 3] = 1.0  # total number 6 > cutoff 3
        state = TwoModeFockState(3, grid)
        with pytest.raises(ValueError, match="cutoff"):
            mz_two_mode(state, 0.1)

    @pytest.mark.parametrize(
        "make,sectors",
        [(lambda: twin_fock(5), 1), (lambda: random_fock_state(6, 3), 7), (lambda: ecs(1.0), 16)],
        ids=["twin-5", "random-6", "ecs-1"],
    )
    def test_eigh_runs_once_per_sector_per_probe(self, monkeypatch, make, sectors):
        calls = []
        real_eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(args[0].shape)
            return real_eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        probe = make()
        for phi in np.linspace(0.0, math.pi, 10):
            mz_two_mode(probe, phi)
        assert len(calls) == sectors
        mz_two_mode(make(), 0.3)  # an equal but fresh probe pays again
        assert len(calls) == 2 * sectors

    @pytest.mark.parametrize(
        "make",
        [lambda: twin_fock(4), lambda: random_fock_state(5, 7), lambda: ecs(2.0)],
        ids=["twin-4", "random-5", "ecs-2"],
    )
    def test_one_probe_at_shuffled_phases_equals_fresh_probes_bit_for_bit(self, make):
        phis = np.random.default_rng(3).permutation(np.linspace(-4.0, 4.0, 12))
        probe = make()
        for phi in phis:
            kept = mz_two_mode(probe, phi).amplitudes
            assert np.array_equal(kept, mz_two_mode(make(), phi).amplitudes)
            assert np.array_equal(kept, gathered_mz_two_mode(probe, phi))

    def test_kept_half_is_read_only(self):
        probe = random_fock_state(4, 11)
        mz_two_mode(probe, 0.2)
        kept = vars(probe)["_kept_half"]
        assert len(kept) == 5  # sectors 0..4, the vacuum among them
        for _, _, *arrays in kept:
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0

    def test_failed_cutoff_check_keeps_nothing_and_raises_again(self):
        grid = np.zeros((4, 4), dtype=complex)
        grid[1, 0] = grid[3, 3] = 1.0 / math.sqrt(2)  # sector 6 > cutoff 3
        state = TwoModeFockState(3, grid)
        for _ in range(2):
            with pytest.raises(ValueError, match="cutoff 3 cannot hold total number 6"):
                mz_two_mode(state, 0.1)
            assert "_kept_half" not in vars(state)

    def test_two_mode_experiments_leave_scipy_linalg_unloaded(self):
        # the kept splitters come from numpy's eigh: a two-mode run pays no
        # scipy.linalg import in its first pass
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import contextlib, io, sys\n"
            "from qmetro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    codes = [main(['run', 'twinfock-parity', '--n', '2,5', '--phi', '0.1:1.5:3']),\n"
            "             main(['run', 'ecs-qfi', '--alpha', '0.5,2'])]\n"
            "print(codes, 'scipy.linalg' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[0, 0] False"


def random_full_grid(cutoff, seed):
    """Random normalized grid over every |n_a, n_b>: every sector from 0
    to 2 cutoff occupied, those above the cutoff cut short by it."""
    rng = np.random.default_rng(seed)
    shape = (cutoff + 1, cutoff + 1)
    amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return TwoModeFockState(cutoff, amp / np.linalg.norm(amp))


def fock_readouts(cutoff, seed):
    """Diagonal readouts of the Fock grid: both parities, n_b, the flat
    position itself, and random values drawn from five."""
    tag = BasisTag("fock", cutoff)
    values = np.random.default_rng(seed).normal(size=5)
    return [
        parity_sector_povm("a", cutoff),
        parity_sector_povm("b", cutoff),
        Readout(np.tile(np.arange(cutoff + 1), cutoff + 1), tag),
        projective_povm(tag),
        Readout(values[np.random.default_rng(seed + 1).integers(0, 5, size=tag.dim)], tag),
    ]


def dense_readout(state, readout):
    """Probabilities, mean and variance of a readout from the whole dense
    grid: the oracle of the readouts over the occupied sectors."""
    vec = state.vector
    probs = np.bincount(readout.outcome, weights=np.abs(vec) ** 2, minlength=len(readout))
    applied = readout.value * vec
    mean = float(np.vdot(vec, applied).real)
    centered = applied - mean * vec
    return probs, mean, float(np.vdot(centered, centered).real)


SECTOR_PROBES = {
    **{f"twin-{n}": (lambda n=n: twin_fock(n)) for n in (0, 1, 5, 14)},
    **{f"random-{c}": (lambda c=c: random_fock_state(c, 40 + c)) for c in (2, 6)},
    **{f"full-{c}": (lambda c=c: random_full_grid(c, 50 + c)) for c in (1, 3, 6)},
    "gapped-5": lambda: sector_sum(5, {0: 0.3, 2: 0.5, 5: -0.6}),
    "gapped-above-5": lambda: sector_sum(5, {0: 0.3, 2: 0.5, 7: 0.4j, 9: -0.2}),
    **{f"ecs-{a}": (lambda a=a: ecs(a)) for a in (0.5, 1.0, 2.0)},
}
# the probes whose every sector fits under the cutoff, which mz_two_mode takes
MZ_PROBES = {k: m for k, m in SECTOR_PROBES.items() if not k.startswith(("full", "gapped-above"))}


def sector_sum(cutoff, weights):
    """A grid occupying only the sectors n in weights, each with random
    amplitudes, normalized; sectors above the cutoff are cut short by it."""
    rng = np.random.default_rng(cutoff)
    na, nb = np.indices((cutoff + 1, cutoff + 1))
    amp = np.zeros(na.shape, dtype=complex)
    for n, w in weights.items():
        mask = na + nb == n
        amp[mask] = w * (rng.normal(size=mask.sum()) + 1j * rng.normal(size=mask.sum()))
    return TwoModeFockState(cutoff, amp / np.linalg.norm(amp))


class TestSectorStorage:
    @pytest.mark.parametrize("make", SECTOR_PROBES.values(), ids=SECTOR_PROBES.keys())
    def test_readouts_equal_the_dense_grid(self, make):
        probe = make()
        states = [probe]
        if make in MZ_PROBES.values():
            states += [mz_two_mode(probe, phi) for phi in (0.3, -2.1, math.pi)]
            states.append(mz_two_mode(states[1], 1.1))
        else:
            with pytest.raises(ValueError, match="cannot hold"):
                mz_two_mode(probe, 0.3)
        for state in states:
            for readout in fock_readouts(state.cutoff, state.cutoff):
                probs, mean, variance = dense_readout(state, readout)
                got_mean, got_variance = readout_moments(state, readout)
                np.testing.assert_allclose(povm_probabilities(state, readout), probs, rtol=0, atol=1e-14)
                assert abs(got_mean - mean) <= 1e-14 * max(1.0, abs(mean))
                assert abs(got_variance - variance) <= 1e-14 * max(1.0, variance)

    @pytest.mark.parametrize("make", SECTOR_PROBES.values(), ids=SECTOR_PROBES.keys())
    def test_layout_covers_each_occupied_sector_once(self, make):
        state = make()
        c = state.cutoff
        support, index, sectors = state._layout
        assert np.array_equal(np.sort(index), np.flatnonzero(np.isin(np.add.outer(
            np.arange(c + 1), np.arange(c + 1)), support)))
        for n, sector in zip(support.tolist(), sectors):
            na, nb = np.divmod(index[sector], c + 1)
            assert np.all(na + nb == n)
            assert np.array_equal(na, np.arange(max(0, n - c), min(n, c) + 1))
        assert np.array_equal(state.vector[index], state._occupied[1])

    @pytest.mark.parametrize("make", MZ_PROBES.values(), ids=MZ_PROBES.keys())
    def test_two_calls_match_the_dense_composition(self, make):
        probe = make()
        once = TwoModeFockState(probe.cutoff, dense_mz_two_mode(probe, 0.7), probe.truncation_deficit)
        twice = mz_two_mode(mz_two_mode(probe, 0.7), -1.9).amplitudes
        assert np.abs(twice - dense_mz_two_mode(once, -1.9)).max() <= 1e-12

    def test_outputs_share_the_probes_index(self):
        probe = twin_fock(5)
        out = mz_two_mode(probe, 0.4)
        assert out._occupied[0] is probe._occupied[0]
        assert out.total_number_support() is probe.total_number_support()
        assert twin_fock(5)._occupied[0] is probe._occupied[0]  # one index per (cutoff, support)
        assert not probe._occupied[0].flags.writeable

    def test_derived_grid_is_read_only_and_built_once(self):
        out = mz_two_mode(random_fock_state(4, 8), 0.4)
        assert "amplitudes" not in vars(out)  # not built until read
        grid = out.amplitudes
        assert out.amplitudes is grid
        for a in (grid, out.vector, out._occupied[1]):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_norm_drift_in_the_kept_matrix_raises(self):
        probe = twin_fock(5)
        mz_two_mode(probe, 0.1)
        drifted = tuple(
            (sector, product, r_dag_v * (1.0 + 1e-9), n_b, split)
            for sector, product, r_dag_v, n_b, split in vars(probe)["_kept_half"]
        )
        object.__setattr__(probe, "_kept_half", drifted)
        with pytest.raises(ValueError, match="normalized"):
            mz_two_mode(probe, 0.1)

    def test_twinfock_parity_sweep_builds_no_grid(self, monkeypatch):
        def no_grid(state):
            raise AssertionError("dense grid built inside phase_sweep")

        real_sweep = cli.phase_sweep
        sweeps = []

        def guarded_sweep(*args, **kwargs):
            with monkeypatch.context() as m:
                m.setattr(TwoModeFockState, "amplitudes", property(no_grid))
                with pytest.raises(AssertionError, match="dense grid"):
                    twin_fock(1).vector  # the guard holds
                sweeps.append(real_sweep(*args, **kwargs))
                return sweeps[-1]

        monkeypatch.setattr(cli, "phase_sweep", guarded_sweep)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["run", "twinfock-parity", "--n", "2,5", "--phi", "0.1:1.5:3"]) == 0
        assert [len(reports) for reports in sweeps] == [3, 3]
        assert len(out.getvalue().splitlines()) == 7


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

    @pytest.mark.parametrize("n", [5, 40])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2])
    def test_parity_at_the_fringe_extrema_is_exactly_plus_or_minus_one(self, n, phi):
        # the mean of the +-1 values summed to 1.0000000000000011 at N = 5,
        # phi = 0 and -1.0000000000000027 at N = 5, phi = pi/2
        got = parity_expectation(mz_two_mode(twin_fock(n), phi), "b")
        assert got == (1.0 if phi == 0.0 else (-1.0) ** n)  # P_N(1), P_N(-1)

    def test_parity_beyond_round_off_raises(self):
        state = twin_fock(2)
        doubled = Readout(2.0 * parity_sector_povm("b", state.cutoff).value, state.basis_tag)
        with pytest.raises(ValueError, match="outside"):
            _parity_mean(state, doubled)

    def test_parity_readout_outcomes(self):
        readout = parity_sector_povm("b", 3)
        np.testing.assert_array_equal(readout.outcome_values, [-1.0, 1.0])

    def test_parity_expectation_matches_operator(self):
        state = mz_two_mode(twin_fock(2), 0.9)
        dense = Observable(np.diag(parity_sector_povm("b", state.cutoff).value), state.basis_tag)
        mean, _ = moments(state, dense)
        assert parity_expectation(state, "b") == pytest.approx(mean, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 14])
    @pytest.mark.parametrize("mode", ["a", "b"])
    def test_parity_expectation_matches_grid_sum(self, n, mode):
        probe = twin_fock(n)
        for phi in (0.0, 0.013, 0.4, 1.1, 2.9):
            state = mz_two_mode(probe, phi)
            assert parity_expectation(state, mode) == pytest.approx(
                grid_parity(state, mode), abs=1e-15
            )

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
    def test_parity_readout_values(self):
        values = parity_sector_povm("b", 2).value.reshape(3, 3)
        np.testing.assert_array_equal(values, np.tile([1.0, -1.0, 1.0], (3, 1)))
        values = parity_sector_povm("a", 2).value.reshape(3, 3)
        np.testing.assert_array_equal(values, np.tile([1.0, -1.0, 1.0], (3, 1)).T)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            parity_sector_povm("c", 2)

    @pytest.mark.parametrize("cutoff", [0, 1, 2, 7, 30])
    def test_row_readouts_equal_the_grid_readouts(self, cutoff):
        # the flat position n_a (cutoff + 1) + n_b split into its modes
        n_a, n_b = np.divmod(np.arange((cutoff + 1) ** 2), cutoff + 1)
        tag = BasisTag("fock", cutoff)
        pairs = [
            (parity_sector_povm("a", cutoff), Readout((-1.0) ** n_a, tag)),
            (parity_sector_povm("b", cutoff), Readout((-1.0) ** n_b, tag)),
            # ecs-qfi's n_b readout
            (interferom._mode_readout("b", np.arange(cutoff + 1.0), cutoff), Readout(n_b, tag)),
        ]
        for readout, grid in pairs:
            assert readout.basis_tag == tag
            for name in ("value", "outcome", "outcome_values"):
                row, dense = getattr(readout, name), getattr(grid, name)
                assert not row.flags.writeable
                assert (row.dtype, row.shape) == (dense.dtype, dense.shape)
                assert row.tobytes() == dense.tobytes()

    def test_parity_readout_sorts_no_grid(self):
        tracemalloc.start()
        try:
            parity_sector_povm("b", 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # value and outcome are 128 MB each; the grid path peaked at 912 MB
        assert peak < 300e6


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

    def test_angle_matches_half_period_search_on_oat_ramsey(self):
        # a twisted probe's ellipse is symmetric under a half turn about
        # its mean spin, so a golden-section search over [0, pi) finds the
        # minimum too, up to its own resolution
        probe = oat_probe(12, chi=0.08)
        for phi in (math.pi / 2, math.pi / 2 + 1e-5, math.pi / 2 - 5e-6):
            final = ramsey(probe, phi)
            searched = grid_then_golden(
                lambda a: rotated_variance(final, a), 0.0, math.pi, n_grid=64
            )
            offset = (optimal_readout_rotation(final) - searched) % math.pi
            assert min(offset, math.pi - offset) <= 1e-8

    def test_minimum_in_second_half_period_found(self):
        # a tilted mean spin gives Var Jz(theta) period 2 pi: this state's
        # minimum is 1.4 below the best angle in [0, pi)
        state = random_spin_state(11, 48)
        angles = np.linspace(0.0, 2.0 * math.pi, 4001)
        variances = rotated_variances(state, angles)
        found = rotated_variance(state, optimal_readout_rotation(state))
        assert variances[angles < math.pi].min() > found + 0.5
        assert_grid_minimum_reached(state)

    def test_random_states_reach_grid_minimum(self):
        for seed in range(200):
            assert_grid_minimum_reached(random_spin_state(2 + seed % 39, seed))

    @pytest.mark.parametrize("n", [10, 100, 1000])
    @pytest.mark.parametrize("phi", [0.3, 0.9, math.pi / 2])
    def test_oat_ramsey_reaches_grid_minimum(self, n, phi):
        assert_grid_minimum_reached(ramsey(oat_probe(n), phi))

    @staticmethod
    def assert_series_equals_rotated_variance(state, rel):
        a0, a1, b1, a2, b2 = _readout_variance_series(state)
        angles = np.random.default_rng(state.n_particles).uniform(0.0, 2.0 * math.pi, 4)
        series = a0 + a1 * np.cos(angles) + b1 * np.sin(angles)
        series += a2 * np.cos(2 * angles) + b2 * np.sin(2 * angles)
        direct = [rotated_variance(state, a) for a in angles]
        np.testing.assert_allclose(series, direct, rtol=rel, atol=0.0)
        np.testing.assert_allclose(rotated_variances(state, angles), direct, rtol=rel, atol=0.0)

    def test_series_equals_rotated_variance_to_1e_12_up_to_n_40(self):
        for seed in range(20):
            state = random_spin_state(2 + 2 * seed, seed)
            self.assert_series_equals_rotated_variance(state, 1e-12)
        for n in (2, 40):
            for phi in (0.3, math.pi / 2):
                self.assert_series_equals_rotated_variance(ramsey(oat_probe(n), phi), 1e-12)

    @pytest.mark.parametrize("n", [400, 1000, 2000])
    def test_series_equals_rotated_variance_to_1e_9_up_to_n_2000(self, n):
        for phi in (0.3, 0.9):
            self.assert_series_equals_rotated_variance(ramsey(oat_probe(n), phi), 1e-9)

    @pytest.mark.parametrize("n, index", [(1, 0), (5, 5), (6, 1), (30, 30)])
    def test_mean_spin_along_z_gives_zero(self, n, index):
        # a Dicke state |J, m != 0>: rotating about z leaves Var Jz alone
        amp = np.zeros(n + 1)
        amp[index] = 1.0
        state = CollectiveSpinState(n, amp)
        assert not np.any(_readout_variance_series(state)[1:])
        assert optimal_readout_rotation(state) == 0.0

    def test_degenerate_mean_spin_rejected(self):
        from qmetro import ghz

        with pytest.raises(ValueError, match="mean spin"):
            optimal_readout_rotation(ghz(4))

    def test_round_off_mean_spin_rejected(self):
        # |J,0> + 1e-12 |J,1> at N = 2000: |<J>| = 1.0e-9, below the zero
        # rule 1e-10 * N/2 that squeezing_parameters applies too
        from qmetro import squeezing_parameters

        n = 2000
        amp = np.zeros(n + 1, dtype=complex)
        amp[n // 2] = 1.0
        amp[n // 2 + 1] = 1e-12
        state = CollectiveSpinState(n, amp)
        assert np.linalg.norm(expectation_vector(state)) == pytest.approx(1.0e-9, rel=1e-3)
        assert squeezing_parameters(state).mean_spin_degenerate
        with pytest.raises(ValueError, match="mean spin"):
            optimal_readout_rotation(state)


SWEPT_N = st.integers(1, 40)
# CSS at random (theta, phi0), GHZ at a random relative phase, and a
# one-axis-twisted equatorial CSS
SWEPT_PROBES = st.one_of(
    st.builds(css, SWEPT_N, st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi)),
    st.builds(ghz, SWEPT_N, st.floats(0.0, 2.0 * math.pi)),
    st.builds(
        lambda n, chi: oat_evolve(css(n, math.pi / 2, 0.0), OatParams(chi=chi, t=1.0)),
        SWEPT_N,
        st.floats(0.0, 0.5),
    ),
)
SWEPT_PHASES = st.lists(st.floats(0.05, math.pi - 0.05), min_size=3, max_size=3)


class TestPhaseSweep:
    @settings(max_examples=60, deadline=None)
    @given(probe=SWEPT_PROBES, grid=SWEPT_PHASES)
    def test_ramsey_fisher_is_bounded_by_the_qfi_of_the_first_pulse(self, probe, grid):
        # F <= F_Q, and F_Q = 4 Var(Jz) on the state the phase acts on, the
        # probe after the first pulse.  Both bounds are read relative to
        # max(1, F_Q): when that state is a Jz eigenstate (a CSS along +-x),
        # F_Q = 0 and both figures are round-off near 1e-22
        readout = jz_readout(probe)
        variance = readout_moments(rotate(probe, (0.0, 1.0, 0.0), math.pi / 2), readout)[1]
        for r in phase_sweep(lambda phi: ramsey(probe, phi), readout, grid):
            scale = max(1.0, r.quantum_fisher)
            assert r.classical_fisher - r.quantum_fisher <= 1e-9 * scale
            assert abs(r.quantum_fisher - 4.0 * variance) <= 1e-8 * scale

    @pytest.mark.parametrize("n", [2, 3, 10, 101, 400])
    def test_ghz_parity_reaches_the_heisenberg_limit(self, n):
        # the first pulse turns the probe back into GHZ, whose parity
        # fringe cos(N phi) gives F = F_Q = N^2 and dtheta_ep = 1/N
        # (Bollinger, Itano, Wineland & Heinzen, PRA 54, R4649, 1996)
        probe = rotate(ghz(n), (0.0, 1.0, 0.0), -math.pi / 2)
        parity = Readout((-1.0) ** np.arange(n + 1), probe.basis_tag)
        grid = np.array([0.25, 0.5, 0.75]) * math.pi / n
        for r in phase_sweep(lambda phi: ramsey(probe, phi), parity, grid):
            assert abs(r.classical_fisher / n**2 - 1.0) <= 1e-9
            assert abs(r.quantum_fisher / n**2 - 1.0) <= 1e-9
            assert abs(n * r.error_prop - 1.0) <= 1e-9

    def test_css_probe_reaches_sql_at_best_point(self):
        n = 100
        initial = css(n, 0.0, 0.0)
        grid = np.linspace(0.1 * math.pi, 0.9 * math.pi, 9)
        reports = phase_sweep(
            lambda phi: ramsey(initial, phi),
            jz_readout(initial),
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
            jz_readout(initial),
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
                jz_readout(initial),
                [],
            )

    def test_fisher_saturates_qfi_for_css_ramsey(self):
        n = 8
        initial = css(n, 0.0, 0.0)
        reports = phase_sweep(
            lambda phi: ramsey(initial, phi),
            jz_readout(initial),
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

        reports = phase_sweep(family, jz_readout(probe), [0.4, 1.1])
        for r in reports:
            assert r.qcrb == pytest.approx(1.0 / n, abs=1e-8)
            # the readout is phase-insensitive: only round-off dust remains
            assert r.classical_fisher == pytest.approx(0.0, abs=1e-10)
            assert r.crb > 1e8
            assert r.error_prop > 1e8

    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_jz_readout_matches_dense_oracle_bit_for_bit(self, n):
        # the sweep as it ran on a dense Jz Observable: the same figures,
        # bit for bit, from the readout's values
        initial = css(n, 0.0, 0.0)
        jz = jz_obs(n)

        def family(phi):
            return ramsey(initial, phi)

        def signal(phi):
            return moments(family(phi), jz)[0]

        def noise(phi):
            return math.sqrt(moments(family(phi), jz)[1])

        grid = [0.3, 1.2, math.pi / 2, 2.8]
        reports = phase_sweep(family, jz_readout(initial), grid, repetitions=3)
        probabilities = povm_family(family, projective_povm(initial.basis_tag))
        for phi, r in zip(grid, reports):
            fisher = classical_fisher(probabilities, phi)
            prop = error_propagation(signal, noise, phi)
            assert r.classical_fisher == fisher
            assert r.quantum_fisher == qfi_from_family(family, phi)
            assert (r.error_prop, r.stationary) == (prop.value, prop.stationary)


def css_ramsey_family(n):
    probe = css(n, 0.0, 0.0)
    return (lambda phi: ramsey(probe, phi)), jz_readout(probe)


def mz_single_family():
    # the single-particle pipeline as the N = 1 spin: path b is m = -1/2
    return (
        lambda phi: CollectiveSpinState(1, mz_single_particle_state(phi)[::-1]),
        Readout(np.array([-1.0, 1.0]), BasisTag("spin", 1)),
    )


def ghz_evolve_family(n):
    probe = ghz(n)
    jz = jz_obs(n)
    return (
        lambda phi: CollectiveSpinState(n, evolve(probe.amplitudes, jz.matrix, phi)),
        jz_readout(probe),
    )


def two_mode_family(probe):
    return (lambda phi: mz_two_mode(probe, phi)), parity_sector_povm("b", probe.cutoff)


SWEPT_FAMILIES = {
    "css-1": lambda: css_ramsey_family(1),
    "css-2": lambda: css_ramsey_family(2),
    "css-10": lambda: css_ramsey_family(10),
    "css-100": lambda: css_ramsey_family(100),
    "mz-single": mz_single_family,
    "ghz-evolve-6": lambda: ghz_evolve_family(6),
    "twin-fock-1": lambda: two_mode_family(twin_fock(1)),
    "twin-fock-5": lambda: two_mode_family(twin_fock(5)),
    "twin-fock-14": lambda: two_mode_family(twin_fock(14)),
    "mz-ecs-1": lambda: two_mode_family(ecs(1.0)),
}


def one_point_oracle(family, readout, phi):
    """(F, F_Q, error propagation) at one phase point, state by state: every
    stencil state read on its own by `povm_probabilities`, `readout_moments`
    and its occupied amplitudes, and each central difference with one
    Richardson refinement written out."""

    def derivative(f, h):
        half = (f(phi + 0.5 * h) - f(phi - 0.5 * h)) / (2.0 * (0.5 * h))
        full = (f(phi + h) - f(phi - h)) / (2.0 * h)
        return (4.0 * half - full) / 3.0

    def probabilities(theta):
        return povm_probabilities(family(theta), readout).clip(0.0)

    p, dp = probabilities(phi), derivative(probabilities, STEP)
    keep = p >= 1e-12
    fisher = float(np.sum(dp[keep] ** 2 / p[keep]))

    def amplitudes(theta):
        return _occupied(family(theta))[1]

    psi, dpsi = amplitudes(phi), derivative(amplitudes, STEP)
    centered = dpsi - np.vdot(psi, dpsi) * psi
    qfi = 4.0 * float(np.vdot(centered, centered).real)

    step = STEP
    samples = [readout_moments(family(phi + s), readout)[0] for s in (step, -step, 0.5 * step, -0.5 * step)]
    d_full = (samples[0] - samples[1]) / (2.0 * step)
    d_half = (samples[2] - samples[3]) / step
    slope = (4.0 * d_half - d_full) / 3.0
    scale = max(1.0, *(abs(x) for x in samples))
    sigma = math.sqrt(readout_moments(family(phi), readout)[1])
    if abs(slope) < 1e-12 * scale or abs(slope) <= 4.0 * abs(d_half - d_full):
        return fisher, qfi, (math.inf, True)
    return fisher, qfi, (sigma / abs(slope), False)


def stencil_thetas(phi):
    """The 15 thetas one phase point reads the family at: F's and F_Q's five
    central-difference points, the signal's four and the noise's one, all
    with the one step."""
    five = [phi, phi + 0.5 * STEP, phi - 0.5 * STEP, phi + STEP, phi - STEP]
    return five + five + five


def two_sector_family(theta):
    """cos(theta) |2,0> + sin(theta) |0,1>: at theta = 0 exactly the state
    occupies sector 2 only, elsewhere sectors 1 and 2."""
    grid = np.zeros((3, 3), dtype=complex)
    grid[2, 0], grid[0, 1] = math.cos(theta), math.sin(theta)
    return TwoModeFockState(2, grid)


class TestSweepBlocks:
    """`phase_sweep` reads each estimator's stencils over a block of phase
    points at once; every figure stays the scalar functions' bit for bit."""

    GRID = np.array([0.05, 0.4, math.pi / 2, 2.2, 3.0])

    @pytest.mark.parametrize("name", list(SWEPT_FAMILIES))
    def test_multi_point_sweep_equals_the_scalar_functions_bit_for_bit(self, name):
        family, readout = SWEPT_FAMILIES[name]()
        reports = phase_sweep(family, readout, self.GRID, repetitions=3)
        probabilities = povm_family(family, readout)

        def signal(theta):
            return readout_moments(family(theta), readout)[0]

        def noise(theta):
            return math.sqrt(readout_moments(family(theta), readout)[1])

        assert len(reports) == self.GRID.size
        for phi, r in zip(self.GRID, reports):
            fisher = classical_fisher(probabilities, phi)
            qfi = qfi_from_family(family, phi)
            prop = error_propagation(signal, noise, phi)
            assert (r.theta, r.classical_fisher, r.quantum_fisher) == (phi, fisher, qfi)
            assert (r.error_prop, r.stationary) == (prop.value, prop.stationary)
            assert (r.crb, r.qcrb) == (cramer_rao(fisher, 3), cramer_rao(qfi, 3))
            assert one_point_oracle(family, readout, phi) == (fisher, qfi, tuple(prop))

    def test_each_point_costs_fifteen_family_calls_at_the_scalar_thetas(self):
        ramsey_family, readout = css_ramsey_family(6)
        calls = []

        def family(phi):
            calls.append(float(phi))
            return ramsey_family(phi)

        grid = np.linspace(0.2, 2.9, 4)
        phase_sweep(family, readout, grid)
        swept = sorted(calls)
        calls.clear()
        for phi in grid:
            classical_fisher(povm_family(family, readout), phi)
            qfi_from_family(family, phi)
            error_propagation(
                lambda t: readout_moments(family(t), readout)[0],
                lambda t: math.sqrt(readout_moments(family(t), readout)[1]),
                phi,
            )
        assert len(swept) == 15 * grid.size
        assert swept == sorted(calls)
        assert swept == sorted(t for phi in grid for t in stencil_thetas(phi))

    @pytest.mark.parametrize("name", ["css-10", "twin-fock-5"])
    @pytest.mark.parametrize("points, sizes", [(1, [1] * 7), (3, [3, 3, 1])])
    def test_blocks_of_any_size_give_the_reports_of_one_block(self, monkeypatch, name, points, sizes):
        family, readout = SWEPT_FAMILIES[name]()
        dim = readout.basis_tag.dim
        grid = np.linspace(0.05, 1.5, 7)
        assert len(estimate._sweep_blocks(grid, dim)) == 1
        whole = phase_sweep(family, readout, grid)
        charge = max(dim, estimate.STATE_CHARGE)
        monkeypatch.setattr(estimate, "SWEEP_BLOCK", points * estimate.SWEEP_STATES * charge)
        assert [block.size for block in estimate._sweep_blocks(grid, dim)] == sizes
        assert phase_sweep(family, readout, grid) == whole

    def test_a_block_holds_at_least_one_point(self, monkeypatch):
        monkeypatch.setattr(estimate, "SWEEP_BLOCK", 1)
        blocks = estimate._sweep_blocks(np.arange(3.0), 1001)
        assert [block.tolist() for block in blocks] == [[0.0], [1.0], [2.0]]

    def test_large_spin_blocks_hold_at_most_sweep_block_amplitudes(self):
        grid = np.linspace(0.05, 3.0, 100)
        blocks = estimate._sweep_blocks(grid, 1001)
        assert len(blocks) > 1
        assert np.array_equal(np.concatenate(blocks), grid)
        assert all(b.size * estimate.SWEEP_STATES * 1001 <= estimate.SWEEP_BLOCK for b in blocks)

    def test_support_that_moves_with_theta_is_read_state_by_state(self, monkeypatch):
        readout = parity_sector_povm("b", 2)
        family = povm_family(two_sector_family, readout)
        thetas = np.array([0.0, 0.3, 0.7])
        expected = np.array([povm_probabilities(two_sector_family(t), readout) for t in thetas])
        calls = []
        real = estimate.povm_probabilities
        monkeypatch.setattr(estimate, "povm_probabilities", lambda s, r: calls.append(s) or real(s, r))
        assert np.array_equal(family.table_at(thetas), expected)
        assert len(calls) == 3
        calls.clear()
        assert np.array_equal(family.table_at(thetas[1:]), expected[1:])
        assert calls == []  # one shared index: one bincount

    @pytest.mark.parametrize("offset", [0.5 * STEP, STEP], ids=["half-step", "full-step"])
    def test_a_state_off_norm_at_one_stencil_theta_is_named(self, offset):
        probe = css(4, 0.0, 0.0)
        bad = 0.9 + offset

        def family(phi):
            state = ramsey(probe, phi)
            if phi == bad:
                return SimpleNamespace(vector=state.amplitudes * (1.0 + 1e-6), basis_tag=state.basis_tag)
            return state

        # F and F_Q read the same stencil, and F's probability table reads it first
        with pytest.raises(InvalidDistributionError, match=re.escape(f"theta={bad}")):
            phase_sweep(family, jz_readout(probe), [0.3, 0.9, 1.5])
        with pytest.raises(InvalidFamilyError, match=re.escape(f"theta={bad}")):
            qfi_from_family(family, 0.9)


KEPT_PROBES = {
    "ramsey-css": (lambda: css(10, 0.3, 0.2), ramsey),
    "ramsey-random": (lambda: random_spin_state(7, 9), ramsey),
    "mz-twin-fock": (lambda: twin_fock(4), mz_two_mode),
    "mz-random": (lambda: random_fock_state(5, 7), mz_two_mode),
}


def output_bytes(state):
    return _occupied(state)[1].tobytes()


class TestKeptOutputs:
    """`ramsey` and `mz_two_mode` keep each output with the probe, keyed by
    the exact value of a float phi, so a phase the probe has seen costs
    no propagation."""

    @pytest.mark.parametrize("name", list(KEPT_PROBES))
    @pytest.mark.parametrize("phi", [0.7, -2.3, 1e-300, 0.0, -0.0])
    @pytest.mark.parametrize("kind, other", [(float, np.float64), (np.float64, float)])
    def test_a_repeated_phase_returns_the_kept_state(self, name, phi, kind, other):
        make, sequence = KEPT_PROBES[name]
        probe = make()
        first = sequence(probe, kind(phi))
        assert sequence(probe, kind(phi)) is first
        assert sequence(probe, other(phi)) is first  # keyed by the value, not the type
        for given in (kind, other):
            assert output_bytes(first) == output_bytes(sequence(make(), given(phi)))

    @pytest.mark.parametrize("name", list(KEPT_PROBES))
    def test_signed_zeros_are_kept_apart(self, name):
        make, sequence = KEPT_PROBES[name]
        probe = make()
        plus, minus = sequence(probe, 0.0), sequence(probe, -0.0)
        assert plus is not minus
        assert sequence(probe, np.float64(-0.0)) is minus
        assert output_bytes(plus) == output_bytes(sequence(make(), 0.0))
        assert output_bytes(minus) == output_bytes(sequence(make(), -0.0))

    @pytest.mark.parametrize("phi", [np.array(0.4), 0.4 + 0j, np.complex128(0.4)])
    def test_a_phase_that_is_not_a_real_scalar_is_not_kept(self, phi):
        probe = css(6, 0.2, 0.1)
        first = ramsey(probe, phi)
        assert ramsey(probe, phi) is not first
        assert "_outputs" not in vars(probe)
        assert np.array_equal(first.amplitudes, ramsey(probe, 0.4).amplitudes)

    def test_a_failed_call_keeps_nothing(self):
        probe = twin_fock(3)
        kept = mz_two_mode(probe, 0.5)
        for _ in range(2):
            with pytest.raises(ValueError, match="normalized"):
                mz_two_mode(probe, math.nan)
        assert list(vars(probe)["_outputs"][1].values()) == [kept]

    def test_a_rebuilt_kept_half_drops_the_outputs(self):
        probe = random_spin_state(6, 3)
        first = ramsey(probe, 0.2)
        object.__setattr__(probe, "_kept_half", interferom._first_pulse(probe))
        again = ramsey(probe, 0.2)
        assert again is not first and output_bytes(again) == output_bytes(first)
        assert ramsey(probe, 0.2) is again

    def test_a_readout_rotation_turns_the_kept_output(self):
        probe = oat_probe(20)
        rotated = ramsey(probe, 0.9, readout_rotation=0.3)
        assert ramsey(probe, 0.9, readout_rotation=0.3) is not rotated
        assert output_bytes(rotated) == output_bytes(ramsey(oat_probe(20), 0.9, readout_rotation=0.3))
        assert ramsey(probe, 0.9) is ramsey(probe, 0.9)

    @pytest.mark.parametrize("name", ["css-10", "twin-fock-5"])
    def test_a_sweep_point_propagates_its_five_distinct_phases_once(self, monkeypatch, name):
        family, readout = SWEPT_FAMILIES[name]()
        phases = []
        real = interferom._interfere
        monkeypatch.setattr(
            interferom, "_interfere", lambda state, phi, half: phases.append(phi) or real(state, phi, half)
        )
        grid = np.linspace(0.2, 2.9, 4)
        reports = phase_sweep(family, readout, grid)
        assert len(phases) == 5 * grid.size
        assert sorted(phases) == sorted({t for phi in grid for t in stencil_thetas(phi)})
        fresh_family, _ = SWEPT_FAMILIES[name]()
        monkeypatch.setattr(interferom, "_interfere", real)
        assert reports == phase_sweep(fresh_family, readout, grid)

    def test_the_cli_parity_column_reads_a_kept_state(self, monkeypatch):
        # 15 family calls per point and the parity's 16th, 5 propagations
        calls, phases = [], []
        real_mz, real_interfere = cli.mz_two_mode, interferom._interfere
        monkeypatch.setattr(cli, "mz_two_mode", lambda s, phi: calls.append(phi) or real_mz(s, phi))
        monkeypatch.setattr(
            interferom, "_interfere", lambda s, phi, half: phases.append(phi) or real_interfere(s, phi, half)
        )
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", "twinfock-parity", "--n", "5,10,14", "--phi", "0.01:pi/2:10"]) == 0
        assert (len(calls), len(phases)) == (16 * 30, 5 * 30)

    def test_a_long_large_sweep_keeps_at_most_sweep_block_amplitudes(self, monkeypatch):
        probe = css(1000, 0.0, 0.0)
        phases = []
        real = interferom._interfere
        monkeypatch.setattr(
            interferom, "_interfere", lambda state, phi, half: phases.append(phi) or real(state, phi, half)
        )
        grid = np.linspace(0.05, 3.0, 300)
        assert len(estimate._sweep_blocks(grid, 1001)) > 1
        phase_sweep(lambda phi: ramsey(probe, phi), jz_readout(probe), grid)
        kept = vars(probe)["_outputs"][1].values()
        assert 0 < sum(_occupied(state)[1].size for state in kept) <= estimate.SWEEP_BLOCK
        assert len(phases) == 5 * grid.size  # no state is dropped before its block reads it again

    def test_a_long_one_particle_sweep_keeps_at_most_sweep_block_bytes(self, monkeypatch):
        # each kept state is charged at least STATE_CHARGE amplitudes: by its
        # two amplitudes alone, 4000 points at N = 1 kept 20 000 states, 11.4 MB
        probe = css(1, 0.0, 0.0)
        readout = jz_readout(probe)
        calls, real = itertools.count(), interferom._interfere  # a counter holds no phases
        monkeypatch.setattr(interferom, "_interfere", lambda *args: (next(calls), real(*args))[1])
        grid = np.linspace(0.05, 3.09, 4000)
        tracemalloc.start()
        try:
            phase_sweep(lambda phi: ramsey(probe, phi), readout, grid)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(vars(probe)["_outputs"][1]) * estimate.STATE_CHARGE <= estimate.SWEEP_BLOCK
        assert held < 16 * estimate.SWEEP_BLOCK  # 1 MB
        assert next(calls) == 5 * grid.size
