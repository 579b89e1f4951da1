import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import align_phase

from qmetro import (
    BasisTag,
    CollectiveSpinOperators,
    CollectiveSpinState,
    Observable,
    Readout,
    apply,
    collective_ops,
    css,
    ghz,
    moments,
    mz_two_mode,
    povm_family,
    povm_probabilities,
    ramsey,
    readout_moments,
    rotate,
    TwoModeFockState,
)
from qmetro import spinops
from qmetro.spinops import (
    _band_evolve,
    _dicke_ladder,
    _jy_band,
    _jy_gauge,
    _moments,
    _spin_covariance,
    evolve,
)

# Pauli matrices written in the ascending-m ordering (|down>, |up>)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, 1j], [-1j, 0]], dtype=complex)
SZ = np.array([[-1, 0], [0, 1]], dtype=complex)


def dicke(n, k):
    amp = np.zeros(n + 1, dtype=complex)
    amp[k] = 1.0
    return CollectiveSpinState(n, amp)


def jz_observable(n):
    ops = collective_ops(n)
    return Observable(ops.jz, ops.basis_tag)


class TestCollectiveOps:
    def test_n1_is_half_pauli(self):
        ops = collective_ops(1)
        np.testing.assert_allclose(ops.jx, SX / 2, atol=1e-15)
        np.testing.assert_allclose(ops.jy, SY / 2, atol=1e-15)
        np.testing.assert_allclose(ops.jz, SZ / 2, atol=1e-15)

    def test_n2_jz_eigenvalues(self):
        ops = collective_ops(2)
        np.testing.assert_allclose(np.diag(ops.jz), [-1, 0, 1], atol=1e-15)

    def test_n4_commutator_explicit_product(self):
        # independent check by explicit matrix multiplication
        ops = collective_ops(4)
        lhs = np.matmul(ops.jx, ops.jy) - np.matmul(ops.jy, ops.jx)
        np.testing.assert_allclose(lhs, 1j * ops.jz, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 21, 50, 100, 150])
    def test_commutators_cyclic(self, n):
        ops = collective_ops(n)
        pairs = [
            (ops.jx, ops.jy, ops.jz),
            (ops.jy, ops.jz, ops.jx),
            (ops.jz, ops.jx, ops.jy),
        ]
        for a, b, c in pairs:
            residual = np.abs(a @ b - b @ a - 1j * c).max()
            assert residual <= 1e-12

    def test_commutator_n200_machine_floor(self):
        # at N = 200 the double-precision sqrt couplings floor the xy
        # commutator residual near 3e-12; assert the eps-scaled bound
        ops = collective_ops(200)
        residual = np.abs(ops.jx @ ops.jy - ops.jy @ ops.jx - 1j * ops.jz).max()
        j = 100.0
        assert residual <= 4e-16 * j * (j + 1)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 200])
    def test_hermitian(self, n):
        ops = collective_ops(n)
        for mat in (ops.jx, ops.jy, ops.jz):
            assert np.abs(mat - mat.conj().T).max() <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 5, 28])
    def test_jy_is_jx_in_the_gauge(self, n):
        # Jy = D Jx D^dag with D = diag((-i)^k): the real gauge form in which
        # `rotate` diagonalises Jy through Jx's real band
        ops = collective_ops(n)
        gauge = _jy_gauge(n)
        np.testing.assert_allclose(gauge, (-1j) ** np.arange(n + 1), rtol=0, atol=1e-15)
        assert np.abs(gauge[:, None] * ops.jx * gauge.conj() - ops.jy).max() <= 1e-15

    def test_jy_gauge_is_cached_read_only(self):
        gauge = _jy_gauge(6)
        assert _jy_gauge(6) is gauge
        with pytest.raises(ValueError):
            gauge[0] = 2.0

    @pytest.mark.parametrize("n", [0, -1, -10])
    def test_invalid_particle_number(self, n):
        with pytest.raises(ValueError):
            collective_ops(n)


class TestRotate:
    def test_zero_angle_is_identity(self):
        state = css(5, 1.1, 0.4)
        out = rotate(state, (0.0, 0.0, 1.0), 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-14)

    def test_pi_about_z_multiplies_dicke_phases(self):
        n = 3
        for k in range(n + 1):
            m = -n / 2 + k
            out = rotate(dicke(n, k), (0.0, 0.0, 1.0), math.pi)
            expected = np.zeros(n + 1, dtype=complex)
            expected[k] = np.exp(-1j * math.pi * m)
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_rotating_all_down_reaches_equator_css(self, n):
        # the all-down state swept by pi/2 about the -y axis is the
        # (pi/2, 0) coherent spin state
        out = rotate(dicke(n, 0), (0.0, -1.0, 0.0), math.pi / 2)
        expected = css(n, math.pi / 2, 0.0)
        np.testing.assert_allclose(
            align_phase(out.amplitudes, expected.amplitudes),
            expected.amplitudes,
            atol=1e-10,
        )

    def test_nonunit_axis_rejected(self):
        with pytest.raises(ValueError):
            rotate(css(2, 0.3, 0.0), (0.0, 0.0, 2.0), 0.1)

    def test_nan_axis_rejected(self):
        with pytest.raises(ValueError, match="unit norm"):
            rotate(css(2, 0.3, 0.0), (np.nan, 0.0, 0.0), 0.1)

    @given(
        n=st.integers(min_value=1, max_value=12),
        angle=st.floats(min_value=-6.0, max_value=6.0),
        raw_axis=st.tuples(
            st.floats(min_value=-1, max_value=1),
            st.floats(min_value=-1, max_value=1),
            st.floats(min_value=-1, max_value=1),
        ),
        theta=st.floats(min_value=0.0, max_value=math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_norm_preserved_and_invertible(self, n, angle, raw_axis, theta):
        axis = np.asarray(raw_axis)
        if np.linalg.norm(axis) < 1e-3:
            axis = np.array([0.0, 0.0, 1.0])
        axis = axis / np.linalg.norm(axis)
        state = css(n, theta, 0.7)
        forward = rotate(state, axis, angle)
        assert abs(np.linalg.norm(forward.amplitudes) - 1.0) <= 1e-12
        back = rotate(forward, axis, -angle)
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-10)


def wigner_small_d(n, beta):
    """d^J_{m'm}(beta) = <J,m'|exp(-i beta Jy)|J,m> from Wigner's closed form
    (Sakurai, Modern Quantum Mechanics, eq. 3.8.33), J = n/2; row J+m',
    column J+m."""
    f = math.factorial
    c, s = math.cos(beta / 2), math.sin(beta / 2)
    d = np.zeros((n + 1, n + 1))
    for row in range(n + 1):  # J + m'
        for col in range(n + 1):  # J + m
            norm = math.sqrt(f(col) * f(n - col) * f(row) * f(n - row))
            for k in range(max(0, col - row), min(col, n - row) + 1):
                d[row, col] += (
                    (-1) ** (k - col + row)
                    * norm
                    / (f(col - k) * f(k) * f(n - row - k) * f(k - col + row))
                    * c ** (n - 2 * k + col - row)
                    * s ** (2 * k - col + row)
                )
    return d


def random_vector(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return amp / np.linalg.norm(amp)


unit_axes = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]),
    st.tuples(*[st.floats(min_value=-1, max_value=1)] * 3)
    .filter(lambda a: np.linalg.norm(a) > 1e-3)
    .map(lambda a: tuple(np.asarray(a) / np.linalg.norm(a))),
)


class TestBandedRotation:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 11, 20])
    @pytest.mark.parametrize("beta", [0.3, math.pi / 2, 2.9, -1.7, 5.0])
    def test_y_rotation_is_wigner_small_d(self, n, beta):
        got = np.column_stack(
            [rotate(dicke(n, k), (0.0, 1.0, 0.0), beta).amplitudes for k in range(n + 1)]
        )
        np.testing.assert_allclose(got, wigner_small_d(n, beta), rtol=0, atol=1e-12)

    @given(
        n=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        axis=unit_axes,
        angle=st.floats(min_value=-4 * math.pi, max_value=4 * math.pi),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_propagator(self, n, seed, axis, angle):
        vec = random_vector(n, seed)
        dense = evolve(vec, collective_ops(n).along(axis), angle)
        got = rotate(CollectiveSpinState(n, vec), axis, angle).amplitudes
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 15])
    def test_full_turn_is_minus_one_for_half_integer_spin(self, n):
        state = css(n, 0.8, 0.3)
        axis = np.array([0.36, -0.48, 0.8])
        out = rotate(state, axis, 2 * math.pi).amplitudes
        np.testing.assert_allclose(out, (-1) ** n * state.amplitudes, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    @pytest.mark.parametrize(
        "axis", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.3, -1.2, 0.5)]
    )
    def test_apply_equals_dense_component(self, n, axis):
        vec = random_vector(n, 5)
        expected = collective_ops(n).along(axis) @ vec
        np.testing.assert_allclose(apply(axis, vec), expected, rtol=0, atol=1e-13 * n)


class TestWignerPulse:
    """The Ramsey pulses, built on the eigenvectors of Jx's real band with
    whatever column signs the solver gives them, are Wigner's d^J(pi/2)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 11, 20])
    def test_ramsey_is_wigner_pulse_phase_pulse(self, n):
        d = wigner_small_d(n, math.pi / 2)
        m, _ = _dicke_ladder(n)
        for phi in (0.0, 0.4, math.pi / 2, 2.9, -1.7):
            got = np.column_stack([ramsey(dicke(n, k), phi).amplitudes for k in range(n + 1)])
            expected = d @ np.diag(np.exp(-1j * phi * m)) @ d
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 400])
    def test_column_signs_leave_every_pulse_bit_identical(self, n, monkeypatch):
        vec = random_vector(n, 11)
        nb = np.arange(n, -1, -1)
        grid = np.zeros((n + 1, n + 1), dtype=complex)
        grid[np.arange(n + 1), nb] = vec  # one occupied sector, of total number n
        axis = np.array([0.36, -0.48, 0.8])
        phis = (0.3, math.pi / 2, -1.7)

        def run():
            # fresh probes: a kept half would outlive the cleared cache
            state, probe = CollectiveSpinState(n, vec), TwoModeFockState(n, grid)
            return (
                [ramsey(state, phi).amplitudes for phi in phis]
                + [rotate(state, axis, angle).amplitudes for angle in (0.3, 2.9, 5.0)]
                + [mz_two_mode(probe, phi).amplitudes for phi in phis]
            )

        def signs(count):
            flips = np.random.default_rng(count).choice([-1.0, 1.0], count)
            flips[0] = -1.0
            return flips

        def flipping_recursion(recursion):
            def recurse_and_flip(n):
                v = recursion(n) * signs(n + 1)  # a new array, C-ordered as the recursion's
                v.setflags(write=False)
                return v

            return recurse_and_flip

        def flipping_eigh(solve):
            def solve_and_flip(*args, **kwargs):
                w, v = solve(*args, **kwargs)
                v *= signs(v.shape[1])  # in place, so V keeps the layout the solver gave it
                return w, v

            return solve_and_flip

        _jy_band.cache_clear()
        try:
            unflipped = run()
            _jy_band.cache_clear()
            monkeypatch.setattr(spinops, "_jx_eigenvectors", flipping_recursion(spinops._jx_eigenvectors))
            monkeypatch.setattr(np.linalg, "eigh", flipping_eigh(np.linalg.eigh))
            flipped = run()
        finally:
            _jy_band.cache_clear()
        for a, b in zip(unflipped, flipped, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [2000, 2001, 4000])
    def test_large_n_ramsey_matches_band_path(self, n):
        try:
            spectrum, gauge = _jy_band(n), _jy_gauge(n)
            m, _ = _dicke_ladder(n)
            vec = random_vector(n, n)
            phi = 0.7
            pulse = _band_evolve(vec, spectrum, gauge, math.pi / 2)
            expected = _band_evolve(np.exp(-1j * phi * m) * pulse, spectrum, gauge, math.pi / 2)
            got = ramsey(CollectiveSpinState(n, vec), phi).amplitudes
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        finally:
            _jy_band.cache_clear()  # 128 MB at N = 4000


class TestMoments:
    @pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (5, 3)])
    def test_dicke_eigenstate(self, n, k):
        mean, var = moments(dicke(n, k), jz_observable(n))
        assert mean == pytest.approx(-n / 2 + k, abs=1e-12)
        assert var == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 10, 40])
    def test_equator_css_jx_mean(self, n):
        ops = collective_ops(n)
        state = css(n, math.pi / 2, 0.0)
        mean, _ = moments(state, Observable(ops.jx, ops.basis_tag))
        assert mean == pytest.approx(n / 2, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 10, 40])
    def test_equator_css_jy_variance(self, n):
        ops = collective_ops(n)
        state = css(n, math.pi / 2, 0.0)
        _, var = moments(state, Observable(ops.jy, ops.basis_tag))
        assert var == pytest.approx(n / 4, abs=1e-10)

    def test_basis_mismatch_rejected(self):
        with pytest.raises(ValueError, match="basis"):
            moments(css(3, 0.5, 0.0), jz_observable(4))

    @pytest.mark.parametrize("imag, raises", [(1e-10, False), (1e-8, True)])
    def test_imaginary_part_guard_scales_with_the_applied_norm(self, imag, raises):
        # O = Jx + i*imag on the equator CSS: <O> = N/2 + i*imag and
        # ||O psi|| = sqrt(mean^2 + Var Jx) ~ 500, so the guard sits at
        # 5e-10: non-Hermitian O with a larger imaginary part still raises
        n = 1000
        vec = css(n, math.pi / 2, 0.0).amplitudes
        applied = collective_ops(n).jx @ vec + 1j * imag * vec
        if raises:
            with pytest.raises(ValueError, match="imaginary part"):
                _moments(vec, applied)
        else:
            mean, var = _moments(vec, applied)
            assert mean == pytest.approx(n / 2, rel=1e-12)
            assert var == pytest.approx(0.0, abs=1e-9)

    def test_variance_non_negative(self):
        for theta in np.linspace(0, math.pi, 17):
            _, var = moments(css(6, theta, 0.3), jz_observable(6))
            assert var >= 0.0

    def test_large_n_square_observable_accepted(self):
        # <Jx^2> ~ 8e4 here, and round-off leaves an imaginary part of
        # ~2e-12 in it: above an absolute 1e-12, far below the state's scale
        n = 1000
        rng = np.random.default_rng(11)
        amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        state = CollectiveSpinState(n, amp / np.linalg.norm(amp))
        ops = collective_ops(n)
        jx_sq = ops.jx @ ops.jx
        mean, var = moments(state, Observable(jx_sq, ops.basis_tag))
        vec = state.amplitudes
        assert mean == pytest.approx(np.vdot(jx_sq @ vec, vec).real, rel=1e-12)
        assert var >= 0.0


class TestSpinCovariance:
    @given(
        n=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        axes=st.lists(st.tuples(*[st.floats(min_value=-1, max_value=1)] * 3), min_size=1, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_dense_oracle(self, n, seed, axes):
        vec = random_vector(n, seed)
        ops = collective_ops(n)
        dense = [ops.along(u) for u in axes]
        means = np.array([np.vdot(vec, a @ vec).real for a in dense])
        second = np.array([[np.vdot(vec, (a @ b + b @ a) @ vec).real / 2 for b in dense] for a in dense])
        want = second - np.outer(means, means)
        got_means, got = _spin_covariance(vec, axes)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got_means - means).max() <= 1e-12 * max(1.0, np.abs(means).max())
        assert np.abs(got - want).max() <= 1e-12 * scale
        assert np.array_equal(got, got.T)


class TestHeisenbergRelation:
    @staticmethod
    def _product_and_bound(state):
        n = state.n_particles
        ops = collective_ops(n)
        _, var_x = moments(state, Observable(ops.jx, ops.basis_tag))
        _, var_y = moments(state, Observable(ops.jy, ops.basis_tag))
        mean_z, _ = moments(state, Observable(ops.jz, ops.basis_tag))
        return math.sqrt(var_x) * math.sqrt(var_y), abs(mean_z) / 2

    @pytest.mark.parametrize(
        "state",
        [
            css(4, 0.0, 0.0),
            css(4, 1.2, 0.8),
            css(9, math.pi / 2, 0.0),
            ghz(6),
            rotate(ghz(6), (1.0, 0.0, 0.0), 0.7),
        ],
    )
    def test_inequality(self, state):
        product, bound = self._product_and_bound(state)
        assert product >= bound - 1e-10

    @pytest.mark.parametrize("n", [1, 2, 10, 60])
    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_equality_for_polar_css(self, n, theta):
        product, bound = self._product_and_bound(css(n, theta, 0.0))
        assert product == pytest.approx(bound, abs=1e-10)


class TestValidation:
    def test_observable_requires_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Observable(np.array([[0.0, 1.0], [0.0, 0.0]]), BasisTag("spin", 1))

    def test_observable_rejects_nan_matrix(self):
        # NaN compares false both ways, so a NaN entry must fail the check
        with pytest.raises(ValueError, match="Hermitian"):
            Observable(np.full((3, 3), np.nan), BasisTag("spin", 2))

    def test_operators_reject_nan_matrix(self):
        ops = collective_ops(2)
        with pytest.raises(ValueError, match="jy is not Hermitian"):
            CollectiveSpinOperators(2, ops.jx, np.full((3, 3), np.nan), ops.jz)

    def test_observable_dimension_must_match_tag(self):
        with pytest.raises(ValueError):
            Observable(np.eye(3), BasisTag("spin", 1))

    def test_state_requires_unit_norm(self):
        with pytest.raises(ValueError, match="normalized"):
            CollectiveSpinState(1, np.array([1.0, 1.0]))

    def test_state_rejects_nan_amplitudes(self):
        with pytest.raises(ValueError, match="normalized"):
            CollectiveSpinState(2, np.array([np.nan, 0.0, 0.0]))

    @pytest.mark.parametrize(
        "amp",
        [
            [np.inf, 0.0, 0.0],
            [1.0, complex(0.0, -np.inf), 0.0],
            [complex(np.inf, np.nan), 0.0, 0.0],
            [1.0, np.nan, 0.0],
        ],
    )
    def test_state_rejects_non_finite_amplitudes(self, amp):
        with pytest.raises(ValueError, match="normalized"):
            CollectiveSpinState(2, np.array(amp, dtype=complex))

    @pytest.mark.parametrize("excess, ok", [(5e-13, True), (-5e-13, True), (2e-12, False)])
    def test_state_norm_tolerance(self, excess, ok):
        amp = np.array([math.sqrt(0.5), 0.0, math.sqrt(0.5 + excess)])
        if ok:
            CollectiveSpinState(2, amp)
        else:
            with pytest.raises(ValueError, match="normalized"):
                CollectiveSpinState(2, amp)

    def test_state_requires_correct_length(self):
        with pytest.raises(ValueError, match="length"):
            CollectiveSpinState(2, np.array([1.0, 0.0]))

    def test_state_amplitudes_read_only(self):
        state = css(3, 0.4, 0.1)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    def test_basis_tag_is_built_once_per_state(self):
        state = css(3, 0.4, 0.1)
        assert state.basis_tag is state.basis_tag
        assert state.basis_tag == BasisTag("spin", 3)
        assert ramsey(state, 0.3).basis_tag is state.basis_tag  # derived states share it

    def test_a_shared_tag_is_matched_by_identity(self, monkeypatch):
        # a probe, its outputs and a readout built from its tag share one
        # object; an equal tag built apart is still compared by value
        state = css(3, 0.4, 0.1)
        output = ramsey(state, 0.3)
        shared, equal = Readout(state.m_values, state.basis_tag), Readout(state.m_values, BasisTag("spin", 3))

        def refuse(self, other):
            raise AssertionError("compared by value")

        monkeypatch.setattr(BasisTag, "__eq__", refuse)
        for s in (state, output):
            readout_moments(s, shared)
        with pytest.raises(AssertionError, match="compared by value"):
            readout_moments(state, equal)

    def test_mismatched_readout_still_raises(self):
        state = css(3, 0.4, 0.1)
        other = Readout(np.arange(5), BasisTag("spin", 4))
        with pytest.raises(ValueError, match="basis mismatch"):
            povm_probabilities(state, other)
        with pytest.raises(ValueError, match="basis mismatch"):
            readout_moments(state, other)
        with pytest.raises(ValueError, match="basis mismatch"):
            povm_family(lambda phi: ramsey(state, phi), other).table_at(np.array([0.1, 0.2]))

    def test_state_leaves_the_callers_array_writeable(self):
        v = np.zeros(3, complex)
        v[0] = 1.0
        state = CollectiveSpinState(2, v)
        v[1] = 0.5  # the caller's array is not frozen
        assert state.amplitudes[1] == 0.0
        with pytest.raises(ValueError):
            state.amplitudes[1] = 0.5


class TestDickeLadder:
    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_cached_arrays_are_read_only(self, n):
        m, coupling = _dicke_ladder(n)
        assert _dicke_ladder(n)[0] is m
        with pytest.raises(ValueError):
            m[0] = 0.0
        with pytest.raises(ValueError):
            coupling[0] = 0.0


def band_residual(w, v):
    """max |T V - V diag(w)| for Jx's band T of N = len(w) - 1 particles,
    taken row by row: T V's row k is c_(k-1) V[k-1] + c_k V[k+1]."""
    c = 0.5 * _dicke_ladder(len(w) - 1)[1]
    worst = 0.0
    for k in range(len(w)):
        row = -w * v[k]
        if k:
            row += c[k - 1] * v[k - 1]
        if k < len(c):
            row += c[k] * v[k + 1]
        worst = max(worst, float(np.abs(row).max()))
    return worst


def gram_error(v, block=1024):
    """max |V^T V - I|, from the blocks of columns on and above the diagonal."""
    worst = 0.0
    for lo in range(0, v.shape[1], block):
        gram = v[:, lo : lo + block].T @ v[:, lo:]
        gram[np.diag_indices(gram.shape[0])] -= 1.0
        worst = max(worst, float(np.abs(gram).max()))
    return worst


class TestJxRecursion:
    """`_jy_band` takes Jx's eigenvectors from the three-term recursion
    (`spinops._jx_eigenvectors`), and its eigenvalues are m exactly."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 11, 20])
    def test_columns_are_wigner_d_up_to_sign(self, n):
        # Jx = d Jz d^T for d = d^J(pi/2), so d's columns are Jx's
        # eigenvectors in ascending m, the order of V's columns
        w, v = _jy_band(n)
        d = wigner_small_d(n, math.pi / 2)
        assert np.array_equal(w, np.arange(-n / 2, n / 2 + 1))
        signs = np.sign(np.einsum("ij,ij->j", v, d))
        np.testing.assert_allclose(v * signs, d, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1000, 1001, 2000, 4000])
    def test_no_worse_than_eigh_tridiagonal(self, n):
        # scipy stays as the oracle: the residual is at most its own, and
        # the columns are orthonormal to 5e-14 (2.2e-14 at N = 4000)
        from scipy.linalg import eigh_tridiagonal

        w_ref, v_ref = eigh_tridiagonal(np.zeros(n + 1), 0.5 * _dicke_ladder(n)[1])
        reference = band_residual(w_ref, v_ref)
        del v_ref  # 128 MB at N = 4000
        try:
            w, v = _jy_band(n)
            assert np.array_equal(w, np.arange(-n / 2, n / 2 + 1))
            assert band_residual(w, v) <= reference
            assert gram_error(v) <= 5e-14
        finally:
            _jy_band.cache_clear()

    @pytest.mark.parametrize("n", [2, 5, 300, 301])
    def test_eigenvectors_are_read_only_and_cached(self, n):
        w, v = _jy_band(n)
        assert _jy_band(n)[1] is v and v.flags.c_contiguous
        with pytest.raises(ValueError):
            v[0, 0] = 0.0
