import math

import numpy as np
import pytest

from braggtrap import dicke
from braggtrap.closed_form import oat_moments_closed
from braggtrap.dicke import (
    DickeState,
    PulseSpec,
    SpinMoments,
    SpinOp,
    apply_oat,
    apply_rotation,
    block_moments,
    expectation,
    husimi_grid,
    make_css,
    operator_matrix,
    wigner_d,
    spin_moments,
    wineland_xi2,
)
from braggtrap.errors import DegenerateStateError, ResourceLimitError

from conftest import dense_axis_rotation, random_state


class TestMakeCss:
    def test_binomial_n2(self):
        state = make_css(2, math.pi / 2, 0.0)
        expected = np.array([0.5, 1.0 / math.sqrt(2.0), 0.5])
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_pole_state(self):
        for azimuth in (0.0, 1.3, -2.0):
            state = make_css(7, 0.0, azimuth)
            expected = np.zeros(8)
            expected[0] = 1.0
            np.testing.assert_allclose(state.amplitudes, expected, atol=0)

    def test_large_n_moments(self):
        # oracle: <S_x> = S, <S_z> = 0, <S_z^2> = S/2 for the +x coherent state
        state = make_css(1000, math.pi / 2, 0.0)
        assert expectation(state, SpinOp.SX) == pytest.approx(500.0, rel=1e-12)
        assert abs(expectation(state, SpinOp.SZ)) < 1e-10
        assert expectation(state, SpinOp.SZ2) == pytest.approx(250.0, rel=1e-12)

    def test_mean_spin_direction(self):
        polar, azimuth = 1.1, 0.7
        state = make_css(40, polar, azimuth)
        s = 20.0
        sp = complex(expectation(state, SpinOp.SP))
        assert sp.real == pytest.approx(s * math.sin(polar) * math.cos(azimuth), rel=1e-12)
        assert sp.imag == pytest.approx(s * math.sin(polar) * math.sin(azimuth), rel=1e-12)
        assert expectation(state, SpinOp.SZ) == pytest.approx(s * math.cos(polar), rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_css(0, math.pi / 2, 0.0)
        with pytest.raises(ValueError):
            make_css(4, math.nan, 0.0)
        with pytest.raises(ValueError):
            make_css(4, 0.1, math.inf)
        with pytest.raises(ValueError):
            make_css(4, -0.2, 0.0)


class TestDickeState:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            DickeState(3, np.ones(3, dtype=complex) / math.sqrt(3.0))

    def test_norm_enforced(self):
        amps = np.ones(4, dtype=complex)
        with pytest.raises(ValueError):
            DickeState(3, amps)

    def test_m_ordering_descending(self):
        state = make_css(4, 0.3, 0.0)
        np.testing.assert_array_equal(state.m_values, [2.0, 1.0, 0.0, -1.0, -2.0])


class TestApplyOat:
    def test_zero_is_identity(self, rng):
        state = random_state(17, rng)
        out = apply_oat(state, 0.0)
        assert out is state

    def test_n2_sx_decay(self, css_plus_x):
        # oracle: <S_x> = S cos(tau)^(2S-1) = cos(tau) at S = 1
        for tau in (0.1, 0.37, 1.2):
            out = apply_oat(css_plus_x(2), tau)
            assert expectation(out, SpinOp.SX) == pytest.approx(math.cos(tau), rel=1e-12)

    def test_populations_invariant(self, rng):
        state = random_state(100, rng)
        out = apply_oat(state, 0.8)
        np.testing.assert_allclose(out.populations(), state.populations(), atol=1e-15)

    def test_optimum_squeezing_n1000(self, css_plus_x):
        # orientation-optimized xi at tau = 1.2 N^(-2/3) reaches about N^(-1/3)
        from scipy.optimize import minimize_scalar

        state = apply_oat(css_plus_x(1000), 1.2 * 1000 ** (-2.0 / 3.0))

        def xi2_at(alpha):
            return wineland_xi2(apply_rotation(state, PulseSpec("x", alpha)))

        grid = np.linspace(-math.pi / 2, math.pi / 2, 181)
        coarse = float(grid[np.argmin([xi2_at(float(a)) for a in grid])])
        best = minimize_scalar(xi2_at, bounds=(coarse - 0.02, coarse + 0.02),
                               method="bounded", options={"xatol": 1e-8}).fun
        assert math.sqrt(best) == pytest.approx(0.1, rel=0.1)

    def test_rejects_nonfinite(self, css_plus_x):
        with pytest.raises(ValueError):
            apply_oat(css_plus_x(4), math.inf)


class TestApplyRotation:
    def test_z_rotation_preserves_populations(self, rng):
        state = random_state(31, rng)
        out = apply_rotation(state, PulseSpec("z", 0.9))
        np.testing.assert_allclose(out.populations(), state.populations(), atol=1e-15)

    def test_pole_quarter_turn(self):
        # oracle: dense 3x3 exponential of S_x for S = 1
        state = apply_rotation(make_css(2, 0.0, 0.0), PulseSpec("x", math.pi / 2))
        ref = dense_axis_rotation(2, "x", math.pi / 2) @ [1.0, 0.0, 0.0]
        np.testing.assert_allclose(state.amplitudes, ref, atol=1e-14)
        assert expectation(state, SpinOp.SY) == pytest.approx(-1.0, rel=1e-12)
        assert abs(expectation(state, SpinOp.SZ)) <= 1e-12

    def test_rotation_about_mean_spin_axis(self, css_plus_x):
        state = css_plus_x(64)
        for angle in (0.3, -1.7, 2.9):
            out = apply_rotation(state, PulseSpec("x", angle))
            assert expectation(out, SpinOp.SX) == pytest.approx(32.0, rel=1e-12)

    def test_y_quarter_turn_builds_css(self):
        out = apply_rotation(make_css(6, 0.0, 0.0), PulseSpec("y", math.pi / 2))
        np.testing.assert_allclose(
            out.amplitudes, make_css(6, math.pi / 2, 0.0).amplitudes, atol=1e-13
        )

    def test_rejects_bad_pulse(self):
        with pytest.raises(ValueError):
            PulseSpec("q", 0.1)
        with pytest.raises(ValueError):
            PulseSpec("x", math.nan)


def eigenbasis_rotation(state, angles):
    """exp(-i angle S_x) state for each angle, as rows, through the full S_x
    eigenbasis assembled from both reversal-parity sectors."""
    m, u = dicke._sx_eigenbasis(state.n_atoms)
    re, im = np.stack((state.amplitudes.real, state.amplitudes.imag)) @ u
    rows = np.exp(-1j * np.multiply.outer(np.asarray(angles), m)) * (re + 1j * im)
    parts = np.concatenate((rows.real, rows.imag)) @ u.T
    return parts[:len(rows)] + 1j * parts[len(rows):]


class TestChebyshevRotation:
    """The per-state x rotation (a Chebyshev series) against the S_x
    eigenbasis route."""

    ANGLES = (0.3, math.pi / 2, -math.pi / 2, math.pi, 7.1, -12.3)

    @pytest.mark.parametrize("n", [2, 3, 17, 300, 1001, 4000])
    def test_matches_eigenbasis_route(self, n, rng):
        # random states have both reversal parities, so the oracle needs both
        # sectors
        state = random_state(n, rng)
        reference = eigenbasis_rotation(state, self.ANGLES)
        for angle, ref in zip(self.ANGLES, reference):
            out = apply_rotation(state, PulseSpec("x", angle))
            assert np.max(np.abs(out.amplitudes - ref)) <= 1e-13, angle

    def test_input_amplitudes_never_written(self, rng):
        # read-only input: a write raises, and the values must not move
        for n in (2, 301):
            amps = random_state(n, rng).amplitudes.copy()
            before = amps.copy()
            amps.setflags(write=False)
            state = DickeState(n, amps)
            for axis in ("x", "y"):
                for angle in self.ANGLES:
                    apply_rotation(state, PulseSpec(axis, angle))
            np.testing.assert_array_equal(state.amplitudes, before)

    def test_per_state_paths_build_no_eigensystem(self):
        from braggtrap import sequence

        cfg = sequence.SequenceConfig(n_atoms=37, tau=0.05, tau_tilde=0.02,
                                      alpha=0.3, beta=0.2, theta=0.1)
        before = dicke._sx_eigensystem.cache_info()
        sequence.run_sequence(cfg)
        sequence.run_sequence_stepwise(cfg)
        sequence.gain_at_zero(cfg)
        after = dicke._sx_eigensystem.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_large_n_moments_match_closed_form(self):
        # N = 2e4: the eigenbasis would need 3.2 GB; the series needs O(N)
        n, tau, alpha = 20000, 1e-3, 0.2
        state = apply_rotation(apply_oat(make_css(n, math.pi / 2, 0.0), tau),
                               PulseSpec("x", alpha))
        mom = spin_moments(state)
        ref = oat_moments_closed(n, tau, alpha)
        s = 0.5 * n
        assert abs(mom.sx - ref.sx) <= 1e-11 * s
        assert abs(mom.sy2 - ref.sy2) <= 1e-11 * s * s
        assert abs(mom.sz2 - ref.sz2) <= 1e-11 * s * s


class TestSxEigensystem:
    """The S_x eigensystem folded by reversal parity into two half-size
    tridiagonals, one per sector."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 17, 1000, 1001, 1002])
    def test_eigenpairs_and_orthogonality(self, n):
        d, h = n + 1, (n + 1) // 2
        full = np.arange(d) - 0.5 * n
        off = 0.5 * dicke._ladder_strengths(n)[1:, None]
        for parity in (1, -1):
            m, x = dicke._sx_eigensystem(n, parity)
            # the largest m is even and parities alternate down the spectrum
            np.testing.assert_array_equal(m, full[(d - 1) % 2 if parity > 0 else d % 2::2])
            assert x.shape == (len(m), len(m))
            assert np.abs(x.T @ x - np.eye(len(m))).max() <= 1e-13
            # each column unfolds to a unit S_x eigenvector of the sector's parity
            u = np.zeros((d, len(m)))
            u[:len(m)] = x
            u[:h] *= math.sqrt(0.5)
            u[d - h:] = parity * u[h - 1::-1]
            tu = np.zeros_like(u)
            tu[:-1] += off * u[1:]
            tu[1:] += off * u[:-1]
            assert np.linalg.norm(tu - u * m, axis=0).max() <= 1e-12 * n
            assert np.abs(np.linalg.norm(u, axis=0) - 1.0).max() <= 1e-13
            assert not x.flags.writeable and not m.flags.writeable

    @pytest.mark.parametrize("n", [5, 6, 8, 17, 40])
    def test_at_most_one_eigh_per_n(self, monkeypatch, n):
        # even N: both sectors from an SVD of their sublattice block; odd N:
        # the odd sector is -D T D of the even one, D = diag((-1)^k)
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(dicke.np.linalg, "eigh", counted)
        dicke._sx_eigensystem.cache_clear()
        d = dicke.wigner_d(n, 0.3)
        assert np.abs(d @ d.T - np.eye(n + 1)).max() <= 1e-13
        assert calls == [((n + 2) // 2,) * 2] * (n % 2)

    def test_size_limit_rejects_before_allocating(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an over-limit eigensystem must not start")

        monkeypatch.setattr(dicke.np, "empty", never)
        monkeypatch.setattr(dicke.np, "zeros", never)
        monkeypatch.setattr(dicke.np.linalg, "eigh", never)
        monkeypatch.setattr(dicke.np.linalg, "svd", never)
        limit = dicke._EIGENSYSTEM_MAX_BYTES
        # a sector's matrix and eigenvectors, 16 s^2 bytes, reach the limit at
        # s = 8192: N = 16383 for the even sector, s = ceil((N+1)/2)
        assert limit == 16 * 8192**2
        for n in (16384, 10**6, 10**9):
            with pytest.raises(ResourceLimitError, match=f"n_atoms = {n} .* {limit} B"):
                dicke._sx_eigensystem(n, 1)
        with pytest.raises(ResourceLimitError, match=f"n_atoms = 16386 .* {limit} B"):
            dicke._sx_eigensystem(16386, -1)
        # the full eigenbasis adds the (N+1)^2 matrix: 8 (d^2 + 2 (4096^2 +
        # 4096^2)) bytes at N = 8191 is the limit
        for n in (8192, 10**6):
            with pytest.raises(ResourceLimitError, match=f"n_atoms = {n} .* {limit} B"):
                dicke._sx_eigenbasis(n)


class TestBinomials:
    def test_cached_read_only_and_close_to_gammaln(self):
        from scipy.special import gammaln

        for n in (1, 2, 17, 1000, 4000):
            half = dicke._binomial_log_half(n)
            assert dicke._binomial_log_half(n) is half
            assert not half.flags.writeable
            k = np.arange(n + 1)
            ref = 0.5 * (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))
            # both round log-gammas of size up to n log n; math.lgamma and
            # scipy differ by a few of their ulps
            assert np.abs(half - ref).max() <= 2e-11


class TestExpectation:
    def test_css_sz_zero(self, css_plus_x):
        assert abs(expectation(css_plus_x(20), SpinOp.SZ)) < 1e-12

    def test_twisted_sp_magnitude_n4(self, css_plus_x):
        # oracle: |<S_+>| = S cos(tau)^(2S-1) with S = 2, tau = 0.1
        out = apply_oat(css_plus_x(4), 0.1)
        assert abs(expectation(out, SpinOp.SP)) == pytest.approx(
            2.0 * math.cos(0.1) ** 3, rel=1e-12
        )

    def test_css_spsm(self, css_plus_x):
        # oracle: <S_+ S_-> = S (S + 1/2) on the coherent state
        for n in (2, 5, 40):
            s = 0.5 * n
            assert expectation(css_plus_x(n), SpinOp.SP_SM) == pytest.approx(
                s * (s + 0.5), rel=1e-12
            )

    @pytest.mark.parametrize("op", list(SpinOp))
    def test_matches_dense_kernels(self, op, rng):
        for n in (2, 5, 12, 30):
            state = random_state(n, rng)
            dense = np.vdot(state.amplitudes, operator_matrix(n, op) @ state.amplitudes)
            value = complex(expectation(state, op))
            assert value == pytest.approx(dense, abs=1e-11 * max(1.0, (0.5 * n) ** 3))

    def test_accepts_string_labels(self, css_plus_x):
        assert expectation(css_plus_x(4), "sz2") == pytest.approx(1.0, rel=1e-12)


class TestSpinMoments:
    def test_fields_equal_expectation(self, rng):
        # n = 1 has no S_+^2 pairs
        for n in (1, 2, 17, 300):
            state = random_state(n, rng)
            mom = spin_moments(state)
            for field in ("sx", "sy", "sz", "sx2", "sy2", "sz2"):
                assert getattr(mom, field) == expectation(state, field)

    def test_ladder_identities(self, rng):
        # the kernel reads <S_-> as <S_+>* and sx2 + sy2 as S(S+1) - sz2
        for n in (1, 2, 17, 4000):
            s = 0.5 * n
            states = [random_state(n, rng) for _ in range(3)]
            for state in states:
                assert expectation(state, "sm") == np.conj(expectation(state, "sp"))
            block = np.array([state.amplitudes for state in states])
            norms = np.add.reduce(np.abs(block) ** 2, axis=-1)
            rows = [spin_moments(state) for state in states] + [block_moments(n, block)]
            for mom, norm in zip(rows, [*norms, norms]):
                total = mom.sx2 + mom.sy2 + mom.sz2
                assert np.all(abs(total - s * (s + 1.0) * norm)
                              <= 4.0 * np.finfo(float).eps * s * s)

    def test_anticommutator_matches_dense(self, rng):
        for n in (1, 2, 17):
            state = random_state(n, rng)
            mom = spin_moments(state)
            for field, (a, b) in (("sxy", "xy"), ("sxz", "xz"), ("syz", "yz")):
                sa, sb = operator_matrix(n, "s" + a), operator_matrix(n, "s" + b)
                dense = np.vdot(state.amplitudes, (sa @ sb + sb @ sa) @ state.amplitudes)
                assert getattr(mom, field) == pytest.approx(dense.real, abs=1e-12 * n * n)

    def test_covariance_matches_dense(self, rng):
        for n in (2, 9):
            state = random_state(n, rng)
            ops = [operator_matrix(n, f"s{axis}") for axis in "xyz"]
            psi = state.amplitudes
            mean = np.array([np.vdot(psi, op @ psi).real for op in ops])
            second = np.array([[0.5 * np.vdot(psi, (a @ b + b @ a) @ psi).real for b in ops]
                               for a in ops])
            cov = spin_moments(state).covariance()
            np.testing.assert_allclose(cov, second - np.outer(mean, mean), atol=1e-12 * n * n)
            np.testing.assert_array_equal(cov, cov.T)


class TestBlockMoments:
    def test_rows_equal_spin_moments(self, rng):
        for n in (1, 2, 17, 300, 1001):
            block = np.array([random_state(n, rng).amplitudes for _ in range(4)])
            fields = block_moments(n, block)
            assert all(field.shape == (4,) for field in fields)
            rows = [SpinMoments(*row) for row in zip(*(field.tolist() for field in fields))]
            assert rows == [spin_moments(DickeState(n, amps)) for amps in block]

    def test_every_row_checked(self, rng):
        block = np.array([random_state(6, rng).amplitudes for _ in range(3)])
        for row, value, match in ((1, 2.0, "norm"), (2, math.nan, "non-finite")):
            bad = block.copy()
            bad[row, 3] = value
            with pytest.raises(ValueError, match=match):
                block_moments(6, bad)
        with pytest.raises(ValueError, match="length"):
            block_moments(5, block)
        with pytest.raises(ValueError, match="2-D"):
            block_moments(6, block[0])


class TestWineland:
    def test_css_reference(self, css_plus_x):
        for n in (2, 10, 300):
            assert wineland_xi2(css_plus_x(n)) == pytest.approx(1.0, rel=1e-10)

    def test_n2_framed_minimum(self, css_plus_x):
        # oracle: min over alpha of xi^2 equals 1/(1 + sin tau) at S = 1
        tau = 0.3
        twisted = apply_oat(css_plus_x(2), tau)
        best = min(
            wineland_xi2(apply_rotation(twisted, PulseSpec("x", a)))
            for a in np.linspace(-math.pi / 2, math.pi / 2, 4001)
        )
        assert best == pytest.approx(1.0 / (1.0 + math.sin(tau)), rel=1e-6)

    def test_degenerate_mean_spin(self):
        # equal-weight superposition of the two poles has zero mean spin
        amps = np.zeros(5, dtype=complex)
        amps[0] = amps[4] = 1.0 / math.sqrt(2.0)
        with pytest.raises(DegenerateStateError):
            wineland_xi2(DickeState(4, amps))


class TestHusimi:
    def test_css_peak_location(self, css_plus_x):
        grid = husimi_grid(css_plus_x(30), 65, 128)
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert grid.polar[i] == pytest.approx(math.pi / 2)
        assert grid.azimuth[j] == pytest.approx(0.0)

    def test_pole_value(self):
        n = 12
        grid = husimi_grid(make_css(n, 0.0, 0.0), 33, 16)
        expected = (n + 1) / (4.0 * math.pi)
        np.testing.assert_allclose(grid.values[0], expected, rtol=1e-12)

    def test_normalization(self, css_plus_x):
        state = apply_oat(css_plus_x(100), 1.2 * 100 ** (-2.0 / 3.0))
        grid = husimi_grid(state, 64, 128)
        assert grid.sphere_integral() == pytest.approx(1.0, rel=0.02)

    def test_sheared_state_anisotropy(self, css_plus_x):
        # oracle: tangent-plane second moments of Q against the exact spin
        # covariance; the twisted state is strongly elongated
        n = 100
        state = apply_oat(css_plus_x(n), 1.2 * n ** (-2.0 / 3.0))
        grid = husimi_grid(state, 129, 256)
        q = grid.values
        sin_th = np.sin(grid.polar)[:, None]
        w = q * sin_th  # area weights up to a constant
        u = grid.azimuth[None, :] - 0.0
        u = np.where(u > math.pi, u - 2.0 * math.pi, u)  # wrap around +x
        v = (grid.polar - math.pi / 2)[:, None]
        tot = w.sum()
        uu = (w * u**2).sum() / tot
        vv = (w * v**2).sum() / tot
        uv = (w * u * v).sum() / tot
        cov = np.array([[uu, uv], [uv, vv]])
        evals = np.linalg.eigvalsh(cov)
        ratio = evals[1] / evals[0]
        assert ratio > 3.0
        # spin-covariance oracle: Q adds S/2 of coherent noise per axis, so
        # S^2 lambda_min tracks var_min + S/2 and the ratio tracks the
        # spin-variance ratio (long axis inflated by sphere curvature)
        s = 0.5 * n
        sy2 = expectation(state, SpinOp.SY2)
        sz2 = expectation(state, SpinOp.SZ2)
        q_cross = complex(expectation(state, SpinOp.SP_SZ)) + 0.5 * complex(
            expectation(state, SpinOp.SP)
        )
        half_spread = math.hypot(sy2 - sz2, 2.0 * q_cross.imag)
        var_min = 0.5 * (sy2 + sz2) - 0.5 * half_spread
        var_max = 0.5 * (sy2 + sz2) + 0.5 * half_spread
        assert s**2 * evals[0] == pytest.approx(var_min + 0.5 * s, rel=0.1)
        predicted_ratio = (var_max + 0.5 * s) / (var_min + 0.5 * s)
        assert 0.5 < ratio / predicted_ratio < 2.0

    @pytest.mark.parametrize("n,n_azimuth", [(30, 8), (30, 64), (1000, 97), (1000, 1500)])
    def test_fft_matches_phase_matrix(self, n, n_azimuth, rng):
        # the direct sum over the (n_azimuth x N+1) phase matrix, with the
        # azimuth count below and above N + 1
        state = random_state(n, rng)
        n_polar = 7
        grid = husimi_grid(state, n_polar, n_azimuth)
        phases = np.exp(-1j * np.outer(grid.azimuth, np.arange(n + 1)))
        ref = np.array([
            np.abs(phases @ (dicke._css_amplitudes(n, th) * state.amplitudes)) ** 2
            for th in grid.polar]) * (n + 1.0) / (4.0 * math.pi)
        assert grid.values.shape == (n_polar, n_azimuth)
        # the phase matrix itself rounds k phi to an ulp of N 2 pi
        np.testing.assert_allclose(grid.values, ref, rtol=0, atol=1e-14 * (n + 1) / (4 * math.pi))

    def test_grid_guards(self, css_plus_x):
        with pytest.raises(ValueError):
            husimi_grid(css_plus_x(4), 1, 16)
        with pytest.raises(ValueError):
            husimi_grid(css_plus_x(4), 16, 1)

    def test_values_nonnegative(self, rng):
        grid = husimi_grid(random_state(25, rng), 17, 32)
        assert np.all(grid.values >= 0.0)

    def test_size_limit_rejects_before_allocating(self, monkeypatch, css_plus_x):
        def never(*args, **kwargs):
            raise AssertionError("an over-limit Husimi grid must not start")

        state = css_plus_x(4)
        monkeypatch.setattr(dicke.np, "empty", never)
        monkeypatch.setattr(dicke.np, "zeros", never)
        limit = dicke._EIGENSYSTEM_MAX_BYTES
        # 8 B per value: 2^27 values alone reach the limit
        for n_polar, n_azimuth in ((100000, 100000), (16384, 8192), (2, 10**9)):
            with pytest.raises(ResourceLimitError,
                               match=f"{n_polar} x {n_azimuth} Husimi grid .* {limit} B"):
                husimi_grid(state, n_polar, n_azimuth)


class TestOperatorMatrix:
    def test_sz_diagonal(self):
        np.testing.assert_allclose(
            operator_matrix(2, SpinOp.SZ), np.diag([1.0, 0.0, -1.0]), atol=0
        )

    def test_sx_tridiagonal_s1(self):
        sx = operator_matrix(2, SpinOp.SX)
        off = 1.0 / math.sqrt(2.0)
        expected = np.array([[0, off, 0], [off, 0, off], [0, off, 0]])
        np.testing.assert_allclose(sx, expected, atol=1e-15)

    def test_commutator_example(self):
        for n in (2, 7, 20):
            sx = operator_matrix(n, SpinOp.SX)
            sy = operator_matrix(n, SpinOp.SY)
            sz = operator_matrix(n, SpinOp.SZ)
            resid = sx @ sy - sy @ sx - 1j * sz
            assert np.max(np.abs(resid)) <= 1e-14 * max(1.0, n)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            operator_matrix(65, SpinOp.SZ)


class TestInvariants:
    @pytest.mark.parametrize("n", [2, 17, 100, 1000])
    def test_norm_preservation(self, n, rng):
        state = random_state(n, rng)
        state = apply_oat(state, 0.8)
        state = apply_rotation(state, PulseSpec("x", 1.234))
        state = apply_rotation(state, PulseSpec("y", -0.777))
        state = apply_rotation(state, PulseSpec("z", 2.5))
        assert abs(np.sum(state.populations()) - 1.0) <= 1e-10

    def test_commutator_algebra(self):
        # [S_i, S_j] = i eps_ijk S_k on dense matrices
        for n in (2, 5, 11, 20):
            ops = {a: operator_matrix(n, f"s{a}") for a in "xyz"}
            for a, b, c, sign in (
                ("x", "y", "z", 1.0),
                ("y", "z", "x", 1.0),
                ("z", "x", "y", 1.0),
                ("y", "x", "z", -1.0),
            ):
                resid = ops[a] @ ops[b] - ops[b] @ ops[a] - sign * 1j * ops[c]
                assert np.max(np.abs(resid)) <= 1e-13 * max(1.0, n)

    def test_rotation_conjugation_identity(self, rng):
        # <R_x^dag(a) S_{y/z} R_x(a)> = cos a <S_{y/z}> -/+ sin a <S_{z/y}>
        for n in (3, 20, 100):
            state = random_state(n, rng)
            sy = expectation(state, SpinOp.SY)
            sz = expectation(state, SpinOp.SZ)
            for angle in (0.4, -1.1, 2.2):
                rotated = apply_rotation(state, PulseSpec("x", angle))
                assert expectation(rotated, SpinOp.SY) == pytest.approx(
                    math.cos(angle) * sy - math.sin(angle) * sz, abs=1e-10 * n
                )
                assert expectation(rotated, SpinOp.SZ) == pytest.approx(
                    math.cos(angle) * sz + math.sin(angle) * sy, abs=1e-10 * n
                )

    def test_diagonal_ops_keep_populations(self, rng):
        state = random_state(64, rng)
        pops = state.populations()
        twisted = apply_oat(state, 2.3)
        z_rot = apply_rotation(state, PulseSpec("z", -1.9))
        np.testing.assert_allclose(twisted.populations(), pops, atol=1e-15)
        np.testing.assert_allclose(z_rot.populations(), pops, atol=1e-15)

    def test_wigner_d_vs_dense_exponential(self, rng):
        from scipy.linalg import expm

        worst = 0.0
        for n in (3, 12, 25, 50):
            sy = operator_matrix(n, SpinOp.SY)
            state = random_state(n, rng)
            for angle in rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 20):
                ref = expm(-1j * float(angle) * sy) @ state.amplitudes
                mine = wigner_d(n, float(angle)) @ state.amplitudes
                worst = max(worst, float(np.max(np.abs(mine - ref))))
        assert worst <= 1e-9
