import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from braggtrap.closed_form import (
    oat_moments_closed,
    output_moments_perturbative,
    twisted_ladder_moments,
    weak_gain,
    xi2_closed,
)
from braggtrap.dicke import (
    PulseSpec,
    SpinOp,
    apply_oat,
    apply_rotation,
    expectation,
    make_css,
    operator_matrix,
    spin_moments,
    wineland_xi2,
)
from braggtrap.errors import BraggTrapError, DegenerateStateError


def twisted(n, tau):
    return apply_oat(make_css(n, math.pi / 2, 0.0), tau)


class TestOatMomentsClosed:
    def test_untwisted_limits(self):
        for n in (2, 50):
            mom = oat_moments_closed(n, 0.0, 0.7)
            assert mom.sx == pytest.approx(0.5 * n, rel=1e-14)
            assert mom.sz2 == pytest.approx(0.25 * n, rel=1e-14)
            assert mom.sy2 == pytest.approx(0.25 * n, rel=1e-14)

    def test_n2_variance_minimum(self):
        # oracle: S = 1 reduction, A = 0, B = 4 sin tau, minimum value
        # <S_z^2> = (1 - sin tau)/2
        tau = 0.1
        best = min(
            oat_moments_closed(2, tau, a).sz2
            for a in np.linspace(-math.pi / 2, math.pi / 2, 20001)
        )
        assert best == pytest.approx(0.5 * (1.0 - math.sin(tau)), rel=1e-9)
        assert best == pytest.approx(0.4501, abs=5e-5)

    @pytest.mark.parametrize("alpha", [0.0, math.pi / 7, 1.1])
    def test_matches_exact_pipeline(self, alpha):
        n, tau = 100, 0.03
        state = apply_rotation(twisted(n, tau), PulseSpec("x", alpha))
        mom = oat_moments_closed(n, tau, alpha)
        assert mom.sx == pytest.approx(expectation(state, SpinOp.SX), rel=1e-9)
        assert mom.sx2 == pytest.approx(expectation(state, SpinOp.SX2), rel=1e-9)
        assert mom.sy2 == pytest.approx(expectation(state, SpinOp.SY2), rel=1e-9)
        assert mom.sz2 == pytest.approx(expectation(state, SpinOp.SZ2), rel=1e-9)

    def test_casimir_identity(self):
        for n in (2, 6, 20, 100):
            for tau in (0.0, 0.01, 0.05, 0.2):
                for alpha in np.linspace(0.0, math.pi, 9):
                    mom = oat_moments_closed(n, tau, float(alpha))
                    s = 0.5 * n
                    total = mom.sx2 + mom.sy2 + mom.sz2
                    assert total == pytest.approx(s * (s + 1.0), rel=1e-9)
                    assert 0.0 <= mom.a_coef <= 2.0

    def test_oracle_equivalence_sweep(self):
        # closed-form moments vs exact Dicke moments, 1e-9 relative
        for n in (2, 6, 20, 100):
            for tau in (0.0, 0.01, 0.05, 0.2):
                state = twisted(n, tau)
                for alpha in np.linspace(0.0, math.pi, 10, endpoint=False):
                    rotated = apply_rotation(state, PulseSpec("x", float(alpha)))
                    mom = oat_moments_closed(n, tau, float(alpha))
                    for label, value in (
                        (SpinOp.SX, mom.sx),
                        (SpinOp.SY2, mom.sy2),
                        (SpinOp.SZ2, mom.sz2),
                    ):
                        exact = expectation(rotated, label)
                        assert value == pytest.approx(exact, rel=1e-9, abs=1e-12)


class TestXi2Closed:
    def test_reference(self):
        assert xi2_closed(100, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_n2_closed_form(self):
        for tau in (0.05, 0.3, 1.0):
            assert xi2_closed(2, tau) == pytest.approx(1.0 / (1.0 + math.sin(tau)), rel=1e-12)

    def test_equals_min_over_alpha(self):
        # module invariant: equals the exact Wineland minimum within 1e-6
        for n, tau in ((6, 0.1), (20, 0.05), (100, 0.02)):
            state = twisted(n, tau)

            def xi2_at(alpha):
                return wineland_xi2(apply_rotation(state, PulseSpec("x", alpha)))

            coarse = min(
                np.linspace(-math.pi / 2, math.pi / 2, 721), key=xi2_at
            )
            refined = minimize_scalar(
                xi2_at, bounds=(coarse - 0.01, coarse + 0.01), method="bounded",
                options={"xatol": 1e-10},
            )
            assert xi2_closed(n, tau) == pytest.approx(refined.fun, abs=1e-6)

    def test_n1000_optimum(self):
        taus = np.linspace(0.004, 0.025, 211)
        xis = [math.sqrt(xi2_closed(1000, float(t))) for t in taus]
        i = int(np.argmin(xis))
        assert xis[i] == pytest.approx(0.1, rel=0.1)
        assert taus[i] == pytest.approx(0.012, rel=0.15)

    def test_singularity(self):
        with pytest.raises(BraggTrapError):
            xi2_closed(10, math.pi / 2)

    def test_collapsed_mean_spin_raises_exact_path_error(self):
        # tau = 93.8 is what gain --from-trap --omega-z-hz 1e-6 prepares; there
        # <S_x> = S cos(tau)^(N-1) is about 1e-43 S
        n, tau = 1000, 93.8
        with pytest.raises(DegenerateStateError, match="mean spin length"):
            xi2_closed(n, tau)
        mom = spin_moments(twisted(n, tau))
        with pytest.raises(DegenerateStateError, match="mean spin length"):
            mom.xi2(n, mom.squeezed_axis()[1])

    def test_mean_spin_bound(self):
        # the bound is cos(tau)^(2N-2) < 1e-20, the exact path's 1e-20 S^2
        edge = math.acos(1e-10)  # N = 2: cos(tau)^2 = 1e-20
        assert math.isfinite(xi2_closed(2, edge - 1e-11))  # cos^2 = 1.21e-20
        with pytest.raises(DegenerateStateError):
            xi2_closed(2, edge + 1e-11)  # cos^2 = 0.81e-20


class TestWeakGain:
    def test_alpha_zero_structure(self):
        n, tau, tt = 60, 2e-4, 5e-4
        for beta in np.linspace(-1.0, 1.0, 7):
            expected = (
                1.0 + (n - 1.0) * math.sin(2 * beta) * (tt - tau)
            ) * math.cos(beta) ** 2
            assert weak_gain(n, tau, tt, 0.0, beta) == pytest.approx(expected, rel=1e-12)

    def test_alpha_half_pi_structure(self):
        n, tau, tt = 60, 2e-4, 5e-4
        for beta in np.linspace(-1.0, 1.0, 7):
            expected = (
                1.0 + (n - 1.0) * math.sin(2 * beta) * (tt + tau)
            ) * math.cos(beta) ** 2
            assert weak_gain(n, tau, tt, math.pi / 2, beta) == pytest.approx(
                expected, rel=1e-12
            )

    def test_linear_optimal_alpha(self):
        # beta = 0, alpha = -pi/4: G^2 = 1 + (2S-1) tau regardless of tau_tilde
        n, tau = 80, 3e-4
        for tt in (0.0, 1e-3, 0.8):
            assert weak_gain(n, tau, tt, -math.pi / 4, 0.0) == pytest.approx(
                1.0 + (n - 1.0) * tau, rel=1e-12
            )


class TestPerturbativeMoments:
    def test_zero_interrogation_reference(self):
        n = 40
        for tau in (0.0, 0.05):
            sx, sz2 = output_moments_perturbative(n, tau, 0.0, 0.0, 0.0)
            state = twisted(n, tau)
            assert sx == pytest.approx(expectation(state, SpinOp.SX), rel=1e-12)
            assert sz2 == pytest.approx(0.25 * n, rel=1e-12)

    def test_richardson_against_exact(self):
        # residual of the first-order formula shrinks ~4x when tau_tilde halves
        n, tau, alpha, beta = 50, 0.02, 0.3, -0.2

        def exact(tt):
            state = twisted(n, tau)
            state = apply_rotation(state, PulseSpec("x", alpha))
            state = apply_rotation(state, PulseSpec("x", math.pi / 2))
            state = apply_oat(state, tt)
            state = apply_rotation(state, PulseSpec("x", -math.pi / 2))
            state = apply_rotation(state, PulseSpec("x", beta))
            return expectation(state, SpinOp.SX), expectation(state, SpinOp.SZ2)

        residuals = []
        for tt in (1e-3, 5e-4, 2.5e-4):
            sx_e, sz2_e = exact(tt)
            sx_p, sz2_p = output_moments_perturbative(n, tau, tt, alpha, beta)
            residuals.append((abs(sx_e - sx_p), abs(sz2_e - sz2_p)))
        for i in range(2):
            assert residuals[i][0] / residuals[i + 1][0] >= 3.5
            assert residuals[i][1] / residuals[i + 1][1] >= 3.5

    def test_first_order_gain_matches_weak_gain(self):
        # assembled G^2 agrees with the first-order formula up to second order
        n = 100
        for alpha, beta in ((0.0, 0.25), (math.pi / 2, 0.1), (0.6, -0.4)):
            residuals = []
            for scale in (1.0, 0.5, 0.25):
                tau, tt = 2e-4 * scale, 1e-4 * scale
                sx, sz2 = output_moments_perturbative(n, tau, tt, alpha, beta)
                g2 = math.cos(beta) ** 2 * sx**2 / (n * sz2)
                residuals.append(abs(g2 - weak_gain(n, tau, tt, alpha, beta)))
            assert residuals[0] / residuals[1] >= 3.5
            assert residuals[1] / residuals[2] >= 3.5


class TestLadderMoments:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
    @pytest.mark.parametrize("tau", [0.07, 0.3])
    def test_against_dense_matrices(self, n, tau):
        psi = twisted(n, tau).amplitudes
        sp = operator_matrix(n, SpinOp.SP)
        sz = operator_matrix(n, SpinOp.SZ)
        sm = operator_matrix(n, SpinOp.SM)
        dense = {
            "sp": sp,
            "sp2": sp @ sp,
            "sp3": sp @ sp @ sp,
            "sp_sz": operator_matrix(n, SpinOp.SP_SZ),
            "sp2_sz": sp @ sp @ sz,
            "sp_sz2": sp @ sz @ sz,
            "sp_sm": operator_matrix(n, SpinOp.SP_SM),
            "sp2_sm": sp @ sp @ sm,
            "sz": sz,
            "sz2": operator_matrix(n, SpinOp.SZ2),
        }
        closed = twisted_ladder_moments(n, tau)
        for key, matrix in dense.items():
            reference = np.vdot(psi, matrix @ psi)
            assert closed[key] == pytest.approx(reference, abs=1e-12 * max(1.0, n**3))
