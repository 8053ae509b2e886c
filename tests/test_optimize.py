import math
from dataclasses import replace

import numpy as np
import pytest

from braggtrap import optimize
from braggtrap.closed_form import weak_gain, xi2_closed
from braggtrap.dicke import PulseSpec, apply_oat, apply_rotation, make_css, wineland_xi2
from braggtrap.optimize import (
    OptimizationSpec,
    alpha_H,
    optimize_alpha_beta,
    optimize_beta,
    scan_m,
    scan_trap,
)
from braggtrap.sequence import SequenceConfig, gain_at_zero
from braggtrap.trap import AtomTrapConfig, tau_accumulated, tau_tilde

HEADLINE_TRAP = AtomTrapConfig()  # Rb-87, N=1000, 2 pi {20, 20, 100} Hz
SMALL_SPEC = OptimizationSpec(alpha_grid=40)


def headline_sequence(m: float) -> SequenceConfig:
    tau_half = tau_accumulated(HEADLINE_TRAP, "gaussian", 0.5 * HEADLINE_TRAP.period)
    return SequenceConfig(
        n_atoms=1000,
        tau=2.0 * m * tau_half,
        tau_tilde=tau_tilde(HEADLINE_TRAP, "gaussian"),
    )


class TestSpecValidation:
    def test_grid_minimum(self):
        with pytest.raises(ValueError):
            OptimizationSpec(alpha_grid=7)

    def test_grid_maximum(self):
        # checked before the grid, its values and their lexsort are allocated;
        # the limit itself is allowed
        with pytest.raises(ValueError, match=r"alpha_grid.*1000000\]"):
            OptimizationSpec(alpha_mode="scan", alpha_grid=10**9)
        assert OptimizationSpec(alpha_mode="scan", alpha_grid=10**6).alpha_grid == 10**6

    def test_tolerance_range(self):
        with pytest.raises(ValueError):
            OptimizationSpec(refine_tolerance=0.0)
        with pytest.raises(ValueError):
            OptimizationSpec(refine_tolerance=0.2)

    def test_policy_names(self):
        with pytest.raises(ValueError):
            OptimizationSpec(alpha_mode="random")


class TestOptimizeBeta:
    def test_trivial_landscape(self):
        res = optimize_beta(SequenceConfig(n_atoms=50))
        assert abs(res.beta) <= 1e-4
        assert res.gain == pytest.approx(1.0, abs=1e-8)
        assert not res.flat_landscape

    def test_weak_regime_matches_first_order_argmax(self):
        # oracle: dense scan of the first-order gain formula
        n, tau = 100, 1e-3
        seq = SequenceConfig(n_atoms=n, tau=tau)
        res = optimize_beta(seq)
        betas = np.linspace(-math.pi / 2, math.pi / 2, 200001)
        oracle = betas[np.argmax([weak_gain(n, tau, 0.0, 0.0, b) for b in betas])]
        assert res.beta == pytest.approx(oracle, abs=5e-3)
        assert res.gain**2 >= weak_gain(n, tau, 0.0, 0.0, float(oracle)) - 1e-4

    def test_half_pi_policy_capped_at_shot_noise(self):
        seq = replace(headline_sequence(0.5), alpha=math.pi / 2)
        res = optimize_beta(seq)
        assert res.gain <= 1.0 + 0.02

    def test_no_grid_beta_beats_exact_optimum(self):
        seq = SequenceConfig(n_atoms=60, tau=0.03, tau_tilde=0.01)
        betas = np.linspace(-math.pi / 2, math.pi / 2, 723)[1:-1]
        for alpha in (0.0, alpha_H(60, 0.03), 1.0):
            cfg = replace(seq, alpha=alpha)
            best = optimize_beta(cfg).gain
            grid_best = max(gain_at_zero(replace(cfg, beta=float(b))).gain for b in betas)
            assert grid_best <= best * (1.0 + 1e-12)

    def test_result_reproduces_fresh_evaluation(self):
        seq = headline_sequence(1.0)
        res = optimize_beta(seq)
        fresh = gain_at_zero(replace(seq, beta=res.beta))
        assert res.gain == pytest.approx(fresh.gain, abs=1e-10)


class TestOptimizeAlphaBeta:
    def test_linear_limit_recovers_inverse_xi(self):
        # tau_tilde = 0: the joint optimum equals the linear gain 1/xi
        n, tau = 100, 0.02
        res = optimize_alpha_beta(SequenceConfig(n_atoms=n, tau=tau), SMALL_SPEC)
        assert res.gain == pytest.approx(1.0 / math.sqrt(xi2_closed(n, tau)), rel=1e-4)

    def test_weak_interactions_effortless_strategy(self):
        # alpha = 0 with optimized beta sits within 5% of the joint optimum
        seq = headline_sequence(1.0)
        joint = optimize_alpha_beta(seq, SMALL_SPEC)
        effortless = optimize_beta(seq)
        assert effortless.gain >= 0.95 * joint.gain

    def test_strong_interactions_need_joint_rotation(self):
        # deep in the degraded regime only the joint optimum stays competitive
        seq = headline_sequence(2.0)
        joint = optimize_alpha_beta(seq, SMALL_SPEC)
        fixed0 = optimize_beta(seq)
        fixed_half_pi = optimize_beta(replace(seq, alpha=math.pi / 2))
        fixed_h = optimize_beta(replace(seq, alpha=alpha_H(seq.n_atoms, seq.tau)))
        assert joint.gain > max(fixed0.gain, fixed_half_pi.gain, fixed_h.gain)

    def test_dominates_fixed_alpha(self):
        seq = headline_sequence(1.5)
        joint = optimize_alpha_beta(seq, SMALL_SPEC)
        assert joint.gain >= optimize_beta(seq).gain - 1e-6

    def test_deterministic(self):
        seq = headline_sequence(0.5)
        a = optimize_alpha_beta(seq, SMALL_SPEC)
        b = optimize_alpha_beta(seq, SMALL_SPEC)
        assert (a.gain, a.alpha, a.beta) == (b.gain, b.alpha, b.beta)


class TestJointSearch:
    """The batched alpha search against its per-point definitions."""

    CONFIGS = (headline_sequence(1.5), SequenceConfig(n_atoms=60, tau=0.05),
               SequenceConfig(n_atoms=3, tau=0.4, tau_tilde=-0.2))

    def test_result_is_optimize_beta_at_its_alpha(self):
        for seq in self.CONFIGS:
            res = optimize_alpha_beta(seq, SMALL_SPEC)
            assert res == optimize_beta(replace(seq, alpha=res.alpha))

    def test_block_g2_is_best_beta_of_each_row(self, monkeypatch):
        # the search ranks blocks from their moment arrays; each row's G^2
        # must be the per-point best_beta's to the bit
        from braggtrap.dicke import DickeState, spin_moments
        from braggtrap.sequence import best_beta

        blocks, values = [], []
        block_moments, beta_optimum = optimize.block_moments, optimize.beta_optimum

        def recorded_moments(n, block):
            blocks.append(np.array(block))
            return block_moments(n, block)

        def recorded_optimum(mom, n):
            values.append(beta_optimum(mom, n))
            return values[-1]

        monkeypatch.setattr(optimize, "block_moments", recorded_moments)
        monkeypatch.setattr(optimize, "beta_optimum", recorded_optimum)
        for seq in self.CONFIGS + (SequenceConfig(n_atoms=62, tau=0.03, tau_tilde=0.01),):
            blocks.clear()
            values.clear()
            optimize_alpha_beta(seq, SMALL_SPEC)
            assert len(blocks) == len(values) > 1
            for block, (g2, _) in zip(blocks, values):
                assert g2.tolist() == [best_beta(spin_moments(DickeState(seq.n_atoms, row)),
                                                 seq.n_atoms)[0] for row in block]

    def test_blocked_grid_matches_one_block(self, monkeypatch):
        seq, spec = self.CONFIGS[0], OptimizationSpec()
        row_bytes = 16 * (seq.n_atoms + 1)
        monkeypatch.setattr(optimize, "_BLOCK_BYTES", spec.alpha_grid * row_bytes)
        one_block = optimize_alpha_beta(seq, spec)
        for rows in (1, 7, 60):
            monkeypatch.setattr(optimize, "_BLOCK_BYTES", rows * row_bytes)
            res = optimize_alpha_beta(seq, spec)
            assert res.alpha == one_block.alpha
            assert res.gain == pytest.approx(one_block.gain, rel=1e-13)

    @staticmethod
    def _scalar_golden_max(f, lo, hi, tol):
        """The scalar golden-section search the lockstep one reproduces."""
        g = optimize._GOLDEN
        a, b = lo, hi
        c = b - g * (b - a)
        d = a + g * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(optimize._MAX_REFINE_ITER):
            if b - a < tol:
                break
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - g * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + g * (b - a)
                fd = f(d)
        return 0.5 * (a + b)

    def test_lockstep_golden_equals_scalar_search(self):
        # brackets with the peak inside, at an edge and outside, of both
        # widths the search uses; the plateau exercises ties
        h = math.pi / 181
        brackets = [(0.4 - h, 0.4 + h), (1.0, 1.0 + 2 * h), (-0.3, -0.3 + 2 * h),
                    (2.0 - h, 2.0 + h), (0.71 - h, 0.71 + h)]
        for shift in (0.4, 0.7123, 1.05, 2.0):
            for f in (lambda x: -(x - shift) ** 2, lambda x: min(0.0, -(x - shift) ** 3)):
                for tol in (1e-4, 1e-7):
                    evals = []

                    def block(points):
                        evals.append(len(points))
                        return [f(x) for x in points]

                    found = optimize._golden_max(block, brackets, tol)
                    assert found == [self._scalar_golden_max(f, lo, hi, tol)
                                     for lo, hi in brackets]
                    assert evals[0] == 2 * len(brackets)
                    assert set(evals[1:]) == {len(brackets)}

    def test_golden_stop_rule_steps_a_bracket_exactly_tol_wide(self):
        # the rule is width >= tol: a bracket exactly tol wide takes one more
        # step (f increasing, so it keeps the upper part), where > tol would
        # stop at once and return 0.5
        evals = []

        def block(points):
            evals.append(len(points))
            return list(points)

        found = optimize._golden_max(block, [(0.0, 1.0)], 1.0)
        assert evals == [2, 1]
        assert found == [0.5 * ((1.0 - optimize._GOLDEN) + 1.0)]


class TestAlphaH:
    def test_weak_limit(self):
        assert alpha_H(100, 1e-4) == pytest.approx(-math.pi / 4, abs=0.02)

    def test_flat_at_zero_twist(self):
        # rounding leaves a y-z anisotropy that grows with N
        for n in (100, 1000, 4000, 10**4, 10**5):
            assert alpha_H(n, 0.0) == 0.0

    def test_n2_branch(self):
        # oracle: fine grid over the exact Wineland parameter at S = 1
        tau = 0.3
        state = apply_oat(make_css(2, math.pi / 2, 0.0), tau)
        grid = np.linspace(-math.pi / 2, math.pi / 2, 40001)
        oracle = grid[np.argmin([
            wineland_xi2(apply_rotation(state, PulseSpec("x", float(a)))) for a in grid
        ])]
        found = alpha_H(2, tau)
        assert found == pytest.approx(oracle, abs=1e-3)
        # -pi/4 is the representative of the pi/4 mod pi/2 branch
        assert found == pytest.approx(-math.pi / 4, abs=1e-3)

    def test_minimizes_wineland(self):
        n, tau = 50, 0.05
        state = apply_oat(make_css(n, math.pi / 2, 0.0), tau)
        best = alpha_H(n, tau)
        xi_best = wineland_xi2(apply_rotation(state, PulseSpec("x", best)))
        assert xi_best == pytest.approx(xi2_closed(n, tau), rel=1e-6)


class TestScanM:
    def test_no_preparation_no_gain(self):
        rows = scan_m(HEADLINE_TRAP, [0.0])
        assert rows[0].tau == 0.0
        assert rows[0].gain <= 1.0 + 1e-6
        assert rows[0].gain_linear == pytest.approx(1.0, rel=1e-12)

    def test_headline_maximum(self):
        rows = scan_m(HEADLINE_TRAP, [0.5 * k for k in range(1, 11)])
        assert max(r.gain for r in rows) == pytest.approx(3.5, abs=0.5)

    def test_policy_dominance_pointwise(self):
        rows0 = scan_m(HEADLINE_TRAP, [0.5, 1.0])
        rows_scan = scan_m(
            HEADLINE_TRAP, [0.5, 1.0],
            OptimizationSpec(alpha_mode="scan", alpha_grid=40),
        )
        for fixed, scanned in zip(rows0, rows_scan):
            assert scanned.gain >= fixed.gain - 1e-6

    def test_rows_reproduce_fresh_gain(self):
        rows = scan_m(HEADLINE_TRAP, [1.0, 2.0])
        for row in rows:
            fresh = gain_at_zero(SequenceConfig(
                n_atoms=row.n_atoms, tau=row.tau, tau_tilde=row.tau_tilde,
                alpha=row.alpha, beta=row.beta,
            ))
            assert row.gain == pytest.approx(fresh.gain, abs=1e-10)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            scan_m(HEADLINE_TRAP, [0.3])
        with pytest.raises(ValueError, match="m must"):
            scan_m(HEADLINE_TRAP, [math.inf])


@pytest.fixture(scope="module")
def gamma_rows():
    spec = OptimizationSpec(alpha_mode="scan", alpha_grid=24)
    return scan_trap(HEADLINE_TRAP, "gamma", [0.2, 0.5, 1.0],
                     m_values=(0.5, 1.0), spec=spec)


class TestScanTrap:
    def test_rejects_bad_m(self):
        for m in (0.3, -1):
            with pytest.raises(ValueError, match="m must"):
                scan_trap(HEADLINE_TRAP, "gamma", [1.0], m_values=(m,))

    def test_linear_reference_wins_below_optimum(self, gamma_rows):
        tau_opt = 1.2 * 1000 ** (-2.0 / 3.0)
        checked = 0
        for row in gamma_rows:
            if row.tau <= tau_opt and row.tau_tilde > 0 and row.tau > 0:
                assert row.gain_linear >= row.gain - 1e-6
                checked += 1
        assert checked >= 4

    def test_more_oscillations_help_when_weak(self, gamma_rows):
        tau_opt = 1.2 * 1000 ** (-2.0 / 3.0)
        by_gamma = {}
        for row in gamma_rows:
            by_gamma.setdefault(row.gamma, {})[row.m] = row
        checked = 0
        for rows in by_gamma.values():
            if rows[1.0].tau <= 0.5 * tau_opt:
                assert rows[1.0].gain >= rows[0.5].gain - 1e-6
                checked += 1
        assert checked >= 1

    def test_gain_ceiling(self, gamma_rows):
        ceiling = 1000 ** (1.0 / 3.0) * 1.05
        assert all(row.gain <= ceiling for row in gamma_rows)
        assert all(row.gain_linear <= ceiling for row in gamma_rows)

    def test_omega_sweep_shape(self):
        spec = OptimizationSpec(alpha_mode="scan", alpha_grid=16)
        spherical = HEADLINE_TRAP.with_aspect_ratio(1.0)
        rows = scan_trap(spherical, "omega_z", [2 * math.pi * 60.0, 2 * math.pi * 120.0],
                         m_values=(0.5,), spec=spec)
        assert [round(r.omega_z / (2 * math.pi)) for r in rows] == [60, 120]
        assert all(r.gamma == pytest.approx(1.0) for r in rows)

    def test_default_policy_is_alpha_fixed(self):
        args = (HEADLINE_TRAP, "gamma", [0.5], (1.0,))
        assert scan_trap(*args) == scan_trap(*args, spec=OptimizationSpec())

    def test_rejects_bad_sweep(self):
        with pytest.raises(ValueError):
            scan_trap(HEADLINE_TRAP, "mass", [1.0])
        with pytest.raises(ValueError):
            scan_trap(HEADLINE_TRAP, "gamma", [-0.5])
