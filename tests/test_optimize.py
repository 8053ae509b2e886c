import math
from dataclasses import replace

import numpy as np
import pytest

from braggtrap import optimize
from braggtrap.closed_form import weak_gain, xi2_closed
from braggtrap.dicke import (
    PulseSpec,
    apply_oat,
    apply_rotation,
    make_css,
    spin_moments,
    wineland_xi2,
)
from braggtrap.optimize import (
    OptimizationSpec,
    alpha_H,
    optimize_alpha_beta,
    optimize_beta,
    scan_m,
    scan_trap,
)
from braggtrap.sequence import SequenceConfig, gain_at_zero, pre_phase_state, prepared_state
from braggtrap.trap import AtomTrapConfig, tau_accumulated, tau_tilde

HEADLINE_TRAP = AtomTrapConfig()  # Rb-87, N=1000, 2 pi {20, 20, 100} Hz


def headline_sequence(m: float) -> SequenceConfig:
    tau_half = tau_accumulated(HEADLINE_TRAP, "gaussian", 0.5 * HEADLINE_TRAP.period)
    return SequenceConfig(
        n_atoms=1000,
        tau=2.0 * m * tau_half,
        tau_tilde=tau_tilde(HEADLINE_TRAP, "gaussian"),
    )


class TestSpecValidation:
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
        res = optimize_alpha_beta(SequenceConfig(n_atoms=n, tau=tau))
        assert res.gain == pytest.approx(1.0 / math.sqrt(xi2_closed(n, tau)), rel=1e-4)

    def test_weak_interactions_effortless_strategy(self):
        # alpha = 0 with optimized beta sits within 5% of the joint optimum
        seq = headline_sequence(1.0)
        joint = optimize_alpha_beta(seq)
        effortless = optimize_beta(seq)
        assert effortless.gain >= 0.95 * joint.gain

    def test_strong_interactions_need_joint_rotation(self):
        # deep in the degraded regime only the joint optimum stays competitive
        seq = headline_sequence(2.0)
        joint = optimize_alpha_beta(seq)
        fixed0 = optimize_beta(seq)
        fixed_half_pi = optimize_beta(replace(seq, alpha=math.pi / 2))
        fixed_h = optimize_beta(replace(seq, alpha=alpha_H(seq.n_atoms, seq.tau)))
        assert joint.gain > max(fixed0.gain, fixed_half_pi.gain, fixed_h.gain)

    def test_dominates_fixed_alpha(self):
        seq = headline_sequence(1.5)
        joint = optimize_alpha_beta(seq)
        assert joint.gain >= optimize_beta(seq).gain - 1e-6

    def test_deterministic(self):
        seq = headline_sequence(0.5)
        a = optimize_alpha_beta(seq)
        b = optimize_alpha_beta(seq)
        assert (a.gain, a.alpha, a.beta) == (b.gain, b.alpha, b.beta)


class TestJointSearch:
    """The batched alpha search against its per-point definitions."""

    CONFIGS = (headline_sequence(1.5), SequenceConfig(n_atoms=60, tau=0.05),
               SequenceConfig(n_atoms=3, tau=0.4, tau_tilde=-0.2))
    # N = 200 at N tau_tilde = 10 needs K = 128 samples
    DOUBLED = SequenceConfig(n_atoms=200, tau=0.05, tau_tilde=0.05)

    def test_result_is_optimize_beta_at_its_alpha(self):
        for seq in self.CONFIGS:
            res = optimize_alpha_beta(seq)
            assert res == optimize_beta(replace(seq, alpha=res.alpha))

    def test_interpolant_matches_per_point_moments(self):
        # off-sample alphas against the per-point moment pass; the bound is
        # the sampling tail, in units of S for the means and S^2 for the rest
        alphas = np.array([0.0123, 0.3, 0.777, 1.2345, 1.6, 2.5, 3.1])
        configs = [SequenceConfig(n_atoms=n, tau=0.3 * n ** (-2 / 3),
                                  tau_tilde=0.15 * n ** (-2 / 3))
                   for n in (2, 3, 62, 1000, 1001)]
        for seq in configs + [self.DOUBLED]:
            got = np.array(optimize._moments_at(optimize._moment_series(seq), alphas))
            want = np.array([spin_moments(pre_phase_state(prepared_state(seq), a, seq.tau_tilde))
                             for a in alphas]).T
            spin = 0.5 * seq.n_atoms
            scale = np.array([[spin]] * 3 + [[spin * spin]] * 6)
            assert np.all(np.abs(got - want) <= 1e-13 * scale), seq.n_atoms
        assert optimize._moment_series(self.DOUBLED).shape[1] >= 64  # K >= 128

    def test_doubled_search_beats_a_fine_grid(self):
        seq = self.DOUBLED
        best = optimize_alpha_beta(seq).gain
        for alpha in np.linspace(0.0, math.pi, 2001, endpoint=False):
            assert optimize_beta(replace(seq, alpha=float(alpha))).gain <= best

    def test_flat_landscape_picks_alpha_zero(self):
        # at tau = 0 the +x state is an S_x eigenstate, so chi does not depend
        # on alpha; the tie rule, not rounding, must decide
        for n in (10, 1000):
            assert optimize_alpha_beta(SequenceConfig(n_atoms=n, tau_tilde=0.01)).alpha == 0.0

    def test_blocked_grid_matches_one_block(self, monkeypatch):
        # alpha comes from comparisons only, so the block size must not move it
        for seq in (self.CONFIGS[0], self.DOUBLED):
            row_bytes = 16 * (seq.n_atoms + 1)
            monkeypatch.setattr(optimize, "_BLOCK_BYTES", 1 << 40)
            one_block = optimize_alpha_beta(seq)
            for rows in (1, 7, 60):
                monkeypatch.setattr(optimize, "_BLOCK_BYTES", rows * row_bytes)
                assert optimize_alpha_beta(seq) == one_block


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
            OptimizationSpec(alpha_mode="scan"),
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
    spec = OptimizationSpec(alpha_mode="scan")
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
        spec = OptimizationSpec(alpha_mode="scan")
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
