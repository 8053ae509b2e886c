import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from braggtrap import dicke, optimize, sequence
from braggtrap.closed_form import weak_gain, xi2_closed
from braggtrap.dicke import SpinOp, expectation, make_css, operator_matrix
from braggtrap.errors import FlatSlopeError
from braggtrap.optimize import optimize_alpha_beta
from braggtrap.sequence import (
    SequenceConfig,
    gain_at_zero,
    output_moments,
    pre_phase_block,
    pre_phase_state,
    prepared_state,
    run_sequence,
    run_sequence_stepwise,
    sensitivity,
    sequence_from_trap,
    signal_curve,
)
from braggtrap.trap import AtomTrapConfig, gravity_phase, tau_accumulated, tau_tilde


def dense_output(cfg: SequenceConfig) -> np.ndarray:
    """Paper-ordered product of dense exponentials, small N oracle."""
    n = cfg.n_atoms
    sx = operator_matrix(n, SpinOp.SX)
    sz = operator_matrix(n, SpinOp.SZ)
    sz2 = sz @ sz
    unitary = (
        expm(1j * math.pi / 2 * sx)
        @ expm(-1j * cfg.beta * sx)
        @ expm(-1j * cfg.tau_tilde * sz2)
        @ expm(-1j * cfg.theta * sz)
        @ expm(-1j * math.pi / 2 * sx)
        @ expm(-1j * cfg.alpha * sx)
    )
    m = 0.5 * n - np.arange(n + 1)
    psi = np.exp(-1j * cfg.tau * m**2) * make_css(n, math.pi / 2, 0.0).amplitudes
    return unitary @ psi


class TestRunSequence:
    def test_all_zero_is_identity(self):
        out = run_sequence(SequenceConfig(n_atoms=12))
        np.testing.assert_allclose(
            out.amplitudes, make_css(12, math.pi / 2, 0.0).amplitudes, atol=1e-13
        )

    def test_phase_encoding_sign(self):
        # convention pinned by the dense N=2 product: <S_z> = -S sin(theta)
        for n, theta in ((2, 0.3), (20, -1.2), (501, 2.0)):
            _, sz, _ = output_moments(SequenceConfig(n_atoms=n, theta=theta))
            assert sz == pytest.approx(-0.5 * n * math.sin(theta), abs=1e-9 * n)

    def test_matches_dense_unitary(self, rng):
        for _ in range(12):
            n = int(rng.integers(2, 14))
            cfg = SequenceConfig(
                n_atoms=n,
                tau=float(rng.uniform(-0.5, 0.5)),
                tau_tilde=float(rng.uniform(-0.5, 0.5)),
                alpha=float(rng.uniform(-1.5, 1.5)),
                beta=float(rng.uniform(-1.5, 1.5)),
                theta=float(rng.uniform(-2.0, 2.0)),
            )
            np.testing.assert_allclose(
                run_sequence(cfg).amplitudes, dense_output(cfg), atol=1e-12
            )

    def test_pulse_paths_agree(self, rng):
        # conjugated diagonal route vs stepwise laboratory route
        for _ in range(50):
            n = int(rng.integers(2, 101))
            cfg = SequenceConfig(
                n_atoms=n,
                tau=float(rng.uniform(-0.3, 0.3)),
                tau_tilde=float(rng.uniform(-0.3, 0.3)),
                alpha=float(rng.uniform(-math.pi, math.pi)),
                beta=float(rng.uniform(-math.pi, math.pi)),
                theta=float(rng.uniform(-math.pi, math.pi)),
            )
            dev = np.max(np.abs(
                run_sequence(cfg).amplitudes - run_sequence_stepwise(cfg).amplitudes
            ))
            assert dev <= 1e-10

    def test_conjugation_identity_dense(self, rng):
        # R_x^dag(pi/2) exp(-i(tt Sz^2 + th Sz)) R_x(pi/2) = exp(-i(tt Sy^2 + th Sy))
        for n in (2, 7, 13, 20):
            sx = operator_matrix(n, SpinOp.SX)
            sy = operator_matrix(n, SpinOp.SY)
            sz = operator_matrix(n, SpinOp.SZ)
            tt, th = float(rng.uniform(0.0, 0.4)), float(rng.uniform(-1.0, 1.0))
            rot = expm(-1j * math.pi / 2 * sx)
            lhs = rot.conj().T @ expm(-1j * (tt * sz @ sz + th * sz)) @ rot
            rhs = expm(-1j * (tt * sy @ sy + th * sy))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_norm_preserved(self):
        cfg = SequenceConfig(n_atoms=1000, tau=0.01, tau_tilde=0.002,
                             alpha=0.4, beta=-0.8, theta=1.0)
        out = run_sequence(cfg)
        assert abs(np.sum(out.populations()) - 1.0) <= 1e-10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SequenceConfig(n_atoms=1)
        with pytest.raises(ValueError):
            SequenceConfig(n_atoms=10, tau=math.inf)


class TestGainAtZero:
    def test_shot_noise_reference(self):
        res = gain_at_zero(SequenceConfig(n_atoms=100))
        assert res.gain == pytest.approx(1.0, rel=1e-12)
        assert res.delta_theta == pytest.approx(0.1, rel=1e-12)
        assert res.xi == pytest.approx(1.0, rel=1e-12)

    def test_linear_gain_near_cube_root(self):
        # tau at the squeezing optimum, no interrogation twisting
        from braggtrap.optimize import alpha_H

        alpha = alpha_H(1000, 0.012)
        res = gain_at_zero(SequenceConfig(n_atoms=1000, tau=0.012, alpha=alpha))
        assert res.gain == pytest.approx(10.0, rel=0.15)
        assert res.gain == pytest.approx(1.0 / math.sqrt(xi2_closed(1000, 0.012)), rel=1e-6)

    def test_weak_regime_matches_first_order(self):
        # residual against the first-order gain shrinks ~4x per halving
        n, alpha, beta = 100, 0.0, 0.3
        residuals = []
        for scale in (1.0, 0.5, 0.25):
            tau = 1e-4 * scale
            res = gain_at_zero(SequenceConfig(n_atoms=n, tau=tau, tau_tilde=tau,
                                              alpha=alpha, beta=beta))
            residuals.append(abs(res.gain**2 - weak_gain(n, tau, tau, alpha, beta)))
        assert residuals[0] / residuals[1] >= 3.5
        assert residuals[1] / residuals[2] >= 3.5

    def test_gain_consistency_identity(self):
        res = gain_at_zero(SequenceConfig(n_atoms=400, tau=0.01, tau_tilde=0.001,
                                          alpha=0.3, beta=0.2))
        assert res.delta_theta * math.sqrt(400) * res.gain == pytest.approx(1.0, rel=1e-12)


class TestSensitivity:
    def test_shot_noise_at_zero(self):
        res = sensitivity(SequenceConfig(n_atoms=64))
        assert res.delta_theta == pytest.approx(1.0 / 8.0, rel=1e-12)

    def test_insensitive_point_raises(self):
        with pytest.raises(FlatSlopeError):
            sensitivity(SequenceConfig(n_atoms=10, theta=math.pi / 2))

    def test_sub_shot_noise_optimized(self):
        seq = SequenceConfig(n_atoms=500, tau=0.01, tau_tilde=0.002)
        best = optimize_alpha_beta(seq)
        res = sensitivity(replace(seq, alpha=best.alpha, beta=best.beta))
        assert res.delta_theta < 1.0 / math.sqrt(500)
        assert res.gain > 1.0

    def test_finite_difference_matches_analytic(self):
        # the slope is exactly -cos(beta) <S_x>_out at every theta; a central
        # difference of <S_z> agrees with it to 1e-6 relative
        for cfg in (
            SequenceConfig(n_atoms=50, tau=0.05, tau_tilde=0.01, alpha=0.4, beta=0.2),
            SequenceConfig(n_atoms=500, tau=0.008, tau_tilde=0.001, alpha=-0.6, beta=0.5),
            SequenceConfig(n_atoms=50, tau=0.05, tau_tilde=0.01, alpha=0.4, beta=0.2,
                           theta=0.3),
            SequenceConfig(n_atoms=200, tau=0.02, tau_tilde=0.004, alpha=-0.5, beta=-0.7,
                           theta=-1.1),
            SequenceConfig(n_atoms=500, tau=0.008, tau_tilde=0.001, alpha=-0.6, beta=0.5,
                           theta=2.0),
        ):
            sx, _, _ = output_moments(cfg)
            slope = sensitivity(cfg).d_sz_d_theta
            assert slope == -math.cos(cfg.beta) * sx
            h = 1e-5
            _, up, _ = output_moments(replace(cfg, theta=cfg.theta + h))
            _, dn, _ = output_moments(replace(cfg, theta=cfg.theta - h))
            fd = (up - dn) / (2.0 * h)
            assert fd == pytest.approx(slope, rel=1e-6)

    def test_general_theta_uses_analytic_slope(self):
        cfg = SequenceConfig(n_atoms=40, theta=0.7)
        res = sensitivity(cfg)
        # pure rotation: slope is -S cos(theta), variance frozen at S/2
        assert res.d_sz_d_theta == pytest.approx(-20.0 * math.cos(0.7), rel=1e-6)

    def test_gain_at_zero_is_sensitivity_at_zero(self):
        cfg = SequenceConfig(n_atoms=300, tau=0.01, tau_tilde=0.002,
                             alpha=0.3, beta=0.2, theta=1.3)
        assert gain_at_zero(cfg) == sensitivity(replace(cfg, theta=0.0))


class TestSignalCurve:
    def test_sinusoid(self):
        rows = signal_curve(SequenceConfig(n_atoms=30), np.linspace(-math.pi, math.pi, 25))
        for theta, sz, var in rows:
            assert sz == pytest.approx(-15.0 * math.sin(theta), abs=1e-9)
            # rotated coherent state: Var S_z = (S/2) cos^2(theta)
            assert var == pytest.approx(7.5 * math.cos(theta) ** 2, abs=1e-9)

    def test_periodicity_without_interrogation_twist(self):
        cfg = SequenceConfig(n_atoms=21, tau=0.05, alpha=0.3, beta=-0.2)
        lo = signal_curve(cfg, [0.4])[0]
        hi = signal_curve(cfg, [0.4 + 2.0 * math.pi])[0]
        assert lo[1] == pytest.approx(hi[1], abs=1e-10)
        assert lo[2] == pytest.approx(hi[2], abs=1e-10)

    def test_spin_bound(self):
        cfg = SequenceConfig(n_atoms=16, tau=0.2, tau_tilde=0.1, alpha=1.0, beta=0.5)
        rows = signal_curve(cfg, np.linspace(0.0, 2.0 * math.pi, 40))
        assert max(abs(sz) for _, sz, _ in rows) <= 8.0 + 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            signal_curve(SequenceConfig(n_atoms=4), [])

    def test_scalar_grid_rejected(self):
        with pytest.raises(ValueError, match="theta_grid"):
            signal_curve(SequenceConfig(n_atoms=2), 0.5)

    def test_non_finite_theta_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            signal_curve(SequenceConfig(n_atoms=4), [0.1, math.nan])

    def test_rows_match_output_state(self, rng):
        # the moment algebra on chi against moments of the full output state
        for _ in range(6):
            n = int(rng.integers(20, 400))
            cfg = SequenceConfig(
                n_atoms=n,
                tau=float(rng.uniform(0.001, 0.05)),
                tau_tilde=float(rng.uniform(0.001, 0.02)),
                alpha=float(rng.uniform(-1.5, 1.5)),
                beta=float(rng.uniform(-1.5, 1.5)),
            )
            thetas = rng.uniform(-3.0, 3.0, size=9)
            for theta, sz, var in signal_curve(cfg, thetas):
                out = run_sequence_stepwise(replace(cfg, theta=theta))
                ref = expectation(out, SpinOp.SZ)
                ref_var = expectation(out, SpinOp.SZ2) - ref * ref
                assert abs(sz - ref) <= 1e-12 * 0.5 * n
                assert abs(var - ref_var) <= 1e-12 * (0.5 * n) ** 2


class TestPrePhaseBlock:
    def test_rows_match_pre_phase_state(self):
        h = math.pi / 181
        alphas = [0.0, 0.37, -1.2, math.pi - h]
        # N even builds the sector from an SVD of its sublattice block (a
        # zero mode when N = 0 mod 4); N odd from eigh
        for n in (2, 3, 4, 60, 1000, 1001, 1002):
            for tt in (0.0, 0.013):
                cfg = SequenceConfig(n_atoms=n, tau=0.02, tau_tilde=tt)
                rows = pre_phase_block(cfg)(alphas)
                for alpha, row in zip(alphas, rows):
                    ref = pre_phase_state(prepared_state(cfg), alpha, tt).amplitudes
                    assert np.max(np.abs(row - ref)) <= 1e-13, (n, tt, alpha)

    def test_joint_search_builds_the_even_sector_only(self, monkeypatch):
        built = []
        sector = dicke._sx_eigensystem

        def recorded(n, parity):
            built.append((n, parity))
            return sector(n, parity)

        def never(n):
            raise AssertionError("the alpha search must not assemble the full eigenbasis")

        monkeypatch.setattr(dicke, "_sx_eigensystem", recorded)
        monkeypatch.setattr(dicke, "_sx_eigenbasis", never)
        optimize.optimize_alpha_beta(SequenceConfig(n_atoms=61, tau=0.02, tau_tilde=0.01))
        assert built == [(61, 1)]


class TestRotationCount:
    """Every gain, fringe and beta optimum reads one moment pass on chi."""

    @pytest.fixture
    def x_rotations(self, monkeypatch):
        calls = []
        original = dicke.apply_rotation

        def counted(state, pulse):
            if pulse.axis == "x" and pulse.angle != 0.0:
                calls.append(pulse.angle)
            return original(state, pulse)

        for module in (dicke, sequence, optimize):
            if getattr(module, "apply_rotation", None) is original:
                monkeypatch.setattr(module, "apply_rotation", counted)
        return calls

    CFG = SequenceConfig(n_atoms=60, tau=0.02, tau_tilde=0.005, alpha=0.4, beta=-0.3)

    def test_gain_at_zero(self, x_rotations):
        gain_at_zero(self.CFG)
        assert len(x_rotations) == 1

    def test_signal_curve(self, x_rotations):
        signal_curve(self.CFG, np.linspace(-math.pi, math.pi, 73))
        assert len(x_rotations) == 1

    def test_optimize_beta(self, x_rotations):
        optimize.optimize_beta(self.CFG)
        assert len(x_rotations) == 1

    def test_optimize_alpha_beta(self, x_rotations):
        # the alpha samples run batched; only the winner is re-evaluated
        # per point
        optimize.optimize_alpha_beta(self.CFG)
        assert len(x_rotations) == 1


class TestWeakCancellation:
    def test_equal_twists_cancel_at_first_order(self):
        # with tau_tilde = tau and alpha = 0 the first-order gain term
        # vanishes, so G^2 - 1 must shrink faster than tau
        n = 100
        excesses = []
        for tau in (4e-4, 2e-4, 1e-4):
            res = gain_at_zero(SequenceConfig(n_atoms=n, tau=tau, tau_tilde=tau))
            excesses.append(abs(res.gain**2 - 1.0))
        assert excesses[0] / excesses[1] >= 3.5
        assert excesses[1] / excesses[2] >= 3.5


class TestSequenceFromTrap:
    def test_builder_wires_trap_physics(self):
        trap = AtomTrapConfig(omega_z_tilde=2.0 * math.pi * 80.0, oscillations=1.5)
        seq = sequence_from_trap(trap, model="gaussian", alpha=0.1, beta=-0.2)
        assert seq.n_atoms == trap.n_atoms
        assert seq.tau == pytest.approx(
            tau_accumulated(trap, "gaussian", 1.5 * trap.period), rel=1e-12
        )
        assert seq.tau_tilde == pytest.approx(tau_tilde(trap, "gaussian"), rel=1e-12)
        assert seq.theta == pytest.approx(gravity_phase(trap), rel=1e-12)
        assert seq.alpha == 0.1
        assert seq.beta == -0.2
