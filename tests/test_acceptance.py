"""End-to-end acceptance checks, one per release criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
and asserts at the tolerance pinned in its body.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from braggtrap.closed_form import oat_moments_closed, weak_gain, xi2_closed
from braggtrap.dicke import (
    PulseSpec,
    SpinOp,
    apply_oat,
    apply_rotation,
    expectation,
    husimi_grid,
    make_css,
    operator_matrix,
    wigner_d,
    wineland_xi2,
)
from braggtrap.optimize import OptimizationSpec, optimize_alpha_beta, optimize_beta, scan_m, scan_trap
from braggtrap.sequence import SequenceConfig, gain_at_zero, run_sequence, run_sequence_stepwise
from braggtrap.trap import AtomTrapConfig, derive_trap, gravity_phase, tau_accumulated, tau_tilde

from conftest import random_state

HEADLINE_TRAP = AtomTrapConfig()  # Rb-87, N = 1000, 2 pi {20, 20, 100} Hz


def _report(number: int, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def _xi_min_exact(n_atoms: int, tau: float) -> float:
    """Orientation-optimized Wineland xi from exact state moments."""
    state = apply_oat(make_css(n_atoms, 0.5 * math.pi, 0.0), tau)
    sp = complex(expectation(state, SpinOp.SP))
    q = complex(expectation(state, SpinOp.SP_SZ)) + 0.5 * sp
    sy2 = expectation(state, SpinOp.SY2)
    sz2 = expectation(state, SpinOp.SZ2)
    var_min = 0.5 * (sy2 + sz2) - 0.5 * math.hypot(sy2 - sz2, 2.0 * q.imag)
    return math.sqrt(n_atoms * var_min / abs(sp) ** 2)


def test_criterion_1_squeezing_optimum():
    start = time.monotonic()
    taus = np.linspace(0.004, 0.025, 176)
    xis = [_xi_min_exact(1000, float(t)) for t in taus]
    runtime = time.monotonic() - start
    idx = int(np.argmin(xis))
    xi_min, tau_opt = xis[idx], float(taus[idx])
    ok = (
        abs(xi_min - 0.100) <= 0.10 * 0.100
        and abs(tau_opt - 0.012) <= 0.15 * 0.012
        and runtime < 10.0
    )
    _report(1, ok, f"N=1000 sweep: min xi = {xi_min:.4f} (want 0.100 +/- 10%), "
                   f"tau_opt = {tau_opt:.4f} (want 0.012 +/- 15%), {runtime:.1f}s")


def test_criterion_2_closed_form_oracle_equivalence():
    worst = 0.0
    for n in (2, 6, 20, 100):
        for tau in (0.0, 0.01, 0.05, 0.2):
            state = apply_oat(make_css(n, 0.5 * math.pi, 0.0), tau)
            closed_xi2 = xi2_closed(n, tau)
            exact_xi2 = _xi_min_exact(n, tau) ** 2
            worst = max(worst, abs(closed_xi2 - exact_xi2) / exact_xi2)
            for alpha in np.linspace(0.0, math.pi, 10, endpoint=False):
                rotated = apply_rotation(state, PulseSpec("x", float(alpha)))
                mom = oat_moments_closed(n, tau, float(alpha))
                for label, value in ((SpinOp.SX, mom.sx), (SpinOp.SY2, mom.sy2),
                                     (SpinOp.SZ2, mom.sz2)):
                    exact = expectation(rotated, label)
                    scale = max(abs(exact), 1e-9)
                    worst = max(worst, abs(value - exact) / scale)
    _report(2, worst <= 1e-9, f"closed vs exact moments and xi^2: worst rel dev {worst:.2e} (want <= 1e-9)")


def test_criterion_3_weak_nlai_first_order():
    n = 100
    scales = (1e-3, 5e-4, 2.5e-4)
    worst_ratio = math.inf
    for alpha, beta in ((0.0, 0.3), (math.pi / 2, 0.15), (0.5, -0.2)):
        residual = {}
        for tau in scales:
            for tt in scales:
                exact = gain_at_zero(SequenceConfig(
                    n_atoms=n, tau=tau, tau_tilde=tt, alpha=alpha, beta=beta)).gain ** 2
                residual[(tau, tt)] = abs(exact - weak_gain(n, tau, tt, alpha, beta))
        for (tau, tt), value in residual.items():
            halved = (tau / 2, tt / 2)
            if halved in residual:
                worst_ratio = min(worst_ratio, value / residual[halved])
    _report(3, worst_ratio >= 3.5,
            f"first-order residual shrink per halving: worst {worst_ratio:.2f} (want >= 3.5)")


def test_criterion_4_gaussian_thomas_fermi_ratio():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        nu_z = rng.uniform(30.0, 300.0)
        gamma = rng.uniform(0.2, 3.0)
        cfg = AtomTrapConfig(
            atom_mass=float(rng.uniform(0.3, 3.0)) * 1.4431e-25,
            scattering_length=float(rng.uniform(1.0, 10.0)) * 1e-9,
            n_atoms=int(rng.integers(100, 5000)),
            omega_x=2 * math.pi * nu_z * gamma,
            omega_y=2 * math.pi * nu_z * gamma,
            omega_z=2 * math.pi * nu_z,
        )
        ratio = derive_trap(cfg, "gaussian").chi_max / derive_trap(cfg, "thomas_fermi").chi_max
        worst = max(worst, abs(ratio - 1.08))
    _report(4, worst <= 0.01, f"chi_max gaussian/thomas_fermi = 1.08 +/- {worst:.4f} (want +/- 0.01)")


def test_criterion_5_headline_gain():
    rows = scan_m(HEADLINE_TRAP, [0.5 * k for k in range(1, 11)])
    best = max(rows, key=lambda r: r.gain)
    ok = abs(best.gain - 3.5) <= 0.5
    _report(5, ok, f"max over m of G(alpha=0, beta_opt) = {best.gain:.3f} at m = {best.m} "
                   f"(want 3.5 +/- 0.5; sensitive to the mode-trajectory and "
                   f"interrogation-window modeling choices recorded in the design notes)")


def test_criterion_6_gain_ceiling():
    ceiling = 1000 ** (1.0 / 3.0) * 1.05
    spec = OptimizationSpec(alpha_mode="scan")
    rows = list(scan_m(HEADLINE_TRAP, [0.5 * k for k in range(0, 11)]))
    rows += scan_trap(HEADLINE_TRAP, "gamma", [0.2, 0.5, 1.0], m_values=(0.5, 1.0), spec=spec)
    rows += scan_trap(HEADLINE_TRAP.with_aspect_ratio(1.0), "omega_z",
                      [2 * math.pi * 50.0, 2 * math.pi * 200.0], m_values=(0.5, 1.0), spec=spec)
    worst = max(max(r.gain, r.gain_linear) for r in rows)
    _report(6, worst <= ceiling,
            f"max optimized gain over scans = {worst:.3f} (ceiling N^(1/3)*1.05 = {ceiling:.3f})")


def test_criterion_7_sequence_path_equivalence():
    rng = np.random.default_rng(7)
    worst_amp = 0.0
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
        dev = np.max(np.abs(run_sequence(cfg).amplitudes
                            - run_sequence_stepwise(cfg).amplitudes))
        worst_amp = max(worst_amp, float(dev))
    worst_mat = 0.0
    for n in (2, 8, 14, 20):
        sx = operator_matrix(n, SpinOp.SX)
        sy = operator_matrix(n, SpinOp.SY)
        sz = operator_matrix(n, SpinOp.SZ)
        tt, th = float(rng.uniform(0.0, 0.4)), float(rng.uniform(-1.0, 1.0))
        rot = expm(-1j * math.pi / 2 * sx)
        lhs = rot.conj().T @ expm(-1j * (tt * sz @ sz + th * sz)) @ rot
        rhs = expm(-1j * (tt * sy @ sy + th * sy))
        worst_mat = max(worst_mat, float(np.max(np.abs(lhs - rhs))))
    ok = worst_amp <= 1e-10 and worst_mat <= 1e-12
    _report(7, ok, f"pulse vs conjugated paths: amplitudes {worst_amp:.2e} (<= 1e-10), "
                   f"dense conjugation identity {worst_mat:.2e} (<= 1e-12)")


def test_criterion_8_gravity_phase():
    cfg = AtomTrapConfig(k0=1.611e7, gravity=9.81,
                         omega_z_tilde=2 * math.pi * 80.0)
    independent = 2.0 * 1.611e7 * 9.81 * (
        1.0 / (2 * math.pi * 80.0) ** 2 - 1.0 / (2 * math.pi * 100.0) ** 2
    )
    rel = abs(gravity_phase(cfg) - independent) / independent
    zero = gravity_phase(AtomTrapConfig())
    ok = rel <= 1e-12 and zero == 0.0
    _report(8, ok, f"theta = {gravity_phase(cfg):.3f} rad, rel dev {rel:.2e} (<= 1e-12), "
                   f"equal-trap phase = {zero}")


def test_criterion_9_property_suite():
    start = time.monotonic()
    rng = np.random.default_rng(9)
    # unitarity across operations
    worst_norm = 0.0
    for n in (2, 17, 100, 1000):
        state = random_state(n, rng)
        state = apply_oat(state, 0.7)
        state = apply_rotation(state, PulseSpec("x", 0.9))
        state = apply_rotation(state, PulseSpec("y", -1.3))
        state = apply_rotation(state, PulseSpec("z", 2.1))
        worst_norm = max(worst_norm, abs(float(np.sum(state.populations())) - 1.0))
    # commutators on dense matrices
    worst_comm = 0.0
    for n in (2, 9, 20):
        ops = {a: operator_matrix(n, f"s{a}") for a in "xyz"}
        for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            resid = ops[a] @ ops[b] - ops[b] @ ops[a] - 1j * ops[c]
            worst_comm = max(worst_comm, float(np.max(np.abs(resid))) / max(1.0, n))
    # Husimi normalization
    husimi_dev = abs(husimi_grid(
        apply_oat(make_css(100, 0.5 * math.pi, 0.0), 0.05), 64, 128
    ).sphere_integral() - 1.0)
    # twisting leaves populations untouched
    state = random_state(300, rng)
    pop_dev = float(np.max(np.abs(apply_oat(state, 1.9).populations()
                                  - state.populations())))
    # rotation backend against dense exponentials
    worst_rot = 0.0
    for n in (5, 25, 50):
        sy = operator_matrix(n, SpinOp.SY)
        psi = random_state(n, rng).amplitudes
        for angle in rng.uniform(-2 * math.pi, 2 * math.pi, 20):
            ref = expm(-1j * float(angle) * sy) @ psi
            worst_rot = max(worst_rot, float(np.max(np.abs(
                wigner_d(n, float(angle)) @ psi - ref))))
    runtime = time.monotonic() - start
    ok = (worst_norm <= 1e-10 and worst_comm <= 1e-13 and husimi_dev <= 0.02
          and pop_dev <= 1e-15 and worst_rot <= 1e-9 and runtime < 60.0)
    _report(9, ok, f"norm {worst_norm:.1e}/1e-10, commutators {worst_comm:.1e}/1e-13, "
                   f"husimi {husimi_dev:.1e}/2e-2, populations {pop_dev:.1e}/1e-15, "
                   f"rotations {worst_rot:.1e}/1e-9, runtime {runtime:.1f}s/60s")


def test_criterion_10_weak_regime_policy_ordering():
    # weak-interaction point of the headline trap: prepared twisting well
    # below the optimum and dominating the interrogation twist
    tau_half = tau_accumulated(HEADLINE_TRAP, "gaussian", 0.5 * HEADLINE_TRAP.period)
    seq = SequenceConfig(n_atoms=1000, tau=2.0 * tau_half,
                         tau_tilde=tau_tilde(HEADLINE_TRAP, "gaussian"))
    joint = optimize_alpha_beta(seq)
    effortless = optimize_beta(seq)
    capped = optimize_beta(replace(seq, alpha=math.pi / 2))
    ok = effortless.gain >= 0.95 * joint.gain and capped.gain <= 1.01
    _report(10, ok, f"G(alpha=0)/G(joint) = {effortless.gain / joint.gain:.4f} (want >= 0.95), "
                    f"G(alpha=pi/2) = {capped.gain:.4f} (want <= 1.01)")
