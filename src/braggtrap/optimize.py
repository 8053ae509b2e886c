"""Gain optimization over the pre/post rotation angles and parameter scans.

For a given alpha, one moment pass on the state before the phase
(``sequence.pre_phase_state``) gives the exact optimal beta
(``sequence.best_beta``) and the reported gain.  alpha_H is the exact
principal axis of the twisted state's y-z second moments.  Only the joint
optimum needs a search, and only over alpha: a deterministic grid with
golden-section refinement, so identical inputs give identical outputs.  The
search evaluates its alphas in blocks (``sequence.pre_phase_block``) and
ranks each block from its moment arrays (``dicke.block_moments``): G^2
goes through the elementwise
``sequence.beta_optimum`` that ``best_beta`` uses, so every row's value is
the per-point one to the bit, and beta's atan is taken only for the final
candidates.  The winner is reported from the per-point pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .closed_form import xi2_closed
from .dicke import block_moments, spin_moments
from .sequence import (
    GainResult,
    SequenceConfig,
    best_beta,
    beta_optimum,
    gain_from_moments,
    pre_phase_block,
    pre_phase_state,
    prepared_state,
)
from .trap import AtomTrapConfig, half_integer, tau_accumulated, tau_tilde

__all__ = [
    "OptimizationSpec",
    "ScanRow",
    "optimize_beta",
    "optimize_alpha_beta",
    "optimized_gain",
    "alpha_H",
    "scan_m",
    "scan_trap",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_FLAT_EPS = 1e-12
_MAX_REFINE_ITER = 200
# Bytes of one complex (K, N+1) block of the joint alpha search.  K follows
# from N, so memory does not grow with the alpha grid.  Blocks this small
# keep the heap the allocator retains, and so the peak resident memory,
# within a few MB of the per-point search at N = 1000.
_BLOCK_BYTES = 1 << 18
_ALPHA_POLICIES = ("fixed", "alpha_H", "scan")
# Largest alpha grid: the grid, its values and their lexsort take about 50 B
# per cell, so the limit bounds them near 50 MB.
_ALPHA_GRID_MAX = 10**6


@dataclass(frozen=True)
class OptimizationSpec:
    """Alpha-selection policy and the resolution of the joint alpha search.

    alpha_mode: "fixed" (use alpha_value), "alpha_H" (linear-sequence
    optimum for the given tau), or "scan" (joint optimum with beta).  beta is
    always optimized exactly.
    """

    alpha_mode: str = "fixed"
    alpha_value: float = 0.0
    alpha_grid: int = 181
    refine_tolerance: float = 1e-4

    def __post_init__(self):
        if self.alpha_mode not in _ALPHA_POLICIES:
            raise ValueError(f"alpha_mode must be one of {_ALPHA_POLICIES}")
        if not 8 <= self.alpha_grid <= _ALPHA_GRID_MAX:
            raise ValueError(
                f"alpha_grid must lie in [8, {_ALPHA_GRID_MAX}], got {self.alpha_grid}")
        if not 0.0 < self.refine_tolerance <= 0.1:
            raise ValueError("refine_tolerance must lie in (0, 0.1]")


@dataclass(frozen=True)
class ScanRow:
    """One point of a parameter scan with its optimized gain.

    gain_linear is the tau_tilde = 0 reference 1/xi(tau) of a linear
    sequence with the same prepared state.
    """

    m: float | None
    gamma: float
    omega_z: float
    n_atoms: int
    tau: float
    tau_tilde: float
    alpha: float
    beta: float
    gain: float
    gain_linear: float


def _golden_max(f: Callable[[list[float]], list[float]], brackets: list[tuple[float, float]],
                tol: float) -> list[float]:
    """Golden-section maximizers on each (lo, hi) bracket, in lockstep.

    Each bracket takes exactly the steps of a scalar golden-section search
    and stops once narrower than tol.  f maps a list of points to their
    values, so one call evaluates the new points of all open brackets.
    Returns the bracket midpoints.
    """
    state = [[a, b, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)] for a, b in brackets]
    values = f([x for s in state for x in s[2:]])
    for s, fc, fd in zip(state, values[0::2], values[1::2]):
        s += [fc, fd]  # each bracket is [a, b, c, d, f(c), f(d)]
    for _ in range(_MAX_REFINE_ITER):
        open_ = [s for s in state if s[1] - s[0] >= tol]
        if not open_:
            break
        slots = []  # index in the bracket of the point to evaluate
        for s in open_:
            a, b, c, d, fc, fd = s
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                slots.append(2)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                slots.append(3)
            s[:] = [a, b, c, d, fc, fd]
        values = f([s[i] for s, i in zip(open_, slots)])
        for s, i, value in zip(open_, slots, values):
            s[i + 2] = value
    return [0.5 * (s[0] + s[1]) for s in state]


def optimize_beta(config: SequenceConfig) -> GainResult:
    """Maximize the theta = 0 gain over the final pulse angle beta.

    The maximizer is exact.  A landscape whose peak G^2 is below 1e-12 (it
    vanishes at beta = +-pi/2) is reported via flat_landscape with beta = 0.
    """
    mom = spin_moments(pre_phase_state(prepared_state(config), config.alpha, config.tau_tilde))
    g2, beta = best_beta(mom, config.n_atoms)
    flat = g2 < _FLAT_EPS
    result = gain_from_moments(replace(config, beta=0.0 if flat else beta, theta=0.0), mom)
    return replace(result, flat_landscape=flat)


def optimize_alpha_beta(config: SequenceConfig, spec: OptimizationSpec | None = None) -> GainResult:
    """Jointly maximize the gain over (alpha, beta).

    beta is exact for every alpha, so only alpha is searched: a grid over
    [0, pi), then golden-section refinement from the five best cells.  Ties
    break toward smallest |alpha|, then |beta|.  Every alpha is evaluated in
    blocks of rows of one batched x rotation, ranked from the block's
    moment arrays; the winner is reported from the per-point pass, so the
    result equals
    ``optimize_beta(replace(config, alpha=result.alpha))``.
    """
    spec = spec or OptimizationSpec()
    n = config.n_atoms
    chis = pre_phase_block(config)
    rows = max(1, _BLOCK_BYTES // (16 * (n + 1)))

    def profiles(alphas: np.ndarray) -> np.ndarray:
        """(G^2, tan beta) at each alpha, as the rows of a (2, K) array."""
        out = np.empty((2, len(alphas)))
        for start in range(0, len(alphas), rows):
            moments = block_moments(n, chis(alphas[start:start + rows]))
            out[:, start:start + len(moments.sx)] = beta_optimum(moments, n)
        return out

    alphas = np.linspace(0.0, math.pi, spec.alpha_grid, endpoint=False)
    vals = profiles(alphas)[0]
    if vals.max() < _FLAT_EPS:
        return optimize_beta(replace(config, alpha=0.0))

    ranked = np.lexsort((np.abs(alphas), -vals))  # stable: ties keep grid order
    h = alphas[1] - alphas[0]
    refined = _golden_max(lambda pts: profiles(pts)[0].tolist(),
                          [(alphas[i] - h, alphas[i] + h) for i in ranked[:5]],
                          spec.refine_tolerance)
    candidates = [(alpha, g2, math.atan(slope))
                  for alpha, g2, slope in zip(refined, *profiles(refined).tolist())]
    best = max(c[1] for c in candidates)
    keep = [c for c in candidates if c[1] >= best - _FLAT_EPS]
    alpha = min(keep, key=lambda c: (abs(c[0]), abs(c[2])))[0]
    return optimize_beta(replace(config, alpha=alpha))


def alpha_H(n_atoms: int, tau: float) -> float:
    """Orientation pulse minimizing the exact Wineland parameter of the
    twisted state (the optimal pre-rotation of a linear sequence).

    The principal axis of the y-z second moments, in (-pi/2, pi/2].  Tends
    to -pi/4 for weak twisting; at tau = 0 the landscape is flat and 0 is
    returned.
    """
    prepared = prepared_state(SequenceConfig(n_atoms=n_atoms, tau=tau))
    return spin_moments(prepared).squeezed_axis()[0]


def optimized_gain(seq: SequenceConfig, spec: OptimizationSpec | None = None) -> GainResult:
    """Gain optimized over beta, with alpha chosen by ``spec.alpha_mode``."""
    spec = spec or OptimizationSpec()
    if spec.alpha_mode == "scan":
        return optimize_alpha_beta(seq, spec)
    alpha = (
        alpha_H(seq.n_atoms, seq.tau)
        if spec.alpha_mode == "alpha_H"
        else spec.alpha_value
    )
    return optimize_beta(replace(seq, alpha=alpha))


def _linear_reference(n_atoms: int, tau: float) -> float:
    return 1.0 / math.sqrt(xi2_closed(n_atoms, tau))


def _scan_rows(cfg: AtomTrapConfig, m_values, spec: OptimizationSpec,
               model: str) -> list[ScanRow]:
    """Optimized rows for each oscillation count m of one trap."""
    for m in m_values:
        half_integer("m", m)
    tau_half = tau_accumulated(cfg, model, 0.5 * cfg.period)
    tt = tau_tilde(cfg, model)
    rows = []
    for m in m_values:
        tau = 2.0 * float(m) * tau_half
        res = optimized_gain(SequenceConfig(n_atoms=cfg.n_atoms, tau=tau, tau_tilde=tt), spec)
        rows.append(ScanRow(
            m=float(m), gamma=cfg.aspect_ratio, omega_z=cfg.omega_z,
            n_atoms=cfg.n_atoms, tau=tau, tau_tilde=tt,
            alpha=res.alpha, beta=res.beta, gain=res.gain,
            gain_linear=_linear_reference(cfg.n_atoms, tau),
        ))
    return rows


def scan_m(
    trap: AtomTrapConfig,
    m_values,
    spec: OptimizationSpec | None = None,
    model: str = "gaussian",
) -> list[ScanRow]:
    """Gain versus the number of preparation oscillations m.

    Per row: tau = 2 m tau_half (the half-period twisting integral),
    tau_tilde fixed by the interrogation half-period, beta optimized, alpha
    per the policy in ``spec``.
    """
    return _scan_rows(trap, m_values, spec or OptimizationSpec(), model)


def scan_trap(
    trap: AtomTrapConfig,
    sweep: str,
    values,
    m_values=(0.5, 1.0),
    spec: OptimizationSpec | None = None,
    model: str = "gaussian",
) -> list[ScanRow]:
    """Optimized gain versus trap geometry.

    sweep = "gamma" varies the aspect ratio at fixed omega_z; sweep =
    "omega_z" varies the axial frequency at fixed aspect ratio (the
    interrogation frequency keeps its ratio to omega_z).  Rows are emitted
    per (value, m) pair with the alpha policy of ``spec`` (alpha fixed at 0
    by default, as in ``scan_m``; pass alpha_mode="scan" for the fully
    optimized curves).
    """
    if sweep not in ("gamma", "omega_z"):
        raise ValueError(f"sweep must be 'gamma' or 'omega_z', got {sweep!r}")
    spec = spec or OptimizationSpec()
    rows = []
    for value in values:
        if value <= 0:
            raise ValueError("sweep values must be positive")
        if sweep == "gamma":
            cfg = trap.with_aspect_ratio(float(value))
        else:
            cfg = trap.with_omega_z(float(value))
        rows += _scan_rows(cfg, m_values, spec, model)
    return rows
