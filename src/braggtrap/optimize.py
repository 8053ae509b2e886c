"""Gain optimization over the pre/post rotation angles and parameter scans.

For a given alpha, one moment pass on the state before the phase
(``sequence.pre_phase_state``) gives the exact optimal beta
(``sequence.best_beta``) and the reported gain.  alpha_H is the exact
principal axis of the twisted state's y-z second moments.  Only the joint
optimum needs a search, and only over alpha.  Every moment of chi is a
trigonometric polynomial of period pi in alpha (the rotation is the phase
exp(-i alpha m) on the even S_x sector, which holds every second m), so
equispaced samples determine it (Trefethen, Approximation Theory and
Approximation Practice, SIAM 2013, ch. 3).  The search samples chi in
blocks (``sequence.pre_phase_block``, ``dicke.block_moments``), doubles the
sample count until the Fourier tail of the moments is negligible, and
ranks the interpolant on ever finer grids through the elementwise
``sequence.beta_optimum`` that ``best_beta`` uses.  alpha comes from
comparisons only, so BLAS rounding in the samples cannot move it off a
grid point.  The winner is reported from the per-point pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .closed_form import xi2_closed
from .dicke import SpinMoments, block_moments, spin_moments
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

_FLAT_EPS = 1e-12
# Bytes of one complex (rows, N+1) block of alpha samples.  Blocks this small
# keep the heap the allocator retains, and so the peak resident memory,
# within a few MB of the per-point search at N = 1000, however many samples
# the search takes.
_BLOCK_BYTES = 1 << 18
# The sample count K starts here and doubles until every Fourier coefficient
# from index K/3 on is below _TAIL of its scale (S for the means, S^2 for the
# second moments).
_FIRST_SAMPLES = 64
_TAIL = 1e-13
# alpha is refined on grids whose spacing shrinks 64-fold per level until
# it is below this, in rad.
_ALPHA_STEP = 1e-6
_ALPHA_POLICIES = ("fixed", "alpha_H", "scan")


@dataclass(frozen=True)
class OptimizationSpec:
    """Alpha-selection policy.

    alpha_mode: "fixed" (use alpha_value), "alpha_H" (linear-sequence
    optimum for the given tau), or "scan" (joint optimum with beta).  beta is
    always optimized exactly.
    """

    alpha_mode: str = "fixed"
    alpha_value: float = 0.0

    def __post_init__(self):
        if self.alpha_mode not in _ALPHA_POLICIES:
            raise ValueError(f"alpha_mode must be one of {_ALPHA_POLICIES}")


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


def _moment_series(config: SequenceConfig) -> np.ndarray:
    """Fourier coefficients c_j, j < K/2, of the nine ``SpinMoments`` fields
    of chi(alpha), as the rows of a (9, K/2) array: each field is
    c_0 + 2 Re sum_j c_j exp(2 i j alpha).

    K equispaced samples over [0, pi) come from ``pre_phase_block``; K starts
    at 64 and doubles, reusing the old samples as the even-indexed half, until
    the tail from index K/3 on is below _TAIL of each field's scale.  The
    even sector's m differ by at most N, so no field has an index above N/2
    and the series is exact once K >= N + 2, where the doubling stops.
    """
    n = config.n_atoms
    chis = pre_phase_block(config)
    rows = max(1, _BLOCK_BYTES // (16 * (n + 1)))
    spin = 0.5 * n
    scale = np.array([[spin]] * 3 + [[spin * spin]] * 6)

    def samples(alphas: np.ndarray) -> np.ndarray:
        out = np.empty((9, len(alphas)))
        for start in range(0, len(alphas), rows):
            block = block_moments(n, chis(alphas[start:start + rows]))
            out[:, start:start + len(block.sx)] = block
        return out

    k = _FIRST_SAMPLES
    fields = samples(math.pi / k * np.arange(k))
    while True:
        spectrum = np.fft.rfft(fields) / k
        if k >= n + 2 or np.all(np.abs(spectrum[:, k // 3:]) < _TAIL * scale):
            return spectrum[:, :k // 2]
        doubled = np.empty((9, 2 * k))
        doubled[:, 0::2] = fields
        doubled[:, 1::2] = samples(math.pi / k * (np.arange(k) + 0.5))
        fields, k = doubled, 2 * k


def _moments_at(series: np.ndarray, alphas: np.ndarray) -> SpinMoments:
    """The interpolated moments at each alpha, as arrays."""
    weights = np.where(np.arange(series.shape[1]) == 0, 1.0, 2.0)
    waves = np.exp(2j * np.multiply.outer(np.arange(series.shape[1]), alphas))
    return SpinMoments(*((series * weights) @ waves).real)


def _tie_break(alphas: np.ndarray, moments: SpinMoments, n_atoms: int) -> float:
    """The alpha of largest G^2.  Ties, the values within a factor
    1 - _FLAT_EPS of it (every value when it is below _FLAT_EPS, a flat
    landscape), go to the smallest |alpha|, then the smallest |beta|.  The
    factor is relative, so a tie costs at most 1e-12 of G^2 however small
    G^2 is."""
    g2, slope = beta_optimum(moments, n_atoms)
    best = g2.max()
    keep = np.flatnonzero((g2 >= best * (1.0 - _FLAT_EPS)) | (best < _FLAT_EPS))
    pick = keep[np.lexsort((np.abs(slope[keep]), np.abs(alphas[keep])))[0]]
    return float(alphas[pick])


def optimize_alpha_beta(config: SequenceConfig) -> GainResult:
    """Jointly maximize the gain over (alpha, beta).

    beta is exact for every alpha, so only alpha is searched, on the
    trigonometric interpolant of chi's moments (``_moment_series``): first
    over 32 K points of [0, pi), then on 129-point grids around the winner,
    each 64 times finer, until the spacing is below 1e-6 rad.  Every level
    applies the same tie rule (``_tie_break``), so a landscape flat in alpha
    gives alpha = 0.  The winner is reported from the per-point pass, so the
    result equals ``optimize_beta(replace(config, alpha=result.alpha))``.
    """
    n = config.n_atoms
    series = _moment_series(config)
    size = 64 * series.shape[1]
    step = math.pi / size
    dense = np.fft.irfft(series, size) * size
    alpha = _tie_break(step * np.arange(size), SpinMoments(*dense), n)
    while step >= _ALPHA_STEP:
        step /= 64
        alphas = alpha + step * np.arange(-64, 65)
        alpha = _tie_break(alphas, _moments_at(series, alphas), n)
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
        return optimize_alpha_beta(seq)
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
