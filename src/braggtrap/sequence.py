"""Full interferometer sequence, output moments, and sensitivity gain.

The sequence on the +x coherent input state is

    out = R_x(beta) * exp(-i (tau_tilde S_y^2 + theta S_y)) * R_x(alpha)
          * exp(-i tau S_z^2) |+x>,

with the y-axis block produced by conjugating diagonal z evolution with the
two pi/2 Bragg pulses.  The phase theta and the closing R_x(beta - pi/2)
act linearly on the spin vector, so every output number comes from the
moments of the state chi just before theta.  The gain over the shot-noise
limit 1/sqrt(N) follows from linear error propagation on <S_z>.  The joint
alpha search samples chi for a block of alphas at once
(``pre_phase_block``): the prepared state is even under the index reversal
m -> -m, so its rotations run on the even sector of the S_x eigenbasis, at
half the size (N <= 16383 within the 1 GiB eigensystem limit).  The search
ranks the interpolated moments by ``beta_optimum``, the elementwise core of
``best_beta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .closed_form import xi2_closed
from .dicke import (
    DickeState,
    PulseSpec,
    SpinMoments,
    _even_x_rotation_block,
    apply_oat,
    apply_rotation,
    make_css,
    spin_moments,
)
from .errors import DegenerateStateError, FlatSlopeError
from .trap import AtomTrapConfig, gravity_phase, tau_accumulated, tau_tilde

__all__ = [
    "SequenceConfig",
    "GainResult",
    "run_sequence",
    "run_sequence_stepwise",
    "prepared_state",
    "pre_phase_state",
    "pre_phase_block",
    "output_moments",
    "best_beta",
    "beta_optimum",
    "gain_from_moments",
    "gain_at_zero",
    "sensitivity",
    "signal_curve",
    "sequence_from_trap",
]


@dataclass(frozen=True)
class SequenceConfig:
    """Dimensionless description of one interferometer run."""

    n_atoms: int
    tau: float = 0.0
    tau_tilde: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n_atoms, (int, np.integer)) or self.n_atoms < 2:
            raise ValueError(f"n_atoms must be an integer >= 2, got {self.n_atoms!r}")
        for name in ("tau", "tau_tilde", "alpha", "beta", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class GainResult:
    """Sensitivity gain and the output moments behind it.

    ``xi`` is the orientation-optimized Wineland parameter of the prepared
    (twisted) state; ``delta_theta`` always satisfies
    delta_theta = 1 / (sqrt(N) * gain).
    """

    gain: float
    xi: float
    sx_out: float
    sz_out: float
    sz2_out: float
    d_sz_d_theta: float
    delta_theta: float
    alpha: float
    beta: float
    flat_landscape: bool = False


def prepared_state(config: SequenceConfig) -> DickeState:
    """Twisted input state exp(-i tau S_z^2)|+x CSS> (before the alpha pulse)."""
    return apply_oat(make_css(config.n_atoms, 0.5 * math.pi, 0.0), config.tau)


def pre_phase_state(prepared: DickeState, alpha: float, tau_tilde: float) -> DickeState:
    """chi = exp(-i tau_tilde S_z^2) R_x(alpha + pi/2) prepared, the state
    just before the phase theta (R_x(alpha) and the first pi/2 pulse merged)."""
    state = apply_rotation(prepared, PulseSpec("x", alpha + 0.5 * math.pi))
    return apply_oat(state, tau_tilde)


def pre_phase_block(config: SequenceConfig) -> Callable[[np.ndarray], np.ndarray]:
    """chis(alphas): the amplitudes of ``pre_phase_state(prepared_state(config),
    alpha, config.tau_tilde)`` for each alpha of a block, as the rows of a
    (K, N+1) array from one batched x rotation.

    The prepared state is even under the index reversal J (m -> -m): the +x
    coherent state is, and the twisting phases commute with J.  So the
    rotation runs on the even sector of S_x alone
    (``dicke._even_x_rotation_block``), which drops only the rounding in
    the state's odd part.
    """
    rotate = _even_x_rotation_block(prepared_state(config))
    m = 0.5 * config.n_atoms - np.arange(config.n_atoms + 1)
    twist = np.exp(-1j * config.tau_tilde * m * m)

    def chis(alphas: np.ndarray) -> np.ndarray:
        rows = rotate(np.asarray(alphas, dtype=float) + 0.5 * math.pi)
        if config.tau_tilde != 0.0:
            rows *= twist
        return rows

    return chis


def run_sequence(config: SequenceConfig) -> DickeState:
    """Output state, for ``husimi_grid`` and the amplitude checks.

    The y-axis evolution exp(-i (tau_tilde S_y^2 + theta S_y)) is realized
    as R_x(-pi/2) diag(exp(-i (tau_tilde m^2 + theta m))) R_x(pi/2), i.e.
    exactly the two pi/2 Bragg pulses around diagonal trap evolution.
    """
    state = pre_phase_state(prepared_state(config), config.alpha, config.tau_tilde)
    state = apply_rotation(state, PulseSpec("z", config.theta))
    return apply_rotation(state, PulseSpec("x", config.beta - 0.5 * math.pi))


def run_sequence_stepwise(config: SequenceConfig) -> DickeState:
    """Same sequence built from the individual laboratory steps.

    Starts from the single-momentum pole state with an explicit splitting
    pulse, and encodes the phase with a direct y rotation instead of the
    diagonal route; serves as an independent path for equivalence checks.
    """
    state = make_css(config.n_atoms, 0.0, 0.0)
    state = apply_rotation(state, PulseSpec("y", 0.5 * math.pi))
    state = apply_oat(state, config.tau)
    state = apply_rotation(state, PulseSpec("x", config.alpha))
    state = apply_rotation(state, PulseSpec("y", config.theta))
    state = apply_rotation(state, PulseSpec("x", 0.5 * math.pi))
    state = apply_oat(state, config.tau_tilde)
    state = apply_rotation(state, PulseSpec("x", -0.5 * math.pi))
    state = apply_rotation(state, PulseSpec("x", config.beta))
    return state


def _moments(config: SequenceConfig) -> SpinMoments:
    return spin_moments(pre_phase_state(prepared_state(config), config.alpha, config.tau_tilde))


def _closing(mom: SpinMoments, beta: float, theta):
    """Output (<S_x>, <S_z>, Var S_z) from the moments of chi; theta may be
    an array.  In the Heisenberg picture R_z(theta), then R_x(beta - pi/2),
    turn S_x into cos(theta) S_x - sin(theta) S_y and S_z into v.S with
    v = (-cos beta sin theta, -cos beta cos theta, sin beta), so
    <S_z> = v.<S> and Var S_z = v^T C v.
    """
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    cos_b = math.cos(beta)
    v = np.stack(np.broadcast_arrays(-cos_b * sin_t, -cos_b * cos_t, math.sin(beta)), axis=-1)
    var = np.einsum("...i,ij,...j->...", v, mom.covariance(), v)
    return cos_t * mom.sx - sin_t * mom.sy, v @ (mom.sx, mom.sy, mom.sz), var


def output_moments(config: SequenceConfig) -> tuple[float, float, float]:
    """(<S_x>, <S_z>, <S_z^2>) of the sequence output state."""
    sx, sz, var = (float(x) for x in _closing(_moments(config), config.beta, config.theta))
    return sx, sz, var + sz * sz


def beta_optimum(mom: SpinMoments, n_atoms: int) -> tuple:
    """(G^2, tan beta) at the exact theta = 0 optimum, from the moments of
    chi, elementwise: the fields of ``mom`` are floats, or arrays with one
    entry per row of a block.

    There v = (0, -cos beta, sin beta), so with t = tan(beta)
    G^2 = <S_x>^2 / (N (C_yy - 2 t C_yz + t^2 C_zz)), largest at t = C_yz / C_zz.
    Raises DegenerateStateError when C_zz or that smallest variance is not
    positive for any entry.
    """
    c_zz = mom.sz2 - mom.sz * mom.sz
    if np.any(c_zz <= 0.0):
        raise DegenerateStateError(
            f"output S_z variance {np.min(c_zz):.3e} at beta = pi/2 is not positive")
    c_yz = 0.5 * mom.syz - mom.sy * mom.sz
    denom = (mom.sy2 - mom.sy * mom.sy) - c_yz * c_yz / c_zz
    if np.any(denom <= 0.0):
        raise DegenerateStateError(
            f"smallest output S_z variance {np.min(denom):.3e} is not positive")
    return mom.sx * mom.sx / (n_atoms * denom), c_yz / c_zz


def best_beta(mom: SpinMoments, n_atoms: int) -> tuple[float, float]:
    """(G^2, beta) at the exact theta = 0 optimum, from the moments of chi
    (``beta_optimum``)."""
    g2, slope = beta_optimum(mom, n_atoms)
    return g2, math.atan(slope)


def gain_from_moments(config: SequenceConfig, mom: SpinMoments) -> GainResult:
    """Phase sensitivity at config.theta from the moments of its chi state:
    Delta theta = sqrt(Var S_z) / |d<S_z>/d theta|, with the exact slope
    d(v.<S>)/d theta = -cos(beta) <S_x>_out."""
    n = config.n_atoms
    sx, sz, var = (float(x) for x in _closing(mom, config.beta, config.theta))
    slope = -math.cos(config.beta) * sx
    if abs(slope) < 1e-12 * max(1.0, 0.5 * n):
        raise FlatSlopeError(
            f"slope d<S_z>/d theta = {slope:.3e} at theta = {config.theta}: "
            "insensitive working point"
        )
    if var < 1e-20 * (0.5 * n) ** 2:
        raise DegenerateStateError(f"output S_z variance {var:.3e} is degenerate")
    delta_theta = math.sqrt(var) / abs(slope)
    gain = 1.0 / (math.sqrt(n) * delta_theta)
    return GainResult(
        gain=gain,
        xi=math.sqrt(xi2_closed(n, config.tau)),
        sx_out=sx, sz_out=sz, sz2_out=var + sz * sz,
        d_sz_d_theta=slope,
        delta_theta=delta_theta,
        alpha=config.alpha, beta=config.beta,
    )


def sensitivity(config: SequenceConfig) -> GainResult:
    """Phase sensitivity by linear error propagation at the configured theta."""
    return gain_from_moments(config, _moments(config))


def gain_at_zero(config: SequenceConfig) -> GainResult:
    """Sensitivity gain at the theta = 0 working point,
    G^2 = <S_x>^2 cos^2(beta) / (N Var S_z) on the output state."""
    return sensitivity(replace(config, theta=0.0))


def signal_curve(
    config: SequenceConfig, theta_grid: "np.ndarray | list[float]"
) -> list[tuple[float, float, float]]:
    """Fringe data: (theta, <S_z>, Var S_z) for each grid point, from one
    moment pass on chi."""
    thetas = np.asarray(theta_grid, dtype=float)
    if thetas.ndim != 1 or thetas.size == 0:
        raise ValueError(f"theta_grid must be a non-empty 1-D sequence, got shape {thetas.shape}")
    if not np.all(np.isfinite(thetas)):
        raise ValueError("theta must be finite")
    _, sz, var = _closing(_moments(config), config.beta, thetas)
    return [(float(t), float(m), float(v)) for t, m, v in zip(thetas, sz, var)]


def sequence_from_trap(
    trap: AtomTrapConfig,
    model: str = "gaussian",
    alpha: float = 0.0,
    beta: float = 0.0,
    theta: float | None = None,
    m: float | None = None,
) -> SequenceConfig:
    """Build the dimensionless run from trap physics.

    tau integrates chi(t) over the m-oscillation preparation time m*T,
    tau_tilde over the interrogation half-period, and theta defaults to the
    gravity phase of the trap switch.
    """
    if m is None:
        m = trap.oscillations
    tau = tau_accumulated(trap, model, m * trap.period)
    return SequenceConfig(
        n_atoms=trap.n_atoms,
        tau=tau,
        tau_tilde=tau_tilde(trap, model),
        alpha=alpha,
        beta=beta,
        theta=gravity_phase(trap) if theta is None else theta,
    )
