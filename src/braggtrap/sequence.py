"""Full interferometer sequence, output moments, and sensitivity gain.

The sequence on the +x coherent input state is

    out = R_x(beta) * exp(-i (tau_tilde S_y^2 + theta S_y)) * R_x(alpha)
          * exp(-i tau S_z^2) |+x>,

with the y-axis block produced by conjugating diagonal z evolution with the
two pi/2 Bragg pulses.  The sensitivity gain over the shot-noise limit
1/sqrt(N) follows from linear error propagation on <S_z> at the output,
with the exact phase slope d<S_z>/d theta = -cos(beta) <S_x>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .closed_form import xi2_closed
from .dicke import DickeState, PulseSpec, apply_oat, apply_rotation, make_css, yz_moments
from .errors import DegenerateStateError, FlatSlopeError
from .trap import AtomTrapConfig, gravity_phase, tau_accumulated, tau_tilde

__all__ = [
    "SequenceConfig",
    "GainResult",
    "run_sequence",
    "run_sequence_stepwise",
    "prepared_state",
    "output_moments",
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


def run_sequence(config: SequenceConfig) -> DickeState:
    """Full sequence with the interrogation block as a pulse sandwich.

    The y-axis evolution exp(-i (tau_tilde S_y^2 + theta S_y)) is realized
    as R_x(-pi/2) diag(exp(-i (tau_tilde m^2 + theta m))) R_x(pi/2), i.e.
    exactly the two pi/2 Bragg pulses around diagonal trap evolution.
    """
    state = prepared_state(config)
    state = apply_rotation(state, PulseSpec("x", config.alpha))
    state = apply_rotation(state, PulseSpec("x", 0.5 * math.pi))
    state = apply_oat(state, config.tau_tilde)
    state = apply_rotation(state, PulseSpec("z", config.theta))
    state = apply_rotation(state, PulseSpec("x", -0.5 * math.pi))
    state = apply_rotation(state, PulseSpec("x", config.beta))
    return state


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


def output_moments(config: SequenceConfig) -> tuple[float, float, float]:
    """(<S_x>, <S_z>, <S_z^2>) of the sequence output state."""
    mom = yz_moments(run_sequence(config))
    return mom.sx, mom.sz, mom.sz2


def sensitivity(config: SequenceConfig) -> GainResult:
    """Phase sensitivity by linear error propagation at the configured theta.

    Delta theta = sqrt(Var S_z) / |d<S_z>/d theta|.  theta is a z phase just
    before the closing x pulses, which keep S_x and map S_z to
    sin(beta) S_z - cos(beta) S_y; since [S_z, S_y] = -i S_x the slope is
    exactly -cos(beta) <S_x> on the output state at every theta.
    """
    n = config.n_atoms
    sx, sz, sz2 = output_moments(config)
    slope = -math.cos(config.beta) * sx
    if abs(slope) < 1e-12 * max(1.0, 0.5 * n):
        raise FlatSlopeError(
            f"slope d<S_z>/d theta = {slope:.3e} at theta = {config.theta}: "
            "insensitive working point"
        )
    var = sz2 - sz * sz
    if var < 1e-20 * (0.5 * n) ** 2:
        raise DegenerateStateError(f"output S_z variance {var:.3e} is degenerate")
    delta_theta = math.sqrt(var) / abs(slope)
    gain = 1.0 / (math.sqrt(n) * delta_theta)
    return GainResult(
        gain=gain,
        xi=math.sqrt(xi2_closed(n, config.tau)),
        sx_out=sx, sz_out=sz, sz2_out=sz2,
        d_sz_d_theta=slope,
        delta_theta=delta_theta,
        alpha=config.alpha, beta=config.beta,
    )


def gain_at_zero(config: SequenceConfig) -> GainResult:
    """Sensitivity gain at the theta = 0 working point,
    G^2 = <S_x>^2 cos^2(beta) / (N Var S_z) on the output state."""
    return sensitivity(replace(config, theta=0.0))


def signal_curve(
    config: SequenceConfig, theta_grid: "np.ndarray | list[float]"
) -> list[tuple[float, float, float]]:
    """Fringe data: (theta, <S_z>, Var S_z) for each grid point."""
    thetas = np.asarray(theta_grid, dtype=float)
    if thetas.size == 0:
        raise ValueError("theta_grid must be non-empty")
    rows = []
    for theta in thetas:
        _, sz, sz2 = output_moments(replace(config, theta=float(theta)))
        rows.append((float(theta), sz, sz2 - sz * sz))
    return rows


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
