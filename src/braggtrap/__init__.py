"""Trapped-BEC Bragg interferometer with interaction-generated spin squeezing.

Exact Dicke-basis simulation of the collective spin, trap-derived twisting
rates, closed-form oracles, and numerical optimization of the sensitivity
gain over the pre/post rotation pulses.
"""

from .closed_form import (
    AnalyticMoments,
    oat_moments_closed,
    output_moments_perturbative,
    twisted_ladder_moments,
    weak_gain,
    xi2_closed,
)
from .dicke import (
    DickeState,
    HusimiGrid,
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
    yz_moments,
)
from .errors import (
    BraggTrapError,
    DegenerateStateError,
    FlatSlopeError,
    QuadratureError,
)
from .optimize import (
    OptimizationSpec,
    ScanRow,
    alpha_H,
    optimize_alpha_beta,
    optimize_beta,
    optimized_gain,
    scan_m,
    scan_trap,
)
from .sequence import (
    GainResult,
    SequenceConfig,
    gain_at_zero,
    output_moments,
    prepared_state,
    run_sequence,
    run_sequence_stepwise,
    sensitivity,
    sequence_from_trap,
    signal_curve,
)
from .trap import (
    GAUSSIAN_WIDTH_RATIO,
    RB87_K0,
    RB87_MASS,
    RB87_SCATTERING_LENGTH,
    STANDARD_GRAVITY,
    TRAP_MODELS,
    AtomTrapConfig,
    TrapDerived,
    chi_of_t,
    chi_terms,
    derive_trap,
    gravity_phase,
    tau_accumulated,
    tau_closed_form,
    tau_tilde,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AnalyticMoments", "oat_moments_closed", "output_moments_perturbative",
    "twisted_ladder_moments", "weak_gain", "xi2_closed",
    "DickeState", "HusimiGrid", "PulseSpec", "SpinOp",
    "apply_oat", "apply_rotation", "expectation", "husimi_grid", "make_css",
    "operator_matrix", "wigner_d", "wineland_xi2", "yz_moments",
    "BraggTrapError", "DegenerateStateError", "FlatSlopeError", "QuadratureError",
    "OptimizationSpec", "ScanRow", "alpha_H", "optimize_alpha_beta",
    "optimize_beta", "optimized_gain", "scan_m", "scan_trap",
    "GainResult", "SequenceConfig", "gain_at_zero", "output_moments",
    "prepared_state", "run_sequence", "run_sequence_stepwise", "sensitivity",
    "sequence_from_trap", "signal_curve",
    "GAUSSIAN_WIDTH_RATIO", "RB87_K0", "RB87_MASS", "RB87_SCATTERING_LENGTH",
    "STANDARD_GRAVITY", "TRAP_MODELS", "AtomTrapConfig", "TrapDerived",
    "chi_of_t", "chi_terms", "derive_trap", "gravity_phase",
    "tau_accumulated", "tau_closed_form", "tau_tilde",
]
