"""Trap and interaction physics: twisting rates and the gravity phase.

Two momentum modes kicked to +-hbar*k0 oscillate in a harmonic trap with
half-separation z0(t) = (hbar k0 / M omega_z) |sin(omega_z t)|.  Their
collisional nonlinearity chi(t) = chi_S - 2 chi_C switches sign as the mode
overlap changes: full overlap gives -chi_max (cross-phase modulation twice
the self term), full separation gives +chi_max.  Integrating chi over the
hold time yields the dimensionless twisting strengths driving the spin
simulation, in closed form from the overlap's Fourier series (``_integrate_chi``).

All quantities are SI; frequencies are angular (rad/s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import QuadratureError

hbar = 6.62607015e-34 / (2.0 * math.pi)  # J s, from the exact SI Planck constant

__all__ = [
    "RB87_MASS",
    "RB87_SCATTERING_LENGTH",
    "RB87_K0",
    "STANDARD_GRAVITY",
    "GAUSSIAN_WIDTH_RATIO",
    "TRAP_MODELS",
    "AtomTrapConfig",
    "TrapDerived",
    "derive_trap",
    "chi_terms",
    "chi_of_t",
    "tau_accumulated",
    "tau_tilde",
    "tau_closed_form",
    "gravity_phase",
    "check_ranges",
    "half_integer",
]

RB87_MASS = 1.4431e-25  # kg
RB87_SCATTERING_LENGTH = 5.2e-9  # m
RB87_K0 = 2.0 * (2.0 * math.pi / 780e-9)  # two-photon wave vector 2 k_L, 1/m
STANDARD_GRAVITY = 9.81  # m/s^2

# Variational Gaussian width over the Thomas-Fermi radius for a strongly
# interacting condensate, sigma_i = b R_i with the density written as
# exp(-x^2 / 2 sigma^2).  The value is 0.3932, commonly quoted as ~1/sqrt(7).
GAUSSIAN_WIDTH_RATIO = (2.0 / (15.0**2 * math.pi)) ** 0.1 / math.sqrt(2.0)

TRAP_MODELS = ("gaussian", "thomas_fermi")

_QUAD_REL_TOL = 1e-6  # of chi_max * window, per the integration contract
# The overlap's node count doubles until its Fourier tail is below _AGREE_TOL
# or it reaches the cap, which bounds the work at a dip too narrow to
# resolve; there the change at the last doubling must lie within the budget.
_AGREE_TOL = 1e-14
_MAX_NODES = 1 << 22


def half_integer(name: str, value):
    """Return ``value`` if it is a finite half-integer >= 0, else raise
    ValueError naming ``name``."""
    if not (math.isfinite(value) and value >= 0 and abs(2 * value - round(2 * value)) < 1e-9):
        raise ValueError(f"{name} must be a half-integer >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class AtomTrapConfig:
    """Atom species constants plus trap frequencies for one experiment.

    omega_z_tilde is the axial frequency during interrogation (defaults to
    omega_z, i.e. an unchanged trap); ``oscillations`` is the half-integer
    number m of back-and-forth oscillations used for state preparation.
    """

    atom_mass: float = RB87_MASS
    scattering_length: float = RB87_SCATTERING_LENGTH
    n_atoms: int = 1000
    omega_x: float = 2.0 * math.pi * 20.0
    omega_y: float = 2.0 * math.pi * 20.0
    omega_z: float = 2.0 * math.pi * 100.0
    omega_z_tilde: float | None = None
    k0: float = RB87_K0
    gravity: float = STANDARD_GRAVITY
    oscillations: float = 0.5

    def __post_init__(self):
        if self.omega_z_tilde is None:
            object.__setattr__(self, "omega_z_tilde", self.omega_z)
        for name in ("atom_mass", "scattering_length", "omega_x", "omega_y",
                     "omega_z", "omega_z_tilde", "k0", "gravity"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        if not isinstance(self.n_atoms, (int, np.integer)) or self.n_atoms < 1:
            raise ValueError(f"n_atoms must be a positive integer, got {self.n_atoms!r}")
        if abs(self.omega_x - self.omega_y) > 1e-12 * self.omega_x:
            raise ValueError("axial symmetry required: omega_x must equal omega_y")
        half_integer("oscillations", self.oscillations)

    @property
    def aspect_ratio(self) -> float:
        """gamma = omega_{x,y} / omega_z."""
        return self.omega_x / self.omega_z

    @property
    def period(self) -> float:
        """Preparation-trap period T = 2 pi / omega_z, s."""
        return 2.0 * math.pi / self.omega_z

    @property
    def period_tilde(self) -> float:
        """Interrogation-trap period, s."""
        return 2.0 * math.pi / self.omega_z_tilde

    def with_aspect_ratio(self, gamma: float) -> "AtomTrapConfig":
        """Same trap with radial frequencies set to gamma * omega_z."""
        w = gamma * self.omega_z
        return replace(self, omega_x=w, omega_y=w)

    def with_omega_z(self, omega_z: float) -> "AtomTrapConfig":
        """Same aspect ratio with the axial frequency set to omega_z; the
        interrogation frequency keeps its ratio to omega_z."""
        scale = omega_z / self.omega_z
        return replace(
            self,
            omega_x=self.omega_x * scale,
            omega_y=self.omega_y * scale,
            omega_z=omega_z,
            omega_z_tilde=self.omega_z_tilde * scale,
        )


@dataclass(frozen=True)
class TrapDerived:
    """Condensate scales derived from one AtomTrapConfig (cached physics)."""

    model: str
    mu: float          # chemical potential, J
    r_x: float         # Thomas-Fermi radii, m
    r_y: float
    r_z: float
    sigma_x: float     # Gaussian density widths b * R_i, m
    sigma_y: float
    sigma_z: float
    omega_0: float     # geometric-mean trap frequency, rad/s
    b: float           # width rescaling sigma/R
    chi_max: float     # peak twisting rate, rad/s
    z_amp: float       # mode-separation amplitude hbar k0 / (M omega_z), m
    z_sag: float       # gravitational sag -g/omega_z^2, m (static offset only)


def _representable(name: str, config: AtomTrapConfig, fields: tuple[str, ...],
                   compute: Callable[[], float]) -> float:
    """compute(), a scale derived from the fields of config; raises ValueError
    naming those fields when it overflows or divides by an underflowed zero."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        inputs = ", ".join(f"{field} = {getattr(config, field)!r}" for field in fields)
        raise ValueError(f"{name} leaves the floating-point range at {inputs}")
    return value


def derive_trap(config: AtomTrapConfig, model: str = "gaussian") -> TrapDerived:
    """Chemical potential, radii, widths, and chi_max for a trap configuration.

    chi_max is g_int / ((4 pi b^2)^(3/2) hbar Rx Ry Rz) for the Gaussian
    variational density and (15 / 14 pi) g_int / (hbar Rx Ry Rz) for the
    Thomas-Fermi profile, with g_int = 4 pi hbar^2 a / M.  The two differ by
    a constant factor of about 1.08.
    """
    if model not in TRAP_MODELS:
        raise ValueError(f"model must be one of {TRAP_MODELS}, got {model!r}")
    if config.n_atoms < 2:
        raise ValueError("n_atoms must be >= 2 to define interactions")
    m_at = config.atom_mass
    a = config.scattering_length
    n = config.n_atoms
    every = ("n_atoms", "scattering_length", "atom_mass", "omega_x", "omega_y", "omega_z")
    omega_0 = _representable("omega_0", config, every[3:], lambda: (
        config.omega_x * config.omega_y * config.omega_z) ** (1.0 / 3.0))
    mu = _representable("mu", config, every, lambda: (
        0.5 * hbar * omega_0 * (15.0 * n * a * math.sqrt(m_at * omega_0 / hbar)) ** 0.4))
    r_x = _representable("r_x", config, ("omega_x",),
                         lambda: math.sqrt(2.0 * mu / (m_at * config.omega_x**2)))
    r_y = _representable("r_y", config, ("omega_y",),
                         lambda: math.sqrt(2.0 * mu / (m_at * config.omega_y**2)))
    r_z = _representable("r_z", config, ("omega_z",),
                         lambda: math.sqrt(2.0 * mu / (m_at * config.omega_z**2)))
    b = GAUSSIAN_WIDTH_RATIO
    g_int = 4.0 * math.pi * hbar**2 * a / m_at
    volume = r_x * r_y * r_z
    if model == "gaussian":
        chi_max = _representable("chi_max", config, every, lambda: (
            g_int / ((4.0 * math.pi * b * b) ** 1.5 * hbar * volume)))
    else:
        chi_max = _representable("chi_max", config, every, lambda: (
            15.0 / (14.0 * math.pi) * g_int / (hbar * volume)))
    return TrapDerived(
        model=model,
        mu=mu,
        r_x=r_x, r_y=r_y, r_z=r_z,
        sigma_x=b * r_x, sigma_y=b * r_y, sigma_z=b * r_z,
        omega_0=omega_0,
        b=b,
        chi_max=chi_max,
        z_amp=_trajectory(config, False)[1],
        z_sag=_representable("z_sag", config, ("gravity", "omega_z"),
                             lambda: -config.gravity / config.omega_z**2),
    )


# The inputs of the preparation (False) and interrogation (True) trajectory
_TRAJECTORY_FIELDS = {False: ("k0", "atom_mass", "omega_z"),
                      True: ("k0", "atom_mass", "omega_z_tilde")}


def _trajectory(config: AtomTrapConfig, interrogation: bool) -> tuple[float, float]:
    """(omega, hbar k0 / (M omega)) of the preparation or interrogation trap;
    raises ValueError when the amplitude leaves the floating-point range."""
    fields = _TRAJECTORY_FIELDS[interrogation]
    omega = getattr(config, fields[2])
    return omega, _representable("z_amp", config, fields,
                                 lambda: hbar * config.k0 / (config.atom_mass * omega))


def _overlap_depth(derived: TrapDerived, config: AtomTrapConfig,
                   interrogation: bool) -> tuple[float, float]:
    """(omega, a^2) of the preparation or interrogation trajectory, with
    a = amp / sigma_z the mode separation in units of the width; raises
    ValueError when a^2 leaves the floating-point range."""
    omega, amp = _trajectory(config, interrogation)
    return omega, _representable("a^2", config, _TRAJECTORY_FIELDS[interrogation],
                                 lambda: (amp / derived.sigma_z) ** 2)


def check_ranges(config: AtomTrapConfig, model: str = "gaussian") -> None:
    """Raise ValueError, naming the inputs, when a scale that every trap run
    derives from config leaves the floating-point range: the condensate
    scales of ``derive_trap``, the overlap depth a^2 of both trajectories
    and the separated-mode estimate.  Runs no quadrature.  The gravity phase
    is checked where a run uses it (``gravity_phase``)."""
    derived = derive_trap(config, model)
    for interrogation in (False, True):
        _overlap_depth(derived, config, interrogation)
    tau_closed_form(config)


def chi_terms(
    derived: TrapDerived,
    config: AtomTrapConfig,
    t: float,
    interrogation: bool = False,
) -> tuple[float, float]:
    """Self- and cross-phase modulation rates (chi_S, chi_C) at time t.

    chi_S is constant; chi_C = chi_max exp(-z0^2 / sigma_z^2) follows the
    overlap of the two equal-width Gaussian modes.  With ``interrogation``
    the trajectory uses omega_z_tilde and the correspondingly rescaled kick
    amplitude; the mode widths stay frozen at their preparation values.
    """
    omega, amp = _trajectory(config, interrogation)
    z0 = amp * abs(math.sin(omega * t))
    chi_s = derived.chi_max
    chi_c = derived.chi_max * math.exp(-((z0 / derived.sigma_z) ** 2))
    return chi_s, chi_c


def chi_of_t(
    derived: TrapDerived,
    config: AtomTrapConfig,
    t: float,
    interrogation: bool = False,
) -> float:
    """Total twisting rate chi(t) = chi_S - 2 chi_C, rad/s.

    Equals -chi_max at full overlap and +chi_max once the modes separate by
    many widths; crosses zero where z0 = sigma_z sqrt(ln 2).
    """
    chi_s, chi_c = chi_terms(derived, config, t, interrogation)
    return chi_s - 2.0 * chi_c


def _overlap_series(a2: float) -> np.ndarray:
    """Cosine coefficients c_k, k < n/2, of exp(-a2 sin^2 u) =
    c_0 + sum_k c_k cos 2ku from one FFT of n equispaced samples over
    [0, pi) (row 0), and those of the even-indexed samples alone (row 1).

    n starts at the power of two >= 8 (1 + a), half of what the dip of
    width 1/a needs, and doubles at least once, reusing the old samples as
    the even-indexed half, until every c_k from k = n/3 on is below
    _AGREE_TOL or n reaches _MAX_NODES.  The half sees each k < n/4 with its
    alias n/2 - k, so row 1 folds out of the same FFT.
    """
    n = min(_MAX_NODES // 2, 1 << math.ceil(math.log2(8.0 * (1.0 + math.sqrt(a2)))))
    samples = np.exp(-a2 * np.sin((math.pi / n) * np.arange(n)) ** 2)
    while True:
        doubled = np.empty(2 * n)
        doubled[0::2] = samples
        doubled[1::2] = np.exp(-a2 * np.sin((math.pi / n) * (np.arange(n) + 0.5)) ** 2)
        samples, n = doubled, 2 * n
        spectrum = np.fft.rfft(samples).real / n
        spectrum[1:] *= 2.0
        if n >= _MAX_NODES or np.abs(spectrum[n // 3:]).max() <= _AGREE_TOL:
            series = np.zeros((2, n // 2))
            series[0] = spectrum[:n // 2]
            series[1, :n // 4] = spectrum[:n // 4] + spectrum[:n // 4:-1]
            series[1, 0] = spectrum[0] + 0.5 * spectrum[n // 2]
            return series


def _integrate_chi(
    derived: TrapDerived,
    config: AtomTrapConfig,
    upto: float,
    interrogation: bool,
) -> float:
    """Integral of chi(t) over [0, upto], exploiting periodicity.

    chi(t) = chi_max (1 - 2 exp(-a^2 sin^2 omega t)), a = amp / sigma_z,
    repeats every half period.  The overlap has the cosine series
    e^-x [I_0(x) + 2 sum_k I_k(x) cos 2ku], x = a^2 / 2 (Jacobi-Anger;
    Abramowitz & Stegun 9.6.34), taken from periodic trapezoid samples
    (``_overlap_series``), which converge geometrically (Trefethen &
    Weideman, SIAM Rev. 56, 385 (2014)).  Whole half periods multiply the
    mean c_0, so tau(m T) = 2 m tau(T/2) holds exactly; a window within a
    few ulps of a whole number of half periods counts as one.  The rest u
    of the window integrates to c_0 u + sum_k c_k sin(2ku) / 2k.  Raises
    QuadratureError when the change of both at the last doubling exceeds
    the budget of 1e-6 chi_max * upto.
    """
    if upto == 0.0:
        return 0.0
    omega, a2 = _overlap_depth(derived, config, interrogation)
    half = math.pi / omega
    chi_max = derived.chi_max
    n_full, remainder = divmod(upto, half)
    if half - remainder <= 4.0 * math.ulp(upto):
        n_full, remainder = n_full + 1, 0.0
    elif remainder <= 4.0 * math.ulp(upto):
        remainder = 0.0
    series = _overlap_series(a2)  # row 1, from half the samples, estimates the error
    whole = n_full * (half * chi_max * (1.0 - 2.0 * series[:, 0]))
    rest = np.zeros(2)
    if remainder:
        u = omega * remainder
        k = 2.0 * np.arange(1, series.shape[1])
        part = series[:, 0] * u + (series[:, 1:] * (np.sin(k * u) / k)).sum(axis=1)
        rest = chi_max * (remainder - 2.0 * part / omega)
    achieved = float(abs(whole[0] - whole[1]) + abs(rest[0] - rest[1]))
    tol_total = _QUAD_REL_TOL * chi_max * upto
    if achieved > tol_total:
        raise QuadratureError(
            f"chi(t) quadrature reached {achieved:.3e}, requested {tol_total:.3e}",
            achieved=achieved, requested=tol_total,
        )
    return float(whole[0] + rest[0])


def tau_accumulated(config: AtomTrapConfig, model: str, upto: float) -> float:
    """Twisting strength tau = integral of chi(t) dt over [0, upto] (prep trap)."""
    if not (math.isfinite(upto) and upto >= 0):
        raise ValueError(f"upto must be finite and >= 0, got {upto}")
    derived = derive_trap(config, model)
    return _integrate_chi(derived, config, upto, interrogation=False)


def tau_tilde(config: AtomTrapConfig, model: str = "gaussian") -> float:
    """Twisting accumulated during the interrogation half-period T_tilde/2.

    Uses the interrogation trap frequency for both the trajectory and the
    kick amplitude while keeping the preparation-trap mode widths; for an
    unchanged trap this equals tau over one preparation half-period.
    """
    derived = derive_trap(config, model)
    half = math.pi / config.omega_z_tilde
    return _integrate_chi(derived, config, half, interrogation=True)


def tau_closed_form(config: AtomTrapConfig, m: float | None = None) -> float:
    """Separated-mode estimate of the accumulated twisting strength.

    tau_m = (2 m pi / 7) (15 a gamma^2 sqrt(M/hbar))^(2/5) (omega_z/N^3)^(1/5);
    linear in the oscillation count m and independent of the overlap dips,
    so it bounds the Thomas-Fermi quadrature over the matching window from
    above.
    """
    if m is None:
        m = config.oscillations
    gamma = config.aspect_ratio
    return _representable("tau_closed_form", config, ("omega_x", "omega_z"), lambda: (
        2.0 * m * math.pi / 7.0
        * (15.0 * config.scattering_length * gamma**2 * math.sqrt(config.atom_mass / hbar)) ** 0.4
        * (config.omega_z / config.n_atoms**3) ** 0.2))


def gravity_phase(config: AtomTrapConfig) -> float:
    """Phase accumulated over the interrogation half-period.

    theta = 2 k0 g (1/omega_z_tilde^2 - 1/omega_z^2); zero if the trap is
    unchanged, sign flipping as omega_z_tilde crosses omega_z.
    """
    fields = ("k0", "gravity", "omega_z", "omega_z_tilde")
    return _representable("gravity_phase", config, fields, lambda: (
        2.0 * config.k0 * config.gravity * (
            1.0 / config.omega_z_tilde**2 - 1.0 / config.omega_z**2)))
