"""Closed-form moments, squeezing, and weak-coupling gain for twisted states.

These formulas duplicate what the exact Dicke-basis simulator computes for a
one-axis-twisted coherent state, as analytic functions of (N, tau, alpha).
They serve two purposes: a fast path for scans, and an independent oracle the
simulator is tested against.  All cos(tau)**(2S-k) powers are evaluated in
log space so N ~ 1e3 does not underflow term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BraggTrapError, DegenerateStateError

__all__ = [
    "AnalyticMoments",
    "oat_moments_closed",
    "xi2_closed",
    "weak_gain",
    "output_moments_perturbative",
    "twisted_ladder_moments",
]


def _pow_signed(base: float, exponent: int) -> float:
    """base**exponent for integer exponents via exp/log, preserving sign.

    Underflow returns exact 0.0; a zero base with negative exponent raises.
    """
    if exponent == 0:
        return 1.0
    if base == 0.0:
        if exponent < 0:
            raise BraggTrapError("0 raised to a negative power")
        return 0.0
    mag = exponent * math.log(abs(base))
    if mag < -745.0:
        return 0.0
    value = math.exp(mag)
    if base < 0.0 and exponent % 2 != 0:
        value = -value
    return value


@dataclass(frozen=True)
class AnalyticMoments:
    """First and second moments of a twisted coherent state after an x-rotation.

    ``a_coef``/``b_coef``/``delta`` are the shear parameters
    A = 1 - cos(2 tau)^(2S-2), B = 4 sin(tau) cos(tau)^(2S-2),
    delta = arctan(B/A)/2; sy2/sz2 depend on the rotation angle alpha.
    """

    n_atoms: int
    tau: float
    alpha: float
    a_coef: float
    b_coef: float
    delta: float
    sx: float
    sy: float
    sz: float
    sx2: float
    sy2: float
    sz2: float


def _shear_parameters(n_atoms: int, tau: float) -> tuple[float, float, float]:
    n = n_atoms
    a_coef = 1.0 - _pow_signed(math.cos(2.0 * tau), n - 2)
    b_coef = 4.0 * math.sin(tau) * _pow_signed(math.cos(tau), n - 2)
    if a_coef == 0.0:
        delta = 0.0 if b_coef == 0.0 else math.copysign(0.25 * math.pi, b_coef)
    else:
        delta = 0.5 * math.atan2(b_coef, a_coef)
    return a_coef, b_coef, delta


def oat_moments_closed(n_atoms: int, tau: float, alpha: float) -> AnalyticMoments:
    """Moments of exp(-i tau S_z^2)|+x CSS> measured after the rotation R_x(alpha)."""
    if n_atoms < 2:
        raise ValueError("n_atoms must be >= 2")
    n = n_atoms
    s = 0.5 * n
    a_coef, b_coef, delta = _shear_parameters(n, tau)
    root = math.hypot(a_coef, b_coef)
    cos_term = root * math.cos(2.0 * alpha + 2.0 * delta)
    sx = s * _pow_signed(math.cos(tau), n - 1)
    sx2 = 0.5 * s * (n - (s - 0.5) * a_coef)
    sy2 = 0.5 * s * (1.0 + 0.25 * (n - 1.0) * (a_coef + cos_term))
    sz2 = 0.5 * s * (1.0 + 0.25 * (n - 1.0) * (a_coef - cos_term))
    return AnalyticMoments(
        n_atoms=n, tau=tau, alpha=alpha,
        a_coef=a_coef, b_coef=b_coef, delta=delta,
        sx=sx, sy=0.0, sz=0.0, sx2=sx2, sy2=sy2, sz2=sz2,
    )


def xi2_closed(n_atoms: int, tau: float) -> float:
    """Wineland parameter minimized over the orientation angle.

    xi^2 = [4 + (2S-1)(A - sqrt(A^2 + B^2))] / (4 cos(tau)^(4S-2)); equal to
    min over alpha of the exact Wineland parameter of the rotated twisted
    state.  The mean spin is S |cos(tau)|^(N-1), so where
    cos(tau)^(2N-2) < 1e-20 this raises the exact path's mean-spin error
    (``SpinMoments.xi2``) instead of returning a ratio of rounding noise.
    """
    if n_atoms < 2:
        raise ValueError("n_atoms must be >= 2")
    n = n_atoms
    mean2 = _pow_signed(math.cos(tau), 2 * n - 2)
    if mean2 < 1e-20:
        raise DegenerateStateError(
            f"mean spin length {0.5 * n * math.sqrt(mean2):.3e} too small for xi^2")
    a_coef, b_coef, _ = _shear_parameters(n, tau)
    num = 4.0 + (n - 1.0) * (a_coef - math.hypot(a_coef, b_coef))
    return num / (4.0 * mean2)


def weak_gain(
    n_atoms: int, tau: float, tau_tilde: float, alpha: float, beta: float
) -> float:
    """First-order sensitivity gain squared for weak twisting.

    G^2 = [1 + (2S-1) (sin(2 beta) tau_tilde - sin(2 alpha + 2 beta) tau)]
          * cos^2(beta),
    valid to first order in tau and tau_tilde.
    """
    n = n_atoms
    bracket = 1.0 + (n - 1.0) * (
        math.sin(2.0 * beta) * tau_tilde - math.sin(2.0 * (alpha + beta)) * tau
    )
    return bracket * math.cos(beta) ** 2


def output_moments_perturbative(
    n_atoms: int, tau: float, tau_tilde: float, alpha: float, beta: float
) -> tuple[float, float]:
    """(<S_x>, <S_z^2>) of the interferometer output, first order in tau_tilde.

    Exact in tau; the interrogation twisting enters as
    <X> = <X^(0)> + i tau_tilde <[R_x^dag(alpha) S_y^2 R_x(alpha), X_rot]>
    evaluated on the twisted state, with the commutators reduced to the
    closed-form raising-operator moments.  Evaluated at zero encoded phase.
    """
    if n_atoms < 2:
        raise ValueError("n_atoms must be >= 2")
    n = n_atoms
    s = 0.5 * n
    g = alpha + beta
    mom = twisted_ladder_moments(n, tau)

    # rotated-frame coefficients: R^dag(alpha) S_y^2 R(alpha) and the
    # measured quadratic R^dag(g) S_z^2 R(g), both expanded over
    # {S_y^2, S_z^2, {S_y,S_z}}
    a_y, a_z, a_c = math.cos(alpha) ** 2, math.sin(alpha) ** 2, -0.5 * math.sin(2 * alpha)
    b_z, b_y, b_c = math.cos(g) ** 2, math.sin(g) ** 2, 0.5 * math.sin(2 * g)

    sx0 = s * _pow_signed(math.cos(tau), n - 1)
    q = mom["sp_sz"] + 0.5 * mom["sp"]
    anti = (mom["sp2"].real + 2.0 * mom["sz2"].real + mom["sz"].real
            - mom["sp_sm"].real)
    sx1 = 2.0 * (a_y - a_z) * q.imag + a_c * anti

    sy2 = 0.5 * s * (1.0 + 0.5 * (n - 1.0)
                     * (1.0 - _pow_signed(math.cos(2.0 * tau), n - 2)))
    syz = 2.0 * q.imag
    sz2_0 = b_z * mom["sz2"].real + b_y * sy2 + b_c * syz

    # i <[.,.]> contributions, from
    #   [S_y^2, S_z^2] = S_+^2 (S_z + 1) - h.c.
    #   [{S_y,S_z}, S_z^2] = -(1/2i)(4 S_+ S_z^2 + 4 S_+ S_z + S_+ + h.c.)
    #   [{S_y,S_z}, S_y^2] = (1/2i)(S_+^2 S_- + h.c. - 2 S_+ S_z - 2 h.c.
    #                                - S_+^3 - h.c. - S_+ - h.c.)
    u = mom["sp2_sz"] + mom["sp2"]
    w = 4.0 * mom["sp_sz2"] + 4.0 * mom["sp_sz"] + mom["sp"]
    v = mom["sp2_sm"] - 2.0 * mom["sp_sz"] - mom["sp3"] - mom["sp"]
    sz2_1 = (
        -2.0 * (a_y * b_z - a_z * b_y) * u.imag
        - (a_c * b_z - a_z * b_c) * w.real
        + (a_c * b_y - a_y * b_c) * v.real
    )
    return sx0 + tau_tilde * sx1, sz2_0 + tau_tilde * sz2_1


def twisted_ladder_moments(n_atoms: int, tau: float) -> dict[str, complex]:
    """Raising-operator moment family of the twisted coherent state.

    Closed forms for <S_+^k S_z^j> type correlators of exp(-i tau S_z^2) on
    the +x coherent state; used as oracles against dense matrices and as
    stepping stones for the rotated second moments.
    """
    if n_atoms < 2:
        raise ValueError("n_atoms must be >= 2")
    n = n_atoms
    s = 0.5 * n
    c1 = _pow_signed(math.cos(tau), n - 1)
    c2 = _pow_signed(math.cos(tau), n - 2)
    c3 = _pow_signed(math.cos(tau), n - 3)
    d2 = _pow_signed(math.cos(2.0 * tau), n - 2)
    d3 = _pow_signed(math.cos(2.0 * tau), n - 3)
    e3 = _pow_signed(math.cos(3.0 * tau), n - 3)
    sin_t = math.sin(tau)
    return {
        "sp": s * c1 + 0.0j,
        "sp2": s * (s - 0.5) * d2 + 0.0j,
        "sp3": s * (s - 0.5) * (s - 1.0) * e3 + 0.0j,
        "sp_sz": 1j * s * (s - 0.5) * c2 * sin_t - 0.5 * s * c1,
        "sp2_sz": 1j * s * (s - 0.5) * (s - 1.0) * d3 * math.sin(2.0 * tau)
        - s * (s - 0.5) * d2,
        "sp_sz2": (
            0.25 * s * c1
            + 0.5 * s * (s - 0.5) * c1
            - 1j * s * (s - 0.5) * c2 * sin_t
            - s * (s - 0.5) * (s - 1.0) * c3 * sin_t**2
        ),
        "sp_sm": s * (s + 0.5) + 0.0j,
        "sp2_sm": s * (s - 0.5) * (s - 1.0) * c3
        + 2.0 * s * (s - 0.5) * c2 * complex(math.cos(tau), math.sin(tau)),
        "sz": 0.0 + 0.0j,
        "sz2": 0.5 * s + 0.0j,
    }
