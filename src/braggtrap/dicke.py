"""Exact collective-spin simulation in the Dicke basis.

N two-mode atoms form a pseudo-spin S = N/2.  A pure symmetric state is the
complex amplitude vector c_m over |S, m>, stored in descending order
m = +S, ..., -S (index i maps to m = S - i).  Everything here is a pure
function: states are immutable values, operations return new states, and no
global mutable state exists, so parallel mapping over states is safe.

One state rotated by one angle about x (or y, through quarter-turn z
phases) goes by the Chebyshev series of exp(-i a S_x) in the tridiagonal
S_x / S (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)): no
eigensystem, O(N) memory, and no BLAS call (elementwise numpy and
pocketfft), so the bits do not depend on the BLAS thread count.  One state
rotated by many angles (the alpha block of the joint search,
``x_rotation_block``) and the test helper ``wigner_d`` use the
eigendecomposition of the real symmetric tridiagonal S_x matrix, whose
spectrum is exactly m = -S ... +S and whose eigenvector matrix is orthogonal
(naive column recurrences for the Wigner d-matrix blow up beyond N of a few
hundred); S_x commutes with the index reversal, so it is diagonalized as two
half-size tridiagonals, one per reversal parity.  z rotations and one-axis
twisting are diagonal phase multiplications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateStateError, ResourceLimitError

__all__ = [
    "DickeState",
    "SpinOp",
    "PulseSpec",
    "HusimiGrid",
    "make_css",
    "apply_oat",
    "apply_rotation",
    "x_rotation_block",
    "expectation",
    "SpinMoments",
    "spin_moments",
    "block_moments",
    "wineland_xi2",
    "husimi_grid",
    "operator_matrix",
    "wigner_d",
]

# Amplitudes with log-magnitude below this are flushed to exact zero;
# keeps long binomial tails from polluting moments with denormals.
_LOG_FLOOR = -700.0
_NORM_TOL = 1e-10
# Spread of the y-z second moments, relative to sy2 + sz2, below which the
# block counts as isotropic.  Relative because rounding leaves a spread of
# order eps * S (3.5e-12 of sy2 + sz2 at N = 1e5); genuine twists are far
# above.
_ISOTROPY_TOL = 1e-10
_DENSE_MAX_ATOMS = 64
# Largest S_x eigensystem in bytes; admits N <= 8191
_EIGENSYSTEM_MAX_BYTES = 1 << 30
# The Chebyshev series of an x rotation stops at the first order whose Bessel
# coefficient is provably below _BESSEL_TOL.
_BESSEL_TOL = 1e-17


class SpinOp(str, Enum):
    """Closed set of collective spin operators with exact matrix elements."""

    SX = "sx"
    SY = "sy"
    SZ = "sz"
    SX2 = "sx2"
    SY2 = "sy2"
    SZ2 = "sz2"
    SP = "sp"
    SM = "sm"
    SP_SZ = "sp_sz"
    SP2_SZ = "sp2_sz"
    SP_SZ2 = "sp_sz2"
    SP_SM = "sp_sm"
    SP2_SM = "sp2_sm"


@dataclass(frozen=True)
class DickeState:
    """Normalized amplitude vector over |S, m>, m = +S ... -S (descending).

    ``amplitudes`` must be treated as read-only; operations return new states.
    """

    n_atoms: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise ValueError(f"amplitudes must be 1-D, got shape {amps.shape}")
        _check_amplitudes(self.n_atoms, amps)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def spin(self) -> float:
        """Total spin S = N/2."""
        return 0.5 * self.n_atoms

    @property
    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in storage order (descending)."""
        return self.spin - np.arange(self.n_atoms + 1)

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _check_amplitudes(n_atoms: int, amps: np.ndarray) -> None:
    """Length, finiteness and unit norm of each state along the last axis of
    ``amps`` (one state or a (K, N+1) block of states)."""
    if amps.shape[-1] != n_atoms + 1:
        raise ValueError(
            f"amplitudes must have length n_atoms + 1 = {n_atoms + 1}, "
            f"got shape {amps.shape}"
        )
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes contain non-finite entries")
    drift = abs(np.add.reduce(np.abs(amps) ** 2, axis=-1) - 1.0).max()
    if drift > _NORM_TOL:
        raise ValueError(f"state norm deviates from 1 by {drift:.3e}")


@dataclass(frozen=True)
class PulseSpec:
    """Instantaneous collective rotation: exp(-i * angle * S_axis)."""

    axis: str
    angle: float

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise ValueError(f"axis must be one of 'x', 'y', 'z', got {self.axis!r}")
        if not math.isfinite(self.angle):
            raise ValueError("pulse angle must be finite")


@dataclass(frozen=True)
class HusimiGrid:
    """Husimi Q samples: values[i, j] = Q(polar[i], azimuth[j])."""

    polar: np.ndarray
    azimuth: np.ndarray
    values: np.ndarray

    def sphere_integral(self) -> float:
        """Quadrature of Q over the sphere (trapezoid in polar, uniform azimuth)."""
        dphi = 2.0 * math.pi / len(self.azimuth)
        ring = self.values.sum(axis=1) * dphi * np.sin(self.polar)
        return float(np.trapezoid(ring, self.polar))


@lru_cache(maxsize=16)
def _binomial_log_half(n: int) -> np.ndarray:
    """0.5 * log C(n, k) for k = 0..n, via log-gamma (overflow-safe); read-only."""
    lg = np.fromiter(map(math.lgamma, range(1, n + 2)), dtype=float, count=n + 1)
    out = 0.5 * (lg[n] - lg - lg[::-1])
    out.setflags(write=False)
    return out


def _css_amplitudes(n_atoms: int, polar: float) -> np.ndarray:
    """Real amplitudes of the coherent state at azimuth 0 (index k = S - m)."""
    n = n_atoms
    k = np.arange(n + 1)
    ch = math.cos(0.5 * polar)
    sh = math.sin(0.5 * polar)
    out = np.zeros(n + 1)
    if sh == 0.0:
        out[0] = 1.0
        return out
    if ch == 0.0:
        out[n] = 1.0
        return out
    logmag = (
        _binomial_log_half(n)
        + (n - k) * math.log(abs(ch))
        + k * math.log(abs(sh))
    )
    keep = logmag > _LOG_FLOOR
    out[keep] = np.exp(logmag[keep])
    # polar in [0, pi] gives ch, sh >= 0; signs only matter outside that range
    if ch < 0:
        out *= np.where((n - k) % 2 == 1, -1.0, 1.0)
    if sh < 0:
        out *= np.where(k % 2 == 1, -1.0, 1.0)
    out /= math.sqrt(float(np.sum(out**2)))
    return out


def make_css(n_atoms: int, polar: float, azimuth: float) -> DickeState:
    """Build the spin coherent state pointing along (polar, azimuth).

    (polar, azimuth) = (pi/2, 0) gives the +x binomial state
    2^-S sum_k C(2S, k)^(1/2) |S, S-k>; (0, anything) is the +S pole state.
    Amplitudes are assembled from log-gamma binomials so N >= 1000 is exact
    to double precision without overflow.
    """
    if not isinstance(n_atoms, (int, np.integer)) or n_atoms < 1:
        raise ValueError(f"n_atoms must be a positive integer, got {n_atoms!r}")
    if not (math.isfinite(polar) and math.isfinite(azimuth)):
        raise ValueError("polar and azimuth must be finite")
    if not 0.0 <= polar <= math.pi:
        raise ValueError(f"polar must lie in [0, pi], got {polar}")
    mags = _css_amplitudes(n_atoms, polar)
    k = np.arange(n_atoms + 1)
    amps = mags * np.exp(1j * k * azimuth)
    return DickeState(int(n_atoms), amps)


def apply_oat(state: DickeState, tau: float) -> DickeState:
    """One-axis twisting exp(-i * tau * S_z^2): diagonal phases exp(-i tau m^2).

    The phases have period 2 pi in tau for even N (integer m) and 8 pi for
    odd N (m^2 = k(k+1) + 1/4), so tau is reduced by that period first.
    """
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    tau = math.remainder(tau, (2.0 if state.n_atoms % 2 == 0 else 8.0) * math.pi)
    if tau == 0.0:
        return state
    m = state.m_values
    return DickeState(state.n_atoms, state.amplitudes * np.exp(-1j * tau * m * m))


def _ladder_strengths(n: int) -> np.ndarray:
    """f[k] = sqrt(k (n + 1 - k)): matrix element of S_+ from index k to k-1."""
    k = np.arange(n + 1, dtype=float)
    return np.sqrt(k * (n + 1.0 - k))


@lru_cache(maxsize=4)
def _sx_eigensystem(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal eigenvectors of the tridiagonal S_x and its exact spectrum.

    S_x commutes with the index reversal J, so each eigenvector is
    [x; (middle); +-J x] (Cantoni & Butler, Linear Algebra Appl. 13, 275
    (1976)): two tridiagonals of about half size, with h = (N+1) // 2 and
    couplings off.  For N odd the last diagonal entry is +-off[h-1]; for N
    even the even sector keeps the middle site, coupled by sqrt(2) off[h-1].
    The largest m is even and parities alternate down the spectrum.  The
    eigenvalues are snapped to the exact m = -S ... +S (ascending), which
    keeps rotation angles like 2 pi exactly periodic.  Raises
    ResourceLimitError before allocating when the eigenvectors, each
    sector's matrix and its eigenvectors would exceed _EIGENSYSTEM_MAX_BYTES.
    """
    n = n_atoms
    d = n + 1
    h = d // 2
    need = 8 * (d * d + 2 * ((d - h) ** 2 + h * h))
    if need > _EIGENSYSTEM_MAX_BYTES:
        raise ResourceLimitError(
            f"n_atoms = {n} needs {need} B for the S_x eigensystem, above the "
            f"limit of {_EIGENSYSTEM_MAX_BYTES} B")
    off = 0.5 * _ladder_strengths(n)[1:]
    if d % 2 == 0:
        sectors = [(off[h - 1], off[:h - 1]), (-off[h - 1], off[:h - 1])]
    else:
        sectors = [(0.0, np.append(off[:h - 1], math.sqrt(2.0) * off[h - 1])),
                   (0.0, off[:h - 1])]
    rows = np.empty((d, d))  # row j: the eigenvector of the j-th smallest m
    parities = ((1.0, rows[(d - 1) % 2::2]), (-1.0, rows[d % 2::2]))
    for (sign, sector), (last, couplings) in zip(parities, sectors):
        size = len(couplings) + 1
        t = np.zeros((size, size))
        t.flat[size::size + 1] = couplings  # eigh reads the lower triangle only
        t[-1, -1] = last
        x = np.linalg.eigh(t)[1].T  # rows by ascending eigenvalue
        sector[:, h:d - h] = 0.0  # the middle site of the odd sector
        sector[:, :x.shape[1]] = x
        sector[:, :h] *= math.sqrt(0.5)
        sector[:, d - h:] = sign * sector[:, h - 1::-1]
    evecs = rows.T
    m_exact = np.arange(d) - 0.5 * n
    evecs.setflags(write=False)
    m_exact.setflags(write=False)
    return m_exact, evecs


@lru_cache(maxsize=1024)
def _series_length(x: float) -> int:
    """Number of terms of the Chebyshev series of exp(-i x H), |H| <= 1, for
    x >= 0: the first order k > x with |J_k(x)| <= _BESSEL_TOL by Kapteyn's
    bound |J_k(k z)| <= (z e^s / (1 + s))^k, s = sqrt(1 - z^2) (Abramowitz &
    Stegun 9.1.63).  The bound falls monotonically in k and grows with x, so
    the count at any x' >= x serves x too.  The bound decides, not the
    computed J_k: their FFT rounding floor, about eps x / sqrt(size), lies
    above 1e-17 once x reaches a few hundred."""
    k = math.floor(x) + 1
    log_tol = math.log(_BESSEL_TOL)
    while x > 0.0:
        z = x / k
        s = math.sqrt(1.0 - z * z)
        if k * (math.log(z) + s - math.log1p(s)) <= log_tol:
            break
        k += 1
    return k


@lru_cache(maxsize=64)
def _series_weights(count: int, size: int) -> np.ndarray:
    """Weights turning the FFT sums size * J_k into the real coefficients of
    exp(-i x H) = J_0 + 2 sum_k (-i)^k J_k T_k: (-i)^k is (-1)^(k/2) for even
    k, and -i (-1)^((k-1)/2) for odd k, whose -i is applied at the end."""
    w = np.full(count, 2.0 / size)
    w[0] = 1.0 / size
    w[2::4] *= -1.0
    w[3::4] *= -1.0
    w.setflags(write=False)
    return w


@lru_cache(maxsize=16)
def _fft_sines(size: int) -> np.ndarray:
    sines = np.sin((2.0 * math.pi / size) * np.arange(size))
    sines.setflags(write=False)
    return sines


@lru_cache(maxsize=8)
def _sx_couplings(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """(above, below): 2 S_x / S as the coupling of each index i to i+1 and
    to i-1, each repeated for the real and imaginary parts of interleaved
    complex amplitudes."""
    f = _ladder_strengths(n_atoms) / (0.5 * n_atoms)
    above = np.repeat(np.append(f[1:], 0.0), 2)
    below = np.repeat(f, 2)
    above.setflags(write=False)
    below.setflags(write=False)
    return above, below


def _chebyshev_rotate_x(amplitudes: np.ndarray, n_atoms: int, angle: float) -> np.ndarray:
    """exp(-i angle S_x) amplitudes from the Chebyshev series in H = S_x / S,

        exp(-i x H) = J_0(x) + 2 sum_k (-i)^k J_k(x) T_k(H),   x = angle S,

    summed with the recurrence T_{k+1} = 2 H T_k - T_{k-1} on the tridiagonal
    H (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).  Whole turns are
    the exact phase (-1)^N and the half turn
    exp(-i pi S_x)|S, m> = exp(-i pi S)|S, -m> is an index reversal, so the
    series runs at |angle| <= pi/2, about angle S + O(S^(1/3)) terms.  All
    J_k come from one FFT of exp(i x sin t) = sum_k J_k(x) e^{ikt}
    (Jacobi-Anger) at a power of two >= 2 count samples, so every order
    aliased onto the series lies beyond its cut.  Even and odd orders have
    real coefficients and go to two accumulators.  The input amplitudes are
    never written.
    """
    n = n_atoms
    reduced = math.remainder(angle, 2.0 * math.pi)  # exact, |reduced| <= pi
    turns = round((angle - reduced) / (2.0 * math.pi))
    phase = -1.0 if n * turns % 2 else 1.0
    if abs(reduced) > 0.5 * math.pi:  # exp(-+i pi S_x): reverse, times exp(-+i pi S)
        quarter = (1.0, -1j, -1.0, 1j)[n % 4]
        phase *= quarter if reduced > 0.0 else quarter.conjugate()
        reduced -= math.copysign(math.pi, reduced)
        amplitudes = amplitudes[::-1]
    x = reduced * 0.5 * n
    # |x| rounded up to 1/8, so that nearby angles share a cached count
    count = _series_length(math.ceil(8.0 * abs(x)) / 8.0)
    size = 1 << max(4, (2 * count - 1).bit_length())
    coef = np.fft.fft(np.exp(1j * x * _fft_sines(size)))[:count].real
    coef *= _series_weights(count, size)
    above, below = _sx_couplings(n)
    # three rows take turns holding T_k, T_{k-1} and T_{k-2} applied to the
    # amplitudes, each as (terms, upper, lower neighbours) of a float view
    # that interleaves real and imaginary parts, with a zero site at each end
    rows = np.zeros((3, n + 3), dtype=np.complex128)
    rows[0, 1:-1] = amplitudes
    old, new, older = ((r[2:-2], r[4:], r[:-4]) for r in rows.view(np.float64))
    acc = [old[0] * coef[0], np.zeros(2 * (n + 1))]  # even and odd orders
    tmp = np.empty(2 * (n + 1))
    for k in range(1, count):
        term = new[0]
        np.multiply(above, old[1], out=term)
        np.multiply(below, old[2], out=tmp)
        term += tmp
        if k == 1:
            term *= 0.5  # T_1 = H T_0
        else:
            term -= older[0]
        np.multiply(term, coef[k], out=tmp)
        acc[k % 2] += tmp
        older, old, new = old, new, older
    out = acc[0].view(np.complex128) - 1j * acc[1].view(np.complex128)
    if phase != 1.0:
        out *= phase
    return out


def x_rotation_block(state: DickeState) -> Callable[[np.ndarray], np.ndarray]:
    """rotate(angles): the states exp(-i angles[k] S_x) state as the rows of a
    (K, N+1) complex array.

    The state's S_x eigenbasis coefficients c = U^T amplitudes are computed
    once; each block is then (exp(-i angles m) * c) U^T as one real GEMM on
    the stacked real and imaginary parts, so U is never cast to complex.
    """
    m_eig, u = _sx_eigensystem(state.n_atoms)
    re, im = np.stack((state.amplitudes.real, state.amplitudes.imag)) @ u
    coeffs = re + 1j * im

    def rotate(angles: np.ndarray) -> np.ndarray:
        rows = np.exp(-1j * np.multiply.outer(np.asarray(angles, dtype=float), m_eig))
        rows *= coeffs
        parts = np.concatenate((rows.real, rows.imag)) @ u.T
        rows.real, rows.imag = np.split(parts, 2)
        return rows

    return rotate


def wigner_d(n_atoms: int, angle: float) -> np.ndarray:
    """Small-d rotation matrix <S,m'| exp(-i angle S_y) |S,m>.

    S_y equals the real tridiagonal S_x matrix conjugated by the diagonal
    gauge diag(i^k), so d = i^(r-c) * [U exp(-i angle m) U^T]_(r,c), which is
    real: entries take the cosine part for even r-c and the sine part for odd.
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    if not math.isfinite(angle):
        raise ValueError("angle must be finite")
    n = int(n_atoms)
    m_eig, u = _sx_eigensystem(n)
    cos_part = (u * np.cos(angle * m_eig)) @ u.T
    sin_part = (u * np.sin(angle * m_eig)) @ u.T
    k = np.arange(n + 1)
    p = np.subtract.outer(k, k) % 4
    re_mask = np.choose(p, [1.0, 0.0, -1.0, 0.0])
    im_mask = np.choose(p, [0.0, 1.0, 0.0, -1.0])
    return re_mask * cos_part + im_mask * sin_part


def apply_rotation(state: DickeState, pulse: PulseSpec) -> DickeState:
    """Rotate by exp(-i * angle * S_axis).

    z rotations are diagonal phases.  x rotations sum the Chebyshev series
    of exp(-i a S_x); y rotations conjugate an x rotation with exact
    quarter-turn z phases,
    exp(-i a S_y) = exp(-i pi/2 S_z) exp(-i a S_x) exp(+i pi/2 S_z).
    """
    if pulse.angle == 0.0:
        return state
    n = state.n_atoms
    m = state.m_values
    if pulse.axis == "z":
        return DickeState(n, state.amplitudes * np.exp(-1j * pulse.angle * m))
    if pulse.axis == "x":
        return DickeState(n, _chebyshev_rotate_x(state.amplitudes, n, pulse.angle))
    quarter = np.exp(0.5j * math.pi * m)
    amps = quarter.conj() * _chebyshev_rotate_x(quarter * state.amplitudes, n, pulse.angle)
    return DickeState(n, amps)


def _ladder_sums(c: np.ndarray, n_atoms: int) -> tuple:
    """(norm, <S_z>, <S_z^2>, <S_+>, <S_+ S_z>, <S_+^2>), each summed along the
    last axis of the amplitudes c (one state or a (K, N+1) block).

    These six give every moment up to second order: <S_-> = <S_+>*,
    <S_-^2> = <S_+^2>* and S_+ S_- + S_- S_+ = 2 (S(S+1) - S_z^2).
    """
    m = 0.5 * n_atoms - np.arange(n_atoms + 1)
    f = _ladder_strengths(n_atoms)  # f[i]: |i> -> |i-1> strength of S_+
    pops = np.abs(c) ** 2
    up1 = np.conj(c[..., :-1]) * c[..., 1:] * f[1:]  # pairs (i-1, i)
    up2 = np.conj(c[..., :-2]) * c[..., 2:]  # pairs (i-2, i); empty for n = 1
    up2 *= f[2:] * f[1:-1]
    pops_m = pops * m
    total = np.add.reduce  # np.sum's own reduction, without its wrapper's overhead
    return (total(pops, axis=-1), total(pops_m, axis=-1), total(pops_m * m, axis=-1),
            total(up1, axis=-1), total(up1 * m[1:], axis=-1), total(up2, axis=-1))


# Third-order ladder sums, which only ``expectation`` reads, from the
# amplitudes c, the S_+ strengths f, the m values and the spin j.
_THIRD_ORDER = {
    SpinOp.SP_SZ2: lambda c, f, m, j: np.sum(np.conj(c[:-1]) * c[1:] * f[1:] * m[1:] ** 2),
    SpinOp.SP2_SZ: lambda c, f, m, j: np.sum(np.conj(c[:-2]) * c[2:] * (f[2:] * f[1:-1]) * m[2:]),
    SpinOp.SP2_SM: lambda c, f, m, j: np.sum(
        np.conj(c[:-1]) * c[1:] * (j * (j + 1.0) - m[1:] * (m[1:] - 1.0)) * f[1:]),
}


def expectation(state: DickeState, op: SpinOp | str) -> complex | float:
    """Exact expectation value of a labelled spin operator.

    The six Hermitian labels of ``SpinMoments`` return its field of the same
    name and S_+ S_- its real value, as floats; the other labels are complex.
    """
    op = SpinOp(op)
    if op in _THIRD_ORDER:
        f = _ladder_strengths(state.n_atoms)
        return complex(_THIRD_ORDER[op](state.amplitudes, f, state.m_values, state.spin))
    if op.value in SpinMoments._fields:
        return getattr(spin_moments(state), op.value)
    norm, sz, sz2, sp, sp_sz, _ = _ladder_sums(state.amplitudes, state.n_atoms)
    if op is SpinOp.SP_SM:  # S_+ S_- = S(S+1) - S_z^2 + S_z
        return float(state.spin * (state.spin + 1.0) * norm - sz2 + sz)
    return complex({SpinOp.SP: sp, SpinOp.SM: np.conj(sp), SpinOp.SP_SZ: sp_sz}[op])


class SpinMoments(NamedTuple):
    """Means and second moments of (S_x, S_y, S_z); sxy, sxz and syz are the
    anticommutator expectations <{S_i, S_j}>."""

    sx: float
    sy: float
    sz: float
    sx2: float
    sy2: float
    sz2: float
    sxy: float
    sxz: float
    syz: float

    def covariance(self) -> np.ndarray:
        """Symmetric 3x3 covariance <{S_i, S_j}>/2 - <S_i><S_j>, ordered x, y, z."""
        mean = np.array(self[:3])
        return 0.5 * np.array([[2.0 * self.sx2, self.sxy, self.sxz],
                               [self.sxy, 2.0 * self.sy2, self.syz],
                               [self.sxz, self.syz, 2.0 * self.sz2]]) - np.outer(mean, mean)

    def squeezed_axis(self) -> tuple[float, float]:
        """(alpha, smallest second moment) of the y-z block.

        R_x(alpha) maps S_z to cos(alpha) S_z + sin(alpha) S_y, so
        alpha = atan2(-syz, sy2 - sz2) / 2 in (-pi/2, pi/2] turns the
        principal axis of the smallest second moment onto z (Kitagawa & Ueda,
        PRA 47, 5138 (1993)).  An isotropic block gives alpha = 0.
        """
        spread = math.hypot(self.sy2 - self.sz2, self.syz)
        smallest = 0.5 * (self.sy2 + self.sz2) - 0.5 * spread
        if spread <= _ISOTROPY_TOL * (self.sy2 + self.sz2):
            return 0.0, smallest
        return 0.5 * math.atan2(-self.syz, self.sy2 - self.sz2), smallest

    def xi2(self, n_atoms: int, variance: float) -> float:
        """Wineland ratio N variance / (<S_x>^2 + <S_y>^2) for a variance of
        this state; raises when the mean spin is too short to define it."""
        denom = self.sx**2 + self.sy**2
        if denom < 1e-20 * (0.5 * n_atoms) ** 2:
            raise DegenerateStateError(
                f"mean spin length {math.sqrt(denom):.3e} too small for xi^2")
        return n_atoms * variance / denom


def _moment_fields(c: np.ndarray, n_atoms: int) -> tuple:
    """The SpinMoments fields along the last axis of the amplitudes c."""
    norm, sz, sz2, sp, sp_sz, sp2 = _ladder_sums(c, n_atoms)
    j = 0.5 * n_atoms
    # S_x^2 + S_y^2 = S(S+1) - S_z^2 and S_x^2 - S_y^2 = Re S_+^2; {S_x, S_y} =
    # Im S_+^2, and {S_x, S_z} + i {S_y, S_z} = 2 S_+ (S_z + 1/2), as
    # expectation values
    transverse = j * (j + 1.0) * norm - sz2
    sp_half = sp_sz + 0.5 * sp
    return (sp.real, sp.imag, sz, 0.5 * (transverse + sp2.real), 0.5 * (transverse - sp2.real),
            sz2, sp2.imag, 2.0 * sp_half.real, 2.0 * sp_half.imag)


def spin_moments(state: DickeState) -> SpinMoments:
    """Means, squares and anticommutators of the spin components, one pass.

    The Hermitian fields equal ``expectation`` of the same labels exactly.
    """
    return SpinMoments(*map(float, _moment_fields(state.amplitudes, state.n_atoms)))


def block_moments(n_atoms: int, block: np.ndarray) -> list[SpinMoments]:
    """``spin_moments`` of each row of a (K, N+1) amplitude block, from one
    vectorized pass; every row is checked as a ``DickeState`` is."""
    block = np.asarray(block, dtype=np.complex128)
    if block.ndim != 2:
        raise ValueError(f"block must be 2-D (K, N+1), got shape {block.shape}")
    _check_amplitudes(n_atoms, block)
    fields = _moment_fields(block, n_atoms)
    return [SpinMoments(*row) for row in zip(*(f.tolist() for f in fields))]


def wineland_xi2(state: DickeState) -> float:
    """Wineland squeezing parameter xi^2 = N Var(S_z) / (<S_x>^2 + <S_y>^2).

    The variance axis is fixed to z; orient the state with a pre-rotation if
    the squeezed quadrature lies elsewhere.
    """
    mom = spin_moments(state)
    return mom.xi2(state.n_atoms, mom.sz2 - mom.sz * mom.sz)


def husimi_grid(state: DickeState, n_polar: int, n_azimuth: int) -> HusimiGrid:
    """Sample Q(theta, phi) = (2S+1)/(4 pi) |<CSS(theta, phi)|psi>|^2.

    Polar samples span [0, pi] inclusive; azimuth samples span [0, 2 pi)
    uniformly, so the trapezoid/riemann quadrature of Q over the sphere
    approaches 1 for fine grids.
    """
    if n_polar < 2 or n_azimuth < 2:
        raise ValueError("grid sizes must be >= 2")
    n = state.n_atoms
    polar = np.linspace(0.0, math.pi, n_polar)
    azimuth = np.linspace(0.0, 2.0 * math.pi, n_azimuth, endpoint=False)
    # <CSS(theta, phi_j)|psi> = sum_k exp(-2 pi i j k / n_azimuth) css_k psi_k
    # is the DFT of css * psi folded modulo n_azimuth
    folds = -(-(n + 1) // n_azimuth)
    terms = np.zeros((folds, n_azimuth), dtype=np.complex128)
    values = np.empty((n_polar, n_azimuth))
    prefactor = (n + 1.0) / (4.0 * math.pi)
    for i, th in enumerate(polar):
        terms.flat[:n + 1] = _css_amplitudes(n, th) * state.amplitudes
        overlap = np.fft.fft(terms.sum(axis=0))
        values[i] = prefactor * np.abs(overlap) ** 2
    return HusimiGrid(polar=polar, azimuth=azimuth, values=values)


def operator_matrix(n_atoms: int, op: SpinOp | str) -> np.ndarray:
    """Dense (N+1)x(N+1) matrix of a labelled operator, for small-N validation.

    Guarded to N <= 64: this backend exists for tests and cross-checks, not
    production evolution.
    """
    if n_atoms > _DENSE_MAX_ATOMS:
        raise ValueError(
            f"dense matrices limited to n_atoms <= {_DENSE_MAX_ATOMS}, got {n_atoms}"
        )
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    op = SpinOp(op)
    n = n_atoms
    f = _ladder_strengths(n)
    sp = np.zeros((n + 1, n + 1), dtype=complex)
    for i in range(1, n + 1):
        sp[i - 1, i] = f[i]
    sm = sp.conj().T
    sz = np.diag((0.5 * n - np.arange(n + 1)).astype(complex))
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    table = {
        SpinOp.SX: lambda: sx,
        SpinOp.SY: lambda: sy,
        SpinOp.SZ: lambda: sz,
        SpinOp.SX2: lambda: sx @ sx,
        SpinOp.SY2: lambda: sy @ sy,
        SpinOp.SZ2: lambda: sz @ sz,
        SpinOp.SP: lambda: sp,
        SpinOp.SM: lambda: sm,
        SpinOp.SP_SZ: lambda: sp @ sz,
        SpinOp.SP2_SZ: lambda: sp @ sp @ sz,
        SpinOp.SP_SZ2: lambda: sp @ sz @ sz,
        SpinOp.SP_SM: lambda: sp @ sm,
        SpinOp.SP2_SM: lambda: sp @ sp @ sm,
    }
    return table[op]()
