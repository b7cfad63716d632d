"""Closed-form spectral reference laws and per-spectrum statistics.

Closed forms: the semicircle density ``rho_sc(E) = sqrt(4 - E^2)/(2 pi)``
on ``[-2, 2]``, its Stieltjes transform ``m_sc`` (the root of
``m^2 + z m + 1 = 0`` in the upper half-plane), the cumulative ``F_sc``
used for unfolding, the sine-kernel determinant, the GUE joint eigenvalue
log-density, and the GUE Wigner surmise.

Empirical statistics operate on a :class:`~wignerlab.eigensolver.Spectrum`:
interval counting, the empirical Stieltjes transform, a pointwise dyadic
upper bound on its imaginary part, and unfolded nearest-neighbour spacings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .eigensolver import Spectrum
from .errors import DomainError

__all__ = [
    "rho_sc",
    "m_sc",
    "F_sc",
    "semicircle_quantile",
    "counting",
    "stieltjes",
    "DyadicBound",
    "dyadic_bound",
    "sine_kernel_det",
    "gue_log_density",
    "gue_log_normalization",
    "SpacingSample",
    "unfolded_spacings",
    "wigner_surmise_gue",
    "wigner_surmise_gue_cdf",
]

_TWO_PI = 2.0 * math.pi


def rho_sc(E):
    """Semicircle density ``sqrt(4 - E^2)/(2 pi)``, zero outside [-2, 2]."""
    E = np.asarray(E, dtype=float)
    out = np.sqrt(np.clip(4.0 - E * E, 0.0, None)) / _TWO_PI
    return out if out.ndim else float(out)


def m_sc(z: complex) -> complex:
    """Stieltjes transform of the semicircle law on the upper half-plane.

    The root of ``m^2 + z m + 1 = 0`` with positive imaginary part
    (equivalently the branch with ``m_sc(z) -> 0`` as ``|z| -> inf``).
    """
    z = complex(z)
    if not z.imag > 0.0:
        raise DomainError(f"m_sc needs Im z > 0, got z = {z}")
    root = np.sqrt(np.complex128(z * z / 4.0 - 1.0))
    m = -z / 2.0 + root
    if m.imag <= 0.0:
        m = -z / 2.0 - root
    return complex(m)


def F_sc(E):
    """Cumulative semicircle distribution; 0 at -2 and 1 at +2."""
    E = np.asarray(E, dtype=float)
    x = np.clip(E, -2.0, 2.0)
    out = (x / 2.0 * np.sqrt(4.0 - x * x) + 2.0 * np.arcsin(x / 2.0) + math.pi) / _TWO_PI
    return out if out.ndim else float(out)


def semicircle_quantile(p: float) -> float:
    """Inverse of :func:`F_sc` on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must lie in (0, 1), got {p}")
    from scipy.optimize import brentq

    return brentq(lambda x: F_sc(x) - p, -2.0, 2.0, xtol=1e-14)


def counting(spec: Spectrum, a: float, b: float) -> int:
    """Number of eigenvalues in the closed interval ``[a, b]``."""
    if a > b:
        raise DomainError(f"interval is reversed: a={a} > b={b}")
    mu = spec.eigenvalues
    return int(np.searchsorted(mu, b, side="right") - np.searchsorted(mu, a, side="left"))


def stieltjes(spec: Spectrum, z: complex) -> complex:
    """Empirical Stieltjes transform ``(1/N) sum 1/(mu_a - z)``."""
    z = complex(z)
    if not z.imag > 0.0:
        raise DomainError(f"stieltjes needs Im z > 0, got z = {z}")
    return complex(np.mean(1.0 / (spec.eigenvalues - z)))


class DyadicBound(NamedTuple):
    """Pointwise split ``lhs <= rhs`` of the Poisson-kernel sum."""

    lhs: float
    rhs: float
    head: float
    annuli: tuple


def dyadic_bound(spec: Spectrum, E: float, eps: float) -> DyadicBound:
    """Dyadic upper bound for ``Im m_N(E + i eps)``.

    ``lhs`` is the exact Poisson-kernel sum.  ``rhs`` bounds each
    eigenvalue's kernel by its worst case over the dyadic annulus it falls
    in: the head term counts ``[E - eps, E + eps]`` at kernel ``1/eps``,
    and annulus ``l`` (distances in ``(2^l eps, 2^{l+1} eps]``) contributes
    at kernel ``eps / (2^l eps)^2``.  The annulus list stops as soon as the
    annulus lies beyond the spectrum range, so the bound is a finite sum.
    """
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    mu = spec.eigenvalues
    n = spec.n
    lhs = float(np.sum(eps / ((mu - E) ** 2 + eps * eps)) / n)
    dist = np.abs(mu - E)
    head = float(np.sum(dist <= eps)) / (n * eps)
    far = float(dist.max(initial=0.0))
    annuli = []
    level = 0
    lo = eps
    while lo < far:
        hi = 2.0 * lo
        count = int(np.sum((dist > lo) & (dist <= hi)))
        annuli.append((eps / n) * count / (4.0**level * eps * eps))
        level += 1
        lo = hi
    return DyadicBound(lhs=lhs, rhs=head + math.fsum(annuli), head=head, annuli=tuple(annuli))


def sine_kernel_det(points: Sequence[float], k: Optional[int] = None) -> float:
    """Determinant of the sine kernel ``sin(pi(x_j - x_l))/(pi(x_j - x_l))``.

    Diagonal entries take the limit value 1.  At most 6 points.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise DomainError("points must be a non-empty 1-d sequence")
    if k is not None and k != x.size:
        raise DomainError(f"k={k} does not match the number of points {x.size}")
    if x.size > 6:
        raise DomainError(f"at most 6 points supported, got {x.size}")
    kernel = np.sinc(x[:, None] - x[None, :])
    return float(np.linalg.det(kernel))


def gue_log_density(mu: Sequence[float], N: int) -> float:
    """Unnormalised GUE joint eigenvalue log-density.

    ``sum_{i<j} 2 log|mu_i - mu_j| - (N/2) sum mu_j^2``; returns ``-inf``
    when two coordinates coincide (the density vanishes there).
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size != N:
        raise DomainError(f"expected {N} eigenvalues, got shape {mu.shape}")
    if N > 8:
        raise DomainError(f"log-density supported for N <= 8, got {N}")
    quad_term = -0.5 * N * float(np.sum(mu * mu))
    if N == 1:
        return quad_term
    iu = np.triu_indices(N, 1)
    gaps = np.abs(mu[iu[0]] - mu[iu[1]])
    if np.any(gaps == 0.0):
        return float("-inf")
    return float(2.0 * np.sum(np.log(gaps)) + quad_term)


def gue_log_normalization(N: int, grid_points: int = 240, half_width: float = 8.0) -> float:
    """Log of the GUE joint-density normalisation constant, for N <= 3.

    Computed by tensor-product Gauss-Legendre quadrature of the
    unnormalised density; beyond N = 3 the integral is out of scope.
    """
    if not 1 <= N <= 3:
        raise DomainError(f"normalisation by quadrature only for N in 1..3, got {N}")
    x, w = np.polynomial.legendre.leggauss(grid_points)
    x = x * half_width
    w = w * half_width
    gauss = np.exp(-0.5 * N * x * x)
    if N == 1:
        return math.log(float(np.sum(w * gauss)))
    if N == 2:
        f = (x[:, None] - x[None, :]) ** 2
        z = np.einsum("i,j,ij->", w * gauss, w * gauss, f)
        return math.log(float(z))
    d12 = (x[:, None, None] - x[None, :, None]) ** 2
    d13 = (x[:, None, None] - x[None, None, :]) ** 2
    d23 = (x[None, :, None] - x[None, None, :]) ** 2
    z = np.einsum("i,j,k,ijk->", w * gauss, w * gauss, w * gauss, d12 * d13 * d23)
    return math.log(float(z))


@dataclass
class SpacingSample:
    """Unfolded nearest-neighbour spacings from one spectrum window."""

    spacings: np.ndarray
    window: tuple[float, float]

    def __post_init__(self) -> None:
        self.spacings = np.asarray(self.spacings, dtype=np.float64)
        self.window = (float(self.window[0]), float(self.window[1]))


def unfolded_spacings(spec: Spectrum, window: tuple[float, float]) -> SpacingSample:
    """Spacings ``s_i = N (F_sc(mu_{i+1}) - F_sc(mu_i))`` inside a window.

    Only consecutive eigenvalues both inside the closed window contribute.
    Fewer than two eigenvalues in the window give an empty sample.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (-2.0 < lo < hi < 2.0):
        raise DomainError(f"window must satisfy -2 < lo < hi < 2, got ({lo}, {hi})")
    mu = spec.eigenvalues
    inside = mu[(mu >= lo) & (mu <= hi)]
    if inside.size < 2:
        return SpacingSample(spacings=np.empty(0), window=(lo, hi))
    return SpacingSample(spacings=spec.n * np.diff(F_sc(inside)), window=(lo, hi))


def wigner_surmise_gue(s):
    """GUE Wigner surmise density ``(32/pi^2) s^2 exp(-4 s^2/pi)``."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise DomainError("spacings must be non-negative")
    out = (32.0 / math.pi**2) * s * s * np.exp(-4.0 * s * s / math.pi)
    return out if out.ndim else float(out)


def wigner_surmise_gue_cdf(s):
    """Cumulative form of the GUE Wigner surmise."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise DomainError("spacings must be non-negative")
    from scipy.special import erf

    out = erf(2.0 * s / math.sqrt(math.pi)) - (4.0 / math.pi) * s * np.exp(-4.0 * s * s / math.pi)
    return out if out.ndim else float(out)
