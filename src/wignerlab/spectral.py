"""Closed-form spectral reference laws and per-spectrum statistics.

Closed forms: the semicircle density ``rho_sc(E) = sqrt(4 - E^2)/(2 pi)``
on ``[-2, 2]``, its Stieltjes transform ``m_sc`` (the root of
``m^2 + z m + 1 = 0`` in the upper half-plane), the cumulative ``F_sc``
used for unfolding, the sine-kernel determinant, the GUE joint eigenvalue
log-density, and the GUE Wigner surmise.

Empirical statistics operate on a :class:`~wignerlab.eigensolver.Spectrum`.
Interval counting and ``Im m_N`` act on a spectrum stack row by row; the
empirical Stieltjes transform, a pointwise dyadic upper bound on its
imaginary part, and unfolded nearest-neighbour spacings refuse a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .distributions import _elementwise
from .eigensolver import Spectrum
from .errors import DomainError

__all__ = [
    "rho_sc",
    "m_sc",
    "F_sc",
    "semicircle_quantile",
    "counting",
    "im_stieltjes",
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
    lo, hi = -2.0, 2.0
    # bisect until the bracket is two adjacent doubles
    while lo < (mid := (lo + hi) / 2.0) < hi:
        lo, hi = (mid, hi) if F_sc(mid) < p else (lo, mid)
    return hi


def _values(spec: Spectrum) -> np.ndarray:
    """Eigenvalues of a single spectrum; a stack would mix its matrices."""
    if spec.eigenvalues.ndim != 1:
        raise DomainError(f"expected the spectrum of one matrix, got shape {spec.eigenvalues.shape}")
    return spec.eigenvalues


def counting(spec: Spectrum, a, b):
    """Number of eigenvalues in the closed intervals ``[a, b]``.

    ``a`` and ``b`` broadcast to the window shape ``P``; a spectrum stack of
    batch shape ``S`` gives ``S + P`` counts.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.any(a > b):
        raise DomainError(f"interval is reversed: a={a} > b={b}")
    # shape S + (1,) * a.ndim + (n,), against the windows' trailing axis
    mu = np.expand_dims(spec.eigenvalues, tuple(range(-1 - a.ndim, -1)))
    out = np.count_nonzero((mu >= a[..., None]) & (mu <= b[..., None]), axis=-1)
    return out if out.ndim else int(out)


def im_stieltjes(spec: Spectrum, E, eta):
    """``Im m_N(E + i eta)``, the Poisson-kernel sum
    ``(1/N) sum_a eta / ((mu_a - E)^2 + eta^2)``.

    ``E`` and ``eta`` broadcast to the point shape ``P``; a spectrum stack
    of batch shape ``S`` gives ``S + P`` values.
    """
    E, eta = np.broadcast_arrays(np.asarray(E, dtype=float), np.asarray(eta, dtype=float))
    mu = np.expand_dims(spec.eigenvalues, tuple(range(-1 - E.ndim, -1)))
    E, eta = E[..., None], eta[..., None]
    out = np.sum(eta / ((mu - E) ** 2 + eta * eta), axis=-1) / spec.n
    return out if out.ndim else float(out)


def stieltjes(spec: Spectrum, z: complex) -> complex:
    """Empirical Stieltjes transform ``(1/N) sum 1/(mu_a - z)``."""
    z = complex(z)
    if not z.imag > 0.0:
        raise DomainError(f"stieltjes needs Im z > 0, got z = {z}")
    return complex(np.mean(1.0 / (_values(spec) - z)))


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
    mu = _values(spec)
    n = spec.n
    lhs = im_stieltjes(spec, E, eps)
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


def gue_log_normalization(N: int) -> float:
    """Log of the GUE joint-density normalisation constant.

    The closed form ``Z_N = (2 pi)^{N/2} N^{-N^2/2} prod_{j<=N} j!`` of the
    integral of :func:`gue_log_density`'s exponential, for every ``N >= 1``.
    """
    if N < 1:
        raise DomainError(f"normalisation needs N >= 1, got {N}")
    log_factorials = math.fsum(math.lgamma(j + 1) for j in range(1, N + 1))
    return 0.5 * N * math.log(_TWO_PI) - 0.5 * N * N * math.log(N) + log_factorials


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
    mu = _values(spec)
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
    """Cumulative form ``erf(2 s/sqrt(pi)) - (4/pi) s exp(-4 s^2/pi)`` of the
    GUE Wigner surmise.

    ``erf`` is :func:`math.erf` taken element by element; it agrees with
    ``scipy.special.erf`` to within one ulp.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise DomainError("spacings must be non-negative")
    x = 2.0 * s / math.sqrt(math.pi)
    out = _elementwise(math.erf, x) - (4.0 / math.pi) * s * np.exp(-4.0 * s * s / math.pi)
    return out if out.ndim else float(out)
