"""Closed-form spectral reference laws and per-spectrum statistics.

Closed forms: the semicircle density ``rho_sc(E) = sqrt(4 - E^2)/(2 pi)``
on ``[-2, 2]``, its Stieltjes transform ``m_sc`` (the root of
``m^2 + z m + 1 = 0`` in the upper half-plane), the cumulative ``F_sc``
used for unfolding, the GUE joint eigenvalue log-density with its
normalisation, and the GUE Wigner surmise.

Empirical statistics take ascending eigenvalues ``mu`` of shape
``(..., N)``, as :func:`~wignerlab.eigensolver.eigvalsh` returns them.
Interval counting and ``Im m_N`` act on a stack row by row; unfolded
nearest-neighbour spacings refuse a stack.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .distributions import _elementwise
from .errors import DomainError

__all__ = [
    "rho_sc",
    "m_sc",
    "F_sc",
    "counting",
    "im_stieltjes",
    "gue_log_density",
    "gue_log_normalization",
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


def counting(mu, a, b):
    """Number of eigenvalues ``mu`` in the closed intervals ``[a, b]``.

    ``a`` and ``b`` broadcast to the window shape ``P``; a spectrum stack of
    batch shape ``S`` gives ``S + P`` counts.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.any(a > b):
        raise DomainError(f"interval is reversed: a={a} > b={b}")
    # shape S + (1,) * a.ndim + (n,), against the windows' trailing axis
    mu = np.expand_dims(np.asarray(mu, dtype=float), tuple(range(-1 - a.ndim, -1)))
    out = np.count_nonzero((mu >= a[..., None]) & (mu <= b[..., None]), axis=-1)
    return out if out.ndim else int(out)


def im_stieltjes(mu, E, eta):
    """``Im m_N(E + i eta)``, the Poisson-kernel sum
    ``(1/N) sum_a eta / ((mu_a - E)^2 + eta^2)``.

    ``E`` and ``eta`` broadcast to the point shape ``P``; a spectrum stack
    of batch shape ``S`` gives ``S + P`` values.  Every ``eta`` must be
    positive.
    """
    E, eta = np.broadcast_arrays(np.asarray(E, dtype=float), np.asarray(eta, dtype=float))
    if not np.all(eta > 0.0):
        raise DomainError(f"im_stieltjes needs eta > 0, got eta = {eta}")
    mu = np.expand_dims(np.asarray(mu, dtype=float), tuple(range(-1 - E.ndim, -1)))
    E, eta = E[..., None], eta[..., None]
    out = np.sum(eta / ((mu - E) ** 2 + eta * eta), axis=-1) / mu.shape[-1]
    return out if out.ndim else float(out)


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


def unfolded_spacings(mu, window: tuple[float, float]) -> np.ndarray:
    """Spacings ``s_i = N (F_sc(mu_{i+1}) - F_sc(mu_i))`` inside a window.

    Only consecutive eigenvalues both inside the closed window contribute.
    Fewer than two eigenvalues in the window give an empty array.  ``mu``
    is the spectrum of one matrix; a stack would mix its rows.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (-2.0 < lo < hi < 2.0):
        raise DomainError(f"window must satisfy -2 < lo < hi < 2, got ({lo}, {hi})")
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1:
        raise DomainError(f"expected the spectrum of one matrix, got shape {mu.shape}")
    inside = mu[(mu >= lo) & (mu <= hi)]
    if inside.size < 2:
        return np.empty(0)
    return mu.size * np.diff(F_sc(inside))


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
