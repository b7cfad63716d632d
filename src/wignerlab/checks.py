"""Residuals of the exact identities the laboratory rests on.

Each function measures how far one invariant is from holding and returns
a non-negative float that is 0 when it holds exactly, so a check is
``residual <= bound``.  ``wignerlab check``, the acceptance criteria and
the unit tests all call these functions and differ only in the inputs
and bounds they choose.  The Schur-complement residual lives next to the
overlaps it uses, as :func:`wignerlab.diagnostics.schur_resolvent_residual`.
"""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import coefficients, select_indices
from .distributions import _integrate, gaussian_off, regularity_integrals
from .eigensolver import eigvalsh
from .ensembles import HermitianMatrix, minor
from .spectral import m_sc, rho_sc

__all__ = [
    "semicircle_identity_gap",
    "semicircle_normalization_gap",
    "interlacing_gap",
    "chain_violation",
    "regularity_gap",
]


def semicircle_identity_gap(grid) -> float:
    """Largest ``|pi rho_sc(E) - Im m_sc(E + 1e-9 i)|`` over the energies ``grid``."""
    return max(abs(math.pi * rho_sc(E) - m_sc(complex(E, 1e-9)).imag) for E in grid)


def semicircle_normalization_gap() -> float:
    """``|int rho_sc - 1|``, integrated by :func:`distributions._integrate`."""
    # x = 2 sin(t) turns the square-root edges into the smooth 2 cos(t)**2 / pi
    total = _integrate(lambda t: rho_sc(2.0 * np.sin(t)) * 2.0 * np.cos(t), -math.pi / 2, math.pi / 2)
    return float(abs(total - 1.0))


def interlacing_gap(matrix: HermitianMatrix, j: int) -> float:
    """How far the spectrum of ``minor(matrix, j)`` is from interlacing the
    spectrum ``mu`` of ``matrix`` (Cauchy: ``mu_k <= lambda_k <= mu_{k+1}``),
    the largest gap over the matrices of a stack."""
    mu = eigvalsh(matrix)
    lam = eigvalsh(minor(matrix, j))
    return float(np.max(np.maximum(mu[..., :-1] - lam, lam - mu[..., 1:]), initial=0.0))


def chain_violation(lam, E: float, eps: float, N: int) -> float:
    """Largest violation of the coefficient chains on one good-event spectrum.

    Along the selected indices ``beta_1..beta_8`` both ``c`` and ``|d|``
    decrease, start at most ``1/eps`` and end at least ``1/(2 Delta)``
    (``|d|``) and ``eps/(2 Delta^2)`` (``c``).  ``lam`` is the minor
    spectrum and ``N`` the full dimension; without the good event
    :func:`select_indices` raises :class:`DomainError`.
    """
    sel = select_indices(lam, E, eps, N)
    co = coefficients(lam, E, eps, N)
    cs = co.c[sel.beta[1:]]
    ds = np.abs(co.d[sel.beta[1:]])
    return max(
        0.0,
        float(np.max(np.diff(cs))),
        float(np.max(np.diff(ds))),
        float(ds[0] - 1.0 / eps),
        float(cs[0] - 1.0 / eps),
        float(1.0 / (2.0 * sel.delta) - ds[-1]),
        float(eps / (2.0 * sel.delta**2) - cs[-1]),
    )


def regularity_gap() -> float:
    """Largest relative gap of the Gaussian ``I6``, ``I4``, ``I2pp`` from
    their exact values 120, 12 and 8."""
    values = regularity_integrals(gaussian_off())
    return max(abs(values[key] - ref) / ref for key, ref in (("I6", 120.0), ("I4", 12.0), ("I2pp", 8.0)))
