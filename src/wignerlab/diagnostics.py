"""Minor/overlap machinery for one removed row of a Hermitian matrix.

Removing row and column ``j`` from an ``N x N`` Hermitian matrix ``H``
leaves the minor ``B`` with eigenpairs ``(lambda_a, u_a)`` and exposes the
coupling vector ``a`` (column ``j`` of ``H`` without its diagonal entry).
The objects built here:

* overlaps ``xi_a = N |<u_a, a>|^2``, which satisfy the Parseval identity
  ``sum_a xi_a = N ||a||^2``;
* the Schur-complement identity for the diagonal resolvent entry,
  ``(H - z)^{-1}(j, j) = 1 / (h_jj - z - (1/N) sum_a xi_a/(lambda_a - z))``;
* spectral coefficients ``c_a``, ``d_a`` of the regularised inverse
  distance ``1/(N(lambda_a - E) - i eps)`` and their energy derivatives;
* the good event (at least eight minor eigenvalues at rescaled distance
  ``N |lambda - E| >= eps``) together with the selection of the closest
  eigenvalue ``beta_0``, eight more indices ``beta_1..beta_8`` in
  increasing eligible distance, and the span ``Delta = N |lambda_{beta_8} - E|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .eigensolver import eigh
from .ensembles import HermitianMatrix, minor
from .errors import DomainError, NumericError, _integer

__all__ = [
    "GOOD_EVENT_COUNT",
    "OverlapData",
    "overlaps",
    "schur_resolvent_residual",
    "Coefficients",
    "coefficients",
    "good_event",
    "Selection",
    "select_indices",
    "MinorDiagnostics",
    "minor_diagnostics",
]

GOOD_EVENT_COUNT = 8


class OverlapData(NamedTuple):
    """Minor eigenvalues (ascending) and the matching overlaps."""

    lam: np.ndarray
    xi: np.ndarray


def _require_single(matrix: HermitianMatrix) -> None:
    if matrix.batch_shape:
        raise DomainError(f"expected one matrix, got a stack of shape {matrix.batch_shape}")


def overlaps(matrix: HermitianMatrix, j: int) -> OverlapData:
    """Eigenvalues of ``minor(H, j)`` and overlaps with the removed column."""
    _require_single(matrix)
    if matrix.n < 2:
        raise DomainError("overlaps need matrix dimension at least 2")
    lam, vectors = eigh(minor(matrix, j))
    proj = vectors.conj().T @ np.delete(matrix.array[:, j], j)
    return OverlapData(lam=lam, xi=matrix.n * np.abs(proj) ** 2)


def schur_resolvent_residual(matrix: HermitianMatrix, j: int, z: complex) -> float:
    """Gap between the direct resolvent entry and its Schur-complement form.

    The direct value solves ``(H - z) x = e_j`` and reads off ``x_j``; the
    Schur form uses the minor eigenpairs through the overlaps.  Both sides
    agree analytically, so the return value measures numerical error only.
    """
    z = complex(z)
    if not (z.imag > 0.0 and np.isfinite(z)):
        raise DomainError(f"resolvent comparison needs a finite z with Im z > 0, got z = {z}")
    _require_single(matrix)
    if not 0 <= _integer(j, "row index") < matrix.n:
        raise DomainError(f"row index must lie in [0, {matrix.n}), got {j}")
    h, n = matrix.array, matrix.n
    rhs = np.zeros(n, dtype=np.complex128)
    rhs[j] = 1.0
    try:
        direct = np.linalg.solve(h - z * np.eye(n), rhs)[j]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"resolvent solve failed at z = {z}: {exc}") from exc
    lam, xi = overlaps(matrix, j)
    schur = 1.0 / (h[j, j] - z - np.sum(xi / (lam - z)) / n)
    return float(abs(direct - schur))


class Coefficients(NamedTuple):
    """Spectral coefficients and their energy derivatives."""

    c: np.ndarray
    d: np.ndarray
    c_prime: np.ndarray
    d_prime: np.ndarray


def _scaled(lam, E: float, eps: float, N: int) -> np.ndarray:
    """The signed rescaled distances ``N (lambda - E)``, once ``eps`` lies in
    (0, 1] and ``N`` is a positive integer."""
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"eps must lie in (0, 1], got {eps}")
    if _integer(N, "N") < 1:
        raise DomainError(f"N must be positive, got {N}")
    return N * (np.asarray(lam, dtype=float) - E)


def coefficients(lam: Sequence[float], E: float, eps: float, N: int) -> Coefficients:
    """Coefficients ``c_a``, ``d_a`` at energy ``E`` and their derivatives.

    With ``u_a = N^2 (lambda_a - E)^2 + eps^2``:

    * ``c_a = eps / u_a`` and ``d_a = N (lambda_a - E) / u_a``;
    * ``dc_a/dE = 2 eps N^2 (lambda_a - E) / u_a^2``;
    * ``dd_a/dE = N (N^2 (lambda_a - E)^2 - eps^2) / u_a^2``.

    ``N`` is the dimension of the full matrix, one more than the minor.
    """
    t = _scaled(lam, E, eps, N)
    u = t * t + eps * eps
    c = eps / u
    d = t / u
    c_prime = 2.0 * eps * N * t / (u * u)
    d_prime = N * (t * t - eps * eps) / (u * u)
    return Coefficients(c=c, d=d, c_prime=c_prime, d_prime=d_prime)


def good_event(lam, E: float, eps: float, N: int):
    """True when at least 8 eigenvalues satisfy ``N |lambda - E| >= eps``.

    The boundary ``N |lambda - E| = eps`` counts as outside the excluded
    window, i.e. as eligible.  A ``(B, n)`` stack of spectra gives ``B``
    answers, one per row.
    """
    out = np.count_nonzero(np.abs(_scaled(lam, E, eps, N)) >= eps, axis=-1) >= GOOD_EVENT_COUNT
    return out if out.ndim else bool(out)


class Selection(NamedTuple):
    """Selected indices ``beta_0..beta_8`` and the span ``Delta``."""

    beta: np.ndarray
    delta: float


def select_indices(lam, E: float, eps: float, N: int) -> Selection:
    """Pick the closest eigenvalue and eight eligible ones by distance.

    ``beta_0`` minimises ``|lambda - E|``; ``beta_1..beta_8`` are drawn in
    increasing ``|lambda - E|`` from the indices with
    ``N |lambda - E| >= eps`` that were not selected before.  Ties resolve
    to the lower index.  ``Delta = N |lambda_{beta_8} - E|``.  Requires the
    good event.  A ``(B, n)`` stack of spectra, every row with the good
    event, gives ``(B, 9)`` indices and ``B`` spans.
    """
    dist = np.abs(_scaled(lam, E, eps, N))
    # the good event of :func:`good_event`, on the same distances
    eligible = np.count_nonzero(dist >= eps, axis=-1)
    if np.any(eligible < GOOD_EVENT_COUNT):
        raise DomainError(
            "index selection needs the good event: fewer than "
            f"{GOOD_EVENT_COUNT} eigenvalues at rescaled distance >= {eps}"
        )
    order = np.argsort(dist, axis=-1, kind="stable")
    # in sorted order the eligible indices come last, so beta_1.. start at the
    # first of them, or right after beta_0 when beta_0 is eligible itself
    first = np.maximum(dist.shape[-1] - eligible, 1)[..., None]
    picks = first + np.arange(min(GOOD_EVENT_COUNT, dist.shape[-1] - 1))
    beta = np.concatenate((order[..., :1], np.take_along_axis(order, picks, axis=-1)), axis=-1)
    beta = beta.astype(np.int64)
    delta = np.take_along_axis(dist, beta[..., -1:], axis=-1)[..., 0]
    return Selection(beta=beta, delta=delta if delta.ndim else float(delta))


@dataclass
class MinorDiagnostics:
    """Full per-sample record of the minor machinery at one ``(j, E, eps)``."""

    j: int
    lam: np.ndarray
    xi: np.ndarray
    c: np.ndarray
    d: np.ndarray
    c_prime: np.ndarray
    d_prime: np.ndarray
    omega: bool
    beta: Optional[np.ndarray]
    delta: Optional[float]
    E: float
    eps: float

    def to_json(self) -> dict:
        """The fields in order, ``lam`` keyed ``"lambda"`` and arrays as lists."""
        record = {}
        for f in fields(self):
            value = getattr(self, f.name)
            record["lambda" if f.name == "lam" else f.name] = (
                value.tolist() if isinstance(value, np.ndarray) else value
            )
        return record


def minor_diagnostics(matrix: HermitianMatrix, j: int, E: float, eps: float) -> MinorDiagnostics:
    """Assemble the diagnostics record for one matrix and removed row."""
    if not math.isfinite(E):
        raise DomainError(f"energy must be finite, got {E}")
    lam, xi = overlaps(matrix, j)
    # far from the spectrum the coefficients overflow; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        coef = coefficients(lam, E, eps, matrix.n)
    if not all(np.isfinite(values).all() for values in coef):
        raise NumericError(f"coefficients overflow at energy {E:g}")
    omega = good_event(lam, E, eps, matrix.n)
    beta, delta = select_indices(lam, E, eps, matrix.n) if omega else (None, None)
    # int and float, so that numpy or integer arguments serialise as before
    return MinorDiagnostics(int(j), lam, xi, *coef, omega, beta, delta, float(E), float(eps))
