"""Hermitian Wigner matrix sampling.

The ensemble convention: for an ``n x n`` matrix, off-diagonal entries are
``h_jk = (x_jk + i y_jk) / sqrt(n)`` for ``j < k``, where ``x_jk`` and
``y_jk`` are independent real draws with mean 0 and variance 1/2, and
diagonal entries are ``h_jj = x_jj / sqrt(n)`` with ``x_jj`` of mean 0 and
variance 1.  The lower triangle is the conjugate of the upper one, so the
matrix is Hermitian by construction and its spectrum concentrates on
``[-2, 2]``.  Gaussian entry laws give the GUE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import DistributionSpec, gaussian_diag, gaussian_off
from .errors import ConfigurationError, DomainError
from .seeding import SeedSpec

__all__ = ["HermitianMatrix", "sample_entry", "sample_wigner", "sample_gue"]


@lru_cache(maxsize=16)
def _triangles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat row-major positions of the strict upper triangle of an ``n x n``
    matrix, in packed order, and of the mirrored lower-triangle entries."""
    rows, cols = np.triu_indices(n, 1)
    upper, lower = rows * n + cols, cols * n + rows
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


@dataclass
class HermitianMatrix:
    """Packed Hermitian matrix: real diagonal plus row-major upper triangle.

    ``upper[m]`` holds the entry ``(j, k)``, ``j < k``, with pairs ordered
    row-major: ``(0,1), (0,2), ..., (0,n-1), (1,2), ...``.  Entries are
    stored already scaled, i.e. including the ``1/sqrt(n)`` ensemble factor.
    """

    n: int
    diagonal: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        self.diagonal = np.asarray(self.diagonal, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.complex128)
        if self.n < 1:
            raise DomainError(f"matrix dimension must be at least 1, got {self.n}")
        if self.diagonal.shape != (self.n,):
            raise DomainError(
                f"diagonal must have shape ({self.n},), got {self.diagonal.shape}"
            )
        m = self.n * (self.n - 1) // 2
        if self.upper.shape != (m,):
            raise DomainError(f"upper triangle must have shape ({m},), got {self.upper.shape}")

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "HermitianMatrix":
        """Pack a dense matrix, requiring exact Hermitian symmetry."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {matrix.shape}")
        matrix = matrix.astype(np.complex128, copy=False)
        if not np.array_equal(matrix, matrix.conj().T):
            raise DomainError("matrix is not exactly Hermitian")
        return cls._pack(matrix)

    @classmethod
    def _pack(cls, matrix: np.ndarray) -> "HermitianMatrix":
        n = matrix.shape[0]
        upper, _ = _triangles(n)
        return cls(n=n, diagonal=matrix.diagonal().real.copy(), upper=matrix.ravel()[upper])

    def dense(self) -> np.ndarray:
        """Materialise the full ``n x n`` complex matrix."""
        n = self.n
        upper, lower = _triangles(n)
        h = np.empty((n, n), dtype=np.complex128)
        flat = h.reshape(-1)
        flat[upper] = self.upper
        flat[lower] = self.upper.conj()
        flat[:: n + 1] = self.diagonal
        return h

    def trace(self) -> float:
        return float(self.diagonal.sum())

    def frobenius_norm(self) -> float:
        return math.sqrt(
            float(np.sum(self.diagonal**2)) + 2.0 * float(np.sum(np.abs(self.upper) ** 2))
        )


def sample_entry(dist: DistributionSpec, seed: SeedSpec, size: int) -> np.ndarray:
    """Draw ``size`` values of an entry law from the given stream."""
    if size < 0:
        raise DomainError(f"size must be non-negative, got {size}")
    return dist.sample(seed.generator(), size)


def sample_wigner(
    n: int,
    off_dist: DistributionSpec,
    diag_dist: DistributionSpec,
    seed: SeedSpec,
) -> HermitianMatrix:
    """Sample one Hermitian Wigner matrix.

    The stream is consumed in a fixed order: all upper-triangle real parts,
    then all upper-triangle imaginary parts, then the diagonal, each as one
    vectorised draw.  That makes the matrix a pure function of
    ``(n, off_dist, diag_dist, seed)``.
    """
    if n < 1:
        raise DomainError(f"matrix dimension must be at least 1, got {n}")
    if off_dist.role != "off_diagonal":
        raise ConfigurationError(
            f"off-diagonal law must have role 'off_diagonal', got {off_dist.role!r}"
        )
    if diag_dist.role != "diagonal":
        raise ConfigurationError(
            f"diagonal law must have role 'diagonal', got {diag_dist.role!r}"
        )
    rng = seed.generator()
    m = n * (n - 1) // 2
    scale = 1.0 / math.sqrt(n)
    xs = off_dist.sample(rng, m)
    ys = off_dist.sample(rng, m)
    dg = diag_dist.sample(rng, n)
    return HermitianMatrix(n=n, diagonal=dg * scale, upper=(xs + 1j * ys) * scale)


def sample_gue(n: int, seed: SeedSpec) -> HermitianMatrix:
    """Sample from the Gaussian unitary ensemble (Gaussian entry laws)."""
    return sample_wigner(n, gaussian_off(), gaussian_diag(), seed)
