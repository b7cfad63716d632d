"""Hermitian Wigner matrix sampling.

The ensemble convention: for an ``n x n`` matrix, off-diagonal entries are
``h_jk = (x_jk + i y_jk) / sqrt(n)`` for ``j < k``, where ``x_jk`` and
``y_jk`` are independent real draws with mean 0 and variance 1/2, and
diagonal entries are ``h_jj = x_jj / sqrt(n)`` with ``x_jj`` of mean 0 and
variance 1.  The lower triangle is the conjugate of the upper one, so the
matrix is Hermitian by construction and its spectrum concentrates on
``[-2, 2]``.  Gaussian entry laws give the GUE.

A :class:`HermitianMatrix` stores the diagonal and the row-major packed
upper triangle; this module is the one that knows that packed order, so
unpacking (:meth:`HermitianMatrix.dense`), packing (``from_dense``) and
slicing a principal minor (:func:`minor`) all live here.  A matrix may
carry leading batch axes: a stack of ``B`` matrices of one size is sampled,
sliced, unpacked and diagonalised in one call each, with every matrix drawn
from its own stream exactly as if sampled alone.
:func:`sample_wigner` draws a stack into one raw buffer, a row per stream in
its consumption order, and assembles it with stack-wide operations; with
Gaussian laws a stream is a single generator call, which in a thread pool
means a single GIL hand-off.

In the packed order, row ``j``'s pairs are one contiguous run (see
:func:`_row_segment`), so unpacking and slicing copy the triangle one row
segment at a time.  No index table is built, and nothing is kept per size or
per minor.  Every array these functions return is new, and so is the LAPACK
input that :meth:`HermitianMatrix.dense` writes for
:func:`~wignerlab.eigensolver.eigvalsh`; the module docstring of
:mod:`~wignerlab.experiments` says where a cell's memory peaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .distributions import DistributionSpec, gaussian_diag, gaussian_off
from .errors import ConfigurationError, DomainError
from .seeding import SeedSpec

__all__ = ["HermitianMatrix", "minor", "sample_wigner", "sample_gue"]

def _row_segment(n: int, j: int) -> slice:
    """Packed positions of row ``j``'s strict-upper pairs ``(j, j+1), ...,
    (j, n-1)``: a contiguous run, since the packed order is row-major."""
    start = j * n - j * (j + 1) // 2
    return slice(start, start + n - 1 - j)


@dataclass
class HermitianMatrix:
    """Packed Hermitian matrix, or stack of them: real diagonal plus
    row-major upper triangle.

    ``upper[..., m]`` holds the entry ``(j, k)``, ``j < k``, with pairs
    ordered row-major: ``(0,1), (0,2), ..., (0,n-1), (1,2), ...``.  Entries
    are stored already scaled, i.e. including the ``1/sqrt(n)`` ensemble
    factor.  ``diagonal`` has shape ``(..., n)`` and ``upper`` shape
    ``(..., n(n-1)/2)``; their leading axes, ``batch_shape``, index the
    matrices of a stack and are ``()`` for a single matrix.
    """

    n: int
    diagonal: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        self.diagonal = np.asarray(self.diagonal, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.complex128)
        if self.n < 1:
            raise DomainError(f"matrix dimension must be at least 1, got {self.n}")
        if self.diagonal.shape[-1:] != (self.n,):
            raise DomainError(
                f"diagonal must have shape (..., {self.n}), got {self.diagonal.shape}"
            )
        m = self.n * (self.n - 1) // 2
        if self.upper.shape != self.batch_shape + (m,):
            raise DomainError(
                f"upper triangle must have shape {self.batch_shape + (m,)}, got {self.upper.shape}"
            )

    @property
    def batch_shape(self) -> tuple:
        """Leading axes of a stack; ``()`` for a single matrix."""
        return self.diagonal.shape[:-1]

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "HermitianMatrix":
        """Pack a dense matrix, requiring exact Hermitian symmetry."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {matrix.shape}")
        matrix = matrix.astype(np.complex128, copy=False)
        if not np.array_equal(matrix, matrix.conj().T):
            raise DomainError("matrix is not exactly Hermitian")
        n = matrix.shape[0]
        upper = np.concatenate([matrix[j, j + 1 :] for j in range(n)])
        return cls(n=n, diagonal=matrix.diagonal().real.copy(), upper=upper)

    def dense(self, *, lapack: bool = False) -> np.ndarray:
        """Materialise the full complex matrix, ``(..., n, n)`` for a stack.

        With ``lapack`` it returns LAPACK's input instead, which only
        :func:`~wignerlab.eigensolver.eigvalsh` asks for.  That array, read
        in column order, holds the matrix's lower triangle: each C-order row
        carries the real diagonal entry and, to its right, the conjugated
        packed upper triangle.  Its C lower triangle is never written, which
        halves the copy.
        """
        n = self.n
        h = np.empty(self.batch_shape + (n, n), np.complex128)
        # indexing 2-D and 3-D views is cheaper than going through ``...``
        stack = h.reshape(-1, n, n)
        packed = self.upper.reshape(len(stack), n * (n - 1) // 2)
        for j in range(n - 1):
            row = packed[:, _row_segment(n, j)]
            stack[:, j, j + 1 :] = row
            if not lapack:
                np.conjugate(row, out=stack[:, j + 1 :, j])
        if lapack:
            # conjugate where the packed entries went, without a temporary
            # the size of the packed stack; the unwritten entries are never read
            np.negative(h.imag, out=h.imag)
        stack.reshape(-1, n * n)[:, :: n + 1] = self.diagonal.reshape(-1, n)
        return h


def minor(matrix: HermitianMatrix, j: int) -> HermitianMatrix:
    """The ``(n-1) x (n-1)`` principal minor with row and column ``j`` removed.

    ``j`` is a 0-based index.  Entries keep their original scaling, so the
    minor of an ``n``-scaled Wigner matrix stays ``n``-scaled.  The minor is
    sliced from the packed storage: the upper-triangle pairs off row and
    column ``j`` keep their row-major order, which is the minor's.  A stack
    gives the stack of minors.
    """
    n = matrix.n
    if not 0 <= j < n:
        raise DomainError(f"minor index must lie in [0, {n}), got {j}")
    if n == 1:
        raise DomainError("a 1 x 1 matrix has no proper minor")
    # the pairs to drop: (r, j) for each row r < j, then all of row j
    upper, row, kept, start = matrix.upper, _row_segment(n, j), [], 0
    for r in range(j):
        col = _row_segment(n, r).start + j - r - 1
        kept.append(upper[..., start:col])
        start = col + 1
    kept += [upper[..., start : row.start], upper[..., row.stop :]]
    return HermitianMatrix(
        n=n - 1,
        diagonal=np.delete(matrix.diagonal, j, axis=-1),
        upper=np.concatenate(kept, axis=-1),
    )


def sample_wigner(
    n: int,
    off_dist: DistributionSpec,
    diag_dist: DistributionSpec,
    seed: Union[SeedSpec, Sequence[SeedSpec]],
) -> HermitianMatrix:
    """Sample one Hermitian Wigner matrix, or a stack with one per stream.

    Each stream is consumed in a fixed order: all upper-triangle real parts,
    then all upper-triangle imaginary parts, then the diagonal.  When both
    laws are a scaled standard normal (see
    :attr:`DistributionSpec.normal_scale`) the whole stream is one
    ``standard_normal`` call, which yields the same values as one call per
    part; any other law draws each part with its own ``sample`` call.  Each
    value is scaled by its law's factor first and by ``1/sqrt(n)`` after.
    That makes a matrix a pure function of
    ``(n, off_dist, diag_dist, seed)``.  Given a sequence of seeds, matrix
    ``b`` of the returned ``(len(seed),)`` stack is drawn from ``seed[b]``
    and equals the single-seed sample bit for bit.
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
    single = isinstance(seed, SeedSpec)
    seeds = (seed,) if single else tuple(seed)
    if not all(isinstance(s, SeedSpec) for s in seeds):
        raise ConfigurationError("seed must be a SeedSpec or a sequence of SeedSpecs")
    m = n * (n - 1) // 2
    # ``upper`` first: the raw buffer, freed on return, is then the newest
    # block, whose memory the next large allocation (the dense stack) can
    # reuse; in the other order grid-n64 peak RSS rose 0.8 MB
    upper = np.empty((len(seeds), m), dtype=np.complex128)
    # one row per stream, in its consumption order: real parts, imaginary
    # parts, diagonal; it is copied out below and never leaves this function
    raw = np.empty((len(seeds), 2 * m + n), dtype=np.float64)
    off_sd, diag_sd = off_dist.normal_scale, diag_dist.normal_scale
    if off_sd is not None and diag_sd is not None:
        # numpy's ziggurat takes the stream one value at a time, so one call
        # draws what three would; in a thread pool each call is a GIL hand-off
        for s, row in zip(seeds, raw):
            s.generator().standard_normal(out=row)
        raw[:, : 2 * m] *= off_sd
        raw[:, 2 * m :] *= diag_sd
    else:
        for s, row in zip(seeds, raw):
            rng = s.generator()
            row[:m] = off_dist.sample(rng, m)
            row[m : 2 * m] = off_dist.sample(rng, m)
            row[2 * m :] = diag_dist.sample(rng, n)
    upper.real = raw[:, :m]
    upper.imag = raw[:, m : 2 * m]
    scale = 1.0 / math.sqrt(n)
    diagonal = raw[:, 2 * m :] * scale
    upper *= scale
    if single:
        return HermitianMatrix(n=n, diagonal=diagonal[0], upper=upper[0])
    return HermitianMatrix(n=n, diagonal=diagonal, upper=upper)


def sample_gue(n: int, seed: SeedSpec) -> HermitianMatrix:
    """Sample from the Gaussian unitary ensemble (Gaussian entry laws)."""
    return sample_wigner(n, gaussian_off(), gaussian_diag(), seed)
