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

The stream order lives in :func:`_draws`, which draws a stack piece by
piece, one generator call per stream each (in a thread pool, one GIL
hand-off).  :func:`sample_wigner` copies the pieces into a packed stack; a
``_StreamStack``, which experiments diagonalise, writes them straight into
LAPACK's input, so no packed stack is built.  An experiment cell makes one
``_StreamStack`` and takes its chunks from it, so the piece plan is made
once per cell.

In the packed order, row ``j``'s pairs are one contiguous run (see
:func:`_row_segment`), so unpacking, slicing and writing a piece copy the
triangle one row segment at a time.  No index table is built, and nothing
is kept per size or per minor.  Every array these functions return is new,
and so is the LAPACK input that :meth:`HermitianMatrix.dense` writes for
:func:`~wignerlab.eigensolver.eigvalsh`; the module docstring of
:mod:`~wignerlab.experiments` says where a chunk's memory peaks.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .distributions import DistributionSpec, gaussian_diag, gaussian_off
from .errors import ConfigurationError, DomainError
from .seeding import SeedSpec

__all__ = ["HermitianMatrix", "minor", "sample_wigner", "sample_gue"]

# A Gaussian stream is drawn in pieces of at most this many values (128 KiB),
# cut at row ends (see :func:`_draws`): the whole stream up to N = 128, where
# 2 m + N = 2^14, and at N = 512 a sixteenth of the 2 MiB triangle.
_PIECE_VALUES = 2**14


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
        upper triangle.  Its C lower triangle is never written, which halves
        the copy.
        """
        n = self.n
        h = np.empty(self.batch_shape + (n, n), np.complex128)
        # indexing 3-D views is cheaper than going through ``...``
        stack = h.reshape(-1, n, n)
        self._write(stack, -1.0 if lapack else 1.0)
        if not lapack:
            for j in range(n - 1):
                np.conjugate(stack[:, j, j + 1 :], out=stack[:, j + 1 :, j])
        return h

    def _write(self, stack: np.ndarray, sign: float) -> None:
        """Write the ``(B, n, n)`` stack's diagonal and C upper triangle, the
        latter conjugated when ``sign`` is negative."""
        n = self.n
        packed = self.upper.reshape(len(stack), n * (n - 1) // 2)
        for j in range(n - 1):
            stack[:, j, j + 1 :] = packed[:, _row_segment(n, j)]
        if sign < 0:
            # conjugate where the packed entries went, without a temporary
            # the size of the packed stack; the unwritten entries are never read
            np.negative(stack.imag, out=stack.imag)
        stack.reshape(-1, n * n)[:, :: n + 1] = self.diagonal.reshape(-1, n)


class _StreamStack(HermitianMatrix):
    """The Wigner matrices of the streams ``(master_seed, i)``, ``i`` in
    ``indices``, or with ``drop_row`` their minors without row and column 0,
    not yet drawn: each :meth:`dense` call draws them straight into the dense
    stack, with the bytes of ``sample_wigner`` (then ``minor(., 0)``) then
    ``dense``.  Its ``diagonal`` and ``upper`` are ``None``."""

    def __init__(self, n: int, off_dist: DistributionSpec, diag_dist: DistributionSpec,
                 master_seed: int, indices: range, drop_row: bool = False) -> None:
        if drop_row and n == 1:
            raise DomainError("a 1 x 1 matrix has no proper minor")
        self.n, self.diagonal, self.upper = n - drop_row, None, None
        self._streams = (n, off_dist, diag_dist, master_seed, int(drop_row))
        self._indices = indices
        self._pieces = _pieces(n, (off_dist, off_dist, diag_dist))

    def take(self, indices: range) -> "_StreamStack":
        """The stack of the streams ``indices``, drawn with this stack's
        piece plan, so a cell plans its pieces once for all its chunks."""
        chunk = copy.copy(self)
        chunk._indices = indices
        return chunk

    @property
    def batch_shape(self) -> tuple:
        return (len(self._indices),)

    def _write(self, stack: np.ndarray, sign: float) -> None:
        n, off_dist, diag_dist, master_seed, d = self._streams
        rngs = [SeedSpec(master_seed, i).generator() for i in self._indices]
        # the real parts, the imaginary parts and the (complex) diagonal
        parts = (stack.real, stack.imag, stack.reshape(len(stack), -1)[:, :: self.n + 1])
        for part, lo, hi, values in _draws(n, off_dist, diag_dist, rngs, sign, self._pieces):
            if part == 2:
                parts[2][...] = values[:, d:]
                continue
            target, at = parts[part], 0
            for j in range(lo, hi):
                end = at + n - 1 - j
                if j >= d:
                    target[:, j - d, j + 1 - d :] = values[:, at:end]
                at = end


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


def _pieces(n: int, laws: tuple) -> list:
    """The draw calls of one stream, in order, each a list of part ranges
    ``(part, lo, hi, width)``: rows ``lo .. hi - 1`` of the real (``part``
    0) or imaginary (1) parts, or the whole diagonal (2, 0, 1)."""
    gaussian = [law.normal_scale is not None for law in laws]
    j = np.arange(n)
    # where a call may end, in values from the part's start: at row ends, and
    # after the whole diagonal
    edges = [(j * n - j * (j + 1) // 2).tolist()] * 2 + [[0, n]]
    pieces, free = [], 0  # free: the values the last call can still take
    for part, edge in enumerate(edges):
        if not all(gaussian):
            free = 0  # each part starts a call of its own
        lo = 0
        while lo < len(edge) - 1:
            hi = bisect_right(edge, edge[lo] + free) - 1
            if hi <= lo:  # the next row does not fit: a new call takes at least it
                pieces.append([])
                free = _PIECE_VALUES if gaussian[part] else math.inf
                hi = max(bisect_right(edge, edge[lo] + free) - 1, lo + 1)
            pieces[-1].append((part, lo, hi, edge[hi] - edge[lo]))
            free -= edge[hi] - edge[lo]
            lo = hi
    return pieces


def _draws(
    n: int, off_dist: DistributionSpec, diag_dist: DistributionSpec, rngs: list, imag_sign: float,
    pieces: list,
):
    """Draw a stack from its streams ``rngs``: the upper triangle's real
    parts in packed order, its imaginary parts, then the diagonal.

    A part of a scaled standard normal law is drawn in pieces of whole rows
    of at most ``_PIECE_VALUES`` values, one ``standard_normal`` call per
    stream each, which run on across the parts when both laws are one.  Any
    other law's part is one ``sample`` call, since ``sample`` draws all its
    uniforms before its normals.  Yields ``(part, lo, hi, values)`` per part
    range of ``pieces``, the plan of :func:`_pieces`, ``values[b]`` scaled
    by the law's factor and then by ``1/sqrt(n)`` (``imag_sign/sqrt(n)``
    for imaginary parts); the next item overwrites it."""
    laws = (off_dist, off_dist, diag_dist)
    sds = [law.normal_scale for law in laws]
    buf = np.empty((len(rngs), max(sum(r[3] for r in piece) for piece in pieces)))
    scale = 1.0 / math.sqrt(n)
    for piece in pieces:
        law, size = laws[piece[0][0]], sum(r[3] for r in piece)
        for rng, row in zip(rngs, buf):
            if sds[piece[0][0]] is None:
                row[:size] = law.sample(rng, size)
            else:
                # numpy's ziggurat takes the stream one value at a time, so
                # the pieces draw what one call per part would
                rng.standard_normal(out=row[:size])
        at = 0
        for part, lo, hi, width in piece:
            values = buf[:, at : at + width]
            if sds[part] is not None:
                values *= sds[part]
            values *= imag_sign * scale if part == 1 else scale
            yield part, lo, hi, values
            at += width


def sample_wigner(
    n: int,
    off_dist: DistributionSpec,
    diag_dist: DistributionSpec,
    seed: Union[SeedSpec, Sequence[SeedSpec]],
) -> HermitianMatrix:
    """Sample one Hermitian Wigner matrix, or a stack with one per stream.

    Each stream is consumed in a fixed order: all upper-triangle real parts,
    then all upper-triangle imaginary parts, then the diagonal (see
    :func:`_draws`).  When both laws are a scaled standard normal (see
    :attr:`DistributionSpec.normal_scale`) the stream is drawn by
    ``standard_normal`` calls in pieces of whole rows: one call up to
    ``N = 128``, about ``N^2 / 2^14`` calls at larger ``N``.  Those yield
    the same values as one call per part, so the pieces never show in the
    bytes.  Each value is scaled by its law's factor first and by
    ``1/sqrt(n)`` after.  That makes a matrix a pure function of
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
    diagonal = np.empty((len(seeds), n))
    upper = np.empty((len(seeds), n * (n - 1) // 2), dtype=np.complex128)
    parts = (upper.real, upper.imag, diagonal)
    rngs, pieces = [s.generator() for s in seeds], _pieces(n, (off_dist, off_dist, diag_dist))
    for part, lo, hi, values in _draws(n, off_dist, diag_dist, rngs, 1.0, pieces):
        start = lo if part == 2 else _row_segment(n, lo).start
        parts[part][:, start : start + values.shape[1]] = values
    if single:
        return HermitianMatrix(n=n, diagonal=diagonal[0], upper=upper[0])
    return HermitianMatrix(n=n, diagonal=diagonal, upper=upper)


def sample_gue(n: int, seed: SeedSpec) -> HermitianMatrix:
    """Sample from the Gaussian unitary ensemble (Gaussian entry laws)."""
    return sample_wigner(n, gaussian_off(), gaussian_diag(), seed)
