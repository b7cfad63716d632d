"""Hermitian Wigner matrix sampling.

The ensemble convention: for an ``n x n`` matrix, off-diagonal entries are
``h_jk = (x_jk + i y_jk) / sqrt(n)`` for ``j < k``, where ``x_jk`` and
``y_jk`` are independent real draws with mean 0 and variance 1/2, and
diagonal entries are ``h_jj = x_jj / sqrt(n)`` with ``x_jj`` of mean 0 and
variance 1.  The lower triangle is the conjugate of the upper one, so the
matrix is Hermitian by construction and its spectrum concentrates on
``[-2, 2]``.  Gaussian entry laws give the GUE.

A :class:`HermitianMatrix` stores one dense, exactly Hermitian
``(..., n, n)`` complex array.  A matrix may carry leading batch axes: a stack of ``B`` matrices of
one size is sampled, sliced and diagonalised in one call each, with every
matrix drawn from its own stream exactly as if sampled alone.

The stream order lives in ``_StreamStack._write``, the one function that
plans, draws, scales and writes a stack piece by piece, one generator call
per stream each (in a thread pool, one GIL hand-off).  A ``_StreamStack``,
which experiments diagonalise, writes the pieces straight into LAPACK's
input, ``dense()`` without its lower triangle; :func:`sample_wigner` has
one write them into the matrix it returns.
Each experiment chunk is its own ``_StreamStack``.  ``_write`` plans the
pieces after :meth:`HermitianMatrix.dense` has allocated the target, so a
size too large to allocate fails before anything is planned or drawn.
Every array these functions return is new, and so is the LAPACK input that
:meth:`HermitianMatrix.dense` writes for
:func:`~wignerlab.eigensolver.eigvalsh`; the module docstring of
:mod:`~wignerlab.experiments` says where a chunk's memory peaks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .distributions import DistributionSpec, gaussian_diag, gaussian_off
from .errors import ConfigurationError, DomainError, _integer
from .seeding import SeedSpec

__all__ = ["HermitianMatrix", "minor", "sample_wigner", "sample_gue"]

# A Gaussian stream is drawn in pieces of at most this many values (128 KiB),
# cut at row ends (see ``_StreamStack._write``): the whole stream up to
# N = 128, where 2 m + N = 2^14, and at N = 512 a sixteenth of the 2 MiB
# triangle.
_PIECE_VALUES = 2**14


@dataclass(eq=False)
class HermitianMatrix:
    """Hermitian matrix, or stack of them, stored dense.

    ``array`` has shape ``(..., n, n)`` and must be exactly Hermitian; its
    leading axes, ``batch_shape``, index the matrices of a stack and are
    ``()`` for a single matrix.  Entries are stored already scaled, i.e.
    including the ``1/sqrt(n)`` ensemble factor.  The constructor stores a
    read-only copy of ``array``, so no later edit, of the caller's array or
    of ``array`` itself, can break the symmetry it checked.
    :func:`sample_wigner` and :func:`minor` skip the copy and the check:
    they keep, read-only, the new array they built Hermitian.  Code that
    only reads a stored matrix reads ``array``; :meth:`dense` makes a new,
    writable array, for LAPACK's input, :func:`sample_wigner`'s draw and
    the minor of a stream stack, which stores no array.
    """

    n: int
    array: np.ndarray

    def __post_init__(self) -> None:
        self.array = np.array(self.array, dtype=np.complex128)
        if _integer(self.n, "matrix dimension") < 1:
            raise DomainError(f"matrix dimension must be at least 1, got {self.n}")
        if self.array.shape[-2:] != (self.n, self.n):
            raise DomainError(f"array must have shape (..., {self.n}, {self.n}), got {self.array.shape}")
        if not np.array_equal(self.array, self.array.conj().mT):
            raise DomainError("matrix is not exactly Hermitian")
        self.array.flags.writeable = False

    @property
    def batch_shape(self) -> tuple:
        """Leading axes of a stack; ``()`` for a single matrix."""
        return self.array.shape[:-2]

    def dense(self, *, lapack: bool = False) -> np.ndarray:
        """The full complex matrix, ``(..., n, n)`` for a stack, as a new array.

        With ``lapack`` its lower triangle may be left unwritten: that is
        LAPACK's input, which only :func:`~wignerlab.eigensolver.eigvalsh`
        asks for.  A shape numpy cannot allocate raises ``MemoryError``.
        """
        shape = self.batch_shape + (self.n, self.n)
        try:
            h = np.empty(shape, np.complex128)
        except ValueError as exc:  # numpy's "array is too big" and the like
            raise MemoryError(f"cannot allocate a {shape} complex array: {exc}") from None
        self._write(h, lapack)
        return h

    def _write(self, h: np.ndarray, lapack: bool) -> None:
        # ``dense()`` for both values of ``lapack``, which only lets a
        # writer leave the lower triangle unwritten
        h[...] = self.array


class _StreamStack(HermitianMatrix):
    """The Wigner matrices of the streams ``seeds``, or with ``drop_row``
    their minors without row and column 0, not yet drawn: each
    :meth:`dense` call draws them straight into the dense stack, with the
    bytes of ``sample_wigner`` (then ``minor(., 0)``) then ``dense``.  Its
    ``array`` is ``None``.  An experiment chunk is one such stack, built
    from the chunk's own stream range."""

    def __init__(self, n: int, off_dist: DistributionSpec, diag_dist: DistributionSpec,
                 seeds: Sequence[SeedSpec], drop_row: bool = False) -> None:
        if drop_row and n == 1:
            raise DomainError("a 1 x 1 matrix has no proper minor")
        self.n, self.array = n - drop_row, None
        self._streams = (n, (off_dist, off_dist, diag_dist), seeds, int(drop_row))

    @property
    def batch_shape(self) -> tuple:
        return (len(self._streams[2]),)

    def _write(self, stack: np.ndarray, lapack: bool) -> None:
        """Draw the streams into the ``(B, n, n)`` stack: its diagonal and C
        upper triangle, mirrored into the lower one unless ``lapack`` asks
        for ``dense()`` without its lower triangle.

        Each stream is drawn in one order: the upper triangle's real parts in
        row-major order, its imaginary parts, then the diagonal.  A part of a
        scaled standard normal law is drawn in pieces of whole rows of at most
        ``_PIECE_VALUES`` values, one ``standard_normal`` call per stream
        each, which run on across the parts when both laws are one.  Any other
        law's part is one ``sample`` call, since ``sample`` draws all its
        uniforms before its normals.  The plan, :func:`_pieces`, is made here,
        after :meth:`dense` has allocated the stack.  Each value is scaled by
        its law's factor and then by ``1/sqrt(n)``, stack-wide, and written
        row by row."""
        n, laws, seeds, d = self._streams
        rngs = [s.generator() for s in seeds]
        sds = [law.normal_scale for law in laws]
        pieces = _pieces(n, laws)
        buf = np.empty((len(rngs), max(sum(r[3] for r in piece) for piece in pieces)))
        scale = 1.0 / math.sqrt(n)
        # the real parts, the imaginary parts and the (complex) diagonal
        parts = (stack.real, stack.imag, stack.reshape(len(stack), self.n**2)[:, :: self.n + 1])
        for piece in pieces:
            law, size = laws[piece[0][0]], sum(r[3] for r in piece)
            for rng, row in zip(rngs, buf):
                if sds[piece[0][0]] is None:
                    row[:size] = law.sample(rng, size)
                else:
                    # numpy's ziggurat takes the stream one value at a time, so
                    # the pieces draw what one call per part would
                    rng.standard_normal(out=row[:size])
            at = 0  # a piece's ranges lie back to back in buf, the diagonal last
            for part, lo, hi, width in piece:
                values = buf[:, at : at + width]
                if sds[part] is not None:
                    values *= sds[part]
                values *= scale
                if part == 2:
                    parts[2][...] = values[:, d:]
                    continue
                target = parts[part]
                for j in range(lo, hi):
                    end = at + n - 1 - j
                    if j >= d:
                        target[:, j - d, j + 1 - d :] = buf[:, at:end]
                    at = end
        if not lapack:
            for j in range(self.n - 1):
                np.conjugate(stack[:, j, j + 1 :], out=stack[:, j + 1 :, j])


def minor(matrix: HermitianMatrix, j: int) -> HermitianMatrix:
    """The ``(n-1) x (n-1)`` principal minor with row and column ``j`` removed.

    ``j`` is a 0-based index.  Entries keep their original scaling, so the
    minor of an ``n``-scaled Wigner matrix stays ``n``-scaled.  A stack
    gives the stack of minors.
    """
    n = matrix.n
    if not 0 <= _integer(j, "minor index") < n:
        raise DomainError(f"minor index must lie in [0, {n}), got {j}")
    if n == 1:
        raise DomainError("a 1 x 1 matrix has no proper minor")
    keep = np.delete(np.arange(n), j)
    # a stream stack stores no array: its dense() draws one
    array = matrix.dense() if matrix.array is None else matrix.array
    return _owned(array[..., keep[:, None], keep])


def _owned(array: np.ndarray) -> HermitianMatrix:
    """The matrix of ``array``, new and Hermitian by construction: it takes
    the array itself read-only, without the constructor's copy and check."""
    matrix = object.__new__(HermitianMatrix)
    matrix.n, matrix.array, array.flags.writeable = array.shape[-1], array, False
    return matrix


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


def sample_wigner(
    n: int,
    off_dist: DistributionSpec,
    diag_dist: DistributionSpec,
    seed: Union[SeedSpec, Sequence[SeedSpec]],
) -> HermitianMatrix:
    """Sample one Hermitian Wigner matrix, or a stack with one per stream.

    Each stream is consumed in a fixed order: all upper-triangle real parts,
    then all upper-triangle imaginary parts, then the diagonal (see
    ``_StreamStack._write``).  When both laws are a scaled standard normal
    (see :attr:`DistributionSpec.normal_scale`) the stream is drawn by
    ``standard_normal`` calls in pieces of whole rows: one call up to
    ``N = 128``, about ``N^2 / 2^14`` calls at larger ``N``.  Those yield
    the same values as one call per part, so the pieces never show in the
    bytes.  Each value is scaled by its law's factor first and by
    ``1/sqrt(n)`` after.  That makes a matrix a pure function of
    ``(n, off_dist, diag_dist, seed)``.  Given a sequence of seeds, matrix
    ``b`` of the returned ``(len(seed),)`` stack is drawn from ``seed[b]``
    and equals the single-seed sample bit for bit.
    """
    if _integer(n, "matrix dimension") < 1:
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
    array = _StreamStack(n, off_dist, diag_dist, seeds).dense()
    return _owned(array[0] if single else array)


def sample_gue(n: int, seed: SeedSpec) -> HermitianMatrix:
    """Sample from the Gaussian unitary ensemble (Gaussian entry laws)."""
    return sample_wigner(n, gaussian_off(), gaussian_diag(), seed)
