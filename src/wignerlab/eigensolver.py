"""Hermitian eigendecomposition with a deterministic vector convention.

Decompositions are delegated to LAPACK through :mod:`numpy.linalg`.  On top
of that this module pins down the parts LAPACK leaves arbitrary: eigenvalues
are returned ascending, and each eigenvector is rotated by a global phase so
that its largest-magnitude component (lowest index on ties) is real and
positive.  For a fixed input matrix the output is then fully deterministic.

:func:`eigvalsh`, :func:`eigh` and :func:`minor` also take a stack of
matrices (a :class:`HermitianMatrix` with batch axes) and act on each
matrix of it; row ``b`` of a stacked result equals the single-matrix result
for matrix ``b``.

:func:`one_blas_thread` runs a block with numpy's bundled OpenBLAS on one
thread, so that callers can diagonalise several small stacks at once
without each LAPACK call also spreading over every core.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .ensembles import HermitianMatrix, _triangles
from .errors import DomainError, NumericError

__all__ = ["Spectrum", "eigh", "eigvalsh", "minor", "one_blas_thread"]


@dataclass
class Spectrum:
    """Eigenvalues (ascending) and optionally matching eigenvectors.

    ``eigenvectors[:, k]`` is the unit eigenvector for ``eigenvalues[k]``.
    For a stack, ``eigenvalues`` has shape ``(..., n)`` and ``eigenvectors``
    ``(..., n, n)``, with the same leading axes.
    """

    n: int
    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        if self.eigenvalues.shape[-1:] != (self.n,):
            raise DomainError(
                f"eigenvalues must have shape (..., {self.n}), got {self.eigenvalues.shape}"
            )
        if self.eigenvectors is not None:
            self.eigenvectors = np.asarray(self.eigenvectors, dtype=np.complex128)
            expected = self.eigenvalues.shape + (self.n,)
            if self.eigenvectors.shape != expected:
                raise DomainError(
                    f"eigenvectors must have shape {expected}, got {self.eigenvectors.shape}"
                )


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Ties in magnitude resolve to the lowest index (argmax convention).
    """
    lead = np.argmax(np.abs(vectors), axis=-2)
    pivots = np.take_along_axis(vectors, lead[..., None, :], axis=-2)
    phases = pivots / np.abs(pivots)
    return vectors * phases.conj()


def eigh(matrix: HermitianMatrix) -> Spectrum:
    """Full eigendecomposition with eigenvectors."""
    try:
        vals, vecs = np.linalg.eigh(matrix.dense())
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed for n={matrix.n}: {exc}") from exc
    return Spectrum(n=matrix.n, eigenvalues=vals, eigenvectors=_fix_phases(vecs))


def eigvalsh(matrix: HermitianMatrix) -> Spectrum:
    """Eigenvalues only; cheaper when no vectors are needed.

    The packed matrix is dropped once unpacked, so a caller that keeps no
    reference to it has it freed before LAPACK runs.
    """
    n, dense = matrix.n, matrix.dense()
    del matrix
    try:
        vals = np.linalg.eigvalsh(dense)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue computation failed for n={n}: {exc}") from exc
    return Spectrum(n=n, eigenvalues=vals)


@lru_cache(maxsize=64)
def _minor_positions(n: int, j: int) -> np.ndarray:
    """Packed positions of the upper-triangle pairs off row and column ``j``."""
    rows, cols = np.divmod(_triangles(n)[0], n)
    keep = np.flatnonzero((rows != j) & (cols != j))
    keep.flags.writeable = False
    return keep


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
    return HermitianMatrix(
        n=n - 1,
        diagonal=np.delete(matrix.diagonal, j, axis=-1),
        upper=np.take(matrix.upper, _minor_positions(n, j), axis=-1),
    )


@lru_cache(maxsize=1)
def _find_openblas():
    """``(get_num_threads, set_num_threads)`` of the OpenBLAS bundled in
    numpy's wheels, or ``None`` where numpy uses another BLAS."""
    import ctypes
    import glob

    bundled = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    libs = glob.glob(os.path.join(bundled, "*openblas*"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    try:
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextmanager
def one_blas_thread() -> Iterator[bool]:
    """Run the block with numpy's bundled OpenBLAS on one thread.

    Yields whether the thread count could be set; where the bundled OpenBLAS
    is not found nothing changes and it yields ``False``.  The count is
    process-wide, so only one thread may enter this block at a time, and
    LAPACK calls started inside it must finish before it exits.  The
    previous count is restored on every exit path.
    """
    found = _find_openblas()
    if found is None:
        yield False
        return
    get, put = found
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)
