"""Hermitian eigendecomposition with a deterministic vector convention.

Decompositions are delegated to LAPACK through :mod:`numpy.linalg`, and the
results are numpy's: :func:`eigvalsh` returns the ascending ``(..., n)``
eigenvalue array, :func:`eigh` the pair ``(eigenvalues, eigenvectors)``
with ``eigenvectors[..., :, k]`` the unit eigenvector for
``eigenvalues[..., k]``.  On top of that :func:`eigh` pins down the part
LAPACK leaves arbitrary: each eigenvector is rotated by a global phase so
that its largest-magnitude component (lowest index on ties) is real and
positive.  For a fixed input matrix the output is then fully deterministic.

Both take a :class:`~wignerlab.ensembles.HermitianMatrix`, which may be a
stack with batch axes; row ``b`` of a stacked result equals the
single-matrix result for matrix ``b``.

:func:`one_blas_thread` runs a block with numpy's bundled OpenBLAS on one
thread, so that callers can diagonalise several small stacks at once
without each LAPACK call also spreading over every core.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import lru_cache
from typing import Iterator

import numpy as np

from .ensembles import HermitianMatrix
from .errors import NumericError

__all__ = ["eigh", "eigvalsh", "one_blas_thread"]


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Ties in magnitude resolve to the lowest index (argmax convention).
    """
    lead = np.argmax(np.abs(vectors), axis=-2)
    pivots = np.take_along_axis(vectors, lead[..., None, :], axis=-2)
    phases = pivots / np.abs(pivots)
    return vectors * phases.conj()


def eigh(matrix: HermitianMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition: ascending eigenvalues and phase-fixed
    eigenvectors, as columns."""
    try:
        vals, vecs = np.linalg.eigh(matrix.dense())
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed for n={matrix.n}: {exc}") from exc
    return vals, _fix_phases(vecs)


def eigvalsh(matrix: HermitianMatrix) -> np.ndarray:
    """Ascending eigenvalues only; cheaper when no vectors are needed.

    The packed matrix is dropped once unpacked, so a caller that keeps no
    reference to it has it freed before LAPACK runs.  The dense LAPACK input
    is built on the thread's scratch buffer when a serial run lends one
    (``ensembles._scratch_scope``), and never leaves this function: numpy
    copies it for LAPACK and returns a new eigenvalue array.  Reusing that
    one block spared about 2000 page faults per matrix at N = 512.
    """
    n, dense = matrix.n, matrix.dense(scratch=True)
    del matrix
    try:
        return np.linalg.eigvalsh(dense)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue computation failed for n={n}: {exc}") from exc


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
