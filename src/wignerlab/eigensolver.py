"""Hermitian eigendecomposition with a deterministic vector convention.

Decompositions are delegated to LAPACK, through :mod:`numpy.linalg` or the
``zheevd`` numpy calls, and the results are numpy's: :func:`eigvalsh`
returns the ascending ``(..., n)`` eigenvalue array, :func:`eigh` the pair
``(eigenvalues, eigenvectors)`` with ``eigenvectors[..., :, k]`` the unit
eigenvector for ``eigenvalues[..., k]``.  On top of that :func:`eigh`
pins down the part LAPACK leaves arbitrary: each eigenvector is rotated by
a global phase so that its largest-magnitude component (lowest index on
ties) is real and positive.  For a fixed input matrix the output is then
fully deterministic.

Both take a :class:`~wignerlab.ensembles.HermitianMatrix`, which may be a
stack with batch axes; row ``b`` of a stacked result equals the
single-matrix result for matrix ``b``.

The LAPACK input of :func:`eigvalsh` is ``matrix.dense(lapack=True)``:
``dense()`` with its C lower triangle possibly unwritten, so that only its
diagonal and C upper triangle hold the matrix.  LAPACK reads an array in
column order, and read so, the C upper triangle is the lower triangle of
the conjugate matrix, which has the same eigenvalues.  Conjugation only
flips signs, and IEEE round-to-nearest is symmetric under sign flips, so
``zheevd('N', 'L')`` on that lower triangle returns the bytes of
``numpy.linalg.eigvalsh(matrix.dense())``.  For matrices of more than
``_ONE_BLAS_THREAD_MAX_N`` rows :func:`eigvalsh` calls the ``zheevd`` of
numpy's bundled OpenBLAS in place on the input, where numpy would first
copy those ``16 n^2`` bytes.  Smaller matrices, and builds without that
OpenBLAS, go through :func:`numpy.linalg.eigvalsh` on the input's
transpose view, whose C lower triangle is that same column-order read.
Numpy's ``UPLO="U"`` on the input itself would run ``zheevd('U')``, which
reduces in another order and so gives other bytes.
:func:`one_blas_thread` runs a block with that OpenBLAS on one thread, so
that callers can diagonalise several small stacks at once without each
LAPACK call also spreading over every core.  Both read one cached
:mod:`ctypes` binding of the library, ``_bundled()``.
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

# Up to this size a caller may diagonalise on one OpenBLAS thread while the
# other cores take further matrices (``experiments`` does), and
# :func:`eigvalsh` goes through numpy.  With OpenBLAS 0.3.31 stacked
# ``eigvalsh`` gives the same bytes at one and two BLAS threads for every N
# up to 162 (not at 164, 256 or 512), and at N = 64 one thread is as fast in
# wall time as two at half the CPU time.  At N = 512 two BLAS threads are
# about 25% faster, so larger sizes keep OpenBLAS's own threads.  Above it
# LAPACK runs in place: the ctypes call costs about 5 us a matrix (N = 8:
# 15 against numpy's 10 us), and on the pooled N = 127 minors of the
# ``minor-mix-n128`` benchmark the in-place path raised peak RSS by
# 0.4-0.6 MB.
_ONE_BLAS_THREAD_MAX_N = 128


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
    eigenvectors, as columns.  It reads the stored ``array`` (numpy copies
    it for LAPACK), so it takes no stream stack, which stores none."""
    try:
        vals, vecs = np.linalg.eigh(matrix.array)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed for n={matrix.n}: {exc}") from exc
    return vals, _fix_phases(vecs)


def eigvalsh(matrix: HermitianMatrix) -> np.ndarray:
    """Ascending eigenvalues only; cheaper when no vectors are needed.

    The matrix is dropped once its LAPACK input is written, so a caller
    that keeps no reference to a stored one has it freed before LAPACK
    runs.  The stacks of :mod:`~wignerlab.experiments` store no matrix:
    their ``dense`` draws the streams straight into the LAPACK input, so
    LAPACK runs with nothing of the chunk alive but that input.  The
    LAPACK input, ``matrix.dense(lapack=True)`` (see the module docstring),
    never leaves this function.
    """
    n, a = matrix.n, matrix.dense(lapack=True)
    del matrix
    try:
        return _lapack_eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue computation failed for n={n}: {exc}") from exc


def _lapack_eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, as a new array, of the C-ordered LAPACK input ``a``,
    read as the module docstring says.

    Above ``_ONE_BLAS_THREAD_MAX_N`` rows each matrix goes to ``zheevd('N',
    'L')`` in place, overwriting ``a``, with numpy's workspace sizes;
    otherwise, or without the bundled ``zheevd``, numpy copies the
    transpose view for LAPACK.  Both give numpy's bytes.
    """
    n = a.shape[-1]
    found = _bundled() if n > _ONE_BLAS_THREAD_MAX_N else None
    if found is None:
        return np.linalg.eigvalsh(a.mT)
    # zheevd writes through raw pointers: only a C-ordered complex128 stack
    # of square matrices may reach it
    if a.dtype != np.complex128 or not a.flags.c_contiguous or a.shape[-2] != n:
        raise TypeError(f"in-place zheevd needs a C-ordered complex128 (..., {n}, {n}) stack, "
                        f"got {a.dtype} {a.shape}")
    from ctypes import c_int64

    zheevd = found[2]
    stack = a.reshape(-1, n, n)
    values = np.empty((len(stack), n))
    lwork, lrwork, liwork = _zheevd_workspace(n)
    work, rwork, iwork = np.empty(lwork, np.complex128), np.empty(lrwork), np.empty(liwork, np.int64)
    size, info = c_int64(n), c_int64()
    lwork, lrwork, liwork = c_int64(lwork), c_int64(lrwork), c_int64(liwork)
    for one, w in zip(stack, values):
        zheevd(b"N", b"L", size, one.ctypes.data, size, w.ctypes.data, work.ctypes.data, lwork,
               rwork.ctypes.data, lrwork, iwork.ctypes.data, liwork, info)
        if info.value:
            # numpy's error for a failed zheevd
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return values.reshape(a.shape[:-1])


@lru_cache(maxsize=16)
def _zheevd_workspace(n: int) -> tuple[int, int, int]:
    """``(lwork, lrwork, liwork)`` for ``zheevd('N', 'L')`` at size ``n``,
    from one ``lwork = -1`` query read as numpy reads it.  Another ``lwork``
    can change the blocking of ``zhetrd``, and so the eigenvalue bytes."""
    from ctypes import c_int64

    work, rwork, iwork = np.zeros(1, np.complex128), np.zeros(1), np.zeros(1, np.int64)
    size, query, info = c_int64(n), c_int64(-1), c_int64()
    _bundled()[2](b"N", b"L", size, None, size, None, work.ctypes.data, query,
                  rwork.ctypes.data, query, iwork.ctypes.data, query, info)
    if info.value:
        raise NumericError(f"zheevd workspace query failed for n={n}: info={info.value}")
    return int(work[0].real), int(rwork[0]), int(iwork[0])


@lru_cache(maxsize=1)
def _bundled():
    """``(get_num_threads, set_num_threads, zheevd)`` of the OpenBLAS
    bundled in numpy's wheels, the ILP64 ``zheevd`` being the one numpy's
    ``eigvalsh`` calls; ``None`` where numpy uses another BLAS or the
    library lacks any of the three."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    try:
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        zheevd = lib.scipy_zheevd_64_
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    # jobz, uplo, n, a, lda, w, work, lwork, rwork, lrwork, iwork, liwork,
    # info; an integer is passed by reference, an array by its address
    integer, array = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    zheevd.argtypes = [ctypes.c_char_p] * 2 + [integer, array, integer, array] + [
        array, integer] * 3 + [integer]
    zheevd.restype = None
    return get, put, zheevd


@contextmanager
def one_blas_thread() -> Iterator[bool]:
    """Run the block with numpy's bundled OpenBLAS on one thread.

    Yields whether the thread count could be set; where the bundled OpenBLAS
    is not found nothing changes and it yields ``False``.  The count is
    process-wide, so only one thread may enter this block at a time, and
    LAPACK calls started inside it must finish before it exits.  The
    previous count is restored on every exit path.
    """
    found = _bundled()
    if found is None:
        yield False
        return
    get, put, _ = found
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)
