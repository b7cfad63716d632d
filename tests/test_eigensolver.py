from __future__ import annotations

import numpy as np
import pytest

from wignerlab import (
    ConfigurationError,
    DomainError,
    HermitianMatrix,
    NumericError,
    SeedSpec,
    eigh,
    eigvalsh,
    gaussian_diag,
    gaussian_off,
    minor,
    sample_gue,
    sample_wigner,
)
from wignerlab import eigensolver
from wignerlab.checks import interlacing_gap


def test_known_two_by_two():
    # [[0, 1], [1, 0]] has eigenvalues -1, 1
    m = HermitianMatrix(n=2, array=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    mu, _ = eigh(m)
    np.testing.assert_allclose(mu, [-1.0, 1.0], atol=1e-15)


def test_diagonal_matrix_sorted():
    d = np.array([3.0, -1.0, 2.0])
    m = HermitianMatrix(n=3, array=np.diag(d).astype(complex))
    np.testing.assert_allclose(eigvalsh(m), np.sort(d), atol=0.0)


@pytest.mark.parametrize("n", [2, 3, 8, 33, 64])
def test_reconstruction_and_orthogonality(n):
    m = sample_gue(n, SeedSpec(100 + n))
    mu, v = eigh(m)
    dense = m.dense()
    recon = (v * mu) @ v.conj().T
    assert np.linalg.norm(recon - dense) <= 1e-10 * max(np.linalg.norm(dense), 1.0)
    gram = v.conj().T @ v
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


def test_eigvalsh_matches_eigh():
    m = sample_gue(20, SeedSpec(5))
    np.testing.assert_allclose(eigvalsh(m), eigh(m)[0], atol=1e-13)


def test_eigenvalues_ascending():
    assert np.all(np.diff(eigvalsh(sample_gue(40, SeedSpec(6)))) >= 0.0)


def test_eigvalsh_is_numpys_array():
    # eigvalsh adds nothing to LAPACK's values: single and stacked results
    # are the float64 arrays numpy returns for the dense matrices
    stack = sample_wigner(9, gaussian_off(), gaussian_diag(), [SeedSpec(3, k) for k in range(4)])
    for m in (sample_gue(9, SeedSpec(3)), stack):
        mu = eigvalsh(m)
        expected = np.linalg.eigvalsh(m.dense())
        assert type(mu) is np.ndarray and mu.dtype == np.float64
        assert mu.shape == m.batch_shape + (9,)
        assert mu.tobytes() == expected.tobytes()


def test_phase_convention():
    # the largest-magnitude component of each eigenvector is real positive,
    # so eigenvectors are a deterministic function of the matrix
    m = sample_gue(12, SeedSpec(7))
    mu, v = eigh(m)
    assert mu.tobytes() == np.linalg.eigh(m.dense())[0].tobytes()
    assert v.shape == (12, 12) and v.dtype == np.complex128
    lead = np.argmax(np.abs(v), axis=0)
    pivots = v[lead, np.arange(v.shape[1])]
    assert np.all(pivots.real > 0.0)
    assert np.max(np.abs(pivots.imag)) < 1e-12


def test_minor_removes_row_and_column():
    m = sample_gue(9, SeedSpec(8))
    dense = m.dense()
    for j in (0, 4, 8):
        keep = [k for k in range(9) if k != j]
        np.testing.assert_array_equal(minor(m, j).dense(), dense[np.ix_(keep, keep)])


def test_minor_validation():
    m = sample_gue(4, SeedSpec(9))
    with pytest.raises(DomainError):
        minor(m, -1)
    with pytest.raises(DomainError):
        minor(m, 4)
    with pytest.raises(DomainError):
        minor(sample_gue(1, SeedSpec(9)), 0)
    for j in (1.0, True):
        with pytest.raises(ConfigurationError, match="minor index must be an integer"):
            minor(m, j)


@pytest.mark.parametrize("trial", range(6))
def test_cauchy_interlacing(trial):
    m = sample_gue(30, SeedSpec(200, trial))
    assert interlacing_gap(m, trial % 30) <= 1e-12


def test_eigh_on_a_stack_matches_single_calls():
    seeds = [SeedSpec(12, k) for k in range(3)]
    values, vectors = eigh(sample_wigner(10, gaussian_off(), gaussian_diag(), seeds))
    assert vectors.shape == (3, 10, 10)
    for b, seed in enumerate(seeds):
        mu, v = eigh(sample_gue(10, seed))
        np.testing.assert_array_equal(values[b], mu)
        np.testing.assert_array_equal(vectors[b], v)


# -- LAPACK in place above _ONE_BLAS_THREAD_MAX_N rows --------------------------


def _numpy_calls(monkeypatch) -> list:
    """Patch numpy's ``eigvalsh`` to count the calls it is handed."""
    calls: list = []
    lapack = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return lapack(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


@pytest.fixture(params=[1, 2])
def blas_threads(request):
    """Run the test on 1, then 2 OpenBLAS threads, and restore the count."""
    found = eigensolver._bundled()
    if found is None:
        pytest.skip("numpy's bundled OpenBLAS and its zheevd were not found")
    get, put, _ = found
    before = get()
    put(request.param)
    try:
        yield request.param
    finally:
        put(before)


@pytest.fixture
def hidden_zheevd(monkeypatch):
    """A numpy whose BLAS is not the bundled OpenBLAS."""
    monkeypatch.setattr(eigensolver, "_bundled", lambda: None)


@pytest.mark.parametrize("n, depth", [(129, 1), (129, 3), (164, 2), (256, 2), (512, 1)])
def test_in_place_eigenvalues_are_numpys(n, depth, blas_threads, monkeypatch):
    seeds = [SeedSpec(61 + n, k) for k in range(depth)]
    stack = sample_wigner(n, gaussian_off(), gaussian_diag(), seeds)
    expected = [np.linalg.eigvalsh(stack.dense()).tobytes(),
                np.linalg.eigvalsh(sample_gue(n, seeds[0]).dense()).tobytes()]
    calls = _numpy_calls(monkeypatch)
    got = [eigvalsh(stack).tobytes(), eigvalsh(sample_gue(n, seeds[0])).tobytes()]
    assert calls == []
    assert got == expected


@pytest.mark.parametrize("n", [8, 64, 127, 128])
def test_numpys_reading_of_the_lapack_input_gives_numpys_bytes(n, blas_threads, monkeypatch):
    # up to 128 rows numpy reads the input's C upper triangle in column
    # order, i.e. the conjugate matrix, and gives the bytes of the matrix
    stack = sample_wigner(n, gaussian_off(), gaussian_diag(), [SeedSpec(67, k) for k in range(3)])
    expected = np.linalg.eigvalsh(stack.dense()).tobytes()
    calls = _numpy_calls(monkeypatch)
    assert eigvalsh(stack).tobytes() == expected
    assert calls == [(3, n, n)]


def test_in_place_refuses_what_zheevd_cannot_read():
    if eigensolver._bundled() is None:
        pytest.skip("numpy's bundled zheevd was not found")
    good = sample_gue(130, SeedSpec(9)).dense()
    for bad in (good.astype(np.complex64), good.T, good[:, :129]):
        with pytest.raises(TypeError, match="in-place zheevd needs"):
            eigensolver._lapack_eigvalsh(bad)


def test_numpy_takes_sizes_up_to_the_one_thread_limit(monkeypatch):
    limit = eigensolver._ONE_BLAS_THREAD_MAX_N
    calls = _numpy_calls(monkeypatch)
    for n in (8, limit):
        eigvalsh(sample_wigner(n, gaussian_off(), gaussian_diag(), [SeedSpec(3, k) for k in range(2)]))
    assert calls == [(2, 8, 8), (2, limit, limit)]


def test_without_the_library_numpy_is_taken(hidden_zheevd, monkeypatch):
    assert eigensolver._bundled() is None
    stack = sample_wigner(164, gaussian_off(), gaussian_diag(), [SeedSpec(5, k) for k in range(2)])
    calls = _numpy_calls(monkeypatch)
    assert eigvalsh(stack).tobytes() == np.linalg.eigvalsh(stack.dense()).tobytes()
    assert calls[0] == (2, 164, 164)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "upper"])
def test_non_finite_input_fails_as_numpys_path_does(bad, where, monkeypatch):
    if eigensolver._bundled() is None:
        pytest.skip("numpy's bundled zheevd was not found")
    m = sample_gue(200, SeedSpec(71))
    # a stored matrix is read-only; this test breaks it on purpose, at the
    # diagonal entry (3, 3), or at the pair (0, 4) and (4, 0)
    m.array.flags.writeable = True
    for r, c in {"diagonal": [(3, 3)], "upper": [(0, 4), (4, 0)]}[where]:
        m.array[r, c] = bad
    outcomes = []
    for found in (eigensolver._bundled(), None):
        monkeypatch.setattr(eigensolver, "_bundled", lambda: found)
        try:
            outcomes.append(eigvalsh(m).tobytes())
        except NumericError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == "eigenvalue computation failed for n=200: Eigenvalues did not converge"


def test_in_place_leaves_the_callers_matrix_alone():
    stack = sample_wigner(200, gaussian_off(), gaussian_diag(), [SeedSpec(73, k) for k in range(2)])
    before = stack.array.tobytes(), stack.dense().tobytes()
    first = eigvalsh(stack)
    assert (stack.array.tobytes(), stack.dense().tobytes()) == before
    assert eigvalsh(stack).tobytes() == first.tobytes()
    # interlacing_gap diagonalises its matrix, then slices a minor from it
    m = sample_gue(200, SeedSpec(74))
    mu = np.linalg.eigvalsh(m.dense())
    lam = np.linalg.eigvalsh(minor(m, 7).dense())
    assert interlacing_gap(m, 7) == float(np.max(np.maximum(mu[:-1] - lam, lam - mu[1:]), initial=0.0))
