from __future__ import annotations

import numpy as np
import pytest

from wignerlab import (
    DomainError,
    HermitianMatrix,
    SeedSpec,
    eigh,
    eigvalsh,
    gaussian_diag,
    gaussian_off,
    minor,
    sample_gue,
    sample_wigner,
)
from wignerlab.checks import interlacing_gap


def test_known_two_by_two():
    # [[0, 1], [1, 0]] has eigenvalues -1, 1
    m = HermitianMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    mu, _ = eigh(m)
    np.testing.assert_allclose(mu, [-1.0, 1.0], atol=1e-15)


def test_diagonal_matrix_sorted():
    d = np.array([3.0, -1.0, 2.0])
    m = HermitianMatrix.from_dense(np.diag(d).astype(complex))
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
