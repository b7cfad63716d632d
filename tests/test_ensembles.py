from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from wignerlab import (
    ConfigurationError,
    DistributionSpec,
    DomainError,
    ExperimentSpec,
    HermitianMatrix,
    SeedSpec,
    eigvalsh,
    gaussian_diag,
    gaussian_off,
    minor,
    overlaps,
    run_experiment,
    sample_gue,
    sample_wigner,
    schur_resolvent_residual,
    unfolded_spacings,
)
from wignerlab import ensembles, eigensolver
from wignerlab.checks import interlacing_gap
from wignerlab.ensembles import _StreamStack

LAW_PAIRS = {
    "gaussian": (gaussian_off(), gaussian_diag()),
    "mixture": (
        DistributionSpec("gaussian_mixture", (0.5, -1.0, 0.5, 0.5, 1.0, 0.5), "off_diagonal"),
        DistributionSpec("gaussian_mixture", (0.2, -1.0, 0.3, 0.5, 0.0, 1.0, 0.3, 2.0, 0.5), "diagonal"),
    ),
    "smoothed_uniform": (
        DistributionSpec("smoothed_uniform", (0.3,), "off_diagonal"),
        DistributionSpec("smoothed_uniform", (0.4,), "diagonal"),
    ),
    # normalises to the role gaussian, so it takes the one-call draw too
    "one_component_mixture": (
        DistributionSpec("gaussian_mixture", (2.0, 0.3, 1.7), "off_diagonal"),
        DistributionSpec("gaussian_mixture", (0.5, -1.0, 0.2), "diagonal"),
    ),
    "gaussian_off_mixture_diag": (
        gaussian_off(),
        DistributionSpec("gaussian_mixture", (0.5, -1.0, 0.5, 0.5, 1.0, 0.5), "diagonal"),
    ),
}

# the generator calls one stream makes for each pair: one per part, except a
# single ``standard_normal`` when both laws are a scaled standard normal
STREAM_CALLS = {
    "gaussian": ["standard_normal"],
    "one_component_mixture": ["standard_normal"],
    "mixture": ["random", "standard_normal"] * 3,
    "smoothed_uniform": ["uniform", "standard_normal"] * 3,
    "gaussian_off_mixture_diag": ["standard_normal"] * 2 + ["random", "standard_normal"],
}


def _triangle(matrix: HermitianMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The real diagonal and the row-major strict upper triangle of
    ``matrix.dense()``: the entries in the order the streams draw them."""
    dense = matrix.dense()
    rows, cols = np.triu_indices(matrix.n, 1)
    return np.diagonal(dense, axis1=-2, axis2=-1).real.copy(), dense[..., rows, cols]


def test_from_dense_round_trip():
    rng = SeedSpec(1).generator()
    raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    dense = (raw + raw.conj().T) / 2.0
    m = HermitianMatrix.from_dense(dense)
    np.testing.assert_array_equal(m.dense(), dense)
    assert m.n == 6


def test_from_dense_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(DomainError):
        HermitianMatrix.from_dense(bad)
    with pytest.raises(DomainError):
        HermitianMatrix.from_dense(np.array([[1j]]))


def test_sampling_deterministic_in_seed():
    a = sample_gue(24, SeedSpec(11))
    b = sample_gue(24, SeedSpec(11))
    np.testing.assert_array_equal(a.dense(), b.dense())
    c = sample_gue(24, SeedSpec(12))
    assert not np.array_equal(a.dense(), c.dense())


def test_gue_is_gaussian_wigner():
    a = sample_gue(16, SeedSpec(4))
    b = sample_wigner(16, gaussian_off(), gaussian_diag(), SeedSpec(4))
    np.testing.assert_array_equal(a.dense(), b.dense())


def test_entry_scaling():
    n = 96
    diagonal, offs = _triangle(sample_gue(n, SeedSpec(21)))
    # real and imaginary parts of off-diagonal entries have variance 1/(2N)
    assert abs(np.var(offs.real) * 2 * n - 1.0) < 0.15
    assert abs(np.var(offs.imag) * 2 * n - 1.0) < 0.15
    assert abs(np.var(diagonal) * n - 1.0) < 0.4


def test_role_validation():
    with pytest.raises(ConfigurationError):
        sample_wigner(8, gaussian_diag(), gaussian_diag(), SeedSpec(0))
    with pytest.raises(ConfigurationError):
        sample_wigner(8, gaussian_off(), gaussian_off(), SeedSpec(0))
    with pytest.raises(DomainError):
        sample_wigner(0, gaussian_off(), gaussian_diag(), SeedSpec(0))


def test_non_gaussian_ensembles_sample():
    off = DistributionSpec("smoothed_uniform", (0.3,), "off_diagonal")
    diag = DistributionSpec("gaussian_mixture", (0.5, -1.0, 0.7, 0.5, 1.0, 0.7), "diagonal")
    m = sample_wigner(32, off, diag, SeedSpec(6))
    dense = m.dense()
    np.testing.assert_array_equal(dense, dense.conj().T)


def test_spectrum_concentrates_on_support():
    mu = eigvalsh(sample_gue(256, SeedSpec(8)))
    assert mu.min() > -2.3
    assert mu.max() < 2.3
    # about half the eigenvalues lie in the central half of the support
    frac = np.mean(np.abs(mu) < 1.0)
    assert 0.5 < frac < 0.7


def test_semicircle_histogram_large_n():
    mu = eigvalsh(sample_gue(512, SeedSpec(9)))
    inside, _ = np.histogram(mu, bins=[-1.0, 1.0])
    # semicircle mass of [-1, 1] is 1/3 + sqrt(3)/(2 pi) = 0.6090
    assert abs(inside[0] / 512 - 0.6090) < 0.05


def test_single_entry_matrix():
    m = sample_gue(1, SeedSpec(2))
    assert m.dense().shape == (1, 1)
    assert abs(eigvalsh(m)[0] - m.dense()[0, 0].real) < 1e-15
    with pytest.raises(DomainError, match="no proper minor"):
        _StreamStack(1, gaussian_off(), gaussian_diag(), [SeedSpec(2)], drop_row=True)


def test_hermitian_matrix_shape_validation():
    with pytest.raises(DomainError):
        HermitianMatrix(n=3, array=np.zeros((2, 2)))
    with pytest.raises(DomainError):
        HermitianMatrix(n=3, array=np.zeros((3, 2)))
    with pytest.raises(DomainError):
        HermitianMatrix(n=3, array=np.zeros(9))
    with pytest.raises(DomainError):
        HermitianMatrix(n=0, array=np.zeros((0, 0)))
    # the dense form holds both triangles, so a stack must be exactly Hermitian
    with pytest.raises(DomainError, match="not exactly Hermitian"):
        HermitianMatrix(n=2, array=np.array([np.eye(2), [[0.0, 1.0], [0.5, 0.0]]]))


# -- stacks ---------------------------------------------------------------------


@pytest.mark.parametrize("law", sorted(LAW_PAIRS))
@pytest.mark.parametrize("n", [64, 128, 256])
def test_stack_rows_equal_single_seed_calls(n, law):
    off, diag = LAW_PAIRS[law]
    seeds = [SeedSpec(17, k) for k in (3, 0, 9)]
    stack = sample_wigner(n, off, diag, seeds)
    singles = [sample_wigner(n, off, diag, s) for s in seeds]
    assert stack.batch_shape == (3,) and singles[0].batch_shape == ()
    dense = stack.dense()
    assert dense.shape == (3, n, n)
    for b, single in enumerate(singles):
        assert dense[b].tobytes() == single.dense().tobytes()
    for j in (0, n // 2, n - 1):
        sub = minor(stack, j)
        assert (sub.n, sub.batch_shape) == (n - 1, (3,))
        for b, single in enumerate(singles):
            assert sub.dense()[b].tobytes() == minor(single, j).dense().tobytes()
    values = eigvalsh(stack)
    assert values.shape == (3, n)
    for b, single in enumerate(singles):
        assert values[b].tobytes() == eigvalsh(single).tobytes()


def test_stack_shapes_and_reductions():
    seeds = [SeedSpec(4, k) for k in range(3)]
    stack = sample_wigner(5, gaussian_off(), gaussian_diag(), seeds)
    singles = [sample_wigner(5, gaussian_off(), gaussian_diag(), s) for s in seeds]
    assert sample_wigner(5, gaussian_off(), gaussian_diag(), []).dense().shape == (0, 5, 5)
    # a 2 x 2 grid of matrices keeps both batch axes
    grid = HermitianMatrix(n=5, array=stack.dense()[[0, 1, 2, 0]].reshape(2, 2, 5, 5))
    np.testing.assert_array_equal(grid.dense()[1, 0], singles[2].dense())
    assert grid.batch_shape == (2, 2)
    with pytest.raises(DomainError):
        HermitianMatrix(n=5, array=np.zeros((3, 5, 4)))
    with pytest.raises(DomainError):
        HermitianMatrix(n=5, array=np.zeros((3, 4, 5)))
    with pytest.raises(ConfigurationError):
        sample_wigner(5, gaussian_off(), gaussian_diag(), [SeedSpec(1), 2])


def test_single_matrix_observables_refuse_a_stack():
    # these reduce over one spectrum or matrix; a stack would mix its rows
    stack = sample_wigner(6, gaussian_off(), gaussian_diag(), [SeedSpec(2, k) for k in range(2)])
    spectra = eigvalsh(stack)
    for call in (
        lambda: unfolded_spacings(spectra, (-1.0, 1.0)),
        lambda: overlaps(stack, 0),
        lambda: schur_resolvent_residual(stack, 0, 0.1j),
    ):
        with pytest.raises(DomainError):
            call()


def _per_part_stack(n, off, diag, seeds):
    """The diagonal and row-major upper triangle drawn one part at a time,
    the reference stream order: real parts, imaginary parts, diagonal, then
    the ``1/sqrt(n)`` scaling."""
    m = n * (n - 1) // 2
    diagonal = np.empty((len(seeds), n))
    upper = np.empty((len(seeds), m), dtype=np.complex128)
    for s, dg, up in zip(seeds, diagonal, upper):
        rng = s.generator()
        up.real = off.sample(rng, m)
        up.imag = off.sample(rng, m)
        dg[:] = diag.sample(rng, n)
    scale = 1.0 / math.sqrt(n)
    diagonal *= scale
    upper *= scale
    return diagonal, upper


@pytest.mark.parametrize("law", sorted(LAW_PAIRS))
@pytest.mark.parametrize("n", [1, 2, 3, 64, 127])
def test_stack_matches_per_part_draw(n, law):
    off, diag = LAW_PAIRS[law]
    seeds = [SeedSpec(23, k) for k in (0, 5, 2)]
    diagonal, upper = _per_part_stack(n, off, diag, seeds)
    drawn = _triangle(sample_wigner(n, off, diag, seeds))
    assert drawn[0].tobytes() == diagonal.tobytes()
    assert drawn[1].tobytes() == upper.tobytes()


class _RecordingGenerator:
    """A generator that logs the name of every method called on it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return record


@pytest.mark.parametrize("law", sorted(LAW_PAIRS))
def test_generator_calls_per_stream(law, monkeypatch):
    off, diag = LAW_PAIRS[law]
    seeds = [SeedSpec(29, k) for k in range(4)]
    expected = sample_wigner(64, off, diag, seeds)
    calls = {}
    generator = SeedSpec.generator
    monkeypatch.setattr(
        SeedSpec, "generator", lambda s: _RecordingGenerator(generator(s), calls.setdefault(s, []))
    )
    stack = sample_wigner(64, off, diag, seeds)
    assert calls == {s: STREAM_CALLS[law] for s in seeds}
    assert stack.dense().tobytes() == expected.dense().tobytes()


# the calls of one N = 200 stream: a Gaussian part is cut at row ends into
# calls of at most 2^14 values, 16330 + (3570 + 12760) + (7140 + 200) when
# both laws are Gaussian, and 16330 + 3570 per part otherwise
STREAM_CALLS_IN_PIECES = {
    "gaussian": ["standard_normal"] * 3,
    "one_component_mixture": ["standard_normal"] * 3,
    "mixture": ["random", "standard_normal"] * 3,
    "smoothed_uniform": ["uniform", "standard_normal"] * 3,
    "gaussian_off_mixture_diag": ["standard_normal"] * 4 + ["random", "standard_normal"],
}


@pytest.mark.parametrize("law", sorted(LAW_PAIRS))
def test_generator_calls_per_stream_in_pieces(law, monkeypatch):
    off, diag = LAW_PAIRS[law]
    seeds = [SeedSpec(29, k) for k in range(2)]
    diagonal, upper = _per_part_stack(200, off, diag, seeds)
    calls = {}
    generator = SeedSpec.generator
    monkeypatch.setattr(
        SeedSpec, "generator", lambda s: _RecordingGenerator(generator(s), calls.setdefault(s, []))
    )
    drawn = _triangle(sample_wigner(200, off, diag, seeds))
    assert calls == {s: STREAM_CALLS_IN_PIECES[law] for s in seeds}
    assert drawn[0].tobytes() == diagonal.tobytes()
    assert drawn[1].tobytes() == upper.tobytes()


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("n, drop_row", [(n, drop_row) for n in (1, 2, 3, 17, 130, 513)
                                         for drop_row in (False, True) if n > 1 or not drop_row])
@pytest.mark.parametrize("law", sorted(LAW_PAIRS))
def test_stream_stack_writes_the_sample_wigner_bytes(law, n, drop_row, batch):
    # drawn straight into LAPACK's input, the stack has the bytes of
    # sample_wigner, then minor(., 0), then dense(lapack=True): the
    # diagonal and the C upper triangle, the only entries LAPACK reads
    off, diag = LAW_PAIRS[law]
    seeds = [SeedSpec(41, i) for i in range(11, 11 + batch)]
    stored = sample_wigner(n, off, diag, seeds)
    if drop_row:
        stored = minor(stored, 0)
    streams = _StreamStack(n, off, diag, seeds, drop_row)
    assert (streams.n, streams.batch_shape) == (stored.n, stored.batch_shape)
    rows, cols = np.triu_indices(stored.n)
    lower = streams.dense(lapack=True)
    assert lower[:, rows, cols].tobytes() == stored.dense(lapack=True)[:, rows, cols].tobytes()
    assert streams.dense().tobytes() == stored.dense().tobytes()


@pytest.mark.parametrize("law", ["gaussian", "mixture"])
def test_minors_and_interlacing_of_a_stream_stack(law):
    # a stream stack stores no matrix, so its minor is cut from its dense
    # form; it has the bytes of the minor of the stored sample
    off, diag = LAW_PAIRS[law]
    n, seeds = 9, [SeedSpec(47, i) for i in range(3)]
    stored = sample_wigner(n, off, diag, seeds)
    for j in (0, n // 2, n - 1):
        sub = minor(_StreamStack(n, off, diag, seeds), j)
        assert (sub.n, sub.batch_shape) == (n - 1, (3,))
        assert sub.dense().tobytes() == minor(stored, j).dense().tobytes()
    # the gap of a stack is the largest over its matrices, on one or three
    for stack in (_StreamStack(n, off, diag, seeds[:1]), _StreamStack(n, off, diag, seeds)):
        gap = interlacing_gap(stack, n // 2)
        assert math.isfinite(gap) and 0.0 <= gap <= 1e-10
    assert interlacing_gap(_StreamStack(n, off, diag, seeds), 2) == max(
        interlacing_gap(sample_wigner(n, off, diag, s), 2) for s in seeds)


def test_matrices_compare_by_identity():
    # a field-wise == would compare numpy arrays, and two stream stacks,
    # whose arrays are both None, would compare equal at one size
    a, b = sample_gue(4, SeedSpec(1)), sample_gue(4, SeedSpec(1))
    assert a == a and a != b and len({a, b}) == 2
    off, diag = LAW_PAIRS["gaussian"]
    assert _StreamStack(5, off, diag, [SeedSpec(1)]) != _StreamStack(5, off, diag, [SeedSpec(2)])


@pytest.mark.parametrize("piece", [50, 200])
@pytest.mark.parametrize("law", ["gaussian", "gaussian_off_mixture_diag"])
def test_stream_stack_bytes_do_not_depend_on_the_pieces(law, piece, monkeypatch):
    # an N = 17 stream holds 136 real parts, 136 imaginary ones and 17
    # diagonal entries: 50 values cut it inside the real part, and with
    # both laws Gaussian 200 values take its first imaginary rows along
    off, diag = LAW_PAIRS[law]
    seeds = [SeedSpec(43, i) for i in range(3)]
    whole = [_StreamStack(17, off, diag, seeds, drop_row).dense(lapack=True)
             for drop_row in (False, True)]
    monkeypatch.setattr(ensembles, "_PIECE_VALUES", piece)
    pieces = ensembles._pieces(17, (off, off, diag))
    if piece == 50:
        assert pieces[0] == [(0, 0, 3, 45)]
    else:
        straddles = [ranges for ranges in pieces if [r[0] for r in ranges] == [0, 1]]
        assert straddles == ([[(0, 0, 16, 136), (1, 0, 4, 58)]] if law == "gaussian" else [])
    for drop_row, expected in zip((False, True), whole):
        lower = _StreamStack(17, off, diag, seeds, drop_row).dense(lapack=True)
        rows, cols = np.triu_indices(17 - drop_row)
        assert lower[:, rows, cols].tobytes() == expected[:, rows, cols].tobytes()


def test_stream_stack_peaks_at_the_lapack_input_plus_one_piece():
    # one N = 383 chunk: drawn straight into LAPACK's input it peaks at that
    # input and one piece; sampled, then copied into LAPACK's input, it
    # peaks at the stored stack plus the input, 32 N^2 bytes
    n = 383
    bound = 16 * n * n + 8 * ensembles._PIECE_VALUES + 64 * 1024

    def peak(draw):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lower = draw()
            assert lower.nbytes == 16 * n * n
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    seeds = [SeedSpec(5, 0)]
    assert peak(lambda: _StreamStack(n, gaussian_off(), gaussian_diag(), seeds).dense(lapack=True)) <= bound
    stored = peak(lambda: sample_wigner(n, gaussian_off(), gaussian_diag(), seeds).dense(lapack=True))
    assert stored > bound


def _recording_lapack(monkeypatch):
    """Patch the eigensolver's LAPACK step to keep each input it is handed."""
    inputs: list = []
    lapack = eigensolver._lapack_eigvalsh

    def recording(a):
        inputs.append(a)
        return lapack(a)

    monkeypatch.setattr(eigensolver, "_lapack_eigvalsh", recording)
    return inputs


def _lower(a: np.ndarray) -> np.ndarray:
    """The lower triangle of ``a``, diagonal included, row by row."""
    rows, cols = np.tril_indices(a.shape[-1])
    return a[..., rows, cols]


@pytest.mark.parametrize("law", ["gaussian", "mixture"])
def test_lapack_input_is_the_lower_triangle_in_column_order(law):
    off, diag = LAW_PAIRS[law]
    for stack in (sample_wigner(7, off, diag, [SeedSpec(19, k) for k in range(3)]),
                  sample_wigner(7, off, diag, SeedSpec(19, 0))):
        full = stack.dense()
        lower = stack.dense(lapack=True)
        assert lower.shape == full.shape and lower.dtype == np.complex128
        # read in column order, as LAPACK reads it, it is the matrix
        assert _lower(lower.mT).tobytes() == _lower(full).tobytes()
        # the diagonal is real, and the C upper triangle is the
        # conjugated upper triangle
        assert not np.any(np.diagonal(lower, axis1=-2, axis2=-1).imag)
        rows, cols = np.triu_indices(7, 1)
        assert lower[..., rows, cols].tobytes() == full[..., rows, cols].conj().tobytes()


@pytest.mark.parametrize("law", ["gaussian", "mixture"])
def test_calls_outside_a_run_return_fresh_arrays(law, monkeypatch):
    off, diag = LAW_PAIRS[law]
    seeds = [SeedSpec(31, k) for k in range(3)]
    a, b = sample_wigner(32, off, diag, seeds), sample_wigner(32, off, diag, seeds)
    inputs = _recording_lapack(monkeypatch)
    pairs = [
        (a.array, b.array), (a.dense(), a.dense()),
        (a.dense(lapack=True), a.dense(lapack=True)), (eigvalsh(a), eigvalsh(b)),
    ]
    for x, y in pairs:
        assert x.flags.owndata and y.flags.owndata
        assert not np.shares_memory(x, y)
    # the LAPACK input of eigvalsh is a new array too, also in a serial run,
    # in place (N = 130) or not
    inputs.clear()
    spec = ExperimentSpec(kind="spacing", n=[32, 130], samples=2, seed=31, dist=(off, diag))
    run_experiment(spec, workers=1)
    assert [x.shape for x in inputs] == [(2, 32, 32), (2, 130, 130)]
    assert all(x.flags.owndata for x in inputs)


def _triu_reference(n: int, batch: tuple, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A random real diagonal, row-major upper triangle and the dense stack
    they make, built from ``np.triu_indices``."""
    m = n * (n - 1) // 2
    upper = rng.standard_normal(batch + (m,)) + 1j * rng.standard_normal(batch + (m,))
    diagonal = rng.standard_normal(batch + (n,))
    rows, cols = np.triu_indices(n, 1)
    dense = np.zeros(batch + (n, n), np.complex128)
    dense[..., rows, cols] = upper
    dense[..., cols, rows] = upper.conj()
    dense[..., range(n), range(n)] = diagonal
    return diagonal, upper, dense


@pytest.mark.parametrize("batch", [(), (3,), (2, 2), (0,)])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 130])
def test_dense_layout_matches_triu_indices(n, batch):
    rng = np.random.default_rng([n, len(batch)])
    diagonal, upper, dense = _triu_reference(n, batch, rng)
    matrix = HermitianMatrix(n=n, array=dense.copy())
    rows, cols = np.triu_indices(n, 1)
    assert matrix.dense().tobytes() == dense.tobytes()
    # LAPACK's input: the conjugated upper triangle right of a real diagonal
    lower = matrix.dense(lapack=True)
    assert lower[..., rows, cols].tobytes() == upper.conj().tobytes()
    assert lower[..., range(n), range(n)].tobytes() == diagonal.astype(np.complex128).tobytes()
    for j in range(n if n > 1 else 0):
        sub = np.delete(np.delete(dense, j, axis=-1), j, axis=-2)
        assert minor(matrix, j).dense().tobytes() == sub.tobytes()
    for one in dense.reshape(-1, n, n):
        stored = HermitianMatrix.from_dense(one)
        assert stored.dense().tobytes() == one.tobytes()
        assert not np.shares_memory(stored.array, one)


def test_unpacking_allocates_only_the_lapack_input():
    # a size no other test uses, so that a per-size cache filled by an earlier
    # test could not hide what the first LAPACK input builds
    matrix = sample_gue(383, SeedSpec(5))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lower = matrix.dense(lapack=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= lower.nbytes + 64 * 1024


def test_minors_leave_no_memory_behind():
    # 32 minors of one N = 256 matrix keep nothing; the slack is interpreter
    # bookkeeping, far below one 255 kB table of minor positions
    matrix = sample_gue(256, SeedSpec(6))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for j in range(1, 256, 8):
            minor(matrix, j)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before <= 16 * 1024
