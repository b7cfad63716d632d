from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from wignerlab import (
    DomainError,
    F_sc,
    SeedSpec,
    counting,
    eigvalsh,
    gue_log_density,
    gue_log_normalization,
    im_stieltjes,
    m_sc,
    rho_sc,
    sample_gue,
    unfolded_spacings,
    wigner_surmise_gue,
    wigner_surmise_gue_cdf,
)
from wignerlab.experiments import _SPACING_WINDOW


def _spectrum(values):
    return np.sort(np.asarray(values, dtype=float))


# -- limiting density and its transform -------------------------------------


def test_rho_sc_values():
    assert abs(rho_sc(0.0) - 1.0 / math.pi) < 1e-15
    assert abs(rho_sc(1.0) - math.sqrt(3.0) / (2.0 * math.pi)) < 1e-15
    assert rho_sc(2.0) == 0.0
    assert rho_sc(-2.0) == 0.0
    assert rho_sc(2.5) == 0.0
    assert rho_sc(-3.0) == 0.0


def test_rho_sc_vectorised_and_even():
    e = np.linspace(-2.5, 2.5, 41)
    vals = rho_sc(e)
    assert vals.shape == e.shape
    np.testing.assert_allclose(vals, rho_sc(-e), atol=0.0)
    assert np.all(vals >= 0.0)


def test_rho_sc_integrates_to_one():
    total, _ = integrate.quad(rho_sc, -2.0, 2.0, epsabs=1e-12, epsrel=1e-12)
    assert abs(total - 1.0) < 1e-10


def test_m_sc_solves_fixed_point_equation():
    for z in (0.3 + 0.5j, -1.2 + 0.01j, 1.9 + 1e-6j, 3.5 + 1e-3j, -4.0 + 1e-4j, 2.7j):
        m = m_sc(z)
        assert abs(m * m + z * m + 1.0) < 1e-12
        assert m.imag > 0.0


def test_m_sc_known_value():
    # m_sc(i) = i (sqrt(5) - 1)/2
    m = m_sc(1j)
    assert abs(m - 1j * (math.sqrt(5.0) - 1.0) / 2.0) < 1e-14


def test_m_sc_requires_upper_half_plane():
    with pytest.raises(DomainError):
        m_sc(1.0 - 0.5j)
    with pytest.raises(DomainError):
        m_sc(1.0)


def test_semicircle_boundary_identity():
    # Im m_sc on the real axis equals pi rho_sc
    for e in np.linspace(-1.95, 1.95, 79):
        assert abs(m_sc(complex(e, 1e-9)).imag - math.pi * rho_sc(e)) < 1e-6


def test_F_sc_endpoints_and_derivative():
    assert abs(F_sc(-2.0)) < 1e-15
    assert abs(F_sc(2.0) - 1.0) < 1e-15
    assert abs(F_sc(0.0) - 0.5) < 1e-15
    h = 1e-6
    for e in (-1.5, -0.3, 0.8, 1.7):
        fd = (F_sc(e + h) - F_sc(e - h)) / (2 * h)
        assert abs(fd - rho_sc(e)) < 1e-8


def test_F_sc_clamps_outside_support():
    assert F_sc(-5.0) == 0.0
    assert F_sc(5.0) == 1.0


def test_quantile_inverts_F_sc():
    # the pinned spacing window is the pair of semicircle quartiles
    lo, hi = _SPACING_WINDOW
    assert abs(F_sc(lo) - 0.25) < 1e-12
    assert abs(F_sc(hi) - 0.75) < 1e-12


# -- empirical observables ---------------------------------------------------


def test_counting_closed_interval():
    sp = _spectrum([-1.0, 0.0, 0.0, 0.5, 2.0])
    assert counting(sp, -1.0, 2.0) == 5
    assert counting(sp, 0.0, 0.0) == 2
    assert counting(sp, 0.1, 0.4) == 0
    assert counting(sp, -0.5, 0.75) == 3
    with pytest.raises(DomainError):
        counting(sp, 1.0, 0.0)


def test_stacked_counting_and_im_stieltjes_rows_equal_single_calls():
    rng = np.random.default_rng(35)
    # eigenvalues on a 1/8 grid sit on the window edges and tie; the wide
    # spectra sum in more than one pairwise block
    grid = np.sort(rng.integers(-12, 13, (6, 20)) / 8.0, axis=-1)
    wide = np.sort(rng.uniform(-2.0, 2.0, (3, 300)), axis=-1)
    E = np.array([0.0, 0.25, -0.5, 1.0, 0.3])
    eta = np.array([0.5, 0.5, 1.0, 0.25, 0.07])
    a, b = E - eta / 2.0, E + eta / 2.0
    assert np.isin(np.concatenate((a, b)), grid).sum() >= 4
    for stack in (grid, wide):
        counts, values = counting(stack, a, b), im_stieltjes(stack, E, eta)
        assert counts.shape == values.shape == (len(stack), 5)
        for row, row_counts, row_values in zip(stack, counts, values):
            assert list(row_counts) == [counting(row, lo, hi) for lo, hi in zip(a, b)]
            assert list(row_values) == [im_stieltjes(row, e, h) for e, h in zip(E, eta)]
    with pytest.raises(DomainError):
        counting(grid, a, a - 1.0)


def test_stieltjes_exact_small_case():
    mu = _spectrum([-1.0, 1.0])
    z = 0.5j
    expected = 0.5 * (1.0 / (-1.0 - z) + 1.0 / (1.0 - z))
    assert abs(im_stieltjes(mu, z.real, z.imag) - expected.imag) < 1e-15


def test_im_stieltjes_requires_positive_eta():
    # like m_sc off the upper half-plane: eta = 0 used to give nan and a
    # negative eta a negative "imaginary part"
    mu = [-1.0, 0.0, 1.0]
    for eta in (0.0, -0.1, float("nan"), [0.5, 0.0]):
        with pytest.raises(DomainError):
            im_stieltjes(mu, 0.5, eta)
    assert im_stieltjes(mu, 0.5, 0.1) > 0.0


def test_stieltjes_imaginary_part_is_poisson_sum():
    mu = eigvalsh(sample_gue(32, SeedSpec(31)))
    e, eta = 0.3, 0.05
    kernel = float(np.sum(eta / ((mu - e) ** 2 + eta**2))) / mu.size
    assert abs(im_stieltjes(mu, e, eta) - kernel) < 1e-15


def test_stieltjes_converges_to_m_sc():
    mu = eigvalsh(sample_gue(1024, SeedSpec(32)))
    z = 0.4 + 0.3j
    assert abs(im_stieltjes(mu, z.real, z.imag) - m_sc(z).imag) < 0.05


@pytest.mark.parametrize("trial", range(8))
def test_dyadic_bound_dominates(trial):
    # an eigenvalue within eps of E has Poisson kernel at most 1/eps, and one
    # at distance in (2^l eps, 2^(l+1) eps] at most 1/(4^l eps)
    mu = eigvalsh(sample_gue(48, SeedSpec(33, trial)))
    E = 0.1 * trial - 0.3
    for eps in (0.5, 0.05, 1.0 / 48.0):
        radii = eps * 2.0 ** np.arange(13)
        within = counting(mu, E - radii, E + radii)
        assert within[-1] == mu.size
        bound = (within[0] + np.dot(np.diff(within), 4.0 ** -np.arange(12))) / (mu.size * eps)
        assert im_stieltjes(mu, E, eps) <= bound + 1e-12


# -- GUE reference objects ---------------------------------------------------


def test_gue_log_density_basic():
    val = gue_log_density([-0.5, 0.5], 2)
    expected = 2.0 * math.log(1.0) - 1.0 * 0.5
    assert abs(val - expected) < 1e-14
    assert gue_log_density([0.3, 0.3], 2) == float("-inf")
    with pytest.raises(DomainError):
        gue_log_density([0.0], 2)
    with pytest.raises(DomainError):
        gue_log_density(np.zeros(9), 9)


def test_gue_log_normalization_matches_closed_form():
    # Z_N = (2 pi)^{N/2} N^{-N^2/2} prod_{j<=N} j!
    for n in range(1, 9):
        fact = math.prod(math.factorial(j) for j in range(1, n + 1))
        closed = 0.5 * n * math.log(2.0 * math.pi) - 0.5 * n * n * math.log(n) + math.log(fact)
        assert abs(gue_log_normalization(n) - closed) < 1e-10
    with pytest.raises(DomainError):
        gue_log_normalization(0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gue_log_normalization_matches_gauss_hermite(n):
    # x = y sqrt(2/N) turns exp(-(N/2) sum x^2) into the Hermite weight
    # exp(-sum y^2) and scales |Delta|^2 dx by (2/N)^{N^2/2}; |Delta(y)|^2 has
    # degree 2(N - 1) in each variable, so N nodes per axis integrate it exactly
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    points = np.array(list(itertools.product(nodes, repeat=n)))
    w = np.prod(np.array(list(itertools.product(weights, repeat=n))), axis=-1)
    i, j = np.triu_indices(n, 1)
    vandermonde_sq = np.prod((points[:, i] - points[:, j]) ** 2, axis=-1)
    log_z = 0.5 * n * n * math.log(2.0 / n) + math.log(float(np.sum(w * vandermonde_sq)))
    assert abs(log_z - gue_log_normalization(n)) < 1e-10


def test_gue_density_integrates_to_normalization():
    # direct 2-d trapezoid check of the N=2 normalisation, independent of
    # the Gauss-Legendre path
    grid = np.linspace(-6.0, 6.0, 801)
    xx, yy = np.meshgrid(grid, grid, indexing="ij")
    dens = (xx - yy) ** 2 * np.exp(-(xx**2 + yy**2))
    z = np.trapezoid(np.trapezoid(dens, grid, axis=1), grid)
    assert abs(math.log(z) - gue_log_normalization(2)) < 1e-6


# -- spacings ----------------------------------------------------------------


def test_unfolded_spacings_formula():
    mu = _spectrum([-0.4, -0.1, 0.2, 0.5, 1.9])
    inside = np.array([-0.4, -0.1, 0.2, 0.5])
    expected = mu.size * np.diff([F_sc(v) for v in inside])
    np.testing.assert_allclose(unfolded_spacings(mu, (-0.5, 0.6)), expected, atol=1e-14)


def test_unfolded_spacings_empty_and_validation():
    sp = _spectrum([-1.5, 1.5])
    assert unfolded_spacings(sp, (-0.5, 0.5)).size == 0
    with pytest.raises(DomainError):
        unfolded_spacings(sp, (-2.5, 0.5))
    with pytest.raises(DomainError):
        unfolded_spacings(sp, (0.5, 0.5))


def test_unfolded_mean_spacing_near_one():
    mu = eigvalsh(sample_gue(512, SeedSpec(35)))
    spacings = unfolded_spacings(mu, _SPACING_WINDOW)
    assert spacings.size > 200
    assert abs(spacings.mean() - 1.0) < 0.05


def test_wigner_surmise_normalised():
    total, _ = integrate.quad(wigner_surmise_gue, 0.0, 12.0, epsabs=1e-12, epsrel=1e-12)
    assert abs(total - 1.0) < 1e-10
    mean, _ = integrate.quad(lambda s: s * wigner_surmise_gue(s), 0.0, 12.0)
    assert abs(mean - 1.0) < 1e-10


def test_wigner_surmise_cdf_matches_quadrature():
    for s in (0.1, 0.5, 0.8862, 1.5, 3.0):
        val, _ = integrate.quad(wigner_surmise_gue, 0.0, s, epsabs=1e-13, epsrel=1e-12)
        assert abs(wigner_surmise_gue_cdf(s) - val) < 1e-10


def test_wigner_surmise_cdf_matches_the_scipy_erf_formula():
    # math.erf and scipy's erf differ by at most one ulp, on some inputs
    from scipy.special import erf

    s = np.linspace(0.0, 5.0, 5001)
    reference = erf(2.0 * s / math.sqrt(math.pi)) - (4.0 / math.pi) * s * np.exp(-4.0 * s * s / math.pi)
    assert np.max(np.abs(wigner_surmise_gue_cdf(s) - reference)) <= 1e-15
    assert wigner_surmise_gue_cdf(s.reshape(5001, 1)).shape == (5001, 1)
    assert wigner_surmise_gue_cdf(np.empty((0, 3))).shape == (0, 3)
    assert isinstance(wigner_surmise_gue_cdf(0.5), float)
    assert wigner_surmise_gue_cdf(0.5) == wigner_surmise_gue_cdf(np.array([0.5]))[0]


def test_wigner_surmise_mode():
    # density peaks at sqrt(pi)/2
    s0 = math.sqrt(math.pi) / 2.0
    h = 1e-5
    assert wigner_surmise_gue(s0) > wigner_surmise_gue(s0 - h)
    assert wigner_surmise_gue(s0) > wigner_surmise_gue(s0 + h)


def test_wigner_surmise_rejects_negative():
    with pytest.raises(DomainError):
        wigner_surmise_gue(-0.1)
    with pytest.raises(DomainError):
        wigner_surmise_gue_cdf(np.array([0.5, -1.0]))
