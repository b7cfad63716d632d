from __future__ import annotations

import json
import math

import numpy as np
import pytest

from wignerlab import (
    GOOD_EVENT_COUNT,
    DomainError,
    SeedSpec,
    coefficients,
    eigvalsh,
    good_event,
    minor,
    minor_diagnostics,
    overlaps,
    sample_gue,
    schur_resolvent_residual,
    select_indices,
)
from wignerlab.checks import chain_violation


def test_good_event_needs_eight_eligible():
    assert GOOD_EVENT_COUNT == 8
    n = 16
    eps = 0.5
    # nine distant eigenvalues plus one close: eligible count 9 >= 8
    lam = np.array([1.0 + 0.1 * k for k in range(9)] + [eps / (2 * n)])
    assert good_event(lam, 0.0, eps, n)
    # only seven eligible
    lam = np.array([1.0 + 0.1 * k for k in range(7)] + [0.0, 0.0, 0.0])
    assert not good_event(lam, 0.0, eps, n)


def test_good_event_boundary_distance_counts():
    n, eps = 10, 0.5
    lam = np.full(8, eps / n)  # rescaled distance exactly eps
    assert good_event(lam, 0.0, eps, n)
    lam = np.full(8, eps / n * 0.999)
    assert not good_event(lam, 0.0, eps, n)


def test_select_indices_order_and_delta():
    n, eps, E = 10, 1.0, 0.0
    # distances (rescaled): index 0 -> 0.5 (ineligible), then 1, 2, ..., 9
    lam = np.array([0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    sel = select_indices(lam, E, eps, n)
    assert sel.beta[0] == 0
    assert list(sel.beta[1:]) == [1, 2, 3, 4, 5, 6, 7, 8]
    assert abs(sel.delta - 8.0) < 1e-12


def test_select_indices_tie_breaks_to_lower_index():
    n, eps = 10, 0.5
    lam = np.array([0.3, -0.3, 0.3, 0.4, -0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    sel = select_indices(lam, 0.0, eps, n)
    assert sel.beta[0] == 0  # tied with 1 and 2, lowest index wins
    assert sel.beta[1] == 1


def test_select_indices_requires_good_event():
    with pytest.raises(DomainError):
        select_indices(np.zeros(9), 0.0, 0.5, 9)


def _select_indices_loop(lam, E, eps, N):
    """Reference selection: the closest index, then eligible ones by distance."""
    if not good_event(lam, E, eps, N):
        return None
    dist = N * np.abs(np.asarray(lam, dtype=float) - E)
    order = np.argsort(dist, kind="stable")
    beta0 = int(order[0])
    rest = [int(i) for i in order if i != beta0 and dist[i] >= eps][:GOOD_EVENT_COUNT]
    return [beta0] + rest, float(dist[rest[-1] if rest else beta0])


def test_select_indices_matches_loop_reference_with_ties():
    rng = np.random.default_rng(20)
    for trial in range(20000):
        size = int(rng.integers(1, 24))
        if trial % 2:
            # a coarse grid makes many exactly tied distances
            lam = rng.integers(-6, 7, size) / 8.0
        else:
            lam = rng.uniform(-2.0, 2.0, size)
        E = float(rng.choice([0.0, 0.25, -0.5, float(rng.uniform(-1.0, 1.0))]))
        eps = float(rng.choice([1.0, 0.5, float(rng.uniform(0.01, 1.0))]))
        N = int(rng.integers(1, 16))
        expected = _select_indices_loop(lam, E, eps, N)
        if expected is None:
            with pytest.raises(DomainError):
                select_indices(lam, E, eps, N)
            continue
        sel = select_indices(lam, E, eps, N)
        assert sel.beta.dtype == np.int64
        assert list(sel.beta) == expected[0]
        assert sel.delta == expected[1]


def test_stacked_good_event_and_selection_rows_equal_single_calls():
    rng = np.random.default_rng(22)
    good_rows = bad_rows = 0
    for size in (8, 9, 12, 23):
        # a 1/8 grid makes tied distances and distances exactly at eps
        lam = rng.integers(-6, 7, (40, size)) / 8.0
        for E, eps, N in ((0.0, 1.0, 8), (0.25, 0.5, 8), (-0.125, 0.75, 12)):
            omega = good_event(lam, E, eps, N)
            assert omega.shape == (40,)
            assert list(omega) == [good_event(row, E, eps, N) for row in lam]
            sel = select_indices(lam[omega], E, eps, N)
            for row, beta, delta in zip(lam[omega], sel.beta, sel.delta):
                single = select_indices(row, E, eps, N)
                assert list(beta) == list(single.beta)
                assert delta == single.delta
            good_rows += int(omega.sum())
            bad_rows += int((~omega).sum())
            if not omega.all():
                with pytest.raises(DomainError):
                    select_indices(lam, E, eps, N)
    assert good_rows > 100 and bad_rows > 20


def test_coefficients_on_site():
    n, eps = 12, 0.25
    co = coefficients(np.array([0.7]), 0.7, eps, n)
    assert abs(co.c[0] - 1.0 / eps) < 1e-15
    assert co.d[0] == 0.0
    assert co.c_prime[0] == 0.0
    assert abs(co.d_prime[0] + n / eps**2) < 1e-12


def test_coefficients_critical_distance():
    # at rescaled distance exactly eps: c = d = 1/(2 eps) and d' = 0
    n, eps, E = 8, 0.5, 0.1
    lam = np.array([E + eps / n])
    co = coefficients(lam, E, eps, n)
    assert abs(co.c[0] - 1.0 / (2.0 * eps)) < 1e-12
    assert abs(co.d[0] - 1.0 / (2.0 * eps)) < 1e-12
    assert abs(co.d_prime[0]) < 1e-9


def test_coefficients_global_bounds():
    rng = SeedSpec(40).generator()
    n = 64
    for eps in (1.0, 0.5, 0.05):
        lam = np.sort(rng.uniform(-2.0, 2.0, n - 1))
        co = coefficients(lam, 0.3, eps, n)
        assert np.all(co.c > 0.0)
        assert np.all(co.c <= 1.0 / eps + 1e-12)
        assert np.all(np.abs(co.d) <= 1.0 / (2.0 * eps) + 1e-12)


def test_coefficients_match_finite_differences():
    rng = SeedSpec(41).generator()
    n, eps, E = 32, 0.5, 0.2
    lam = np.sort(rng.uniform(-2.0, 2.0, n - 1))
    h = 1e-7
    hi = coefficients(lam, E + h, eps, n)
    lo = coefficients(lam, E - h, eps, n)
    fd_c = (hi.c - lo.c) / (2.0 * h)
    fd_d = (hi.d - lo.d) / (2.0 * h)
    co = coefficients(lam, E, eps, n)
    scale_c = np.max(np.abs(co.c_prime)) + 1.0
    scale_d = np.max(np.abs(co.d_prime)) + 1.0
    assert np.max(np.abs(co.c_prime - fd_c)) < 1e-5 * scale_c
    assert np.max(np.abs(co.d_prime - fd_d)) < 1e-5 * scale_d


def test_coefficients_poisson_decomposition():
    # c and d are the real/imaginary split of 1/(N(lam - E) - i eps)
    n, eps, E = 16, 0.3, -0.4
    lam = np.array([-1.0, -0.39, 0.1, 1.2])
    co = coefficients(lam, E, eps, n)
    direct = 1.0 / (n * (lam - E) - 1j * eps)
    np.testing.assert_allclose(co.c, direct.imag, atol=1e-14)
    np.testing.assert_allclose(co.d, direct.real, atol=1e-14)


def test_coefficients_eps_validation():
    lam = np.array([0.5])
    with pytest.raises(DomainError):
        coefficients(lam, 0.0, 0.0, 4)
    with pytest.raises(DomainError):
        coefficients(lam, 0.0, 1.5, 4)
    with pytest.raises(DomainError):
        coefficients(lam, 0.0, -0.2, 4)


@pytest.mark.parametrize("trial", range(10))
def test_parseval_identity(trial):
    m = sample_gue(24, SeedSpec(42, trial))
    j = trial % 24
    data = overlaps(m, j)
    dense = m.dense()
    a = np.delete(dense[:, j], j)
    lhs = float(np.sum(data.xi))
    rhs = m.n * float(np.vdot(a, a).real)
    assert abs(lhs - rhs) <= 1e-10 * rhs
    assert np.all(data.xi >= 0.0)
    assert data.lam.size == m.n - 1


@pytest.mark.parametrize("trial", range(10))
def test_schur_identity_residual(trial):
    m = sample_gue(20, SeedSpec(43, trial))
    z = complex(0.4 * math.cos(trial), 1e-3 * (1 + trial))
    assert schur_resolvent_residual(m, trial % 20, z) <= 1e-9


def test_schur_residual_requires_upper_half_plane():
    m = sample_gue(6, SeedSpec(44))
    with pytest.raises(DomainError):
        schur_resolvent_residual(m, 0, complex(0.1, -0.2))


def test_overlaps_minimum_dimension():
    with pytest.raises(DomainError):
        overlaps(sample_gue(1, SeedSpec(45)), 0)


def test_selected_coefficient_chains():
    # |d| and c decrease along the selected indices, sandwiched by the
    # bounds at eps and Delta
    found = 0
    for trial in range(30):
        m = sample_gue(48, SeedSpec(46, trial))
        lam = eigvalsh(minor(m, 0))
        eps = 0.5
        if not good_event(lam, 0.0, eps, m.n):
            continue
        found += 1
        assert chain_violation(lam, 0.0, eps, m.n) <= 1e-12
    assert found > 20


def test_minor_diagnostics_record():
    m = sample_gue(24, SeedSpec(47))
    rec = minor_diagnostics(m, 3, 0.1, 0.5)
    assert rec.j == 3
    assert rec.lam.size == 23
    assert rec.xi.size == 23
    assert rec.E == 0.1
    assert rec.eps == 0.5
    if rec.omega:
        assert rec.beta.size == 9
        assert rec.delta > 0.0
    else:
        assert rec.beta is None
        assert rec.delta is None


def test_minor_diagnostics_json_schema():
    m = sample_gue(16, SeedSpec(48))
    obj = minor_diagnostics(m, 0, 0.0, 0.5).to_json()
    assert set(obj) == {
        "j", "lambda", "xi", "c", "d", "c_prime", "d_prime",
        "omega", "beta", "delta", "E", "eps",
    }
    text = json.dumps(obj)
    again = json.loads(text)
    assert again["j"] == 0
    assert len(again["lambda"]) == 15
    assert isinstance(again["omega"], bool)


def test_minor_diagnostics_no_good_event():
    # two-dimensional matrix leaves a single minor eigenvalue: never a
    # good event
    m = sample_gue(2, SeedSpec(49))
    rec = minor_diagnostics(m, 0, 0.0, 1.0)
    assert not rec.omega
    assert rec.beta is None
    obj = rec.to_json()
    assert obj["beta"] is None
    assert obj["delta"] is None


def _record_as_written_field_by_field(rec) -> dict:
    """The minor record's JSON, one line per field, each value converted."""
    return {
        "j": int(rec.j),
        "lambda": [float(v) for v in rec.lam],
        "xi": [float(v) for v in rec.xi],
        "c": [float(v) for v in rec.c],
        "d": [float(v) for v in rec.d],
        "c_prime": [float(v) for v in rec.c_prime],
        "d_prime": [float(v) for v in rec.d_prime],
        "omega": bool(rec.omega),
        "beta": None if rec.beta is None else [int(b) for b in rec.beta],
        "delta": None if rec.delta is None else float(rec.delta),
        "E": float(rec.E),
        "eps": float(rec.eps),
    }


@pytest.mark.parametrize("n, j, E, eps, omega", [
    (16, 0, 0.0, 0.5, True),
    (5, 0, 1.9, 1.0, False),
    (16, 2, 0, 1, True),
    (16, np.int64(2), np.int64(0), np.int64(1), True),
], ids=["good-event", "no-good-event", "int", "numpy-int"])
def test_minor_diagnostics_json_text_is_the_field_by_field_record(n, j, E, eps, omega):
    # the same text, key order included, however j, E and eps are typed
    rec = minor_diagnostics(sample_gue(n, SeedSpec(50)), j, E, eps)
    assert rec.omega is omega
    text = json.dumps(rec.to_json(), indent=2, allow_nan=False)
    assert text == json.dumps(_record_as_written_field_by_field(rec), indent=2, allow_nan=False)
