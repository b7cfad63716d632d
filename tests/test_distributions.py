from __future__ import annotations

import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from wignerlab import (
    DIAGONAL_VARIANCE,
    OFF_DIAGONAL_VARIANCE,
    ConfigurationError,
    DistributionSpec,
    NumericError,
    SeedSpec,
    gaussian_diag,
    gaussian_off,
    regularity_integrals,
    sample_wigner,
)
from wignerlab.checks import regularity_gap
from wignerlab.distributions import _integrate

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import environment  # noqa: E402

LAWS = [
    gaussian_off(),
    gaussian_diag(),
    DistributionSpec("gaussian_mixture", (0.3, -1.0, 0.5, 0.7, 0.4, 0.8), "off_diagonal"),
    DistributionSpec("gaussian_mixture", (1.0, 2.0, 1.5), "diagonal"),
    # a component 30 times wider than the other: the narrow peak needs fine panels
    DistributionSpec("gaussian_mixture", (0.5, -1.0, 1.0, 0.5, 2.0, 30.0), "diagonal"),
    DistributionSpec("smoothed_uniform", (0.4,), "off_diagonal"),
    DistributionSpec("smoothed_uniform", (0.25,), "diagonal"),
    DistributionSpec("smoothed_uniform", (0.05,), "off_diagonal"),
]


def _quad(fn, lo=-12.0, hi=12.0):
    val, _ = integrate.quad(fn, lo, hi, epsabs=1e-12, epsrel=1e-11, limit=300)
    return val


@pytest.mark.parametrize("dist", LAWS)
def test_density_normalised_centred_scaled(dist):
    total = _quad(lambda x: float(dist.density(x)))
    mean = _quad(lambda x: x * float(dist.density(x)))
    var = _quad(lambda x: x * x * float(dist.density(x)))
    assert abs(total - 1.0) < 1e-9
    assert abs(mean) < 1e-9
    assert abs(var - dist.target_variance) < 1e-8


def test_role_variances():
    assert gaussian_off().target_variance == OFF_DIAGONAL_VARIANCE == 0.5
    assert gaussian_diag().target_variance == DIAGONAL_VARIANCE == 1.0


@pytest.mark.parametrize("dist", LAWS)
def test_density_derivatives_match_finite_differences(dist):
    h = 1e-5
    for x in (-1.3, -0.2, 0.0, 0.4, 1.7):
        d1 = float(dist.density_d1(x))
        d2 = float(dist.density_d2(x))
        fd1 = (float(dist.density(x + h)) - float(dist.density(x - h))) / (2 * h)
        fd2 = (
            float(dist.density(x + h)) - 2 * float(dist.density(x)) + float(dist.density(x - h))
        ) / (h * h)
        assert abs(d1 - fd1) < 1e-5 * (1.0 + abs(d1))
        assert abs(d2 - fd2) < 1e-4 * (1.0 + abs(d2))


@pytest.mark.parametrize("dist", LAWS)
def test_sample_moments_match_law(dist):
    rng = SeedSpec(2024).generator()
    draws = dist.sample(rng, 200_000)
    assert draws.shape == (200_000,)
    sigma = math.sqrt(dist.target_variance)
    assert abs(draws.mean()) < 5 * sigma / math.sqrt(200_000) * 1.5
    assert abs(draws.var() - dist.target_variance) < 0.02 * dist.target_variance


def test_single_component_mixture_streams_like_gaussian():
    plain = gaussian_off().sample(SeedSpec(5).generator(), 64)
    mix = DistributionSpec("gaussian_mixture", (3.0, 0.0, 1.0), "off_diagonal").sample(
        SeedSpec(5).generator(), 64
    )
    np.testing.assert_array_equal(plain, mix)


@pytest.mark.parametrize("params", [
    (0.5, -1.0, 0.5, 0.5, 1.0, 0.5),
    (0.3, -1.0, 0.5, 0.7, 0.4, 0.8),
    (0.2, -1.0, 0.3, 0.5, 0.0, 1.0, 0.3, 2.0, 0.5),
    (1e-3, 5.0, 0.1, 1.0, 0.0, 1.0, 2.0, -0.5, 0.2),
], ids=["two-even", "two-uneven", "three", "three-rare"])
def test_mixture_draw_matches_rng_choice(params):
    # the reference is the draw the sampler used to make, through rng.choice
    dist = DistributionSpec("gaussian_mixture", params, "off_diagonal")
    wts, mus, sds = dist._mix
    for seed in range(4):
        for size in (0, 1, 7, 1000, 8128):
            rng = SeedSpec(seed, size).generator()
            idx = rng.choice(len(wts), size, p=wts)
            expected = mus[idx] + sds[idx] * rng.standard_normal(size)
            got = dist.sample(SeedSpec(seed, size).generator(), size)
            assert got.tobytes() == expected.tobytes()


def test_sampling_is_seed_deterministic():
    for dist in LAWS:
        a = dist.sample(SeedSpec(7).generator(), 32)
        b = dist.sample(SeedSpec(7).generator(), 32)
        np.testing.assert_array_equal(a, b)


def test_json_round_trip():
    for dist in LAWS:
        again = DistributionSpec.from_json(dist.to_json())
        assert again == dist


def test_from_json_rejects_unknown_fields():
    obj = gaussian_off().to_json()
    obj["extra_field"] = 1
    with pytest.raises(ConfigurationError):
        DistributionSpec.from_json(obj)


@pytest.mark.parametrize("params", [
    (),  # no component: not the role gaussian
    (1.0, 0.0, math.nan, 1.0, 0.0, 1.0),
    (1.0, 0.0, math.inf, 1.0, 0.0, 1.0),
    (math.inf, 0.0, 1.0, 1.0, 0.0, 1.0),
    (1.0, -math.inf, 1.0, 1.0, 0.0, 1.0),
    (math.nan, 0.0, 1.0),  # one component, once taken as the role gaussian
    (1.0, 1e200, 1e-200, 1.0, -1e200, 1e-200),  # scales 1e-400 of the means flush to 0
    (1.0, 0.0, 1e-300, 1.0, 0.0, 1e100),  # the narrow scale would flush to 0
    (1.0, 0.0, 1e-200, 1.0, 0.0, 1e150),  # the narrow scale would flush to 0
])
@pytest.mark.parametrize("role", ["off_diagonal", "diagonal"])
def test_mixture_that_cannot_be_normalised_rejected(params, role):
    with pytest.raises(ConfigurationError):
        DistributionSpec("gaussian_mixture", params, role)


def _unscaled_mix(params, target):
    """The normalised mixture by the arithmetic on the raw parameters, with
    no power-of-two pre-scaling; the reference for ordinary magnitudes."""
    raw = np.asarray(params, dtype=float).reshape(-1, 3)
    wts, mus, sds = raw[:, 0], raw[:, 1], raw[:, 2]
    wts = wts / wts.sum()
    mean = float(np.dot(wts, mus))
    var = float(np.dot(wts, sds * sds + mus * mus) - mean * mean)
    r = math.sqrt(target / var)
    return (wts, (mus - mean) * r, sds * r)


@pytest.mark.parametrize("dist", [d for d in LAWS if len(d.params) > 3] + [
    DistributionSpec("gaussian_mixture", (0.2, -1.0, 0.3, 0.5, 0.0, 1.0, 0.3, 2.0, 0.5), "diagonal"),
    DistributionSpec("gaussian_mixture", (3e-5, 7.1, 0.01, 2.5, -0.3, 3.3, 1e4, 1e-3, 0.2), "off_diagonal"),
])
def test_mixture_pre_scaling_keeps_the_normalised_bytes(dist):
    for got, want in zip(dist._mix, _unscaled_mix(dist.params, dist.target_variance)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("params, plain", [
    ((1e308, 0.0, 1.0, 1e308, 0.0, 2.0), (1.0, 0.0, 1.0, 1.0, 0.0, 2.0)),  # weight sum overflowed
    ((1.0, 0.0, 1e-162, 1.0, 0.0, 1e-162), (1.0, 0.0, 1.0, 1.0, 0.0, 1.0)),  # variance underflowed
    ((1.0, 0.0, 1e-300, 1.0, 0.0, 1e-300), (1.0, 0.0, 1.0, 1.0, 0.0, 1.0)),
    ((1.0, 1e200, 1.0, 1.0, -1e200, 1.0), (1.0, 1.0, 1e-200, 1.0, -1.0, 1e-200)),  # overflowed
    ((1.0, 1.0, 1e-10, 1.0, 1.0, 1e-10), (1.0, 0.0, 1.0, 1.0, 0.0, 1.0)),  # E x^2 - mean^2 cancelled
])
def test_mixture_of_extreme_magnitude_is_accepted(params, plain):
    laws = [DistributionSpec("gaussian_mixture", params, role) for role in ("off_diagonal", "diagonal")]
    for dist in laws:
        for got, want in zip(dist._mix, DistributionSpec("gaussian_mixture", plain, dist.role)._mix):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        draws = dist.sample(SeedSpec(3).generator(), 1000)
        assert abs(draws.var() - dist.target_variance) < 0.15 * dist.target_variance
    assert np.all(np.isfinite(sample_wigner(16, *laws, SeedSpec(3)).dense()))


def test_pair_from_json_takes_roles_from_keys():
    off, diag = DistributionSpec.pair_from_json({"off": {"kind": "gaussian"}, "diag": {"kind": "gaussian"}})
    assert (off, diag) == (gaussian_off(), gaussian_diag())
    # a law that names its own role keeps it
    off, diag = DistributionSpec.pair_from_json(
        {"off": {"kind": "gaussian", "role": "diagonal"}, "diag": {"kind": "gaussian"}}
    )
    assert off == gaussian_diag()


def test_invalid_specs_rejected():
    with pytest.raises(ConfigurationError):
        DistributionSpec("lorentzian", (), "off_diagonal")
    with pytest.raises(ConfigurationError):
        DistributionSpec("gaussian", (1.0,), "off_diagonal")
    with pytest.raises(ConfigurationError):
        DistributionSpec("gaussian", (), "upper_left")
    with pytest.raises(ConfigurationError):
        DistributionSpec("gaussian_mixture", (0.5, 0.0), "diagonal")
    with pytest.raises(ConfigurationError):
        DistributionSpec("gaussian_mixture", (-1.0, 0.0, 1.0), "diagonal")
    with pytest.raises(ConfigurationError):
        DistributionSpec("gaussian_mixture", (1.0, 0.0, 0.0), "diagonal")
    with pytest.raises(ConfigurationError):
        DistributionSpec("smoothed_uniform", (), "off_diagonal")
    # smoothing width must leave room for the uniform part
    with pytest.raises(ConfigurationError):
        DistributionSpec("smoothed_uniform", (1.0,), "off_diagonal")


@pytest.mark.parametrize("params", [
    [True, 0, 1, True, 1, 1],
    ["1", "0", "1", "1", "1", "1"],
    [np.bool_(True), 0.0, 1.0],
    "101",
    5,
])
def test_parameters_follow_the_number_rule(params):
    # bools, strings and lone values are refused, from JSON as from the API
    with pytest.raises(ConfigurationError, match="distribution parameters must be numbers"):
        DistributionSpec.from_json({"kind": "gaussian_mixture", "params": params})
    law = DistributionSpec.from_json({"kind": "gaussian_mixture", "params": [1, np.int64(0), np.float32(1)]})
    assert law.params == (1.0, 0.0, 1.0) and all(type(p) is float for p in law.params)


def test_gaussian_regularity_integrals():
    assert set(regularity_integrals(gaussian_off())) == {"I6", "I4", "I2pp"}
    assert regularity_gap() < 1e-6


def test_smoothed_uniform_regularity_integrals_finite():
    values = regularity_integrals(DistributionSpec("smoothed_uniform", (0.4,), "off_diagonal"))
    for key in ("I6", "I4", "I2pp"):
        assert math.isfinite(values[key])
        assert values[key] > 0.0


@pytest.mark.parametrize("dist", LAWS)
def test_regularity_integrals_match_scipy_quad(dist):
    L = dist._support_bound()

    def ratio_pow(deriv, p):
        def fn(x):
            h = float(dist.density(x))
            return 0.0 if h <= 0.0 else abs(float(deriv(x)) / h) ** p * h
        return fn

    values = regularity_integrals(dist)
    for key, fn in (("I6", ratio_pow(dist.density_d1, 6)), ("I4", ratio_pow(dist.density_d1, 4)),
                    ("I2pp", ratio_pow(dist.density_d2, 2))):
        want, _ = integrate.quad(fn, -L, L, epsabs=0.0, epsrel=1e-11, limit=500)
        assert abs(values[key] - want) <= 1e-9 * want, key


@pytest.mark.parametrize("kind, width", [
    ("gaussian_mixture", 1e-4), ("gaussian_mixture", 1e-6),
    ("smoothed_uniform", 1e-5), ("smoothed_uniform", 1e-7),
], ids=["0.0001", "1e-06", "smoothed_uniform-1e-05", "smoothed_uniform-1e-07"])
def test_narrow_mixture_component_is_integrated(kind, width):
    # uniform panels on [-L, L] never landed in a feature of width ``width``:
    # the mixture's spike, which carries about w * 3 / s**4 of I4, or the
    # smoothed uniform's erf edges, where I4 grows as 1 / w**3; quad is cut
    # at the same inner breaks
    if kind == "gaussian_mixture":
        dist = DistributionSpec(kind, (1.0, 0.0, width, 1.0, 0.0, 1.0), "off_diagonal")
        wts, mus, sds = dist._mix
        inner, floor = [-14.0 * sds[0], 14.0 * sds[0]], 0.9 * wts[0] * 3.0 / sds[0] ** 4
    else:
        dist = DistributionSpec(kind, (width,), "off_diagonal")
        a = dist._half_width
        inner, floor = [-a + 14.0 * width, a - 14.0 * width], 1.0 / width**3
    L = dist._support_bound()
    points = sorted(set(dist._breaks()) - {-L, L})
    assert points == inner

    def ratio_pow(deriv, p):
        def fn(x):
            h = float(dist.density(x))
            return 0.0 if h <= 0.0 else abs(float(deriv(x)) / h) ** p * h
        return fn

    values = regularity_integrals(dist)
    assert values["I4"] > floor
    for key, fn in (("I6", ratio_pow(dist.density_d1, 6)), ("I4", ratio_pow(dist.density_d1, 4)),
                    ("I2pp", ratio_pow(dist.density_d2, 2))):
        want, _ = integrate.quad(fn, -L, L, points=points, epsabs=0.0, epsrel=1e-11, limit=500)
        assert abs(values[key] - want) <= 1e-9 * want, key


def test_integrate_over_pieces():
    # a break outside the interval or at its ends is ignored; the pieces'
    # sum is the integral
    assert _integrate(np.cos, 0.0, 1.0, [-1.0, 0.0, 1.0, 2.0]) == _integrate(np.cos, 0.0, 1.0)
    assert abs(_integrate(np.cos, 0.0, 1.0, [0.25, 0.5]) - math.sin(1.0)) < 1e-15
    # a step is exact when cut at its jump
    assert abs(_integrate(lambda x: np.sign(x - 0.1234), -1.0, 1.0, [0.1234]) - (-0.2468)) < 1e-14


@pytest.mark.parametrize("dist", [d for d in LAWS if d.kind == "smoothed_uniform"])
def test_smoothed_uniform_density_matches_the_scipy_ndtr_formula(dist):
    a, w = dist._half_width, dist._smooth_w
    x = np.linspace(-dist._support_bound() - 2.0, dist._support_bound() + 2.0, 20001)
    t = np.abs(x)
    reference = (ndtr((a - t) / w) - ndtr(-(t + a) / w)) / (2.0 * a)
    got = dist.density(x)
    keep = reference > 1e-300
    assert keep.sum() > 10000
    np.testing.assert_allclose(got[keep], reference[keep], rtol=1e-12, atol=0.0)


def test_integrate_refuses_an_integrand_it_cannot_resolve():
    assert abs(_integrate(lambda x: np.cos(x), 0.0, 1.0) - math.sin(1.0)) < 1e-15
    with pytest.raises(NumericError, match="did not reach relative tolerance"):
        _integrate(lambda x: np.sign(x - 0.1234), -1.0, 1.0)


def test_integrate_stops_at_the_first_pass_that_is_not_finite():
    # no finer pass can mend a NaN, so the first one is refused
    calls = []

    def nan_integrand(x):
        calls.append(x.size)
        return np.full_like(x, np.nan)

    with pytest.raises(NumericError, match="not finite") as exc:
        _integrate(nan_integrand, 0.0, 1.0)
    assert calls == [8 * 16]
    assert str(exc.value).endswith("is not finite at 8 panels: nan")


def test_variance_one_gaussian_regularity_scales():
    # target variance 1 doubles the scale relative to variance 1/2:
    # I6 = 15/sigma^6, I4 = 3/sigma^4, I2pp = 2/sigma^4
    values = regularity_integrals(gaussian_diag())
    assert abs(values["I6"] - 15.0) < 1e-6 * 15.0
    assert abs(values["I4"] - 3.0) < 1e-6 * 3.0
    assert abs(values["I2pp"] - 2.0) < 1e-6 * 2.0


# The law bytes: SHA-256 of density, density_d1 and density_d2 on NODES, and
# the repr of regularity_integrals, per LAWS entry.  numpy's SIMD exp and the
# quadrature's matrix product may differ between builds, so the values are
# keyed by perfbench/environment.build_key as in tests/test_golden.py.  Print
# this build's values with ``PYTHONPATH=src python tests/test_distributions.py``.
NODES = np.linspace(-6.0, 6.0, 97)

LAW_BYTES = {
    "numpy 2.4.6 | scipy-openblas 0.3.31.188.0 | OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH"
    " NO_AFFINITY SkylakeX MAX_THREADS=64 | threads 2": {
        "gaussian () off_diagonal": [
            "028e1c4dfa33cad7d0436717e07350d854881760c33d98040ac284b9ffa55873",
            "{'I6': 119.99999999999987, 'I4': 11.999999999999979, 'I2pp': 7.9999999999999964}",
        ],
        "gaussian () diagonal": [
            "70d63227940441768ed28b60d242a2fa68292fcaba35747dec0681b2cc977bd3",
            "{'I6': 15.000000000000004, 'I4': 3.0, 'I2pp': 2.0}",
        ],
        "gaussian_mixture (0.3, -1.0, 0.5, 0.7, 0.4, 0.8) off_diagonal": [
            "20f35f49897b0c3cb04b7d53978a7375aedab54569e3290c0c97c9614f7c4b75",
            "{'I6': 1078.002301594774, 'I4': 37.32020156354297, 'I2pp': 23.772541865599656}",
        ],
        "gaussian_mixture (1.0, 2.0, 1.5) diagonal": [
            "70d63227940441768ed28b60d242a2fa68292fcaba35747dec0681b2cc977bd3",
            "{'I6': 15.000000000000004, 'I4': 3.0, 'I2pp': 2.0}",
        ],
        "gaussian_mixture (0.5, -1.0, 1.0, 0.5, 2.0, 30.0) diagonal": [
            "c188c6ec194b6875cb15afe164ccb578bbfbabe22fa2f351ba68ff687b4a022a",
            "{'I6': 117037291.21502255, 'I4': 133069.98111597338, 'I2pp': 134479.4957528922}",
        ],
        "smoothed_uniform (0.4,) off_diagonal": [
            "34dff16bd30e8881d92489f0361ba852b6dd7e78ee892ee72c2ffa633820e991",
            "{'I6': 780.0394163677862, 'I4': 30.255104614162036, 'I2pp': 17.117394149214668}",
        ],
        "smoothed_uniform (0.25,) diagonal": [
            "bb6752adea7ae120e8583c6996e9cc7623ade84d8cde997e2fc37edf5785e5f8",
            "{'I6': 4925.728438961993, 'I4': 74.63037110818243, 'I2pp': 42.110800205125216}",
        ],
        "smoothed_uniform (0.05,) off_diagonal": [
            "0ae5c9465b119d1cc0d8e865662b2379221bab5163c5b81002362a1dd88ec4e6",
            "{'I6': 21130490.692020867, 'I4': 12806.035749513077, 'I2pp': 7225.910910796887}",
        ],
    },
}


def _law_label(dist: DistributionSpec) -> str:
    return f"{dist.kind} {dist.params} {dist.role}"


def law_bytes(dist: DistributionSpec) -> list:
    digest = hashlib.sha256()
    for values in (dist.density(NODES), dist.density_d1(NODES), dist.density_d2(NODES)):
        digest.update(values.astype("<f8").tobytes())
    return [digest.hexdigest(), repr(regularity_integrals(dist))]


@pytest.mark.parametrize("dist", LAWS, ids=_law_label)
def test_law_bytes_match_pinned_values(dist):
    key = environment.build_key(environment.record())
    if key not in LAW_BYTES:
        pytest.skip(f"no law bytes pinned for build {key!r}")
    assert law_bytes(dist) == LAW_BYTES[key][_law_label(dist)]


if __name__ == "__main__":
    key = environment.build_key(environment.record())
    print(json.dumps({key: {_law_label(dist): law_bytes(dist) for dist in LAWS}}, indent=1))
