from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from wignerlab import (
    CSV_HEADER,
    ConfigurationError,
    EtaSchedule,
    ExperimentResult,
    ExperimentSpec,
    NumericError,
    ResultRow,
    SeedSpec,
    counting,
    eigvalsh,
    gaussian_diag,
    gaussian_off,
    good_event,
    rows_from_csv,
    run_experiment,
    sample_gue,
    select_indices,
    worker_count,
)
from wignerlab import eigensolver, experiments
from wignerlab.ensembles import _StreamStack
from wignerlab.experiments import _mean_stderr


# -- schedules ----------------------------------------------------------------


def test_eta_schedule_resolution():
    assert EtaSchedule("const", 0.25).resolve(100) == 0.25
    assert EtaSchedule("over_n", 2.0).resolve(100) == 0.02
    assert abs(EtaSchedule("over_n32", 1.0).resolve(4) - 0.125) < 1e-15


def test_eta_schedule_labels():
    assert EtaSchedule("const", 0.5).label() == "0.5"
    assert EtaSchedule("over_n", 2.0).label() == "2/N"
    assert EtaSchedule("over_n32", 1.0).label() == "1/N^1.5"


def test_eta_schedule_json_forms():
    assert EtaSchedule.from_json(0.3) == EtaSchedule("const", 0.3)
    assert EtaSchedule.from_json({"over_n": 2}) == EtaSchedule("over_n", 2.0)
    assert EtaSchedule.from_json({"over_n32": 1.5}) == EtaSchedule("over_n32", 1.5)
    assert EtaSchedule.from_json({"kind": "const", "coef": 1.0}) == EtaSchedule("const", 1.0)
    again = EtaSchedule.from_json(EtaSchedule("over_n", 3.0).to_json())
    assert again == EtaSchedule("over_n", 3.0)


def test_eta_schedule_validation():
    with pytest.raises(ConfigurationError):
        EtaSchedule("linear", 1.0)
    with pytest.raises(ConfigurationError):
        EtaSchedule("const", 0.0)
    with pytest.raises(ConfigurationError):
        EtaSchedule("over_n", math.inf)
    with pytest.raises(ConfigurationError):
        EtaSchedule.from_json("0.5")


@pytest.mark.parametrize("obj", [
    {"kind": "over_n", "coeff": 2},
    {"kind": "over_n"},
    {"kind": "over_n", "coef": 1, "x": 2},
], ids=["misspelt", "missing", "extra"])
def test_eta_schedule_kind_form_takes_exactly_kind_and_coef(obj):
    # a misspelt or missing coef is not read as a coefficient of 0
    with pytest.raises(ConfigurationError, match="^cannot parse eta schedule from "):
        EtaSchedule.from_json(obj)


# -- spec validation -----------------------------------------------------------


def test_spec_normalises_scalars():
    spec = ExperimentSpec(kind="dos", n=32, samples=4, energy=0.0, eta=[1.0])
    assert spec.n == (32,)
    assert spec.energy == (0.0,)
    assert spec.eta == (EtaSchedule("const", 1.0),)
    assert spec.dist[0] == gaussian_off()
    assert spec.dist[1] == gaussian_diag()


def test_spec_rejects_energy_outside_bulk():
    with pytest.raises(ConfigurationError):
        ExperimentSpec(kind="dos", n=32, samples=4, energy=1.6, eta=[1.0])
    # custom margin widens the window
    spec = ExperimentSpec(kind="dos", n=32, samples=4, energy=1.6, eta=[1.0], kappa=0.2)
    assert spec.energy == (1.6,)


def test_spec_rejects_bad_fields():
    with pytest.raises(ConfigurationError):
        ExperimentSpec(kind="resolvent", n=32, samples=4, eta=[1.0])
    with pytest.raises(ConfigurationError):
        ExperimentSpec(kind="dos", n=0, samples=4, eta=[1.0])
    with pytest.raises(ConfigurationError):
        ExperimentSpec(kind="dos", n=32, samples=0, eta=[1.0])
    with pytest.raises(ConfigurationError):
        ExperimentSpec(kind="dos", n=32, samples=4, eta=[])
    with pytest.raises(ConfigurationError):
        ExperimentSpec(kind="dos", n=32, samples=4, eta=[1.0], seed=-1)
    with pytest.raises(ConfigurationError):
        ExperimentSpec(
            kind="dos", n=32, samples=4, eta=[1.0], dist=(gaussian_diag(), gaussian_diag())
        )
    # sizes, budgets and seeds are integers: no silent truncation, no bools
    for bad in (dict(n=64.9), dict(n=[32, 48.0]), dict(samples=True), dict(samples=4.0),
                dict(seed=False), dict(seed=1.5), dict(n="32")):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(**{"kind": "dos", "n": 32, "samples": 4, "eta": [1.0], **bad})
    spec = ExperimentSpec(kind="dos", n=np.int64(32), samples=np.int32(4), eta=[1.0],
                          seed=np.uint8(3))
    assert (spec.n, spec.samples, spec.seed) == ((32,), 4, 3)
    assert all(type(v) is int for v in (*spec.n, spec.samples, spec.seed))
    # energies, kappa and eta coefficients are real numbers: no strings, no bools
    for bad in (dict(energy="x"), dict(energy=[0.0, "0.5"]), dict(energy=[True]),
                dict(kappa="x"), dict(kappa=True), dict(eta=[{"over_n": "x"}]),
                dict(eta=[{"kind": "const", "coef": None}]), dict(eta=[{"over_n": True}]),
                dict(eta=True), dict(eta="0.5"), dict(eta=[0.5, True]), dict(eta=np.array([True]))):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(**{"kind": "dos", "n": 32, "samples": 4, "eta": [1.0], **bad})
    spec = ExperimentSpec(kind="dos", n=32, samples=4, energy=[np.float32(0.5), 1], eta=[2],
                          kappa=np.float64(0.25))
    assert (spec.energy, spec.kappa, spec.eta[0].coef) == ((0.5, 1.0), 0.25, 2.0)
    # eta takes a number as energy does: a lone numpy scalar, or an array
    for value in (np.float32(0.5), np.array([0.5])):
        spec = ExperimentSpec(kind="dos", n=32, samples=4, energy=value, eta=value)
        assert (spec.energy, spec.eta) == ((0.5,), (EtaSchedule("const", 0.5),))
    # extras are checked, with the same rules, before anything is sampled;
    # delta_moments takes no eta, so its cases are built without one
    for kind, extra in (
        ("derivative", {"delta_e": {"over_n": "x"}}),
        ("derivative", {"delta_e": True}),
        ("delta_moments", {"eps": "0.5"}),
        ("delta_moments", {"eps": True}),
        ("delta_moments", {"deltas": [0.5, "x"]}),
        ("delta_moments", {"deltas": [float("nan")]}),
        ("delta_moments", {"moment_orders": [1.5]}),
        ("delta_moments", {"moment_orders": [True]}),
        ("delta_moments", {"moment_orders": "x"}),
        ("delta_moments", {"part2_order": 1.5}),
        ("delta_moments", {"part2_order": "1"}),
    ):
        eta = [0.1] if kind == "derivative" else []
        with pytest.raises(ConfigurationError):
            run_experiment(ExperimentSpec(kind=kind, n=8, samples=2, eta=eta, extra=extra))


def test_spec_dist_must_be_a_pair_of_laws():
    laws = {"off": {"kind": "gaussian", "role": "off_diagonal"},
            "diag": {"kind": "gaussian", "role": "diagonal"}}
    for bad in (laws, ("gaussian", "gaussian"), (gaussian_off(),),
                (gaussian_off(), gaussian_diag(), gaussian_diag()), gaussian_off(),
                (gaussian_off(), laws["diag"])):
        with pytest.raises(ConfigurationError, match="dist must be a pair"):
            ExperimentSpec(kind="spacing", n=8, samples=2, dist=bad)
    spec = ExperimentSpec(kind="spacing", n=8, samples=2, dist=[gaussian_off(), gaussian_diag()])
    assert spec.dist == ExperimentSpec.from_json({"kind": "spacing", "n": 8, "samples": 2,
                                                  "dist": laws}).dist


def test_spec_json_round_trip():
    spec = ExperimentSpec(
        kind="im_stieltjes",
        n=[16, 32],
        samples=10,
        energy=[0.0, 1.0],
        eta=[{"over_n": 0.5}],
        seed=7,
        extra={"note": 1},
    )
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec


def test_spec_from_json_rejects_unknown_fields():
    obj = ExperimentSpec(kind="dos", n=8, samples=2, eta=[1.0]).to_json()
    obj["etas"] = [1.0]
    with pytest.raises(ConfigurationError):
        ExperimentSpec.from_json(obj)


@pytest.mark.parametrize("obj", [
    [{"kind": "dos", "n": [8], "samples": 2, "eta": [1.0]}],
    {"kind": "dos", "samples": 2, "eta": [1.0]},
    {"kind": "dos", "n": [8], "eta": [1.0]},
], ids=["not-a-dict", "no-n", "no-samples"])
def test_spec_from_json_refuses_a_malformed_object(obj):
    with pytest.raises(ConfigurationError):
        ExperimentSpec.from_json(obj)


@pytest.mark.parametrize("extra", [{}, {"moment_orders": []}, {"deltas": []}])
def test_delta_moments_takes_either_list_empty(extra):
    spec = ExperimentSpec(kind="delta_moments", n=16, samples=2, extra=extra)
    rows = run_experiment(spec, workers=1).rows
    columns = len(extra.get("moment_orders", (0, 1, 2))) + 2 * len(extra.get("deltas", (0.5, 0.1, 0.02)))
    assert len(rows) == columns


# -- worker pool ----------------------------------------------------------------


def test_worker_count_env_cap(monkeypatch):
    monkeypatch.delenv("WIGNERLAB_THREADS", raising=False)
    assert worker_count(4) == 4
    monkeypatch.setenv("WIGNERLAB_THREADS", "2")
    assert worker_count(4) == 2
    assert worker_count(1) == 1
    monkeypatch.setenv("WIGNERLAB_THREADS", "zero")
    with pytest.raises(ConfigurationError):
        worker_count(4)
    monkeypatch.setenv("WIGNERLAB_THREADS", "0")
    with pytest.raises(ConfigurationError):
        worker_count(4)


def test_worker_count_caps_a_request_at_8(monkeypatch):
    # a pool never gets more than 8 threads, whatever is asked for
    monkeypatch.delenv("WIGNERLAB_THREADS", raising=False)
    assert [worker_count(k) for k in (7, 8, 9, 1000)] == [7, 8, 8, 8]
    monkeypatch.setenv("WIGNERLAB_THREADS", "2")
    assert worker_count(1000) == 2
    monkeypatch.setenv("WIGNERLAB_THREADS", "64")
    assert worker_count(1000) == 8


def test_worker_count_rejects_bad_request():
    for bad in (0, 2.5, "3", True):
        with pytest.raises(ConfigurationError):
            worker_count(bad)
    assert worker_count(np.int64(1)) == 1


def test_worker_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("WIGNERLAB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count() == 1  # pinned to one CPU of 64
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(12)))
    assert worker_count() == 8
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert worker_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count() == 1


# -- reductions -------------------------------------------------------------------


def test_mean_stderr_known_values():
    mean, se = _mean_stderr([1.0, 2.0, 3.0, 4.0])
    assert mean == 2.5
    assert abs(se - math.sqrt(5.0 / 3.0 / 4.0)) < 1e-15


def test_mean_stderr_single_sample_has_nan_stderr():
    mean, se = _mean_stderr([3.25])
    assert mean == 3.25
    assert math.isnan(se)


def _generator_mean_stderr(values):
    """The reference form of the reduction: ``fsum`` over ``(v - mean) ** 2``."""
    m = len(values)
    mean = math.fsum(values) / m
    var = math.fsum((float(v) - mean) ** 2 for v in values) / (m - 1)
    return mean, math.sqrt(var / m)


def test_mean_stderr_squares_with_pythons_pow():
    # x ** 2 is libm's pow, which rounds some squares differently from
    # x * x; columns built from such values tell the two forms apart
    rng = np.random.default_rng(14)
    draws = rng.standard_normal(100_000)
    odd = [v for v in draws.tolist() if v * v != v**2]
    columns = [np.array([v, -v, v, -v]) for v in odd]
    columns += [rng.standard_normal(1024), rng.integers(0, 9, 64), list(draws[:100])]
    for column in columns:
        assert _mean_stderr(column) == _generator_mean_stderr(column)

    def numpy_square(values):
        d = np.asarray(values, dtype=float) - math.fsum(values) / len(values)
        return math.sqrt(math.fsum((d * d).tolist()) / (len(values) - 1) / len(values))

    if odd:
        assert any(numpy_square(c) != _generator_mean_stderr(c)[1] for c in columns)


# -- experiment runs ---------------------------------------------------------------


def _dos_spec(samples=64, seed=5):
    return ExperimentSpec(
        kind="dos", n=24, samples=samples, energy=[0.0, 0.5], eta=[{"over_n": 2}], seed=seed
    )


def test_determinism_across_worker_counts():
    a = run_experiment(_dos_spec(), workers=1)
    b = run_experiment(_dos_spec(), workers=8)
    assert a.to_csv() == b.to_csv()


def test_rows_depend_on_seed():
    a = run_experiment(_dos_spec(seed=5), workers=1)
    b = run_experiment(_dos_spec(seed=6), workers=1)
    assert a.to_csv() != b.to_csv()


def test_stderr_shrinks_with_sample_size():
    small = run_experiment(_dos_spec(samples=100), workers=2).rows[0].stderr
    large = run_experiment(_dos_spec(samples=400), workers=2).rows[0].stderr
    # quadrupling the sample size should halve the standard error
    assert 1.4 < small / large < 2.9


def test_dos_row_semantics():
    res = run_experiment(_dos_spec(), workers=2)
    assert len(res.rows) == 2
    for row, energy in zip(res.rows, (0.0, 0.5)):
        assert row.n == 24
        assert row.energy == energy
        assert abs(row.eta - 2.0 / 24.0) < 1e-15
        assert row.samples == 64
        assert row.reference > 0.0
        assert abs(row.ratio - row.mean / row.reference) < 1e-12
    assert res.version
    assert res.wall_time_s >= 0.0


def test_dos_mean_is_sample_average_of_counts():
    # re-derive the first row's mean straight from the seeded streams
    spec = _dos_spec(samples=8)
    res = run_experiment(spec, workers=1)
    eta = 2.0 / 24.0
    vals = []
    for i in range(8):
        m = sample_gue(24, SeedSpec(5, i))
        vals.append(counting(eigvalsh(m), -eta / 2.0, eta / 2.0) / (24 * eta))
    assert abs(res.rows[0].mean - float(np.mean(vals))) < 1e-15


def test_im_stieltjes_warning_and_sample_max():
    spec = ExperimentSpec(
        kind="im_stieltjes", n=24, samples=8, energy=0.0, eta=[{"over_n32": 0.2}], seed=3
    )
    res = run_experiment(spec, workers=1)
    assert any("stderr" in w for w in res.warnings)
    assert any("sub-microscopic" in w for w in res.warnings)
    assert "sample_max" in res.rows[0].extras
    assert res.rows[0].extras["sample_max"] >= res.rows[0].mean


def test_arctangent_sandwich_bounds_counting():
    # The window integral of the Poisson kernel sum has the closed form
    # (1/N) sum_a [arctan((b - mu_a)/eta) - arctan((a - mu_a)/eta)].
    # Per sample it is bounded by counting estimates on enlarged/shrunk
    # windows: every eigenvalue inside [a - s, b + s] contributes at most
    # pi, every one outside at most (b - a) eta / s^2, and every eigenvalue
    # inside [a + s, b - s] contributes at least pi - 2 eta / s.
    a, b, eta, s = -0.5, 0.5, 0.1, 0.25
    for trial in range(20):
        mu = eigvalsh(sample_gue(32, SeedSpec(60, trial)))
        integral = float(np.sum(np.arctan((b - mu) / eta) - np.arctan((a - mu) / eta))) / mu.size
        upper = (
            math.pi * counting(mu, a - s, b + s) / mu.size
            + (b - a) * eta / s**2
        )
        lower = (math.pi - 2.0 * eta / s) * counting(mu, a + s, b - s) / mu.size
        assert integral <= upper + 1e-12
        assert integral >= lower - 1e-12


@pytest.mark.parametrize("E", [0.0, 0.5, -1.2, 1.49])
def test_window_mass_without_cancellation(E):
    from wignerlab.spectral import F_sc, rho_sc

    def mass(E, eta):
        return experiments._window(E, eta)[0]

    for eta in (1e-9, 1e-12, 1e-15):
        assert abs(mass(E, eta) - rho_sc(E) * eta) <= 1e-12 * rho_sc(E) * eta
    # the golden rows' etas keep the difference of the two F_sc values, and
    # the rule agrees with it where it takes over
    cut = experiments._WINDOW_RULE_MAX_ETA
    assert cut < 2.5e-4
    for eta in (2.5e-4, 0.01, cut):
        assert mass(E, eta) == F_sc(E + eta / 2.0) - F_sc(E - eta / 2.0)
    below = cut * (1.0 - 1e-9)
    assert abs(mass(E, below) - (F_sc(E + below / 2.0) - F_sc(E - below / 2.0))) <= 1e-10 * mass(E, below)
    # the wegner count reference goes through the same mass
    res = run_experiment(ExperimentSpec(kind="wegner", n=16, samples=2, energy=E, eta=1e-12, seed=3))
    assert res.rows[0].reference == 16 * mass(E, 1e-12)


@pytest.mark.parametrize("E, eta", [(1.999999, 9e-5), (1.99999, 5e-5), (1.9999, 5e-5), (-1.9999, 1e-12)])
def test_window_mass_near_the_spectrum_edge(E, eta):
    # a window across the edge keeps the difference of the two F_sc values,
    # where the one-panel rule was 0.2% off; one inside it by its width
    # takes the rule.  Both are checked against an exact quadrature.
    mp = pytest.importorskip("mpmath")
    from wignerlab.spectral import F_sc

    across = eta > 2.0 - abs(E)
    mass, mean = experiments._window(E, eta)
    if across:
        assert mass == F_sc(E + eta / 2.0) - F_sc(E - eta / 2.0)
    else:
        assert mass == eta * mean
    with mp.workdps(40):
        lo, hi = mp.mpf(E) - mp.mpf(eta) / 2, min(mp.mpf(E) + mp.mpf(eta) / 2, mp.mpf(2))
        exact = mp.quad(lambda x: mp.sqrt(4 - x * x) / (2 * mp.pi), [lo, hi])
    assert abs(mass - float(exact)) <= 1e-7 * float(exact)


def test_wegner_rows_and_schedule_validation():
    spec = ExperimentSpec(
        kind="wegner", n=24, samples=16, energy=0.0,
        eta=[{"over_n": 1}, {"over_n": 0.1}], seed=4,
    )
    res = run_experiment(spec, workers=1)
    stats = [r.extras["statistic"] for r in res.rows]
    assert stats == ["count_mean", "count_sq_mean", "count_mean", "count_sq_mean"]
    # second moment dominates the squared first moment
    assert res.rows[1].mean >= res.rows[0].mean ** 2 - 1e-12
    with pytest.raises(ConfigurationError):
        run_experiment(
            ExperimentSpec(
                kind="wegner", n=24, samples=4, energy=0.0,
                eta=[{"over_n": 0.1}, {"over_n": 1}], seed=4,
            ),
            workers=1,
        )


def test_derivative_requires_step_and_small_eta():
    with pytest.raises(ConfigurationError):
        run_experiment(
            ExperimentSpec(kind="derivative", n=16, samples=4, energy=0.0, eta=[{"over_n": 0.5}]),
            workers=1,
        )
    with pytest.raises(ConfigurationError):
        run_experiment(
            ExperimentSpec(
                kind="derivative", n=16, samples=4, energy=0.0, eta=[0.5],
                extra={"delta_e": 0.01},
            ),
            workers=1,
        )


# the spec fields of energy, kappa and eta that each kind reads
READS = {kind: {"energy", "kappa", "eta"} for kind in experiments.EXPERIMENT_KINDS}
READS.update(delta_moments={"energy", "kappa"}, spacing=set())


@pytest.mark.parametrize("kind", experiments.EXPERIMENT_KINDS)
def test_kinds_that_read_no_eta_refuse_one(kind):
    # a kind takes a value other than the default for each field it reads,
    # and the spec refuses one, so before anything is sampled, for each
    # field it does not; the defaults it writes are read back
    base = {"kind": kind, "n": [8], "samples": 2, "eta": [0.5] if "eta" in READS[kind] else []}
    spec = ExperimentSpec.from_json(base)
    assert ExperimentSpec.from_json(spec.to_json()) == spec
    for name, value, shown in (("eta", [0.1], "['0.1']"), ("energy", [0.5], "[0.5]"),
                               ("energy", -0.0, "[-0.0]"), ("kappa", 1.0, "1.0")):
        if name in READS[kind]:
            ExperimentSpec.from_json({**base, name: value})
            continue
        message = re.escape(f"experiment kind '{kind}' takes no {name}, got {shown}")
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            ExperimentSpec.from_json({**base, name: value})


@pytest.mark.parametrize("energy", [None, 0.0, [0.0], np.float64(0.0), (0.0,)])
def test_an_unread_field_may_spell_its_default(energy):
    # the rule compares the JSON forms, so every spelling of 0.0 passes and
    # reads back, while -0.0, which to_json would write, does not
    fields = {} if energy is None else {"energy": energy}
    spec = ExperimentSpec(kind="spacing", n=8, samples=2, **fields)
    assert spec.to_json()["energy"] == [0.0]
    assert ExperimentSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ConfigurationError, match=re.escape("takes no energy, got [-0.0]")):
        ExperimentSpec(kind="spacing", n=8, samples=2, energy=-0.0)


# a spec of each kind, then another value for each field and extra key
TABLE_SPECS = {
    "dos": dict(eta=[0.5]),
    "im_stieltjes": dict(eta=[0.5]),
    "wegner": dict(eta=[0.5]),
    "derivative": dict(eta=[{"over_n": 0.5}], extra={"delta_e": 0.01}),
    "scale_sweep": dict(eta=[0.5]),
    "delta_moments": dict(),
    "spacing": dict(),
}
MOVED = {"energy": [0.3], "eta": [{"over_n": 0.25}], "delta_e": 0.02, "eps": 0.5,
         "moment_orders": [0, 3], "deltas": [0.5, 0.2], "part2_order": 1, "window": [-0.5, 0.5]}


@pytest.mark.parametrize("kind", sorted(TABLE_SPECS))
def test_each_field_a_kind_reads_moves_its_csv(kind):
    # the table is accurate: every field of energy and eta and every extra
    # key that a kind declares changes its bytes, and kappa the energies
    # it accepts
    declared = experiments._KINDS[kind]
    base = dict(TABLE_SPECS[kind], kind=kind, n=[16], samples=4, seed=3)
    csv = run_experiment(ExperimentSpec.from_json(base)).to_csv()
    changes = [{name: MOVED[name]} for name in ("energy", "eta") if name in declared.reads]
    changes += [{"extra": {**base.get("extra", {}), key: MOVED[key]}} for key in declared.extra]
    for change in changes:
        assert run_experiment(ExperimentSpec.from_json({**base, **change})).to_csv() != csv, change
    if "kappa" in declared.reads:
        with pytest.raises(ConfigurationError, match="outside the bulk window"):
            ExperimentSpec.from_json({**base, "energy": [1.6]})
        ExperimentSpec.from_json({**base, "energy": [1.6], "kappa": 0.2})


def test_eta_must_resolve_positive_with_finite_n_eta_at_every_size(monkeypatch):
    monkeypatch.setattr(experiments, "_StreamStack", lambda *a: pytest.fail("sampled"))
    # 1e-315 / N^1.5 is a positive subnormal at N = 4 and rounds to 0 at N = 10^6
    ExperimentSpec(kind="dos", n=[4], samples=2, eta=[{"over_n32": 1e-315}])
    with pytest.raises(ConfigurationError, match=r"resolves to eta=0 at N=1000000"):
        ExperimentSpec(kind="dos", n=[4, 10**6], samples=2, eta=[{"over_n32": 1e-315}])
    # N * eta = 1e308 is finite at N = 1 and overflows at N = 2
    ExperimentSpec(kind="dos", n=[1], samples=2, eta=[1e308])
    for kind in ("dos", "im_stieltjes", "wegner", "derivative", "scale_sweep"):
        with pytest.raises(ConfigurationError, match=r"resolves to eta=1e\+308 at N=2"):
            run_experiment(ExperimentSpec(kind=kind, n=[1, 2], samples=2, eta=[1e308],
                                          extra={"delta_e": 0.01} if kind == "derivative" else {}))


def test_derivative_step_must_move_every_energy(monkeypatch):
    monkeypatch.setattr(experiments, "_StreamStack", lambda *a: pytest.fail("sampled"))
    # 0.3 + 1e-320 == 0.3, while 0 + 1e-320 moves
    tiny = ExperimentSpec(kind="derivative", n=[8], samples=4, energy=[0.0, 0.3],
                          eta=[{"over_n": 0.5}], extra={"delta_e": 1e-320})
    with pytest.raises(ConfigurationError, match=r"does not move energy 0.3 at N=8"):
        run_experiment(tiny)
    # nor does it move mu - E for any eigenvalue mu in the bulk
    with pytest.raises(ConfigurationError, match=r"below the spectrum's resolution at N=8"):
        run_experiment(dataclasses.replace(tiny, energy=(0.0,)))


def test_derivative_step_must_move_the_spectrum(monkeypatch):
    # 2 + spacing(2) / 2 rounds to 2, while 2 + spacing(2) is the next double
    ulp = float(np.spacing(2.0))
    spec = ExperimentSpec(kind="derivative", n=[8], samples=4, energy=[0.0, 1.0],
                          eta=[{"over_n": 0.5}], extra={"delta_e": ulp / 2})
    monkeypatch.setattr(experiments, "_StreamStack", lambda *a: pytest.fail("sampled"))
    with pytest.raises(ConfigurationError, match=r"step 2\.22045e-16 is below the spectrum's "
                                                 r"resolution at N=8: it does not move 2\.0"):
        run_experiment(spec)
    monkeypatch.undo()
    rows = run_experiment(dataclasses.replace(spec, extra={"delta_e": ulp})).rows
    assert len(rows) == 2 and all(row.extras["delta_e"] == ulp for row in rows)


def test_derivative_row_semantics():
    spec = ExperimentSpec(
        kind="derivative", n=16, samples=32, energy=0.0, eta=[{"over_n": 0.5}],
        seed=8, extra={"delta_e": {"kind": "over_n", "coef": 0.5}},
    )
    res = run_experiment(spec, workers=1)
    row = res.rows[0]
    assert abs(row.extras["delta_e"] - 0.5 / 16) < 1e-15
    assert row.extras["bound_2se"] >= abs(row.mean) / 16
    assert abs(row.ratio - abs(row.mean) / 16) < 1e-12


def test_derivative_uses_common_random_numbers():
    # the finite difference of one sample must reuse the same matrix at
    # E + delta and E - delta
    spec = ExperimentSpec(
        kind="derivative", n=16, samples=1, energy=0.5, eta=[{"over_n": 0.5}],
        seed=9, extra={"delta_e": 0.01},
    )
    res = run_experiment(spec, workers=1)
    mu = eigvalsh(sample_gue(16, SeedSpec(9, 0)))
    eta = 0.5 / 16
    def imst(E):
        return float(np.sum(eta / ((mu - E) ** 2 + eta * eta))) / 16
    expected = (imst(0.51) - imst(0.49)) / 0.02
    assert abs(res.rows[0].mean - expected) < 1e-13


def test_scale_sweep_series_labels():
    spec = ExperimentSpec(
        kind="scale_sweep", n=[16, 24], samples=8, energy=0.0,
        eta=[0.5, {"over_n": 2}], seed=10,
    )
    res = run_experiment(spec, workers=1)
    labels = {r.extras["series"] for r in res.rows}
    assert labels == {"0.5", "2/N"}
    assert len(res.rows) == 4
    for row in res.rows:
        assert abs(row.reference - 0.3183098861837907) < 1e-12


def test_delta_moments_rows():
    spec = ExperimentSpec(
        kind="delta_moments", n=32, samples=64, energy=0.0, seed=11,
        extra={"eps": 0.5, "moment_orders": [0, 1], "deltas": [0.5, 0.1]},
    )
    res = run_experiment(spec, workers=1)
    stats = [r.extras["statistic"] for r in res.rows]
    assert stats == [
        "omega_delta_moment", "omega_delta_moment",
        "delta_moment_count_sq", "nearest_eigenvalue_prob",
        "delta_moment_count_sq", "nearest_eigenvalue_prob",
    ]
    freq = res.rows[0].mean  # order-0 moment is the good-event frequency
    assert 0.0 <= freq <= 1.0
    for row in res.rows:
        if row.extras["statistic"] == "nearest_eigenvalue_prob":
            assert 0.0 <= row.mean <= 1.0
            assert abs(row.ratio - row.mean / row.eta) < 1e-12


def test_delta_moments_validation():
    with pytest.raises(ConfigurationError):
        run_experiment(
            ExperimentSpec(kind="delta_moments", n=16, samples=4, extra={"eps": 2.0}),
            workers=1,
        )
    with pytest.raises(ConfigurationError):
        run_experiment(
            ExperimentSpec(kind="delta_moments", n=16, samples=4, extra={"deltas": [0.0]}),
            workers=1,
        )


def test_spacing_rows():
    spec = ExperimentSpec(kind="spacing", n=48, samples=8, seed=12)
    res = run_experiment(spec, workers=2)
    row = res.rows[0]
    assert row.extras["statistic"] == "mean_spacing"
    assert row.extras["pooled_count"] > 0
    assert 0.0 <= row.extras["ks_distance"] <= 1.0
    assert 0.0 <= row.extras["frac_below_0p1"] <= 1.0
    lo, hi = row.extras["window"]
    assert -2.0 < lo < hi < 2.0
    assert 0.5 < row.mean < 1.5


def test_default_spacing_window_is_the_semicircle_quartiles():
    # the constant is the root finder's quartiles, bit for bit
    from scipy.optimize import brentq

    from wignerlab.spectral import F_sc

    quartiles = tuple(brentq(lambda x: F_sc(x) - p, -2, 2, xtol=1e-14) for p in (0.25, 0.75))
    assert experiments._SPACING_WINDOW == quartiles


def test_spacing_window_validation():
    with pytest.raises(ConfigurationError):
        run_experiment(
            ExperimentSpec(kind="spacing", n=16, samples=2, extra={"window": [0.5, 0.5]}),
            workers=1,
        )


@pytest.mark.parametrize("spec", [
    dict(kind="derivative", n=[8, 64], eta=[0.05], extra={"delta_e": 0.01}),
    dict(kind="derivative", n=[8, 64], eta=[{"over_n": 0.5}]),
    dict(kind="wegner", n=[64, 4], eta=[0.5, {"over_n": 2}]),
    dict(kind="delta_moments", n=[16, 32], extra={"eps": 0.0}),
    dict(kind="delta_moments", n=[16], extra={"moment_orders": [1, -1]}),
    dict(kind="spacing", n=[16, 32], extra={"window": [0.5, 0.5]}),
    dict(kind="spacing", n=[16], extra={"window": [0.5]}),
    dict(kind="delta_moments", n=[16, 1]),
    dict(kind="spacing", n=[16], extra={"window": [-0.5, True]}),
    # every kind refuses an extra key it does not read
    dict(kind="dos", n=[16], eta=[0.5], extra={"delta_e": 0.01}),
    dict(kind="im_stieltjes", n=[16], eta=[0.5], extra={"eps": 0.5}),
    dict(kind="wegner", n=[16], eta=[0.5], extra={"deltas": [0.5]}),
    dict(kind="derivative", n=[16], eta=[0.05], extra={"delta_e": 0.01, "delta": 0.01}),
    dict(kind="scale_sweep", n=[16], eta=[0.5], extra={"window": [-0.5, 0.5]}),
    dict(kind="delta_moments", n=[16], extra={"delta": [0.3]}),
    dict(kind="spacing", n=[16], extra={"windw": [-0.5, 0.5]}),
    # delta_moments with nothing to estimate, and a negative part-2 order
    dict(kind="delta_moments", n=[16], extra={"moment_orders": [], "deltas": []}),
    dict(kind="delta_moments", n=[16], extra={"part2_order": -1}),
    # malformed delta_moments extras, which test_spec_rejects_bad_fields
    # passes with an eta that the spec refuses before they are read
    *(dict(kind="delta_moments", n=[16], extra=extra) for extra in (
        {"eps": "0.5"}, {"eps": True}, {"deltas": [0.5, "x"]}, {"deltas": [float("nan")]},
        {"moment_orders": [1.5]}, {"moment_orders": [True]}, {"moment_orders": "x"},
        {"part2_order": 1.5}, {"part2_order": "1"},
    )),
], ids=["derivative-eta", "derivative-step", "wegner", "eps", "orders", "window", "window-len",
        "minor-size", "window-bool", "dos-key", "im_stieltjes-key", "wegner-key", "derivative-key",
        "scale_sweep-key", "delta_moments-key", "spacing-key", "nothing-to-estimate", "part2-order",
        "eps-str", "eps-bool", "deltas-str", "deltas-nan", "orders-float", "orders-bool", "orders-str",
        "part2-float", "part2-str"])
def test_invalid_spec_samples_nothing(spec, monkeypatch):
    # every check runs for all sizes before the first matrix is drawn
    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was sampled before the spec was checked")

    monkeypatch.setattr(experiments, "_StreamStack", refuse)
    with pytest.raises(ConfigurationError):
        run_experiment(ExperimentSpec(samples=40, energy=0.0, seed=1, **spec), workers=1)


CHUNK_SPECS = {
    "dos": dict(energy=[0.0, 0.7], eta=[0.3, {"over_n": 1.0}, {"over_n": 0.02}]),
    "im_stieltjes": dict(energy=[0.0, -1.1], eta=[{"over_n": 0.1}, {"over_n": 2.0}]),
    "wegner": dict(energy=[0.0, 0.5], eta=[0.5, {"over_n": 1.0}, {"over_n": 0.1}]),
    "derivative": dict(energy=[0.0, 1.0], eta=[{"over_n": 0.5}], extra={"delta_e": {"over_n": 0.25}}),
    "scale_sweep": dict(energy=[0.0], eta=[0.5, {"over_n32": 1.0}], dist={
        "off": {"kind": "smoothed_uniform", "params": [0.3], "role": "off_diagonal"},
        "diag": {"kind": "smoothed_uniform", "params": [0.3], "role": "diagonal"}}),
    "delta_moments": dict(energy=[0.0, 0.8], dist={
        "off": {"kind": "gaussian_mixture", "params": [0.5, -1.0, 0.5, 0.5, 1.0, 0.5],
                "role": "off_diagonal"},
        "diag": {"kind": "gaussian", "role": "diagonal"}},
        extra={"eps": 0.5, "deltas": [0.5, 0.25], "part2_order": 1}),
    "spacing": dict(),
}


@pytest.mark.parametrize("kind", sorted(CHUNK_SPECS))
def test_csv_bytes_do_not_depend_on_chunk_depth(kind, monkeypatch):
    # 37 samples at N = 16 and 72: the default chunks hold 32 and 12 matrices,
    # so chunk boundaries fall mid-cell; at N = 130 LAPACK runs in place on
    # stacks of 3 (3 minors of 129 rows for delta_moments); a one-byte budget
    # with no GIL-free floor gives one matrix per chunk
    spec = ExperimentSpec.from_json(dict(CHUNK_SPECS[kind], kind=kind, n=[16, 72, 130],
                                         samples=37, seed=23))
    assert [experiments._chunk_depth(n) for n in spec.n] == [32, 12, 3]
    assert experiments._chunk_depth(130, 129) == 3
    default = run_experiment(spec).to_csv()
    monkeypatch.setattr(experiments, "_STACK_BYTES", 1)
    monkeypatch.setattr(experiments, "_GIL_FREE_SIZE", 0)
    assert [experiments._chunk_depth(n) for n in spec.n] == [1, 1, 1]
    assert run_experiment(spec).to_csv() == default


def test_chunk_depth_releases_the_gil_up_to_n_128():
    # the 1 MiB budget alone gives B = 4 at N = 115-125, B * N <= 500
    depth = experiments._chunk_depth
    assert [depth(n) for n in (16, 64, 114, 115, 120, 125, 126, 127, 128)] == [
        32, 16, 5, 5, 5, 5, 4, 4, 4]
    assert [depth(n) for n in (129, 160, 256, 512)] == [3, 2, 1, 1]
    assert [depth(n, n - 1) for n in (116, 126, 127, 128)] == [5, 5, 4, 4]
    for n in range(16, experiments._ONE_BLAS_THREAD_MAX_N + 1):
        for in_flight in (1, 2, 8):
            assert depth(n, n, in_flight) * n > experiments._GIL_FREE_SIZE
            assert depth(n + 1, n, in_flight) * n > experiments._GIL_FREE_SIZE
    # below N = 16 the floor would pass _MAX_CHUNK, and those sizes stay serial
    assert depth(8) == depth(8, 7) == experiments._MAX_CHUNK
    # the chunks in flight split one budget, then the floor applies: 11
    # matrices at N = 48, 8 at N = 64 and 7 at N = 72
    assert [depth(48, 48, w) for w in (1, 2, 4, 8)] == [28, 14, 11, 11]
    assert [depth(64, 64, w) for w in (1, 2, 4, 8)] == [16, 8, 8, 8]
    assert [depth(72, 72, w) for w in (1, 2, 4, 8)] == [12, 7, 7, 7]
    assert [depth(128, 127, w) for w in (1, 2, 8)] == [4, 4, 4]
    assert [depth(512, 512, w) for w in (1, 2, 8)] == [1, 1, 1]


def _chunk_spec(kind):
    # 37 samples at N = 16 and 72: serial chunks of 32 and 12 matrices (also
    # for the delta_moments minors), B * N above the size at which the pool
    # is used; pooled, the N = 72 chunks hold 7 matrices (8 minors)
    return ExperimentSpec.from_json(dict(CHUNK_SPECS[kind], kind=kind, n=[16, 72], samples=37,
                                         seed=29))


@pytest.mark.parametrize("kind", sorted(CHUNK_SPECS))
def test_csv_bytes_do_not_depend_on_workers(kind):
    # pooled chunks share one stack budget, so the chunk boundaries move with
    # the worker count: 28, 14, 11 and 11 matrices at N = 48 for 1, 2, 4 and
    # 8 workers, 16, 8, 8 and 8 at N = 64 (see
    # test_chunk_depth_releases_the_gil_up_to_n_128)
    spec = ExperimentSpec.from_json(dict(CHUNK_SPECS[kind], kind=kind, n=[16, 48, 64, 72],
                                         samples=37, seed=29))
    serial = run_experiment(spec, workers=1).to_csv()
    assert run_experiment(spec, workers=2).to_csv() == serial
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (4, 8):
            assert run_experiment(spec, workers=workers).to_csv() == serial
    finally:
        sys.setswitchinterval(interval)


def _recording_eigvalsh(calls, fail_at=None):
    """``eigvalsh`` that records (n, thread, BLAS threads, matrices) per call
    and raises NumericError on call number ``fail_at``."""
    found = eigensolver._bundled()
    lock = threading.Lock()

    def wrapped(stack):
        with lock:
            calls.append((stack.n, threading.get_ident(), found[0]() if found else None,
                          stack.batch_shape[0]))
            count = len(calls)
        if count == fail_at:
            raise NumericError("synthetic failure")
        return eigvalsh(stack)

    return wrapped


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count getter, with the count set to 2 for the test
    (so that a count left at 1 shows) and the original restored after."""
    found = eigensolver._bundled()
    if found is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    get, put, _ = found
    original = get()
    put(2)
    try:
        yield get
    finally:
        put(original)


def test_pool_runs_small_sizes_on_one_blas_thread(monkeypatch, blas_threads):
    before = blas_threads()
    calls: list = []
    monkeypatch.setattr(experiments, "eigvalsh", _recording_eigvalsh(calls))
    # N = 72 is pooled on one BLAS thread, 2 chunks of 7 in flight; N = 160
    # keeps OpenBLAS's threads, serial chunks of 2
    spec = ExperimentSpec.from_json(dict(CHUNK_SPECS["dos"], kind="dos", n=[72, 160], samples=37,
                                         seed=3))
    run_experiment(spec, workers=2)
    assert blas_threads() == before
    small = [c for c in calls if c[0] == 72]
    large = [c for c in calls if c[0] == 160]
    assert len(small) == 6 and len(large) == 19
    assert {c[2] for c in small} == {1}
    assert any(c[1] != threading.get_ident() for c in small)
    assert {c[2] for c in large} == {before}
    assert {c[1] for c in large} == {threading.get_ident()}


@pytest.mark.parametrize("kind, n", [("dos", 120), ("delta_moments", 121)])
def test_pool_runs_n_120_chunks_off_the_calling_thread(kind, n, monkeypatch, blas_threads):
    calls: list = []
    monkeypatch.setattr(experiments, "eigvalsh", _recording_eigvalsh(calls))
    spec = ExperimentSpec.from_json(dict(CHUNK_SPECS[kind], kind=kind, n=[n], samples=20, seed=5,
                                         energy=[0.0]))
    serial = run_experiment(spec, workers=1).to_csv()
    calls.clear()
    assert run_experiment(spec, workers=2).to_csv() == serial
    assert len(calls) == 4  # chunks of 5 matrices of size 120
    assert {c[0] for c in calls} == {120}
    assert {c[2] for c in calls} == {1}
    assert threading.get_ident() not in {c[1] for c in calls}


@pytest.mark.parametrize("kind, n, pooled", [
    ("dos", 15, False), ("dos", 16, True),
    # delta_moments diagonalises minors of n - 1 rows
    ("delta_moments", 16, False), ("delta_moments", 17, True),
])
def test_pool_starts_at_16_rows(kind, n, pooled, monkeypatch, blas_threads):
    calls: list = []
    monkeypatch.setattr(experiments, "eigvalsh", _recording_eigvalsh(calls))
    spec = ExperimentSpec.from_json(dict(CHUNK_SPECS[kind], kind=kind, n=[n], samples=64, seed=5,
                                         energy=[0.0]))
    run_experiment(spec, workers=2)
    assert len(calls) == 2  # chunks of 32
    assert {c[2] for c in calls} == {1}
    assert {c[1] == threading.get_ident() for c in calls} == {not pooled}


def test_blas_threads_restored_when_a_chunk_fails(monkeypatch, blas_threads):
    before, threads = blas_threads(), threading.active_count()
    calls: list = []
    monkeypatch.setattr(experiments, "eigvalsh", _recording_eigvalsh(calls, fail_at=3))
    with pytest.raises(NumericError, match="synthetic failure"):
        run_experiment(_chunk_spec("wegner"), workers=2)
    assert blas_threads() == before
    assert threading.active_count() == threads  # the pool was shut down


def test_serial_without_blas_thread_control(monkeypatch):
    spec = _chunk_spec("im_stieltjes")
    pooled = run_experiment(spec, workers=2).to_csv()
    calls: list = []
    monkeypatch.setattr(eigensolver, "_bundled", lambda: None)
    monkeypatch.setattr(experiments, "eigvalsh", _recording_eigvalsh(calls))
    assert run_experiment(spec, workers=2).to_csv() == pooled
    assert {c[1] for c in calls} == {threading.get_ident()}


def test_failed_chunk_cancels_queued_chunks(monkeypatch, blas_threads):
    before, threads = blas_threads(), threading.active_count()
    # 28 chunks of 7 matrices at N = 72, all pooled, 2 in flight
    spec = ExperimentSpec.from_json(dict(CHUNK_SPECS["dos"], kind="dos", n=[72], samples=192,
                                         seed=31))
    chunks = -(-spec.samples // experiments._chunk_depth(72, 72, 2))
    assert chunks >= 8
    calls: list = []
    monkeypatch.setattr(experiments, "eigvalsh", _recording_eigvalsh(calls, fail_at=3))
    with pytest.raises(NumericError, match="synthetic failure"):
        run_experiment(spec, workers=2)
    assert len(calls) < chunks
    assert blas_threads() == before
    assert threading.active_count() == threads


@pytest.mark.parametrize("kind, n, samples, depths", [
    # grid-n64's size: 2 chunks of 8 in flight instead of 16 each
    ("dos", 64, 40, {1: [16, 16, 8], 2: [8] * 5, 8: [8] * 5}),
    # minor-mix-n128's minors keep the GIL-free floor of 4
    ("delta_moments", 128, 10, {1: [4, 4, 2] * 2, 2: [4, 4, 2] * 2, 8: [4, 4, 2] * 2}),
    # spacing-n512's size runs serially, one matrix per chunk
    ("spacing", 512, 3, {1: [1] * 3, 2: [1] * 3, 8: [1] * 3}),
])
def test_chunk_sizes_handed_to_lapack(kind, n, samples, depths, monkeypatch, blas_threads):
    calls: list = []
    monkeypatch.setattr(experiments, "eigvalsh", _recording_eigvalsh(calls))
    spec = ExperimentSpec.from_json(dict(CHUNK_SPECS[kind], kind=kind, n=[n], samples=samples,
                                         seed=11))
    for workers, expected in depths.items():
        calls.clear()
        run_experiment(spec, workers=workers)
        assert sorted(c[3] for c in calls) == sorted(expected), workers


def test_pooled_dos_peaks_no_higher_than_serial(blas_threads):
    # grid-n64's dos spec: two pooled chunks of 8 hold no more than one
    # serial chunk of 16, where each used to hold as much as the serial one
    spec = ExperimentSpec.from_json(dict(
        kind="dos", n=[64], samples=64, seed=42,
        energy=[round(-1.4 + 0.2 * k, 10) for k in range(15)],
        eta=[{"over_n": k} for k in (0.1, 1.0, 2.0)]))
    run_experiment(spec, workers=2)  # warm-up
    peaks = {}
    for workers in (1, 2):
        tracemalloc.start()
        try:
            run_experiment(spec, workers=workers)
            peaks[workers] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2] <= peaks[1] + 512 * 1024, peaks


def test_pool_runs_whole_chunks_off_the_calling_thread(monkeypatch, blas_threads):
    spec = _chunk_spec("dos")
    serial = run_experiment(spec, workers=1).to_csv()
    calls: list = []
    stat_threads: list = []
    density = experiments._density

    def recording_density(mu, E, eta):
        stat_threads.append((mu.shape[1], threading.get_ident()))
        return density(mu, E, eta)

    monkeypatch.setattr(experiments, "eigvalsh", _recording_eigvalsh(calls))
    monkeypatch.setattr(experiments, "_density", recording_density)
    assert run_experiment(spec, workers=2).to_csv() == serial
    main = threading.get_ident()
    # both sizes are pooled: N = 16 in 2 chunks of up to 32, N = 72 in 6 of 7
    assert sorted(c[0] for c in calls) == [16] * 2 + [72] * 6
    assert sorted(n for n, _ in stat_threads) == [16] * 2 + [72] * 6
    assert main not in {c[1] for c in calls}
    assert main not in {t for _, t in stat_threads}


def test_observables_are_called_through_module_names_once_per_chunk(monkeypatch):
    # perfbench's tracer wraps these names in the experiments module
    calls: dict = {}
    lock = threading.Lock()
    for name in ("counting", "good_event", "select_indices"):
        def recording(*args, _name=name, _call=getattr(experiments, name)):
            with lock:
                calls[_name] = calls.get(_name, 0) + 1
            return _call(*args)

        monkeypatch.setattr(experiments, name, recording)
    # one eigvalsh call per chunk; the chunk depth depends on whether the
    # build lets the chunks be pooled
    chunks: list = []
    monkeypatch.setattr(experiments, "eigvalsh", _recording_eigvalsh(chunks))
    for kind in ("dos", "wegner"):
        calls.clear()
        chunks.clear()
        run_experiment(_chunk_spec(kind), workers=2)
        assert calls == {"counting": len(chunks)} and len(chunks) >= 6
    calls.clear()
    chunks.clear()
    # delta_moments samples each of its 2 energies in cells of its own
    run_experiment(_chunk_spec("delta_moments"), workers=2)
    assert calls == {"good_event": len(chunks), "select_indices": len(chunks)}
    assert len(chunks) >= 2 * 6


def _delta_moments_sample_stat(lam, n, E, eps, orders, deltas, part2_order):
    """Per-sample delta_moments values from single-spectrum calls."""
    dist = n * np.abs(lam - E)
    omega = good_event(lam, E, eps, n)
    delta_span = select_indices(lam, E, eps, n).delta if omega else 0.0
    vals = [delta_span**k if omega else 0.0 for k in orders]
    for d in deltas:
        cnt = float(np.sum(dist <= d))
        vals.append((delta_span**part2_order) * cnt * cnt if omega else 0.0)
        vals.append(1.0 if dist.min() <= d else 0.0)
    return vals


@pytest.mark.parametrize("part2_order", [0, 1, 2, 3])
def test_delta_moments_equal_a_per_sample_loop(part2_order):
    # moment orders >= 3 catch a vectorised power that rounds unlike float ** int
    orders, deltas, eps = [0, 1, 2, 3, 5], [0.5, 0.1, 2.0], 0.5
    energy = [0.0, 0.8, -1.2]
    spec = ExperimentSpec(
        kind="delta_moments", n=[9, 24, 40], samples=30, energy=energy, seed=37,
        extra={"eps": eps, "moment_orders": orders, "deltas": deltas,
               "part2_order": part2_order},
    )
    got = [(row.mean, row.stderr) for row in run_experiment(spec, workers=1).rows]
    expected = []
    for ci, n in enumerate(spec.n):
        for ei, E in enumerate(energy):
            cell = ci * len(energy) + ei
            streams = range(cell * spec.samples, (cell + 1) * spec.samples)
            seeds = [SeedSpec(spec.seed, i) for i in streams]
            spectra = eigvalsh(_StreamStack(n, *spec.dist, seeds, True))
            table = [_delta_moments_sample_stat(lam, n, E, eps, orders, deltas, part2_order)
                     for lam in spectra]
            expected.extend(_mean_stderr(column) for column in zip(*table))
    assert got == expected


@pytest.mark.parametrize("drop_row", [False, True])
def test_only_the_lapack_input_is_alive_when_lapack_runs(monkeypatch, drop_row):
    # the chunk is drawn straight into LAPACK's input: no stored stack or
    # minor is built, and the piece buffer is gone before LAPACK runs
    lapack = eigensolver._lapack_eigvalsh
    alive: list = []

    def checked(a):
        alive.append(tracemalloc.get_traced_memory()[0] - before - a.nbytes)
        return lapack(a)

    streams = _StreamStack(128, gaussian_off(), gaussian_diag(), [SeedSpec(7, i) for i in range(4)], drop_row)
    eigvalsh(streams)  # warm-up
    monkeypatch.setattr(eigensolver, "_lapack_eigvalsh", checked)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mu = eigvalsh(streams)
    finally:
        tracemalloc.stop()
    assert mu.shape == (4, 127 if drop_row else 128)
    assert len(alive) == 1 and alive[0] <= 16 * 1024


# -- serialization -------------------------------------------------------------------


def test_csv_round_trip_exact():
    res = run_experiment(_dos_spec(samples=16), workers=1)
    text = res.to_csv()
    assert text.splitlines()[0] == CSV_HEADER
    rows = rows_from_csv(text)
    assert len(rows) == len(res.rows)
    for got, want in zip(rows, res.rows):
        assert got.n == want.n
        assert got.energy == want.energy
        assert got.eta == want.eta
        assert got.mean == want.mean
        assert got.stderr == want.stderr or (math.isnan(got.stderr) and math.isnan(want.stderr))
        assert got.samples == want.samples
        assert got.reference == want.reference or (
            math.isnan(got.reference) and math.isnan(want.reference)
        )
        assert got.ratio == want.ratio


def test_csv_round_trip_with_nan_fields():
    spec = ExperimentSpec(kind="dos", n=16, samples=1, energy=0.0, eta=[1.0], seed=13)
    res = run_experiment(spec, workers=1)
    rows = rows_from_csv(res.to_csv())
    assert math.isnan(rows[0].stderr)


def test_rows_from_csv_validation():
    with pytest.raises(ConfigurationError):
        rows_from_csv("who,what\n1,2\n")
    for row in ("1,2,3", "8,0,1,1,1,2,1,1,1", "x,0,1,1,1,1,1,1", "8,0,1,1,1,2.5,1,1", "8,0,y,1,1,2,1,1",
                # cells int and float accept but to_csv never writes
                "1_6,0.0,1.0,1.0,1.0,2,1.0,1.0", " 8,0.0,1.0,1.0,1.0,2,1.0,1.0",
                "8, 0.5,1.0,1.0,1.0,2,1.0,1.0", "8,0.0,1.0,1.0,1.0,2,1.0,infinity",
                "+1,0.0,1.0,1.0,1.0,2,1.0,1.0", "8,1e0,1.0,1.0,1.0,2,1.0,1.0"):
        with pytest.raises(ConfigurationError, match="malformed CSV row"):
            rows_from_csv(CSV_HEADER + "\n" + row + "\n")


def test_csv_columns_are_the_result_row_fields():
    names = [f.name for f in dataclasses.fields(ResultRow) if f.name != "extras"]
    assert CSV_HEADER == ",".join(names)
    assert CSV_HEADER == "n,energy,eta,mean,stderr,samples,reference,ratio"
    row = ResultRow(8, 0.0, 0.25, 1.0 / 3.0, float("nan"), 16, 0.5, 2.0 / 3.0, {"x": 1})
    text = ExperimentResult(None, [row], 0.0).to_csv()
    assert text == CSV_HEADER + "\n8,0.0,0.25,0.3333333333333333,nan,16,0.5,0.6666666666666666\n"
    (back,) = rows_from_csv(text)
    assert (back.n, back.samples) == (8, 16) and type(back.n) is int and type(back.eta) is float


@pytest.mark.parametrize("spec, null", [
    (dict(kind="dos", n=8, samples=1, eta=[0.5]), "stderr"),
    (dict(kind="wegner", n=24, samples=4, eta=[{"over_n": 1}, {"over_n": 0.01}]), "reference"),
    # a window too narrow to hold an eigenvalue leaves the pooled extras NaN
    (dict(kind="spacing", n=8, samples=1, extra={"window": [0.0, 1e-9]}), "ks_distance"),
], ids=["dos-one-sample", "wegner", "spacing-empty"])
def test_result_json_is_strict(spec, null):
    # NaN and infinities are written as null, in the row extras too
    res = run_experiment(ExperimentSpec(energy=0.0, seed=14, **spec), workers=1)
    text = json.dumps(res.to_json(), allow_nan=False)
    obj = json.loads(text, parse_constant=lambda c: pytest.fail(f"bare {c} in JSON"))
    assert any(row[null] is None for row in obj["rows"])
    for row, got in zip(res.rows, obj["rows"]):
        for key, value in row.to_json().items():
            if isinstance(value, float) and not math.isfinite(value):
                assert got[key] is None
    # the CSV keeps its NaN fields
    assert "nan" in res.to_csv()


def test_result_json_shape():
    res = run_experiment(_dos_spec(samples=4), workers=1)
    obj = res.to_json()
    assert set(obj) == {"spec", "rows", "wall_time_s", "version", "warnings"}
    assert obj["spec"]["kind"] == "dos"
    assert len(obj["rows"]) == 2
    first = obj["rows"][0]
    for key in ("n", "energy", "eta", "mean", "stderr", "samples", "reference", "ratio"):
        assert key in first
