"""The benchmark's own checks, at tiny budgets.

Each workload's CSV must be byte-identical at one worker and at the default
worker count, and the tracer's wrappers must leave the CSV bytes unchanged
and restore every wrapped attribute.  A child with the serial reference's
environment must not be checked against a digest pinned at another BLAS
thread count.  The span reduction is checked on hand-made spans.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import child  # noqa: E402
import environment  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# two chunks of the worker pool, so the default worker count really splits work
TINY = 33
SEED = 5


def _csv(outputs):
    return [o.csv for o in outputs]


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def tiny_run(request):
    workload = workloads.get(request.param)
    return workload, _csv(workload.run(SEED, samples=TINY))


def test_csv_identical_at_one_and_default_workers(tiny_run):
    workload, default = tiny_run
    assert _csv(workload.run(SEED, samples=TINY, workers=1)) == default


def test_tracer_leaves_csv_bytes_unchanged(tiny_run):
    from wignerlab import cli, eigensolver, experiments, seeding

    workload, default = tiny_run
    originals = (seeding.SeedSpec.generator, experiments.eigvalsh, cli.main, cli.run_experiment)
    with tracer.Tracer() as spans:
        traced = _csv(workload.run(SEED, samples=TINY))
    assert traced == default
    names = {s[1] for s in spans.spans}
    assert {"seeding.generator", "ensembles.dense", "eigensolver.eigvalsh", tracer.RUN} <= names
    assert (seeding.SeedSpec.generator, experiments.eigvalsh, cli.main, cli.run_experiment) == originals
    assert experiments.eigvalsh is eigensolver.eigvalsh


def test_outputs_pass_their_checks(tiny_run):
    workload, _ = tiny_run
    assert workload.check(workload.run(SEED, samples=TINY)) == []


def test_serial_child_is_not_checked_against_a_default_thread_digest():
    # Pin the digest of a small spacing run under this process's build key,
    # then check the same run in a child with the serial reference's
    # environment (one worker, one BLAS thread), whose bytes may differ.
    workload = workloads.get("spacing-n512")
    digest = child.csv_digest(workload.run(SEED, samples=4))
    key = environment.build_key(environment.record())
    script = (
        "import json, sys, child, environment, workloads\n"
        "outputs = workloads.get('spacing-n512').run(int(sys.argv[1]), samples=4)\n"
        "key = environment.build_key(environment.record())\n"
        "print(json.dumps([key, child.digest_check('spacing-n512', child.csv_digest(outputs), json.loads(sys.argv[2]))]))\n"
    )
    env = dict(os.environ, **run.SERIAL_ENV)
    env["PYTHONPATH"] = os.pathsep.join([HERE, os.path.join(os.path.dirname(HERE), "src")])
    proc = subprocess.run(
        [sys.executable, "-c", script, str(SEED), json.dumps({key: {workload.name: digest}})],
        env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    serial_key, outcome = json.loads(proc.stdout.strip().splitlines()[-1])
    assert serial_key.endswith("| threads 1")
    assert outcome == ("passed" if serial_key == key else f"skipped: no digest pinned for build {serial_key!r}")


def test_summarise_splits_self_time_across_pool_threads():
    # run_experiment on thread 1 over [0, 10]; pool threads 2 and 3 each run
    # a sample_wigner span with a nested generator span, then an eigvalsh.
    spans = [
        (0, tracer.RUN, 0.0, 10.0, None, 1, 0),
        (1, "ensembles.sample_wigner", 1.0, 3.0, None, 2, 0),
        (2, "seeding.generator", 1.0, 2.0, 1, 2, 0),
        (3, "eigensolver.eigvalsh", 4.0, 8.0, None, 2, 64),
        (4, "ensembles.sample_wigner", 2.0, 6.0, None, 3, 0),
        (5, "eigensolver.eigvalsh", 6.0, 9.0, None, 3, 64),
    ]
    totals = tracer.summarise(spans)
    assert totals["ensembles.sample_wigner"]["self"] == pytest.approx(5.0)
    # pool threads busy over [1, 8] and [2, 9]; the caller for the other 2 s
    assert totals["experiments"]["busy"] == pytest.approx(7.0 + 7.0 + 2.0)
    # busy 16 s minus children 2 + 4 + 4 + 3 = 13 s
    assert totals[tracer.RUN]["self"] == pytest.approx(3.0)
    metrics, absent = tracer.layer_metrics(totals, matrices=2)
    assert metrics["experiments.concurrency"] == pytest.approx(1.6)
    assert metrics["eigensolver.lapack_share"] == pytest.approx(7.0 / 16.0)
    assert metrics["eigensolver.eigvalsh.gflops"] == pytest.approx(2 * 16 / 3 * 64**3 / 7.0 / 1e9)
    assert "cli.main" in absent and "cli.main.self_ms" not in metrics
