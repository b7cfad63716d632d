"""Pinned CSV and JSON bytes for every experiment kind at small budgets, and
pinned stdout of ``wignerlab check`` and two ``wignerlab diagnostics`` runs.

Each ``SPECS`` entry has more samples than one sampling chunk holds (at
most 32), so chunk boundaries are crossed.  The CSV does not show ``extras``
or ``warnings``; the JSON record does, so its digests (without the wall time)
also cover ``EDGES``, specs that take the rarer paths: a NaN stderr, the
sub-microscopic warning, an empty spacing window and ``delta_moments`` rows
of deltas only.  The two commands sample single matrices and their minors
outside the experiment chunks: ``check`` through ``sample_gue``, ``minor``,
``eigh`` and ``eigvalsh``, ``diagnostics`` through ``sample_wigner`` and
``minor`` with Gaussian and mixture laws.  The SHA-256
of each output is pinned per build:
``eigvalsh`` bytes depend on numpy, the LAPACK build, OpenBLAS's run-time
kernel and its thread count, so the digests are keyed by
``perfbench/environment.build_key`` and the test skips on any other build.

To pin a new build, print the digests of this one with
``PYTHONPATH=src python tests/test_golden.py`` and add them to ``GOLDEN``,
``JSON`` and ``COMMANDS``.  The same command then prints, for each
benchmark workload, its seed-42 CSV digest, computed as
``perfbench/child.py`` computes it, and whether it matches
``perfbench/digests.json`` for this build: the benchmark counts a mismatch
there as a failed run, and no test here checks it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

from wignerlab import ExperimentSpec, run_experiment
from wignerlab.cli import main

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import environment  # noqa: E402

SAMPLES = 40
MIXTURE = {"kind": "gaussian_mixture", "params": [0.5, -1.0, 0.5, 0.5, 1.0, 0.5]}

SPECS = {
    "dos": dict(
        n=[24, 40], energy=[0.0, 0.7],
        eta=[0.3, {"over_n": 1.0}, {"over_n32": 0.5}, {"over_n": 0.02}],
    ),
    "im_stieltjes": dict(
        n=[24, 40], energy=[0.0, -1.1],
        eta=[{"over_n": 0.1}, {"over_n": 2.0}, {"over_n": 0.01}],
    ),
    "wegner": dict(
        n=[32], energy=[0.0, 0.5], eta=[0.5, {"over_n": 1.0}, {"over_n": 0.1}, {"over_n": 0.01}],
    ),
    "derivative": dict(
        n=[24, 48], energy=[0.0, 1.0], eta=[{"over_n": 0.5}, {"over_n": 0.01}],
        extra={"delta_e": {"over_n": 0.25}},
    ),
    "scale_sweep": dict(
        n=[16, 32], energy=[0.0, 0.4],
        eta=[0.5, {"over_n": 2.0}, {"over_n32": 1.0}, {"over_n": 0.02}],
        dist={"off": {"kind": "smoothed_uniform", "params": [0.3], "role": "off_diagonal"},
              "diag": {"kind": "smoothed_uniform", "params": [0.3], "role": "diagonal"}},
    ),
    "delta_moments": dict(
        n=[32], energy=[0.0, 0.8],
        dist={"off": dict(MIXTURE, role="off_diagonal"), "diag": dict(MIXTURE, role="diagonal")},
        extra={"eps": 0.5, "moment_orders": [0, 1, 2], "deltas": [0.5, 0.25], "part2_order": 1},
    ),
    "spacing": dict(n=[48, 64]),
}

GOLDEN = {
    "numpy 2.4.6 | scipy-openblas 0.3.31.188.0 | OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH "
    "NO_AFFINITY SkylakeX MAX_THREADS=64 | threads 2": {
        "delta_moments": "48d1ec2897112a631589ac13fc89dfcd906275e7706210f2ec4dda8afa3bd4ca",
        "derivative": "cdc7a97f1ffd83309e4e6ce183e00ff4a0e69336eeef7f1fcc8ada76c86100d1",
        "dos": "c1c62c4868ec172c887d2aa6ca27a2fdba842426c2f9e17ced2442145d021016",
        "im_stieltjes": "8c511386bbdbee7ab6271a830e6fc2c42493a74502d19558ac3c98f2894c2d36",
        "scale_sweep": "fb86e5b8a372cf259f7f5425442f3b26d00aec7767de828780ef7fe585da33b0",
        "spacing": "30a2f0249adf4014935041f07169e2e46562ca2cd3995dba7121492b7073625e",
        "wegner": "4785f2c8157a34d572a7ade89ce7d5e8a74f08d71f62f64703f69faa0b9ee181",
    },
}

EDGES = {
    "dos one sample": dict(kind="dos", n=[12, 20], samples=1, energy=[0.2], eta=[0.5]),
    "im_stieltjes sub-microscopic": dict(
        kind="im_stieltjes", n=[20], samples=3, energy=[0.3], eta=[{"over_n": 0.001}],
    ),
    "spacing n=1,3": dict(kind="spacing", n=[1, 3], samples=3),
    "delta_moments deltas only": dict(
        kind="delta_moments", n=[16, 24], samples=5, energy=[0.0, 0.4],
        extra={"moment_orders": [], "deltas": [0.5, 0.1]},
    ),
    # above 128 rows LAPACK runs in place: two serial chunks of N = 160, and
    # N = 129 minors of a mixture law
    "spacing n=160": dict(kind="spacing", n=[160], samples=3),
    "delta_moments n=130": dict(
        kind="delta_moments", n=[130], samples=4, energy=[0.0],
        dist={"off": dict(MIXTURE, role="off_diagonal"), "diag": dict(MIXTURE, role="diagonal")},
    ),
}

JSON = {
    "numpy 2.4.6 | scipy-openblas 0.3.31.188.0 | OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH "
    "NO_AFFINITY SkylakeX MAX_THREADS=64 | threads 2": {
        "delta_moments": "e73c842cf2bd93a1e3663467a9d10f7115f9c50d17473bde71677cafd4b50dfa",
        "delta_moments deltas only": "9c678a68caca31c15f623bc87b11ca8da2f3bdd7a1708b7ced5d55624126969d",
        "delta_moments n=130": "ddcc8be42cff457a71e164029f2443d1a4c09d970eb72ab8fc0509ed9f96d502",
        "derivative": "e4bf5193f41784be94f247748d5ccf4b482cbaae9620b6ec33a6af9950e743f8",
        "dos": "80f7bb4360423ed4b2ac86b305711d717ed456940dcc519a4ef7c9feacdf7b6e",
        "dos one sample": "294586d9764e6f1525889a2d645a40be28a96d1e28335b3920724af92cbee85a",
        "im_stieltjes": "6f299adc03467a3d2230f94a4a37c419e677d8802e01e67c16838c292da5650f",
        "im_stieltjes sub-microscopic": "66858fa2128fb624b1e279ffa8bb82916e46f25beb7018dd2557d350ac8e7da3",
        "scale_sweep": "dbcb47d0bb1e2fb01489f0fbc139d4237db469d67c15ce0007971231815cb6df",
        "spacing": "a7c99e85004e9e7d5b0c1fca7708876925d6fe526e103302acde2b8f0bfe275c",
        "spacing n=1,3": "7808a006971487dcd38be6f09333aafcadfc149c17c1ef5334894a5dfefbedfa",
        "spacing n=160": "16d5bbb34e23fe09b77400e06ece3991476064f7c41064007699fa2b82ea2f3f",
        "wegner": "0b89bcfe07645fecd52a29a343119c9adc680e88eeadfb728c75ac992b8a8bf0",
    },
}

ARGV = {
    "check": ["check"],
    "diagnostics n=64": ["diagnostics", "--n", "64"],
    "diagnostics n=40 mixture": ["diagnostics", "--n", "40", "--j", "7", "--energy", "0.3",
                                 "--dist", "gaussian_mixture:0.5,-1,0.5,0.5,1,0.5"],
}

COMMANDS = {
    "numpy 2.4.6 | scipy-openblas 0.3.31.188.0 | OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH "
    "NO_AFFINITY SkylakeX MAX_THREADS=64 | threads 2": {
        "check": "690022bf768fb0621ce7d5a7d9566bd2c4e1258b490ae16064f8e2c84af9ab42",
        "diagnostics n=40 mixture": "041630aa5d531d17118e1997937097b363584e81ef61bb9e5013ce7276aae4f2",
        "diagnostics n=64": "b440a593abe60d305399c590c2d7713a4833b4d44a72ae292a1fba18a7d20284",
    },
}


def result(name: str):
    """The result of a ``SPECS`` kind or an ``EDGES`` spec."""
    spec = EDGES[name] if name in EDGES else dict(SPECS[name], kind=name, samples=SAMPLES, seed=11)
    return run_experiment(ExperimentSpec.from_json(spec))


def csv_digest(kind: str) -> str:
    return hashlib.sha256(result(kind).to_csv().encode()).hexdigest()


def json_digest(res) -> str:
    record = {k: v for k, v in res.to_json().items() if k != "wall_time_s"}
    return hashlib.sha256(json.dumps(record, sort_keys=True, allow_nan=False).encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_csv_bytes_match_pinned_digest(kind):
    key = environment.build_key(environment.record())
    if key not in GOLDEN:
        pytest.skip(f"no digests pinned for build {key!r}")
    assert csv_digest(kind) == GOLDEN[key][kind]


@pytest.mark.parametrize("name", sorted(SPECS) + sorted(EDGES))
def test_json_bytes_match_pinned_digest(name):
    res = result(name)
    # a dict shared by two rows would carry an edit of one row into the other
    assert len({id(row.extras) for row in res.rows}) == len(res.rows)
    key = environment.build_key(environment.record())
    if key not in JSON:
        pytest.skip(f"no digests pinned for build {key!r}")
    assert json_digest(res) == JSON[key][name]


def stdout_digest(name: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(ARGV[name]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(ARGV))
def test_command_stdout_matches_pinned_digest(name):
    key = environment.build_key(environment.record())
    if key not in COMMANDS:
        pytest.skip(f"no digests pinned for build {key!r}")
    assert stdout_digest(name) == COMMANDS[key][name]


if __name__ == "__main__":
    key = environment.build_key(environment.record())
    print(json.dumps({key: {kind: csv_digest(kind) for kind in sorted(SPECS)}}, indent=1))
    names = sorted(SPECS) + sorted(EDGES)
    print(json.dumps({key: {name: json_digest(result(name)) for name in names}}, indent=1))
    print(json.dumps({key: {name: stdout_digest(name) for name in sorted(ARGV)}}, indent=1))
    import child
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        digest = child.csv_digest(workload.run(workloads.PINNED_SEED))
        print(f"{name}: {digest} {child.digest_check(name, digest)}")
