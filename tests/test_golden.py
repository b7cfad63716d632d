"""Pinned CSV bytes for every experiment kind at small budgets.

Each spec has more samples than one sampling chunk holds (at most 32), so
chunk boundaries are crossed.  The SHA-256 of each CSV is pinned per build:
``eigvalsh`` bytes depend on numpy, the LAPACK build, OpenBLAS's run-time
kernel and its thread count, so the digests are keyed by
``perfbench/environment.build_key`` and the test skips on any other build.

To pin a new build, print the digests of this one with
``PYTHONPATH=src python tests/test_golden.py`` and add them to ``GOLDEN``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from wignerlab import ExperimentSpec, run_experiment

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


def csv_digest(kind: str) -> str:
    spec = ExperimentSpec.from_json(dict(SPECS[kind], kind=kind, samples=SAMPLES, seed=11))
    return hashlib.sha256(run_experiment(spec).to_csv().encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_csv_bytes_match_pinned_digest(kind):
    key = environment.build_key(environment.record())
    if key not in GOLDEN:
        pytest.skip(f"no digests pinned for build {key!r}")
    assert csv_digest(kind) == GOLDEN[key][kind]


if __name__ == "__main__":
    key = environment.build_key(environment.record())
    print(json.dumps({key: {kind: csv_digest(kind) for kind in sorted(SPECS)}}, indent=1))
