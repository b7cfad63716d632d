"""Pinned SVG bytes of ``render_plot`` and ``emit_plot`` on hand-built inputs.

A plot is made from Python float arithmetic and string formatting alone (no
sampling, no LAPACK), so one digest holds on every build.  The cases cover
each branch of the renderer (error bars, a log x axis, escaped text,
constant y at zero and away from it, non-finite values on a linear and a
log axis, a reference line, a palette that wraps) and of ``emit_plot`` (the
N, E and eta axes, the single-row fallback, ``statistic`` and ``series``
groups, NaN stderr and references, differing references).

To print the digests of the current code, run
``PYTHONPATH=src python tests/test_plot_digest.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from wignerlab import Series, render_plot
from wignerlab.cli import emit_plot
from wignerlab.experiments import ExperimentResult, ExperimentSpec, ResultRow

NAN = float("nan")
INF = float("inf")

RENDER = {
    "error-bars": lambda: render_plot(
        [Series("estimate", [0.0, 0.5, 1.0], [0.31, 0.30, 0.27], [0.01, 0.02, 0.015])],
        title="dos (seed 4)", x_label="E", y_label="estimate", reference=0.3183098861837907,
    ),
    "log-x": lambda: render_plot(
        [Series("s", [16.0, 128.0, 2048.0], [0.32, 0.318, 0.3183], [0.004, 0.002, 0.001]),
         Series("t", [0.001, 0.1, 10.0], [1.0, 2.0, 3.0])],
        x_label="N",
    ),
    "log-x-non-finite": lambda: render_plot(
        [Series("s", [NAN, 1.0, -INF, 100.0, 1000.0, INF], [1.0, 2.0, 3.0, NAN, 4.0, 5.0],
                [0.1, 0.2, 0.3, 0.4, NAN, 0.6])],
        x_label="N", reference=2.5,
    ),
    "escaped-text": lambda: render_plot(
        [Series("a & <b>", [1.0, 2.0], [0.5, 0.7]), Series("\"q\" > 'r'", [1.0, 2.0], [0.6, 0.4])],
        title="<title> & more", x_label="N & <n>", y_label="ρ_sc(E) ≤ 1/π",
    ),
    "constant-y-zero": lambda: render_plot([Series("zero", [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])]),
    "constant-y-nonzero": lambda: render_plot(
        [Series("c", [5.0], [-2.5])], title="one point", reference=-2.5,
    ),
    "non-finite": lambda: render_plot(
        [Series("xs", [NAN, 1.0, 2.0, INF, 3.0], [0.1, 0.2, NAN, 0.4, -INF], [0.1, INF, 0.1, 0.1, 0.1]),
         Series("errs", [1.0, 2.0, 3.0], [0.3, 0.35, 0.25], [NAN, 0.05, -INF])],
        y_label="estimate", reference=NAN,
    ),
    "reference-line": lambda: render_plot(
        [Series("estimate", [-1.5, 0.0, 1.5], [0.1, 0.32, 0.1])], reference=0.25, x_label="E",
    ),
    "palette-wraps": lambda: render_plot(
        [Series(f"s{k}", [0.0, 1.0, 2.0], [k, k + 0.5, k * 0.9], [0.1] * 3) for k in range(8)],
        title="eight series", x_label="x", y_label="y", reference=INF,
    ),
}


def _result(kind: str, rows: list, seed: int = 42) -> ExperimentResult:
    return ExperimentResult(ExperimentSpec(kind=kind, n=8, samples=2, eta=[0.5], seed=seed), rows, 0.0)


def _row(n, energy, eta, mean, stderr, reference, **extras) -> ResultRow:
    return ResultRow(n, energy, eta, mean, stderr, 2, reference, mean / reference, extras)


EMIT = {
    "n-axis-series-groups": lambda: _result("scale_sweep", [
        _row(n, 0.0, eta, 0.3 + 0.01 * k, 0.01, 1 / 3.141592653589793, series=label)
        for k, (n, eta, label) in enumerate([
            (16, 0.5, "const:0.5"), (16, 0.125, "over_n:2"), (32, 0.5, "const:0.5"), (32, 0.0625, "over_n:2"),
        ])
    ]),
    "e-axis-differing-references": lambda: _result("dos", [
        _row(8, E, 0.5, m, 0.02, ref)
        for E, m, ref in [(0.0, 0.3, 0.31), (0.5, 0.29, 0.30), (1.0, 0.26, 0.27)]
    ], seed=4),
    "eta-axis-nan-reference": lambda: _result("dos", [
        _row(8, 0.0, eta, m, 0.01, ref)
        for eta, m, ref in [(0.5, 0.3, 0.31), (0.25, 0.31, NAN), (0.125, 0.32, 0.31)]
    ]),
    "eta-axis-nan-references-differ": lambda: _result("dos", [
        _row(8, 0.0, eta, m, 0.01, ref)
        for eta, m, ref in [(0.5, 0.3, 0.31), (0.25, 0.31, 0.30), (0.125, 0.32, NAN)]
    ]),
    "single-row-fallback": lambda: _result("dos", [_row(16, 0.0, 0.5, 0.31, NAN, 0.3183)], seed=7),
    "statistic-groups-nan-stderr": lambda: _result("wegner", [
        _row(32, 0.0, eta, m, se, NAN, statistic=stat)
        for eta, stat, m, se in [
            (0.5, "count_mean", 5.0, 0.2), (0.5, "count_sq_mean", 27.0, NAN),
            (0.05, "count_mean", 0.5, 0.1), (0.05, "count_sq_mean", 0.6, 0.2),
        ]
    ]),
}


def _render_digest(case: str) -> str:
    return hashlib.sha256(RENDER[case]().encode("utf-8")).hexdigest()


def _emit_digest(case: str, tmp_path) -> str:
    path = tmp_path / f"{case}.svg"
    emit_plot(EMIT[case](), str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


RENDER_DIGESTS = {
    "constant-y-nonzero": "1aba43d2aff972ad769a11012722e07c1566bfe597e752a79f4e0866b597d0a3",
    "constant-y-zero": "252aab9d5fc370d4f945b3eadb3e56a08115d7d8cfc37dd957ef42460baceaec",
    "error-bars": "1deb76f4db7322468cba2cf2dd1abb73b0b9e262cc8ddfa64b8965c48c48a3a7",
    "escaped-text": "fc1f08d2bf9897abf2c4c5ecd1825eb0829eedc13429f562a5dd4016a53a07c1",
    "log-x": "707b88a1f20f095361464555d088c3d67d6c46b13f353ae2a01be758f48ee1a2",
    "log-x-non-finite": "61807fa2b8c73c5f3abb6ab6080a5ad9c786630df076a60456af2f0925178a4f",
    "non-finite": "f309041119301c14577edc05546f7fe8c0205f90098552dfc8bc8c5c858c1cd2",
    "palette-wraps": "002d14fba4cc1d737eaee62927bc3e06833408cd4b55470b45bbb84fc1f9555e",
    "reference-line": "07ec358ffb06693cce7dd9a36dc52152aa35452a8085c9179fd96b31890a9046",
}

EMIT_DIGESTS = {
    "e-axis-differing-references": "8df8aaf333080abfcd6ed8ebea8cd092096e12e2135526e7aa5f9c19183b63b6",
    "eta-axis-nan-reference": "7e42ba7434167d50ae106afe96456b8f287ebe783333484ff7de55985122a4fb",
    "eta-axis-nan-references-differ": "51b6c9577f13c172b435e6c8154161486a4107fe5ae254877c56f841c7a5e1c3",
    "n-axis-series-groups": "cb84799edfc330a8455220407a899a855bda58d7715c6e86b9676ca61cbc7468",
    "single-row-fallback": "d0af891778c92a1afd168662f063b9d70d6cf29a660e229be89d2a01a1eae922",
    "statistic-groups-nan-stderr": "7ab24a9719bc9492a3720f50c752667a78924d62053a6c7798d58b9bf35921fe",
}


@pytest.mark.parametrize("case", sorted(RENDER))
def test_render_plot_matches_pinned_digest(case):
    assert _render_digest(case) == RENDER_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(EMIT))
def test_emit_plot_matches_pinned_digest(case, tmp_path):
    assert _emit_digest(case, tmp_path) == EMIT_DIGESTS[case]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    print("RENDER_DIGESTS = {")
    for name in sorted(RENDER):
        print(f"    {name!r}: {_render_digest(name)!r},")
    print("}\n\nEMIT_DIGESTS = {")
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(EMIT):
            print(f"    {name!r}: {_emit_digest(name, Path(tmp))!r},")
    print("}")
