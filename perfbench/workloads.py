"""Workload definitions for the wignerlab benchmark.

Every workload runs through the public API at default settings: no
``--workers``, ``WIGNERLAB_THREADS`` or ``OPENBLAS_NUM_THREADS`` is set,
because the thread policy is part of what is measured.  A run of a workload
at master seed ``s`` evaluates its specs with ``seed=s`` and returns the CSV
bytes of each spec.

Why each workload exists, and what it should not move
------------------------------------------------------

``grid-n64``
    ``wignerlab dos`` then ``wignerlab stieltjes`` (through ``cli.main``) at
    N=64, over 15 bulk energies in [-1.4, 1.4] and eta in {0.1/N, 1/N, 2/N},
    Gaussian entries.  In the traced run ``eigvalsh`` is 25% of the busy
    thread time; the rest is outside LAPACK: the stream setup and draw 30%,
    ``counting`` (45 calls per ``dos`` matrix) 18%, ``dense`` 13%, and the
    loop with the inline Poisson sums of ``stieltjes`` 9%.  That work holds
    the GIL, so batching, vectorised observables and worker-pool changes show
    here.  A faster ``eigvalsh`` kernel should move it only by its 25% share.

``spacing-n512``
    ``spacing`` at N=512 with 64 samples (two chunks of the worker pool).
    ``eigvalsh`` is 88% of the traced busy time and the observable 0.1%, so
    this isolates LAPACK and the interaction between BLAS threads and the
    worker pool.  An observable-only or draw-only change should not move it;
    a change to the thread policy or to matrix assembly (``dense`` is 16 N^2
    bytes here) should.  It runs through ``run_experiment`` because its
    output check needs the pooled Kolmogorov distance, which only the result
    object carries next to the CSV.

``minor-mix-n128``
    ``delta_moments`` at N=128, E in {0, 0.8}, with a two-component
    ``gaussian_mixture`` entry law, through ``run_experiment`` (the kind has
    no CLI subcommand).  It takes the ``minor()`` path, which calls ``dense``
    twice per matrix (dense, pack, dense).  In the traced run the mixture
    draw (``rng.choice`` plus a gather) is 24% of the busy thread time,
    ``eigvalsh`` 27% and ``select_indices`` 22%.  It is the only workload that
    runs ``diagnostics``.  A change to the Gaussian-only
    draw path or to ``counting`` should not move it.

Models behind the two computed per-layer metrics
------------------------------------------------

``eigensolver.eigvalsh.gflops``
    Eigenvalues of a complex Hermitian N x N matrix cost the reduction to
    real tridiagonal form, (16/3) N^3 real flops (4/3 N^3 complex
    multiply-adds at 4 real flops each), plus an O(N^2) tridiagonal solve that
    the model ignores.  The metric is the modelled flops over the summed
    self time of ``eigvalsh`` spans, i.e. a per-thread rate.

``ensembles.dense.bytes_per_matrix``
    Each ``HermitianMatrix.dense()`` call materialises one complex128 N x N
    array, 16 N^2 bytes.  The metric sums 16 n^2 over the calls (n is the
    size of the matrix the call unpacks) and divides by the matrices sampled.
    It is computed from array sizes, not measured, and ignores temporaries
    and cache misses.

The shares above come from ``--trace 1`` runs at default settings on a
2-vCPU x86-64 VM (OpenBLAS SkylakeX kernel, two BLAS threads); they include
the tracer's own overhead of 3-7%.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

from wignerlab import DistributionSpec, ExperimentSpec, ResultRow
from wignerlab import cli, experiments

# seed at which ``digests.json`` pins the CSV bytes
PINNED_SEED = 42

GRID_N = 64
GRID_ENERGIES = tuple(round(-1.4 + 0.2 * k, 10) for k in range(15))
GRID_ETA_OVER_N = (0.1, 1.0, 2.0)

MIXTURE = (0.5, -1.0, 0.5, 0.5, 1.0, 0.5)  # (weight, mean, scale) per component
MINOR_ENERGIES = (0.0, 0.8)
MINOR_DELTAS = (0.5, 0.25)

_COMMAND_BY_KIND = {"dos": "dos", "im_stieltjes": "stieltjes"}


@dataclass(frozen=True)
class Output:
    """One spec's result: its kind, CSV bytes and rows."""

    kind: str
    csv: str
    rows: list


@dataclass(frozen=True)
class Workload:
    name: str
    samples: int  # samples per parameter cell in a measured run
    warm_samples: int  # budget of the untimed warm-up run
    specs: Callable[[int, int], list]  # (master seed, samples) -> ExperimentSpec list
    via_cli: bool
    check: Callable[[list], list]  # outputs -> list of problems, empty if fine

    def matrices(self) -> int:
        """Matrices sampled and diagonalised by one measured run."""
        return sum(_matrices(spec) for spec in self.specs(0, self.samples))

    def run(self, seed: int, samples: Optional[int] = None, workers: Optional[int] = None) -> list:
        """Evaluate every spec of the workload at master seed ``seed``."""
        outputs = []
        for spec in self.specs(seed, samples or self.samples):
            if self.via_cli:
                text = _run_cli(spec, workers)
                outputs.append(Output(spec.kind, text, experiments.rows_from_csv(text)))
            else:
                result = experiments.run_experiment(spec, workers=workers)
                outputs.append(Output(spec.kind, result.to_csv(), result.rows))
        return outputs


def _matrices(spec: ExperimentSpec) -> int:
    cells = len(spec.n) * (len(spec.energy) if spec.kind == "delta_moments" else 1)
    return cells * spec.samples


def _run_cli(spec: ExperimentSpec, workers: Optional[int]) -> str:
    argv = [_COMMAND_BY_KIND[spec.kind], "--spec", json.dumps(spec.to_json())]
    if workers is not None:
        argv += ["--workers", str(workers)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"wignerlab {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


# -- specs -------------------------------------------------------------------


def _grid_specs(seed: int, samples: int) -> list:
    common = dict(
        n=[GRID_N],
        samples=samples,
        energy=GRID_ENERGIES,
        eta=[{"over_n": k} for k in GRID_ETA_OVER_N],
        seed=seed,
    )
    return [ExperimentSpec(kind="dos", **common), ExperimentSpec(kind="im_stieltjes", **common)]


def _spacing_specs(seed: int, samples: int) -> list:
    return [ExperimentSpec(kind="spacing", n=[512], samples=samples, seed=seed)]


def _minor_specs(seed: int, samples: int) -> list:
    dist = (
        DistributionSpec("gaussian_mixture", MIXTURE, "off_diagonal"),
        DistributionSpec("gaussian_mixture", MIXTURE, "diagonal"),
    )
    return [
        ExperimentSpec(
            kind="delta_moments",
            n=[128],
            samples=samples,
            energy=MINOR_ENERGIES,
            dist=dist,
            seed=seed,
            extra={"eps": 0.5, "moment_orders": [0, 1, 2], "deltas": list(MINOR_DELTAS)},
        )
    ]


# -- build-independent output checks -----------------------------------------
#
# Each gate sits several standard errors away from the expected value, so a
# correct program fails it with negligible probability on any seed.


def _finite_rows(outputs: list, expected: list) -> list:
    problems = []
    for out, count in zip(outputs, expected):
        if len(out.rows) != count:
            problems.append(f"{out.kind}: {len(out.rows)} rows, expected {count}")
        bad = [row for row in out.rows if not math.isfinite(row.mean)]
        if bad:
            problems.append(f"{out.kind}: non-finite mean at E={bad[0].energy}, eta={bad[0].eta}")
    return problems


def _check_grid(outputs: list) -> list:
    """Criterion 6: dos at E=0, eta=2/N is 1/pi within 10% plus 3 stderr."""
    points = len(GRID_ENERGIES) * len(GRID_ETA_OVER_N)
    problems = _finite_rows(outputs, [points, points])
    eta = 2.0 / GRID_N
    rows: list[ResultRow] = [r for r in outputs[0].rows if r.energy == 0.0 and r.eta == eta]
    if len(rows) != 1:
        return problems + ["dos: no row at E=0, eta=2/N"]
    row, ref = rows[0], 1.0 / math.pi
    if not abs(row.mean - ref) <= 0.10 * ref + 3.0 * row.stderr:
        problems.append(f"dos at E=0, eta=2/N: {row.mean} vs 1/pi (stderr {row.stderr})")
    return problems


def _check_spacing(outputs: list) -> list:
    """Criterion 10: pooled KS distance to the GUE surmise.

    The gate is 0.01 for the surmise's own bias plus 2.5/sqrt(pooled count),
    the Kolmogorov tail at probability below 1e-5.
    """
    problems = _finite_rows(outputs, [1])
    if problems:
        return problems
    extras = outputs[0].rows[0].extras
    count = extras["pooled_count"]
    gate = 0.01 + 2.5 / math.sqrt(count)
    if not extras["ks_distance"] <= gate:
        problems.append(f"spacing KS distance {extras['ks_distance']} over {count} exceeds {gate}")
    return problems


def _check_minor(outputs: list) -> list:
    """Criterion 11: P(N|lambda - E| <= delta)/delta spreads at most 2x per energy."""
    per_energy = 3 + 2 * len(MINOR_DELTAS)
    problems = _finite_rows(outputs, [per_energy * len(MINOR_ENERGIES)])
    for E in MINOR_ENERGIES:
        ratios = [
            r.ratio
            for r in outputs[0].rows
            if r.energy == E and r.extras.get("statistic") == "nearest_eigenvalue_prob"
        ]
        if len(ratios) != len(MINOR_DELTAS) or min(ratios) <= 0.0:
            problems.append(f"delta_moments at E={E}: nearest-eigenvalue ratios {ratios}")
        elif max(ratios) / min(ratios) > 2.0:
            problems.append(f"delta_moments at E={E}: ratio spread {max(ratios) / min(ratios)} > 2")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-n64", 1024, 64, _grid_specs, True, _check_grid),
        Workload("spacing-n512", 64, 4, _spacing_specs, False, _check_spacing),
        Workload("minor-mix-n128", 512, 64, _minor_specs, False, _check_minor),
    )
}


def get(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}") from None
