"""Declarative Monte Carlo experiments over Wigner ensembles.

An :class:`ExperimentSpec` names a kind (averaged density of states,
expected Stieltjes transform, Wegner count moments, common-random-number
energy derivative, eta-schedule sweep, minor-distance moments, or unfolded
spacings), the matrix sizes, sample budget, energies, eta schedules, entry
laws, and a master seed.  :func:`run_experiment` evaluates it into an
:class:`ExperimentResult` table with one row per parameter point.

Reproducibility contract: sample ``i`` of cell ``k`` always draws from the
stream ``(master_seed, k * samples + i)``.  A cell is one size for the grid
kinds and ``spacing`` and one (size, energy) pair for ``delta_moments``,
numbered in that order over ``spec.n``.  Every per-sample statistic is
stored at its sample index, and reductions run in index order with
compensated summation.  Results are therefore bit-identical for a fixed
spec.

Samples run in chunks.  A chunk of ``B`` samples is one stack, a
:class:`~wignerlab.ensembles._StreamStack` of the chunk's own stream range:
each matrix is drawn from its own stream, straight into LAPACK's input (as
the minor without row and column 0 where the kind needs minors), and the
stack is diagonalised with one call, giving a ``(B, N)`` array of
eigenvalues.  The observables are evaluated on the whole chunk as ``(B, P,
N)`` array expressions, which keeps their temporaries small.

The chunk plan is :func:`_chunk_stats`, which pools a cell's chunks from
the pool floor (``_POOL_MIN_ROWS``) or runs them serially, and
:func:`_chunk_depth`, which sets ``B`` from the chunks in flight by two
rules: the stack budget (``_STACK_BYTES``) and, for pooled chunks only, the
GIL-free floor (``_GIL_FREE_SIZE``).  Each chunk is one task, drawn,
diagonalised and reduced to its observables in one go, so a pool thread
carries a chunk from draw to statistic.  The comments at
``_POOL_MIN_ROWS`` and ``eigensolver._ONE_BLAS_THREAD_MAX_N`` give the
measurements behind the pool's lower and upper size limits.  The bytes
depend neither on ``B`` nor on the worker count.

Serial and pooled chunks handle memory alike: each allocates its own
arrays and frees them when it is done, and with one budget for the
chunks in flight a worker does not add a whole serial chunk to the peak.
A chunk allocates the LAPACK input (``16 B N^2`` bytes), which from
``N = 129`` LAPACK diagonalises in place, and draws its streams straight
into it, one piece at a time (see :mod:`~wignerlab.ensembles`).  No second
copy of the stack, of a minor or of a raw draw is built, so a chunk's
memory peaks at the LAPACK input plus one piece (at most ``B * 128`` KiB
for Gaussian laws, a whole part of the stream for others), or, once the
piece is freed, plus ``zheevd``'s workspace (270 KB at N = 512), from the
first chunk on.  The allocator hands what one chunk freed to the next, so
a warm serial ``spacing`` cell faults 0.7, 0.3 and 1.0 pages per matrix at
N = 200, 256 and 512.

Kinds and core: ``_KINDS`` declares each kind once, with its step builder,
the spec fields of ``energy``, ``kappa`` and ``eta`` it reads, and its
``extra`` keys with their defaults.  A field the kind does not read must
keep its dataclass default, compared as ``to_json`` writes it (the spec
refuses any other value, -0.0 for 0.0 too), and an
``extra`` key it does not read is refused by :func:`_extra`.  A kind's
builder checks the whole spec, for every size, before anything is sampled
and returns the step that builds one size's rows.  :func:`run_experiment`
holds the one loop over sizes and cells: it hands each step a sampler that
samples the run's next cell, numbers it and returns its per-sample values,
so no kind numbers a cell or sees the worker count.

The grid kinds (``dos``, ``scale_sweep``, ``im_stieltjes``, ``derivative``,
``wegner``) share :func:`_grid_step`: one cell per size, a chunk statistic
over the energy-major (energy, eta) grid plus a row builder per point, one
shared by the mean kinds (:func:`_mean_kind`).  ``delta_moments`` asks for
one cell per energy and writes its rows from one table of columns;
``spacing`` pools the ragged spacings of one cell per size.  The statistics
call the stacked observables of :mod:`~wignerlab.spectral` and
:mod:`~wignerlab.diagnostics` once per chunk, through their names in this
module.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from itertools import count, repeat
from typing import Callable, NamedTuple, Optional, Sequence, get_type_hints

import numpy as np

from .diagnostics import good_event, select_indices
from .distributions import DistributionSpec, gaussian_diag, gaussian_off
from .eigensolver import _ONE_BLAS_THREAD_MAX_N, eigvalsh, one_blas_thread
# ``minor`` and ``sample_wigner`` are no longer called here, but the
# benchmark's tracer (``perfbench/tracer.py``) wraps them under these names;
# it also wraps ``HermitianMatrix.dense``, which must stay the call that
# draws a chunk
from .ensembles import _StreamStack, minor, sample_wigner  # noqa: F401
from .errors import ConfigurationError, _choice, _integer, _real
from .seeding import SeedSpec
from .spectral import F_sc, counting, im_stieltjes, rho_sc, unfolded_spacings, wigner_surmise_gue_cdf
from .version import __version__

__all__ = [
    "EtaSchedule",
    "ExperimentSpec",
    "ResultRow",
    "ExperimentResult",
    "run_experiment",
    "rows_from_csv",
    "CSV_HEADER",
    "worker_count",
]

# eta schedule kind -> (power of n it divides the coefficient by, label suffix)
_ETA_KINDS = {"const": (0, ""), "over_n": (1, "/N"), "over_n32": (1.5, "/N^1.5")}

# The stack budget: the dense (B, size, size) complex stacks that LAPACK
# gets from the chunks in flight share 1 MiB per run, size being N - 1 for
# minors.  Serially that is B = 16 at N = 64, 4 at N = 128 and 1 from
# N = 256; at two workers, B = 8 at N = 64.  With a budget per chunk, peak
# RSS grew by a whole chunk per worker (grid-n64: 40.2 MB at one worker,
# 58.5 MB at eight; 47.8 MB with one budget per run).  At N = 128, 2 and
# 4 MiB stacks ran at most a few percent faster, inside the run-to-run
# spread, but added 2.4 and 7.5 MB to a 44.6 MB peak RSS.
_STACK_BYTES = 2**20
_MAX_CHUNK = 32

# The GIL-free floor: numpy's stacked ``eigvalsh`` releases the GIL only
# when B * size exceeds this, so smaller pooled chunks would serialise on
# the GIL and the pool would only add overhead: on two cores two threads
# ran 0.8-0.9x as fast as one at N = 64, B = 7 and 1.5-2.1x at B = 8.  So a
# pooled chunk holds at least the smallest B with B * size > 500, even past
# its share of the stack budget.  The floor sets the depth at every size
# from 61 rows at two workers but 63 and 64, where both rules give B = 8
# (B = 7 at N = 72, 5 at N = 120), from 33 at four and at every pooled
# size at eight.  Raising B from 4 to 5 at N = 120 took pooled dos from
# 302 to 632 matrices/s on two cores.  A serial chunk has no other thread
# to release the GIL for and keeps to the budget; serially on two Xeon
# cores, dos at N = 120 ran 523 matrices/s at B = 4 and 538 at B = 5,
# delta_moments at N = 72 707 at 12 minors and 699 at 13 (medians of 20
# alternating runs, each inside the other's quartile spread of 9-15%).
_GIL_FREE_SIZE = 500

# The pool floor: a cell is pooled only from this many diagonalised rows
# (see :func:`_chunk_stats`); below it two threads lose to one.  Pooled
# chunks of 34-501 matrices ran dos at N = 2 and 8 at 0.5-0.7x the serial
# speed.  From 16 rows up, dos at E = 0, eta = 2/N, seed 42, one worker
# against two on two Xeon cores, median wall microseconds per matrix over
# 20 (16-18 rows) or 30 (19-23 rows) pairs of 4000-sample runs that
# alternate which runs first:
#
#       N   serial   pooled   pooled won
#      16     43.8     52.6         7/20
#      18     57.5     63.7         7/20
#      19     52.5     55.5        11/30
#      20     53.9     56.5        14/30
#      21     60.1     56.7        21/30
#      22     64.9     65.1        18/30
#      23     78.3     72.9        25/30
#
# The floor is the smallest size from which the pool was not slower (the
# two read equal at 22 rows).  ``PYTHONPATH=src python
# tests/test_experiments.py`` reruns 10 pairs of 8000 samples; single runs
# move by 10-20% with the host's load, and the crossover moves with the
# host (it once read between 24 and 32 rows).
_POOL_MIN_ROWS = 21

SUBMICRO_THRESHOLD = 0.05


@dataclass(frozen=True)
class EtaSchedule:
    """Resolution scale as a function of matrix size.

    ``const`` resolves to ``coef``; ``over_n`` to ``coef / n``;
    ``over_n32`` to ``coef / n**1.5``.
    """

    kind: str
    coef: float

    def __post_init__(self) -> None:
        _choice(self.kind, _ETA_KINDS, "eta schedule kind")
        object.__setattr__(self, "coef", _real(self.coef, "eta schedule coefficient"))
        if not 0.0 < self.coef < math.inf:
            raise ConfigurationError(f"eta schedule coefficient must be positive and finite, got {self.coef}")

    def resolve(self, n: int) -> float:
        # n**0 == 1 and x / 1 == x exactly, so ``const`` resolves to coef
        return self.coef / n ** _ETA_KINDS[self.kind][0]

    def label(self) -> str:
        return f"{self.coef:g}{_ETA_KINDS[self.kind][1]}"

    def to_json(self) -> dict:
        return {"kind": self.kind, "coef": self.coef}

    @classmethod
    def from_json(cls, obj) -> "EtaSchedule":
        if isinstance(obj, EtaSchedule):
            return obj
        if not isinstance(obj, dict):
            return cls("const", obj)
        if set(obj) == {"kind", "coef"}:
            return cls(obj["kind"], obj["coef"])
        for kind in _ETA_KINDS:
            if kind in obj and len(obj) == 1:
                return cls(kind, obj[kind])
        raise ConfigurationError(f"cannot parse eta schedule from {obj!r}")


def _items(value) -> list:
    """The items of a list, tuple or array; a lone value is one item."""
    return list(value) if isinstance(value, (list, tuple, np.ndarray)) else [value]


def _as_tuple(value, caster, what: str) -> tuple:
    items = _items(value)
    if not items:
        raise ConfigurationError(f"{what} must not be empty")
    return tuple(caster(v) for v in items)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one Monte Carlo experiment."""

    kind: str
    n: tuple[int, ...]
    samples: int
    energy: tuple[float, ...] = (0.0,)
    eta: tuple[EtaSchedule, ...] = ()
    dist: tuple[DistributionSpec, DistributionSpec] = None
    seed: int = 42
    kappa: float = 0.5
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _choice(self.kind, EXPERIMENT_KINDS, "experiment kind")
        object.__setattr__(self, "n", _as_tuple(self.n, lambda v: _integer(v, "n"), "n"))
        if any(v < 1 for v in self.n):
            raise ConfigurationError(f"matrix sizes must be positive, got {self.n}")
        object.__setattr__(self, "samples", _integer(self.samples, "samples"))
        if self.samples < 1:
            raise ConfigurationError(f"samples must be at least 1, got {self.samples}")
        object.__setattr__(self, "energy", _as_tuple(self.energy, lambda v: _real(v, "energy"), "energy"))
        object.__setattr__(self, "kappa", _real(self.kappa, "kappa"))
        object.__setattr__(self, "eta", tuple(EtaSchedule.from_json(e) for e in _items(self.eta)))
        reads = _KINDS[self.kind].reads
        if "eta" in reads and not self.eta:
            raise ConfigurationError(f"experiment kind {self.kind!r} needs at least one eta")
        # a field the kind does not read must keep its dataclass default, in
        # the JSON form ``to_json`` writes, where -0.0 is not 0.0
        shown = {"energy": list(self.energy), "kappa": self.kappa, "eta": [sch.label() for sch in self.eta]}
        for name, value in shown.items():
            written = json.dumps(getattr(self, name), default=EtaSchedule.to_json)
            if name not in reads and written != json.dumps(getattr(ExperimentSpec, name)):
                raise ConfigurationError(f"experiment kind {self.kind!r} takes no {name}, got {value}")
        if not 0.0 < self.kappa < 2.0:
            raise ConfigurationError(f"kappa must lie in (0, 2), got {self.kappa}")
        bulk = 2.0 - self.kappa
        for E in self.energy:
            if not abs(E) < bulk:
                raise ConfigurationError(
                    f"energy {E} outside the bulk window (-{bulk}, {bulk}) for kappa={self.kappa}"
                )
        for sch in self.eta:
            for n in self.n:
                # a positive coefficient can still underflow to 0 at large n
                eta = sch.resolve(n)
                if not (eta > 0.0 and math.isfinite(n * eta)):
                    raise ConfigurationError(
                        f"eta schedule {sch.label()} resolves to eta={eta:g} at N={n}; "
                        "eta must be positive with N*eta finite"
                    )
        dist = (gaussian_off(), gaussian_diag()) if self.dist is None else self.dist
        if not (isinstance(dist, (tuple, list)) and len(dist) == 2
                and all(isinstance(law, DistributionSpec) for law in dist)):
            raise ConfigurationError(f"dist must be a pair of DistributionSpec, got {dist!r}")
        off, diag = dist
        if off.role != "off_diagonal" or diag.role != "diagonal":
            raise ConfigurationError(
                "dist must pair an off_diagonal law with a diagonal law, "
                f"got roles ({off.role!r}, {diag.role!r})"
            )
        object.__setattr__(self, "dist", (off, diag))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if not isinstance(self.extra, dict):
            raise ConfigurationError(f"extra must be a dict, got {type(self.extra).__name__}")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": list(self.n),
            "samples": self.samples,
            "energy": list(self.energy),
            "eta": [e.to_json() for e in self.eta],
            "dist": {"off": self.dist[0].to_json(), "diag": self.dist[1].to_json()},
            "seed": self.seed,
            "kappa": self.kappa,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentSpec":
        if not isinstance(obj, dict):
            raise ConfigurationError(f"experiment spec must be a JSON object, got {type(obj).__name__}")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown experiment spec fields: {sorted(unknown)}")
        for req in ("kind", "n", "samples"):
            if req not in obj:
                raise ConfigurationError(f"experiment spec needs the {req!r} field")
        dist = obj.get("dist")
        return cls(**{**obj, "dist": None if dist is None else DistributionSpec.pair_from_json(dist)})


@dataclass
class ResultRow:
    """One parameter point: estimate, uncertainty, and reference."""

    n: int
    energy: float
    eta: float
    mean: float
    stderr: float
    samples: int
    reference: float
    ratio: float
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {name: getattr(self, name) for name, _ in _CSV_COLUMNS}
        out.update(self.extras)
        return out


# the CSV columns are the fields of ResultRow without ``extras``, in order,
# each with its type: ``int`` cells are written as integers, the rest as the
# shortest decimal that round-trips the double
_CSV_COLUMNS = tuple(
    (f.name, get_type_hints(ResultRow)[f.name]) for f in fields(ResultRow) if f.name != "extras"
)
CSV_HEADER = ",".join(name for name, _ in _CSV_COLUMNS)


def _cell(value, cast: type) -> str:
    return str(int(value)) if cast is int else repr(float(value))


@dataclass
class ExperimentResult:
    """Result table plus run metadata."""

    spec: ExperimentSpec
    rows: list
    wall_time_s: float
    version: str = __version__
    warnings: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows:
            lines.append(",".join(_cell(getattr(row, name), cast) for name, cast in _CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        """JSON-ready record; non-finite floats become ``None`` (JSON null)."""
        return _finite_or_none({
            "spec": self.spec.to_json(),
            "rows": [row.to_json() for row in self.rows],
            "wall_time_s": self.wall_time_s,
            "version": self.version,
            "warnings": list(self.warnings),
        })


def _finite_or_none(value):
    """``value`` with every non-finite float, at any depth, replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


def rows_from_csv(text: str) -> list:
    """Parse the canonical CSV columns back into result rows."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigurationError("CSV header does not match the result schema")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        try:
            values = [cast(p) for p, (_, cast) in zip(parts, _CSV_COLUMNS, strict=True)]
        except ValueError:  # a missing or extra cell, or one that is not its column's number
            values = None
        # a cell must be exactly what ``to_csv`` writes for its value, which
        # refuses the blanks, underscores and spellings ``int``/``float`` accept
        if values is None or any(_cell(v, cast) != p for v, p, (_, cast) in zip(values, parts, _CSV_COLUMNS)):
            raise ConfigurationError(f"malformed CSV row: {ln!r}")
        rows.append(ResultRow(*values))
    return rows


def worker_count(requested: Optional[int] = None) -> int:
    """Chunks a run processes at once; WIGNERLAB_THREADS caps it.

    The default is one per CPU the process may run on.  Both the default
    and a request are cut to 8, so no run starts more pool threads.  Only
    pooled cells (see :func:`_chunk_stats`) use more than one: there each
    chunk runs on one BLAS thread, so a pool of this many threads fills the
    cores instead of oversubscribing them.  More workers share the run's
    one stack budget, so they make smaller chunks, not more memory per
    worker (see :func:`_chunk_depth`).  The result does not depend on this
    count.
    """
    if requested is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        requested = cpus or 1
    requested = _integer(requested, "worker count")
    if requested < 1:
        raise ConfigurationError(f"worker count must be at least 1, got {requested}")
    requested = min(8, requested)
    env = os.environ.get("WIGNERLAB_THREADS")
    if env is None:
        return requested
    try:
        cap = int(env)
    except ValueError:
        raise ConfigurationError(f"WIGNERLAB_THREADS must be an integer, got {env!r}") from None
    if cap < 1:
        raise ConfigurationError(f"WIGNERLAB_THREADS must be at least 1, got {cap}")
    return min(requested, cap)


def _mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    """Compensated mean and standard error; NaN stderr for one sample."""
    arr = np.asarray(values, dtype=float)
    m = len(arr)
    mean = math.fsum(arr.tolist()) / m
    if m < 2:
        return mean, float("nan")
    # Python's ``pow``, not numpy's ``d * d``: the two round some squares
    # differently, and the stderr bytes follow ``x ** 2``
    var = math.fsum(map(pow, (arr - mean).tolist(), repeat(2))) / (m - 1)
    return mean, math.sqrt(var / m)


def _chunk_depth(size: int, in_flight: int) -> int:
    """Matrices per chunk of ``size``-row matrices when ``in_flight`` chunks
    run at once: their share of the stack budget (``_STACK_BYTES``), at
    least one matrix, or for pooled chunks the GIL-free floor
    (``_GIL_FREE_SIZE``), and at most ``_MAX_CHUNK``."""
    floor = _GIL_FREE_SIZE // size + 1 if in_flight > 1 else 1
    return min(_MAX_CHUNK, max(floor, _STACK_BYTES // (in_flight * 16 * size * size)))


def _chunk_stats(
    spec: ExperimentSpec,
    n: int,
    cell: int,
    workers: int,
    stat: Callable[[np.ndarray], Sequence],
    drop_row: bool = False,
) -> list:
    """Per-sample values of cell number ``cell``: ``stat`` maps each ``(B,
    N)`` chunk of spectra to its ``B`` values, and item ``i`` of the list is
    the value of sample ``i``.  Only :func:`run_experiment` numbers cells.

    Row ``b`` of the chunk starting at sample ``lo`` holds the spectrum of
    sample ``lo + b``, drawn from stream ``(seed, cell * samples + lo + b)``
    straight into LAPACK's input.  A chunk is one task: it builds the
    :class:`~wignerlab.ensembles._StreamStack` of its own stream range, draws
    and diagonalises it, then applies ``stat``.

    The pool rule: up to ``_ONE_BLAS_THREAD_MAX_N`` rows (``n - 1`` for
    minors) the tasks run on one BLAS thread each, and where that thread
    count could be set, from the pool floor of ``_POOL_MIN_ROWS`` rows,
    ``workers`` of them run at once on a pool.  The calling thread then
    only gathers the results in chunk order, so ``stat`` must not write
    shared state.  Every other cell runs one chunk at a time, above
    ``_ONE_BLAS_THREAD_MAX_N`` rows on OpenBLAS's own threads.
    :func:`_chunk_depth` sizes the chunks for the number in flight.  Only
    the calling thread sets the BLAS thread count, and the pool is shut
    down before it is restored.
    """
    m = spec.samples
    size = n - 1 if drop_row else n
    first = cell * m

    def task(indices: range) -> object:
        seeds = [SeedSpec(spec.seed, i) for i in indices]
        return stat(eigvalsh(_StreamStack(n, *spec.dist, seeds, drop_row)))

    with one_blas_thread() if size <= _ONE_BLAS_THREAD_MAX_N else nullcontext(False) as pinned:
        in_flight = workers if pinned and size >= _POOL_MIN_ROWS else 1
        depth = _chunk_depth(size, in_flight)
        chunks = [range(first + lo, first + min(lo + depth, m)) for lo in range(0, m, depth)]
        if in_flight == 1:
            return [value for indices in chunks for value in task(indices)]
        from concurrent.futures import ThreadPoolExecutor

        # map yields in chunk order and cancels the queued chunks if one raises
        with ThreadPoolExecutor(workers) as pool:
            return [value for values in pool.map(task, chunks) for value in values]


def _density(mu: np.ndarray, E: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """``(B, P)`` counts in the closed windows ``[E - eta/2, E + eta/2]`` per
    unit of ``N * eta``."""
    return counting(mu, E - eta / 2.0, E + eta / 2.0) / (mu.shape[1] * eta)


def _submicro_extras(
    n: int, eta: float, column: np.ndarray, warnings: list, what: str
) -> dict:
    """Variance warning and per-sample maximum for sub-microscopic scales."""
    if n * eta >= SUBMICRO_THRESHOLD:
        return {}
    warnings.append(
        f"sub-microscopic scale N*eta = {n * eta:g} < {SUBMICRO_THRESHOLD} for {what}; "
        "per-sample maximum recorded"
    )
    return {"sample_max": float(np.max(column))}


# A step runs one matrix size: step(n, cell, warnings) samples the size's
# cells and returns its rows, appending any warnings.  Each call
# ``cell(stat, drop_row=False)`` samples the run's next cell and returns its
# per-sample values (see :func:`_chunk_stats`).
_Step = Callable[[int, Callable[..., list], list], list]


def run_experiment(spec: ExperimentSpec, workers: Optional[int] = None) -> ExperimentResult:
    """Run one experiment and assemble the result table.

    The whole spec is checked before the first sample is drawn.  This is
    the one loop over cells: each size's step asks for its cells in turn,
    and they are numbered 0, 1, ... in that order over ``spec.n``.
    ``workers`` caps the chunks processed at once (see
    :func:`worker_count`); the result does not depend on it.  Runs up to
    ``N = 128`` set OpenBLAS's process-wide thread count for their
    duration, so experiments must not run in several threads at once.
    """
    t0 = time.perf_counter()
    threads = worker_count(workers)
    step = _KINDS[spec.kind].build(spec, _extra(spec))
    cells = count()
    rows: list = []
    warnings: list = []
    for n in spec.n:

        def cell(stat: Callable[[np.ndarray], Sequence], drop_row: bool = False) -> list:
            return _chunk_stats(spec, n, next(cells), threads, stat, drop_row)

        rows.extend(step(n, cell, warnings))
    return ExperimentResult(spec, rows, time.perf_counter() - t0, __version__, warnings)


# -- experiment kinds: each checks the spec and returns the per-size step --


def _extra(spec: ExperimentSpec) -> dict:
    """``spec.extra`` over the kind's keys and their defaults in ``_KINDS``;
    a key the kind does not read raises."""
    defaults = _KINDS[spec.kind].extra
    unknown = sorted(set(spec.extra) - set(defaults), key=str)
    if unknown:
        raise ConfigurationError(
            f"unknown extra keys {unknown} for experiment kind {spec.kind!r}; "
            f"it reads {sorted(defaults) or 'none'}"
        )
    return {**defaults, **spec.extra}


def _grid_step(
    spec: ExperimentSpec,
    stat: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    row: Callable[..., list],
) -> _Step:
    """Step over the energy-major ``(E, schedule)`` grid, one cell per size.

    ``stat(mu, E, eta)`` maps a ``(B, N)`` chunk of spectra and the grid's
    energies and resolved etas to ``(B, P, ...)`` values, and
    ``row(n, E, schedule, eta, values, warnings)`` turns the ``(samples,
    ...)`` values of one point into its rows.
    """

    def step(n: int, cell: Callable[..., list], warnings: list) -> list:
        points = [(E, sch, sch.resolve(n)) for E in spec.energy for sch in spec.eta]
        Es = np.array([p[0] for p in points])
        etas = np.array([p[2] for p in points])
        table = np.array(cell(lambda mu: stat(mu, Es, etas)))
        rows: list = []
        for k, (E, sch, eta) in enumerate(points):
            rows.extend(row(n, E, sch, eta, table[:, k], warnings))
        return rows

    return step


def _mean_kind(
    spec: ExperimentSpec, stat: Callable, reference: Callable, what: str, head=None
) -> _Step:
    """Grid kind with one row per point: the sample mean of ``stat`` against
    ``reference(E, eta)``; ``head(n, E, sch, eta, ref, warnings)`` gives the
    extras that come before the sub-microscopic ones."""

    def row(n, E, sch, eta, values, warnings):
        mean, se = _mean_stderr(values)
        ref = reference(E, eta)
        extras = head(n, E, sch, eta, ref, warnings) if head else {}
        extras.update(_submicro_extras(n, eta, values, warnings, f"{what} at E={E:g}"))
        return [ResultRow(n, E, eta, mean, se, spec.samples, ref, mean / ref, extras)]

    return _grid_step(spec, stat, row)


# :func:`_window` takes its quadrature rule below this eta.  The golden rows'
# smallest eta is 2.5e-4, so their references keep the F_sc difference's bytes.
_WINDOW_RULE_MAX_ETA = 1e-4


def _window(E: float, eta: float) -> tuple[float, float]:
    """Semicircle mass and mean density of ``[E - eta/2, E + eta/2]``.

    One cut picks the formula.  Below ``_WINDOW_RULE_MAX_ETA``, with the
    window at least ``eta/2`` inside the edge ``+-2``, a one-panel 16-node
    Gauss-Legendre rule gives the mean and the mass is ``eta`` times it.
    Otherwise the mass is the difference of two ``F_sc`` values and the
    mean is the mass over ``eta``.

    The reason for the cut: the difference cancels, and its relative error
    grows like 3e-16 / eta, up to 3e-7 at 1e-9 and 8-21% at 1e-15, while
    the rule is exact to rounding away from the edge.  Across the edge the
    rule was 0.2% off at E = 1.999999, eta = 9e-5, where the difference was
    within 2e-8.  Below the cut the mean comes from the rule, not from the
    mass over eta, because at a subnormal eta the mass underflows to 0.
    """
    if eta < min(_WINDOW_RULE_MAX_ETA, 2.0 - abs(E)):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        mean = float(weights @ rho_sc(E + eta / 2.0 * nodes)) / 2.0
        return eta * mean, mean
    mass = F_sc(E + eta / 2.0) - F_sc(E - eta / 2.0)
    return mass, mass / eta


def _dos(spec: ExperimentSpec, extra: dict) -> _Step:
    """Averaged density against the semicircle window average."""
    return _mean_kind(spec, _density, lambda E, eta: _window(E, eta)[1], "dos")


def _scale_sweep(spec: ExperimentSpec, extra: dict) -> _Step:
    """Averaged density against ``rho_sc(E)``, one series per eta schedule."""
    return _mean_kind(
        spec, _density, lambda E, eta: float(rho_sc(E)), "sweep",
        lambda n, E, sch, eta, ref, warnings: {"series": sch.label()},
    )


def _im_stieltjes_kind(spec: ExperimentSpec, extra: dict) -> _Step:
    """Averaged ``Im m_N(E + i eta)`` against ``pi rho_sc(E)``."""

    def warn(n, E, sch, eta, ref, warnings):
        predicted = math.sqrt(math.pi * rho_sc(E) / (spec.samples * n * eta)) / math.sqrt(
            n * eta
        )
        if predicted > 0.2 * ref:
            warnings.append(
                f"predicted stderr {predicted:.3g} exceeds 20% of reference {ref:.3g} "
                f"at N={n}, E={E:g}, eta={eta:g}"
            )
        return {}

    return _mean_kind(
        spec, im_stieltjes, lambda E, eta: math.pi * rho_sc(E), "im_stieltjes", warn,
    )


def _wegner(spec: ExperimentSpec, extra: dict) -> _Step:
    for n in spec.n:
        resolved = [sch.resolve(n) for sch in spec.eta]
        if any(b >= a for a, b in zip(resolved, resolved[1:])):
            raise ConfigurationError(
                f"wegner eta schedule must be strictly decreasing, resolved to {resolved} at n={n}"
            )

    def stat(mu, E, eta):
        counts = counting(mu, E - eta / 2.0, E + eta / 2.0).astype(np.float64)
        return np.stack([counts, counts**2], axis=-1)

    def row(n, E, sch, eta, values, warnings):
        extras = _submicro_extras(n, eta, values[:, 0], warnings, f"wegner at E={E:g}")
        refs = {"count_mean": n * _window(E, eta)[0], "count_sq_mean": float("nan")}
        rows = []
        for (statistic, ref), column in zip(refs.items(), values.T, strict=True):
            mean, se = _mean_stderr(column)
            rows.append(ResultRow(
                n, E, eta, mean, se, spec.samples, ref, mean / (n * eta), {"statistic": statistic, **extras},
            ))
        return rows

    return _grid_step(spec, stat, row)


def _derivative(spec: ExperimentSpec, extra: dict) -> _Step:
    if extra["delta_e"] is None:
        raise ConfigurationError("derivative experiments need extra['delta_e']")
    delta_sched = EtaSchedule.from_json(extra["delta_e"])
    steps = {}
    for n in spec.n:
        steps[n] = delta_sched.resolve(n)
        # the step must move mu - E for the eigenvalues mu in the bulk,
        # |mu| <= 2; below that a step moves nothing and the derivative reads
        # 0.  A step that moves 2.0 exceeds 2**-52, above half an ulp of any
        # |E| < 2, so it moves every energy the spec admits too
        if 2.0 + steps[n] == 2.0:
            raise ConfigurationError(
                f"finite-difference step {steps[n]:g} is below the spectrum's resolution "
                f"at N={n}: it does not move 2.0"
            )
        for sch in spec.eta:
            eta = sch.resolve(n)
            if eta > 1.0 / n:
                raise ConfigurationError(
                    f"derivative scan needs eta <= 1/N, got eta={eta:g} at N={n}"
                )

    def stat(mu, E, eta):
        de = steps[mu.shape[1]]
        return (im_stieltjes(mu, E + de, eta) - im_stieltjes(mu, E - de, eta)) / (2.0 * de)

    def row(n, E, sch, eta, values, warnings):
        mean, se = _mean_stderr(values)
        extras = {
            "delta_e": steps[n],
            "bound_2se": (abs(mean) + 2.0 * se) / n,
            **_submicro_extras(n, eta, np.abs(values), warnings, f"derivative at E={E:g}"),
        }
        return [
            ResultRow(n, E, eta, mean, se, spec.samples, float("nan"), abs(mean) / n, extras)
        ]

    return _grid_step(spec, stat, row)


def _delta_moments(spec: ExperimentSpec, extra: dict) -> _Step:
    if any(n < 2 for n in spec.n):
        raise ConfigurationError(f"delta_moments takes minors, so every size must be at least 2, got {spec.n}")
    eps = _real(extra["eps"], "extra['eps']")
    if not 0.0 < eps <= 1.0:
        raise ConfigurationError(f"extra['eps'] must lie in (0, 1], got {eps}")
    orders = [_integer(k, "a moment order") for k in _items(extra["moment_orders"])]
    if any(k < 0 for k in orders):
        raise ConfigurationError(f"moment orders must be non-negative, got {orders}")
    deltas = [_real(d, "a delta") for d in _items(extra["deltas"])]
    if not all(0.0 < d < math.inf for d in deltas):
        raise ConfigurationError(f"deltas must be positive and finite, got {deltas}")
    if not orders and not deltas:
        raise ConfigurationError("delta_moments needs at least one moment order or delta, got neither")
    part2_order = _integer(extra["part2_order"], "extra['part2_order']")
    if part2_order < 0:
        raise ConfigurationError(f"extra['part2_order'] must be non-negative, got {part2_order}")

    def stat(lam, n, E):
        """``(B, columns)`` chunk values: one column per order, then count_sq
        and nearest per delta; the moments are 0 off the good event."""
        dist = n * np.abs(lam - E)
        omega = good_event(lam, E, eps, n)
        span = np.zeros(len(lam))
        span[omega] = select_indices(lam[omega], E, eps, n).delta
        # float ** int, not np.power: they differ in the last bit for exponents >= 3
        powers = [np.array([s**k for s in span.tolist()]) for k in (*orders, part2_order)]
        columns = [np.where(omega, p, 0.0) for p in powers[:-1]]
        for d in deltas:
            cnt = np.count_nonzero(dist <= d, axis=-1)
            columns += [np.where(omega, powers[-1] * cnt * cnt, 0.0), dist.min(axis=-1) <= d]
        return np.stack(columns, axis=-1)

    # (eta, ratio divisor, extras) of the row of each of ``stat``'s columns
    nan = float("nan")
    heads = [(eps, nan, {"statistic": "omega_delta_moment", "order": k, "eps": eps}) for k in orders]
    for d in deltas:
        heads += [
            (d, d, {"statistic": "delta_moment_count_sq", "order": part2_order, "delta": d, "eps": eps}),
            (d, d, {"statistic": "nearest_eigenvalue_prob", "delta": d, "eps": eps}),
        ]

    def step(n: int, cell: Callable[..., list], warnings: list) -> list:
        rows: list = []
        for E in spec.energy:
            # one cell per (n, E) pair so each energy gets fresh streams
            table = np.array(cell(lambda mu: stat(mu, n, E), drop_row=True))
            for values, (eta, divisor, extras) in zip(table.T, heads, strict=True):
                mean, se = _mean_stderr(values)
                rows.append(ResultRow(n, E, eta, mean, se, spec.samples, nan, mean / divisor, dict(extras)))
        return rows

    return step


# the central half of the spectrum: the semicircle quartiles as scipy's
# ``brentq(lambda x: F_sc(x) - p, -2, 2, xtol=1e-14)`` finds them (asymmetric
# in the last bits).  The CSV writes the window, and another root finder
# lands on other last bits, so the doubles are pinned here.
_SPACING_WINDOW = (-0.8079455065990346, 0.8079455065990351)


def _spacing(spec: ExperimentSpec, extra: dict) -> _Step:
    bounds = _items(extra["window"])
    if len(bounds) != 2:
        raise ConfigurationError(f"spacing window must be two numbers, got {bounds}")
    lo, hi = window = tuple(_real(w, "a spacing window bound") for w in bounds)
    if not (-2.0 < lo < hi < 2.0):
        raise ConfigurationError(f"spacing window must satisfy -2 < lo < hi < 2, got {window}")

    def step(n: int, cell: Callable[..., list], warnings: list) -> list:
        per_sample = cell(lambda chunk: [unfolded_spacings(mu, window) for mu in chunk])
        means = [float(np.mean(s)) for s in per_sample if s.size > 0]
        pooled = np.concatenate(per_sample)
        if means:
            mean, se = _mean_stderr(means)
        else:
            mean, se = float("nan"), float("nan")
            warnings.append(f"no eigenvalues fell inside the spacing window at N={n}")
        extras = {
            "statistic": "mean_spacing",
            "window": [lo, hi],
            "pooled_count": int(pooled.size),
            "frac_below_0p1": float(np.mean(pooled < 0.1)) if pooled.size else float("nan"),
            "ks_distance": _ks_distance(pooled) if pooled.size else float("nan"),
        }
        return [ResultRow(n, (lo + hi) / 2.0, hi - lo, mean, se, len(means), 1.0, mean, extras)]

    return step


def _ks_distance(spacings: np.ndarray) -> float:
    """Kolmogorov distance between pooled spacings and the GUE surmise."""
    s = np.sort(spacings)
    cdf = wigner_surmise_gue_cdf(s)
    steps_hi = np.arange(1, s.size + 1) / s.size
    steps_lo = np.arange(0, s.size) / s.size
    return float(max(np.max(np.abs(steps_hi - cdf)), np.max(np.abs(steps_lo - cdf))))


class _Kind(NamedTuple):
    """One experiment kind: ``build(spec, extra)`` checks the spec and
    returns its step, ``reads`` names the fields of ``energy``, ``kappa``
    and ``eta`` it reads, and ``extra`` maps its ``extra`` keys to their
    defaults."""

    build: Callable[[ExperimentSpec, dict], _Step]
    reads: tuple
    extra: dict


_KINDS: dict = {
    "dos": _Kind(_dos, ("energy", "kappa", "eta"), {}),
    "im_stieltjes": _Kind(_im_stieltjes_kind, ("energy", "kappa", "eta"), {}),
    "wegner": _Kind(_wegner, ("energy", "kappa", "eta"), {}),
    "derivative": _Kind(_derivative, ("energy", "kappa", "eta"), {"delta_e": None}),
    "scale_sweep": _Kind(_scale_sweep, ("energy", "kappa", "eta"), {}),
    "delta_moments": _Kind(_delta_moments, ("energy", "kappa"), {
        "eps": 1.0, "moment_orders": (0, 1, 2), "deltas": (0.5, 0.1, 0.02), "part2_order": 0,
    }),
    # its CSV energy and eta columns hold the window's centre and width
    "spacing": _Kind(_spacing, (), {"window": _SPACING_WINDOW}),
}

EXPERIMENT_KINDS = tuple(_KINDS)
