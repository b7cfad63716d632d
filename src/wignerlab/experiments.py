"""Declarative Monte Carlo experiments over Wigner ensembles.

An :class:`ExperimentSpec` names a kind (averaged density of states,
expected Stieltjes transform, Wegner count moments, common-random-number
energy derivative, eta-schedule sweep, minor-distance moments, or unfolded
spacings), the matrix sizes, sample budget, energies, eta schedules, entry
laws, and a master seed.  :func:`run_experiment` evaluates it into an
:class:`ExperimentResult` table with one row per parameter point.

Reproducibility contract: sample ``i`` of cell ``k`` always draws from the
stream ``(master_seed, k * samples + i)``, every per-sample statistic is
stored at its sample index, and reductions run in index order with
compensated summation.  Results are therefore bit-identical for a fixed
spec.

Samples run in one serial loop over chunks of ``_CHUNK`` samples.  Each
sample is drawn and diagonalised on its own; the chunk's eigenvalues are
stacked into a ``(B, N)`` array and the observables are evaluated on the
whole chunk as ``(B, P, N)`` array expressions, which keeps their
temporaries small.  There is no worker pool: the ``workers`` argument is
still validated but starts no threads.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .diagnostics import good_event, select_indices
from .distributions import DistributionSpec, gaussian_diag, gaussian_off
from .eigensolver import Spectrum, eigvalsh, minor
from .ensembles import sample_wigner
from .errors import ConfigurationError
from .seeding import SeedSpec

# ``counting`` is unused here but stays bound: perfbench/tracer.py wraps the
# spectral entry points by their names in this module.
from .spectral import F_sc, counting, rho_sc, semicircle_quantile, unfolded_spacings, wigner_surmise_gue_cdf  # noqa: F401
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

EXPERIMENT_KINDS = (
    "dos",
    "im_stieltjes",
    "wegner",
    "derivative",
    "scale_sweep",
    "delta_moments",
    "spacing",
)

_ETA_KINDS = ("const", "over_n", "over_n32")

_CHUNK = 32

CSV_HEADER = "n,energy,eta,mean,stderr,samples,reference,ratio"

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
        if self.kind not in _ETA_KINDS:
            raise ConfigurationError(f"unknown eta schedule kind {self.kind!r}")
        object.__setattr__(self, "coef", float(self.coef))
        if not self.coef > 0.0:
            raise ConfigurationError(f"eta schedule coefficient must be positive, got {self.coef}")

    def resolve(self, n: int) -> float:
        if self.kind == "const":
            return self.coef
        if self.kind == "over_n":
            return self.coef / n
        return self.coef / n**1.5

    def label(self) -> str:
        if self.kind == "const":
            return f"{self.coef:g}"
        if self.kind == "over_n":
            return f"{self.coef:g}/N"
        return f"{self.coef:g}/N^1.5"

    def to_json(self) -> dict:
        return {"kind": self.kind, "coef": self.coef}

    @classmethod
    def from_json(cls, obj) -> "EtaSchedule":
        if isinstance(obj, EtaSchedule):
            return obj
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            return cls("const", float(obj))
        if isinstance(obj, dict):
            if "kind" in obj:
                return cls(obj["kind"], obj.get("coef", 0.0))
            for key, kind in (("const", "const"), ("over_n", "over_n"), ("over_n32", "over_n32")):
                if key in obj and len(obj) == 1:
                    return cls(kind, obj[key])
        raise ConfigurationError(f"cannot parse eta schedule from {obj!r}")


def _as_tuple(value, caster, what: str) -> tuple:
    if isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
    else:
        items = [value]
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
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigurationError(
                f"unknown experiment kind {self.kind!r}; expected one of {EXPERIMENT_KINDS}"
            )
        object.__setattr__(self, "n", _as_tuple(self.n, int, "n"))
        if any(v < 1 for v in self.n):
            raise ConfigurationError(f"matrix sizes must be positive, got {self.n}")
        object.__setattr__(self, "samples", int(self.samples))
        if self.samples < 1:
            raise ConfigurationError(f"samples must be at least 1, got {self.samples}")
        object.__setattr__(self, "energy", _as_tuple(self.energy, float, "energy"))
        object.__setattr__(self, "kappa", float(self.kappa))
        if not 0.0 < self.kappa < 2.0:
            raise ConfigurationError(f"kappa must lie in (0, 2), got {self.kappa}")
        bulk = 2.0 - self.kappa
        for E in self.energy:
            if not abs(E) < bulk:
                raise ConfigurationError(
                    f"energy {E} outside the bulk window (-{bulk}, {bulk}) for kappa={self.kappa}"
                )
        etas = self.eta if isinstance(self.eta, (list, tuple)) else (self.eta,)
        object.__setattr__(self, "eta", tuple(EtaSchedule.from_json(e) for e in etas))
        if self.kind in ("dos", "im_stieltjes", "wegner", "derivative", "scale_sweep") and not self.eta:
            raise ConfigurationError(f"experiment kind {self.kind!r} needs at least one eta")
        dist = self.dist
        if dist is None:
            dist = (gaussian_off(), gaussian_diag())
        off, diag = dist
        if off.role != "off_diagonal" or diag.role != "diagonal":
            raise ConfigurationError(
                "dist must pair an off_diagonal law with a diagonal law, "
                f"got roles ({off.role!r}, {diag.role!r})"
            )
        object.__setattr__(self, "dist", (off, diag))
        object.__setattr__(self, "seed", int(self.seed))
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
        known = {"kind", "n", "samples", "energy", "eta", "dist", "seed", "kappa", "extra"}
        unknown = set(obj) - known
        if unknown:
            raise ConfigurationError(f"unknown experiment spec fields: {sorted(unknown)}")
        for req in ("kind", "n", "samples"):
            if req not in obj:
                raise ConfigurationError(f"experiment spec needs the {req!r} field")
        dist = obj.get("dist")
        if dist is not None:
            if not isinstance(dist, dict) or set(dist) != {"off", "diag"}:
                raise ConfigurationError("dist must be an object with 'off' and 'diag' laws")
            dist = (
                DistributionSpec.from_json(dist["off"]),
                DistributionSpec.from_json(dist["diag"]),
            )
        eta = obj.get("eta", ())
        if not isinstance(eta, (list, tuple)):
            eta = (eta,)
        return cls(
            kind=obj["kind"],
            n=obj["n"],
            samples=obj["samples"],
            energy=obj.get("energy", (0.0,)),
            eta=tuple(EtaSchedule.from_json(e) for e in eta),
            dist=dist,
            seed=obj.get("seed", 42),
            kappa=obj.get("kappa", 0.5),
            extra=obj.get("extra", {}),
        )


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
        out = {
            "n": self.n,
            "energy": self.energy,
            "eta": self.eta,
            "mean": self.mean,
            "stderr": self.stderr,
            "samples": self.samples,
            "reference": self.reference,
            "ratio": self.ratio,
        }
        out.update(self.extras)
        return out


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
            lines.append(
                ",".join(
                    (
                        str(int(row.n)),
                        _fmt(row.energy),
                        _fmt(row.eta),
                        _fmt(row.mean),
                        _fmt(row.stderr),
                        str(int(row.samples)),
                        _fmt(row.reference),
                        _fmt(row.ratio),
                    )
                )
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "rows": [row.to_json() for row in self.rows],
            "wall_time_s": self.wall_time_s,
            "version": self.version,
            "warnings": list(self.warnings),
        }


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the double exactly."""
    return repr(float(x))


def rows_from_csv(text: str) -> list:
    """Parse the canonical CSV columns back into result rows."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigurationError("CSV header does not match the result schema")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 8:
            raise ConfigurationError(f"malformed CSV row: {ln!r}")
        rows.append(
            ResultRow(
                n=int(parts[0]),
                energy=float(parts[1]),
                eta=float(parts[2]),
                mean=float(parts[3]),
                stderr=float(parts[4]),
                samples=int(parts[5]),
                reference=float(parts[6]),
                ratio=float(parts[7]),
            )
        )
    return rows


def worker_count(requested: Optional[int] = None) -> int:
    """Validated worker count of a run; WIGNERLAB_THREADS caps it.

    Deprecated: runs are serial and start no threads whatever this returns.
    The value and its validation stay because callers still pass
    ``workers`` and ``--workers``, and the benchmark records it.
    """
    base = requested if requested is not None else min(8, os.cpu_count() or 1)
    if base < 1:
        raise ConfigurationError(f"worker count must be at least 1, got {base}")
    env = os.environ.get("WIGNERLAB_THREADS")
    if env is None:
        return base
    try:
        cap = int(env)
    except ValueError:
        raise ConfigurationError(f"WIGNERLAB_THREADS must be an integer, got {env!r}") from None
    if cap < 1:
        raise ConfigurationError(f"WIGNERLAB_THREADS must be at least 1, got {cap}")
    return min(base, cap)


def _mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    """Compensated mean and standard error; NaN stderr for one sample."""
    m = len(values)
    mean = math.fsum(values) / m
    if m < 2:
        return mean, float("nan")
    var = math.fsum((float(v) - mean) ** 2 for v in values) / (m - 1)
    return mean, math.sqrt(var / m)


def _spectra(spec: ExperimentSpec, n: int, cell: int, drop_row: bool = False) -> Iterator[np.ndarray]:
    """Eigenvalues of one cell's samples, one ``(B, N)`` chunk at a time.

    Row ``b`` of the chunk starting at sample ``lo`` holds the ascending
    eigenvalues of sample ``lo + b``, drawn from stream
    ``(seed, cell * samples + lo + b)``; with ``drop_row`` they are those of
    the minor without row and column 0.
    """
    off, diag = spec.dist
    m = spec.samples
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        mu = np.empty((hi - lo, n - 1 if drop_row else n))
        for i in range(lo, hi):
            matrix = sample_wigner(n, off, diag, SeedSpec(spec.seed, cell * m + i))
            mu[i - lo] = eigvalsh(minor(matrix, 0) if drop_row else matrix).eigenvalues
        yield mu


def _table(
    spec: ExperimentSpec,
    n: int,
    cell: int,
    stat: Callable[[np.ndarray], np.ndarray],
    drop_row: bool = False,
) -> np.ndarray:
    """Per-sample statistics of one cell: ``stat`` maps a ``(B, N)`` chunk of
    spectra to its ``(B, width)`` rows, and row ``i`` belongs to sample ``i``."""
    return np.concatenate(
        [np.asarray(stat(mu), dtype=np.float64) for mu in _spectra(spec, n, cell, drop_row)]
    )


def _grid(spec: ExperimentSpec, n: int) -> tuple[list, np.ndarray, np.ndarray]:
    """Energy-major ``(E, schedule, eta)`` points of one size, and the
    energies and resolved etas as arrays."""
    points = [(E, sch, sch.resolve(n)) for E in spec.energy for sch in spec.eta]
    return points, np.array([p[0] for p in points]), np.array([p[2] for p in points])


def _window_counts(mu: np.ndarray, E: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """``(B, P)`` eigenvalue counts in the closed windows ``[E - eta/2, E + eta/2]``."""
    x = mu[:, None, :]
    inside = (x >= (E - eta / 2.0)[:, None]) & (x <= (E + eta / 2.0)[:, None])
    return np.count_nonzero(inside, axis=-1)


def _im_stieltjes(mu: np.ndarray, E: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """``(B, P)`` values of ``Im m_N(E + i eta)``, the Poisson-kernel sums
    ``(1/N) sum_a eta / ((mu_a - E)^2 + eta^2)``."""
    E, eta = E[:, None], eta[:, None]
    return np.sum(eta / ((mu[:, None, :] - E) ** 2 + eta * eta), axis=-1) / mu.shape[1]


def _window_reference(E: float, eta: float) -> float:
    return (F_sc(E + eta / 2.0) - F_sc(E - eta / 2.0)) / eta


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


def run_experiment(spec: ExperimentSpec, workers: Optional[int] = None) -> ExperimentResult:
    """Run one experiment and assemble the result table.

    ``workers`` is deprecated: it is validated by :func:`worker_count` and
    otherwise ignored, because the samples run in one serial loop.
    """
    t0 = time.perf_counter()
    worker_count(workers)
    runner = {
        "dos": _run_density,
        "im_stieltjes": _run_im_stieltjes,
        "wegner": _run_wegner,
        "derivative": _run_derivative,
        "scale_sweep": _run_density,
        "delta_moments": _run_delta_moments,
        "spacing": _run_spacing,
    }[spec.kind]
    rows, warnings = runner(spec)
    return ExperimentResult(
        spec=spec,
        rows=rows,
        wall_time_s=time.perf_counter() - t0,
        version=__version__,
        warnings=warnings,
    )


# -- experiment runners ----------------------------------------------------


def _run_density(spec: ExperimentSpec) -> tuple[list, list]:
    """``dos`` against the semicircle window average, or ``scale_sweep``
    against ``rho_sc(E)`` with one series per eta schedule."""
    rows: list = []
    warnings: list = []
    sweep = spec.kind == "scale_sweep"
    for ci, n in enumerate(spec.n):
        points, Es, etas = _grid(spec, n)
        table = _table(spec, n, ci, lambda mu: _window_counts(mu, Es, etas) / (n * etas))
        for k, (E, sch, eta) in enumerate(points):
            mean, se = _mean_stderr(table[:, k])
            if sweep:
                ref = float(rho_sc(E))
                extras = {
                    "series": sch.label(),
                    **_submicro_extras(n, eta, table[:, k], warnings, f"sweep at E={E:g}"),
                }
            else:
                ref = _window_reference(E, eta)
                extras = _submicro_extras(n, eta, table[:, k], warnings, f"dos at E={E:g}")
            rows.append(
                ResultRow(n, E, eta, mean, se, spec.samples, ref, mean / ref, extras)
            )
    return rows, warnings


def _run_im_stieltjes(spec: ExperimentSpec) -> tuple[list, list]:
    rows: list = []
    warnings: list = []
    for ci, n in enumerate(spec.n):
        points, Es, etas = _grid(spec, n)
        table = _table(spec, n, ci, lambda mu: _im_stieltjes(mu, Es, etas))
        for k, (E, _, eta) in enumerate(points):
            mean, se = _mean_stderr(table[:, k])
            ref = math.pi * rho_sc(E)
            predicted = math.sqrt(math.pi * rho_sc(E) / (spec.samples * n * eta)) / math.sqrt(
                n * eta
            )
            if predicted > 0.2 * ref:
                warnings.append(
                    f"predicted stderr {predicted:.3g} exceeds 20% of reference {ref:.3g} "
                    f"at N={n}, E={E:g}, eta={eta:g}"
                )
            extras = _submicro_extras(n, eta, table[:, k], warnings, f"im_stieltjes at E={E:g}")
            rows.append(
                ResultRow(n, E, eta, mean, se, spec.samples, ref, mean / ref, extras)
            )
    return rows, warnings


def _run_wegner(spec: ExperimentSpec) -> tuple[list, list]:
    rows: list = []
    warnings: list = []
    for ci, n in enumerate(spec.n):
        resolved = [sch.resolve(n) for sch in spec.eta]
        if any(b >= a for a, b in zip(resolved, resolved[1:])):
            raise ConfigurationError(
                f"wegner eta schedule must be strictly decreasing, resolved to {resolved} at n={n}"
            )
        points, Es, etas = _grid(spec, n)

        def stat(mu):
            counts = _window_counts(mu, Es, etas).astype(np.float64)
            # columns 2k and 2k+1: count and squared count at point k
            return np.stack([counts, counts**2], axis=-1).reshape(len(mu), -1)

        table = _table(spec, n, ci, stat)
        for k, (E, _, eta) in enumerate(points):
            counts = table[:, 2 * k]
            squares = table[:, 2 * k + 1]
            mean_c, se_c = _mean_stderr(counts)
            mean_s, se_s = _mean_stderr(squares)
            base_extras = _submicro_extras(n, eta, counts, warnings, f"wegner at E={E:g}")
            ref_count = n * (F_sc(E + eta / 2.0) - F_sc(E - eta / 2.0))
            rows.append(
                ResultRow(
                    n, E, eta, mean_c, se_c, spec.samples, ref_count, mean_c / (n * eta),
                    {"statistic": "count_mean", **base_extras},
                )
            )
            rows.append(
                ResultRow(
                    n, E, eta, mean_s, se_s, spec.samples, float("nan"), mean_s / (n * eta),
                    {"statistic": "count_sq_mean", **base_extras},
                )
            )
    return rows, warnings


def _run_derivative(spec: ExperimentSpec) -> tuple[list, list]:
    if "delta_e" not in spec.extra:
        raise ConfigurationError("derivative experiments need extra['delta_e']")
    delta_sched = EtaSchedule.from_json(spec.extra["delta_e"])
    rows: list = []
    warnings: list = []
    for ci, n in enumerate(spec.n):
        de = delta_sched.resolve(n)
        if de <= 0.0:
            raise ConfigurationError(f"finite-difference step must be positive, got {de}")
        points, Es, etas = _grid(spec, n)
        for _, _, eta in points:
            if eta > 1.0 / n:
                raise ConfigurationError(
                    f"derivative scan needs eta <= 1/N, got eta={eta:g} at N={n}"
                )
        table = _table(
            spec, n, ci,
            lambda mu: (_im_stieltjes(mu, Es + de, etas) - _im_stieltjes(mu, Es - de, etas))
            / (2.0 * de),
        )
        for k, (E, _, eta) in enumerate(points):
            mean, se = _mean_stderr(table[:, k])
            extras = {
                "delta_e": de,
                "bound_2se": (abs(mean) + 2.0 * se) / n,
                **_submicro_extras(n, eta, np.abs(table[:, k]), warnings, f"derivative at E={E:g}"),
            }
            rows.append(
                ResultRow(
                    n, E, eta, mean, se, spec.samples, float("nan"), abs(mean) / n, extras
                )
            )
    return rows, warnings


def _run_delta_moments(spec: ExperimentSpec) -> tuple[list, list]:
    eps = float(spec.extra.get("eps", 1.0))
    if not 0.0 < eps <= 1.0:
        raise ConfigurationError(f"extra['eps'] must lie in (0, 1], got {eps}")
    orders = [int(k) for k in spec.extra.get("moment_orders", (0, 1, 2))]
    if any(k < 0 for k in orders):
        raise ConfigurationError(f"moment orders must be non-negative, got {orders}")
    deltas = [float(d) for d in spec.extra.get("deltas", (0.5, 0.1, 0.02))]
    if any(d <= 0.0 for d in deltas):
        raise ConfigurationError(f"deltas must be positive, got {deltas}")
    part2_order = int(spec.extra.get("part2_order", 0))
    if part2_order < 0:
        raise ConfigurationError(f"extra['part2_order'] must be non-negative, got {part2_order}")

    rows: list = []
    warnings: list = []
    for ci, n in enumerate(spec.n):
        for ei, E in enumerate(spec.energy):

            def sample_stat(lam, n=n, E=E):
                dist = n * np.abs(lam - E)
                omega = good_event(lam, E, eps, n)
                delta_span = (
                    select_indices(lam, E, eps, n).delta if omega else 0.0
                )
                vals = [delta_span**k if omega else 0.0 for k in orders]
                for d in deltas:
                    cnt = float(np.sum(dist <= d))
                    part2 = (delta_span**part2_order) * cnt * cnt if omega else 0.0
                    vals.append(part2)
                    vals.append(1.0 if dist.min() <= d else 0.0)
                return vals

            # one cell per (n, E) pair so each energy gets fresh streams
            cell = ci * len(spec.energy) + ei
            table = _table(
                spec, n, cell, lambda mu: [sample_stat(lam) for lam in mu], drop_row=True
            )
            col = 0
            for k in orders:
                mean, se = _mean_stderr(table[:, col])
                rows.append(
                    ResultRow(
                        n, E, eps, mean, se, spec.samples, float("nan"), float("nan"),
                        {"statistic": "omega_delta_moment", "order": k, "eps": eps},
                    )
                )
                col += 1
            for d in deltas:
                mean, se = _mean_stderr(table[:, col])
                rows.append(
                    ResultRow(
                        n, E, d, mean, se, spec.samples, float("nan"), mean / d,
                        {
                            "statistic": "delta_moment_count_sq",
                            "order": part2_order,
                            "delta": d,
                            "eps": eps,
                        },
                    )
                )
                col += 1
                mean, se = _mean_stderr(table[:, col])
                rows.append(
                    ResultRow(
                        n, E, d, mean, se, spec.samples, float("nan"), mean / d,
                        {"statistic": "nearest_eigenvalue_prob", "delta": d, "eps": eps},
                    )
                )
                col += 1
    return rows, warnings


def _run_spacing(spec: ExperimentSpec) -> tuple[list, list]:
    window = spec.extra.get("window")
    if window is None:
        window = (semicircle_quantile(0.25), semicircle_quantile(0.75))
    else:
        window = (float(window[0]), float(window[1]))
    lo, hi = window
    if not (-2.0 < lo < hi < 2.0):
        raise ConfigurationError(f"spacing window must satisfy -2 < lo < hi < 2, got {window}")

    rows: list = []
    warnings: list = []
    for ci, n in enumerate(spec.n):
        per_sample = [
            unfolded_spacings(Spectrum(n, mu), window).spacings
            for chunk in _spectra(spec, n, ci)
            for mu in chunk
        ]
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
        rows.append(
            ResultRow(
                n, (lo + hi) / 2.0, hi - lo, mean, se, len(means), 1.0, mean, extras
            )
        )
    return rows, warnings


def _ks_distance(spacings: np.ndarray) -> float:
    """Kolmogorov distance between pooled spacings and the GUE surmise."""
    s = np.sort(spacings)
    cdf = wigner_surmise_gue_cdf(s)
    steps_hi = np.arange(1, s.size + 1) / s.size
    steps_lo = np.arange(0, s.size) / s.size
    return float(max(np.max(np.abs(steps_hi - cdf)), np.max(np.abs(steps_lo - cdf))))
