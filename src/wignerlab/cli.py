"""Command-line front end for the Wigner ensemble laboratory.

Subcommands map onto the Monte Carlo experiment kinds (``dos``,
``stieltjes``, ``wegner``, ``deriv``, ``sweep``, ``spacing``) plus three
utilities: ``diagnostics`` emits the minor/overlap record of a single
sampled matrix as JSON, ``regularity`` prints the smoothness integrals of
an entry law, and ``check`` runs the built-in verification suite: six
invariant residuals, each computed by the same function that the
acceptance criteria and unit tests call (:mod:`wignerlab.checks`, and
:func:`~wignerlab.diagnostics.schur_resolvent_residual` for the Schur
complement), on the suite's own seeds, sizes and bounds.

Results are written as CSV (default) or JSON, with numbers in shortest
round-trip decimal form so output bytes are stable across platforms.
Exit codes: 0 success, 1 numeric failure or failed self-check, 2 usage
or configuration error, or a matrix too large to allocate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache

import numpy as np

from .checks import (
    chain_violation,
    interlacing_gap,
    regularity_gap,
    semicircle_identity_gap,
    semicircle_normalization_gap,
)
from .diagnostics import good_event, minor_diagnostics, schur_resolvent_residual
from .distributions import DistributionSpec, regularity_integrals
from .eigensolver import eigvalsh
from .ensembles import minor, sample_gue, sample_wigner
from .errors import ConfigurationError, DomainError, NumericError
from .experiments import ExperimentResult, ExperimentSpec, run_experiment
from .seeding import SeedSpec
from .svgplot import Series, render_plot
from .version import __version__

__all__ = ["main", "emit_plot", "run_check_suite"]

# experiment subcommand -> (experiment kind, help), in --help order
_COMMANDS = {
    "dos": ("dos", "averaged density of states over an energy/eta grid"),
    "stieltjes": ("im_stieltjes", "imaginary part of the empirical Stieltjes transform"),
    "wegner": ("wegner", "interval count moments for a decreasing eta schedule"),
    "deriv": ("derivative", "common-random-number energy derivative of Im m_N"),
    "sweep": ("scale_sweep", "density of states across eta schedules and sizes"),
    "spacing": ("spacing", "unfolded nearest-neighbour spacings in a bulk window"),
}

# eta flag dest -> (schedule kind, help); schedules are listed in this order,
# which sets the row order and the order wegner checks for a decrease
_ETA_FLAGS = {
    "eta": ("const", "constant resolution scale(s)"),
    "eta_over_n": ("over_n", "resolution coefficient(s) K giving eta = K/N"),
    "eta_over_n32": ("over_n32", "resolution coefficient(s) c giving eta = c/N^1.5"),
}


def _parse_dist(text: str, roles: tuple = ("off_diagonal", "diagonal")) -> tuple:
    """Parse ``--dist`` into one entry law per role in ``roles``.

    The text is a law name with optional ``:p1,p2,...`` parameters, applied
    to every role, or JSON: ``{"off": law, "diag": law}`` for the two
    roles, one law object for a single role, which takes that role unless
    it names its own.  Malformed text raises :class:`ConfigurationError`.
    """
    text = text.strip()
    if not text.startswith("{"):
        name, _, rest = text.partition(":")
        try:
            params = tuple(float(p) for p in rest.split(",") if p.strip())
        except ValueError:
            raise ConfigurationError(f"distribution parameters must be numbers, got {rest!r}") from None
        return tuple(DistributionSpec(name, params, role) for role in roles)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"bad --dist JSON: {exc}") from None
    if len(roles) == 1:
        return (DistributionSpec.from_json(obj, roles[0]),)
    return DistributionSpec.pair_from_json(obj)


def _load_spec_json(value: str) -> dict:
    stripped = value.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"bad inline spec JSON: {exc}") from None
    else:
        try:
            with open(value, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read spec file {value}: {exc.strerror}") from None
        except ValueError as exc:  # bad JSON or not UTF-8
            raise ConfigurationError(f"bad spec file {value}: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigurationError("experiment spec must be a JSON object")
    return obj


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--spec", help="JSON experiment spec (path or inline object)")
    sub.add_argument("--n", type=int, nargs="+", help="matrix size(s)")
    sub.add_argument("--samples", type=int, help="Monte Carlo samples per parameter cell")
    sub.add_argument("--energy", type=float, nargs="+", help="bulk energy grid")
    for dest, (_, blurb) in _ETA_FLAGS.items():
        sub.add_argument("--" + dest.replace("_", "-"), type=float, nargs="+", help=blurb)
    sub.add_argument("--dist", help="entry law for both roles, e.g. gaussian or smoothed_uniform:0.4")
    sub.add_argument("--seed", type=int, help="master seed (default 42)")
    sub.add_argument("--kappa", type=float, help="bulk margin: energies stay in (-2+kappa, 2-kappa)")
    sub.add_argument(
        "--workers", type=int,
        help="chunks processed at once for N <= 128, at most 8 (default: one per usable CPU)",
    )
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--plot", action="store_true", help="also write an SVG plot next to --out")
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The ``wignerlab`` parser, built once per process: its hundred-odd
    actions took about 7 ms to build, on every :func:`main` call.  Each
    ``parse_args`` call fills a namespace of its own, so calls share no
    state."""
    parser = argparse.ArgumentParser(
        prog="wignerlab",
        description="Monte Carlo laboratory for eigenvalue statistics of Wigner matrices",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for cmd, (_, blurb) in _COMMANDS.items():
        sub = subs.add_parser(cmd, help=blurb)
        _add_experiment_flags(sub)
        if cmd == "deriv":
            step = sub.add_mutually_exclusive_group()
            step.add_argument(
                "--delta-e", type=float, dest="delta_e",
                help="constant finite-difference step",
            )
            step.add_argument(
                "--delta-e-over-n", type=float, dest="delta_e_over_n",
                help="finite-difference coefficient K giving a step K/N (default 0.25)",
            )
        if cmd == "spacing":
            sub.add_argument(
                "--window", type=float, nargs=2, metavar=("LO", "HI"),
                help="energy window (default: central half of the limiting spectrum)",
            )

    diag = subs.add_parser("diagnostics", help="minor/overlap record of one sampled matrix as JSON")
    diag.add_argument("--n", type=int, required=True, help="matrix size")
    diag.add_argument("--j", type=int, default=0, help="row/column to remove (default 0)")
    diag.add_argument("--energy", type=float, default=0.0, help="reference energy")
    diag.add_argument("--eps", type=float, default=0.5, help="rescaled distance cutoff in (0, 1]")
    diag.add_argument("--dist", default="gaussian", help="entry law for both roles (default gaussian)")
    diag.add_argument("--seed", type=int, default=42, help="master seed")
    diag.add_argument("--out", help="output path (default stdout)")

    reg = subs.add_parser("regularity", help="smoothness integrals I6, I4, I2pp of an entry law")
    reg.add_argument("--dist", default="gaussian", help="entry law, e.g. gaussian, smoothed_uniform:0.4 or JSON")
    reg.add_argument(
        "--role", choices=("off_diagonal", "diagonal"), default="off_diagonal",
        help="entry role fixing the target variance (default off_diagonal)",
    )

    subs.add_parser("check", help="run the built-in verification suite")

    return parser


def _build_spec(args) -> ExperimentSpec:
    """The spec of an experiment subcommand: the ``--spec`` object (or an
    empty one) with each given flag written over its field, checked once."""
    kind = _COMMANDS[args.command][0]
    obj = _load_spec_json(args.spec) if args.spec else {}
    if obj.setdefault("kind", kind) != kind:
        raise ConfigurationError(f"spec kind {obj['kind']!r} does not match subcommand {args.command!r}")
    for key in ("n", "samples", "energy", "seed", "kappa"):
        if getattr(args, key) is not None:
            obj[key] = getattr(args, key)
    etas = [
        {"kind": sched, "coef": coef}
        for dest, (sched, _) in _ETA_FLAGS.items()
        for coef in getattr(args, dest) or ()
    ]
    if etas:
        obj["eta"] = etas
    if args.dist is not None:
        off, diag = _parse_dist(args.dist)
        obj["dist"] = {"off": off.to_json(), "diag": diag.to_json()}
    extra = obj.setdefault("extra", {})
    if isinstance(extra, dict):  # anything else is refused by ExperimentSpec
        if kind == "derivative":
            if args.delta_e is not None:
                extra["delta_e"] = {"kind": "const", "coef": args.delta_e}
            elif args.delta_e_over_n is not None:
                extra["delta_e"] = {"kind": "over_n", "coef": args.delta_e_over_n}
            extra.setdefault("delta_e", {"kind": "over_n", "coef": 0.25})
        if kind == "spacing" and args.window is not None:
            extra["window"] = args.window
    if not args.spec:
        for req in ("n", "samples"):
            if req not in obj:
                raise ConfigurationError(f"--{req} is required when no --spec is given")
    return ExperimentSpec.from_json(obj)


def emit_plot(result: ExperimentResult, out: str) -> None:
    """Write an SVG plot of estimate vs. the swept parameter to ``out``.

    The x axis is the first of N (``n``), E (``energy``) and eta (``eta``)
    that takes more than one value over the rows, or E when none does.  Rows
    form one series per ``series`` or ``statistic`` extra (``estimate`` when
    a row has neither); a NaN stderr is drawn as a zero error bar.  One finite
    reference shared by every row that has one is a dashed line; differing
    finite references are a series of their own, ``reference``.  Raises
    :class:`DomainError` when there is nothing to plot.
    """
    rows = result.rows
    if not rows:
        raise DomainError("nothing to plot: result has no rows")
    axes = {"N": "n", "E": "energy", "eta": "eta"}
    x_label = next((label for label, name in axes.items()
                    if len({getattr(row, name) for row in rows}) > 1), "E")
    xs = [float(getattr(row, axes[x_label])) for row in rows]

    groups: dict = {}
    for row, x in zip(rows, xs):
        key = row.extras.get("series") or row.extras.get("statistic") or "estimate"
        groups.setdefault(key, []).append((x, row))
    series = [
        Series(str(label), [x for x, _ in pairs], [row.mean for _, row in pairs],
               [0.0 if math.isnan(row.stderr) else row.stderr for _, row in pairs])
        for label, pairs in groups.items()
    ]

    refs = [(x, row.reference) for row, x in zip(rows, xs) if math.isfinite(row.reference)]
    reference = refs[0][1] if len({ref for _, ref in refs}) == 1 else None
    if reference is None and refs:
        series.append(Series("reference", [x for x, _ in refs], [ref for _, ref in refs]))
    title = f"{result.spec.kind} (seed {result.spec.seed})"
    _write(render_plot(series, title=title, x_label=x_label, y_label="estimate", reference=reference), out)


def _check_out(out) -> None:
    """Refuse an ``--out`` path that cannot be a file in an existing
    directory, before anything is sampled."""
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        raise ConfigurationError(f"--out must name a file in an existing directory, got {out!r}")


def _write(text: str, out) -> None:
    """Write ``text`` to the path ``out``, or to stdout when there is none."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {out}: {exc.strerror}") from None


def _run_experiment_command(args) -> int:
    # the SVG goes next to --out, so it must not be --out itself
    if args.plot and (not args.out or os.path.splitext(args.out)[1] == ".svg"):
        raise ConfigurationError("--plot needs --out, with an extension other than .svg, to derive the SVG path")
    _check_out(args.out)
    spec = _build_spec(args)
    result = run_experiment(spec, workers=args.workers)
    if args.format == "json":
        _write(json.dumps(result.to_json(), indent=2, allow_nan=False) + "\n", args.out)
    else:
        _write(result.to_csv(), args.out)
    for note in result.warnings:
        print(f"warning: {note}", file=sys.stderr)
    if args.plot:
        # the run succeeded and its table is written: a result with no finite
        # point to draw is a warning, not a usage error
        try:
            emit_plot(result, os.path.splitext(args.out)[0] + ".svg")
        except DomainError as exc:
            print(f"warning: {exc}", file=sys.stderr)
    return 0


def _run_diagnostics_command(args) -> int:
    _check_out(args.out)
    off, diag = _parse_dist(args.dist)
    matrix = sample_wigner(args.n, off, diag, SeedSpec(args.seed))
    record = minor_diagnostics(matrix, args.j, args.energy, args.eps)
    _write(json.dumps(record.to_json(), indent=2, allow_nan=False) + "\n", args.out)
    return 0


def _run_regularity_command(args) -> int:
    (dist,) = _parse_dist(args.dist, (args.role,))
    values = regularity_integrals(dist)
    for key in ("I6", "I4", "I2pp"):
        print(f"{key}={values[key]:.10g}")
    return 0


# -- built-in verification suite --------------------------------------------


def _gue(n: int, seed: int, count: int):
    """The ``count`` GUE draws of size ``n`` that the suite takes from ``seed``."""
    return (sample_gue(n, SeedSpec(seed, i)) for i in range(count))


def _chain_residual() -> float:
    """Worst chain violation over the good-event minor spectra of 40 draws."""
    spectra = (eigvalsh(minor(matrix, 0)) for matrix in _gue(64, 13, 40))
    good = [lam for lam in spectra if good_event(lam, 0.0, 0.5, 64)]
    if not good:
        raise NumericError("no good-event spectrum found for the coefficient chain check")
    return max(chain_violation(lam, 0.0, 0.5, 64) for lam in good)


def run_check_suite(stream=None) -> int:
    """Run every built-in invariant check; print one line per check."""
    stream = stream or sys.stdout
    schur = max(
        schur_resolvent_residual(matrix, i % 32, complex(0.3 * math.sin(i), 1e-3 + 0.1 * i))
        for i, matrix in enumerate(_gue(32, 7, 20))
    )
    interlacing = max(interlacing_gap(matrix, i % 48) for i, matrix in enumerate(_gue(48, 11, 10)))
    checks = [
        ("semicircle identity", semicircle_identity_gap(np.linspace(-1.9, 1.9, 381)), 1e-6),
        ("semicircle normalization", semicircle_normalization_gap(), 1e-8),
        ("schur resolvent residual", schur, 1e-9),
        ("cauchy interlacing", interlacing, 1e-10),
        ("coefficient chains", _chain_residual(), 1e-12),
        ("regularity integrals", regularity_gap(), 1e-4),
    ]
    failures = 0
    for name, residual, bound in checks:
        status = "PASS" if residual <= bound else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{status} {name}: residual {residual:.3e} (bound {bound:.0e})", file=stream)
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return run_check_suite()
        if args.command == "diagnostics":
            return _run_diagnostics_command(args)
        if args.command == "regularity":
            return _run_regularity_command(args)
        return _run_experiment_command(args)
    except (ConfigurationError, DomainError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
