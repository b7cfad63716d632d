"""Command-line front end for the Wigner ensemble laboratory.

Subcommands map onto the Monte Carlo experiment kinds (``dos``,
``stieltjes``, ``wegner``, ``deriv``, ``sweep``, ``spacing``) plus three
utilities: ``diagnostics`` emits the minor/overlap record of a single
sampled matrix as JSON, ``regularity`` prints the smoothness integrals of
an entry law, and ``check`` runs the built-in verification suite.

Results are written as CSV (default) or JSON, with numbers in shortest
round-trip decimal form so output bytes are stable across platforms.
Exit codes: 0 success, 1 numeric failure or failed self-check, 2 usage
or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .diagnostics import coefficients, minor_diagnostics, schur_resolvent_residual, select_indices
from .distributions import DistributionSpec, gaussian_diag, gaussian_off, regularity_integrals
from .eigensolver import eigvalsh, minor
from .ensembles import sample_gue, sample_wigner
from .errors import ConfigurationError, DomainError, NumericError
from .experiments import (
    EtaSchedule,
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)
from .seeding import SeedSpec
from .spectral import m_sc, rho_sc
from .svgplot import Series, render_plot
from .version import __version__

__all__ = ["main", "emit_plot", "run_check_suite"]

_KIND_BY_COMMAND = {
    "dos": "dos",
    "stieltjes": "im_stieltjes",
    "wegner": "wegner",
    "deriv": "derivative",
    "sweep": "scale_sweep",
    "spacing": "spacing",
}


def _parse_dist(text: str, roles: tuple = ("off_diagonal", "diagonal")) -> tuple:
    """Parse ``--dist`` into one entry law per role in ``roles``.

    The text is a law name with optional ``:p1,p2,...`` parameters, applied
    to every role, or JSON: ``{"off": law, "diag": law}`` for the two
    roles, one law object for a single role.  Malformed text raises
    :class:`ConfigurationError`.
    """
    text = text.strip()
    if not text.startswith("{"):
        name, _, rest = text.partition(":")
        params = tuple(p for p in rest.split(",") if p.strip())
        return tuple(DistributionSpec(name, params, role) for role in roles)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"bad --dist JSON: {exc}") from None
    if len(roles) == 1:
        return (DistributionSpec.from_json(obj),)
    if not isinstance(obj, dict) or set(obj) != {"off", "diag"}:
        raise ConfigurationError("--dist JSON must have exactly the keys 'off' and 'diag'")
    return DistributionSpec.from_json(obj["off"]), DistributionSpec.from_json(obj["diag"])


def _load_spec_json(value: str) -> dict:
    stripped = value.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"bad inline spec JSON: {exc}") from None
    else:
        if not os.path.exists(value):
            raise ConfigurationError(f"spec file not found: {value}")
        with open(value, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"bad spec file {value}: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigurationError("experiment spec must be a JSON object")
    return obj


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--spec", help="JSON experiment spec (path or inline object)")
    sub.add_argument("--n", type=int, nargs="+", help="matrix size(s)")
    sub.add_argument("--samples", type=int, help="Monte Carlo samples per parameter cell")
    sub.add_argument("--energy", type=float, nargs="+", help="bulk energy grid")
    sub.add_argument("--eta", type=float, nargs="+", help="constant resolution scale(s)")
    sub.add_argument(
        "--eta-over-n", type=float, nargs="+", dest="eta_over_n",
        help="resolution coefficient(s) K giving eta = K/N",
    )
    sub.add_argument(
        "--eta-over-n32", type=float, nargs="+", dest="eta_over_n32",
        help="resolution coefficient(s) c giving eta = c/N^1.5",
    )
    sub.add_argument("--dist", help="entry law for both roles, e.g. gaussian or smoothed_uniform:0.4")
    sub.add_argument("--seed", type=int, help="master seed (default 42)")
    sub.add_argument("--kappa", type=float, help="bulk margin: energies stay in (-2+kappa, 2-kappa)")
    sub.add_argument("--workers", type=int, help="deprecated; ignored, runs are serial")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--plot", action="store_true", help="also write an SVG plot next to --out")
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerlab",
        description="Monte Carlo laboratory for eigenvalue statistics of Wigner matrices",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for cmd, blurb in (
        ("dos", "averaged density of states over an energy/eta grid"),
        ("stieltjes", "imaginary part of the empirical Stieltjes transform"),
        ("wegner", "interval count moments for a decreasing eta schedule"),
        ("deriv", "common-random-number energy derivative of Im m_N"),
        ("sweep", "density of states across eta schedules and sizes"),
        ("spacing", "unfolded nearest-neighbour spacings in a bulk window"),
    ):
        sub = subs.add_parser(cmd, help=blurb)
        _add_experiment_flags(sub)
        if cmd == "deriv":
            sub.add_argument(
                "--delta-e", type=float, dest="delta_e",
                help="constant finite-difference step",
            )
            sub.add_argument(
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
    diag.add_argument("--dist", help="entry law for both roles (default gaussian)")
    diag.add_argument("--seed", type=int, default=42, help="master seed")
    diag.add_argument("--out", help="output path (default stdout)")

    reg = subs.add_parser("regularity", help="smoothness integrals I6, I4, I2pp of an entry law")
    reg.add_argument("--dist", default="gaussian", help="entry law, e.g. gaussian or smoothed_uniform:0.4")
    reg.add_argument(
        "--role", choices=("off_diagonal", "diagonal"), default="off_diagonal",
        help="entry role fixing the target variance (default off_diagonal)",
    )

    subs.add_parser("check", help="run the built-in verification suite")

    return parser


def _schedules_from_args(args) -> tuple:
    etas = []
    if args.eta:
        etas.extend(EtaSchedule("const", v) for v in args.eta)
    if args.eta_over_n:
        etas.extend(EtaSchedule("over_n", v) for v in args.eta_over_n)
    if getattr(args, "eta_over_n32", None):
        etas.extend(EtaSchedule("over_n32", v) for v in args.eta_over_n32)
    return tuple(etas)


def _build_spec(args) -> ExperimentSpec:
    kind = _KIND_BY_COMMAND[args.command]
    base = None
    if args.spec:
        obj = _load_spec_json(args.spec)
        obj.setdefault("kind", kind)
        base = ExperimentSpec.from_json(obj)
        if base.kind != kind:
            raise ConfigurationError(
                f"spec kind {base.kind!r} does not match subcommand {args.command!r}"
            )

    overrides = {}
    if args.n is not None:
        overrides["n"] = tuple(args.n)
    if args.samples is not None:
        overrides["samples"] = args.samples
    if args.energy is not None:
        overrides["energy"] = tuple(args.energy)
    schedules = _schedules_from_args(args)
    if schedules:
        overrides["eta"] = schedules
    if args.dist is not None:
        overrides["dist"] = _parse_dist(args.dist)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.kappa is not None:
        overrides["kappa"] = args.kappa

    extra = dict(base.extra) if base is not None else {}
    if kind == "derivative":
        if getattr(args, "delta_e", None) is not None:
            extra["delta_e"] = {"kind": "const", "coef": args.delta_e}
        elif getattr(args, "delta_e_over_n", None) is not None:
            extra["delta_e"] = {"kind": "over_n", "coef": args.delta_e_over_n}
        elif "delta_e" not in extra:
            extra["delta_e"] = {"kind": "over_n", "coef": 0.25}
    if kind == "spacing" and getattr(args, "window", None) is not None:
        extra["window"] = list(args.window)
    if extra or base is not None:
        overrides["extra"] = extra

    if base is not None:
        return dataclasses.replace(base, **overrides)

    for req in ("n", "samples"):
        if req not in overrides:
            raise ConfigurationError(f"--{req} is required when no --spec is given")
    return ExperimentSpec(kind=kind, **overrides)


def _sweep_axis(rows) -> tuple[str, list]:
    ns = {row.n for row in rows}
    energies = {row.energy for row in rows}
    etas = {row.eta for row in rows}
    if len(ns) > 1:
        return "N", [float(row.n) for row in rows]
    if len(energies) > 1:
        return "E", [row.energy for row in rows]
    if len(etas) > 1:
        return "eta", [row.eta for row in rows]
    return "E", [row.energy for row in rows]


def emit_plot(result: ExperimentResult, out: str) -> None:
    """Write an SVG plot of estimate vs. the swept parameter."""
    rows = result.rows
    if not rows:
        raise DomainError("nothing to plot: result has no rows")
    x_label, xs = _sweep_axis(rows)

    groups: dict = {}
    for row, x in zip(rows, xs):
        key = row.extras.get("series") or row.extras.get("statistic") or "estimate"
        groups.setdefault(key, []).append((x, row))

    series = []
    for label, pairs in groups.items():
        series.append(
            Series(
                label=str(label),
                x=[p[0] for p in pairs],
                y=[p[1].mean for p in pairs],
                yerr=[0.0 if math.isnan(p[1].stderr) else p[1].stderr for p in pairs],
            )
        )

    refs = [row.reference for row in rows if math.isfinite(row.reference)]
    reference = None
    if refs and len(set(refs)) == 1:
        reference = refs[0]
    elif refs:
        ref_pairs = [(x, row.reference) for row, x in zip(rows, xs) if math.isfinite(row.reference)]
        series.append(
            Series(label="reference", x=[p[0] for p in ref_pairs], y=[p[1] for p in ref_pairs])
        )

    svg = render_plot(
        series,
        title=f"{result.spec.kind} (seed {result.spec.seed})",
        x_label=x_label,
        y_label="estimate",
        reference=reference,
    )
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(svg)


def _emit_result(result: ExperimentResult, args) -> None:
    if args.format == "json":
        text = json.dumps(result.to_json(), indent=2) + "\n"
    else:
        text = result.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for note in result.warnings:
        print(f"warning: {note}", file=sys.stderr)
    if args.plot:
        if not args.out:
            raise ConfigurationError("--plot needs --out to derive the SVG path")
        root, _ = os.path.splitext(args.out)
        emit_plot(result, root + ".svg")


def _run_experiment_command(args) -> int:
    spec = _build_spec(args)
    result = run_experiment(spec, workers=args.workers)
    _emit_result(result, args)
    return 0


def _run_diagnostics_command(args) -> int:
    if args.dist is not None:
        off, diag = _parse_dist(args.dist)
    else:
        off, diag = gaussian_off(), gaussian_diag()
    matrix = sample_wigner(args.n, off, diag, SeedSpec(args.seed))
    record = minor_diagnostics(matrix, args.j, args.energy, args.eps)
    text = json.dumps(record.to_json(), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _run_regularity_command(args) -> int:
    (dist,) = _parse_dist(args.dist, (args.role,))
    values = regularity_integrals(dist)
    for key in ("I6", "I4", "I2pp"):
        print(f"{key}={values[key]:.10g}")
    return 0


# -- built-in verification suite --------------------------------------------


def _check_semicircle() -> tuple[float, float]:
    from scipy import integrate

    grid = np.linspace(-1.9, 1.9, 381)
    resid = max(
        abs(math.pi * rho_sc(E) - m_sc(complex(E, 1e-9)).imag) for E in grid
    )
    total, _ = integrate.quad(rho_sc, -2.0, 2.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    return resid, abs(total - 1.0)


def _check_schur(seed: int = 7) -> float:
    worst = 0.0
    for i in range(20):
        matrix = sample_gue(32, SeedSpec(seed, i))
        j = i % 32
        z = complex(0.3 * math.sin(i), 1e-3 + 0.1 * i)
        worst = max(worst, schur_resolvent_residual(matrix, j, z))
    return worst


def _check_interlacing(seed: int = 11) -> float:
    worst = 0.0
    for i in range(10):
        matrix = sample_gue(48, SeedSpec(seed, i))
        mu = eigvalsh(matrix).eigenvalues
        lam = eigvalsh(minor(matrix, i % 48)).eigenvalues
        worst = max(worst, float(np.max(np.maximum(mu[:-1] - lam, lam - mu[1:]))))
    return max(worst, 0.0)


def _check_coefficient_chains(seed: int = 13) -> float:
    eps = 0.5
    worst = 0.0
    found = 0
    for i in range(40):
        matrix = sample_gue(64, SeedSpec(seed, i))
        lam = eigvalsh(minor(matrix, 0)).eigenvalues
        try:
            sel = select_indices(lam, 0.0, eps, 64)
        except DomainError:
            continue
        found += 1
        coeffs = [coefficients(float(lam[b]), 0.0, eps, 64) for b in sel.beta[1:]]
        cs = [co.c for co in coeffs]
        ds = [abs(co.d) for co in coeffs]
        delta = sel.delta
        chain = [
            1.0 / (2.0 * delta) - ds[-1],
            eps / (2.0 * delta * delta) - cs[-1],
            max(ds) - 1.0 / eps,
            max(cs) - 1.0 / eps,
        ]
        chain.extend(ds[k + 1] - ds[k] for k in range(len(ds) - 1))
        chain.extend(cs[k + 1] - cs[k] for k in range(len(cs) - 1))
        worst = max(worst, max(chain))
    if found == 0:
        raise NumericError("no good-event spectrum found for the coefficient chain check")
    return max(worst, 0.0)


def _check_regularity() -> float:
    values = regularity_integrals(gaussian_off())
    return max(
        abs(values["I6"] - 120.0) / 120.0,
        abs(values["I4"] - 12.0) / 12.0,
        abs(values["I2pp"] - 8.0) / 8.0,
    )


def run_check_suite(stream=None) -> int:
    """Run every built-in invariant check; print one line per check."""
    stream = stream or sys.stdout
    identity, normalization = _check_semicircle()
    checks = [
        ("semicircle identity", identity, 1e-6),
        ("semicircle normalization", normalization, 1e-8),
        ("schur resolvent residual", _check_schur(), 1e-9),
        ("cauchy interlacing", _check_interlacing(), 1e-10),
        ("coefficient chains", _check_coefficient_chains(), 1e-12),
        ("regularity integrals", _check_regularity(), 1e-4),
    ]
    failures = 0
    for name, residual, bound in checks:
        status = "PASS" if residual <= bound else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{status} {name}: residual {residual:.3e} (bound {bound:.0e})", file=stream)
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return run_check_suite()
        if args.command == "diagnostics":
            return _run_diagnostics_command(args)
        if args.command == "regularity":
            return _run_regularity_command(args)
        return _run_experiment_command(args)
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
