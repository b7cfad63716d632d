"""Numerical laboratory for eigenvalue statistics of Hermitian Wigner matrices.

The package samples Wigner ensembles, diagonalizes them, and measures
averaged spectral observables (density of states, Stieltjes transforms,
interval count moments, unfolded spacings) against semicircle-law
references, from macroscopic windows down to sub-microscopic resolution.
A minor/overlap toolkit exposes the Schur complement decomposition of
resolvent entries, and a reproducible Monte Carlo harness drives the
experiments from a declarative spec or the ``wignerlab`` command line.
"""

from __future__ import annotations

from .diagnostics import (
    GOOD_EVENT_COUNT,
    Coefficients,
    MinorDiagnostics,
    OverlapData,
    Selection,
    coefficients,
    good_event,
    minor_diagnostics,
    overlaps,
    schur_resolvent_residual,
    select_indices,
)
from .distributions import (
    DIAGONAL_VARIANCE,
    OFF_DIAGONAL_VARIANCE,
    DistributionSpec,
    gaussian_diag,
    gaussian_off,
    regularity_integrals,
)
from .eigensolver import Spectrum, eigh, eigvalsh, minor
from .ensembles import HermitianMatrix, sample_gue, sample_wigner
from .errors import ConfigurationError, DomainError, NumericError, WignerLabError
from .experiments import (
    CSV_HEADER,
    EtaSchedule,
    ExperimentResult,
    ExperimentSpec,
    ResultRow,
    rows_from_csv,
    run_experiment,
    worker_count,
)
from .seeding import SeedSpec
from .spectral import (
    DyadicBound,
    F_sc,
    SpacingSample,
    counting,
    dyadic_bound,
    gue_log_density,
    gue_log_normalization,
    im_stieltjes,
    m_sc,
    rho_sc,
    semicircle_quantile,
    sine_kernel_det,
    stieltjes,
    unfolded_spacings,
    wigner_surmise_gue,
    wigner_surmise_gue_cdf,
)
from .svgplot import Series, render_plot
from .version import __version__

__all__ = [
    "__version__",
    "WignerLabError",
    "ConfigurationError",
    "DomainError",
    "NumericError",
    "SeedSpec",
    "DistributionSpec",
    "OFF_DIAGONAL_VARIANCE",
    "DIAGONAL_VARIANCE",
    "gaussian_off",
    "gaussian_diag",
    "regularity_integrals",
    "HermitianMatrix",
    "sample_wigner",
    "sample_gue",
    "Spectrum",
    "eigh",
    "eigvalsh",
    "minor",
    "rho_sc",
    "m_sc",
    "F_sc",
    "semicircle_quantile",
    "counting",
    "im_stieltjes",
    "stieltjes",
    "DyadicBound",
    "dyadic_bound",
    "sine_kernel_det",
    "gue_log_density",
    "gue_log_normalization",
    "SpacingSample",
    "unfolded_spacings",
    "wigner_surmise_gue",
    "wigner_surmise_gue_cdf",
    "GOOD_EVENT_COUNT",
    "OverlapData",
    "overlaps",
    "schur_resolvent_residual",
    "Coefficients",
    "coefficients",
    "good_event",
    "Selection",
    "select_indices",
    "MinorDiagnostics",
    "minor_diagnostics",
    "EtaSchedule",
    "ExperimentSpec",
    "ResultRow",
    "ExperimentResult",
    "run_experiment",
    "rows_from_csv",
    "worker_count",
    "CSV_HEADER",
    "Series",
    "render_plot",
]
