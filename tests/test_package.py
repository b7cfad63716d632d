from __future__ import annotations

import ast
import re
from pathlib import Path

import wignerlab
from wignerlab import (
    diagnostics,
    distributions,
    eigensolver,
    ensembles,
    errors,
    experiments,
    seeding,
    spectral,
    svgplot,
)

MODULES = (diagnostics, distributions, eigensolver, ensembles, errors, experiments, seeding,
           spectral, svgplot)

# the names the package exported before its surface was read from the modules
EARLIER_NAMES = (
    "__version__", "WignerLabError", "ConfigurationError", "DomainError", "NumericError",
    "SeedSpec", "DistributionSpec", "OFF_DIAGONAL_VARIANCE", "DIAGONAL_VARIANCE", "gaussian_off",
    "gaussian_diag", "regularity_integrals", "HermitianMatrix", "sample_wigner", "sample_gue",
    "eigh", "eigvalsh", "minor", "rho_sc", "m_sc", "F_sc", "counting",
    "im_stieltjes", "gue_log_density", "gue_log_normalization", "unfolded_spacings",
    "wigner_surmise_gue", "wigner_surmise_gue_cdf", "GOOD_EVENT_COUNT", "OverlapData", "overlaps",
    "schur_resolvent_residual", "Coefficients", "coefficients", "good_event", "Selection",
    "select_indices", "MinorDiagnostics", "minor_diagnostics", "EtaSchedule", "ExperimentSpec",
    "ResultRow", "ExperimentResult", "run_experiment", "rows_from_csv", "worker_count", "CSV_HEADER",
    "Series", "render_plot",
)


def test_package_exports_exactly_the_modules_all():
    names = wignerlab.__all__
    assert len(names) == len(set(names))
    assert names == ["__version__"] + [name for module in MODULES for name in module.__all__]


def test_every_exported_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(wignerlab, name) is getattr(module, name)
    assert wignerlab.__version__ == experiments.__version__


def test_package_keeps_its_earlier_names():
    assert len(EARLIER_NAMES) == len(set(EARLIER_NAMES)) == 49
    assert set(EARLIER_NAMES) <= set(wignerlab.__all__)
    assert "one_blas_thread" in wignerlab.__all__


def test_only_ensembles_knows_the_packed_layout():
    # the row-major packed order of the upper triangle is read through this
    # helper; a second module that uses it re-derives the layout
    root = Path(__file__).resolve().parents[1] / "src" / "wignerlab"
    users = sorted(
        path.name
        for path in root.glob("*.py")
        if path.name != "ensembles.py" and re.search(r"_row_segment", path.read_text())
    )
    assert users == []


def test_only_eigensolver_binds_the_bundled_openblas():
    # eigensolver._bundled() finds and binds the library once; a second
    # module that names it holds a second lookup
    root = Path(__file__).resolve().parents[1] / "src" / "wignerlab"
    users = sorted(
        path.name
        for path in root.glob("*.py")
        if path.name != "eigensolver.py"
        and re.search(r"numpy\.libs|CDLL|scipy_openblas", path.read_text())
    )
    assert users == []


def test_the_front_end_computes_no_residual_itself():
    # the check suite calls the residual functions of checks.py; these names
    # are what a residual is computed from
    cli = Path(__file__).resolve().parents[1] / "src" / "wignerlab" / "cli.py"
    names = set()
    for node in ast.walk(ast.parse(cli.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert names & {"coefficients", "select_indices", "m_sc", "rho_sc", "_integrate"} == set()


# exported names that nothing in the package or the benchmark calls, each
# with the reason it stays
UNCALLED_EXPORTS = {
    "gue_log_density": "the planned check of the exact GUE density against its N = 2, 3 marginal",
    "gue_log_normalization": "the planned check of the exact GUE density against its N = 2, 3 marginal",
    "wigner_surmise_gue": "the density that the surmise CDF test integrates as its reference",
}


def test_every_exported_name_is_used():
    root = Path(__file__).resolve().parents[1]
    loaded = set()
    for path in sorted((root / "src" / "wignerlab").glob("*.py")) + sorted((root / "perfbench").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
            # a name used only inside its own definition is not used
            loaded |= names - {getattr(top, "name", None)}
    assert sorted(set(wignerlab.__all__) - loaded - UNCALLED_EXPORTS.keys()) == []
