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


def test_only_one_function_draws_from_the_streams():
    # the stream order lives in ensembles._draws; a second function that
    # calls a generator's samplers, or a law's ``sample``, forks that order.
    # distributions.py holds the samplers themselves.
    root = Path(__file__).resolve().parents[1] / "src" / "wignerlab"
    draws = {"standard_normal", "random", "uniform", "sample"}
    drawers = set()
    for path in sorted(root.glob("*.py")):
        if path.name == "distributions.py":
            continue
        tree = ast.parse(path.read_text())
        calls = {node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute) and node.func.attr in draws}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and calls & set(ast.walk(func)):
                drawers.add(f"{path.stem}.{func.name}")
                calls -= set(ast.walk(func))
        if calls:
            drawers.add(f"{path.stem} outside a function")
    assert drawers == {"ensembles._draws"}


def test_only_the_element_writer_builds_svg_markup():
    # svgplot._tag owns the attribute, number and escaping rules of every
    # element; render_plot writes only the root <svg ...> and its close.
    # Markup is a string that opens a tag: "<" then a name, "/" or an
    # f-string field (written "{}" here), so _escape's bare "<" is not.
    path = Path(__file__).resolve().parents[1] / "src" / "wignerlab" / "svgplot.py"
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.JoinedStr):
            parts = node.values
            text = "".join(p.value if isinstance(p, ast.Constant) else "{}" for p in parts)
            children = [p.value for p in parts if isinstance(p, ast.FormattedValue)]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text, children = node.value, []
        else:
            text, children = "", list(ast.iter_child_nodes(node))
        if re.match(r"<[\w/{]", text):
            found.append((where, text))
        for child in children:
            visit(child, where)

    visit(ast.parse(path.read_text()), "svgplot")
    assert {where for where, _ in found} == {"_tag", "render_plot"}
    assert sorted(text for where, text in found if where == "render_plot") == [
        "</svg>",
        '<svg xmlns="http://www.w3.org/2000/svg" width="{}" height="{}" viewBox="0 0 {} {}">',
    ]


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
