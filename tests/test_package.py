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
    # the stream order lives in ensembles._StreamStack._write; a second
    # function that calls a generator's samplers, or a law's ``sample``, forks
    # that order.  distributions.py holds the samplers themselves.
    root = Path(__file__).resolve().parents[1] / "src" / "wignerlab"
    draws = {"standard_normal", "random", "uniform", "sample"}
    drawers = set()
    for path in sorted(root.glob("*.py")):
        if path.name == "distributions.py":
            continue
        tree = ast.parse(path.read_text())
        calls = {node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute) and node.func.attr in draws}
        methods = {func: f"{cls.name}.{func.name}" for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for func in cls.body if isinstance(func, ast.FunctionDef)}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and calls & set(ast.walk(func)):
                drawers.add(f"{path.stem}.{methods.get(func, func.name)}")
                calls -= set(ast.walk(func))
        if calls:
            drawers.add(f"{path.stem} outside a function")
    assert drawers == {"ensembles._StreamStack._write"}


def test_only_run_experiment_numbers_and_samples_cells():
    # run_experiment's cell loop is the one place that numbers cells and
    # hands out the worker count; a kind that called _chunk_stats itself, or
    # took ``workers``, would fork the stream numbering of the reproducibility
    # contract
    path = Path(__file__).resolve().parents[1] / "src" / "wignerlab" / "experiments.py"
    callers, takers = [], set()
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_chunk_stats":
                callers.append(top.name)
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if "workers" in {arg.arg for arg in args}:
                    takers.add(getattr(node, "name", "<lambda>"))
    assert callers == ["run_experiment"]
    assert takers == {"_chunk_stats", "run_experiment"}


def test_only_the_chunk_plan_reads_its_limits():
    # _chunk_stats decides whether a cell is pooled and _chunk_depth sizes
    # its chunks; each limit has one reader, and a second would be a second
    # plan
    path = Path(__file__).resolve().parents[1] / "src" / "wignerlab" / "experiments.py"
    limits = {"_ONE_BLAS_THREAD_MAX_N", "_POOL_MIN_ROWS", "_STACK_BYTES", "_MAX_CHUNK",
              "_GIL_FREE_SIZE"}
    readers = {name: set() for name in limits}
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in limits:
                readers[node.id].add(getattr(top, "name", "experiments"))
    assert readers == {
        "_ONE_BLAS_THREAD_MAX_N": {"_chunk_stats"},
        "_POOL_MIN_ROWS": {"_chunk_stats"},
        "_STACK_BYTES": {"_chunk_depth"},
        "_MAX_CHUNK": {"_chunk_depth"},
        "_GIL_FREE_SIZE": {"_chunk_depth"},
    }


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


def test_only_eigvalsh_asks_for_the_lapack_input():
    # eigensolver says how LAPACK reads dense(lapack=True); a second caller
    # would read it without that.  Any dense call with a keyword counts:
    # ``lapack`` is dense's only one.  A plain dense() makes a new array, so
    # only code that needs one calls it: a stored matrix is read from its
    # ``array``, and a stream stack, which stores none, is drawn
    root = Path(__file__).resolve().parents[1] / "src" / "wignerlab"
    callers = {True: [], False: []}
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for call in ast.walk(node):
                    if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                            and call.func.attr == "dense"):
                        callers[bool(call.keywords)].append(f"{path.stem}.{node.name}")
    assert callers[True] == ["eigensolver.eigvalsh"]
    assert callers[False] == ["ensembles.minor", "ensembles.sample_wigner"]


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


def test_the_diagnostics_form_lam_minus_E_once():
    # diagnostics._scaled checks eps and N and returns N (lam - E); a second
    # difference with E would be a distance derived without those checks
    path = Path(__file__).resolve().parents[1] / "src" / "wignerlab" / "diagnostics.py"
    sites = []
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                    and getattr(node.right, "id", None) == "E"):
                sites.append(top.name)
    assert sites == ["_scaled"]


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


def code_lines(text: str) -> int:
    """Code lines of a module's source: non-blank lines that are neither
    comments nor docstrings.  ``PYTHONPATH=src python tests/test_package.py``
    prints them for each module of the package, and their total."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#") and number not in docstrings)


def test_code_lines_count_neither_blanks_comments_nor_docstrings():
    text = ('"""Module\ndocstring."""\n\n# a comment\nx = 1  # counted\n\n\ndef f():\n'
            '    """Docstring."""\n    s = """not a\n    docstring"""\n    return s\n')
    assert code_lines(text) == 5


if __name__ == "__main__":
    root = Path(__file__).resolve().parents[1] / "src" / "wignerlab"
    counts = {path.name: code_lines(path.read_text()) for path in sorted(root.glob("*.py"))}
    for name, lines in counts.items():
        print(f"{name:20} {lines:5}")
    print(f"{'total':20} {sum(counts.values()):5}")
