from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import xml.dom.minidom

import numpy as np
import pytest

from wignerlab import DomainError, NumericError, Series, render_plot, rows_from_csv
from wignerlab.cli import emit_plot, main, run_check_suite
from wignerlab.distributions import DistributionSpec
from wignerlab.experiments import EXPERIMENT_KINDS, EtaSchedule, ExperimentResult, ExperimentSpec, ResultRow

import wignerlab.cli as cli_module
import wignerlab.ensembles as ensembles_module
import wignerlab.experiments as experiments_module
import wignerlab.svgplot as svgplot


def test_dos_writes_deterministic_csv(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["dos", "--n", "24", "--samples", "16", "--energy", "0",
            "--eta-over-n", "2", "--seed", "42"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.splitlines()[0] == "n,energy,eta,mean,stderr,samples,reference,ratio"
    rows = rows_from_csv(text)
    assert rows[0].n == 24
    assert rows[0].samples == 16


def test_main_calls_in_one_process_match_separate_processes(capsys):
    # main builds its parser once per process; a flag of one call must not
    # reach the next, and a usage error still exits 2
    calls = [
        ["dos", "--n", "12", "--samples", "6", "--energy", "0", "0.5", "--eta", "0.3",
         "--seed", "7", "--workers", "1"],
        ["stieltjes", "--n", "12", "--samples", "6", "--eta-over-n", "1", "--seed", "7"],
        ["dos", "--n", "12", "--samples", "6", "--eta-over-n", "2"],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    separate = [subprocess.run([sys.executable, "-m", "wignerlab.cli", *argv], env=env,
                               stdout=subprocess.PIPE, text=True, check=True, timeout=120).stdout
                for argv in calls]
    assert cli_module._build_parser() is cli_module._build_parser()
    together = []
    for argv in calls:
        assert main(argv) == 0
        together.append(capsys.readouterr().out)
        with pytest.raises(SystemExit) as exc:
            main(["dos", "--n", "8", "--samples", "two"])
        assert exc.value.code == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err
    assert together == separate


def test_csv_parse_emit_round_trip(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["dos", "--n", "16", "--samples", "4", "--energy", "0", "0.5",
                 "--eta", "0.25", "--seed", "3", "--out", str(out)]) == 0
    text = out.read_text()
    rows = rows_from_csv(text)
    # re-emitting the parsed numbers reproduces the file exactly
    lines = [text.splitlines()[0]]
    for r in rows:
        lines.append(",".join([
            str(r.n), repr(r.energy), repr(r.eta), repr(r.mean), repr(r.stderr),
            str(r.samples), repr(r.reference), repr(r.ratio),
        ]))
    assert "\n".join(lines) + "\n" == text


def test_json_output_shape(tmp_path, capsys):
    assert main(["stieltjes", "--n", "16", "--samples", "4", "--energy", "0",
                 "--eta-over-n", "1", "--seed", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) == {"spec", "rows", "wall_time_s", "version", "warnings"}
    assert obj["spec"]["kind"] == "im_stieltjes"


def test_plot_emission(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "12", "16", "--samples", "4", "--energy", "0",
                 "--eta", "0.5", "--eta-over-n", "2", "--seed", "4",
                 "--out", str(out), "--plot"]) == 0
    svg = (tmp_path / "sweep.svg").read_text()
    doc = xml.dom.minidom.parseString(svg)
    assert doc.documentElement.tagName == "svg"
    # one polyline per eta schedule
    assert svg.count("<polyline") == 2


def test_plot_single_row(tmp_path):
    out = tmp_path / "one.csv"
    assert main(["dos", "--n", "16", "--samples", "2", "--energy", "0",
                 "--eta", "0.5", "--seed", "4", "--out", str(out), "--plot"]) == 0
    svg = (tmp_path / "one.svg").read_text()
    xml.dom.minidom.parseString(svg)
    assert "circle" in svg
    assert "stroke-dasharray" in svg  # reference line


@pytest.mark.parametrize("energies, etas, refs, axis", [
    ([0.0, 0.5, 1.0], [0.5] * 3, [0.31, 0.30, 0.27], "E"),
    ([0.0] * 3, [0.5, 0.25, 0.125], [0.3] * 3, "eta"),
    ([0.0] * 3, [0.5, 0.25, 0.125], [0.31, 0.30, float("nan")], "eta"),
], ids=["energy-axis-references-differ", "eta-axis-one-reference", "eta-axis-references-differ"])
def test_emit_plot_axis_and_reference(energies, etas, refs, axis, tmp_path, monkeypatch):
    # one finite reference is a dashed line; several are a "reference" series
    # over the finite ones
    drawn = {}

    def render(series, **kwargs):
        drawn.update(series=series, **kwargs)
        return "<svg/>"

    monkeypatch.setattr(cli_module, "render_plot", render)
    rows = [ResultRow(8, E, eta, 0.3, 0.01, 2, ref, 0.3 / ref) for E, eta, ref in zip(energies, etas, refs)]
    spec = ExperimentSpec(kind="dos", n=8, samples=2, eta=[0.5])
    emit_plot(ExperimentResult(spec, rows, 0.0), str(tmp_path / "p.svg"))
    assert (tmp_path / "p.svg").read_text() == "<svg/>"
    assert drawn["x_label"] == axis
    xs = energies if axis == "E" else etas
    assert [(s.label, s.x) for s in drawn["series"][:1]] == [("estimate", xs)]
    finite = [(x, r) for x, r in zip(xs, refs) if math.isfinite(r)]
    if len({r for _, r in finite}) == 1:
        assert drawn["reference"] == finite[0][1]
        assert len(drawn["series"]) == 1
    else:
        assert drawn["reference"] is None
        (extra,) = drawn["series"][1:]
        assert (extra.label, list(zip(extra.x, extra.y))) == ("reference", finite)


def test_plot_with_no_finite_point_warns_and_exits_zero(tmp_path, capsys):
    # the run succeeded and its CSV is written, so nothing to draw is a
    # warning and no SVG, not a usage error; library callers still get the
    # DomainError
    out = tmp_path / "r.csv"
    assert main(["spacing", "--n", "1", "--samples", "2", "--out", str(out), "--plot"]) == 0
    assert len(rows_from_csv(out.read_text())) == 1
    assert not (tmp_path / "r.svg").exists()
    assert capsys.readouterr().err == (
        "warning: no eigenvalues fell inside the spacing window at N=1\n"
        "warning: nothing to plot: series contain no finite points\n"
    )
    nan = float("nan")
    result = ExperimentResult(ExperimentSpec(kind="spacing", n=1, samples=2),
                              [ResultRow(1, 0.0, 1.6, nan, nan, 0, 1.0, nan)], 0.0)
    with pytest.raises(DomainError, match="nothing to plot"):
        emit_plot(result, str(tmp_path / "lib.svg"))
    assert not (tmp_path / "lib.svg").exists()


def test_plot_requires_out(capsys):
    assert main(["dos", "--n", "12", "--samples", "2", "--energy", "0",
                 "--eta", "0.5", "--seed", "1", "--plot"]) == 2
    # refused before the run: nothing is written to stdout
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--plot needs --out" in captured.err


def test_spec_file_with_flag_overrides(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "kind": "dos", "n": [16], "samples": 2, "energy": [0.0],
        "eta": [{"kind": "over_n", "coef": 2}], "seed": 5,
    }))
    out = tmp_path / "o.csv"
    assert main(["dos", "--spec", str(spec_path), "--samples", "6",
                 "--out", str(out)]) == 0
    rows = rows_from_csv(out.read_text())
    assert rows[0].samples == 6  # inline flag wins
    assert rows[0].n == 16      # spec file field survives


def _built_spec(argv, monkeypatch):
    """The :class:`ExperimentSpec` that ``main(argv)`` hands to the runner."""
    built = []

    def capture(spec, workers=None):
        built.append(spec)
        return ExperimentResult(spec, [], 0.0)

    monkeypatch.setattr(cli_module, "run_experiment", capture)
    assert main(argv) == 0
    (spec,) = built
    return spec


SPEC_FILE = {"kind": "dos", "n": [16], "samples": 2, "energy": [0.0],
             "eta": [{"kind": "over_n", "coef": 2}], "seed": 5}
SMOOTH = DistributionSpec("smoothed_uniform", (0.3,), "off_diagonal")
GAUSS_DIAG = DistributionSpec("gaussian", (), "diagonal")
SPEC_EQUIVALENCE = [
    # flags only
    (["dos", "--n", "16", "32", "--samples", "4", "--energy", "0", "0.5", "--eta", "0.25",
      "--seed", "3", "--kappa", "0.4"],
     ExperimentSpec(kind="dos", n=(16, 32), samples=4, energy=(0.0, 0.5),
                    eta=(EtaSchedule("const", 0.25),), seed=3, kappa=0.4)),
    # a spec file plus overrides: flags win, the file's other fields survive
    (["dos", "--spec", "SPEC_FILE", "--samples", "6", "--energy", "0.25", "--eta", "0.5"],
     ExperimentSpec(kind="dos", n=(16,), samples=6, energy=(0.25,),
                    eta=(EtaSchedule("const", 0.5),), seed=5)),
    (["dos", "--spec", "SPEC_FILE"],
     ExperimentSpec(kind="dos", n=(16,), samples=2, energy=(0.0,),
                    eta=(EtaSchedule("over_n", 2.0),), seed=5)),
    # an inline spec takes its kind from the subcommand
    (["wegner", "--spec", json.dumps({"n": [8], "samples": 2, "eta": [0.5, {"over_n": 1}]})],
     ExperimentSpec(kind="wegner", n=(8,), samples=2,
                    eta=(EtaSchedule("const", 0.5), EtaSchedule("over_n", 1.0)))),
    # the three eta flags give const, over_n, over_n32 rows in that order
    (["sweep", "--n", "8", "--samples", "2", "--eta-over-n32", "1", "--eta", "0.5", "0.25",
      "--eta-over-n", "2"],
     ExperimentSpec(kind="scale_sweep", n=(8,), samples=2,
                    eta=(EtaSchedule("const", 0.5), EtaSchedule("const", 0.25),
                         EtaSchedule("over_n", 2.0), EtaSchedule("over_n32", 1.0)))),
    # deriv: the default step, a constant one and an over_n one
    (["deriv", "--n", "8", "--samples", "2", "--eta-over-n", "0.5"],
     ExperimentSpec(kind="derivative", n=(8,), samples=2, eta=(EtaSchedule("over_n", 0.5),),
                    extra={"delta_e": {"kind": "over_n", "coef": 0.25}})),
    (["deriv", "--n", "8", "--samples", "2", "--eta-over-n", "0.5", "--delta-e", "0.01"],
     ExperimentSpec(kind="derivative", n=(8,), samples=2, eta=(EtaSchedule("over_n", 0.5),),
                    extra={"delta_e": {"kind": "const", "coef": 0.01}})),
    (["deriv", "--n", "8", "--samples", "2", "--eta-over-n", "0.5", "--delta-e-over-n", "0.5"],
     ExperimentSpec(kind="derivative", n=(8,), samples=2, eta=(EtaSchedule("over_n", 0.5),),
                    extra={"delta_e": {"kind": "over_n", "coef": 0.5}})),
    # a step in the spec is kept unless a flag replaces it
    (["deriv", "--spec", json.dumps({"n": [8], "samples": 2, "eta": [0.1],
                                     "extra": {"delta_e": 0.02, "note": 1}})],
     ExperimentSpec(kind="derivative", n=(8,), samples=2, eta=(EtaSchedule("const", 0.1),),
                    extra={"delta_e": 0.02, "note": 1})),
    (["spacing", "--n", "16", "--samples", "2", "--window", "-0.5", "0.5"],
     ExperimentSpec(kind="spacing", n=(16,), samples=2, extra={"window": [-0.5, 0.5]})),
    # --dist as text and as JSON
    (["dos", "--n", "8", "--samples", "2", "--eta", "0.5", "--dist", "smoothed_uniform:0.3"],
     ExperimentSpec(kind="dos", n=(8,), samples=2, eta=(EtaSchedule("const", 0.5),),
                    dist=(SMOOTH, DistributionSpec("smoothed_uniform", (0.3,), "diagonal")))),
    (["dos", "--n", "8", "--samples", "2", "--eta", "0.5", "--dist", json.dumps({
        "off": {"kind": "smoothed_uniform", "params": [0.3], "role": "off_diagonal"},
        "diag": {"kind": "gaussian", "role": "diagonal"}})],
     ExperimentSpec(kind="dos", n=(8,), samples=2, eta=(EtaSchedule("const", 0.5),),
                    dist=(SMOOTH, GAUSS_DIAG))),
    (["dos", "--spec", json.dumps({"n": [8], "samples": 2, "eta": [0.5], "dist": {
        "off": {"kind": "smoothed_uniform", "params": [0.3], "role": "off_diagonal"},
        "diag": {"kind": "smoothed_uniform", "params": [0.3], "role": "diagonal"}}}),
      "--dist", "gaussian"],
     ExperimentSpec(kind="dos", n=(8,), samples=2, eta=(EtaSchedule("const", 0.5),))),
]


@pytest.mark.parametrize("argv,expected", SPEC_EQUIVALENCE)
def test_argv_builds_the_expected_spec(argv, expected, tmp_path, monkeypatch):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC_FILE))
    argv = [str(spec_path) if a == "SPEC_FILE" else a for a in argv]
    assert _built_spec(argv, monkeypatch) == expected


@pytest.mark.parametrize("argv,expected", [
    # flags fill in fields the spec leaves out, and replace invalid ones
    (["dos", "--spec", json.dumps({"samples": 2, "eta": [0.5]}), "--n", "8"],
     ExperimentSpec(kind="dos", n=(8,), samples=2, eta=(EtaSchedule("const", 0.5),))),
    (["dos", "--spec", json.dumps({"n": [8], "samples": 2}), "--eta", "0.5"],
     ExperimentSpec(kind="dos", n=(8,), samples=2, eta=(EtaSchedule("const", 0.5),))),
    (["dos", "--spec", json.dumps({"n": [0], "samples": 2, "eta": [0.5]}), "--n", "8"],
     ExperimentSpec(kind="dos", n=(8,), samples=2, eta=(EtaSchedule("const", 0.5),))),
])
def test_flags_complete_a_partial_spec(argv, expected, monkeypatch):
    assert _built_spec(argv, monkeypatch) == expected


@pytest.mark.parametrize("argv", [
    ["dos", "--eta", "0.05"],
    ["deriv", "--eta", "0.05"],
    ["spacing", "--window", "-0.5", "0.5"],
])
def test_spec_extra_must_be_a_dict(argv, capsys):
    spec = json.dumps({"n": [8], "samples": 2, "extra": []})
    assert main(argv[:1] + ["--spec", spec] + argv[1:]) == 2
    assert capsys.readouterr().err == "error: extra must be a dict, got list\n"


@pytest.mark.parametrize("argv, key", [
    (["dos", "--eta", "0.5"], "window"),
    (["deriv", "--eta", "0.05"], "delta"),
    (["spacing", "--window", "-0.5", "0.5"], "windw"),
])
def test_unknown_extra_key_exits_two(argv, key, capsys):
    spec = json.dumps({"n": [8], "samples": 2, "extra": {key: 0.5}})
    assert main(argv[:1] + ["--spec", spec] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown extra keys ['{key}']")
    assert "Traceback" not in err


def test_delta_e_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["deriv", "--n", "8", "--samples", "2", "--eta", "0.05",
              "--delta-e", "0.01", "--delta-e-over-n", "0.5"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_dist_pair_takes_roles_from_keys(monkeypatch, capsys):
    base = ["dos", "--n", "8", "--samples", "2", "--eta", "0.5", "--dist"]
    pair = json.dumps({"off": {"kind": "gaussian"}, "diag": {"kind": "smoothed_uniform", "params": [0.3]}})
    spec = _built_spec(base + [pair], monkeypatch)
    assert spec.dist == (DistributionSpec("gaussian", (), "off_diagonal"),
                         DistributionSpec("smoothed_uniform", (0.3,), "diagonal"))
    # a law whose own role contradicts its key is refused
    pair = json.dumps({"off": {"kind": "gaussian", "role": "diagonal"}, "diag": {"kind": "gaussian"}})
    assert main(base + [pair]) == 2
    assert capsys.readouterr().err.startswith("error: dist must pair an off_diagonal law")
    assert main(["diagnostics", "--n", "8", "--dist", pair]) == 2
    assert capsys.readouterr().err.startswith("error: off-diagonal law must have role")


def test_mixture_that_cannot_be_normalised_exits_two(capsys):
    assert main(["dos", "--n", "8", "--samples", "2", "--eta", "0.5",
                 "--dist", "gaussian_mixture:1,1e200,1e-200,1,-1e200,1e-200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: gaussian_mixture scales cannot be rescaled")
    assert "Traceback" not in captured.err
    # extreme magnitudes alone are no reason to refuse a mixture
    assert main(["dos", "--n", "8", "--samples", "2", "--eta", "0.5",
                 "--dist", "gaussian_mixture:1e308,0,1,1e308,0,2"]) == 0


def test_spec_kind_mismatch_rejected(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "kind": "dos", "n": [16], "samples": 2, "eta": [0.5],
    }))
    assert main(["wegner", "--spec", str(spec_path)]) == 2


def test_inline_spec_json():
    spec = json.dumps({"n": [12], "samples": 2, "energy": [0.0], "eta": [0.5]})
    assert main(["dos", "--spec", spec]) == 0


def test_missing_spec_file():
    assert main(["dos", "--spec", "/nonexistent/spec.json"]) == 2


def test_usage_errors_exit_two(capsys, tmp_path, monkeypatch):
    assert main(["dos", "--samples", "4", "--energy", "0", "--eta", "0.5"]) == 2
    assert main(["dos", "--n", "16", "--samples", "4", "--energy", "1.9",
                 "--eta", "0.5"]) == 2
    # non-numeric or boolean spec fields are configuration errors, not crashes
    base = {"n": [8], "samples": 2, "eta": [0.5]}
    for command, bad in (
        ("dos", {"kappa": "x"}), ("dos", {"kappa": True}), ("dos", {"energy": "x"}),
        ("dos", {"energy": [True]}), ("dos", {"eta": [{"over_n": "x"}]}),
        ("deriv", {"eta": [0.05], "extra": {"delta_e": {"over_n": "x"}}}),
        # a kind or role that is not a string, and a malformed dist
        ("dos", {"eta": [{"kind": ["const"], "coef": 0.5}]}),
        ("dos", {"eta": [{"kind": {"a": 1}, "coef": 0.5}]}),
        ("deriv", {"eta": [0.05], "extra": {"delta_e": {"kind": ["const"], "coef": 0.5}}}),
        ("deriv", {"eta": [0.05], "extra": {"delta_e": {"kind": {"a": 1}, "coef": 0.5}}}),
        ("dos", {"dist": {"off": {"kind": "gaussian", "role": ["diagonal"]}, "diag": {"kind": "gaussian"}}}),
        ("dos", {"dist": {"off": {"kind": "gaussian"}, "diag": {"kind": "gaussian", "role": {"r": 1}}}}),
        ("dos", {"dist": {"off": {"kind": "gaussian"}}}),
        ("dos", {"dist": {"off": "gaussian", "diag": {"kind": "gaussian"}}}),
        ("dos", {"dist": {"off": {"params": []}, "diag": {"kind": "gaussian"}}}),
        ("dos", {"energy": []}), ("dos", {"kappa": 0.0}), ("dos", {"kappa": 2.0}),
    ):
        capsys.readouterr()
        assert main([command, "--spec", json.dumps({**base, **bad})]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # text that is not JSON, or JSON that is not an object, where JSON is read
    (tmp_path / "text.json").write_text("not json")
    (tmp_path / "array.json").write_text("[1, 2]")
    run = ["dos", "--n", "8", "--samples", "2", "--eta", "0.5"]
    for argv in (
        run + ["--dist", "{not json"], ["regularity", "--dist", "{not json"],
        ["dos", "--spec", "{not json"],
        ["dos", "--spec", str(tmp_path / "text.json")], ["dos", "--spec", str(tmp_path / "array.json")],
        ["regularity", "--dist", json.dumps({"kind": "gaussian", "role": ["diagonal"]})],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # a spec path that is a directory, and an --out that cannot be written,
    # which is refused before anything is sampled
    assert main(["dos", "--spec", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    (tmp_path / "p.svg").mkdir()
    assert main(["dos", "--n", "8", "--samples", "2", "--eta", "0.5",
                 "--out", str(tmp_path / "p.csv"), "--plot"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    monkeypatch.setattr(cli_module, "run_experiment", lambda *a, **k: pytest.fail("sampled"))
    for out in ([str(tmp_path / "missing" / "x.csv")], [str(tmp_path)],
                # the SVG path of --plot would be --out itself
                [str(tmp_path / "r.svg"), "--plot"], [str(tmp_path / "r.SVG"), "--plot"],
                [str(tmp_path / "r.Svg"), "--plot"]):
        assert main(["dos", "--n", "8", "--samples", "2", "--eta", "0.5", "--out", *out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not any((tmp_path / name).exists() for name in ("r.svg", "r.SVG", "r.Svg"))
    with pytest.raises(SystemExit) as exc:
        main(["dos", "--n", "not_a_number"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["unknown-subcommand"])
    assert exc.value.code == 2


def test_numeric_failure_exits_one(monkeypatch):
    def boom(args):
        raise NumericError("synthetic numeric failure")

    monkeypatch.setattr(cli_module, "_run_regularity_command", boom)
    assert main(["regularity", "--dist", "gaussian"]) == 1


def test_deriv_eta_validation_exit():
    assert main(["deriv", "--n", "16", "--samples", "2", "--energy", "0",
                 "--eta", "0.5", "--seed", "1"]) == 2


@pytest.mark.parametrize("command", ["dos", "stieltjes", "wegner", "deriv", "sweep"])
@pytest.mark.parametrize("eta, shown", [
    (["--eta-over-n32", "5e-324"], "eta=0 at N=4"),
    (["--eta", "1e308"], "eta=1e+308 at N=4"),
], ids=["underflow", "overflow"])
def test_eta_that_resolves_to_zero_or_infinite_n_eta_exits_two(command, eta, shown, capsys,
                                                               monkeypatch):
    monkeypatch.setattr(experiments_module, "_StreamStack", lambda *a: pytest.fail("sampled"))
    assert main([command, "--n", "4", "--samples", "2"] + eta) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: eta schedule ")
    assert shown in captured.err
    assert "Traceback" not in captured.err


def test_spacing_refuses_an_eta_before_sampling(capsys, monkeypatch):
    # spacing reads no eta, energy or kappa: its window is set by --window
    monkeypatch.setattr(experiments_module, "_StreamStack", lambda *a: pytest.fail("sampled"))
    for flag, shown in ((["--eta", "0.1"], "eta, got ['0.1']"),
                        (["--energy", "0.5"], "energy, got [0.5]"),
                        (["--energy", "-0"], "energy, got [-0.0]"),
                        (["--kappa", "1.0"], "kappa, got 1.0")):
        assert main(["spacing", "--n", "8", "--samples", "2"] + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: experiment kind 'spacing' takes no {shown}\n"


@pytest.mark.parametrize("eta", ["1e-15", "1e-300", "5e-324"])
def test_dos_at_a_tiny_eta_has_the_semicircle_reference(eta, capsys):
    # the difference of two F_sc values lost 12.8% at 1e-15 and rounded to 0
    # at 1e-300; the window's mean density is rho_sc(E) there, also at the
    # smallest subnormal eta, where the window's mass underflows to 0
    assert main(["dos", "--n", "8", "--samples", "2", "--eta", eta, "--energy", "0", "0.7"]) == 0
    captured = capsys.readouterr()
    rows = rows_from_csv(captured.out)
    assert [(r.energy, r.eta) for r in rows] == [(0.0, float(eta)), (0.7, float(eta))]
    for r in rows:
        assert abs(r.reference - math.sqrt(4.0 - r.energy**2) / (2.0 * math.pi)) <= 1e-12 * r.reference
        assert r.ratio == r.mean / r.reference
    assert "Traceback" not in captured.err


def test_deriv_step_that_does_not_move_the_energy_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(experiments_module, "_StreamStack", lambda *a: pytest.fail("sampled"))
    assert main(["deriv", "--n", "8", "--samples", "4", "--eta-over-n", "0.5",
                 "--delta-e", "1e-320", "--energy", "0.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # 0.3 + 1e-320 == 0.3: refused by the one check, that the step moves 2.0
    assert captured.err.startswith("error: finite-difference step ")
    assert "is below the spectrum's resolution at N=8: it does not move 2.0" in captured.err


def test_deriv_step_below_the_spectrum_resolution_exits_two(capsys, monkeypatch):
    # 1e-300 / 8 moves E = 0, but no mu - E for a bulk eigenvalue mu
    monkeypatch.setattr(experiments_module, "_StreamStack", lambda *a: pytest.fail("sampled"))
    assert main(["deriv", "--n", "8", "--samples", "2", "--eta", "0.1",
                 "--delta-e-over-n", "1e-300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: finite-difference step 1.25e-301 is below the "
                                   "spectrum's resolution at N=8")


@pytest.mark.parametrize("argv, name", [
    (["dos", "--n", "8", "--samples", "1", "--eta", "0.1"], "run_experiment"),
    (["diagnostics", "--n", "8"], "sample_wigner"),
])
def test_memory_error_exits_two_with_one_line(argv, name, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr(cli_module, name, refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 149. GiB for an array\n"


@pytest.mark.parametrize("argv", [
    ["dos", "--n", "134217728", "--samples", "1", "--eta", "0.1"],
    ["diagnostics", "--n", "134217728"],
    ["dos", "--n", "2147483648", "--samples", "1", "--eta", "0.1"],
    ["spacing", "--n", "2147483648", "--samples", "1"],
    ["diagnostics", "--n", "2147483648"],
    ["spacing", "--n", "1180591620717411303424", "--samples", "1"],
])
def test_an_impossible_size_fails_before_its_pieces_are_planned(argv, capsys, monkeypatch):
    # the LAPACK input and the sampled matrix (2^58 bytes each at N = 2^27)
    # exceed any 64-bit user address space (at most 2^56 bytes), so their
    # allocation fails before anything is planned or drawn; from N = 2^31
    # numpy refuses the shape itself, with a ValueError
    monkeypatch.setattr(ensembles_module, "_pieces", lambda *a: pytest.fail("planned"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_regularity_prints_gaussian_integrals(capsys):
    assert main(["regularity", "--dist", "gaussian"]) == 0
    out = capsys.readouterr().out
    assert "I6=120" in out
    assert "I4=12" in out
    assert "I2pp=8" in out


def test_regularity_json_law_takes_role(capsys):
    # a JSON law without a role key takes --role; one with a role keeps it
    law = json.dumps({"kind": "gaussian"})
    assert main(["regularity", "--dist", law, "--role", "diagonal"]) == 0
    assert capsys.readouterr().out.split() == ["I6=15", "I4=3", "I2pp=2"]
    assert main(["regularity", "--dist", "gaussian", "--role", "diagonal"]) == 0
    assert capsys.readouterr().out.split() == ["I6=15", "I4=3", "I2pp=2"]
    assert main(["regularity", "--dist", law]) == 0
    assert capsys.readouterr().out.split() == ["I6=120", "I4=12", "I2pp=8"]
    law = json.dumps({"kind": "gaussian", "role": "off_diagonal"})
    assert main(["regularity", "--dist", law, "--role", "diagonal"]) == 0
    assert capsys.readouterr().out.split() == ["I6=120", "I4=12", "I2pp=8"]


def test_json_output_is_strict(capsys):
    # a one-sample stderr is written as null, not as a bare NaN
    assert main(["dos", "--n", "8", "--samples", "1", "--eta", "0.5", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert "NaN" not in out
    obj = json.loads(out, parse_constant=lambda c: pytest.fail(f"bare {c} in JSON output"))
    assert obj["rows"][0]["stderr"] is None


def test_regularity_other_law(capsys):
    assert main(["regularity", "--dist", "smoothed_uniform:0.4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("I6=")


def test_regularity_narrow_smoothed_uniform(capsys):
    # its erf edges, of width 1e-5, fell between the quadrature panels
    assert main(["regularity", "--dist", "smoothed_uniform:1e-5"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "I6=6.586749459e+25", "I4=1.596747568e+15", "I2pp=9.009779371e+14"]


def test_diagnostics_json(tmp_path):
    out = tmp_path / "diag.json"
    assert main(["diagnostics", "--n", "16", "--energy", "0.2", "--eps", "0.5",
                 "--seed", "3", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert set(obj) == {
        "j", "lambda", "xi", "c", "d", "c_prime", "d_prime",
        "omega", "beta", "delta", "E", "eps",
    }
    assert len(obj["lambda"]) == 15
    assert obj["E"] == 0.2


def test_diagnostics_eps_validation():
    assert main(["diagnostics", "--n", "16", "--eps", "2.0"]) == 2


@pytest.mark.parametrize("energy", ["nan", "inf", "-inf"])
def test_diagnostics_rejects_non_finite_energy(energy, capsys):
    assert main(["diagnostics", "--n", "8", f"--energy={energy}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.filterwarnings("error")
def test_diagnostics_overflow_is_a_numeric_failure(capsys):
    # strict JSON cannot carry the NaN the coefficients overflow to, and the
    # overflow is reported once, without a numpy RuntimeWarning before it
    assert main(["diagnostics", "--n", "8", "--energy", "1e200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric failure: coefficients overflow at energy 1e+200\n"


@pytest.mark.filterwarnings("error")
def test_regularity_overflow_is_a_numeric_failure(capsys):
    # a component 1e200 wide overflows the integrands; only the failure is printed
    assert main(["regularity", "--dist", "gaussian_mixture:1,0,1,1,1e200,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numeric failure: regularity integrals I6, I4, I2pp must be finite and positive, "
        "got [0.0, 0.0, 0.0]\n"
    )


@pytest.mark.filterwarnings("error")
def test_regularity_non_finite_integrand_is_one_numeric_failure(capsys):
    # a component 1e-300 wide makes the integrands NaN; quadrature stops at
    # its first pass and prints the passes as plain floats
    assert main(["regularity", "--dist", "gaussian_mixture:1,0,1e-300,1,1,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("numeric failure: ") and "not finite" in line
    assert "array(" not in line


def test_check_suite_passes():
    buf = io.StringIO()
    assert run_check_suite(buf) == 0
    lines = [ln for ln in buf.getvalue().splitlines() if ln]
    assert len(lines) == 6
    assert all(ln.startswith("PASS") for ln in lines)
    assert all("residual" in ln for ln in lines)


def test_check_subcommand_exit_zero():
    assert main(["check"]) == 0


def test_check_residual_above_its_bound_fails(monkeypatch, capsys):
    monkeypatch.setattr(cli_module, "regularity_gap", lambda: 0.5)
    assert main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[-1] == "FAIL regularity integrals: residual 5.000e-01 (bound 1e-04)"
    assert all(ln.startswith("PASS") for ln in lines[:-1])


def test_check_without_a_good_event_is_a_numeric_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli_module, "good_event", lambda *a: False)
    assert main(["check"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric failure: no good-event spectrum found for the coefficient chain check\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "wignerlab" in capsys.readouterr().out


def test_dist_flag_parsing(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["dos", "--n", "16", "--samples", "2", "--energy", "0",
                 "--eta", "0.5", "--dist", "smoothed_uniform:0.3",
                 "--out", str(out)]) == 0
    pair = json.dumps({
        "off": {"kind": "gaussian", "params": [], "role": "off_diagonal"},
        "diag": {"kind": "gaussian", "params": [], "role": "diagonal"},
    })
    assert main(["dos", "--n", "16", "--samples", "2", "--energy", "0",
                 "--eta", "0.5", "--dist", pair, "--out", str(out)]) == 0
    assert main(["dos", "--n", "16", "--samples", "2", "--energy", "0",
                 "--eta", "0.5", "--dist", "cauchy"]) == 2


@pytest.mark.parametrize("argv", [
    ["dos", "--n", "16", "--samples", "2", "--eta", "0.5", "--dist", "smoothed_uniform:abc"],
    ["diagnostics", "--n", "16", "--dist", "gaussian_mixture:1,0,x"],
    ["regularity", "--dist", "smoothed_uniform:abc"],
    ["dos", "--spec", json.dumps({"n": [16], "samples": 2, "eta": [0.5], "dist": {
        "off": {"kind": "smoothed_uniform", "params": ["abc"], "role": "off_diagonal"},
        "diag": {"kind": "gaussian", "role": "diagonal"}}})],
])
def test_non_numeric_dist_parameters_exit_two(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: distribution parameters must be numbers")
    assert "Traceback" not in err


# modules a sampling run must not load: scipy's root finder and special
# functions, and the network stack that ``xml.sax.saxutils`` pulls in
HEAVY_MODULES = ("scipy", "scipy.optimize", "scipy.special", "urllib.request", "http.client",
                 "email", "ssl", "xml.sax")


# a finder ahead of every other one that refuses any scipy import
_BLOCK_SCIPY = """
import sys
class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, _NoScipy())
"""


def _heavy_modules_after(code: str) -> list:
    """The entries of ``HEAVY_MODULES`` in ``sys.modules`` after ``code`` runs
    in a fresh interpreter that cannot import scipy."""
    code = _BLOCK_SCIPY + code
    code += f"\nimport json, sys\nprint(json.dumps([m for m in {HEAVY_MODULES!r} if m in sys.modules]))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                         text=True, check=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


def test_import_leaves_scipy_unloaded():
    # the package needs numpy alone, and the SVG writer escapes text
    # without xml.sax
    assert _heavy_modules_after("import wignerlab.cli") == []


def test_sampling_runs_leave_scipy_and_the_network_stack_unloaded(tmp_path):
    # every kind at a tiny budget (spacing on its default window, the
    # smoothed-uniform and mixture laws drawn), then two sampling commands
    # through the CLI, one of them writing an SVG, the regularity integrals
    # of three kinds of law and the check suite, all with scipy blocked
    smooth = {"off": {"kind": "smoothed_uniform", "params": [0.3], "role": "off_diagonal"},
              "diag": {"kind": "smoothed_uniform", "params": [0.3], "role": "diagonal"}}
    mixture = {"off": {"kind": "gaussian_mixture", "params": [0.5, -1.0, 0.5, 0.5, 1.0, 0.5],
                       "role": "off_diagonal"},
               "diag": {"kind": "gaussian", "role": "diagonal"}}
    specs = [
        dict(kind="dos", eta=[{"over_n": 2.0}]),
        dict(kind="im_stieltjes", eta=[{"over_n": 0.1}]),
        dict(kind="wegner", eta=[0.5]),
        dict(kind="derivative", eta=[{"over_n": 0.5}], extra={"delta_e": {"over_n": 0.25}}),
        dict(kind="scale_sweep", eta=[0.5, {"over_n32": 1.0}], dist=smooth),
        dict(kind="delta_moments", dist=mixture, extra={"eps": 0.5}),
        dict(kind="spacing"),
    ]
    assert sorted(spec["kind"] for spec in specs) == sorted(EXPERIMENT_KINDS)
    dos_out, spacing_out = tmp_path / "dos.csv", tmp_path / "spacing.csv"
    code = f"""
from wignerlab import ExperimentSpec, run_experiment
from wignerlab.cli import main
for spec in {specs!r}:
    run_experiment(ExperimentSpec.from_json(dict(spec, n=[16], samples=3, energy=[0.0], seed=5)))
assert main(["dos", "--n", "16", "--samples", "3", "--energy", "0", "--eta-over-n", "2",
             "--out", {str(dos_out)!r}, "--plot"]) == 0
assert main(["spacing", "--n", "16", "--samples", "3", "--out", {str(spacing_out)!r},
             "--format", "json"]) == 0
for law in ("gaussian", "gaussian_mixture:0.5,-1,0.5,0.5,1,0.5", "smoothed_uniform:0.3"):
    assert main(["regularity", "--dist", law]) == 0
assert main(["check"]) == 0
"""
    assert _heavy_modules_after(code) == []
    assert dos_out.with_suffix(".svg").exists()
    assert json.loads(spacing_out.read_text())["rows"][0]["ks_distance"] >= 0.0


# -- SVG renderer ------------------------------------------------------------


def test_render_plot_is_well_formed_xml():
    svg = render_plot(
        [Series("estimate", [1.0, 2.0, 3.0], [0.3, 0.31, 0.32], [0.01, 0.01, 0.01])],
        title="window average <test> & more",
        x_label="N",
        y_label="estimate",
        reference=0.3183,
    )
    doc = xml.dom.minidom.parseString(svg)
    assert doc.documentElement.getAttribute("xmlns") == "http://www.w3.org/2000/svg"
    assert "&lt;test&gt;" in svg
    assert "&amp;" in svg


ESCAPE_CASES = ["plain", "a & b", "<tag>", "x > y < z", "&amp; &lt;", "\"quoted\" 'single'",
                "ρ_sc(E) ≤ 1/π", "&<>&><"]


@pytest.mark.parametrize("text", ESCAPE_CASES)
def test_svg_escape_equals_saxutils(text):
    from xml.sax.saxutils import escape

    assert svgplot._escape(text) == escape(text)


def test_render_plot_bytes_equal_saxutils_escaping(monkeypatch):
    from xml.sax.saxutils import escape

    def plot():
        series = [Series(label, [1.0, 2.0], [0.5, float(k)]) for k, label in enumerate(ESCAPE_CASES)]
        return render_plot(series, title="<a> & <b>", x_label="N & <n>", y_label="\"y\" > 0",
                           reference=0.25)

    ours = plot()
    monkeypatch.setattr(svgplot, "_escape", escape)
    assert plot() == ours


def test_render_plot_log_axis_for_wide_span():
    svg = render_plot([Series("s", [0.001, 0.01, 0.1, 1.0], [1.0, 2.0, 3.0, 4.0])])
    assert "1e-03" in svg or "0.001" in svg


def test_render_plot_rejects_empty():
    with pytest.raises(DomainError):
        render_plot([])
    with pytest.raises(DomainError):
        render_plot([Series("s", [], [])])
    # finite points whose axis range, padded, overflows to inf
    for x, y, yerr in (([1, 2], [1e308, -1e308], []), ([1, 2], [0.0, 1.79e308], []),
                       ([1], [1.7e308], []), ([-1e308, 1e308], [1, 2], []), ([1], [0.0], [1.7e308])):
        with pytest.raises(DomainError, match="nothing to plot"):
            render_plot([Series("a", x, y, yerr)])
    with pytest.raises(DomainError):
        Series("s", [1.0], [1.0, 2.0])
