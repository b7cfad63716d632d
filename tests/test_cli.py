from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import xml.dom.minidom

import pytest

from wignerlab import DomainError, NumericError, Series, render_plot, rows_from_csv
from wignerlab.cli import main, run_check_suite

import wignerlab.cli as cli_module


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


def test_plot_requires_out():
    assert main(["dos", "--n", "12", "--samples", "2", "--energy", "0",
                 "--eta", "0.5", "--seed", "1", "--plot"]) == 2


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


def test_usage_errors_exit_two():
    assert main(["dos", "--samples", "4", "--energy", "0", "--eta", "0.5"]) == 2
    assert main(["dos", "--n", "16", "--samples", "4", "--energy", "1.9",
                 "--eta", "0.5"]) == 2
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


def test_regularity_prints_gaussian_integrals(capsys):
    assert main(["regularity", "--dist", "gaussian"]) == 0
    out = capsys.readouterr().out
    assert "I6=120" in out
    assert "I4=12" in out
    assert "I2pp=8" in out


def test_regularity_other_law(capsys):
    assert main(["regularity", "--dist", "smoothed_uniform:0.4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("I6=")


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


def test_check_suite_passes():
    buf = io.StringIO()
    assert run_check_suite(buf) == 0
    lines = [ln for ln in buf.getvalue().splitlines() if ln]
    assert len(lines) == 6
    assert all(ln.startswith("PASS") for ln in lines)
    assert all("residual" in ln for ln in lines)


def test_check_subcommand_exit_zero():
    assert main(["check"]) == 0


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


def test_import_leaves_scipy_unloaded():
    # scipy is imported by the functions that need it, not at start-up
    code = "import sys, wignerlab.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "False"


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


def test_render_plot_log_axis_for_wide_span():
    svg = render_plot([Series("s", [0.001, 0.01, 0.1, 1.0], [1.0, 2.0, 3.0, 4.0])])
    assert "1e-03" in svg or "0.001" in svg


def test_render_plot_rejects_empty():
    with pytest.raises(DomainError):
        render_plot([])
    with pytest.raises(DomainError):
        render_plot([Series("s", [], [])])
    with pytest.raises(DomainError):
        Series("s", [1.0], [1.0, 2.0])
