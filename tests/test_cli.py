import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qlra
from qlra.cli import main


def run_cli(argv, stdin_text=None):
    out = io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        code = main(argv, out=out)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


CTX1 = {
    "p_a": [0.5, 0.5],
    "p_b": [0.9, 0.1],
    "P_b_given_a": [[0.9, 0.1], [0.1, 0.9]],
    "P_a_given_b": [[0.9, 0.1], [0.1, 0.9]],
}


# Column 0 of P_b_given_a sums to 1.0000001: valid at tolerance 1e-5, not at 1e-9.
NEAR_STOCHASTIC = dict(CTX1, P_b_given_a=[[0.9, 0.1], [0.1000001, 0.9]])


@pytest.fixture
def ctx1_file(tmp_path):
    path = tmp_path / "ctx1.json"
    path.write_text(json.dumps(CTX1))
    return str(path)


def test_analyze_ctx1(ctx1_file):
    code, text = run_cli(["analyze", ctx1_file])
    assert code == 0
    report = json.loads(text)
    assert report["validation"]["valid"] is True
    ba = report["directions"]["b_given_a"]
    ab = report["directions"]["a_given_b"]
    assert ba["regime"] == "hyperbolic" and ab["regime"] == "hyperbolic"
    assert ba["lambda"][0] == pytest.approx(4 / 3, abs=1e-9)
    assert ba["lambda"][1] == pytest.approx(-4 / 3, abs=1e-9)
    assert ab["lambda"][0] == pytest.approx(-16 / 9, abs=1e-9)
    assert report["equivalence"]["equivalent"] is True
    assert report["equivalence"]["symmetry_holds"] is True
    assert report["equivalence"]["proof_relation_residual"] < 1e-9


def test_analyze_ctx1_report_bytes(ctx1_file):
    # Reports are byte-deterministic; this is the worked example's report.
    code, text = run_cli(["analyze", ctx1_file])
    assert code == 0
    assert text == (Path(__file__).parent / "ctx1_report.json").read_text()


def test_analyze_stdin():
    code, text = run_cli(["analyze", "-"], stdin_text=json.dumps(CTX1))
    assert code == 0
    assert json.loads(text)["equivalence"]["equivalent"] is True


def test_analyze_trigonometric_exit_2(tmp_path):
    ctx = dict(CTX1, p_b=[0.5, 0.5])  # classical total probability: lambda = 0
    path = tmp_path / "trig.json"
    path.write_text(json.dumps(ctx))
    code, text = run_cli(["analyze", str(path)])
    assert code == 2
    report = json.loads(text)
    assert report["directions"]["b_given_a"]["regime"] == "trigonometric"
    assert "error" in report["directions"]["b_given_a"]


def test_analyze_missing_field_exit_1(tmp_path):
    bad = {k: v for k, v in CTX1.items() if k != "p_b"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _ = run_cli(["analyze", str(path)])
    assert code == 1


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_analyze_malformed_json_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    texts = ["{not json"] + [
        json.dumps(dict(CTX1, p_b=[0.9, bad])) for bad in (None, float("nan"), float("inf"))
    ]
    for text in texts:
        path.write_text(text)
        code, _ = run_cli(["analyze", str(path)])
        assert code == 1
        assert_one_error_line(capsys)


def test_analyze_invalid_context_exit_1(tmp_path):
    ctx = dict(CTX1, p_a=[0.7, 0.2])
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(ctx))
    code, text = run_cli(["analyze", str(path)])
    assert code == 1
    report = json.loads(text)
    assert report["validation"]["valid"] is False
    assert report["validation"]["violations"]


def test_analyze_asymmetric_exit_3(tmp_path):
    ctx = dict(CTX1, P_a_given_b=[[0.85, 0.15], [0.15, 0.85]])
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(ctx))
    code, text = run_cli(["analyze", str(path)])
    assert code == 3
    report = json.loads(text)
    assert report["equivalence"]["equivalent"] is False
    assert report["equivalence"]["symmetry_holds"] is False


def test_analyze_direction_filter(ctx1_file):
    code, text = run_cli(["analyze", ctx1_file, "--direction", "b_given_a"])
    assert code == 0
    report = json.loads(text)
    assert list(report["directions"]) == ["b_given_a"]
    assert "equivalence" not in report


def test_generate_ctx1_roundtrip():
    code, text = run_cli(
        ["generate", "--p", "0.9", "--p-a1", "0.5", "--lambda", "1.3333333333"]
    )
    assert code == 0
    ctx = json.loads(text)
    assert ctx["p_b"][0] == pytest.approx(0.9, abs=1e-9)
    code2, _ = run_cli(["analyze", "-"], stdin_text=text)
    assert code2 == 0


def test_generate_infeasible():
    code, _ = run_cli(["generate", "--p", "0.5", "--p-a1", "0.5", "--lambda", "1.5"])
    assert code == 1


def test_generate_random_reanalyzable():
    code, text = run_cli(["generate", "--random", "--seed", "42", "--count", "20"])
    assert code == 0
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert len(lines) == 20
    for line in lines:
        code2, out = run_cli(["analyze", "-"], stdin_text=line)
        assert code2 == 0
        assert json.loads(out)["equivalence"]["equivalent"] is True


def test_generate_determinism():
    args = ["generate", "--random", "--seed", "7", "--count", "5"]
    assert run_cli(args) == run_cli(args)


def test_analyze_determinism(ctx1_file):
    assert run_cli(["analyze", ctx1_file]) == run_cli(["analyze", ctx1_file])


def test_sweep_single_cells():
    code, text = run_cli(["sweep", "--p-grid", "0.9:0.9:0.1", "--pa-grid", "0.5:0.5:0.1"])
    assert code == 0
    header, row = text.strip().splitlines()
    assert header == "p,p_a1,band_low,band_high,hyperbolic_feasible"
    p, pa, lo, hi, feas = row.split(",")
    assert float(lo) == pytest.approx(-5 / 3, abs=1e-9)
    assert float(hi) == pytest.approx(5 / 3, abs=1e-9)
    assert feas == "true"

    code, text = run_cli(["sweep", "--p-grid", "0.5:0.5:0.1", "--pa-grid", "0.5:0.5:0.1"])
    row = text.strip().splitlines()[1]
    assert row.endswith("false")


def test_sweep_grid_shape():
    code, text = run_cli(["sweep", "--p-grid", "0.1:0.9:0.1", "--pa-grid", "0.1:0.9:0.1"])
    assert code == 0
    rows = text.strip().splitlines()[1:]
    assert len(rows) == 81
    assert "nan" not in text.lower()


def test_demo_violation():
    code, text = run_cli(["demo-violation", "--p", "0.7"])
    assert code == 0
    report = json.loads(text)
    assert report["basis_overlap"] == pytest.approx(0.571429, abs=1e-6)
    code, _ = run_cli(["demo-violation", "--p", "0.5"])
    assert code == 1


def test_tolerance_env(ctx1_file, monkeypatch):
    monkeypatch.setenv("QLRA_TOLERANCE", "1e-6")
    code, text = run_cli(["analyze", ctx1_file])
    assert code == 0
    assert json.loads(text)["tolerance"] == pytest.approx(1e-6)


def test_argument_errors_exit_1(ctx1_file, monkeypatch, capsys):
    for tol in ("-1", "0", "nan", "inf", "abc"):
        assert run_cli(["analyze", ctx1_file, "--tolerance", tol])[0] == 1
        assert_one_error_line(capsys)
    for count in ("0", "-1"):
        assert run_cli(["generate", "--random", "--count", count])[0] == 1
        assert_one_error_line(capsys)
    monkeypatch.setenv("QLRA_TOLERANCE", "abc")
    assert run_cli(["analyze", ctx1_file])[0] == 1
    assert_one_error_line(capsys)


def test_tolerance_governs_every_check(tmp_path):
    path = tmp_path / "near.json"
    path.write_text(json.dumps(NEAR_STOCHASTIC))
    code, text = run_cli(["analyze", str(path), "--tolerance", "1e-5"])
    assert code == 0
    assert json.loads(text)["equivalence"]["equivalent"] is True
    code, text = run_cli(["analyze", str(path)])
    assert code == 1
    assert json.loads(text)["validation"]["valid"] is False


def test_module_entry_point(ctx1_file):
    # The child imports the qlra under test, wherever pytest found it.
    src = str(Path(qlra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "qlra.cli", "analyze", ctx1_file],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["equivalence"]["equivalent"] is True
