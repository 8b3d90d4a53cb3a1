import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qlra
import qlra.algebra
import qlra.cli
import qlra.context
import qlra.engine
import qlra.equivalence
import qlra.linear
from qlra.cli import main
from qlra.context import ProbContext
from qlra.synthetic import generate_hyperbolic_context, lambda_feasible_range, random_hyperbolic_context


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
    # A file and stdin give the same bytes; CONSOLE_ROWS holds them to the worked example's golden.
    assert run_cli(["analyze", ctx1_file]) == run_cli(["analyze", "-"], stdin_text=json.dumps(CTX1))


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
    return captured.err


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
    # Only an absent P_a_given_b defaults to the transpose; an explicit null is a bad field.
    path.write_text(json.dumps(dict(CTX1, P_a_given_b=None)))
    assert run_cli(["analyze", str(path)]) == (1, "")
    assert assert_one_error_line(capsys) == (
        "error: bad context: field 'P_a_given_b' must be a 2x2 array of finite numbers, got None\n"
    )


def test_analyze_unreadable_input_exit_1(tmp_path, capsys):
    paths = {
        "missing": tmp_path / "missing.json",
        "directory": tmp_path,
        "long integer": tmp_path / "long.json",
        "not utf-8": tmp_path / "latin1.json",
        "deep nesting": tmp_path / "deep.json",
    }
    paths["long integer"].write_text('{"p_a": [1' + "0" * 5000 + ", 0]}")
    paths["not utf-8"].write_bytes(b'{"p_a": "\xff"}')
    paths["deep nesting"].write_text("[" * 100_000 + "]" * 100_000)
    for path in paths.values():
        code, _ = run_cli(["analyze", str(path)])
        assert code == 1
        assert_one_error_line(capsys)


def test_analyze_command_raises_the_error_main_writes(tmp_path, capsys):
    # The command called alone, as bench/pipeline.py's in-process op calls it: the parser's arguments for
    # `analyze -`, the input on stdin, no main.  Bad input raises QlraError, the op's one error branch, with the
    # text of main's error line, and the command itself writes nothing.
    missing = str(tmp_path / "missing.json")
    cases = [
        (["-", "--tolerance", "nan"], json.dumps(CTX1), "tolerance 'nan' is not positive and finite"),
        (["-", "--tolerance", "abc"], json.dumps(CTX1), "tolerance 'abc' is not positive and finite"),
        ([missing], "", f"cannot read input: [Errno 2] No such file or directory: {missing!r}"),
        (["-"], "{", "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (["-"], json.dumps(dict(CTX1, p_a=[None, 0.5])),
         "bad context: field 'p_a' must be a 2-array of finite numbers, got [None, 0.5]"),
        (["-"], json.dumps(dict(CTX1, P_a_given_b=None)),
         "bad context: field 'P_a_given_b' must be a 2x2 array of finite numbers, got None"),
        (["-"], "[1, 2]", "bad context: context must be a JSON object"),
    ]
    for argv, text, message in cases:
        args = qlra.cli.build_parser().parse_args(["analyze", *argv])
        out, stdin = io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with pytest.raises(qlra.QlraError) as exc:
                args.func(args, out)
        finally:
            sys.stdin = stdin
        assert type(exc.value) is qlra.QlraError and str(exc.value) == message
        assert out.getvalue() == "" and capsys.readouterr() == ("", "")
        # Through main: one error line, exit 1.
        assert run_cli(["analyze", *argv], stdin_text=text) == (1, "")
        assert assert_one_error_line(capsys) == f"error: {message}\n"


def test_usage_errors_exit_1(ctx1_file, capsys):
    # Exit 2 means "not hyperbolic"; a usage error is invalid input.
    for argv in (["analyze", ctx1_file, "--sign-branch", "2"], ["analyze"], ["bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qlra") and "error: " in err
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_analyze_invalid_context_exit_1(tmp_path):
    ctx = dict(CTX1, p_a=[0.7, 0.2])
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(ctx))
    code, text = run_cli(["analyze", str(path)])
    assert code == 1
    report = json.loads(text)
    assert report["validation"]["valid"] is False
    assert report["validation"]["violations"]


# Valid and hyperbolic both ways, but P_a_given_b is not the transpose of P_b_given_a.
ASYMMETRIC = dict(CTX1, P_a_given_b=[[0.85, 0.15], [0.15, 0.85]])


def test_analyze_asymmetric_exit_3(tmp_path):
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(ASYMMETRIC))
    code, text = run_cli(["analyze", str(path)])
    assert code == 3
    report = json.loads(text)
    assert report["equivalence"]["equivalent"] is False
    assert report["equivalence"]["symmetry_holds"] is False


# Transpose-symmetric (P_a_given_b defaults) and doubly stochastic, and as floats barely hyperbolic.
BARELY_HYPERBOLIC = {"p_a": [0.5, 0.5], "p_b": [0.8, 0.2], "P_b_given_a": [[0.9, 0.1], [0.1, 0.9]]}


@pytest.mark.xfail(strict=True, reason="the verdict near |lambda| = 1 has no error budget yet")
def test_analyze_barely_hyperbolic_ds_context_is_equivalent():
    # Transpose-symmetric and doubly stochastic, so the theorem makes the orders equivalent.  As floats it is
    # barely hyperbolic: x^2 + y^2 + z^2 - 2xyz - 1 is about 1.8e-16 and both theta are about 2e-8.  Without an
    # error budget the two amplitudes differ by 5.7e-9 against the bound 1e-9, and analyze exits 3 with symmetry_holds true.
    code, text = run_cli(["analyze", "-"], stdin_text=json.dumps(BARELY_HYPERBOLIC))
    assert json.loads(text)["equivalence"]["symmetry_holds"] is True
    assert code == 0 and json.loads(text)["equivalence"]["equivalent"] is True


# Valid at tolerance 1e-5 only through the slack in P[1][1], and transpose-symmetric.
NEAR_BOUNDARY = {
    "p_a": [0.8442311007486719, 0.15576889925132809],
    "p_b": [0.9123679931255559, 0.08763200687444406],
    "P_b_given_a": [[0.5788179148487274, 0.42117745447079646], [0.42117745447079646, 0.5788225455292035]],
    "P_a_given_b": [[0.5788179148487274, 0.42117745447079646], [0.42117745447079646, 0.5788225455292035]],
}


def with_diagonal_slack(slack, diagonal):
    """generate_hyperbolic_context(0.9, 0.5, 1.3), slack on the listed diagonal entries of both matrices."""
    ctx = generate_hyperbolic_context(0.9, 0.5, 1.3).to_dict()
    for M in (ctx["P_b_given_a"], ctx["P_a_given_b"]):
        for i in diagonal:
            M[i][i] += slack
    return ctx


@pytest.mark.parametrize(
    "ctx, tolerance",
    [
        # Read entry by entry, the slack gives a deviation of 2.5e-9 against the bound 1e-9 (exit 3).
        (with_diagonal_slack(5e-10, [0]), "1e-9"),
        # Read entry by entry, the transported amplitude's squared norm misses 1 by 1.8e-7 (exit 3).
        (with_diagonal_slack(9e-8, [0, 1]), "1e-7"),
        # Read entry by entry, an amplitude's squared norm misses 1 by more than 1e-5 (exit 1).
        (NEAR_BOUNDARY, "1e-5"),
    ],
    ids=["diagonal_0_5e-10", "diagonals_9e-8", "near_boundary"],
)
def test_analyze_symmetric_with_stochastic_slack_exit_0(ctx, tolerance):
    # Valid at the tolerance and transpose-symmetric, but not exactly doubly stochastic:
    # analyze reads the context as its four numbers (p_a1, p_b1, p, p'), so the slack cannot
    # reach the reconstruction or the verdict.
    code, text = run_cli(["analyze", "-", "--tolerance", tolerance], stdin_text=json.dumps(ctx))
    report = json.loads(text)
    assert report["validation"]["valid"] is True
    assert report["equivalence"]["symmetry_holds"] is True
    assert report["equivalence"]["equivalent"] is True
    assert code == 0


# CTX1 without P_a_given_b: it defaults to the transpose of P_b_given_a.
DEFAULTED = {k: v for k, v in CTX1.items() if k != "P_a_given_b"}

LONG = -1.23456789012e-100  # 19 characters: a row of two is past the 40-character inline width
BOUNDARY = dict(
    CTX1,
    P_b_given_a=[[-1.23456789012e-10, -1.23456789012e-10], [0.1, 0.9]],
    P_a_given_b=[[LONG, 1.2345678901e-10], [0.1, 0.9]],
)


# Symmetric, with lambda_1 of the same sign in both directions: the
# transported b|a state matches the other a|b phase branch.
# (CTX1's lambda_1 signs differ and the a|b amplitude as built matches.)
SAME_SIGN = {
    "p_a": [0.1, 0.9],
    "p_b": [0.05, 0.95],
    "P_b_given_a": [[0.7, 0.3], [0.3, 0.7]],
    "P_a_given_b": [[0.7, 0.3], [0.3, 0.7]],
}


# Calls of each stage per analyze run: validation once; the per-direction pass (the coefficients and, where
# hyperbolic, the state, its Born check and its expansion deviation) once per direction; the verdict and the
# relation residual once.  The public per-direction functions, which read a raw context, are not on the path:
# the expansion deviation is the kernel _expansion_gap on the core's exp_j(sc*theta), not expansion_consistency,
# which would compute it again.
STAGE_CALLS = {
    "validate_context": 1,
    "_coefficients": 2,
    "_state": 2,
    "_born": 2,
    "_expansion_gap": 2,
    "_verdict": 1,
    "_relation_residual": 1,
    "interference_coefficients": 0,
    "verify_born_rule": 0,
    "expansion_consistency": 0,
}
# The same counts for the library's other entry points (run_qlra per direction): each validates
# once, and none runs a check whose result it drops.
NO_CHECKS = dict.fromkeys(("_born", "expansion_consistency", "_expansion_gap", "_verdict", "_relation_residual"), 0)
ENTRY_POINT_CALLS = {
    "run_qlra": {**STAGE_CALLS, **NO_CHECKS, "_coefficients": 1, "_state": 1},
    "check_consistency": {**STAGE_CALLS, **NO_CHECKS, "_verdict": 1},
    "proof_relation_residual": {**STAGE_CALLS, **NO_CHECKS, "_relation_residual": 1},
}


@pytest.mark.parametrize("ctx, comparisons", [(CTX1, 1), (SAME_SIGN, 1)])
def test_analyze_computes_each_profile_once(ctx, comparisons, tmp_path, monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    # Each stage is taken from the module that defines it, and counted wherever it is defined
    # or looked up; qlra.cli looks up none of them.
    layers = (qlra.context, qlra.engine, qlra.equivalence, qlra.cli)
    for name in [*STAGE_CALLS, "_equivalent"]:
        home = next(m for m in layers if getattr(getattr(m, name, None), "__module__", None) == m.__name__)
        stage = counted(getattr(home, name))
        for module in layers:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, stage)
    path = tmp_path / "ctx.json"
    path.write_text(json.dumps(ctx))
    code, text = run_cli(["analyze", str(path)])
    assert code == 0 and json.loads(text)["equivalence"]["equivalent"] is True
    through_cli = calls[:]
    calls.clear()
    violations, _, verdict, residual = qlra.analyze(qlra.ProbContext.from_dict(ctx))
    assert not violations and verdict.equivalent and residual is not None
    for run in (through_cli, calls):
        assert {name: run.count(name) for name in STAGE_CALLS} == STAGE_CALLS
        # One comparison: the signs of lambda_1 decide the a|b phase branch.
        assert run.count("_equivalent") == comparisons
    ctx = qlra.ProbContext.from_dict(ctx)
    for entry_point, call in [
        ("run_qlra", lambda: qlra.run_qlra(ctx, qlra.Direction.B_GIVEN_A)),
        ("run_qlra", lambda: qlra.run_qlra(ctx, qlra.Direction.A_GIVEN_B)),
        ("check_consistency", lambda: qlra.check_consistency(ctx)),
        ("proof_relation_residual", lambda: qlra.proof_relation_residual(ctx)),
    ]:
        calls.clear()
        call()
        counts = {name: calls.count(name) for name in STAGE_CALLS}
        assert counts == ENTRY_POINT_CALLS[entry_point], entry_point
        assert calls.count("_equivalent") == (comparisons if entry_point == "check_consistency" else 0)


# CTX1 with p_a[0] = -0.0: the report echoes -0 as 0, and its violation quotes the input as parsed.
NEGATIVE_ZERO = dict(DEFAULTED, p_a=[-0.0, 1.0])
# Dyadic, so |lambda| = 1 with no rounding: trigonometric.
EXACT_BOUNDARY = {"p_a": [0.25, 0.75], "p_b": [0.75, 0.25], "P_b_given_a": [[0.75, 0.25], [0.25, 0.75]]}

# Every console invocation whose exit code is pinned, each listed once: the context `analyze -` reads from
# stdin (None for the other commands), the other arguments, the exit code, and the golden under tests/ that
# stdout must match byte for byte, or None.  The analyze verdict paths come first.
CONSOLE_ROWS = [
    # lambda_1 has one sign in both directions: the verdict compares the conjugate a|b amplitude.
    (SAME_SIGN, [], 0, "ctx_same_sign_report.json"),
    (ASYMMETRIC, [], 3, "ctx_asymmetric_report.json"),
    (CTX1, ["--sign-branch", "-1"], 0, "ctx1_sign_minus_report.json"),
    # One direction: no equivalence block.
    (CTX1, ["--direction", "b_given_a"], 0, "ctx1_b_given_a_report.json"),
    (CTX1, ["--direction", "a_given_b"], 0, "ctx1_a_given_b_report.json"),
    (DEFAULTED, [], 0, "ctx1_defaulted_report.json"),
    # A multi-line matrix and a multi-line violations list; one inline violation.
    (dict(CTX1, P_b_given_a=[[LONG, LONG], [0.1, 0.9]]), [], 1, "ctx_long_matrix_report.json"),
    (dict(CTX1, p_a=[0.7, 0.7]), [], 1, "ctx_one_violation_report.json"),
    # Doubly stochastic only within the tolerance: the report of its four numbers.
    (with_diagonal_slack(5e-10, [0]), [], 0, "ctx_slack_report.json"),
    # One matrix row at 40 characters, on its own line, and one at 39, inline.
    (BOUNDARY, [], 1, "ctx_boundary_matrix_report.json"),
    # Trigonometric with lambda off 0: theta_1 is acos(lambda_1), not theta_0.
    (dict(DEFAULTED, p_b=[0.6, 0.4]), [], 2, "ctx_trig_tilted_report.json"),
    # The worked example, an invalid context, and a trigonometric one (classical total probability: lambda = 0).
    (CTX1, [], 0, "ctx1_report.json"),
    (dict(CTX1, p_a=[0.7, 0.2]), [], 1, "ctx_invalid_report.json"),
    (dict(CTX1, p_b=[0.5, 0.5]), [], 2, "ctx_trig_report.json"),
    (NEGATIVE_ZERO, [], 1, None),
    (EXACT_BOUNDARY, [], 2, None),
    (None, ["demo-violation", "--p", "0.7"], 0, "demo_violation_report.json"),
    (None, ["generate", "--p", "0.9", "--p-a1", "0.5", "--lambda", "1.3333333333"], 0, "generate_ctx1.jsonl"),
    # The draw itself is pinned: the contexts random_hyperbolic_context made when this golden was recorded.
    (None, ["generate", "--random", "--seed", "3", "--count", "2"], 0, "generate_random_seed3.jsonl"),
    (None, ["sweep", "--p-grid", "0.1:0.9:0.4", "--pa-grid", "0.5:0.5:0.1"], 0, "sweep_small.csv"),
    # Errors: a band that underflows, a lambda off the hyperbolic band, a doubly stochastic demo, a zero step.
    (None, ["sweep", "--p-grid", "1e-200:1e-200:1", "--pa-grid", "1e-200:1e-200:1"], 1, None),
    (None, ["generate", "--p", "1e-200", "--p-a1", "1e-200", "--lambda", "2"], 1, None),
    (None, ["generate", "--p", "0.9", "--p-a1", "0.5", "--lambda", "0.5"], 1, None),
    (None, ["demo-violation", "--p", "0.5"], 1, None),
    (None, ["sweep", "--p-grid", "0.1:0.9:0", "--pa-grid", "0.5:0.5:0.1"], 1, None),
]


# Named for its first rows, the analyze verdict paths; the name keeps their test ids stable.
@pytest.mark.parametrize("ctx, options, code, golden", CONSOLE_ROWS)
def test_analyze_verdict_path_report_bytes(ctx, options, code, golden):
    if ctx is None:
        got, text = run_cli(options)
    else:
        got, text = run_cli(["analyze", "-", *options], stdin_text=json.dumps(ctx))
    assert got == code
    if golden is not None:
        assert text == (Path(__file__).parent / golden).read_text()
    if ctx is NEGATIVE_ZERO:
        assert '"p_a": [0, 1],' in text and '"p_a[0]=-0.0 outside (0,1)"' in text


@pytest.mark.parametrize("ctx, code", [(CTX1, 0), (SAME_SIGN, 0), (ASYMMETRIC, 3)])
def test_analyze_builds_no_algebra_objects(ctx, code, tmp_path):
    # The pipeline carries null-cone floats: it enters neither qlra.algebra nor qlra.linear, whose
    # objects only the public API hands out.  The modules are imported here, not by the pipeline.
    layer_of = {qlra.algebra.__file__: "algebra", qlra.linear.__file__: "linear"}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in layer_of:
            calls.append(f"{layer_of[frame.f_code.co_filename]}.{frame.f_code.co_name}")

    path = tmp_path / "ctx.json"
    path.write_text(json.dumps(ctx))
    sys.setprofile(profile)
    try:
        result = run_cli(["analyze", str(path)])
    finally:
        sys.setprofile(None)
    assert result[0] == code
    assert calls == []


def qlra_calls(argv, stdin_text=None):
    """The exit code of main(argv) and the names of its Python-level calls into qlra, in order."""
    package = os.path.join(os.path.dirname(qlra.__file__), "")
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        code, _ = run_cli(argv, stdin_text)
    finally:
        sys.setprofile(None)
    return code, calls


# Helpers that convert fields, word violations or measure matrix rows: a valid context of JSON floats needs none.
WORDING_HELPERS = ("_as_pair", "_as_matrix", "_violations", "_check_matrix", "_matrix_template")


def test_analyze_python_calls(ctx1_file):
    # Python-level calls into qlra during one `qlra analyze` of CTX1, parsing and writing included.
    # The count is exact, so it guards the straight-line stages and the one-% writer where timings
    # cannot: a per-float formatting call, a per-section writer, a per-outcome generator or an Enum-keyed
    # accessor shows here.
    # The path runs no list, set or dict comprehension, which Python 3.12 inlines, and no generator, so
    # the count is the same on every supported version.
    code, calls = qlra_calls(["analyze", ctx1_file])
    assert code == 0
    # One of them writes the report, _report_json: a valid context's matrices are laid out without a call.
    assert len(calls) == 28, sorted(calls)
    # The core reads the context once as its four numbers, so no direction asks context._oriented; each
    # direction runs the pass once.  The finiteness the core's bound makes certain is tested inline, without
    # a call.
    stages = ("_oriented", "_coefficients", "_state", "_born", "_expansion_gap", "expansion_consistency",
              "_require_finite")
    assert {name: calls.count(name) for name in stages} == {
        "_oriented": 0, "_coefficients": 2, "_state": 2, "_born": 2, "_expansion_gap": 2, "expansion_consistency": 0,
        "_require_finite": 0
    }
    assert not {"_fmt_float", "marginals", "matrix", "a_given_b"} & set(calls)
    # The parse gate takes lists of floats in one step, validation decides "valid" in one expression, and the
    # writer knows a valid context's layout: no helper that converts, words or measures runs.
    assert not set(WORDING_HELPERS) & set(calls)
    # An invalid context still runs the per-field checks, which word its violations.
    code, calls = qlra_calls(["analyze", "-"], json.dumps(dict(CTX1, p_a=[0.7, 0.2])))
    assert code == 1 and "_check_matrix" in calls and "_matrix_template" in calls


def flat(x):
    """The numbers of nested lists and tuples, in order."""
    return [y for item in x for y in flat(item)] if isinstance(x, (list, tuple)) else [x]


def slacked_context(rng, tol):
    """A random hyperbolic context, each entry offset by U(-0.2, 0.2)*tol, the a|b matrix independently."""
    exact = random_hyperbolic_context(rng)

    def off(pair):
        return [x + rng.uniform(-0.2, 0.2) * tol for x in pair]

    matrices = [[off(row) for row in M] for M in (exact.p_b_given_a, exact.p_a_given_b)]
    return dict(zip(("p_a", "p_b", "P_b_given_a", "P_a_given_b"), (off(exact.p_a), off(exact.p_b), *matrices)))


def test_analyze_prints_the_api_numbers(rng, ds_form):
    # Each number analyze prints is the one the public functions return on the context's four-number form,
    # written by _fmt_float, under its own key; the Born residuals are measured against the input's own
    # marginals.  The random contexts are exactly doubly stochastic, their own four-number form, or carry
    # slack within the tolerance, which only the four-number form takes out.
    slack_tol = 1e-6
    contexts = [(ASYMMETRIC, qlra.TOLERANCE), (DEFAULTED, qlra.TOLERANCE)]
    contexts += [(random_hyperbolic_context(rng).to_dict(), qlra.TOLERANCE) for _ in range(200)]
    contexts += [(slacked_context(rng, slack_tol), slack_tol) for _ in range(150)]
    for d, tol in contexts:
        ctx = qlra.ProbContext.from_dict(d)
        ds = ds_form(ctx, tol)
        for sc in (1, -1):
            argv = ["analyze", "-", "--sign-branch", str(sc), "--tolerance", repr(tol)]
            code, text = run_cli(argv, stdin_text=json.dumps(d))
            report = json.loads(text)
            echo = {"p_a": ctx.p_a, "p_b": ctx.p_b, "P_b_given_a": ctx.p_b_given_a}
            if not ctx.a_given_b_defaulted:
                echo["P_a_given_b"] = ctx.p_a_given_b
            assert list(report["input"]) == list(echo)
            api, printed = flat(list(echo.values())), flat(list(report["input"].values()))
            for direction in qlra.Direction:
                # Outcome 0 is the public function's; outcome 1 is -lam0 (Proposition 1), with its epsilon and
                # theta computed from that value, so the regime is outcome 0's.
                profile = qlra.interference_coefficients(ds, direction)
                entry = report["directions"][direction.value]
                lam0 = profile.lam[0]
                lam1 = 0.0 - lam0
                big = abs(lam1) > 1.0
                regime = qlra.Regime.HYPERBOLIC if big else qlra.Regime.TRIGONOMETRIC
                assert entry["regime"] == regime.value
                assert profile.regime in (regime, qlra.Regime.HYPER_TRIGONOMETRIC)
                theta1 = math.acosh(abs(lam1)) if big else math.acos(lam1)
                api += [lam0, lam1, profile.epsilon[0], 1 if lam1 >= 0 else -1, profile.theta[0], theta1]
                printed += [*entry["lambda"], *entry["epsilon"], *entry["theta"]]
                state = qlra.run_qlra(ds, direction, sc)
                born = qlra.verify_born_rule(state, ctx)
                api += [*born.conditioned_residuals, *born.conditioning_residuals, born.max_residual]
                api.append(qlra.expansion_consistency(state))
                printed += [*entry["born_residuals"]["conditioned"], *entry["born_residuals"]["conditioning"]]
                printed += [entry["born_residuals"]["max"], entry["expansion_deviation"]]
            verdict, eq = qlra.check_consistency(ds, tol, sc), report["equivalence"]
            assert code == (0 if verdict.equivalent else 3)
            assert verdict.equivalent is eq["equivalent"] and verdict.symmetry_holds is eq["symmetry_holds"]
            assert verdict.sign == eq["sign"] and (verdict.gamma is None) == (eq["gamma"] is None)
            api.append(verdict.max_component_deviation)
            printed.append(eq["max_component_deviation"])
            if verdict.gamma is not None:
                api.append(verdict.gamma)
                printed.append(eq["gamma"])
            if verdict.symmetry_holds:
                api.append(qlra.proof_relation_residual(ds, sc))
                printed.append(eq["proof_relation_residual"])
            else:
                assert "proof_relation_residual" not in eq
            assert list(map(qlra.cli._fmt_float, api)) == list(map(qlra.cli._fmt_float, printed))


@st.composite
def validated_contexts(draw):
    """(context, tolerance) in the domain validate_context accepts, with its corners: entries at the positivity
    margin, a b-marginal that puts lambda(b|a) within a relative 1e-6 of +-1 (or at 1 +- 1 ulp), and slack within
    the tolerance.  P_a_given_b is the transpose, absent or another doubly stochastic matrix."""
    tol = 10.0 ** draw(st.floats(-12, -4))
    margin = qlra.POSITIVITY_MARGIN
    top = math.nextafter(1.0 - margin, 0.0)  # the largest x with 1 - x at least the margin
    prob = st.sampled_from((margin, top)) | st.floats(margin, top)
    # Up to 0.45 * tol an entry, so that a matrix row of two stays within tol of 1; clipped into the margin.
    slack = st.just(0.0) | st.floats(-0.45 * tol, 0.45 * tol)

    def off(x):
        return min(max(x + draw(slack), margin), 1.0 - margin)

    a, p = draw(prob), draw(prob)
    if draw(st.booleans()):  # lambda(b|a) = +-(1 + delta), from p_b1 = S + 2*lambda*R
        S, R = a * p + (1.0 - a) * (1.0 - p), math.sqrt(a * p * (1.0 - a) * (1.0 - p))
        lam = draw(st.sampled_from((-1.0, 1.0))) * (1.0 + draw(st.sampled_from((0.0, 2**-52, -2**-53))
                                                               | st.floats(-1e-6, 1e-6)))
        b = min(max(S + 2.0 * lam * R, margin), 1.0 - margin)
    else:
        b = draw(prob)

    def matrix(d):
        return [[d, 1.0 - d], [off(1.0 - d), off(d)]]

    ctx = {"p_a": [a, off(1.0 - a)], "p_b": [b, off(1.0 - b)], "P_b_given_a": matrix(p)}
    a_given_b = draw(st.sampled_from(("transpose", "absent", "other")))
    if a_given_b == "transpose":
        ctx["P_a_given_b"] = [list(r) for r in zip(*ctx["P_b_given_a"])]
    elif a_given_b == "other":
        ctx["P_a_given_b"] = matrix(draw(prob))
    return ctx, tol


@settings(max_examples=300, deadline=None)
@given(validated_contexts())
@example((BARELY_HYPERBOLIC, qlra.TOLERANCE))
def test_analyze_takes_outcome_1_from_proposition_1(case):
    # The core's matrices are exactly doubly stochastic, so lambda_1 = -lambda_0 (Proposition 1): one regime for
    # both outcomes, theta_1 = theta_0 when hyperbolic and acos(-lambda_0) when trigonometric.
    ctx, tol = case
    code, text = run_cli(["analyze", "-", "--tolerance", repr(tol)], stdin_text=json.dumps(ctx))
    report = json.loads(text)
    _, entries, _, _ = qlra.analyze(ProbContext.from_dict(ctx), tol)
    assert len(entries) == len(report.get("directions", ())) == (0 if code == 1 else 2)
    for direction, ((lam0, lam1), (eps0, eps1), (theta0, theta1), regime), _, _ in entries:
        entry = report["directions"][direction.value]
        printed = [*entry["lambda"], *entry["epsilon"], *entry["theta"]]
        assert list(map(qlra.cli._fmt_float, printed)) == list(map(qlra.cli._fmt_float, (lam0, lam1, eps0, eps1,
                                                                                           theta0, theta1)))
        assert entry["lambda"][1] == -entry["lambda"][0] and lam1 == -lam0
        assert entry["epsilon"] == ([1, 1] if lam0 == 0.0 else [eps0, -eps0])
        assert entry["regime"] == regime.value != "hyper_trigonometric"
        if regime is qlra.Regime.HYPERBOLIC:
            assert theta1 == theta0 and entry["theta"][1] == entry["theta"][0]
        else:
            assert theta1 == math.acos(-lam0)


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


def _random_contexts(seed, count):
    rng = random.Random(seed)
    return [random_hyperbolic_context(rng) for _ in range(count)]


@pytest.mark.parametrize(
    "argv, made",
    [
        (
            ["--p", "0.9", "--p-a1", "0.5", "--lambda", "1.3333333333"],
            lambda: [generate_hyperbolic_context(0.9, 0.5, 1.3333333333)],
        ),
        (["--random", "--seed", "3"], lambda: _random_contexts(3, 1)),
        (["--random", "--seed", "3", "--count", "2"], lambda: _random_contexts(3, 2)),
    ],
    ids=["fixed", "random", "random_count_2"],
)
def test_generate_writes_exact_contexts(argv, made, ds_form):
    # One JSON object per line, every float as json.dumps writes it: read back, each context is the one made.
    code, text = run_cli(["generate", *argv])
    assert code == 0
    written = [ProbContext.from_dict(json.loads(line)) for line in text.splitlines()]
    assert written == made()
    assert all(ds_form(ctx) == ctx for ctx in written)


def test_generate_infeasible(capsys):
    code, _ = run_cli(["generate", "--p", "0.5", "--p-a1", "0.5", "--lambda", "1.5"])
    assert code == 1
    # p_b1 is feasible, but a matrix entry or an a-marginal is within the positivity margin; at 1e-200
    # the band's width p*p_a1*(1-p)*(1-p_a1) underflows to 0.
    for p, p_a1 in (("1e-13", "0.5"), ("0.5", "1e-13"), ("1e-200", "1e-200")):
        capsys.readouterr()
        assert run_cli(["generate", "--p", p, "--p-a1", p_a1, "--lambda", "1.5"]) == (1, "")
        assert_one_error_line(capsys)


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


def test_sweep_single_cells(capsys):
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

    # The band width p*p_a1*(1-p)*(1-p_a1) of this cell underflows to 0; the header is already written.
    code, text = run_cli(["sweep", "--p-grid", "1e-200:1e-200:1", "--pa-grid", "1e-200:1e-200:1"])
    assert code == 1 and text == "p,p_a1,band_low,band_high,hyperbolic_feasible\n"
    assert assert_one_error_line(capsys).startswith("error: p=1e-200 and p_a1=1e-200 give no band")


def test_sweep_grid_shape():
    code, text = run_cli(["sweep", "--p-grid", "0.1:0.9:0.1", "--pa-grid", "0.1:0.9:0.1"])
    assert code == 0
    rows = text.strip().splitlines()[1:]
    assert len(rows) == 81
    assert "nan" not in text.lower()
    # A point is hyperbolic_feasible exactly when lambda_feasible_range gives it an interval, on either side.
    grid = qlra.cli._parse_grid("0.1:0.9:0.1")
    points = [(p, p_a1) for p in grid for p_a1 in grid]
    flags = [row.rsplit(",", 1)[1] for row in rows]
    assert flags == ["true" if lambda_feasible_range(p, p_a1) else "false" for p, p_a1 in points]
    assert any(len(lambda_feasible_range(p, p_a1)) == 1 for p, p_a1 in points)


@pytest.mark.parametrize("flag", ["--p-grid", "--pa-grid"])
@pytest.mark.parametrize(
    "spec", ["0:inf:0.1", "nan:0.9:0.1", "0.1:0.9:inf", "0:1e300:1e-300", "0.1:0.2", "0.1:0.9:0", "0.1:0.9:-0"]
)
def test_sweep_non_finite_grid_exit_1(flag, spec, capsys):
    argv = {"--p-grid": "0.1:0.9:0.1", "--pa-grid": "0.1:0.9:0.1", flag: spec}
    code, text = run_cli(["sweep", *(x for kv in argv.items() for x in kv)])
    assert code == 1 and text == ""
    reason = "bad grid" if spec.count(":") == 2 else "grid must be start:stop:step, got"
    assert capsys.readouterr().err == f"error: {reason} {spec!r}\n"


def test_sweep_skips_points_outside_unit_interval():
    # 12 million grid points, 2 of them in (0, 1): only those are built.
    tracemalloc.start()
    try:
        assert qlra.cli._parse_grid("-3e6:0.5:0.25") == [0.25, 0.5]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    code, text = run_cli(["sweep", "--p-grid=-3e6:0.5:0.25", "--pa-grid", "0.5:0.5:0.1"])
    assert code == 0
    assert [row.split(",")[0] for row in text.splitlines()[1:]] == ["0.25", "0.5"]


def test_demo_violation(capsys):
    code, text = run_cli(["demo-violation", "--p", "0.7"])
    report = json.loads(text)
    assert report["basis_overlap"] == pytest.approx(0.571429, abs=1e-6)
    # p = 0.5 is doubly stochastic; at the tiny p, basis_overlap_sq overflows,
    # a denominator degenerates, and basis_overlap overflows.
    for p in ("0.5", "1e-160", "1e-200", "1e-320"):
        capsys.readouterr()
        assert run_cli(["demo-violation", "--p", p]) == (1, "")
        assert_one_error_line(capsys)


@pytest.mark.parametrize("error", [qlra.RegimeError, qlra.StochasticityError, ValueError])
def test_main_maps_library_errors_to_exit_codes(ctx1_file, monkeypatch, capsys, error):
    # main is the one error map: any QlraError or ValueError that reaches it exits 1, with one error line, no
    # traceback and no stdout.  analyze's 2 and 3 are verdicts it returns, not errors.
    def raising(*args):
        raise error("raised by the library")

    monkeypatch.setattr(qlra.cli, "analyze", raising)
    assert run_cli(["analyze", ctx1_file]) == (1, "")
    assert assert_one_error_line(capsys) == "error: raised by the library\n"


def test_argument_errors_exit_1(ctx1_file, capsys):
    # The library's gates apply the same rule: a nan or inf tolerance used to call this context valid.
    # states_equivalent called a vector not equivalent to itself at -1 and nan, and anything at inf.
    invalid = qlra.ProbContext((0.7, 0.7), (0.9, 0.1), ((0.9, 0.1), (0.1, 0.9)))
    psi = qlra.run_qlra(qlra.ProbContext.from_dict(CTX1), qlra.Direction.B_GIVEN_A).psi
    gates = [
        lambda tol: qlra.validate_context(invalid, tol),
        lambda tol: qlra.states_equivalent(psi, psi, tol),
    ]
    for tol in ("-1", "0", "nan", "inf", "abc"):
        assert run_cli(["analyze", ctx1_file, "--tolerance", tol])[0] == 1
        assert_one_error_line(capsys)
        if tol != "abc":
            for check in gates:
                with pytest.raises(ValueError, match="tolerance must be positive and finite"):
                    check(float(tol))
    assert qlra.states_equivalent(psi, psi).equivalent
    for count in ("0", "-1"):
        assert run_cli(["generate", "--random", "--count", count])[0] == 1
        assert_one_error_line(capsys)
    assert run_cli(["generate", "--random", "--p", "0.5"])[0] == 1
    assert assert_one_error_line(capsys).startswith("error: --random excludes ")
    assert run_cli(["generate"])[0] == 1
    assert assert_one_error_line(capsys).startswith("error: provide --p, --p-a1 and --lambda ")
    for extra in (["--count", "0"], ["--seed", "3"]):
        assert run_cli(["generate", "--p", "0.9", "--p-a1", "0.5", "--lambda", "1.3333333333", *extra])[0] == 1
        assert assert_one_error_line(capsys) == "error: --count and --seed need --random\n"


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


@pytest.fixture
def written_reports(monkeypatch):
    """Holds every report analyze writes to dumps's bytes, the layout reference; collects the reports.

    dumps of the parsed report gives back the writer's bytes only if both lay it out alike:
    a 12-digit float survives json.loads and _fmt_float, and strings are escaped alike.
    """
    writer, reports = qlra.cli._report_json, []

    def checked(*args):
        text = writer(*args)
        assert qlra.cli.dumps(json.loads(text)) == text
        reports.append(text)
        return text

    monkeypatch.setattr(qlra.cli, "_report_json", checked)
    return reports


def _random_context(rng):
    """A random hyperbolic context, kept or given another a|b matrix, a defaulted one or other p_a."""
    d = random_hyperbolic_context(rng).to_dict()
    kind = rng.randrange(4)
    if kind == 1:
        p = rng.random()
        d["P_a_given_b"] = [[p, 1 - p], [1 - p, p]]
    elif kind == 2:
        d.pop("P_a_given_b", None)
    elif kind == 3:
        d["p_a"] = [rng.random(), rng.random()]
    return d


def test_report_writer_matches_dumps(written_reports):
    cases = [
        CTX1,
        SAME_SIGN,
        dict(CTX1, p_a=[0.7, 0.7]),  # one short violation: stays inline
        dict(CTX1, p_a=[0.7, 0.2]),
        dict(CTX1, p_b=[0.5, 0.5]),  # trigonometric
        dict(CTX1, P_a_given_b=[[0.85, 0.15], [0.15, 0.85]]),  # asymmetric
        DEFAULTED,
        dict(CTX1, P_b_given_a=[[LONG, LONG], [0.1, 0.9]]),  # multi-line matrix
        dict(CTX1, p_a=[-0.0, 1.0]),  # -0 is echoed as 0
        dict(CTX1, P_a_given_b=[[0.9, 0.1], [-0.0, 0.9]]),
    ]
    rng = random.Random(20100)
    codes = set()
    for ctx in cases + [_random_context(rng) for _ in range(200)]:
        for branch in ("1", "-1"):
            for direction in ("both", "b_given_a", "a_given_b"):
                argv = ["analyze", "-", "--sign-branch", branch, "--direction", direction]
                codes.add(run_cli(argv, stdin_text=json.dumps(ctx))[0])
    assert codes == {0, 1, 2, 3}
    written = "".join(written_reports)
    assert '"violations": ["p_a does not sum to 1 (sum=1.4)"]' in written
    assert '"violations": [\n' in written
    assert '"P_b_given_a": [\n      [-1.23456789012e-100, -1.23456789012e-100],' in written
    assert '"gamma": null,\n    "sign": null,' in written
    assert '"p_a_given_b_defaulted": true' in written
    assert '"p_a": [0, 1],' in written and '"P_a_given_b": [[0.9, 0.1], [0, 0.9]]' in written
    assert "p_a[0]=-0.0 outside (0,1)" in written and "P_a_given_b[1][0]=-0.0 outside (0,1)" in written


# Matrix rows at the edge of dumps's one-line rule: a row goes on its own line from 40 characters, that is
# when its two 12-digit floats have 36 characters together.  Whether the matrix then spans several lines:
BOUNDARY_ROWS = [
    ([LONG, LONG], True),  # 19 + 19 characters
    ([-1e-100, -1e-100], False),  # a 3-digit exponent, but few digits
    ([LONG, 0.1], False),
    ([1.23456789012e100, 1.23456789012e100], True),  # 18 + 18
    ([1.23456789012e-100, 1.23456789012e-100], True),  # 18 + 18
    ([-1.23456789012e-10, -1.23456789012e-10], True),  # 18 + 18, 2-digit exponents
    ([-0.000123456789012, -0.000123456789012], True),  # 18 + 18, no exponent
    ([0.000123456789012, 0.000123456789012], False),  # 17 + 17
    ([LONG, 1.23456789012e-10], True),  # 19 + 17
    ([LONG, 1.2345678901e-10], False),  # 19 + 16
    ([-0.0, -0.0], False),  # written as 0
    ([LONG, -0.0], False),
]


@pytest.mark.parametrize("row, lines", BOUNDARY_ROWS)
def test_report_matrix_layout_boundary(row, lines, written_reports, capsys):
    for key in ("P_b_given_a", "P_a_given_b"):
        code, text = run_cli(["analyze", "-"], stdin_text=json.dumps(dict(CTX1, **{key: [row, [0.1, 0.9]]})))
        assert code == 1 and capsys.readouterr().err == ""
        assert (f'"{key}": [\n      [' in text) == lines
        assert text == written_reports[-1] + "\n"
    assert len(written_reports) == 2


# Finite JSON floats, subnormals and the boundary rows' values among them.
finite_entries = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 1e-100, -1e-100, 1e100, -1e100, *(x for row, _ in BOUNDARY_ROWS for x in row)]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(finite_entries, min_size=8, max_size=8))
def test_report_writer_lays_out_any_finite_matrix(entries):
    # p_a does not sum to 1, so each context is invalid, whatever its matrices.
    ctx = dict(CTX1, p_a=[0.7, 0.7], P_b_given_a=[entries[0:2], entries[2:4]], P_a_given_b=[entries[4:6], entries[6:]])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = run_cli(["analyze", "-"], stdin_text=json.dumps(ctx))
    assert code == 1 and err.getvalue() == ""
    report = text[:-1]  # print's newline
    assert qlra.cli.dumps(json.loads(report)) == report


def test_entry_templates_cover_exactly_the_regimes_the_core_returns():
    # The writer has a direction's entry for each regime context._coefficients can return, and for no other:
    # on the pipeline a direction is hyperbolic or trigonometric, never hyper-trigonometric.
    grid = (1e-12, 1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-6, 1.0 - 1e-12)
    regimes = {
        qlra.context._coefficients(x, 1.0 - x, y, p, 1.0 - p).regime.value for x in grid for y in grid for p in grid
    }
    assert regimes == {"hyperbolic", "trigonometric"}
    assert set(qlra.cli._ENTRIES) == {(d.value, r) for d in qlra.Direction for r in regimes}


def test_report_writer_rejects_non_finite(monkeypatch):
    writer, calls = qlra.cli._report_json, []
    monkeypatch.setattr(qlra.cli, "_report_json", lambda *args: calls.append(args) or "")
    run_cli(["analyze", "-"], stdin_text=json.dumps(CTX1))
    ((ctx, tolerance, sign_branch, violations, directions, *equivalence),) = calls
    assert writer(*calls[0]) + "\n" == (Path(__file__).parent / "ctx1_report.json").read_text()
    # ProbContext's parse gate rejects an inf entry; the writer must too, should one get past it.
    inf_ctx = tuple.__new__(qlra.ProbContext, ((0.5, math.inf), *ctx[1:]))
    inf_deviation = [directions[0][:3] + (-math.inf,), *directions[1:]]
    verdict, residual = equivalence
    report = (ctx, tolerance, sign_branch, violations, directions)
    for bad, value in (
        ((ctx, math.nan, sign_branch, violations, directions, *equivalence), "nan"),
        ((inf_ctx, tolerance, sign_branch, violations, directions, *equivalence), "inf"),
        ((ctx, tolerance, sign_branch, violations, inf_deviation, *equivalence), "-inf"),
        ((*report, verdict._replace(max_component_deviation=math.inf), residual), "inf"),
        ((*report, verdict._replace(gamma=math.nan), residual), "nan"),
        ((*report, verdict, -math.inf), "-inf"),
    ):
        with pytest.raises(ValueError, match=f"^non-finite value in report: {value}$"):
            writer(*bad)
    for bad in (math.nan, {"p_a": [0.5, math.inf]}, {"expansion_deviation": -math.inf}):
        with pytest.raises(ValueError, match="non-finite"):
            qlra.cli.dumps(bad)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=12), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def analyze_inputs(draw):
    """(input text, tolerance): arbitrary JSON, or a context within about the tolerance of valid."""
    tol = 10.0 ** draw(st.floats(-12, -3))
    slack = st.floats(-0.9 * tol, 0.9 * tol)
    prob = st.floats(1e-12, 1 - 1e-12)

    def pair():
        x = draw(prob)
        return [x, 1 - x + draw(slack)]

    def matrix():
        p = draw(prob)
        return [[p, 1 - p], [1 - p + draw(slack), p + draw(slack)]]

    ctx = {"p_a": pair(), "p_b": pair(), "P_b_given_a": matrix()}
    a_given_b = draw(st.sampled_from(("transpose", "other", "absent", "arbitrary")))
    if a_given_b == "transpose":
        ctx["P_a_given_b"] = [list(r) for r in zip(*ctx["P_b_given_a"])]
    elif a_given_b == "other":
        ctx["P_a_given_b"] = matrix()
    elif a_given_b == "arbitrary":
        ctx["P_a_given_b"] = draw(json_values)
    return json.dumps(draw(st.one_of(st.just(ctx), json_values))), tol


@settings(max_examples=300, deadline=None)
@given(analyze_inputs())
@example((json.dumps(NEAR_BOUNDARY), 1e-5))
def test_analyze_fuzz_exits_with_a_documented_code(case):
    text, tol = case
    code, out = run_cli(["analyze", "-", "--tolerance", repr(tol)], stdin_text=text)
    assert code in (0, 1, 2, 3)
    if out:
        json.loads(out)


@st.composite
def slacked_contexts(draw):
    """(exact context, the same with slack, tolerance).

    The exact context is random_hyperbolic_context's draw from a drawn seed. Each entry of
    p_a, p_b and P_b_given_a is offset by up to 0.2 * tol, and P_a_given_b stays the transpose.
    """
    exact = random_hyperbolic_context(random.Random(draw(st.integers(0, 2**32 - 1)))).to_dict()
    tol = 10.0 ** draw(st.floats(-12, -4))

    def off(xs):
        return [x + draw(st.floats(-0.2 * tol, 0.2 * tol)) for x in xs]

    matrix = [off(row) for row in exact["P_b_given_a"]]
    slacked = {"p_a": off(exact["p_a"]), "p_b": off(exact["p_b"]), "P_b_given_a": matrix}
    slacked["P_a_given_b"] = [list(row) for row in zip(*matrix)]
    return exact, slacked, tol


@settings(max_examples=200, deadline=None)
@given(slacked_contexts())
def test_analyze_exit_code_ignores_stochastic_slack(case):
    # The draws stay inside the generator's domain, which keeps |lambda| off 1. At the |lambda| -> 1
    # corner the verdict's bound itself is too tight for exact data (ROADMAP item 1), and the
    # benchmark's edge set already measures that corner.
    exact, slacked, tol = case
    argv = ["analyze", "-", "--tolerance", repr(tol)]
    runs = [run_cli(argv, stdin_text=json.dumps(ctx)) for ctx in (exact, slacked)]
    reports = [json.loads(text) for _, text in runs]
    regimes = [{name: d["regime"] for name, d in r.get("directions", {}).items()} for r in reports]
    if reports[1]["validation"]["valid"] and regimes[1] == regimes[0]:
        assert runs[1][0] == runs[0][0]
