"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.
"""

import io
import json
import math
import random
import time

import pytest

from qlra import (
    Direction,
    ProbContext,
    Regime,
    check_consistency,
    interference_coefficients,
    proof_relation_residual,
    run_qlra,
    transition_unitary,
    validate_context,
    verify_born_rule,
)
from qlra.algebra import HNumber, exp_j
from qlra.cli import main as cli_main
from qlra.linear import HVector2, inner_product
from qlra.synthetic import born_violation_demo, random_hyperbolic_context
from test_equivalence import perturbed_a_given_b
from test_linear import columns_orthonormal


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} - {detail}")
    assert ok, detail


def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_criterion_1_algebra_laws():
    rng = random.Random(1)
    t0 = time.perf_counter()
    worst = 0.0

    def mag(z):
        return abs(z.re) + abs(z.hy)

    for _ in range(10_000):
        z = HNumber(rng.uniform(-10, 10), rng.uniform(-10, 10))
        w = HNumber(rng.uniform(-10, 10), rng.uniform(-10, 10))
        u = HNumber(rng.uniform(-10, 10), rng.uniform(-10, 10))
        # Relative error is measured against the operand magnitudes:
        # the identities cancel, so the result itself is no yardstick.
        scale2 = max(1.0, mag(z) * mag(w))
        scale3 = max(1.0, mag(z) * mag(w) * mag(u))
        diff = (z * w).sq_modulus() - z.sq_modulus() * w.sq_modulus()
        worst = max(worst, abs(diff) / (scale2 * scale2))
        # Identities for the hyperbolic exponential halves.
        t = rng.uniform(-5, 5)
        plus, minus = exp_j(t), exp_j(-t)
        half_sum = 0.5 * (plus + minus)
        half_diff = 0.5 * (plus - minus)
        es = max(1.0, math.cosh(t))
        worst = max(worst, abs(half_sum.re - math.cosh(t)) / es, abs(half_sum.hy) / es)
        worst = max(worst, abs(half_diff.hy - math.sinh(t)) / es, abs(half_diff.re) / es)
        # Ring laws.
        for lhs, rhs, scale in (
            (z * w, w * z, scale2),
            ((z * w) * u, z * (w * u), scale3),
            (z * (w + u), z * w + z * u, scale3),
        ):
            worst = max(
                worst, abs(lhs.re - rhs.re) / scale, abs(lhs.hy - rhs.hy) / scale
            )
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst < 1e-12 and elapsed < 1.0,
        f"10000 algebra checks, worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_interference_identity():
    rng = random.Random(2)
    worst = 0.0
    for _ in range(10_000):
        A = rng.uniform(1e-3, 10.0)
        B = rng.uniform(1e-3, 10.0)
        theta = rng.uniform(-5.0, 5.0)
        sgn = rng.choice([1, -1])
        z = HNumber(math.sqrt(A)) + sgn * exp_j(theta) * HNumber(math.sqrt(B))
        want = A + B + sgn * 2.0 * math.sqrt(A * B) * math.cosh(theta)
        worst = max(worst, _rel_err(z.sq_modulus(), want))
    _report(2, worst < 1e-11, f"10000 squared-modulus identities, worst {worst:.2e}")


def test_criterion_3_worked_example(ctx1):
    checks = []
    prof_ba = interference_coefficients(ctx1, Direction.B_GIVEN_A)
    prof_ab = interference_coefficients(ctx1, Direction.A_GIVEN_B)
    checks.append(abs(prof_ba.lam[0] - 4 / 3))
    checks.append(abs(prof_ba.lam[1] + 4 / 3))
    checks.append(abs(prof_ab.lam[0] + 16 / 9))
    checks.append(abs(prof_ab.lam[1] - 16 / 9))
    checks.append(abs(prof_ba.theta[0] - math.acosh(4 / 3)))
    state = run_qlra(ctx1, Direction.B_GIVEN_A)
    checks.append(abs(state.psi.c1.sq_modulus() - 0.9))
    checks.append(abs(state.psi.c2.sq_modulus() - 0.1))
    worst = max(checks)
    _report(3, worst < 1e-9, f"worked example, worst abs deviation {worst:.2e}")


def test_criterion_4_born_reconstruction():
    rng = random.Random(4)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        ctx = random_hyperbolic_context(rng)
        for direction in Direction:
            state = run_qlra(ctx, direction)
            worst = max(worst, verify_born_rule(state, ctx).max_residual)
    elapsed = time.perf_counter() - t0
    _report(
        4,
        worst < 1e-9 and elapsed < 5.0,
        f"1000 contexts x 2 directions, worst Born residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_5_coefficient_cancellation():
    rng = random.Random(5)
    worst = 0.0
    mixed = 0
    for _ in range(1000):
        ctx = random_hyperbolic_context(rng)
        for direction in Direction:
            prof = interference_coefficients(ctx, direction)
            worst = max(worst, abs(prof.lam[0] + prof.lam[1]))
            if prof.regime is Regime.HYPER_TRIGONOMETRIC:
                mixed += 1
    _report(
        5,
        worst < 1e-10 and mixed == 0,
        f"lam1+lam2 worst {worst:.2e}, mixed-regime count {mixed}",
    )


def test_criterion_6_theorem_sufficiency():
    rng = random.Random(6)
    worst_dev = worst_proof = 0.0
    failures = 0
    for _ in range(500):
        ctx = random_hyperbolic_context(rng)
        verdict = check_consistency(ctx)
        if not (verdict.equivalent and verdict.symmetry_holds):
            failures += 1
            continue
        worst_dev = max(worst_dev, verdict.max_component_deviation)
        worst_proof = max(worst_proof, proof_relation_residual(ctx))
    _report(
        6,
        failures == 0 and worst_dev < 1e-8 and worst_proof < 1e-8,
        f"500 symmetric contexts, failures {failures}, worst deviation "
        f"{worst_dev:.2e}, worst proof residual {worst_proof:.2e}",
    )


def test_criterion_7_theorem_necessity():
    rng = random.Random(7)
    n = wrong = 0
    while n < 500:
        base = random_hyperbolic_context(rng)
        ctx = perturbed_a_given_b(base, rng, min_delta=0.01)
        if ctx is None:
            continue
        n += 1
        if check_consistency(ctx).equivalent:
            wrong += 1
    _report(7, wrong == 0, f"500 asymmetric contexts, false equivalences {wrong}")


def test_criterion_8_unitarity():
    rng = random.Random(8)
    # The columns of U are the conditioning basis; U is h-unitary iff they are orthonormal.
    ok = all(
        columns_orthonormal(transition_unitary(((p, 1 - p), (1 - p, p))), tol=1e-12)
        for p in (rng.uniform(1e-3, 1 - 1e-3) for _ in range(1000))
    )
    _report(8, ok, "1000 random doubly stochastic matrices, columns of U orthonormal at 1e-12")


def test_criterion_9_violation_grid():
    worst = 0.0
    overlaps = []
    for k in range(55, 100, 5):
        p = k / 100.0
        q = 1.0 - p
        rep = born_violation_demo(p)
        worst = max(worst, abs(rep.basis_overlap - (p - q * q / p)))
        overlaps.append(rep.basis_overlap)
    vanishing = all(o > 0 for o in overlaps) and overlaps == sorted(overlaps)
    _report(
        9,
        worst < 1e-12 and vanishing,
        f"grid 0.55..0.95, worst residual error {worst:.2e}, "
        f"overlap positive and increasing away from 0.5",
    )


def test_criterion_10_measurement_invariance():
    rng = random.Random(10)
    worst = 0.0
    for _ in range(1000):
        ctx = random_hyperbolic_context(rng)
        state = run_qlra(ctx, rng.choice(list(Direction)))
        c = rng.choice([1, -1]) * exp_j(rng.uniform(-3, 3))
        scaled = state.psi.scale(c)
        for i in range(2):
            worst = max(
                worst,
                abs(
                    scaled.components()[i].sq_modulus()
                    - state.psi.components()[i].sq_modulus()
                ),
            )
        p = state.diagonal
        (u00, u01), (u10, u11) = transition_unitary(((p, 1 - p), (1 - p, p)))
        for e in (HVector2(u00, u10), HVector2(u01, u11)):  # the columns of U
            worst = max(
                worst,
                abs(
                    inner_product(scaled, e).sq_modulus()
                    - inner_product(state.psi, e).sq_modulus()
                ),
            )
    _report(10, worst < 1e-10, f"1000 multipliers, worst probability shift {worst:.2e}")


def test_criterion_11_cli_round_trip():
    def run(argv, stdin_text=None):
        import sys

        out = io.StringIO()
        old = sys.stdin
        try:
            if stdin_text is not None:
                sys.stdin = io.StringIO(stdin_text)
            code = cli_main(argv, out=out)
        finally:
            sys.stdin = old
        return code, out.getvalue()

    gen_args = ["generate", "--p", "0.9", "--p-a1", "0.5", "--lambda", "1.3333333333"]
    code1, ctx_text1 = run(gen_args)
    code2, ctx_text2 = run(gen_args)
    a_code1, rep1 = run(["analyze", "-"], stdin_text=ctx_text1)
    a_code2, rep2 = run(["analyze", "-"], stdin_text=ctx_text2)
    ok = (
        code1 == code2 == a_code1 == a_code2 == 0
        and ctx_text1 == ctx_text2
        and rep1 == rep2
        and json.loads(rep1)["equivalence"]["equivalent"] is True
    )
    _report(11, ok, "generate->analyze deterministic, exit 0, equivalent=true")
