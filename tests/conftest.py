import random

import pytest

from qlra import (
    TOLERANCE,
    InfeasibleContextError,
    ProbContext,
    RegimeError,
    validate_context,
)
from qlra.synthetic import generate_hyperbolic_context, lambda_feasible_range


@pytest.fixture
def ctx1() -> ProbContext:
    """Worked example: symmetric matrices, both directions hyperbolic.

    lambda(b|a) = (4/3, -4/3), lambda(a|b) = (-16/9, 16/9).
    """
    return ProbContext(
        p_a=(0.5, 0.5),
        p_b=(0.9, 0.1),
        p_b_given_a=((0.9, 0.1), (0.1, 0.9)),
        p_a_given_b=((0.9, 0.1), (0.1, 0.9)),
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def extreme_contexts() -> list[ProbContext]:
    """Valid contexts over an extreme (p, p_a1) grid, lambda near the edges and mid of each band."""
    contexts = []
    for p in (1e-9, 1e-6, 1e-3, 0.3, 0.5, 1 - 1e-6):
        for p_a1 in (1e-9, 1e-6, 0.2, 0.5, 0.9, 1 - 1e-6):
            for lo, hi in lambda_feasible_range(p, p_a1):
                inset = 1e-9 * (hi - lo)
                for lam in (lo + inset, 0.5 * (lo + hi), hi - inset):
                    try:
                        ctx = generate_hyperbolic_context(p, p_a1, lam)
                    except (InfeasibleContextError, RegimeError):
                        continue
                    if not validate_context(ctx):
                        contexts.append(ctx)
    return contexts


@pytest.fixture(scope="session")
def ds_form():
    """form(ctx, tol): the exactly doubly stochastic context of the four numbers (p_a1, p_b1, p, p') that
    analyze reads from a ctx valid at tol: p and p' are the mean diagonals, a defaulted p' is p."""

    def form(ctx: ProbContext, tol: float = TOLERANCE) -> ProbContext:
        violations = validate_context(ctx, tol)
        assert not violations, violations
        M, N = ctx.p_b_given_a, ctx.p_a_given_b or ctx.p_b_given_a
        p, q = (M[0][0] + M[1][1]) / 2.0, (N[0][0] + N[1][1]) / 2.0
        a, b = ctx.p_a[0], ctx.p_b[0]
        return ProbContext((a, 1.0 - a), (b, 1.0 - b), ((p, 1.0 - p), (1.0 - p, p)), ((q, 1.0 - q), (1.0 - q, q)))

    return form
