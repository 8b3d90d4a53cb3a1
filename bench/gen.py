"""Seeded benchmark inputs and the oracle that labels them.

Every context comes from this module's own generators, driven by a
stdlib ``random.Random`` seeded from the workload name and ``--seed``;
nothing here imports qlra, so a library change cannot change the inputs.
Each context is labelled with the outcome the closed-form theory fixes:
validity, regime per direction and, when both directions are hyperbolic,
equivalence (which holds exactly when the two transition matrices are
transposes of each other).  Regimes are decided with exact rational
arithmetic on the very floats written to the JSON text.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import NamedTuple

# qlra's positivity margin.  Valid entries stay far from it, so a
# correct library cannot disagree with the labels.
POSITIVITY_MARGIN = 1e-12
_CLEAR = 10 * POSITIVITY_MARGIN
_EPS = 2.0**-52

HYP, TRIG, MIXED = "hyperbolic", "trigonometric", "hyper_trigonometric"

# Share of each context kind in the mixed workloads.  More than half of
# the ops exit early (invalid or trigonometric), so the median op is an
# early exit and the 90th percentile a full reconstruction.
MIX = (("invalid", 0.30), ("trig", 0.30), ("asym", 0.15), ("symmetric", 0.25))
INVALID_KINDS = ("bad_norm", "non_ds", "zero")
# The edge set: contexts where today's library is known to answer wrongly
# part of the time.  It is the same for every seed, so how many of it
# the library gets right depends on the library alone.
EDGE_SEED = "qlra-bench:edge"
EDGE_EXTREME = 192
EDGE_PER_BAD_VALUE = 8  # null and NaN contexts each


class Expected(NamedTuple):
    valid: bool
    regimes: tuple[str, str] | None  # b_given_a, a_given_b
    equivalent: bool | None
    exit_code: int  # what `qlra analyze` documents for this outcome


class Case(NamedTuple):
    kind: str
    text: str  # the context as JSON text, as a user would pass it
    expected: Expected


def _ds(p: float) -> list[list[float]]:
    return [[p, 1.0 - p], [1.0 - p, p]]


def _band(p: float, p_a1: float) -> tuple[float, float, float, float]:
    """(S, R, lo, hi): lam1 maps to p_b1 = S + 2*lam1*R, in (0,1) for lam1 in (lo, hi)."""
    S = p_a1 * p + (1.0 - p_a1) * (1.0 - p)
    R = math.sqrt(p_a1 * p * (1.0 - p_a1) * (1.0 - p))
    return S, R, -S / (2.0 * R), (1.0 - S) / (2.0 * R)


def _hyperbolic_intervals(p: float, p_a1: float) -> list[tuple[float, float]]:
    _, _, lo, hi = _band(p, p_a1)
    return ([(lo, -1.0)] if lo < -1.0 else []) + ([(1.0, hi)] if hi > 1.0 else [])


def _context(p_a1: float, p_b1: float, m_ba, m_ab) -> dict:
    return {
        "p_a": [p_a1, 1.0 - p_a1],
        "p_b": [p_b1, 1.0 - p_b1],
        "P_b_given_a": m_ba,
        "P_a_given_b": m_ab,
    }


def _directions(d: dict):
    """(conditioning marginals, conditioned marginals, matrix) per direction."""
    yield d["p_a"], d["p_b"], d["P_b_given_a"]
    yield d["p_b"], d["p_a"], d["P_a_given_b"]


def _regime(p_cond, p_out, M) -> tuple[str, float]:
    """Exact regime of one direction, and how clear of |lam| = 1 it is.

    The clearance is the float distance of |lam| from 1 divided by a
    generous bound on the rounding error of the float formula qlra uses;
    labels are only trusted when it is large.
    """
    big, clearance = [], math.inf
    for i in range(2):
        a = Fraction(p_cond[0]) * Fraction(M[i][0])
        b = Fraction(p_cond[1]) * Fraction(M[i][1])
        num = Fraction(p_out[i]) - a - b
        big.append(num * num > 4 * a * b)
        denom = 2.0 * math.sqrt(float(a * b))
        lam = float(num) / denom
        err = 16 * _EPS * (abs(p_out[i]) + float(a + b)) / denom + 16 * _EPS * abs(lam)
        clearance = min(clearance, abs(abs(lam) - 1.0) / err)
    regime = HYP if all(big) else TRIG if not any(big) else MIXED
    return regime, clearance


def _clearly_valid(d: dict) -> bool:
    values = [*d["p_a"], *d["p_b"]] + [x for k in ("P_b_given_a", "P_a_given_b") for r in d[k] for x in r]
    return all(_CLEAR <= x <= 1.0 - _CLEAR for x in values)


def label(d: dict, min_clearance: float = 100.0) -> Expected | None:
    """The oracle for a valid doubly stochastic context, or None when unclear."""
    if not _clearly_valid(d):
        return None
    regimes = []
    for p_cond, p_out, M in _directions(d):
        regime, clearance = _regime(p_cond, p_out, M)
        if clearance < min_clearance:
            return None
        regimes.append(regime)
    regimes = tuple(regimes)
    if regimes != (HYP, HYP):
        return Expected(True, regimes, None, 2)
    symmetric = all(
        d["P_b_given_a"][i][j] == d["P_a_given_b"][j][i] for i in range(2) for j in range(2)
    )
    return Expected(True, regimes, symmetric, 0 if symmetric else 3)


INVALID = Expected(False, None, None, 1)


def _loguniform_prob(rng: random.Random) -> float:
    """A probability drawn log-uniformly towards 0 (down to 1e-9) or 1 (up to 1 - 1e-6)."""
    if rng.random() < 0.5:
        return math.exp(rng.uniform(math.log(1e-9), math.log(0.5)))
    return 1.0 - math.exp(rng.uniform(math.log(1e-6), math.log(0.5)))


def _well_conditioned(rng: random.Random, lo_p: float, hi_p: float, min_clearance: float):
    """A symmetric hyperbolic context with lam1 in the interior of its band."""
    while True:
        p, p_a1 = rng.uniform(lo_p, hi_p), rng.uniform(lo_p, hi_p)
        intervals = _hyperbolic_intervals(p, p_a1)
        if not intervals:
            continue
        lo, hi = intervals[rng.randrange(len(intervals))]
        pad = 0.05 * (hi - lo)
        S, R, _, _ = _band(p, p_a1)
        d = _context(p_a1, S + 2.0 * rng.uniform(lo + pad, hi - pad) * R, _ds(p), _ds(p))
        expected = label(d, min_clearance)
        if expected is not None and expected.regimes == (HYP, HYP):
            return d, expected


def _signs_agree(d: dict) -> bool:
    """Whether lam1 has the same sign in both directions."""
    signs = [p_out[0] > p_cond[0] * M[0][0] + p_cond[1] * M[0][1] for p_cond, p_out, M in _directions(d)]
    return signs[0] == signs[1]


def symmetric_pool(rng: random.Random, size: int) -> list[Case]:
    """Well-conditioned symmetric contexts, one third with lam1 of the same sign in both directions.

    That sign relation decides whether check_consistency needs its second
    phase branch, which costs a fifth reconstruction.  Drawn freely the
    two cases come about half and half, and the median op then sits on
    the edge between two modes of op time and swings with the seed; in
    exact quotas it sits inside one.
    """
    wanted = {True: size // 3, False: size - size // 3}
    cases = []
    while len(cases) < size:
        d, expected = _well_conditioned(rng, 0.02, 0.98, 1e6)
        agree = _signs_agree(d)
        if wanted[agree]:
            wanted[agree] -= 1
            cases.append(Case("symmetric", json.dumps(d), expected))
    return cases


def extreme(rng: random.Random) -> Case:
    """A symmetric context near the corners of the domain.

    p and p_a1 are log-uniform towards 0 and 1, and lam1 lies within a
    relative 1e-6 of one edge of its feasible band, where |lam| is
    largest or where it meets the trigonometric boundary.
    """
    while True:
        p, p_a1 = _loguniform_prob(rng), _loguniform_prob(rng)
        intervals = _hyperbolic_intervals(p, p_a1)
        if not intervals:
            continue
        lo, hi = intervals[rng.randrange(len(intervals))]
        edge = (lo, hi)[rng.randrange(2)]
        lam = edge * (1.0 - math.exp(rng.uniform(math.log(1e-9), math.log(1e-6))) * (1 if abs(edge) > 1 else -1))
        S, R, _, _ = _band(p, p_a1)
        d = _context(p_a1, S + 2.0 * lam * R, _ds(p), _ds(p))
        expected = label(d)
        if expected is not None:
            return Case("extreme", json.dumps(d), expected)


def asymmetric(rng: random.Random) -> Case:
    """Both directions hyperbolic, but P_a|b is not the transpose of P_b|a."""
    while True:
        d, _ = _well_conditioned(rng, 0.05, 0.95, 0.0)
        q = d["P_b_given_a"][0][0]
        for _ in range(20):
            r = rng.uniform(0.05, 0.95)
            if abs(r - q) < 0.05:
                continue
            d["P_a_given_b"] = _ds(r)
            expected = label(d, 1e6)
            if expected is not None and expected.regimes == (HYP, HYP):
                return Case("asym", json.dumps(d), expected)


def trigonometric(rng: random.Random) -> Case:
    """|lam| < 1 in the b|a direction: analysis stops after the coefficients."""
    while True:
        p, p_a1 = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        S, R, lo, hi = _band(p, p_a1)
        lo, hi = max(lo, -0.95), min(hi, 0.95)
        pad = 0.05 * (hi - lo)
        d = _context(p_a1, S + 2.0 * rng.uniform(lo + pad, hi - pad) * R, _ds(p), _ds(p))
        expected = label(d, 1e6)
        if expected is not None and expected.regimes[0] == TRIG:
            return Case("trig", json.dumps(d), expected)


def symmetric(rng: random.Random) -> Case:
    """A well-conditioned symmetric hyperbolic context: the analysis ends "equivalent"."""
    d, expected = _well_conditioned(rng, 0.02, 0.98, 1e6)
    return Case("symmetric", json.dumps(d), expected)


def invalid(rng: random.Random, kind: str) -> Case:
    """A context `qlra analyze` must reject with exit code 1 (kinds: INVALID_KINDS, null, nan)."""
    d, _ = _well_conditioned(rng, 0.05, 0.95, 0.0)
    if kind == "bad_norm":
        key = rng.choice(("p_a", "p_b"))
        d[key][1] += rng.choice((-1, 1)) * rng.uniform(0.01, 0.04)
    elif kind == "non_ds":
        q = rng.uniform(0.05, 0.45)
        q2 = q + rng.uniform(0.05, 0.5)
        m = [[q, q2], [1.0 - q, 1.0 - q2]]
        d["P_b_given_a"], d["P_a_given_b"] = m, [[m[j][i] for j in range(2)] for i in range(2)]
    elif kind == "zero":
        key = rng.choice(("p_a", "p_b", "P_b_given_a"))
        if key == "P_b_given_a":
            d[key] = d["P_a_given_b"] = _ds(rng.choice((0.0, 1.0)))
        else:
            d[key] = rng.choice(([0.0, 1.0], [1.0, 0.0]))
    else:
        key = rng.choice(("p_a", "p_b", "P_b_given_a", "P_a_given_b"))
        row = d[key] if key.startswith("p_") else d[key][rng.randrange(2)]
        row[rng.randrange(2)] = None if kind == "null" else math.nan
    return Case(kind, json.dumps(d), INVALID)


def _corner(p: float, p_a1: float, outer: float) -> list[Case]:
    """Symmetric contexts with lam1 at a relative ``outer`` inside each outer band edge."""
    S, R, _, _ = _band(p, p_a1)
    cases = []
    for lo, hi in _hyperbolic_intervals(p, p_a1):
        edge = lo if hi == -1.0 else hi
        d = _context(p_a1, S + 2.0 * edge * (1.0 - outer) * R, _ds(p), _ds(p))
        expected = label(d)
        if expected is not None:
            cases.append(Case("probe", json.dumps(d), expected))
    return cases


def edge_set() -> list[Case]:
    """The fixed edge set: extreme symmetric contexts, then null and NaN entries.

    The extreme part is the corners of the domain, with lam1 at a relative
    1e-6 inside the outer band edge, where |lam| and so the Born residual
    are largest, followed by EDGE_EXTREME draws of `extreme` from a fixed
    generator.  The theorem fixes every label.  Nothing here depends on
    the seed of a run or on what the library gets right.
    """
    grid = (1e-9, 0.5, 1.0 - 1e-6)
    cases = [case for p in grid for p_a1 in grid for case in _corner(p, p_a1, 1e-6)]
    rng = random.Random(EDGE_SEED)
    cases += [extreme(rng) for _ in range(EDGE_EXTREME)]
    cases += [invalid(rng, kind) for kind in ("null", "nan") for _ in range(EDGE_PER_BAD_VALUE)]
    return cases


def _mixed(rng: random.Random, size: int) -> list[Case]:
    """`size` contexts in exact MIX quotas per kind (only the draws vary with the seed), shuffled."""
    kinds = [kind for kind, share in MIX for _ in range(round(share * size))]
    kinds = (kinds + [MIX[0][0]] * size)[:size]
    rng.shuffle(kinds)
    cases, n_invalid = [], 0
    for kind in kinds:
        if kind == "invalid":
            cases.append(invalid(rng, INVALID_KINDS[n_invalid % len(INVALID_KINDS)]))
            n_invalid += 1
        else:
            cases.append({"trig": trigonometric, "asym": asymmetric, "symmetric": symmetric}[kind](rng))
    return cases


def make_pool(workload: str, seed: int, size: int) -> list[Case]:
    """`size` labelled contexts drawn from the seed; cli_process draws from the mixed generator."""
    rng = random.Random(f"qlra-bench:{workload}:{seed}")
    if workload == "bulk_symmetric":
        return symmetric_pool(rng, size)
    return _mixed(rng, size)
