"""Hyperbolic-amplitude reconstruction from dichotomous probabilistic data.

Builds split-complex (hyperbolic) probability amplitudes whose squared
moduli reproduce given marginals and transition probabilities, and
checks that the two conditioning orders yield unitarily equivalent
states.  The pipeline computes on floats; the split-complex object layer
(``qlra.algebra``, ``qlra.linear``) is imported on its own, and loaded by
qlra only where an object is handed out.
"""

__version__ = "0.1.0"

from .context import (TOLERANCE, Direction, InterferenceProfile, ProbContext, Regime, check_proposition1,
                      generate_hyperbolic_context, interference_coefficients, is_doubly_stochastic,
                      lambda_feasible_range, random_hyperbolic_context, validate_context)
from .engine import (BornReport, QlraState, ViolationReport, born_violation_demo, conditioning_basis,
                     expansion_consistency, run_qlra, verify_born_rule)
from .equivalence import (EquivalenceVerdict, analyze, check_consistency, proof_relation_residual,
                          states_equivalent, transition_unitary)
from .errors import (ArgDomainError, DegenerateStateError, InfeasibleContextError, QlraError, RegimeError,
                     StochasticityError, ZeroDivisorError)

__all__ = [
    "__version__",
    "Direction",
    "Regime",
    "InterferenceProfile",
    "ProbContext",
    "TOLERANCE",
    "is_doubly_stochastic",
    "validate_context",
    "interference_coefficients",
    "check_proposition1",
    "generate_hyperbolic_context",
    "lambda_feasible_range",
    "random_hyperbolic_context",
    "QlraState",
    "BornReport",
    "ViolationReport",
    "run_qlra",
    "conditioning_basis",
    "verify_born_rule",
    "expansion_consistency",
    "born_violation_demo",
    "EquivalenceVerdict",
    "analyze",
    "transition_unitary",
    "states_equivalent",
    "check_consistency",
    "proof_relation_residual",
    "QlraError",
    "ZeroDivisorError",
    "ArgDomainError",
    "StochasticityError",
    "RegimeError",
    "InfeasibleContextError",
    "DegenerateStateError",
]
