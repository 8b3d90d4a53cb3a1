"""Exception hierarchy shared by all qlra modules."""

__all__ = [
    "QlraError",
    "ArgDomainError",
    "StochasticityError",
    "RegimeError",
    "InfeasibleContextError",
]


class QlraError(Exception):
    """Base class for errors raised by this package."""


class ArgDomainError(QlraError):
    """Hyperbolic argument requested outside the positive cone (x^2 - y^2 <= 0)."""


class StochasticityError(QlraError):
    """A transition matrix fails the required (doubly) stochastic condition."""


class RegimeError(QlraError):
    """Interference data is not in the regime required by the operation."""


class InfeasibleContextError(QlraError):
    """Requested generator parameters admit no valid probabilistic context."""
