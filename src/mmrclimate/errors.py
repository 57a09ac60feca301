"""Exception types shared across the package.

Each error carries an ``exit_code`` so the command line layer can map
failures onto shell conventions (2 = usage/config problem, 3 = numerical
failure) without inspecting types one by one.
"""


class MmrClimateError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class ParseError(MmrClimateError):
    """A file that cannot be read, parsed or written."""

    exit_code = 2


class ValidationError(MmrClimateError):
    """Input violates a documented invariant (ordering, sign, count)."""

    exit_code = 2


class DivergentIntegral(MmrClimateError):
    """Discounted integral does not converge at the requested rate."""


class InvalidDiscount(ValidationError):
    """A discount rate that is not positive and finite, refused by the one
    rule ``economy._check_discount``; at zero, transversality fails.  Every
    rate checked is an input, so this is a usage or config error."""


class NonConvergence(MmrClimateError):
    """Iterative solver exhausted its iteration budget."""


class NoPeak(MmrClimateError):
    """Net cumulative emissions are monotone on the search horizon, so no
    interior temperature maximum exists.  ``asymptote_degc`` reports the
    limiting temperature when it is finite (the no-abatement case)."""

    def __init__(self, message, asymptote_degc=None):
        super().__init__(message)
        self.asymptote_degc = asymptote_degc
