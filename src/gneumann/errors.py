"""Exception hierarchy with stable machine-readable codes.

Every error carries a ``code`` string (used verbatim in CLI error JSON)
and an optional ``context`` dict with the offending values.
"""

from __future__ import annotations

__all__ = [
    "GneumannError",
    "NegativeWeightError",
    "SelfLoopError",
    "AsymmetricDuplicateError",
    "UnknownVertexError",
    "EmptyInteriorError",
    "InteriorIsWholeGraphError",
    "DisconnectedClosureError",
    "DomainMismatchError",
    "DisconnectedError",
    "IllConditionedError",
    "NonPositiveMeasureError",
    "NonpositiveTimeError",
    "IncompatibleDataError",
    "SpectrumMismatchError",
    "NonpositiveToleranceError",
    "NonpositiveHorizonError",
    "HorizonExceededError",
    "InputError",
]


class GneumannError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


class NegativeWeightError(GneumannError):
    code = "NegativeWeight"


class SelfLoopError(GneumannError):
    code = "SelfLoop"


class AsymmetricDuplicateError(GneumannError):
    code = "AsymmetricDuplicate"


class UnknownVertexError(GneumannError):
    code = "UnknownVertex"


class EmptyInteriorError(GneumannError):
    code = "EmptyInterior"


class InteriorIsWholeGraphError(GneumannError):
    code = "InteriorIsWholeGraph"


class DisconnectedClosureError(GneumannError):
    code = "DisconnectedClosure"


class DomainMismatchError(GneumannError):
    code = "DomainMismatch"


class DisconnectedError(GneumannError):
    code = "Disconnected"


class IllConditionedError(GneumannError):
    """A connected graph whose Laplacian roundoff cannot resolve."""

    code = "IllConditioned"


class NonPositiveMeasureError(GneumannError):
    code = "NonPositiveMeasure"


class NonpositiveTimeError(GneumannError):
    code = "NonpositiveTime"


class IncompatibleDataError(GneumannError):
    code = "IncompatibleData"


class SpectrumMismatchError(GneumannError):
    code = "SpectrumMismatch"


class NonpositiveToleranceError(GneumannError):
    code = "NonpositiveTolerance"


class NonpositiveHorizonError(GneumannError):
    code = "NonpositiveHorizon"


class HorizonExceededError(GneumannError):
    code = "HorizonExceeded"


class InputError(GneumannError, ValueError):
    """Malformed input file, inconsistent CLI arguments, or an argument a
    library function cannot take; also a ``ValueError``."""

    code = "InputError"
