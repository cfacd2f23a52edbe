"""Exception types shared across the toolkit."""

__all__ = ["KCausalError", "InputError", "NotStablyCausalError", "BoundExceededError"]


def _shown(value) -> str:
    """``repr(value)`` for an error message, or a stand-in when the value holds
    an integer past the interpreter's integer-to-string digit limit."""
    try:
        return repr(value)
    except ValueError:
        return "a number too long to print"


class KCausalError(Exception):
    """Base class for all toolkit errors."""


class InputError(KCausalError):
    """Malformed, inconsistent, or out-of-domain user input."""


class NotStablyCausalError(KCausalError):
    """Raised when an operation needs an antisymmetric closure (a partial order).

    Carries one witnessing cycle pair so callers can report a concrete defect.
    """

    def __init__(self, pair: tuple[str, str]):
        self.pair = pair
        super().__init__(
            f"causal structure is not stably causal: events {_shown(pair[0])} and "
            f"{_shown(pair[1])} precede each other"
        )


class BoundExceededError(KCausalError):
    """Instance is larger than an exhaustive-enumeration bound allows."""
