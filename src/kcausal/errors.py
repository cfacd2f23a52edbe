"""Exception types shared across the toolkit."""

__all__ = ["KCausalError", "InputError", "NotStablyCausalError", "BoundExceededError"]


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
            f"causal structure is not stably causal: events {pair[0]!r} and "
            f"{pair[1]!r} precede each other"
        )


class BoundExceededError(KCausalError):
    """Instance is larger than an exhaustive-enumeration bound allows."""
