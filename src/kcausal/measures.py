"""Exact-rational probability measures over a finite event set.

All weights are :class:`fractions.Fraction`; feasibility questions downstream
are decided without any tolerance.  Total-variation distance stands in for
narrow convergence, which it coincides with on a finite discrete space.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import InputError, _shown
from .structure import (
    EventSet, _by_label, _common_units, _mapping, _rationals, _reduced, _require_same_events, _scaled, iter_bits,
    parse_rational,
)

__all__ = [
    "Measure",
    "parse_rational",
    "format_rational",
    "measure",
    "dirac",
    "uniform_measure",
    "measure_of",
    "tv_distance",
    "convex_combination",
    "integrate",
    "measure_from_jsonable",
    "measure_to_jsonable",
]


def format_rational(value: Fraction) -> str:
    """``"p/q"`` (or ``"p"``) text of an exact rational; every emitted rational is written here.

    A numerator or denominator past the interpreter's integer-to-string digit
    limit is refused with ``InputError`` rather than a bare ``ValueError``.
    """
    try:
        return str(value)
    except ValueError as exc:
        raise InputError(
            f"rational too long to print: more than {sys.get_int_max_str_digits()} digits "
            "(the interpreter's limit; raise it with PYTHONINTMAXSTRDIGITS)"
        ) from exc


@dataclass(frozen=True)
class Measure:
    """Probability vector over an event set; weights nonnegative and sum to 1."""

    events: EventSet
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", _rationals("measure weights", self.weights))
        if len(self.weights) != len(self.events):
            raise InputError("measure needs one weight per event")
        negatives = [self.events.labels[i] for i, w in enumerate(self.weights) if w.numerator < 0]
        if negatives:
            raise InputError(f"negative weight on {_shown(negatives[0])}")
        den, (units,) = integer = _scaled(self.weights)
        object.__setattr__(self, "_integer_weights", integer)
        if sum(units) != den:
            raise InputError(f"weights sum to {format_rational(Fraction(sum(units), den))}, expected exactly 1")

    @classmethod
    def _of_units(cls, events: EventSet, den: int, units: Sequence[int]) -> Measure:
        """Measure of weights ``units[i] / den`` from the package's own units: one per event, summing to ``den``."""
        mu = object.__new__(cls)
        den, (units,) = integer = _reduced(den, units)
        vars(mu).update(events=events, weights=tuple(Fraction(u, den) for u in units), _integer_weights=integer)
        return mu

    @cached_property
    def admissible(self) -> bool:
        """Full support: positive weight on every event."""
        return all(w > 0 for w in self.weights)

    @property
    def _common_denominator(self) -> int:
        return self._integer_weights[0]

    def weight(self, label: str) -> Fraction:
        return self.weights[self.events.index_of(label)]

    def mass_of_mask(self, mask: int) -> Fraction:
        den, (scaled,) = self._integer_weights
        return Fraction(sum(scaled[i] for i in iter_bits(mask)), den)

    def support_mask(self) -> int:
        return sum(1 << i for i, w in enumerate(self.weights) if w > 0)


def measure(events: EventSet, weights: Mapping[str, object]) -> Measure:
    """Measure from a label-to-weight mapping; absent labels carry zero."""
    return Measure(events=events, weights=_by_label("measure weights", events, weights, absent=Fraction(0)))


def dirac(events: EventSet, label: str) -> Measure:
    return measure(events, {label: 1})


def uniform_measure(events: EventSet) -> Measure:
    return Measure._of_units(events, len(events), [1] * len(events))


def measure_of(mu: Measure, X: Iterable[str]) -> Fraction:
    """Exact mass of a subset of events."""
    return mu.mass_of_mask(mu.events.mask_of(X))


def tv_distance(mu: Measure, nu: Measure) -> Fraction:
    """Total-variation distance, ``(1/2) * sum |mu(p) - nu(p)|``."""
    _require_same_events(mu, nu, kinds=(Measure, Measure))
    den, (a, b) = _common_units(mu, nu)
    return Fraction(sum(abs(x - y) for x, y in zip(a, b)), 2 * den)


def _mixture_coefficient(lam) -> Fraction:
    lam = parse_rational(lam)
    if not 0 <= lam <= 1:
        raise InputError(f"mixture coefficient {format_rational(lam)} outside [0, 1]")
    return lam


def convex_combination(lam, mu: Measure, nu: Measure) -> Measure:
    """Pointwise mixture ``lam * mu + (1 - lam) * nu`` for ``lam`` in [0, 1]."""
    lam = _mixture_coefficient(lam)
    _require_same_events(mu, nu, kinds=(Measure, Measure))
    p, q = lam.numerator, lam.denominator
    den, (a, b) = _common_units(mu, nu)
    return Measure._of_units(mu.events, q * den, [p * x + (q - p) * y for x, y in zip(a, b)])


def integrate(mu: Measure, f) -> Fraction:
    """Exact expectation of a per-event function under ``mu``.

    ``f`` is either a mapping from every label of ``mu``'s events to a
    rational value, or a time function on ``mu``'s events.
    """
    _require_same_events(mu, kinds=(Measure,))
    if isinstance(getattr(f, "values", None), tuple):  # a time function: its kind is this test
        _require_same_events(mu, f, kinds=(Measure, object))
        values = f.values
    else:
        values = _by_label("integrand", mu.events, f)
    return sum(v * w for v, w in zip(values, mu.weights) if w)


def measure_from_jsonable(obj, events: EventSet) -> Measure:
    return measure(events, _mapping("measure", obj).get("weights"))


def measure_to_jsonable(mu: Measure) -> dict:
    return {
        "weights": {
            lab: format_rational(w) for lab, w in zip(mu.events.labels, mu.weights) if w
        }
    }
