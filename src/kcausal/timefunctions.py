"""Strictly monotone time labelings and the order-theoretic feasibility checks.

A time function assigns rational values to events so that values strictly
increase along the closed causal order.  On a finite space every such
labeling induces the same superlevel structure as some linear extension, so
enumeration runs over linear extensions and sampling over random topological
sorts.  Spaces whose closure has a two-way pair admit no time function at
all; every operation here fails loudly on them instead of returning vacuous
answers.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Mapping

from .errors import InputError, NotStablyCausalError, _shown
from .measures import Measure, format_rational, integrate, parse_rational
from .structure import (
    DEFAULT_UPSET_BOUND,
    SEED_SPAN,
    CausalSpace,
    EventSet,
    _by_label,
    _check_bound,
    _check_count,
    _check_seed,
    _common_units,
    _mapping,
    _rationals,
    _require_same_events,
    find_cycle_pair,
)
from .transport import _heavier_upset

__all__ = [
    "TimeFunction",
    "time_function",
    "is_stably_causal",
    "is_strictly_monotone",
    "rank_time_function",
    "enumerate_time_functions",
    "sample_time_function",
    "future_volume_timefn",
    "indicator_time_function",
    "condition4_check",
    "condition5_check",
    "minguzzi_check",
    "timefn_from_jsonable",
    "timefn_to_jsonable",
]

DEFAULT_ENUMERATION_BOUND = 8


@dataclass(frozen=True)
class TimeFunction:
    """Rational value per event, aligned with the event order."""

    events: EventSet
    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _rationals("time function values", self.values))
        if len(self.values) != len(self.events):
            raise InputError("one value per event required")

    def value_of(self, label: str) -> Fraction:
        return self.values[self.events.index_of(label)]

    def superlevel_mask(self, threshold, closed: bool = False) -> int:
        """Bit mask of events with value above (or at, if closed) the threshold, read by ``parse_rational``."""
        threshold = parse_rational(threshold)
        mask = 0
        for i, v in enumerate(self.values):
            if v > threshold or (closed and v == threshold):
                mask |= 1 << i
        return mask


def is_stably_causal(space: CausalSpace) -> bool:
    """True iff the closure is antisymmetric, i.e. admits time functions."""
    return find_cycle_pair(space) is None


def _require_stably_causal(space: CausalSpace):
    pair = find_cycle_pair(space)
    if pair is not None:
        raise NotStablyCausalError(pair)


def is_strictly_monotone(space: CausalSpace, timefn: TimeFunction) -> bool:
    try:
        _require_same_events(space, timefn, kinds=(CausalSpace, TimeFunction))
    except InputError:
        return False
    if not is_stably_causal(space):
        return False
    values = timefn.values
    return all(values[i] < values[j] for i, j in _covers(space))


def time_function(space: CausalSpace, values: Mapping[str, object]) -> TimeFunction:
    """Validated time function from a label-to-value mapping."""
    _require_stably_causal(space)
    timefn = TimeFunction(events=space.events, values=_by_label("time values", space.events, values))
    if not is_strictly_monotone(space, timefn):
        raise InputError("values do not strictly increase along the causal order")
    return timefn


def _covers(space: CausalSpace) -> list[tuple[int, int]]:
    # The pairs (i, j) where j covers i in a stably causal space, whose order classes are single events.
    classes, links = space._order
    return [(classes[k][0], classes[q][0]) for k, above in enumerate(links) for q in above]


def _linear_extensions(space: CausalSpace) -> Iterator[tuple[int, ...]]:
    # Streams extensions in lexicographic order of event indices, none if the space has a two-way pair;
    # the first is the greedy minimal-index topological order.  Each depth keeps ``(ready, rest, placed)``:
    # the unplaced events whose covered events are all placed, those of them not yet tried there (lowest
    # first), and the placed events.  A depth stays on this stack, not the call stack, only while ``rest`` is nonempty.
    if not is_stably_causal(space):
        return
    n = space.n
    preds = [0] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in _covers(space):
        preds[j] |= 1 << i
        succ[i].append(j)
    ready = sum(1 << j for j in range(n) if not preds[j])
    stack = [(ready, ready, 0)]
    order = [0] * n
    while stack:
        ready, rest, placed = stack.pop()
        bit = rest & -rest
        if rest ^ bit:
            stack.append((ready, rest ^ bit, placed))
        depth = placed.bit_count()
        order[depth] = j = bit.bit_length() - 1
        placed |= bit
        ready ^= bit
        for k in succ[j]:
            if not preds[k] & ~placed:
                ready |= 1 << k
        if depth + 1 < n:
            stack.append((ready, ready, placed))
        else:
            yield tuple(order)


def _extensions(space: CausalSpace, max_events: int) -> Iterator[tuple[int, ...]]:
    """The extension stream of a stably causal space of at most ``max_events`` events."""
    _require_stably_causal(space)
    _check_bound("extension enumeration", space.n, max_events)
    return _linear_extensions(space)


def _rank_values(space: CausalSpace, order: Iterable[int], ranks: tuple[Fraction, ...]) -> TimeFunction:
    values: list[Fraction | None] = [None] * space.n
    for j, rank in zip(order, ranks):
        values[j] = rank
    return TimeFunction(events=space.events, values=tuple(values))


def _ready_order(space: CausalSpace, take: Callable[[list[int]], int]) -> Iterator[int]:
    # Kahn's sort of the covering pairs.  Placed events form a down-set, so an event whose covered
    # events are placed has all its predecessors placed.  ``ready`` stays sorted and ``take`` picks
    # the position to place next; each event is yielded when taken, so draws interleave as in one loop.
    succ: list[list[int]] = [[] for _ in range(space.n)]
    waiting = [0] * space.n
    for i, j in _covers(space):
        succ[i].append(j)
        waiting[j] += 1
    ready = [j for j, count in enumerate(waiting) if not count]
    while ready:
        i = ready.pop(take(ready))
        yield i
        for j in succ[i]:
            waiting[j] -= 1
            if not waiting[j]:
                insort(ready, j)


def rank_time_function(space: CausalSpace) -> TimeFunction:
    """Canonical integer-valued time function (first linear extension)."""
    _require_stably_causal(space)
    return _rank_values(space, _ready_order(space, lambda ready: 0), tuple(map(Fraction, range(space.n))))


def enumerate_time_functions(
    space: CausalSpace,
    max_events: int = DEFAULT_ENUMERATION_BOUND,
) -> list[TimeFunction]:
    """All linear extensions as rank-valued time functions.

    Complete up to order-isomorphism of value assignments: any time function
    induces the same superlevel sets as one of these.
    """
    ranks = tuple(map(Fraction, range(space.n)))
    return [_rank_values(space, order, ranks) for order in _extensions(space, max_events)]


def sample_time_function(space: CausalSpace, seed: int) -> TimeFunction:
    """Random linear extension with strictly increasing random rational values."""
    _check_seed(seed)
    _require_stably_causal(space)
    rng = random.Random(seed)
    level = Fraction(rng.randrange(0, 24), 24)
    values = [Fraction(0)] * space.n
    for j in _ready_order(space, lambda ready: rng.randrange(len(ready))):
        values[j] = level
        level += Fraction(rng.randrange(1, 25), 24)
    return TimeFunction(events=space.events, values=tuple(values))


def future_volume_timefn(space: CausalSpace, eta: Measure, lam, y: Iterable[str]) -> TimeFunction:
    """Time function ``t(p) = -eta(F(p) & Y) - lam * eta(F(p) - Y)``.

    ``F(p)`` is the reflexive causal future of ``p`` and ``Y`` must be closed
    under causal pasts.  With full-support ``eta`` and ``lam`` in (0, 1] the
    result is strictly monotone, and ``eta(F(p) & Y) > 0`` exactly when
    ``p`` lies in ``Y``.
    """
    _require_same_events(space, eta, kinds=(CausalSpace, Measure))
    _require_stably_causal(space)
    if not eta.admissible:
        raise InputError("reference measure must put positive weight on every event")
    lam = parse_rational(lam)
    if not 0 < lam <= 1:
        raise InputError(f"mixing coefficient must lie in (0, 1], got {format_rational(lam)}")
    y_mask = space.events.mask_of(y)
    if space.past_mask(y_mask) & ~y_mask:
        raise InputError("the region must be closed under causal pasts")
    rows = space.kplus.rows
    values = tuple(
        -eta.mass_of_mask(rows[i] & y_mask) - lam * eta.mass_of_mask(rows[i] & ~y_mask)
        for i in range(space.n)
    )
    return TimeFunction(events=space.events, values=values)


def indicator_time_function(space: CausalSpace, subset: Iterable[str], epsilon=None) -> TimeFunction:
    """Strictly monotone perturbation ``chi_U + epsilon * t0`` of an up-set indicator.

    ``t0`` is the canonical rank extension.  The default epsilon,
    ``1 / (2 * (1 + max t0 - min t0))``, keeps the perturbation below 1/2, so
    the superlevel set above 1/2 recovers ``U`` exactly.
    """
    _require_stably_causal(space)
    mask = space.events.mask_of(subset)
    if not space.is_upset_mask(mask):
        raise InputError("indicator construction needs a future-closed subset")
    t0 = rank_time_function(space)
    epsilon = _default_epsilon(space) if epsilon is None else parse_rational(epsilon)
    if not (epsilon > 0 and epsilon * (space.n - 1) < Fraction(1, 2)):
        raise InputError("epsilon must be positive and keep the perturbation below 1/2")
    values = tuple(
        (1 if mask >> i & 1 else 0) + epsilon * t0.values[i] for i in range(space.n)
    )
    return TimeFunction(events=space.events, values=values)


def _default_epsilon(space: CausalSpace) -> Fraction:
    # The rank extension takes the values 0..n-1: its spread is n - 1, and
    # 1 / (2 * (1 + spread)) is 1 / (2n).
    return Fraction(1, 2 * space.n)


def _sampled_timefns(space: CausalSpace, samples: int, seed: int) -> Iterator[TimeFunction]:
    # The count and the seed are checked now; the samples are drawn as they are consumed.
    _check_count("sample count", samples)
    _check_seed(seed)
    rng = random.Random(seed)
    return (sample_time_function(space, rng.randrange(SEED_SPAN)) for _ in range(samples))


def condition4_check(
    space: CausalSpace,
    mu: Measure,
    nu: Measure,
    half_line: str = "open",
    mode: str = "exhaustive",
    samples: int = 32,
    seed: int = 0,
    max_events: int = DEFAULT_ENUMERATION_BOUND,
) -> bool:
    """Superlevel-set mass inequality over time functions.

    Exhaustive mode quantifies over all linear extensions and all
    threshold-distinct half-lines; sampled mode is a seeded falsifier whose
    sampled values have no ties.  Either way every superlevel set is a suffix
    of an order of the events, so each order costs one pass of exact integer
    prefix sums: O(#extensions * n) time and O(n) memory in exhaustive mode.
    The open and closed half-line variants agree on every instance, so
    ``half_line`` is only validated: both run the same scan, and the
    ``remark8`` suite and acceptance criterion 6 agree by construction.  The
    per-threshold oracle in ``tests/test_exhaustive_oracles.py`` separates them.
    """
    if half_line not in ("open", "closed"):
        raise InputError(f"unknown half-line variant: {_shown(half_line)}")
    _require_same_events(space, mu, nu, kinds=(CausalSpace, Measure, Measure))
    _require_stably_causal(space)
    _check_count("sample count", samples)  # both modes' arguments are checked, whatever ``mode`` is
    _check_seed(seed)
    _check_count("max_events", max_events)
    if mode == "exhaustive":
        orders: Iterable[Iterable[int]] = _extensions(space, max_events)
    elif mode == "sampled":
        orders = (sorted(range(space.n), key=t.values.__getitem__) for t in _sampled_timefns(space, samples, seed))
    else:
        raise InputError(f"unknown mode: {_shown(mode)}")
    # Every superlevel set, open or closed, of a labeling without ties is a
    # suffix of its order.  ``excess`` is mu - nu scaled to integers and sums
    # to 0, so mu <= nu on every suffix iff no prefix sum is negative.
    _, (mu_units, nu_units) = _common_units(mu, nu)
    excess = [a - b for a, b in zip(mu_units, nu_units)]
    return all(min(accumulate(map(excess.__getitem__, order))) >= 0 for order in orders)


def condition5_check(
    space: CausalSpace,
    mu: Measure,
    nu: Measure,
    mode: str = "exact",
    samples: int = 32,
    seed: int = 0,
    max_events: int = DEFAULT_UPSET_BOUND,
) -> bool:
    """Integral inequality ``integrate(mu, t) <= integrate(nu, t)`` over time functions.

    Sampled mode is a falsifier over seeded samples.  Exact mode decides the
    full quantified statement: it holds iff every up-set satisfies the mass
    inequality, because superlevel sets of time functions are up-sets and any
    violating up-set yields a violating perturbed indicator, which exact mode
    constructs and verifies before answering false.
    """
    _require_same_events(space, mu, nu, kinds=(CausalSpace, Measure, Measure))
    _require_stably_causal(space)
    _check_count("sample count", samples)  # both modes' arguments are checked, whatever ``mode`` is
    _check_seed(seed)
    _check_count("max_events", max_events)
    if mode == "sampled":
        return all(integrate(mu, t) <= integrate(nu, t) for t in _sampled_timefns(space, samples, seed))
    if mode != "exact":
        raise InputError(f"unknown mode: {_shown(mode)}")
    violation = _heavier_upset(space, mu, nu, max_events)
    if violation is None:
        return True
    mask, gap = violation
    witness = indicator_time_function(
        space, space.events.labels_of(mask), epsilon=gap * _default_epsilon(space)
    )
    if integrate(mu, witness) <= integrate(nu, witness):
        raise AssertionError("perturbed indicator failed to witness the violation")
    return False


def minguzzi_check(
    space: CausalSpace,
    p: str,
    q: str,
    max_events: int = DEFAULT_ENUMERATION_BOUND,
) -> bool:
    """True iff every enumerated time function puts ``p`` no later than ``q``.

    On a stably causal space this holds exactly when ``q`` lies in the closed
    causal future of ``p``.
    """
    orders = _extensions(space, max_events)
    i = space.events.index_of(p)
    j = space.events.index_of(q)
    if i == j:
        return True
    pair = (i, j)
    for order in orders:
        if next(k for k in order if k in pair) == j:
            return False
    return True


# ---------------------------------------------------------------------------
# JSON formats


def timefn_to_jsonable(timefn: TimeFunction) -> dict:
    labels = timefn.events.labels
    return {"values": {labels[i]: format_rational(v) for i, v in enumerate(timefn.values)}}


def timefn_from_jsonable(obj, space: CausalSpace) -> TimeFunction:
    return time_function(space, _mapping("time function", obj).get("values"))
