"""Finite causal structures: event sets, precedence relations, closure, generators.

Events are a finite labeled set; a causal relation is a boolean incidence
structure stored as one bitmask per row (bit ``j`` of ``rows[i]`` means event
``i`` precedes event ``j``).  The closure of a raw relation is its smallest
reflexive and transitive superset; with finitely many events every set is
topologically closed, so no separate closure step is needed or modeled.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import repeat
from math import ceil, gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import BoundExceededError, InputError, _shown

__all__ = [
    "EventSet",
    "CausalRelation",
    "CausalSpace",
    "GeneratorSpec",
    "kplus_closure",
    "future_set",
    "past_set",
    "is_upset",
    "lemma_complement_check",
    "enumerate_upsets",
    "upset_masks",
    "default_labels",
    "explicit_space",
    "minkowski_space",
    "sprinkle_space",
    "random_dag_space",
    "generate",
    "generator_spec_from_jsonable",
    "space_from_jsonable",
    "space_to_jsonable",
]

# Sprinkled coordinates are drawn on this per-dimension rational grid, which
# keeps every coordinate an exact rational while remaining effectively uniform.
SPRINKLE_GRID = 10**6

# Largest event count the exhaustive subset and up-set scans accept.
DEFAULT_UPSET_BOUND = 20

# Largest event count a generator builds.  A relation holds n**2 bits and cone
# rows take O(n**2) steps; building at this bound peaks near 0.5 GB (README).
GENERATOR_EVENT_BOUND = 2**15

# Seeds are unsigned 64-bit integers; derived seeds are drawn below this span.
SEED_SPAN = 2**64

# Rows handled per numpy block when relation rows are computed or re-indexed;
# bounds each temporary to ROW_BLOCK x n entries instead of n x n.
ROW_BLOCK = 256

# Entries per subset table: the exhaustive checkers split the events into
# chunks of log2(MASK_BLOCK) bits and visit the 2**n subsets MASK_BLOCK at a
# time, so no table or temporary grows with n.
MASK_BLOCK = 2**12


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _is_integer(value) -> bool:
    """True for an ``int`` that is not a ``bool`` (JSON ``true`` is not an integer)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_seed(seed: int):
    if not _is_integer(seed) or not 0 <= seed < SEED_SPAN:
        raise InputError(f"seed must be an unsigned 64-bit integer, got {_shown(seed)}")


def _check_count(what: str, value, least: int = 1):
    if not _is_integer(value) or value < least:
        raise InputError(f"{what} must be an integer of at least {least}")


def _check_event_count(n):
    """Refuse a generator event count that is not a count, or exceeds ``GENERATOR_EVENT_BOUND``."""
    _check_count("event count", n)
    if n > GENERATOR_EVENT_BOUND:
        raise InputError(f"event count must be at most {GENERATOR_EVENT_BOUND}, got {_shown(n)}")


def _check_bound(what: str, n: int, max_events: int):
    _check_count("max_events", max_events)
    if n > max_events:
        raise BoundExceededError(f"{what} refuses n={n} events (bound {max_events})")


def parse_rational(value) -> Fraction:
    """Exact rational from a ``"p/q"``, integer, or decimal string, or a number.

    Binary floats convert to the exact rational value of the float; infinite
    and NaN floats are rejected.  A decimal exponent larger in magnitude than
    the interpreter's integer digit limit is rejected too: the exact value
    would have that many digits, and building it takes time that grows with
    the exponent.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"expected a number, got {_shown(value)}")
    if isinstance(value, str) and _exponent_exceeds_digit_limit(value):
        raise InputError(f"decimal exponent too large: {_shown(value)}")
    if isinstance(value, (int, str, float)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InputError(f"not a valid rational: {_shown(value)}") from exc
    raise InputError(f"expected a number, got {_shown(value)}")


def _sequence(what: str, value, width: int | None = None) -> tuple:
    """``value`` read once into a tuple: any iterable but a ``str``, ``bytes`` or mapping (in JSON, only a list).

    With ``width``, every entry must itself be such a sequence of ``width`` items, and is read into a tuple too.
    """
    exact = type(value) in (tuple, list, set, frozenset)  # tested first: the abstract-class checks are slower
    if not exact and (isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable)):
        raise InputError(f"{what} must be a list")
    items = tuple(value)
    if width is None:
        return items
    entries = tuple(map(_sequence, repeat(f"every entry of {what}"), items))
    if any(len(x) != width for x in entries):
        raise InputError(f"every entry of {what} must be a list of {width} items")
    return entries


def _by_label(what: str, events: EventSet, mapping, absent: Fraction | None = None) -> tuple[Fraction, ...]:
    """Per-event rationals of a label-keyed mapping; a label it lacks gets ``absent``, or is refused if that is None."""
    values = [absent] * len(events)
    for label, value in _mapping(what, mapping).items():
        values[events.index_of(label)] = parse_rational(value)
    if absent is None and None in values:
        raise InputError(f"{what} missing value for {_shown(events.labels[values.index(None)])}")
    return tuple(values)


def _mapping(what: str, value) -> Mapping:
    if not isinstance(value, Mapping):
        raise InputError(f"{what} must be a mapping")
    return value


def _rationals(what: str, values) -> tuple[Fraction, ...]:
    """``values`` as a tuple read by :func:`parse_rational`; a tuple of ``Fraction`` is returned as is."""
    if type(values) is tuple and all(isinstance(v, Fraction) for v in values):
        return values
    return tuple(map(parse_rational, _sequence(what, values)))


def _points(what: str, value, width: int | None = None) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(map(_rationals, repeat(f"every entry of {what}"), _sequence(what, value, width)))


def _labels(what: str, value) -> tuple[str, ...]:
    """``value`` read by :func:`_sequence` as nonempty strings; a ``str`` subclass (numpy's) comes back as plain ``str``."""
    labels = _sequence(what, value)
    if not all(isinstance(label, str) and label for label in labels):
        raise InputError(f"{what} must be a list of strings, none empty")
    return tuple(map(str, labels))


def _exponent_exceeds_digit_limit(text: str) -> bool:
    _, marker, exponent = text.lower().partition("e")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not marker or not limit:
        return False
    try:
        return abs(int(exponent)) > limit
    except ValueError:  # not an exponent; Fraction decides whether the text parses
        return False


@dataclass(frozen=True)
class EventSet:
    """Ordered finite set of labeled events, optionally with coordinates.

    Coordinates, when present, put the time component first and share one
    dimension ``d+1 >= 2`` across all events.
    """

    labels: tuple[str, ...]
    coords: tuple[tuple[Fraction, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", _labels("event labels", self.labels))
        if not self.labels:
            raise InputError("event set must contain at least one event")
        if len(set(self.labels)) != len(self.labels):
            raise InputError("event labels must be pairwise distinct")
        if self.coords is not None:
            object.__setattr__(self, "coords", _points("event coordinates", self.coords))
            if len(self.coords) != len(self.labels):
                raise InputError("coords must match the number of events")
            dims = {len(point) for point in self.coords}
            if len(dims) > 1:
                raise InputError("all coordinate vectors must share one dimension")
            if dims and min(dims) < 2:
                raise InputError("coordinate dimension must be at least 2 (time plus space)")

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index_of(self, label: str) -> int:
        try:
            return self.index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise InputError(f"unknown event label: {_shown(label)}") from None

    def mask_of(self, subset: Iterable[str]) -> int:
        mask = 0
        for label in _sequence("event subset", subset):
            mask |= 1 << self.index_of(label)
        return mask

    def labels_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.labels[i] for i in iter_bits(mask))


@dataclass(frozen=True)
class CausalRelation:
    """Boolean incidence structure over ``n`` events; row = cause, column = effect."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        _check_count("event count", self.n)
        object.__setattr__(self, "rows", _sequence("relation rows", self.rows))
        if len(self.rows) != self.n:
            raise InputError("relation must have one row per event")
        limit = 1 << self.n
        if any(not _is_integer(row) or row < 0 or row >= limit for row in self.rows):
            raise InputError("relation rows must be integer masks that fit the event count")


def _require_same_events(first, *others, kinds: tuple[type, ...]):
    """Refuse arguments not of their ``kinds`` (one class each), or whose event labels differ from ``first``'s."""
    typed = zip((first, *others), kinds)
    if not all(isinstance(x, kind) and isinstance(getattr(x, "events", None), EventSet) for x, kind in typed):
        raise InputError("expected spaces, measures, couplings or time functions")
    if any(other.events.labels != first.events.labels for other in others):
        raise InputError("arguments live on different event sets")


def kplus_closure(raw: CausalRelation) -> CausalRelation:
    """Smallest reflexive and transitive relation containing ``raw``.

    One iterative Tarjan pass (SIAM J. Comput. 1, 1972) finds the strongly
    connected components of ``raw``.  A component is popped only after every
    component it points to, so it is closed when popped: its row is the mask
    of its members OR-ed with the closed rows of the components its members
    point to (Purdom, BIT 10, 1970).  Correct for arbitrary relations, cycles
    and self-loops included, idempotent, and free of recursion limits.
    """
    rows = raw.rows
    n = raw.n
    closed = [0] * n
    index = [-1] * n  # discovery order
    low = [0] * n
    done = 0  # mask of the events whose component is already closed
    stack: list[int] = []
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        # A frame is [event, successors not yet tried, its position on the stack].
        work = [[root, rows[root], len(stack)]]
        stack.append(root)
        while work:
            frame = work[-1]
            v = frame[0]
            rest = frame[1] & ~done
            if rest:
                bit = rest & -rest
                frame[1] = rest ^ bit
                w = bit.bit_length() - 1
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    work.append([w, rows[w], len(stack)])
                    stack.append(w)
                elif index[w] < low[v]:  # visited and not done: w is on the stack
                    low[v] = index[w]
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == index[v]:
                members = stack[frame[2] :]
                del stack[frame[2] :]
                reach = 0
                for m in members:
                    reach |= 1 << m
                done |= reach
                for m in members:
                    # Each successor outside ``reach`` brings its whole closed
                    # row, so successors that row covers are skipped.
                    rest = rows[m] & ~reach
                    while rest:
                        reach |= closed[(rest & -rest).bit_length() - 1]
                        rest &= ~reach
                for m in members:
                    closed[m] = reach
    return CausalRelation(n, tuple(closed))


@dataclass(frozen=True)
class CausalSpace:
    """A finite event set together with a raw relation and its closure.

    Invariant: ``kplus`` is ``kplus_closure(raw)``.  ``from_raw`` computes it,
    and ``minkowski_space`` passes the closed cone as both, being its own
    closure.
    """

    events: EventSet
    raw: CausalRelation
    kplus: CausalRelation

    def __post_init__(self):
        if self.raw.n != len(self.events) or self.kplus.n != len(self.events):
            raise InputError("relation size must match the event count")

    @classmethod
    def from_raw(cls, events: EventSet, raw: CausalRelation) -> "CausalSpace":
        return cls(events=events, raw=raw, kplus=kplus_closure(raw))

    @property
    def n(self) -> int:
        return len(self.events)

    def future_mask(self, mask: int) -> int:
        out = 0
        for i in iter_bits(mask):
            out |= self.kplus.rows[i]
        return out

    def past_mask(self, mask: int) -> int:
        return sum(1 << i for i, row in enumerate(self.kplus.rows) if row & mask)

    def is_upset_mask(self, mask: int) -> bool:
        return not (self.future_mask(mask) & ~mask)

    @cached_property
    def _order(self) -> tuple[list[list[int]], list[list[int]]]:
        """``_order_links`` of ``kplus`` over every event: the one derivation of classes and covers."""
        return _order_links(self.kplus.rows, range(self.n))


def future_set(space: CausalSpace, X: Iterable[str]) -> frozenset[str]:
    """All events some member of ``X`` precedes (``X`` included, by reflexivity)."""
    return space.events.labels_of(space.future_mask(space.events.mask_of(X)))


def past_set(space: CausalSpace, X: Iterable[str]) -> frozenset[str]:
    """All events preceding some member of ``X``; mirror of :func:`future_set`."""
    return space.events.labels_of(space.past_mask(space.events.mask_of(X)))


def is_upset(space: CausalSpace, X: Iterable[str]) -> bool:
    """True iff ``X`` already contains its own future."""
    return space.is_upset_mask(space.events.mask_of(X))


def lemma_complement_check(space: CausalSpace, X: Iterable[str]) -> bool:
    """Self-test: ``X`` is future-closed exactly when its complement is past-closed.

    Holds for every subset of every space; exercised exhaustively in tests.
    """
    mask = space.events.mask_of(X)
    comp = ((1 << space.n) - 1) & ~mask
    left = space.is_upset_mask(mask)
    right = not (space.past_mask(comp) & ~comp)
    return left == right


def enumerate_upsets(space: CausalSpace, max_events: int = DEFAULT_UPSET_BOUND) -> list[frozenset[str]]:
    """All future-closed subsets, as label sets, in increasing mask order."""
    return [space.events.labels_of(mask) for mask in upset_masks(space, max_events)]


def upset_masks(space: CausalSpace, max_events: int = DEFAULT_UPSET_BOUND) -> Iterator[int]:
    _check_bound("up-set enumeration", space.n, max_events)
    return (mask for block in _SubsetTables(space).upsets() for mask in block.tolist())


class _SubsetTables:
    """Exact integer tables over every subset mask of a space's events.

    The measures' stored units are brought to ``scale``, the least common
    denominator of all their weights (``_common_units``).  Events are split
    into chunks of ``width`` consecutive bits, and a table keeps, per chunk
    and over that chunk's sub-masks, a sum of per-event integers (the units)
    or an OR of them (closure rows), built by doubling.  A mask's value is
    the sum or OR of its chunks' entries, so no table has more than
    MASK_BLOCK entries at any n.  An array is int64 while its entries stay
    below 2**62 (masks while n <= 62, masses while scale < 2**62) and holds
    Python integers (``dtype=object``) otherwise.
    """

    def __init__(self, space: CausalSpace, measures: Sequence = ()):
        self.n = space.n
        self.by_label = sorted(range(self.n), key=space.events.labels.__getitem__)
        self.width = min(self.n, MASK_BLOCK.bit_length() - 1)
        self.scale, scaled = _common_units(*measures)
        self.future = self.table(space.kplus.rows, np.bitwise_or)
        self.masses = [self.table(vec, np.add) for vec in scaled]

    def table(self, values: Sequence[int], op) -> tuple:
        """Nonnegative per-event ``values`` folded over each mask by ``np.add`` or ``np.bitwise_or``."""
        dtype = _exact_dtype(sum(values))
        chunks = []
        for lo in range(0, self.n, self.width):
            chunk = np.zeros(1, dtype=dtype)
            for value in values[lo : lo + self.width]:
                chunk = np.concatenate((chunk, op(chunk, value)))
            chunks.append(chunk)
        return op, chunks

    def at(self, table: tuple, masks: np.ndarray) -> np.ndarray:
        """The table's value at each mask in ``masks``."""
        op, chunks = table
        low = (1 << self.width) - 1
        parts = (
            chunk[np.asarray((masks >> shift) & low, dtype=np.intp)]
            for shift, chunk in zip(range(0, self.n, self.width), chunks)
        )
        return reduce(op, parts)

    def blocks(self) -> Iterator[np.ndarray]:
        """Every mask in increasing order, ``2**width`` at a time."""
        step = 1 << self.width
        first = np.arange(step).astype(_exact_dtype(1 << self.n))
        for lo in range(0, 1 << self.n, step):
            yield first + lo

    def upsets(self) -> Iterator[np.ndarray]:
        """Each block's future-closed masks, in increasing order."""
        for masks in self.blocks():
            yield masks[self.at(self.future, masks) == masks]

    @cached_property
    def key(self) -> tuple:
        """Table of each mask's place in the listing order of subsets: by size, then by sorted labels.

        Event i is bit n-1-rank(label i) of a mask's ranked form, and within a size the set first in
        label order has the largest ranked form, so a mask's key is size * 2**n - ranked form.
        """
        rank = {i: r for r, i in enumerate(self.by_label)}
        return self.table([(1 << self.n) - (1 << (self.n - 1 - rank[i])) for i in range(self.n)], np.add)


def _scaled(*vectors: Sequence[Fraction]) -> tuple[int, list[list[int]]]:
    """The common denominator of every entry of ``vectors``, and each vector times it."""
    den = lcm(*(x.denominator for vec in vectors for x in vec))
    return den, [[x.numerator * (den // x.denominator) for x in vec] for vec in vectors]


def _common_units(*objects) -> tuple[int, list[list[int]]]:
    """``_scaled`` of measures' or couplings' weights, read from the units each one stored at construction."""
    stored = [obj._integer_weights for obj in objects]
    den = lcm(*(d for d, _ in stored))
    return den, [[u * (den // d) for u in units] for d, (units,) in stored]


def _reduced(den: int, units: Sequence[int]) -> tuple[int, list[list[int]]]:
    """``_scaled`` of the values ``units[i] / den``, without building them: all divided by ``gcd(den, *units)``.

    The units are a package result that must sum to ``den``; a sum that does not is a bug (``AssertionError``).
    """
    if sum(units) != den:
        raise AssertionError("units do not sum to their denominator")
    g = gcd(den, *units)
    return den // g, [[u // g for u in units]]


def _exact_dtype(bound: int):
    """int64 if ``bound`` < 2**62 caps every value an array holds, else Python integers (``object``)."""
    return np.int64 if bound < 2**62 else object


def find_cycle_pair(space: CausalSpace) -> tuple[str, str] | None:
    """Two distinct events preceding each other, if any: the lowest event with another in its class, and the next."""
    pair = min(((m[0], m[1]) for m in space._order[0] if len(m) > 1), default=None)
    labels = space.events.labels
    return None if pair is None else (labels[pair[0]], labels[pair[1]])


# ---------------------------------------------------------------------------
# Generators


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative recipe for a causal space.

    ``kind`` is one of ``explicit`` (labels plus a pair list), ``minkowski``
    (coordinate points under the closed cone rule), ``sprinkle`` (seeded
    uniform points in a box, then the cone rule), or ``random-dag`` (seeded
    random edges respecting the vertex order).  ``_KINDS`` lists, once, the
    fields each kind needs and the builder :func:`generate` passes them to,
    together with ``labels``.
    """

    kind: str
    labels: tuple[str, ...] | None = None
    pairs: tuple[tuple[str, str], ...] | None = None
    points: tuple[tuple[Fraction, ...], ...] | None = None
    n: int | None = None
    dim: int | None = None
    box: tuple[tuple[Fraction, Fraction], ...] | None = None
    edge_prob: Fraction | float | str | None = None
    seed: int | None = None

    def __post_init__(self):
        missing = [name for name in _kind_fields(self.kind) if getattr(self, name) is None]
        if missing:
            raise InputError(f"{self.kind} generator needs {', '.join(missing)}")
        # Each field but edge_prob is checked here, and read once: one-shot iterables build alike on every generate.
        for name, read in (
            ("labels", lambda v: _labels("event labels", v)),
            ("pairs", lambda v: tuple(_labels("every entry of relation pairs", p) for p in _sequence("relation pairs", v, 2))),
            ("points", lambda v: _points("minkowski points", v)),
            ("box", lambda v: _points("sprinkle box", v, 2)),
        ):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, read(getattr(self, name)))
        if self.n is not None:
            _check_event_count(self.n)
        if self.dim is not None:
            _check_count("sprinkle dimension (time plus space)", self.dim, least=2)
        if self.seed is not None:
            _check_seed(self.seed)


def _kind_fields(kind) -> tuple[str, ...]:
    """The ``GeneratorSpec`` fields generator ``kind`` needs."""
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InputError(f"unknown generator kind: {_shown(kind)}")
    return _KINDS[kind][1]


def default_labels(n: int) -> tuple[str, ...]:
    _check_event_count(n)
    width = len(str(n - 1))
    return tuple(f"e{i:0{width}d}" for i in range(n))


def explicit_space(labels: Sequence[str], pairs: Iterable[tuple[str, str]]) -> CausalSpace:
    events = EventSet(labels=labels)
    rows = [0] * len(events)
    for cause, effect in _sequence("relation pairs", pairs, 2):
        rows[events.index_of(cause)] |= 1 << events.index_of(effect)
    return CausalSpace.from_raw(events, CausalRelation(len(events), tuple(rows)))


def _cone_rows(points: Sequence[tuple[Fraction, ...]]) -> tuple[int, ...]:
    """Closed-cone incidence: p precedes q iff the time gap covers the spatial gap.

    Decided exactly as ``dt >= 0 and dt^2 >= sum(dx_i^2)`` after scaling all
    coordinates to a common integer denominator, so no square root is taken.
    Rows are computed ROW_BLOCK at a time, in int64 when every ``dt^2`` and
    ``sum(dx_i^2)`` fits and on Python integers otherwise.
    """
    n = len(points)
    dim = len(points[0])
    _, scaled = _scaled(*points)
    peak = max(abs(c) for row in scaled for c in row)
    arr = np.array(scaled, dtype=_exact_dtype((2 * peak) ** 2 * (dim - 1)))
    rows: list[int] = []
    for lo in range(0, n, ROW_BLOCK):
        block = arr[lo : lo + ROW_BLOCK]
        dt = arr[None, :, 0] - block[:, None, 0]
        ok = dt >= 0
        # dt becomes dt^2 - sum(dx_i^2) in place: a block holds dt, one dx and ``ok``.
        np.multiply(dt, dt, out=dt)
        for axis in range(1, dim):
            dx = arr[None, :, axis] - block[:, None, axis]
            np.subtract(dt, np.multiply(dx, dx, out=dx), out=dt)
        ok &= dt >= 0
        rows.extend(_packed_rows(ok))
    return tuple(rows)


def _packed_rows(block: np.ndarray) -> list[int]:
    """One bitmask row per row of a boolean matrix; column ``j`` becomes bit ``j``."""
    packed = np.packbits(block, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [int.from_bytes(data[lo : lo + width], "little") for lo in range(0, len(data), width)]


def _unpacked(rows: Sequence[int], n: int) -> np.ndarray:
    """Boolean matrix of bitmask ``rows`` over ``n`` columns: entry ``[r, j]`` is bit ``j`` of ``rows[r]``."""
    width = (n + 7) // 8
    data = b"".join([row.to_bytes(width, "little") for row in rows])
    bytes_ = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(bytes_, axis=1, count=n, bitorder="little")


def _order_links(rows: Sequence[int], members: Sequence[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Classes of the closed relation ``rows`` on ``members``, and their covering pairs.

    Events are in one class when their rows are equal, i.e. when they precede
    each other.  Classes come in topological order (row popcount descending,
    then first member), and ``links[k]`` lists, in increasing order, the
    classes that cover class ``k``: those above it with no class strictly
    between.  Reachability along links is the relation restricted to
    ``members``.  Rows are re-indexed to class positions ROW_BLOCK at a time.
    """
    by_row: dict[int, list[int]] = {}
    for i in members:
        by_row.setdefault(rows[i], []).append(i)
    classes = sorted(by_row.values(), key=lambda m: -rows[m[0]].bit_count())
    reps = [m[0] for m in classes]
    columns = np.array(reps, dtype=np.intp)
    ranked: list[int] = []
    for lo in range(0, len(reps), ROW_BLOCK):
        bits = _unpacked([rows[r] for r in reps[lo : lo + ROW_BLOCK]], len(rows))
        ranked.extend(_packed_rows(bits[:, columns]))
    # The lowest class still above k is a cover; everything above it is not.
    links = []
    for k, row in enumerate(ranked):
        rest = row & ~(1 << k)
        covers = []
        while rest:
            q = (rest & -rest).bit_length() - 1
            covers.append(q)
            rest &= ~ranked[q]
        links.append(covers)
    return classes, links


def minkowski_space(points: Sequence[Sequence], labels: Sequence[str] | None = None) -> CausalSpace:
    pts = _sequence("minkowski points", points)
    events = EventSet(labels=default_labels(len(pts)) if labels is None else labels, coords=pts)
    # The closed cone is already reflexive and transitive: it is its own closure.
    cone = CausalRelation(len(pts), _cone_rows(events.coords))
    return CausalSpace(events=events, raw=cone, kplus=cone)


def sprinkle_space(
    n: int,
    dim: int,
    box: Sequence[Sequence],
    seed: int,
    labels: Sequence[str] | None = None,
) -> CausalSpace:
    _check_event_count(n)
    _check_count("sprinkle dimension (time plus space)", dim, least=2)
    bounds = _points("sprinkle box", box, 2)
    if len(bounds) != dim:
        raise InputError("box must provide one [lo, hi] interval per dimension")
    if any(lo > hi for lo, hi in bounds):
        raise InputError("box intervals must satisfy lo <= hi")
    _check_seed(seed)
    rng = random.Random(seed)
    points = [
        tuple(lo + (hi - lo) * Fraction(rng.randrange(SPRINKLE_GRID + 1), SPRINKLE_GRID) for lo, hi in bounds)
        for _ in range(n)
    ]
    return minkowski_space(points, labels=labels)


def random_dag_space(
    n: int,
    edge_prob: Fraction | float | str,
    seed: int,
    labels: Sequence[str] | None = None,
) -> CausalSpace:
    _check_event_count(n)
    p = parse_rational(edge_prob)
    if not 0 <= p <= 1:
        raise InputError("edge probability must lie in [0, 1]")
    _check_seed(seed)
    events = EventSet(labels=default_labels(n) if labels is None else labels)
    # The coins are floats, so they meet p's nearest float.
    return CausalSpace.from_raw(events, CausalRelation(n, _coin_rows(n, float(p), random.Random(seed))))


def _coin_rows(n: int, coin: float, rng: random.Random) -> tuple[int, ...]:
    """Rows whose bit ``j > i`` is set when the coin for ``(i, j)`` shows ``rng.random() < coin``.

    The coins are drawn in row-major order, one ``random()`` each, ROW_BLOCK
    rows at a time.  CPython's ``random()`` is ``((a >> 5) * 2**26 + (b >> 6))
    / 2**53`` for two consecutive 32-bit generator words ``a`` and ``b``, and
    ``getrandbits(64 * k)`` returns the next ``2 * k`` words with the first in
    the lowest bits.  So each 64-bit little-endian word of that draw is one
    coin, and ``random() < coin`` is its 53-bit integer compared with
    ``ceil(coin * 2**53)``.
    """
    threshold = np.uint64(ceil(coin * 2**53))
    columns = np.arange(n)
    rows: list[int] = []
    for lo in range(0, n, ROW_BLOCK):
        upper = columns[None, :] > columns[lo : lo + ROW_BLOCK, None]
        k = int(np.count_nonzero(upper))
        words = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u8")
        draws = ((words & 0xFFFFFFFF) >> 5 << 26) | (words >> 38)
        block = np.zeros(upper.shape, dtype=bool)
        block[upper] = draws < threshold  # a boolean-mask assignment fills row-major: the draw order
        rows.extend(_packed_rows(block))
    return tuple(rows)


# Each generator kind's builder and the GeneratorSpec fields it needs.  Every
# builder also takes ``labels`` (optional except for ``explicit``), and its
# parameters are named like the fields.
_KINDS = {
    "explicit": (explicit_space, ("labels", "pairs")),
    "minkowski": (minkowski_space, ("points",)),
    "sprinkle": (sprinkle_space, ("n", "dim", "box", "seed")),
    "random-dag": (random_dag_space, ("n", "edge_prob", "seed")),
}


def generate(spec: GeneratorSpec) -> CausalSpace:
    """Materialize a generator recipe; deterministic for a fixed seed."""
    build, needs = _KINDS[spec.kind]
    return build(**{name: getattr(spec, name) for name in ("labels", *needs)})


# ---------------------------------------------------------------------------
# JSON formats


# JSON recipe keys named other than the GeneratorSpec field they fill.
_JSON_KEYS = {"labels": "events", "edge_prob": "p"}


def generator_spec_from_jsonable(obj) -> GeneratorSpec:
    """Recipe of a JSON spacetime: a ``kind`` object or the explicit ``events``/``relation`` form."""
    if not isinstance(obj, dict):
        raise InputError("spacetime spec must be a JSON object")
    if "kind" not in obj:
        if "events" not in obj or "relation" not in obj:
            raise InputError("spacetime spec needs either a 'kind' or 'events' plus 'relation'")
        relation = obj["relation"]
        if not isinstance(relation, dict) or relation.get("kind") != "explicit":
            raise InputError("embedded relation must have kind 'explicit'")
        obj = {**relation, "events": obj["events"]}
    kind = obj["kind"]
    keys = {name: _JSON_KEYS.get(name, name) for name in ("labels", *_kind_fields(kind))}
    if any(obj.get(key, ()) is None for key in keys.values()):  # a GeneratorSpec field of None means absent
        raise InputError(f"{kind} spec values must not be null")
    return GeneratorSpec(kind=kind, **{name: obj[key] for name, key in keys.items() if key in obj})


def space_from_jsonable(obj) -> CausalSpace:
    return generate(generator_spec_from_jsonable(obj))


def space_to_jsonable(space: CausalSpace, relation: str = "raw") -> dict:
    """Explicit spacetime object; pair list sorted by (cause, effect) label."""
    labels = space.events.labels
    pairs = [[labels[i], labels[j]] for i, j in _label_sorted_pairs(space, relation)]
    return {"events": list(labels), "relation": {"kind": "explicit", "pairs": pairs}}


def _label_sorted_pairs(space: CausalSpace, relation: str) -> Iterator[tuple[int, int]]:
    """Index pairs of the raw relation or the closure, sorted by (cause, effect) label."""
    if relation not in ("raw", "kplus"):
        raise InputError(f"relation must be 'raw' or 'kplus', got {_shown(relation)}")
    rows = space.raw.rows if relation == "raw" else space.kplus.rows
    order = np.array(sorted(range(space.n), key=space.events.labels.__getitem__), dtype=np.intp)
    # A row's bits put in label order are nonzero at its effects in label order.  One row
    # at a time: a block of rows held while the caller builds its output raised peak memory.
    for i in order.tolist():
        yield from zip(repeat(i), order[np.flatnonzero(_unpacked([rows[i]], space.n)[0, order])].tolist())
