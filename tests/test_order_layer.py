"""Differential tests of the order layer against the quadratic code it replaced.

Each oracle below is the earlier implementation, kept as the reference:

- ``warshall_closure``: Warshall's closure over bit-packed rows, which
  ``kplus_closure`` ran before the SCC-condensation closure;
- ``two_pass_closure`` and ``_components``: that condensation closure as it
  ran in two passes, a Tarjan pass listing the components sinks first and a
  second loop closing them, before ``kplus_closure`` closed each component
  as the walk popped it;
- ``pairwise_transpose``: the bit-by-bit transpose behind
  ``CausalRelation.transpose`` before it packed columns with numpy; pasts
  now read the closure rows, and the closure's columns are their reference;
- ``pairwise_cycle_pair``: the row-by-row scan behind the cycle pair
  before it read the transpose, and then the order classes;
- ``scan_order`` and ``scan_sample_values``: the O(n^2) ready scans of
  ``rank_time_function`` and ``sample_time_function`` before both became
  ready-set (Kahn) sorts over the raw relation;
- ``raw_edge_walk``: that Kahn sort over the raw relation's edges, which
  the time functions ran before they walked the order's covering pairs;
- ``pairwise_is_strictly_monotone``: the loop over every closure pair behind
  ``is_strictly_monotone`` before it read the covering pairs;
- ``scan_linear_extensions``: the candidate scan over every event index at
  each depth behind ``_linear_extensions`` before it kept a ready mask per
  depth.

The oracles take their predecessor masks from ``warshall_closure`` and
``pairwise_transpose``, so they share no code with what they check.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from fractions import Fraction
from itertools import permutations
from typing import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcausal import (
    CausalRelation,
    CausalSpace,
    EventSet,
    NotStablyCausalError,
    TimeFunction,
    condition4_check,
    default_labels,
    enumerate_time_functions,
    explicit_space,
    is_stably_causal,
    is_strictly_monotone,
    kplus_closure,
    minguzzi_check,
    minkowski_space,
    random_dag_space,
    rank_time_function,
    sample_time_function,
    sprinkle_space,
    uniform_measure,
)
from kcausal import structure, timefunctions, transport
from kcausal.structure import find_cycle_pair, iter_bits
from kcausal.timefunctions import _linear_extensions


def warshall_closure(raw: CausalRelation) -> CausalRelation:
    n = raw.n
    rows = list(raw.rows)
    for k in range(n):
        bit = 1 << k
        row_k = rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= row_k
    for i in range(n):
        rows[i] |= 1 << i
    return CausalRelation(n, tuple(rows))


def two_pass_closure(raw: CausalRelation) -> CausalRelation:
    """Smallest reflexive and transitive relation containing ``raw``.

    The strongly connected components of ``raw`` come sinks first from an
    iterative Tarjan pass (SIAM J. Comput. 1, 1972): the components a
    component points to are all listed before it.  One pass in that order
    gives each component the mask of its members OR-ed with the closed rows
    of the components its members point to (Purdom, BIT 10, 1970).
    Correct for arbitrary relations, cycles and self-loops included,
    idempotent, and free of recursion limits.
    """
    rows = raw.rows
    closed = [0] * raw.n
    for members in _components(rows):
        reach = 0
        for m in members:
            reach |= 1 << m
        for m in members:
            # Each successor outside ``reach`` brings its whole closed row,
            # so successors that row covers are skipped.
            rest = rows[m] & ~reach
            while rest:
                reach |= closed[(rest & -rest).bit_length() - 1]
                rest &= ~reach
        for m in members:
            closed[m] = reach
    return CausalRelation(raw.n, tuple(closed))


def _components(rows: Sequence[int]) -> list[list[int]]:
    """Strongly connected components of ``rows``, sinks first (iterative Tarjan)."""
    n = len(rows)
    index = [-1] * n  # discovery order
    low = [0] * n
    done = 0  # mask of the events whose component is already listed
    stack: list[int] = []
    components: list[list[int]] = []
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
                for m in members:
                    done |= 1 << m
                components.append(members)
    return components


def pairwise_transpose(rel: CausalRelation) -> tuple[int, ...]:
    cols = [0] * rel.n
    for i, row in enumerate(rel.rows):
        bit = 1 << i
        for j in iter_bits(row):
            cols[j] |= bit
    return tuple(cols)


def pairwise_cycle_pair(rel: CausalRelation) -> tuple[int, int] | None:
    for i, row in enumerate(rel.rows):
        for j in iter_bits(row):
            if j != i and rel.rows[j] >> i & 1:
                return i, j
    return None


def _strict_predecessors(space) -> list[int]:
    cols = pairwise_transpose(warshall_closure(space.raw))
    return [cols[j] & ~(1 << j) for j in range(space.n)]


def scan_order(space) -> list[int]:
    """Greedy smallest-index topological order: the first linear extension."""
    n = space.n
    preds = _strict_predecessors(space)
    placed = 0
    order = []
    for _ in range(n):
        ready = [j for j in range(n) if not placed >> j & 1 and not preds[j] & ~placed]
        order.append(ready[0])
        placed |= 1 << ready[0]
    return order


def scan_sample_values(space, seed: int) -> tuple[Fraction, ...]:
    rng = random.Random(seed)
    n = space.n
    preds = _strict_predecessors(space)
    placed = 0
    level = Fraction(rng.randrange(0, 24), 24)
    values = [Fraction(0)] * n
    for _ in range(n):
        ready = [j for j in range(n) if not placed >> j & 1 and not preds[j] & ~placed]
        j = rng.choice(ready)
        values[j] = level
        placed |= 1 << j
        level += Fraction(rng.randrange(1, 25), 24)
    return tuple(values)


def raw_edge_walk(space, take):
    """Kahn's sort of the raw edges between distinct events; ``take`` picks the ready position."""
    succ = [row & ~(1 << i) for i, row in enumerate(space.raw.rows)]
    waiting = [(col & ~(1 << j)).bit_count() for j, col in enumerate(pairwise_transpose(space.raw))]
    ready = [j for j, count in enumerate(waiting) if not count]
    while ready:
        i = ready.pop(take(ready))
        yield i
        for j in iter_bits(succ[i]):
            waiting[j] -= 1
            if not waiting[j]:
                insort(ready, j)


def raw_edge_ranks(space) -> tuple[Fraction, ...]:
    values = [Fraction(0)] * space.n
    for rank, j in enumerate(raw_edge_walk(space, lambda ready: 0)):
        values[j] = Fraction(rank)
    return tuple(values)


def raw_edge_sample_values(space, seed: int) -> tuple[Fraction, ...]:
    rng = random.Random(seed)
    level = Fraction(rng.randrange(0, 24), 24)
    values = [Fraction(0)] * space.n
    for j in raw_edge_walk(space, lambda ready: bisect_left(ready, rng.choice(ready))):
        values[j] = level
        level += Fraction(rng.randrange(1, 25), 24)
    return tuple(values)


def pairwise_is_strictly_monotone(space, timefn) -> bool:
    if timefn.events.labels != space.events.labels:
        return False
    values = timefn.values
    for i, row in enumerate(space.kplus.rows):
        for j in iter_bits(row):
            if j != i and values[i] >= values[j]:
                return False
    return True


def permutation_extensions(space) -> list[tuple[int, ...]]:
    """Every order of the events that places each one after its closure predecessors, lexicographically."""
    preds = _strict_predecessors(space)

    def valid(order):
        placed = 0
        for j in order:
            if preds[j] & ~placed:
                return False
            placed |= 1 << j
        return True

    return [order for order in permutations(range(space.n)) if valid(order)]


def scan_linear_extensions(space):
    """Every linear extension in lexicographic order; none if the closure has a two-way pair.

    At each depth it tries every event index from the last one tried, iteratively.
    """
    if pairwise_cycle_pair(warshall_closure(space.raw)) is not None:
        return
    n = space.n
    preds = _strict_predecessors(space)
    order = []
    placed = 0
    start = 0  # first candidate to try at the current depth
    while True:
        for j in range(start, n):
            if not (placed >> j & 1 or preds[j] & ~placed):
                order.append(j)
                placed |= 1 << j
                start = 0
                break
        else:
            if not order:
                return
            j = order.pop()
            placed ^= 1 << j
            start = j + 1
            continue
        if len(order) == n:
            yield tuple(order)
            start = n  # nothing left to place: backtrack


# ---------------------------------------------------------------------------
# Spaces


@st.composite
def cyclic_spaces(draw, max_n=9):
    """Explicit spaces from arbitrary pair lists: cycles and self-loops included."""
    n = draw(st.integers(1, max_n))
    labels = default_labels(n)
    pairs = draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)), max_size=3 * n))
    return explicit_space(labels, pairs)


@st.composite
def shuffled_dags(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    labels = list(default_labels(n))
    draw(st.randoms(use_true_random=False)).shuffle(labels)
    edge_prob = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
    return random_dag_space(n, edge_prob, draw(st.integers(0, 2**32 - 1)), labels=labels)


@st.composite
def sprinkles(draw, max_n=12, max_dim=3):
    n = draw(st.integers(1, max_n))
    dim = draw(st.integers(2, max_dim))
    return sprinkle_space(n, dim, [(0, 1)] + [(-1, 1)] * (dim - 1), draw(st.integers(0, 2**32 - 1)))


@st.composite
def explicit_dags(draw, max_n=10):
    """Explicit acyclic spaces whose raw relation is, in general, not transitive."""
    n = draw(st.integers(1, max_n))
    perm = draw(st.permutations(default_labels(n)))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    # Orient every edge along ``perm``, so the relation is acyclic whatever the label order.
    pairs = [(perm[min(i, j)], perm[max(i, j)]) for i, j in edges if i != j]
    return explicit_space(default_labels(n), pairs)


@st.composite
def antichains(draw, max_n=7):
    return explicit_space(default_labels(draw(st.integers(1, max_n))), [])


any_space = st.one_of(cyclic_spaces(), shuffled_dags(), sprinkles())
acyclic_space = st.one_of(shuffled_dags(), sprinkles(), explicit_dags())


def _labelled(space, pair):
    return None if pair is None else (space.events.labels[pair[0]], space.events.labels[pair[1]])


# ---------------------------------------------------------------------------
# Closure, pasts and cycle pair


class TestClosureMatchesWarshall:
    @settings(max_examples=300, deadline=None)
    @given(any_space)
    def test_random_spaces(self, space):
        assert kplus_closure(space.raw).rows == warshall_closure(space.raw).rows
        assert space.kplus.rows == warshall_closure(space.raw).rows

    @pytest.mark.parametrize("n, edge_prob", [(1000, 1 / 100), (2000, 10 / 2000)])
    def test_benchmark_dag_sizes(self, n, edge_prob):
        space = random_dag_space(n, edge_prob, 5)
        assert space.kplus.rows == warshall_closure(space.raw).rows == two_pass_closure(space.raw).rows


@st.composite
def raw_relations(draw, max_n=40):
    """Arbitrary rows over up to ``max_n`` events: cycles and self-loops included."""
    n = draw(st.integers(1, max_n))
    rows = [0] * n
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n)):
        rows[i] |= 1 << j
    return CausalRelation(n, tuple(rows))


class TestOnePassMatchesTwoPass:
    """The closure that closes each component as Tarjan's walk pops it, against the two-pass closure."""

    @settings(max_examples=300, deadline=None)
    @given(raw_relations())
    @example(CausalRelation(3, (0b111, 0b111, 0b111)))
    @example(CausalRelation(4, (0b0010, 0b0001, 0b1000, 0b0100)))
    def test_random_relations(self, raw):
        assert kplus_closure(raw).rows == two_pass_closure(raw).rows

    @pytest.mark.parametrize("last", [0, 1], ids=["chain", "cycle"])
    def test_long_chain_and_cycle(self, last):
        n = TestNoRecursionLimit.N
        raw = CausalRelation(n, tuple(1 << i + 1 for i in range(n - 1)) + (last,))
        assert kplus_closure(raw).rows == two_pass_closure(raw).rows

    def test_largest_benchmark_dag(self):
        space = random_dag_space(4000, "10/4000", 5)
        assert space.kplus.rows == two_pass_closure(space.raw).rows


def assert_pasts_are_columns(space, masks):
    """The past of each event, and of each of ``masks``, is read off the closure's columns."""
    cols = pairwise_transpose(warshall_closure(space.raw))
    assert tuple(space.past_mask(1 << j) for j in range(space.n)) == cols
    for mask in masks:
        expected = 0
        for j in iter_bits(mask):
            expected |= cols[j]
        assert space.past_mask(mask) == expected


class TestPastsAndCyclePair:
    """Pasts in the closed order; the cycle pair, a question about the closed order, of the closure."""

    @settings(max_examples=300, deadline=None)
    @given(any_space, st.data())
    def test_random_spaces(self, space, data):
        masks = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << space.n) - 1), max_size=4))
        assert_pasts_are_columns(space, masks)
        assert find_cycle_pair(space) == _labelled(space, pairwise_cycle_pair(warshall_closure(space.raw)))
        assert is_stably_causal(space) == (find_cycle_pair(space) is None)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 255, 256, 257, 513])
    def test_across_byte_and_block_boundaries(self, n):
        rng = random.Random(n)
        for density in (1, 2, 4):
            rows = tuple(
                rng.getrandbits(n) & rng.getrandbits(n) if density > 1 else rng.getrandbits(n) for _ in range(n)
            )
            # Only bits above the diagonal, with one edge back from k to 3 for every k in ks: the
            # closure has nontrivial classes of a few events among many singletons.
            ks = {rng.randrange(4, n) for _ in range(3)} if n > 4 else set()
            upper = tuple(row & ~((2 << i) - 1) | (8 if i in ks else 0) for i, row in enumerate(rows))
            for raw in (CausalRelation(n, rows), CausalRelation(n, upper)):
                space = CausalSpace.from_raw(EventSet(default_labels(n)), raw)
                assert_pasts_are_columns(space, [rng.getrandbits(n) for _ in range(4)])
                closed = warshall_closure(raw)
                assert space.kplus.rows == closed.rows == two_pass_closure(raw).rows
                assert find_cycle_pair(space) == _labelled(space, pairwise_cycle_pair(closed))

    def test_one_hot_bits_land_in_the_right_past(self):
        # Event i < 256 precedes event 256 + (7i + 3) % 257 and nothing else, so the closure adds only the
        # diagonal: each target's past is itself and its one source, across byte and block boundaries.
        n = 513
        target = [256 + (7 * i + 3) % 257 for i in range(256)]
        raw = CausalRelation(n, tuple(1 << t for t in target) + (0,) * 257)
        space = CausalSpace.from_raw(EventSet(default_labels(n)), raw)
        assert all(space.past_mask(1 << t) == 1 << i | 1 << t for i, t in enumerate(target))
        assert all(space.past_mask(1 << j) == 1 << j for j in set(range(n)) - set(target))
        assert space.past_mask((1 << n) - 1).bit_count() == n


class TestOneOrderDerivation:
    def test_time_functions_share_one_derivation(self, monkeypatch):
        original = structure._order_links
        full = []

        def counted(rows, members):
            if sorted(members) == list(range(len(rows))):
                full.append(rows)
            return original(rows, members)

        for home in (structure, timefunctions, transport):  # every module that binds the name
            if getattr(home, "_order_links", None) is original:
                monkeypatch.setattr(home, "_order_links", counted)
        space = random_dag_space(8, 0.3, 4)
        labels = space.events.labels
        mu = uniform_measure(space.events)
        assert is_stably_causal(space)
        assert is_strictly_monotone(space, rank_time_function(space))
        assert is_strictly_monotone(space, sample_time_function(space, 5))
        assert len(enumerate_time_functions(space)) > 1
        assert condition4_check(space, mu, mu)
        assert minguzzi_check(space, labels[0], labels[-1]) == bool(space.kplus.rows[0] >> 7 & 1)
        assert full == [space.kplus.rows]


class TestNoRecursionLimit:
    N = 3000

    def test_chain_closes_to_upper_triangle(self):
        labels = default_labels(self.N)
        space = explicit_space(labels, zip(labels, labels[1:]))
        full = (1 << self.N) - 1
        assert space.kplus.rows == tuple(full & ~((1 << i) - 1) for i in range(self.N))

    def test_cycle_closes_to_all_ones(self):
        labels = default_labels(self.N)
        space = explicit_space(labels, zip(labels, labels[1:] + labels[:1]))
        assert space.kplus.rows == ((1 << self.N) - 1,) * self.N


# ---------------------------------------------------------------------------
# Time functions


class TestReadySortsMatchScans:
    @settings(max_examples=200, deadline=None)
    @given(acyclic_space, st.integers(0, 2**64 - 1))
    def test_rank_and_sample(self, space, seed):
        order = scan_order(space)
        assert rank_time_function(space).values == tuple(Fraction(order.index(j)) for j in range(space.n))
        assert sample_time_function(space, seed).values == scan_sample_values(space, seed)

    @settings(max_examples=150, deadline=None)
    @given(cyclic_spaces(), st.integers(0, 2**64 - 1))
    def test_cyclic_spaces_name_the_same_pair(self, space, seed):
        pair = _labelled(space, pairwise_cycle_pair(warshall_closure(space.raw)))
        if pair is None:
            assert rank_time_function(space).values == tuple(
                Fraction(scan_order(space).index(j)) for j in range(space.n)
            )
            assert sample_time_function(space, seed).values == scan_sample_values(space, seed)
            return
        for call in (lambda: rank_time_function(space), lambda: sample_time_function(space, seed)):
            with pytest.raises(NotStablyCausalError) as caught:
                call()
            assert caught.value.pair == pair

    def test_benchmark_dag(self):
        space = random_dag_space(1000, 1 / 100, 11)
        order = scan_order(space)
        ranks = rank_time_function(space).values
        assert all(ranks[j] == k for k, j in enumerate(order))
        assert sample_time_function(space, 2**40 + 3).values == scan_sample_values(space, 2**40 + 3)


class TestCoverWalksMatchRawEdgeWalk:
    @settings(max_examples=200, deadline=None)
    @given(acyclic_space, st.integers(0, 2**64 - 1))
    def test_rank_and_sample(self, space, seed):
        assert rank_time_function(space).values == raw_edge_ranks(space)
        assert sample_time_function(space, seed).values == raw_edge_sample_values(space, seed)

    @pytest.mark.parametrize(
        "space",
        [random_dag_space(1000, 1 / 100, 11), sprinkle_space(600, 2, [(0, 1), (-1, 1)], 17)],
        ids=["dag1000", "sprinkle600"],
    )
    def test_benchmark_sized_spaces(self, space):
        assert rank_time_function(space).values == raw_edge_ranks(space)
        assert sample_time_function(space, 2**40 + 3).values == raw_edge_sample_values(space, 2**40 + 3)


class TestExtensionsMatchPermutations:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(cyclic_spaces(max_n=6), explicit_dags(max_n=6), shuffled_dags(max_n=6)))
    def test_stream_is_every_valid_permutation_in_order(self, space):
        # A space with a two-way pair has no valid permutation, so the stream is empty there.
        assert list(_linear_extensions(space)) == permutation_extensions(space)


class TestExtensionStreamMatchesScan:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            shuffled_dags(max_n=7), sprinkles(max_n=7, max_dim=2), antichains(max_n=7), cyclic_spaces(max_n=7)
        )
    )
    # Events 0 and 1 share a point, so each precedes the other; 2 lies in both futures.
    @example(minkowski_space([[0, 0], [0, 0], [1, 0]]))
    def test_same_stream(self, space):
        stream = list(_linear_extensions(space))
        assert stream == list(scan_linear_extensions(space))
        if pairwise_cycle_pair(warshall_closure(space.raw)) is not None:
            assert stream == []

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_antichain_streams_every_permutation(self, n):
        space = explicit_space(default_labels(n), [])
        assert list(_linear_extensions(space)) == list(scan_linear_extensions(space)) == list(permutations(range(n)))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(shuffled_dags(max_n=7), sprinkles(max_n=7, max_dim=2), antichains(max_n=6)))
    def test_enumerated_values_are_the_ranks(self, space):
        # Each value is the Fraction of its event's rank in the extension.
        expected = [tuple(Fraction(order.index(j)) for j in range(space.n)) for order in scan_linear_extensions(space)]
        values = [t.values for t in enumerate_time_functions(space)]
        assert values == expected
        assert all(type(v) is Fraction for row in values for v in row)


class TestMonotoneMatchesAllPairs:
    @settings(max_examples=300, deadline=None)
    @given(any_space, st.data())
    def test_random_values_with_ties(self, space, data):
        values = data.draw(st.lists(st.integers(0, 3), min_size=space.n, max_size=space.n))
        timefn = TimeFunction(space.events, values)
        assert is_strictly_monotone(space, timefn) == pairwise_is_strictly_monotone(space, timefn)

    @settings(max_examples=300, deadline=None)
    @given(acyclic_space, st.data())
    def test_rank_values_with_one_tie(self, space, data):
        # The rank values are monotone; copying one event's value onto another adds a tie,
        # which breaks monotonicity when the two are related.
        values = list(raw_edge_ranks(space))
        timefn = TimeFunction(space.events, values)
        assert is_strictly_monotone(space, timefn) and pairwise_is_strictly_monotone(space, timefn)
        i = data.draw(st.integers(0, space.n - 1))
        j = data.draw(st.integers(0, space.n - 1))
        values[i] = values[j]
        timefn = TimeFunction(space.events, values)
        assert is_strictly_monotone(space, timefn) == pairwise_is_strictly_monotone(space, timefn)

    def test_other_event_set_is_never_monotone(self):
        space = explicit_space(["a", "b"], [("a", "b")])
        timefn = TimeFunction(explicit_space(["a", "c"], []).events, (0, 1))
        assert not is_strictly_monotone(space, timefn)
        assert not pairwise_is_strictly_monotone(space, timefn)
