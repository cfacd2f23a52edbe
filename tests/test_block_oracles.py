"""Differential tests of the numpy random-DAG coins and pair emit against the loops they replaced.

Each oracle below is the earlier implementation, kept as the reference:

- ``coin_loop_rows``: the double loop behind ``random_dag_space``, one
  ``rng.random()`` coin per index pair ``i < j`` in row-major order, before
  the coins were read 64-bit word by word from ``getrandbits`` in blocks of
  ``ROW_BLOCK`` rows.  Equal rows are also the guard on CPython's
  ``random()`` formula and on ``getrandbits``' word order, which the block
  code relies on.
- ``bitwise_label_sorted_pairs``: the nested walk behind
  ``_label_sorted_pairs``, which sorted each row's set bits by label, before
  each row was unpacked with numpy, put in label order and read with one
  ``np.flatnonzero``.

Neither oracle calls the code it checks.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcausal import explicit_space, random_dag_space
from kcausal.structure import ROW_BLOCK, SEED_SPAN, _label_sorted_pairs


def coin_loop_rows(n: int, edge_prob, seed: int) -> tuple[int, ...]:
    rng = random.Random(seed)
    coin = float(Fraction(edge_prob))
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < coin:
                rows[i] |= 1 << j
    return tuple(rows)


def bitwise_label_sorted_pairs(space, relation: str) -> list[tuple[int, int]]:
    rows = space.raw.rows if relation == "raw" else space.kplus.rows
    label = space.events.labels.__getitem__
    pairs = []
    for i in sorted(range(space.n), key=label):
        for j in sorted((j for j in range(space.n) if rows[i] >> j & 1), key=label):
            pairs.append((i, j))
    return pairs


# Sizes on both sides of one and two row blocks.
SIZES = (1, 2, 7, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 600)
EDGE_PROBS = (0, 1, "2/5", 0.4, "1/3", 1 / 100)


def mixed_labels(n: int, rng: random.Random) -> list[str]:
    """``"b"`` and ``"a1"`` .. ``"a{n-1}"``, shuffled: label order is neither
    index order nor numeric order (``"a10"`` sorts before ``"a9"``)."""
    labels = ["b"] + [f"a{k}" for k in range(1, n)]
    rng.shuffle(labels)
    return labels


# ---------------------------------------------------------------------------
# Random-DAG coins


class TestCoinsMatchTheRandomLoop:
    @pytest.mark.parametrize("edge_prob", EDGE_PROBS, ids=str)
    @pytest.mark.parametrize("n", SIZES)
    def test_sizes_across_row_blocks(self, n, edge_prob):
        for seed in (0, SEED_SPAN - 1, 20261018):
            assert random_dag_space(n, edge_prob, seed).raw.rows == coin_loop_rows(n, edge_prob, seed)

    def test_seeded_corpus(self):
        rng = random.Random(20261018)
        for _ in range(60):
            n = rng.randint(1, 2 * ROW_BLOCK + 3)
            edge_prob = rng.choice(EDGE_PROBS)
            seed = rng.randrange(SEED_SPAN)
            assert random_dag_space(n, edge_prob, seed).raw.rows == coin_loop_rows(n, edge_prob, seed)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, ROW_BLOCK + 20),
        st.sampled_from(EDGE_PROBS),
        st.one_of(st.sampled_from([0, SEED_SPAN - 1]), st.integers(0, SEED_SPAN - 1)),
    )
    def test_hypothesis_seeds(self, n, edge_prob, seed):
        assert random_dag_space(n, edge_prob, seed).raw.rows == coin_loop_rows(n, edge_prob, seed)


# ---------------------------------------------------------------------------
# Label-sorted pair emit


def assert_pairs_match(space):
    for relation in ("raw", "kplus"):
        assert list(_label_sorted_pairs(space, relation)) == bitwise_label_sorted_pairs(space, relation)


class TestPairEmitMatchesTheBitWalk:
    @pytest.mark.parametrize("n", SIZES)
    def test_mixed_labels_across_row_blocks(self, n):
        rng = random.Random(n)
        space = random_dag_space(n, Fraction(3, n + 2), rng.randrange(SEED_SPAN), labels=mixed_labels(n, rng))
        assert_pairs_match(space)

    def test_cycles_across_row_blocks(self):
        # Two-way pairs make the closure's classes larger than one event.
        n = ROW_BLOCK + 40
        rng = random.Random(7)
        labels = mixed_labels(n, rng)
        pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(2 * n)]
        assert_pairs_match(explicit_space(labels, pairs))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.randoms(use_true_random=False), st.data())
    def test_hypothesis_spaces(self, n, rng, data):
        labels = mixed_labels(n, rng)
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)), max_size=3 * n))
        assert_pairs_match(explicit_space(labels, pairs))
