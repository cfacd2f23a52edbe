"""The exhaustive checkers against the per-subset loops they replaced.

The references below are the earlier implementations, kept as oracles: one
exact ``Fraction`` mass per subset for the subset oracle, condition 2, the
up-set scan and the first heavier up-set, and one ``TimeFunction`` per
linear extension with a threshold scan per half-line variant for
condition 4.  The table and prefix-sum checkers must give the same verdict,
the same canonical violator, the same up-set sequence and the same gap, by
hypothesis over random DAGs, antichains and cyclic explicit spaces, and on a
seeded corpus of the benchmark's exhaustive shapes.  The subset tables are
also run with a block of 2**3 masks, so that spaces of up to ten events span
several chunks, and with weights whose common denominator exceeds int64.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcausal import (
    NotStablyCausalError,
    condition2_check,
    condition3_check,
    condition4_check,
    enumerate_time_functions,
    enumerate_upsets,
    explicit_space,
    measure,
    random_dag_space,
    random_forward_push,
    random_measure,
    strassen_check,
    upset_masks,
)
from kcausal import structure
from kcausal.measures import Measure, _require_same_events
from kcausal.structure import DEFAULT_UPSET_BOUND, CausalSpace, _check_bound, _SubsetTables
from kcausal.timefunctions import TimeFunction, _sampled_timefns
from kcausal.transport import _heavier_upset


# ---------------------------------------------------------------------------
# Oracles: the per-subset and per-extension loops the tables replaced


def oracle_strassen_check(space, mu, nu, max_events=DEFAULT_UPSET_BOUND):
    _require_same_events(space, mu, nu, kinds=(CausalSpace, Measure, Measure))
    n = space.n
    _check_bound("subset oracle", n, max_events)
    order = sorted(range(n), key=lambda i: space.events.labels[i])
    for size in range(n + 1):
        for combo in combinations(order, size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if mu.mass_of_mask(mask) > nu.mass_of_mask(space.future_mask(mask)):
                return False, space.events.labels_of(mask)
            if mu.mass_of_mask(space.past_mask(mask)) < nu.mass_of_mask(mask):
                return False, space.events.labels_of(mask)
    return True, None


def oracle_condition2_check(space, mu, nu, max_events=DEFAULT_UPSET_BOUND):
    _require_same_events(space, mu, nu, kinds=(CausalSpace, Measure, Measure))
    _check_bound("subset check", space.n, max_events)
    for mask in range(1 << space.n):
        future = space.future_mask(mask)
        if mu.mass_of_mask(future) > nu.mass_of_mask(future):
            return False
    return True


def oracle_upset_masks(space):
    # An up-set must contain the future of each of its members, so membership
    # is one mask comparison per member.
    rows = space.kplus.rows
    for mask in range(1 << space.n):
        closed = True
        rest = mask
        while rest:
            low = rest & -rest
            if rows[low.bit_length() - 1] & ~mask:
                closed = False
                break
            rest ^= low
        if closed:
            yield mask


def oracle_heavier_upset(space, mu, nu):
    for mask in oracle_upset_masks(space):
        gap = mu.mass_of_mask(mask) - nu.mass_of_mask(mask)
        if gap > 0:
            return mask, gap
    return None


def oracle_thresholds(values, closed):
    # Superlevel sets are piecewise constant in the threshold: midpoints plus
    # one value past each end cover every open half-line; closed half-lines
    # additionally change at the values themselves.
    distinct = sorted(set(values))
    out = [distinct[0] - 1]
    out.extend((lo + hi) / 2 for lo, hi in zip(distinct, distinct[1:]))
    out.append(distinct[-1] + 1)
    if closed:
        out.extend(distinct)
    return out


def oracle_superlevels_dominated(mu, nu, timefn, closed):
    for alpha in oracle_thresholds(timefn.values, closed):
        mask = timefn.superlevel_mask(alpha, closed=closed)
        if mu.mass_of_mask(mask) > nu.mass_of_mask(mask):
            return False
    return True


def oracle_condition4_check(space, mu, nu, half_line, mode="exhaustive", samples=32, seed=0):
    closed = half_line == "closed"
    if mode == "exhaustive":
        timefns = enumerate_time_functions(space)
    else:
        timefns = _sampled_timefns(space, samples, seed)
    return all(oracle_superlevels_dominated(mu, nu, t, closed) for t in timefns)


# ---------------------------------------------------------------------------
# Comparisons


def assert_subset_checks_match(space, mu, nu):
    assert strassen_check(space, mu, nu) == oracle_strassen_check(space, mu, nu)
    assert condition2_check(space, mu, nu) == oracle_condition2_check(space, mu, nu)
    upsets = list(oracle_upset_masks(space))
    assert list(upset_masks(space)) == upsets
    assert enumerate_upsets(space) == [space.events.labels_of(mask) for mask in upsets]
    expected = oracle_heavier_upset(space, mu, nu)
    assert _heavier_upset(space, mu, nu, DEFAULT_UPSET_BOUND) == expected
    assert condition3_check(space, mu, nu) == (expected is None)


def condition4_outcome(check, space, mu, nu, half_line, **kwargs):
    try:
        return check(space, mu, nu, half_line=half_line, **kwargs)
    except NotStablyCausalError as exc:
        return ("not stably causal", str(exc))


def assert_condition4_matches(space, mu, nu):
    for half_line in ("open", "closed"):
        for kwargs in ({"mode": "exhaustive"}, {"mode": "sampled", "samples": 6, "seed": 3}):
            got = condition4_outcome(condition4_check, space, mu, nu, half_line, **kwargs)
            assert got == condition4_outcome(oracle_condition4_check, space, mu, nu, half_line, **kwargs)


@st.composite
def spaces(draw, max_n=10):
    """Random DAGs, antichains and cyclic explicit spaces."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["dag", "antichain", "cyclic"]))
    # Labels out of index order, so the label-lexicographic violator is not the lowest mask.
    labels = draw(st.permutations([f"v{i}" for i in range(n)]))
    if kind == "dag":
        p = draw(st.sampled_from([0.1, 0.25, 0.5, 0.8]))
        return random_dag_space(n, p, draw(st.integers(0, 2**32 - 1)), labels=labels)
    if kind == "antichain":
        return explicit_space(labels, [])
    pairs = draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)), max_size=2 * n))
    return explicit_space(labels, pairs)


@st.composite
def instances(draw, max_n=10):
    """A space, a random ``mu``, and a random or forward-pushed ``nu``."""
    space = draw(spaces(max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    mu = grid_measure(rng, space.events, draw(st.sampled_from([1, 6, 24])))
    if draw(st.booleans()):
        nu, _ = random_forward_push(rng, space, mu)
    else:
        nu = grid_measure(rng, space.events, draw(st.sampled_from([1, 6, 24])))
    return space, mu, nu


def grid_measure(rng, events, denominator):
    """Random composition of ``denominator`` unit weights over the events:
    ``random_measure``'s draw on a grid other than its fixed 1/24."""
    counts = [0] * len(events)
    for _ in range(denominator):
        counts[rng.randrange(len(events))] += 1
    return Measure(events=events, weights=tuple(Fraction(c, denominator) for c in counts))


def mass_dtypes(space, mu, nu):
    """Kinds of the mass tables' arrays: "O" for Python integers, "i" for int64."""
    tables = _SubsetTables("subset oracle", space, DEFAULT_UPSET_BOUND, (mu, nu))
    return {chunk.dtype.kind for _, chunks in tables.masses for chunk in chunks}


def nudged(m):
    """``m`` with 1/3**40 moved off its heaviest event: a common denominator >= 2**63."""
    weights = list(m.weights)
    if len(weights) == 1:
        return m
    source = weights.index(max(weights))
    weights[source] -= Fraction(1, 3**40)
    weights[0 if source else 1] += Fraction(1, 3**40)
    return Measure(m.events, tuple(weights))


# ---------------------------------------------------------------------------
# Tests


@settings(max_examples=150, deadline=None)
@given(instances())
def test_subset_tables_match_oracles(instance):
    assert_subset_checks_match(*instance)


@settings(max_examples=80, deadline=None)
@given(instances())
def test_chunked_subset_tables_match_oracles(instance):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(structure, "MASK_BLOCK", 2**3)
        assert_subset_checks_match(*instance)


@settings(max_examples=80, deadline=None)
@given(instances(max_n=6))
def test_python_integer_fallback_matches_oracles(instance):
    space, mu, nu = instance
    mu, nu = nudged(mu), nudged(nu)
    if space.n > 1:
        assert mass_dtypes(space, mu, nu) == {"O"}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(structure, "MASK_BLOCK", 2**3)
        assert_subset_checks_match(space, mu, nu)
    assert_condition4_matches(space, mu, nu)


@settings(max_examples=120, deadline=None)
@given(instances(max_n=6))
def test_condition4_prefix_sums_match_threshold_scan(instance):
    assert_condition4_matches(*instance)


def test_near_tie_beyond_int64_is_exact():
    # mu exceeds nu on the up-set {b} by 1/3**40, which no float would see;
    # the first violator is {a}, whose past carries 1/3**40 less mu than nu.
    space = explicit_space(["a", "b"], [("a", "b")])
    tiny = Fraction(1, 3**40)
    mu = measure(space.events, {"a": Fraction(1, 2) - tiny, "b": Fraction(1, 2) + tiny})
    nu = measure(space.events, {"a": "1/2", "b": "1/2"})
    assert mass_dtypes(space, mu, nu) == {"O"}
    assert strassen_check(space, mu, nu) == (False, frozenset({"a"})) == oracle_strassen_check(space, mu, nu)
    assert not condition2_check(space, mu, nu)
    assert _heavier_upset(space, mu, nu, DEFAULT_UPSET_BOUND) == (0b10, tiny)
    assert not condition4_check(space, mu, nu, half_line="closed")


def test_upsets_past_62_events_use_python_integers():
    # Ten free events below a 60-event chain: the first 1024 up-sets are the
    # subsets of the free events, all in the first block of masks.
    labels = [f"e{i:02d}" for i in range(70)]
    space = explicit_space(labels, [(labels[k], labels[k + 1]) for k in range(10, 69)])
    assert {chunk.dtype.kind for chunk in _SubsetTables("up-set enumeration", space, space.n).future[1]} == {"O"}
    got = list(islice(upset_masks(space, max_events=70), 1024))
    assert got == list(islice(oracle_upset_masks(space), 1024))


def exhaustive_corpus():
    """The benchmark's exhaustive shapes: a 16-DAG with p = 1/4, feasible and
    infeasible, and three disjoint 2-chains plus two free events."""
    rng = random.Random(900)
    dag16 = random_dag_space(16, 0.25, rng.randrange(2**32))
    mu = grid_measure(rng, dag16.events, 32)
    pushed, _ = random_forward_push(rng, dag16, mu)
    # The last event is maximal in a random DAG: mass there under mu and
    # none under nu forces infeasibility.
    top = dag16.events.labels[-1]
    heavy = measure(dag16.events, {top: "1/2", dag16.events.labels[0]: "1/2"})
    spread = measure(dag16.events, {lab: Fraction(1, 15) for lab in dag16.events.labels[:-1]})
    labels8 = [f"e{i}" for i in range(8)]
    perm = rng.sample(labels8, 8)
    pairs8 = explicit_space(labels8, [(perm[k], perm[k + 1]) for k in (0, 2, 4)])
    mu8 = grid_measure(rng, pairs8.events, 16)
    push8, _ = random_forward_push(rng, pairs8, mu8)
    return [(dag16, mu, pushed), (dag16, heavy, spread)], [(pairs8, mu8, push8), (pairs8, push8, mu8)]


def test_seeded_corpus_of_exhaustive_shapes():
    subset_cases, extension_cases = exhaustive_corpus()
    verdicts = []
    for space, mu, nu in subset_cases:
        assert_subset_checks_match(space, mu, nu)
        verdicts.append(strassen_check(space, mu, nu)[0])
    assert verdicts == [True, False]
    for (space, mu, nu), verdict in zip(extension_cases, (True, False)):
        for half_line in ("open", "closed"):
            got = condition4_check(space, mu, nu, half_line=half_line)
            assert got == oracle_condition4_check(space, mu, nu, half_line) == verdict


def first_violator_in_index_order(space, mu, nu):
    """``oracle_strassen_check``'s violator with events taken in index order instead of label order."""
    for size in range(space.n + 1):
        for combo in combinations(range(space.n), size):
            mask = sum(1 << i for i in combo)
            if mu.mass_of_mask(mask) > nu.mass_of_mask(space.future_mask(mask)):
                return space.events.labels_of(mask)
            if mu.mass_of_mask(space.past_mask(mask)) < nu.mass_of_mask(mask):
                return space.events.labels_of(mask)
    return None


def test_violator_order_follows_labels_past_one_digit():
    # Labels e0 .. e11 sort as e0, e1, e10, e11, e2, ...: unlike v0 .. v9 in ``spaces``,
    # string order and index order differ here, and the violator must follow string order.
    rng = random.Random(26)
    reordered = 0
    for k in range(8):
        n = 11 + k % 2
        space = random_dag_space(n, 0.2, rng.randrange(2**32), labels=[f"e{i}" for i in range(n)])
        mu = grid_measure(rng, space.events, 12)
        nu = random_forward_push(rng, space, mu)[0] if k % 3 == 2 else grid_measure(rng, space.events, 12)
        expected = oracle_strassen_check(space, mu, nu)
        assert strassen_check(space, mu, nu) == expected
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(structure, "MASK_BLOCK", 2**3)
            assert strassen_check(space, mu, nu) == expected
        reordered += expected[1] != first_violator_in_index_order(space, mu, nu)
    assert reordered >= 1


def test_checkers_build_no_fractions_per_subset_or_time_function_per_extension(monkeypatch):
    subset_cases, extension_cases = exhaustive_corpus()
    rng = random.Random(17)
    small = []
    for _ in range(6):
        space = random_dag_space(rng.randint(3, 7), 0.4, rng.randrange(2**32))
        mu = random_measure(rng, space.events)
        if rng.random() < 0.5:
            nu = random_measure(rng, space.events)
        else:
            nu, _ = random_forward_push(rng, space, mu)
        small.append((space, mu, nu))
    subset_cases = subset_cases[1:] + extension_cases + small
    extension_cases += small
    expected = [
        (oracle_strassen_check(*case), oracle_condition2_check(*case), oracle_heavier_upset(*case) is None)
        for case in subset_cases
    ]
    expected4 = [oracle_condition4_check(*case, "open") for case in extension_cases]
    assert {verdict[0][0] for verdict in expected} == set(expected4) == {True, False}

    def refuse(*args, **kwargs):
        raise AssertionError("per-subset or per-extension path taken")

    monkeypatch.setattr(TimeFunction, "__post_init__", refuse)
    monkeypatch.setattr(Measure, "mass_of_mask", refuse)
    with pytest.raises(AssertionError, match="per-subset"):
        enumerate_time_functions(small[0][0])
    with pytest.raises(AssertionError, match="per-subset"):
        small[0][1].mass_of_mask(1)
    got = [
        (strassen_check(*case), condition2_check(*case), condition3_check(*case)) for case in subset_cases
    ]
    assert got == expected
    got4 = [condition4_check(*case, half_line="open", mode="exhaustive") for case in extension_cases]
    assert got4 == expected4
