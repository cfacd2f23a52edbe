"""Closure, future/past operators, up-sets, and generators."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcausal import (
    BoundExceededError,
    CausalRelation,
    CausalSpace,
    EventSet,
    GeneratorSpec,
    InputError,
    default_labels,
    enumerate_upsets,
    explicit_space,
    future_set,
    generate,
    generator_spec_from_jsonable,
    is_stably_causal,
    is_upset,
    kplus_closure,
    lemma_complement_check,
    minkowski_space,
    past_set,
    random_dag_space,
    space_from_jsonable,
    space_to_jsonable,
    sprinkle_space,
    upset_masks,
)
from kcausal.structure import (
    _KINDS,
    ROW_BLOCK,
    SPRINKLE_GRID,
    _cone_rows,
    _label_sorted_pairs,
    find_cycle_pair,
    iter_bits,
)


def has(rel: CausalRelation, i: int, j: int) -> bool:
    return bool(rel.rows[i] >> j & 1)


def pairs(rel: CausalRelation):
    return ((i, j) for i, row in enumerate(rel.rows) for j in iter_bits(row))


def is_reflexive(rel: CausalRelation) -> bool:
    return all(has(rel, i, i) for i in range(rel.n))


def is_transitive(rel: CausalRelation) -> bool:
    return all(has(rel, i, k) for i, j in pairs(rel) for k in iter_bits(rel.rows[j]))


def is_antisymmetric(rel: CausalRelation) -> bool:
    return not any(i != j and has(rel, j, i) for i, j in pairs(rel))


def pair_set(space, relation="kplus"):
    rel = space.kplus if relation == "kplus" else space.raw
    labels = space.events.labels
    return {(labels[i], labels[j]) for i, j in pairs(rel)}


@st.composite
def relations(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    rows = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    return CausalRelation(n, rows)


def matmul_closure(rel: CausalRelation) -> CausalRelation:
    # Independent oracle: reflexive-transitive closure by boolean matrix
    # powering until fixpoint.
    m = np.zeros((rel.n, rel.n), dtype=np.uint8)
    for i, j in pairs(rel):
        m[i, j] = 1
    np.fill_diagonal(m, 1)
    while True:
        nxt = ((m @ m) + m > 0).astype(np.uint8)
        if (nxt == m).all():
            break
        m = nxt
    rows = tuple(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in m)
    return CausalRelation(rel.n, rows)


class TestClosure:
    def test_chain(self, chain3):
        assert pair_set(chain3) == {
            ("a", "a"), ("b", "b"), ("c", "c"),
            ("a", "b"), ("b", "c"), ("a", "c"),
        }

    def test_empty_relation_closes_to_diagonal(self, antichain2):
        assert pair_set(antichain2) == {("a", "a"), ("b", "b")}

    def test_two_cycle_closes_to_full(self, cyclic2):
        assert pair_set(cyclic2) == {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}

    @given(relations())
    def test_idempotent(self, rel):
        closed = kplus_closure(rel)
        assert kplus_closure(closed).rows == closed.rows

    @given(relations())
    def test_matches_matrix_powering_oracle(self, rel):
        assert kplus_closure(rel).rows == matmul_closure(rel).rows

    @given(relations())
    def test_reflexive_transitive_and_contains_raw(self, rel):
        closed = kplus_closure(rel)
        assert is_reflexive(closed)
        assert is_transitive(closed)
        assert all(closed.rows[i] & rel.rows[i] == rel.rows[i] for i in range(rel.n))


class TestRelationFlags:
    def test_stability_agrees_with_pairwise_antisymmetry(self, diamond, cyclic2):
        for space in (diamond, cyclic2):
            assert is_stably_causal(space) == is_antisymmetric(space.kplus) == (find_cycle_pair(space) is None)
        assert is_reflexive(diamond.kplus) and is_transitive(diamond.kplus)

    def test_row_out_of_range_rejected(self):
        with pytest.raises(InputError):
            CausalRelation(2, (4, 0))
        with pytest.raises(InputError):
            CausalRelation(0, ())


class TestSetOperators:
    def test_future_of_chain_bottom(self, chain3):
        assert future_set(chain3, {"a"}) == {"a", "b", "c"}

    def test_future_of_empty(self, chain3):
        assert future_set(chain3, set()) == frozenset()

    def test_future_diamond_middle(self, diamond):
        assert future_set(diamond, {"b", "c"}) == {"b", "c", "d"}

    def test_past_of_chain_top(self, chain3):
        assert past_set(chain3, {"c"}) == {"a", "b", "c"}

    def test_past_of_everything(self, chain3):
        assert past_set(chain3, {"a", "b", "c"}) == {"a", "b", "c"}

    def test_past_diamond(self, diamond):
        assert past_set(diamond, {"b"}) == {"a", "b"}

    def test_unknown_label(self, chain3):
        with pytest.raises(InputError):
            future_set(chain3, {"z"})

    def test_future_additive_and_past_dual(self):
        rng = random.Random(4)
        for _ in range(25):
            space = random_dag_space(n=rng.randint(1, 7), edge_prob=0.4, seed=rng.randrange(2**32))
            n = space.n
            for mask in range(1 << n):
                union = 0
                for i in iter_bits(mask):
                    union |= space.future_mask(1 << i)
                assert space.future_mask(mask) == union
            for i in range(n):
                for j in range(n):
                    fwd = space.future_mask(1 << i) >> j & 1
                    bwd = space.past_mask(1 << j) >> i & 1
                    assert fwd == bwd


class TestUpsets:
    def test_chain_upper_part(self, chain3):
        assert is_upset(chain3, {"b", "c"})
        assert not is_upset(chain3, {"a"})

    def test_boundary_cases(self, diamond):
        assert is_upset(diamond, set())
        assert is_upset(diamond, {"a", "b", "c", "d"})

    def test_enumerate_chain(self, chain3):
        got = enumerate_upsets(chain3)
        assert set(got) == {frozenset(), frozenset({"c"}), frozenset({"b", "c"}), frozenset({"a", "b", "c"})}

    def test_enumerate_antichain_is_powerset(self, antichain2):
        assert len(enumerate_upsets(antichain2)) == 4

    def test_bound_is_eager(self):
        space = explicit_space([f"e{i}" for i in range(21)], [])
        with pytest.raises(BoundExceededError):
            upset_masks(space)
        with pytest.raises(BoundExceededError):
            enumerate_upsets(space)

    def test_upsets_closed_under_union_and_intersection(self):
        rng = random.Random(11)
        for _ in range(20):
            space = random_dag_space(n=rng.randint(2, 6), edge_prob=0.5, seed=rng.randrange(2**32))
            masks = list(upset_masks(space))
            for a in masks[:8]:
                for b in masks[:8]:
                    assert space.is_upset_mask(a | b)
                    assert space.is_upset_mask(a & b)


class TestComplementLemma:
    def test_both_sides_hold(self, chain3):
        assert lemma_complement_check(chain3, {"b", "c"})

    def test_both_sides_fail(self, chain3):
        assert lemma_complement_check(chain3, {"b"})

    def test_exhaustive_random_posets(self):
        rng = random.Random(99)
        for _ in range(50):
            space = random_dag_space(n=rng.randint(1, 7), edge_prob=rng.random(), seed=rng.randrange(2**32))
            for mask in range(1 << space.n):
                assert lemma_complement_check(space, space.events.labels_of(mask))


class TestEventSet:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError):
            EventSet(labels=("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            EventSet(labels=())
        with pytest.raises(InputError):
            EventSet(labels=("a", ""))

    def test_coords_must_share_dimension(self):
        with pytest.raises(InputError):
            EventSet(labels=("a", "b"), coords=((Fraction(0), Fraction(0)), (Fraction(1),)))

    def test_mask_round_trip(self, diamond):
        ev = diamond.events
        assert ev.labels_of(ev.mask_of({"a", "d"})) == {"a", "d"}

    def test_default_labels_are_sortable(self):
        labs = default_labels(12)
        assert labs == tuple(sorted(labs))
        assert len(set(labs)) == 12


class TestMinkowski:
    def test_inside_cone(self):
        space = minkowski_space([[0, 0], [1, 0.5]], labels=["p", "q"])
        assert ("p", "q") in pair_set(space, "raw")

    def test_outside_cone(self):
        space = minkowski_space([[0, 0], [1, 2]], labels=["p", "q"])
        assert ("p", "q") not in pair_set(space, "raw")

    def test_lightlike_boundary_included(self):
        # closed cone: equality counts
        space = minkowski_space([[0, 0], [1, 1]], labels=["p", "q"])
        assert ("p", "q") in pair_set(space, "raw")

    def test_raw_relation_is_partial_order_in_general_position(self):
        # the cone rule is already transitive and, barring exact coordinate
        # collisions, antisymmetric before any closure is taken
        rng = random.Random(5)
        for _ in range(50):
            dim = rng.choice([2, 3])
            box = [[0, 1], [-1, 1], [0, 2]][:dim]
            space = sprinkle_space(n=8, dim=dim, box=box, seed=rng.randrange(2**32))
            assert is_transitive(space.raw)
            assert is_antisymmetric(space.raw)

    def test_big_coordinate_fallback_agrees_with_vectorized_path(self):
        rng = random.Random(17)
        pts = [
            (Fraction(rng.randint(-50, 50), rng.randint(1, 9)), Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
            for _ in range(12)
        ]
        scale = 10**12  # pushes the scaled peak past the int64 guard
        small = minkowski_space(pts)
        big = minkowski_space([(t * scale, x * scale) for t, x in pts])
        assert small.raw.rows == big.raw.rows

    def test_three_dimensional_cone(self):
        space = minkowski_space([[0, 0, 0], [2, 1, 1], [1, 1, 1]], labels=["o", "in", "out"])
        got = pair_set(space, "raw")
        assert ("o", "in") in got      # 4 >= 2
        assert ("o", "out") not in got  # 1 < 2


def direct_cone_rows(points):
    # Reference for the blocked cone rows: the pairwise exact rule, one pair at a time.
    rows = []
    for p in points:
        row = 0
        for j, q in enumerate(points):
            dt = q[0] - p[0]
            if dt >= 0 and dt * dt >= sum((q[a] - p[a]) ** 2 for a in range(1, len(p))):
                row |= 1 << j
        rows.append(row)
    return tuple(rows)


@st.composite
def cone_point_sets(draw):
    # A coarse grid makes coincident and exactly lightlike pairs common.
    dim = draw(st.integers(2, 4))
    coord = st.sampled_from([Fraction(k, 2) for k in range(-3, 4)])
    point = st.lists(coord, min_size=dim, max_size=dim)
    return draw(st.lists(point, min_size=1, max_size=9))


class TestConeIsItsOwnClosure:
    @settings(max_examples=150, deadline=None)
    @given(cone_point_sets())
    def test_minkowski(self, points):
        space = minkowski_space(points)
        assert kplus_closure(space.raw).rows == space.kplus.rows

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from([(0, 0), (0, 1), (-1, 1), (0, "1/1000000")]), min_size=4, max_size=4),
    )
    def test_sprinkle(self, n, dim, seed, box):
        # Zero-width and very narrow sides make points share coordinates or sit
        # inside each other's cones, so coincident and chained events are common.
        space = sprinkle_space(n=n, dim=dim, box=box[:dim], seed=seed)
        assert kplus_closure(space.raw).rows == space.kplus.rows


class TestBlockedConeRows:
    @pytest.mark.parametrize("extra", [-1, 0, 1, ROW_BLOCK + 1])
    def test_matches_direct_rule_across_block_boundaries(self, extra):
        rng = random.Random(extra)
        dim = 2 + extra % 2
        grid = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(ROW_BLOCK + extra)]
        points = [tuple(Fraction(c, 2) for c in point) for point in grid]
        # The cone rule is scale-invariant, so the reference may run on the integer grid.
        assert _cone_rows(points) == direct_cone_rows(grid)


class TestConeRowsPastInt64:
    # Scaled by 10**12, (2 * peak)**2 passes 2**62, so the coordinates are held
    # as Python integers in object arrays and run the same blocked code.
    BIG = 10**12

    def test_matches_direct_rule_across_block_boundaries(self):
        rng = random.Random(7)
        grid = [tuple(rng.randint(-4, 4) * self.BIG for _ in range(3)) for _ in range(ROW_BLOCK + 1)]
        points = [tuple(Fraction(c, 2) for c in point) for point in grid]
        assert _cone_rows(points) == direct_cone_rows(grid)

    @settings(max_examples=150, deadline=None)
    @given(cone_point_sets())
    def test_scaling_leaves_the_rows_unchanged(self, points):
        assert _cone_rows([tuple(c * self.BIG for c in p) for p in points]) == _cone_rows(points)

    def test_one_point_with_huge_coordinates(self):
        space = minkowski_space([[10**40, -(10**40), "1/3"]])
        assert space.raw.rows == space.kplus.rows == (1,)


class TestSprinkle:
    def test_deterministic(self):
        a = sprinkle_space(n=100, dim=2, box=[[0, 1], [-1, 1]], seed=42)
        b = sprinkle_space(n=100, dim=2, box=[[0, 1], [-1, 1]], seed=42)
        assert a.raw.rows == b.raw.rows
        assert a.events.coords == b.events.coords

    def test_coords_on_rational_grid_inside_box(self):
        space = sprinkle_space(n=40, dim=2, box=[[0, 1], [-1, 1]], seed=3)
        for point in space.events.coords:
            t, x = point
            assert 0 <= t <= 1 and -1 <= x <= 1
            assert (t * SPRINKLE_GRID).denominator == 1
            assert ((x + 1) / 2 * SPRINKLE_GRID).denominator == 1

    def test_closure_is_stably_causal(self):
        for seed in range(10):
            space = sprinkle_space(n=20, dim=2, box=[[0, 1], [-1, 1]], seed=seed)
            assert is_antisymmetric(space.kplus)
            assert is_stably_causal(space)


class TestRandomDag:
    def test_deterministic_and_ordered(self):
        a = random_dag_space(n=10, edge_prob=0.4, seed=9)
        b = random_dag_space(n=10, edge_prob=0.4, seed=9)
        assert a.raw.rows == b.raw.rows
        for i, j in pairs(a.raw):
            assert i < j

    def test_closure_antisymmetric(self):
        for seed in range(10):
            space = random_dag_space(n=9, edge_prob=0.6, seed=seed)
            assert is_antisymmetric(space.kplus)
            assert is_stably_causal(space)

    def test_edge_prob_validation(self):
        with pytest.raises(InputError):
            random_dag_space(n=3, edge_prob=1.5, seed=0)


class TestGeneratorSpec:
    def test_unknown_kind(self):
        with pytest.raises(InputError):
            GeneratorSpec(kind="torus")

    def test_missing_parameters(self):
        with pytest.raises(InputError, match="sprinkle generator needs seed"):
            GeneratorSpec(kind="sprinkle", n=5, dim=2, box=((Fraction(0), Fraction(1)),))

    def test_seed_range(self):
        with pytest.raises(InputError):
            GeneratorSpec(kind="random-dag", n=3, edge_prob=0.5, seed=-1)
        with pytest.raises(InputError):
            GeneratorSpec(kind="random-dag", n=3, edge_prob=0.5, seed=2**64)

    def test_generate_dispatch_matches_direct_calls(self):
        box = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1)))
        points = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1, 2)))
        # One spec per generator kind, with the direct call it must match.
        cases = {
            "explicit": (
                GeneratorSpec(kind="explicit", labels=("a", "b", "c"), pairs=(("a", "b"), ("c", "b"))),
                explicit_space(["a", "b", "c"], [("a", "b"), ("c", "b")]),
            ),
            "minkowski": (
                GeneratorSpec(kind="minkowski", labels=("p", "q"), points=points),
                minkowski_space(points, labels=["p", "q"]),
            ),
            "sprinkle": (
                GeneratorSpec(kind="sprinkle", n=8, dim=2, box=box, seed=4),
                sprinkle_space(8, 2, box, 4),
            ),
            "random-dag": (
                GeneratorSpec(kind="random-dag", n=6, edge_prob=0.5, seed=12),
                random_dag_space(6, 0.5, 12),
            ),
        }
        assert set(cases) == set(_KINDS)
        for kind, (spec, direct) in cases.items():
            got = generate(spec)
            assert got.events == direct.events, kind
            assert got.raw.rows == direct.raw.rows, kind
            assert got.kplus.rows == direct.kplus.rows, kind


class TestJsonFormats:
    def test_unknown_relation_is_refused(self, diamond):
        # Anything but "raw" used to be read as the closure.  The rows refuse it when asked for, before
        # one is read, so the closure writer checks it before it opens its file.
        with pytest.raises(InputError, match="'raw' or 'kplus'"):
            space_to_jsonable(diamond, relation="bogus")
        with pytest.raises(InputError, match="'raw' or 'kplus'"):
            _label_sorted_pairs(diamond, "bogus")

    def test_explicit_round_trip(self, diamond):
        obj = space_to_jsonable(diamond)
        again = space_from_jsonable(obj)
        assert again.events.labels == diamond.events.labels
        assert again.kplus.rows == diamond.kplus.rows

    def test_closure_emission_is_sorted(self, chain3):
        obj = space_to_jsonable(chain3, relation="kplus")
        assert obj["relation"]["pairs"] == sorted(obj["relation"]["pairs"])
        assert len(obj["relation"]["pairs"]) == 6

    def test_kind_objects_accepted(self):
        sprinkled = space_from_jsonable(
            {"kind": "sprinkle", "n": 10, "dim": 2, "box": [[0, 1], [-1, 1]], "seed": 42}
        )
        assert sprinkled.n == 10
        cone = space_from_jsonable({"kind": "minkowski", "points": [[0, 0], [1, 0.5]]})
        assert has(cone.raw, 0, 1)

    def test_malformed_specs_rejected(self):
        for bad in (
            [],
            {"events": ["a"]},
            {"events": ["a"], "relation": {"kind": "implicit"}},
            {"kind": "minkowski"},
            {"kind": "sprinkle", "n": 5},
            {"events": ["a"], "relation": {"kind": "explicit", "pairs": [["a"]]}},
            # Counts and seeds are JSON integers and labels JSON strings, in every
            # spec form, and a box side is a two-entry list (not a string "01").
            {"kind": "random-dag", "n": 6, "p": 0.4, "seed": 7.9},
            {"kind": "random-dag", "n": 6.5, "p": 0.4, "seed": 7},
            {"kind": "random-dag", "n": 6, "p": 0.4, "seed": "7"},
            {"kind": "random-dag", "n": True, "p": 0.4, "seed": 7},
            {"kind": "sprinkle", "n": 6, "dim": 2.0, "box": [[0, 1], [0, 1]], "seed": 0},
            {"kind": "sprinkle", "n": 6, "dim": 2, "box": ["01", "01"], "seed": 0},
            {"kind": "random-dag", "events": ["a", 2], "n": 2, "p": 0.5, "seed": 0},
            {"kind": "minkowski", "events": [0, 1], "points": [[0, 0], [1, 0]]},
            {"kind": "explicit", "events": [1, None], "pairs": []},
            {"kind": "explicit", "events": ["a", "1"], "pairs": [["a", 1]]},
            {"events": [1, 2], "relation": {"kind": "explicit", "pairs": []}},
        ):
            with pytest.raises(InputError):
                generator_spec_from_jsonable(bad)


    def test_recipes_no_builder_accepts_are_refused_by_the_spec_reader(self):
        # A count below its least value and an empty label used to pass the reader, and
        # the spec then failed at every ``generate``.
        for bad in (
            {"kind": "random-dag", "n": 0, "p": 0.5, "seed": 0},
            {"kind": "sprinkle", "n": 3, "dim": 1, "box": [[0, 1]], "seed": 0},
            {"kind": "explicit", "events": ["a", ""], "pairs": []},
            {"kind": "explicit", "events": ["a", "b"], "pairs": [["a", ""]]},
        ):
            with pytest.raises(InputError):
                generator_spec_from_jsonable(bad)
        with pytest.raises(InputError, match="event count must be an integer of at least 1"):
            GeneratorSpec(kind="random-dag", n=6.5, edge_prob=0.5, seed=1)

    def test_null_is_not_an_absent_key(self):
        # A spec field of None means absent; in JSON, a null value is refused, not defaulted.
        with pytest.raises(InputError, match="must not be null"):
            space_from_jsonable({"kind": "random-dag", "events": None, "n": 2, "p": 0.5, "seed": 0})
        assert space_from_jsonable({"kind": "random-dag", "n": 2, "p": 0.5, "seed": 0}).events.labels == ("e0", "e1")

def test_find_cycle_pair(chain3, cyclic2):
    assert find_cycle_pair(chain3) is None
    pair = find_cycle_pair(cyclic2)
    assert set(pair) == {"a", "b"}


def test_space_requires_matching_sizes():
    events = EventSet(labels=("a", "b"))
    with pytest.raises(InputError):
        CausalSpace(events=events, raw=CausalRelation(1, (1,)), kplus=CausalRelation(1, (1,)))
