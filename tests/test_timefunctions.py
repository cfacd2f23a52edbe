"""Time functions: enumeration, sampling, constructions, and the order tests."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcausal import (
    BoundExceededError,
    InputError,
    NotStablyCausalError,
    TimeFunction,
    condition3_check,
    condition4_check,
    condition5_check,
    decide_k_causal,
    dirac,
    enumerate_time_functions,
    enumerate_upsets,
    explicit_space,
    future_volume_timefn,
    indicator_time_function,
    integrate,
    is_stably_causal,
    is_strictly_monotone,
    measure,
    measure_of,
    minguzzi_check,
    minkowski_space,
    random_dag_space,
    random_measure,
    rank_time_function,
    sample_time_function,
    sprinkle_space,
    time_function,
    timefn_from_jsonable,
    timefn_to_jsonable,
    uniform_measure,
)
from kcausal.timefunctions import _linear_extensions


def random_poset(rng: random.Random, lo: int = 2, hi: int = 6):
    return random_dag_space(
        n=rng.randint(lo, hi),
        edge_prob=0.2 + 0.5 * rng.random(),
        seed=rng.randrange(2**32),
    )


class TestEnumeration:
    def test_antichain_has_both_orders(self, antichain2):
        fns = enumerate_time_functions(antichain2)
        assert [t.values for t in fns] == [
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
        ]

    def test_chain_has_one(self, chain3):
        fns = enumerate_time_functions(chain3)
        assert len(fns) == 1
        assert fns[0].values == (Fraction(0), Fraction(1), Fraction(2))

    def test_diamond_has_two(self, diamond):
        assert len(enumerate_time_functions(diamond)) == 2

    def test_free_antichain_counts_factorial(self):
        space = explicit_space(["a", "b", "c"], [])
        assert len(enumerate_time_functions(space)) == 6

    def test_cycle_raises_not_empty(self, cyclic2):
        # a cycle has no time functions at all; that is an error, not []
        assert not is_stably_causal(cyclic2)
        with pytest.raises(NotStablyCausalError) as info:
            enumerate_time_functions(cyclic2)
        assert set(info.value.pair) == {"a", "b"}

    def test_enumeration_bound(self):
        space = explicit_space([f"e{i}" for i in range(9)], [])
        with pytest.raises(BoundExceededError):
            enumerate_time_functions(space)
        assert len(enumerate_time_functions(space, max_events=9)) > 0

    def test_all_enumerated_are_strictly_monotone(self):
        rng = random.Random(5)
        for _ in range(15):
            space = random_poset(rng)
            for t in enumerate_time_functions(space):
                assert is_strictly_monotone(space, t)

    def test_rank_time_function_is_first(self, diamond):
        first = enumerate_time_functions(diamond)[0]
        assert rank_time_function(diamond).values == first.values


def recursive_linear_extensions(space):
    """Reference for ``_linear_extensions``: the recursive backtracking it replaced.

    Yields every linear extension in lexicographic order of event indices.
    Its predecessor masks are the closure's columns, read here off its rows, not the covering pairs.
    """
    n = space.n
    rows = space.kplus.rows
    preds = [sum(1 << i for i in range(n) if i != j and rows[i] >> j & 1) for j in range(n)]
    order = []

    def extend(placed):
        if len(order) == n:
            yield tuple(order)
            return
        for j in range(n):
            bit = 1 << j
            if placed & bit or preds[j] & ~placed:
                continue
            order.append(j)
            yield from extend(placed | bit)
            order.pop()

    return extend(0)


@st.composite
def small_orders(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    if draw(st.booleans()):
        return sprinkle_space(n=n, dim=2, box=((0, 1), (-1, 1)), seed=seed)
    edge_prob = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
    return random_dag_space(n=n, edge_prob=edge_prob, seed=seed)


class TestIterativeExtensions:
    @settings(max_examples=80, deadline=None)
    @given(small_orders())
    def test_matches_recursive_reference(self, space):
        assert list(_linear_extensions(space)) == list(recursive_linear_extensions(space))

    def test_no_extension_on_a_space_with_a_two_way_pair(self):
        # Events 0 and 1 share a point, so each precedes the other; 2 lies in both futures.
        space = minkowski_space([[0, 0], [0, 0], [1, 0]])
        assert not is_stably_causal(space)
        assert list(_linear_extensions(space)) == []
        assert list(recursive_linear_extensions(space)) == []

    def test_rank_time_function_past_the_recursion_limit(self):
        space = random_dag_space(1500, 0.01, 3)
        t = rank_time_function(space)
        assert sorted(t.values) == list(range(1500))
        assert is_strictly_monotone(space, t)


class TestSampling:
    def test_seed_determinism(self, diamond):
        one = sample_time_function(diamond, seed=7)
        two = sample_time_function(diamond, seed=7)
        assert one.values == two.values

    def test_sampled_monotone(self):
        rng = random.Random(11)
        for _ in range(40):
            space = random_poset(rng)
            t = sample_time_function(space, seed=rng.randrange(2**64))
            assert is_strictly_monotone(space, t)

    def test_antichain_sampling_reaches_both_orders(self, antichain2):
        below = above = 0
        for seed in range(1000):
            t = sample_time_function(antichain2, seed)
            if t.value_of("a") < t.value_of("b"):
                below += 1
            else:
                above += 1
        assert below and above

    def test_cycle_rejected(self, cyclic2):
        with pytest.raises(NotStablyCausalError):
            sample_time_function(cyclic2, seed=0)


class TestValidation:
    def test_accepts_monotone_values(self, chain3):
        t = time_function(chain3, {"a": "-1", "b": "0.5", "c": 2})
        assert t.value_of("b") == Fraction(1, 2)

    def test_rejects_plateau(self, chain2):
        with pytest.raises(InputError):
            time_function(chain2, {"a": 1, "b": 1})

    def test_rejects_missing_and_unknown_events(self, chain2):
        with pytest.raises(InputError, match="missing"):
            time_function(chain2, {"a": 0})
        with pytest.raises(InputError, match="unknown"):
            time_function(chain2, {"a": 0, "b": 1, "z": 2})

    def test_rejects_cycle(self, cyclic2):
        with pytest.raises(NotStablyCausalError):
            time_function(cyclic2, {"a": 0, "b": 1})

    def test_value_count_checked(self, chain2):
        with pytest.raises(InputError):
            TimeFunction(events=chain2.events, values=(Fraction(0),))

    def test_superlevel_threshold_is_read_as_a_rational(self, chain3):
        t = time_function(chain3, {"a": 0, "b": "1/2", "c": 1})
        assert t.superlevel_mask("1/2") == t.superlevel_mask(Fraction(1, 2)) == chain3.events.mask_of(["c"])
        assert t.superlevel_mask("1/2", closed=True) == chain3.events.mask_of(["b", "c"])
        assert t.superlevel_mask(0) == chain3.events.mask_of(["b", "c"])
        with pytest.raises(InputError, match="expected a number"):
            t.superlevel_mask(True)
        with pytest.raises(InputError, match="not a valid rational"):
            t.superlevel_mask("half")


class TestFutureVolume:
    def test_chain_uniform_full_region(self, chain3):
        t = future_volume_timefn(chain3, uniform_measure(chain3.events), 1, ["a", "b", "c"])
        assert t.values == (Fraction(-1), Fraction(-2, 3), Fraction(-1, 3))

    def test_empty_region_scales_with_lambda(self, chain3):
        eta = uniform_measure(chain3.events)
        half = future_volume_timefn(chain3, eta, "1/2", [])
        full = future_volume_timefn(chain3, eta, 1, ["a", "b", "c"])
        assert half.values == tuple(v / 2 for v in full.values)

    def test_membership_readable_from_values(self):
        # with lam < 1, t drops strictly below the empty-region baseline
        # exactly on the region
        rng = random.Random(17)
        for _ in range(100):
            space = random_poset(rng)
            eta = random_measure(rng, space.events)
            if not eta.admissible:
                eta = uniform_measure(space.events)
            seed_mask = rng.randrange(1 << space.n)
            y = space.events.labels_of(space.past_mask(seed_mask))
            t = future_volume_timefn(space, eta, "1/2", y)
            base = future_volume_timefn(space, eta, "1/2", [])
            for i, label in enumerate(space.events.labels):
                assert (t.values[i] < base.values[i]) == (label in y)

    def test_strictly_monotone(self):
        rng = random.Random(19)
        for _ in range(50):
            space = random_poset(rng)
            y = space.events.labels_of(space.past_mask(rng.randrange(1 << space.n)))
            t = future_volume_timefn(space, uniform_measure(space.events), 1, y)
            assert is_strictly_monotone(space, t)

    def test_rejects_bad_inputs(self, chain2, cyclic2):
        eta = uniform_measure(chain2.events)
        with pytest.raises(InputError, match="positive weight"):
            future_volume_timefn(chain2, dirac(chain2.events, "a"), 1, [])
        with pytest.raises(InputError, match="coefficient"):
            future_volume_timefn(chain2, eta, 0, [])
        with pytest.raises(InputError, match="coefficient"):
            future_volume_timefn(chain2, eta, 2, [])
        with pytest.raises(InputError, match="pasts"):
            future_volume_timefn(chain2, eta, 1, ["b"])
        with pytest.raises(NotStablyCausalError):
            future_volume_timefn(cyclic2, uniform_measure(cyclic2.events), 1, [])


class TestIndicator:
    def test_superlevel_recovers_every_upset(self):
        rng = random.Random(29)
        for _ in range(40):
            space = random_poset(rng)
            for upset in enumerate_upsets(space):
                t = indicator_time_function(space, upset)
                mask = t.superlevel_mask(Fraction(1, 2))
                assert frozenset(space.events.labels_of(mask)) == upset

    def test_strictly_monotone(self, diamond):
        t = indicator_time_function(diamond, ["d"])
        assert is_strictly_monotone(diamond, t)

    def test_rejects_non_upset(self, chain2):
        with pytest.raises(InputError, match="future-closed"):
            indicator_time_function(chain2, ["a"])

    def test_epsilon_guard(self, chain3):
        with pytest.raises(InputError):
            indicator_time_function(chain3, ["c"], epsilon=0)
        with pytest.raises(InputError):
            indicator_time_function(chain3, ["c"], epsilon="1/4")
        t = indicator_time_function(chain3, ["c"], epsilon="1/5")
        assert t.superlevel_mask(Fraction(1, 2)) == chain3.events.mask_of(["c"])


class TestSuperlevelConditions:
    def test_chain_pair_passes(self, chain3):
        mu = measure(chain3.events, {"a": "1/2", "b": "1/2"})
        nu = measure(chain3.events, {"b": "1/2", "c": "1/2"})
        assert condition4_check(chain3, mu, nu, half_line="open")
        assert condition4_check(chain3, mu, nu, half_line="closed")
        assert condition5_check(chain3, mu, nu)

    def test_diamond_pair_fails(self, diamond):
        mu = measure(diamond.events, {"b": "1/2", "c": "1/2"})
        nu = measure(diamond.events, {"a": "1/2", "d": "1/2"})
        assert not condition4_check(diamond, mu, nu, half_line="open")
        assert not condition4_check(diamond, mu, nu, half_line="closed")
        assert not condition5_check(diamond, mu, nu)

    def test_open_and_closed_half_lines_agree(self):
        rng = random.Random(37)
        for _ in range(40):
            space = random_poset(rng)
            mu = random_measure(rng, space.events)
            nu = random_measure(rng, space.events)
            assert condition4_check(space, mu, nu, half_line="open") == condition4_check(
                space, mu, nu, half_line="closed"
            )

    def test_exact_integral_condition_matches_upset_condition(self):
        rng = random.Random(43)
        for _ in range(40):
            space = random_poset(rng)
            mu = random_measure(rng, space.events)
            nu = random_measure(rng, space.events)
            assert condition5_check(space, mu, nu) == condition3_check(space, mu, nu)

    def test_sampled_modes_never_reject_feasible_pairs(self):
        rng = random.Random(47)
        for _ in range(25):
            space = random_poset(rng)
            mu = random_measure(rng, space.events)
            nu = random_measure(rng, space.events)
            if decide_k_causal(space, mu, nu).feasible:
                assert condition4_check(space, mu, nu, mode="sampled", samples=8, seed=1)
                assert condition5_check(space, mu, nu, mode="sampled", samples=8, seed=1)

    def test_sampled_falsifier_finds_gross_violations(self, chain2):
        mu = dirac(chain2.events, "b")
        nu = dirac(chain2.events, "a")
        assert not condition4_check(chain2, mu, nu, mode="sampled", samples=4, seed=0)
        assert not condition5_check(chain2, mu, nu, mode="sampled", samples=4, seed=0)

    def test_identical_measures_pass(self, diamond):
        mu = uniform_measure(diamond.events)
        assert condition5_check(diamond, mu, mu)

    def test_mode_and_variant_validation(self, chain2):
        mu = uniform_measure(chain2.events)
        with pytest.raises(InputError):
            condition4_check(chain2, mu, mu, half_line="ajar")
        with pytest.raises(InputError):
            condition4_check(chain2, mu, mu, mode="guess")
        with pytest.raises(InputError):
            condition5_check(chain2, mu, mu, mode="guess")
        with pytest.raises(InputError):
            condition4_check(chain2, mu, mu, mode="sampled", samples=0)


class TestSuperlevelSetsAreUpsets:
    def test_every_threshold_of_every_sample(self):
        rng = random.Random(53)
        for _ in range(30):
            space = random_poset(rng)
            t = sample_time_function(space, seed=rng.randrange(2**64))
            for v in set(t.values):
                for closed in (False, True):
                    assert space.is_upset_mask(t.superlevel_mask(v, closed=closed))


class TestMinguzzi:
    def test_diamond_pairs(self, diamond):
        assert minguzzi_check(diamond, "a", "d")
        assert not minguzzi_check(diamond, "b", "c")
        assert not minguzzi_check(diamond, "d", "a")
        assert minguzzi_check(diamond, "b", "b")

    def test_matches_closure_membership(self):
        rng = random.Random(59)
        for _ in range(12):
            space = random_poset(rng, lo=2, hi=5)
            labels = space.events.labels
            for i in range(space.n):
                for j in range(space.n):
                    assert minguzzi_check(space, labels[i], labels[j]) == bool(space.kplus.rows[i] >> j & 1)

    def test_bound_and_cycles(self, cyclic2):
        space = explicit_space([f"e{i}" for i in range(9)], [])
        with pytest.raises(BoundExceededError):
            minguzzi_check(space, "e0", "e1")
        with pytest.raises(NotStablyCausalError):
            minguzzi_check(cyclic2, "a", "b")


class TestIntegration:
    def test_chain_expectations(self, chain3):
        t = time_function(chain3, {"a": 0, "b": 1, "c": 2})
        mu = measure(chain3.events, {"a": "1/2", "b": "1/2"})
        nu = measure(chain3.events, {"b": "1/2", "c": "1/2"})
        assert integrate(mu, t) == Fraction(1, 2)
        assert integrate(nu, t) == Fraction(3, 2)

    def test_indicator_integral_is_upset_mass(self, diamond):
        mu = measure(diamond.events, {"b": "1/2", "c": "1/2"})
        upset = ["b", "d"]
        t = indicator_time_function(diamond, upset, epsilon="1/100")
        mass = measure_of(mu, upset)
        assert abs(integrate(mu, t) - mass) < Fraction(1, 10)


class TestJson:
    def test_round_trip(self, diamond):
        t = sample_time_function(diamond, seed=3)
        obj = timefn_to_jsonable(t)
        back = timefn_from_jsonable(obj, diamond)
        assert back.values == t.values

    def test_values_are_strings(self, chain2):
        t = time_function(chain2, {"a": "1/3", "b": 1})
        assert timefn_to_jsonable(t) == {"values": {"a": "1/3", "b": "1"}}

    def test_malformed_rejected(self, chain2):
        with pytest.raises(InputError):
            timefn_from_jsonable(["not", "a", "dict"], chain2)
        with pytest.raises(InputError):
            timefn_from_jsonable({"values": {"a": 0, "b": 0}}, chain2)
