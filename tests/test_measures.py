"""Exact-rational measures: construction, distances, mixtures, integration."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kcausal import (
    EventSet,
    InputError,
    Measure,
    TimeFunction,
    convex_combination,
    dirac,
    format_rational,
    integrate,
    measure,
    measure_from_jsonable,
    measure_of,
    measure_to_jsonable,
    parse_rational,
    tv_distance,
    uniform_measure,
)

EV3 = EventSet(labels=("a", "b", "c"))


@st.composite
def measure_triples(draw, n=3):
    events = EventSet(labels=tuple(f"e{i}" for i in range(n)))
    out = []
    for _ in range(3):
        counts = draw(
            st.lists(st.integers(0, 8), min_size=n, max_size=n).filter(lambda c: sum(c) > 0)
        )
        total = sum(counts)
        out.append(Measure(events=events, weights=tuple(Fraction(c, total) for c in counts)))
    return tuple(out)


class TestParseRational:
    def test_fraction_strings(self):
        assert parse_rational("1/2") == Fraction(1, 2)
        assert parse_rational("3") == 3

    def test_decimal_string_is_exact_denoted_value(self):
        assert parse_rational("0.1") == Fraction(1, 10)

    def test_binary_float_is_exact_float_value(self):
        # 0.1 as a float is not 1/10; conversion keeps the float's exact value
        assert parse_rational(0.1) == Fraction(3602879701896397, 36028797018963968)
        assert parse_rational(0.5) == Fraction(1, 2)

    def test_garbage_rejected(self):
        for bad in ("one/two", "1/0", None, True, [1]):
            with pytest.raises(InputError):
                parse_rational(bad)

    def test_numpy_integers_read_as_python_integers(self):
        # Fraction keeps a numpy numerator as it is, and 2**62 * 4 wraps to 0 in int64.
        value = parse_rational(np.int64(2**62))
        assert type(value.numerator) is int
        assert value * 4 == 2**64
        assert parse_rational(np.uint64(2**63)) == 2**63
        assert parse_rational(np.int8(-3)) == -3

    def test_numpy_integer_arrays_and_weights_build_what_lists_build(self):
        events = EventSet(labels=("a", "b"))
        assert TimeFunction(events, np.array([1, 2])) == TimeFunction(events, [1, 2])
        assert measure(events, {"a": np.int64(1)}) == measure(events, {"a": 1})
        assert measure(events, {"a": np.uint8(0), "b": np.int32(1)}) == measure(events, {"b": 1})

    def test_numpy_bool_is_refused(self):
        with pytest.raises(InputError, match="expected a number"):
            parse_rational(np.bool_(True))

    def test_format_round_trip(self):
        for value in (Fraction(1, 3), Fraction(0), Fraction(7), Fraction(-2, 5)):
            assert parse_rational(format_rational(value)) == value


class TestMeasureConstruction:
    def test_weights_must_sum_to_one_with_exact_defect(self):
        with pytest.raises(InputError, match="9/10"):
            measure(EV3, {"a": "1/2", "b": "2/5"})

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            measure(EV3, {"a": "3/2", "b": "-1/2"})

    def test_unknown_label_rejected(self):
        with pytest.raises(InputError):
            measure(EV3, {"z": 1})

    def test_missing_labels_default_to_zero(self):
        mu = measure(EV3, {"a": 1})
        assert mu.weights == (Fraction(1), Fraction(0), Fraction(0))

    def test_admissible_is_full_support(self):
        assert uniform_measure(EV3).admissible
        assert not dirac(EV3, "a").admissible

    def test_dirac(self):
        assert dirac(EV3, "b").weight("b") == 1

    def test_weights_are_read_as_rationals(self):
        for bad in ((True, False, False), (float("nan"), 1, 0), ("x", 1, 0)):
            with pytest.raises(InputError):
                Measure(EV3, bad)
        mu = Measure(EV3, [Fraction(1, 2), 0.5, "0"])
        assert mu.weights == (Fraction(1, 2), Fraction(1, 2), Fraction(0))
        assert type(mu.weights) is tuple

    def test_event_labels_are_a_tuple(self):
        assert EventSet(["a", "b", "c"]) == EV3


class TestMeasureOf:
    def test_half(self):
        mu = measure(EV3, {"a": "1/2", "b": "1/2"})
        assert measure_of(mu, {"a"}) == Fraction(1, 2)

    def test_empty(self):
        assert measure_of(uniform_measure(EV3), set()) == 0

    def test_two_of_three_uniform(self):
        assert measure_of(uniform_measure(EV3), {"a", "c"}) == Fraction(2, 3)

    def test_complement_additivity(self):
        mu = measure(EV3, {"a": "1/6", "b": "1/3", "c": "1/2"})
        for mask in range(8):
            X = mu.events.labels_of(mask)
            comp = mu.events.labels_of(((1 << len(mu.events)) - 1) ^ mask)
            assert measure_of(mu, X) + measure_of(mu, comp) == 1


class TestTvDistance:
    def test_identity(self):
        mu = uniform_measure(EV3)
        assert tv_distance(mu, mu) == 0

    def test_disjoint_diracs(self):
        assert tv_distance(dirac(EV3, "a"), dirac(EV3, "b")) == 1

    def test_half_overlap(self):
        mu = measure(EV3, {"a": "1/2", "b": "1/2"})
        assert tv_distance(mu, dirac(EV3, "a")) == Fraction(1, 2)

    def test_mismatched_event_sets(self):
        other = EventSet(labels=("x", "y"))
        with pytest.raises(InputError):
            tv_distance(uniform_measure(EV3), uniform_measure(other))

    @given(measure_triples())
    def test_triangle_inequality(self, triple):
        mu, nu, rho = triple
        assert tv_distance(mu, rho) <= tv_distance(mu, nu) + tv_distance(nu, rho)


class TestConvexCombination:
    def test_endpoints(self):
        mu, nu = dirac(EV3, "a"), dirac(EV3, "b")
        assert convex_combination(1, mu, nu).weights == mu.weights
        assert convex_combination(0, mu, nu).weights == nu.weights

    def test_half_mix(self):
        mixed = convex_combination("1/2", dirac(EV3, "a"), dirac(EV3, "b"))
        assert mixed.weights == (Fraction(1, 2), Fraction(1, 2), Fraction(0))

    def test_out_of_range(self):
        with pytest.raises(InputError):
            convex_combination("3/2", dirac(EV3, "a"), dirac(EV3, "b"))

    def test_interpolation_distance_shrinks_exactly(self):
        # tv(mu_n, mu) = tv(rho, mu) / n along mu_n = (1 - 1/n) mu + (1/n) rho
        mu = measure(EV3, {"a": "1/2", "b": "1/2"})
        rho = dirac(EV3, "c")
        base = tv_distance(rho, mu)
        for n in range(1, 12):
            mu_n = convex_combination(Fraction(1, n), rho, mu)
            assert tv_distance(mu_n, mu) == base / n


class TestIntegrate:
    def test_constant_one(self):
        assert integrate(uniform_measure(EV3), {"a": 1, "b": 1, "c": 1}) == 1

    def test_chain_arithmetic(self):
        f = {"a": 0, "b": 1, "c": 2}
        mu = measure(EV3, {"a": "1/2", "b": "1/2"})
        nu = measure(EV3, {"b": "1/2", "c": "1/2"})
        assert integrate(mu, f) == Fraction(1, 2)
        assert integrate(nu, f) == Fraction(3, 2)

    def test_missing_value(self):
        with pytest.raises(InputError):
            integrate(uniform_measure(EV3), {"a": 1, "b": 2})

    def test_linear(self):
        mu = measure(EV3, {"a": "1/4", "b": "1/4", "c": "1/2"})
        f = {"a": Fraction(1), "b": Fraction(2), "c": Fraction(-1)}
        g = {"a": Fraction(0), "b": Fraction(5), "c": Fraction(3)}
        fg = {k: f[k] + g[k] for k in f}
        assert integrate(mu, fg) == integrate(mu, f) + integrate(mu, g)


class TestJson:
    def test_round_trip_drops_zeros(self):
        mu = measure(EV3, {"a": "2/3", "c": "1/3"})
        obj = measure_to_jsonable(mu)
        assert obj == {"weights": {"a": "2/3", "c": "1/3"}}
        assert measure_from_jsonable(obj, EV3).weights == mu.weights

    def test_decimal_strings_accepted(self):
        mu = measure_from_jsonable({"weights": {"a": "0.25", "b": "0.75"}}, EV3)
        assert mu.weights == (Fraction(1, 4), Fraction(3, 4), Fraction(0))

    def test_malformed(self):
        with pytest.raises(InputError):
            measure_from_jsonable({"weights": [1, 0]}, EV3)
