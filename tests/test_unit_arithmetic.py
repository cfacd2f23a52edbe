"""Coupling and measure arithmetic on integer units against the ``Fraction`` code it replaced.

Marginals, the marginal check of ``verify_coupling``, ``mix_couplings``,
``compose_couplings``, ``convex_combination`` and ``tv_distance`` now scale
their inputs to integers over one common denominator and build a ``Fraction``
only per returned value.  The oracles below are the earlier versions, which
sum, mix and glue ``Fraction`` weights entry by entry.  Values must be equal,
and couplings must have equal entry tuples.

Every measure and coupling the package computes is built from its integer
units by ``_of_units``, not by the public constructors.  The parity tests
rebuild each one through its public constructor from its ``Fraction`` values
and require an equal object with equal ``_integer_weights``.

Operations on two or more objects read their stored units through
``structure._common_units``.  Its oracle is ``structure._scaled`` of the
objects' ``Fraction`` weights, the form it replaced, also on denominators of
2**63 and more (``nudged`` measures and what ``_of_units`` builds from them).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcausal import (
    Coupling,
    EventSet,
    InputError,
    Measure,
    compose_couplings,
    convex_combination,
    decide_k_causal,
    default_labels,
    explicit_space,
    identity_coupling,
    marginals,
    mix_couplings,
    product_coupling,
    random_forward_push,
    random_measure,
    random_space,
    tv_distance,
    uniform_measure,
    verify_coupling,
)
from kcausal.structure import _common_units, _scaled
from test_exhaustive_oracles import nudged

# ---------------------------------------------------------------------------
# Oracles: the per-entry Fraction arithmetic the integer units replaced


def oracle_marginals(omega):
    n = len(omega.events)
    rows = [Fraction(0)] * n
    cols = [Fraction(0)] * n
    for i, j, w in omega.entries:
        rows[i] += w
        cols[j] += w
    return tuple(rows), tuple(cols)


def oracle_verify_coupling(space, omega, mu, nu):
    first, second = oracle_marginals(omega)
    if first != mu.weights or second != nu.weights:
        return False
    rows = space.kplus.rows
    return all(rows[i] >> j & 1 for i, j, _ in omega.entries)


def oracle_compose_couplings(omega1, omega2):
    middle_out = oracle_marginals(omega1)[1]
    if middle_out != oracle_marginals(omega2)[0]:
        raise InputError("intermediate marginals do not match")
    by_middle = {}
    for q, r, w in omega2.entries:
        by_middle.setdefault(q, []).append((r, w))
    glued = {}
    for p, q, w1 in omega1.entries:
        for r, w2 in by_middle.get(q, []):
            glued[(p, r)] = glued.get((p, r), Fraction(0)) + w1 * w2 / middle_out[q]
    return Coupling(events=omega1.events, entries=((p, r, w) for (p, r), w in glued.items() if w))


def oracle_mix_couplings(lam, omega1, omega2):
    mixed = {}
    for i, j, w in omega1.entries:
        mixed[(i, j)] = lam * w
    for i, j, w in omega2.entries:
        mixed[(i, j)] = mixed.get((i, j), Fraction(0)) + (1 - lam) * w
    return Coupling(events=omega1.events, entries=((i, j, w) for (i, j), w in mixed.items() if w))


def oracle_convex_combination(lam, mu, nu):
    weights = tuple(lam * a + (1 - lam) * b for a, b in zip(mu.weights, nu.weights))
    return Measure(events=mu.events, weights=weights)


def oracle_tv_distance(mu, nu):
    return sum(abs(a - b) for a, b in zip(mu.weights, nu.weights)) / 2


# ---------------------------------------------------------------------------
# Inputs: at most 7 events, weights with mixed denominators

events = st.sampled_from([EventSet(default_labels(n)) for n in range(1, 8)])


def normalized(parts):
    """Positive ``parts`` (some may be zero) scaled to total mass 1."""
    total = sum(parts)
    return [p / total for p in parts]


# A part with a random small denominator, so one vector mixes several.
parts = st.builds(Fraction, st.integers(0, 12), st.integers(1, 12))
positive_parts = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))


@st.composite
def measures(draw, on):
    weights = draw(st.lists(parts, min_size=len(on), max_size=len(on)).filter(any))
    return Measure(events=on, weights=tuple(normalized(weights)))


@st.composite
def couplings(draw, on):
    n = len(on)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    cells = draw(st.lists(cell, min_size=1, max_size=12, unique=True))
    weights = normalized(draw(st.lists(positive_parts, min_size=len(cells), max_size=len(cells))))
    return Coupling(events=on, entries=tuple((i, j, w) for (i, j), w in zip(cells, weights)))


@st.composite
def followers(draw, omega):
    """A coupling whose first marginal is ``omega``'s second: each middle event's mass split at random."""
    n = len(omega.events)
    glued = {}
    for q, mass in enumerate(oracle_marginals(omega)[1]):
        if mass:
            targets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
            shares = normalized(draw(st.lists(positive_parts, min_size=len(targets), max_size=len(targets))))
            for r, share in zip(targets, shares):
                glued[(q, r)] = mass * share
    return Coupling(events=omega.events, entries=tuple((q, r, w) for (q, r), w in glued.items()))


@st.composite
def coefficients(draw):
    """``lam`` in {0, 1, 1/n, p/q}."""
    return draw(
        st.one_of(
            st.sampled_from([Fraction(0), Fraction(1)]),
            st.builds(Fraction, st.just(1), st.integers(1, 12)),
            st.integers(1, 40).flatmap(lambda q: st.builds(Fraction, st.integers(0, q), st.just(q))),
        )
    )


@st.composite
def measure_pairs(draw):
    on = draw(events)
    return draw(measures(on)), draw(measures(on))


@st.composite
def coupling_pairs(draw):
    on = draw(events)
    return draw(couplings(on)), draw(couplings(on))


@st.composite
def composable_pairs(draw):
    omega1 = draw(couplings(draw(events)))
    return omega1, draw(followers(omega1))


# ---------------------------------------------------------------------------
# Differential tests


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_marginals_match_the_fraction_sums(data):
    omega = data.draw(couplings(data.draw(events)))
    first, second = marginals(omega)
    assert (first.weights, second.weights) == oracle_marginals(omega)


@settings(max_examples=300, deadline=None)
@given(coupling_pairs(), coefficients())
def test_mix_couplings_matches_the_fraction_mixture(pair, lam):
    omega1, omega2 = pair
    assert mix_couplings(lam, omega1, omega2).entries == oracle_mix_couplings(lam, omega1, omega2).entries


@settings(max_examples=300, deadline=None)
@given(composable_pairs())
def test_compose_couplings_matches_the_fraction_gluing(pair):
    omega1, omega2 = pair
    assert compose_couplings(omega1, omega2).entries == oracle_compose_couplings(omega1, omega2).entries


@settings(max_examples=200, deadline=None)
@given(coupling_pairs())
def test_compose_couplings_refuses_what_the_oracle_refuses(pair):
    omega1, omega2 = pair
    try:
        expected = oracle_compose_couplings(omega1, omega2).entries
    except InputError as exc:
        with pytest.raises(InputError, match=str(exc)):
            compose_couplings(omega1, omega2)
    else:
        assert compose_couplings(omega1, omega2).entries == expected


@settings(max_examples=300, deadline=None)
@given(measure_pairs(), coefficients())
def test_convex_combination_matches_the_fraction_mixture(pair, lam):
    mu, nu = pair
    assert convex_combination(lam, mu, nu).weights == oracle_convex_combination(lam, mu, nu).weights


@settings(max_examples=300, deadline=None)
@given(measure_pairs())
def test_tv_distance_matches_the_fraction_sum(pair):
    mu, nu = pair
    got = tv_distance(mu, nu)
    assert type(got) is Fraction and got == oracle_tv_distance(mu, nu)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_coupling_matches_the_fraction_check(data):
    space = random_space(random.Random(data.draw(st.integers(0, 2**32))), 7)
    omega = data.draw(couplings(space.events))
    first, second = oracle_marginals(omega)
    # The coupling's own marginals half the time, so both answers show up.
    same = data.draw(st.booleans())
    mu = Measure(space.events, first) if same else data.draw(measures(space.events))
    nu = Measure(space.events, second) if same else data.draw(measures(space.events))
    assert verify_coupling(space, omega, mu, nu) is oracle_verify_coupling(space, omega, mu, nu)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_decide_witnesses_pass_both_checks(seed):
    rng = random.Random(seed)
    space = random_space(rng, 7)
    mu, nu = random_measure(rng, space.events), random_measure(rng, space.events)
    cert = decide_k_causal(space, mu, nu)
    if cert.feasible:
        assert verify_coupling(space, cert.witness, mu, nu)
        assert oracle_verify_coupling(space, cert.witness, mu, nu)


@pytest.mark.parametrize("side", ["first", "second"])
def test_a_marginal_one_unit_off_fails_verification(side):
    # Mass 1/12 moves from event a to event b in one marginal; everything else matches.
    space = explicit_space(["a", "b", "c"], [("a", "c")])
    on = space.events
    omega = Coupling(on, ((0, 0, Fraction(1, 4)), (0, 2, Fraction(1, 3)), (1, 1, Fraction(5, 12))))
    first, second = oracle_marginals(omega)
    assert verify_coupling(space, omega, Measure(on, first), Measure(on, second))
    moved = list(first if side == "first" else second)
    moved[0] -= Fraction(1, 12)
    moved[1] += Fraction(1, 12)
    mu = Measure(on, tuple(moved)) if side == "first" else Measure(on, first)
    nu = Measure(on, second) if side == "first" else Measure(on, tuple(moved))
    assert not oracle_verify_coupling(space, omega, mu, nu)
    assert verify_coupling(space, omega, mu, nu) is False


# ---------------------------------------------------------------------------
# Parity: objects built from units equal what the public constructors build


def assert_public_parity(obj):
    """``obj`` rebuilt by its public constructor from its ``Fraction`` values is equal, integer units included."""
    if isinstance(obj, Measure):
        public = Measure(events=obj.events, weights=obj.weights)
    else:
        public = Coupling(events=obj.events, entries=obj.entries)
    assert obj == public
    assert obj._integer_weights == public._integer_weights


@settings(max_examples=200, deadline=None)
@given(measure_pairs(), coefficients())
def test_measure_producers_match_the_public_constructor(pair, lam):
    mu, nu = pair
    for built in (uniform_measure(mu.events), convex_combination(lam, mu, nu)):
        assert_public_parity(built)


@settings(max_examples=200, deadline=None)
@given(measure_pairs())
def test_couplings_of_measures_match_the_public_constructor(pair):
    mu, nu = pair
    assert_public_parity(identity_coupling(mu))
    assert_public_parity(product_coupling(mu, nu))


@settings(max_examples=200, deadline=None)
@given(coupling_pairs(), coefficients())
def test_marginals_and_mixtures_match_the_public_constructor(pair, lam):
    omega1, omega2 = pair
    for built in (*marginals(omega1), mix_couplings(lam, omega1, omega2)):
        assert_public_parity(built)


@settings(max_examples=200, deadline=None)
@given(composable_pairs())
def test_glued_couplings_match_the_public_constructor(pair):
    assert_public_parity(compose_couplings(*pair))


@pytest.mark.parametrize("seed", range(150))
def test_harness_draws_and_witnesses_match_the_public_constructor(seed):
    rng = random.Random(seed)
    space = random_space(rng, 7)
    mu = random_measure(rng, space.events)
    nu, omega = random_forward_push(rng, space, mu)
    independent = random_measure(rng, space.events)
    for built in (mu, nu, omega, independent):
        assert_public_parity(built)
    for target in (nu, independent):
        cert = decide_k_causal(space, mu, target)
        if cert.feasible:
            assert_public_parity(cert.witness)


def test_units_over_a_larger_denominator_are_reduced():
    ev = EventSet(("a", "b"))
    mu = Measure._of_units(ev, 48, [24, 24])
    assert mu == Measure(ev, (Fraction(1, 2), Fraction(1, 2)))
    assert mu._integer_weights == (2, [[1, 1]])
    omega = Coupling._of_units(ev, 12, {(1, 1): 6, (0, 0): 0, (0, 1): 6})
    assert omega.entries == ((0, 1, Fraction(1, 2)), (1, 1, Fraction(1, 2)))
    assert_public_parity(omega)


def test_units_that_miss_their_denominator_are_a_bug():
    ev = EventSet(("a", "b"))
    with pytest.raises(AssertionError):
        Measure._of_units(ev, 3, [1, 1])
    with pytest.raises(AssertionError):
        Coupling._of_units(ev, 4, {(0, 0): 1, (0, 1): 2})


# ---------------------------------------------------------------------------
# Common units: the units objects stored at construction, against ``_scaled`` of their weights


def scaled_weights(*objects):
    """``_scaled`` of each measure's weights and each coupling's entry weights: the form it replaced."""
    return _scaled(*(obj.weights if isinstance(obj, Measure) else [w for _, _, w in obj.entries] for obj in objects))


def maybe_nudged(pair, nudge):
    """The pair, or each measure with 1/3**40 moved: a common denominator of at least 2**63 (beyond one event)."""
    return tuple(map(nudged, pair)) if nudge else pair


@settings(max_examples=300, deadline=None)
@given(measure_pairs(), st.booleans())
def test_common_units_of_measures_are_their_scaled_weights(pair, nudge):
    mu, nu = maybe_nudged(pair, nudge)
    den, units = _common_units(mu, nu)
    assert (den, units) == scaled_weights(mu, nu)
    assert _common_units(mu) == scaled_weights(mu)
    assert den >= 2**63 or not nudge or len(mu.events) == 1


@settings(max_examples=300, deadline=None)
@given(coupling_pairs())
def test_common_units_of_couplings_are_their_scaled_entry_weights(pair):
    omega1, omega2 = pair
    assert _common_units(omega1, omega2) == scaled_weights(omega1, omega2)
    assert _common_units(omega2, omega1, omega2) == scaled_weights(omega2, omega1, omega2)


@settings(max_examples=200, deadline=None)
@given(measure_pairs(), coefficients(), st.booleans())
def test_common_units_of_unit_built_objects_are_their_scaled_weights(pair, lam, nudge):
    mu, nu = maybe_nudged(pair, nudge)
    omega = product_coupling(mu, nu)
    built = [
        convex_combination(lam, mu, nu),
        uniform_measure(mu.events),
        *marginals(omega),
        identity_coupling(mu),
        omega,
        mix_couplings(lam, omega, identity_coupling(nu)),
    ]
    for objects in [*combinations(built, 2), built]:
        assert _common_units(*objects) == scaled_weights(*objects)


def test_common_units_of_nothing_are_scaled_nothing():
    assert _common_units() == _scaled() == (1, [])
