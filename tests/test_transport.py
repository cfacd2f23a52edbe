"""Decision procedure, certificates, oracle, and coupling algebra."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from kcausal import (
    BoundExceededError,
    Coupling,
    EventSet,
    InputError,
    Measure,
    certificate_to_jsonable,
    compose_couplings,
    condition2_check,
    condition3_check,
    coupling,
    coupling_from_jsonable,
    coupling_to_jsonable,
    decide_k_causal,
    dirac,
    explicit_space,
    identity_coupling,
    marginals,
    measure,
    mix_couplings,
    product_coupling,
    random_dag_space,
    random_measure,
    strassen_check,
    uniform_measure,
    verify_coupling,
)
from kcausal.structure import iter_bits


class TestDecide:
    def test_chain_forward_dirac(self, chain2):
        cert = decide_k_causal(chain2, dirac(chain2.events, "a"), dirac(chain2.events, "b"))
        assert cert.feasible
        assert cert.witness.entries == ((0, 1, Fraction(1)),)

    def test_chain_backward_dirac(self, chain2):
        cert = decide_k_causal(chain2, dirac(chain2.events, "b"), dirac(chain2.events, "a"))
        assert not cert.feasible
        assert cert.violator == {"b"}
        assert cert.mu_B == 1
        assert cert.nu_kplus_B == 0

    def test_diamond_split(self, diamond):
        mu = measure(diamond.events, {"b": "1/2", "c": "1/2"})
        nu = measure(diamond.events, {"a": "1/2", "d": "1/2"})
        cert = decide_k_causal(diamond, mu, nu)
        assert not cert.feasible
        assert cert.violator == {"b", "c"}
        assert cert.mu_B == 1
        assert cert.nu_kplus_B == Fraction(1, 2)

    def test_chain_half_shift(self, chain3):
        mu = measure(chain3.events, {"a": "1/2", "b": "1/2"})
        nu = measure(chain3.events, {"b": "1/2", "c": "1/2"})
        cert = decide_k_causal(chain3, mu, nu)
        assert cert.feasible
        assert coupling_to_jsonable(cert.witness) == {
            "pairs": [["a", "b", "1/2"], ["b", "c", "1/2"]]
        }

    def test_reflexive_for_every_measure(self):
        rng = random.Random(2)
        for _ in range(20):
            space = random_dag_space(n=rng.randint(1, 7), edge_prob=0.4, seed=rng.randrange(2**32))
            mu = random_measure(rng, space.events)
            cert = decide_k_causal(space, mu, mu)
            assert cert.feasible
            assert verify_coupling(space, cert.witness, mu, mu)

    def test_dirac_pairs_match_relation_membership(self):
        rng = random.Random(3)
        for _ in range(15):
            space = random_dag_space(n=rng.randint(2, 6), edge_prob=0.5, seed=rng.randrange(2**32))
            labels = space.events.labels
            for i in range(space.n):
                for j in range(space.n):
                    cert = decide_k_causal(
                        space, dirac(space.events, labels[i]), dirac(space.events, labels[j])
                    )
                    assert cert.feasible == bool(space.kplus.rows[i] >> j & 1)

    def test_mismatched_event_set(self, chain2, chain3):
        with pytest.raises(InputError):
            decide_k_causal(chain2, uniform_measure(chain3.events), uniform_measure(chain3.events))

    def test_measures_built_from_lists_decide(self, chain2):
        # Weights given as a list, and labels given as a list, are read as tuples.
        for events in (chain2.events, EventSet(["a", "b"])):
            mu = Measure(events, [Fraction(1), Fraction(0)])
            nu = Measure(events, [Fraction(0), Fraction(1)])
            assert decide_k_causal(chain2, mu, nu).feasible

    def test_near_degenerate_gap_is_caught_exactly(self, chain2):
        # infeasible by a margin of 1/N; any tolerance-based solver would wobble
        N = 10**12 + 39
        mu = dirac(chain2.events, "b")
        nu = measure(chain2.events, {"a": Fraction(1, N), "b": Fraction(N - 1, N)})
        cert = decide_k_causal(chain2, mu, nu)
        assert not cert.feasible
        assert cert.mu_B - cert.nu_kplus_B == Fraction(1, N)
        assert decide_k_causal(chain2, nu, mu).feasible

    def test_feasibility_invariant_under_relabeling(self):
        rng = random.Random(13)
        for _ in range(20):
            space = random_dag_space(n=rng.randint(2, 6), edge_prob=0.5, seed=rng.randrange(2**32))
            mu = random_measure(rng, space.events)
            nu = random_measure(rng, space.events)
            perm = list(range(space.n))
            rng.shuffle(perm)
            labels = [f"x{k}" for k in range(space.n)]
            pairs = [(labels[perm[i]], labels[perm[j]]) for i, row in enumerate(space.raw.rows) for j in iter_bits(row)]
            other = explicit_space(labels, pairs)
            mu2 = measure(other.events, {labels[perm[i]]: w for i, w in enumerate(mu.weights)})
            nu2 = measure(other.events, {labels[perm[i]]: w for i, w in enumerate(nu.weights)})
            assert decide_k_causal(space, mu, nu).feasible == decide_k_causal(other, mu2, nu2).feasible


class TestStrassenOracle:
    def test_chain_feasible(self, chain2):
        ok, violator = strassen_check(chain2, dirac(chain2.events, "a"), dirac(chain2.events, "b"))
        assert ok and violator is None

    def test_antichain_violator(self, antichain2):
        ok, violator = strassen_check(
            antichain2, dirac(antichain2.events, "a"), dirac(antichain2.events, "b")
        )
        assert not ok
        assert violator == {"a"}

    def test_first_violator_is_canonical(self, diamond):
        # enumeration by size then label order finds {a} (dual inequality)
        mu = measure(diamond.events, {"b": "1/2", "c": "1/2"})
        nu = measure(diamond.events, {"a": "1/2", "d": "1/2"})
        ok, violator = strassen_check(diamond, mu, nu)
        assert not ok
        assert violator == {"a"}

    def test_bound_refused(self):
        space = explicit_space([f"e{i}" for i in range(21)], [])
        mu = uniform_measure(space.events)
        with pytest.raises(BoundExceededError):
            strassen_check(space, mu, mu)

    def test_agrees_with_decision_procedure(self):
        rng = random.Random(41)
        seen = {True: 0, False: 0}
        for _ in range(60):
            space = random_dag_space(n=rng.randint(1, 7), edge_prob=0.4, seed=rng.randrange(2**32))
            mu = random_measure(rng, space.events)
            nu = random_measure(rng, space.events)
            cert = decide_k_causal(space, mu, nu)
            ok, _ = strassen_check(space, mu, nu)
            assert cert.feasible == ok
            seen[ok] += 1
        assert seen[True] and seen[False]


class TestCertificateSoundness:
    def test_both_branches(self):
        rng = random.Random(23)
        for _ in range(40):
            space = random_dag_space(n=rng.randint(2, 7), edge_prob=0.35, seed=rng.randrange(2**32))
            mu = random_measure(rng, space.events)
            nu = random_measure(rng, space.events)
            cert = decide_k_causal(space, mu, nu)
            if cert.feasible:
                assert verify_coupling(space, cert.witness, mu, nu)
            else:
                mask = space.events.mask_of(cert.violator)
                assert mu.mass_of_mask(mask) > nu.mass_of_mask(space.future_mask(mask))

    def test_witness_is_checked_before_it_is_returned(self, chain2, monkeypatch):
        import kcausal.transport as transport

        monkeypatch.setattr(transport, "verify_coupling", lambda *args: False)
        with pytest.raises(AssertionError):
            decide_k_causal(chain2, dirac(chain2.events, "a"), dirac(chain2.events, "b"))

    def test_certificate_shape_validation(self, chain2):
        from kcausal import Certificate

        with pytest.raises(InputError):
            Certificate(verdict="feasible")
        with pytest.raises(InputError):
            Certificate(verdict="infeasible", violator=frozenset({"a"}))
        with pytest.raises(InputError):
            Certificate(verdict="maybe")


class TestCouplings:
    def test_marginals_of_dirac_pair(self, chain2):
        omega = coupling(chain2.events, {("a", "b"): 1})
        first, second = marginals(omega)
        assert first.weights == dirac(chain2.events, "a").weights
        assert second.weights == dirac(chain2.events, "b").weights

    def test_marginals_of_half_shift(self, chain3):
        omega = coupling(chain3.events, {("a", "b"): "1/2", ("b", "c"): "1/2"})
        first, second = marginals(omega)
        assert first.weights == measure(chain3.events, {"a": "1/2", "b": "1/2"}).weights
        assert second.weights == measure(chain3.events, {"b": "1/2", "c": "1/2"}).weights

    def test_product_coupling_marginals(self, chain3):
        mu = measure(chain3.events, {"a": "1/3", "b": "2/3"})
        nu = measure(chain3.events, {"b": "1/4", "c": "3/4"})
        first, second = marginals(product_coupling(mu, nu))
        assert first.weights == mu.weights
        assert second.weights == nu.weights

    def test_declared_marginals_checked(self, chain2):
        with pytest.raises(InputError, match="^first marginal does not match the declared measure$"):
            coupling(
                chain2.events,
                {("a", "b"): 1},
                mu=dirac(chain2.events, "b"),
            )
        with pytest.raises(InputError, match="^second marginal does not match the declared measure$"):
            coupling(chain2.events, {("a", "b"): 1}, mu=dirac(chain2.events, "a"), nu=dirac(chain2.events, "a"))
        half = measure(chain2.events, {"a": "2/4", "b": "1/2"})
        omega = coupling(chain2.events, {("a", "a"): "1/2", ("a", "b"): "1/4", ("b", "b"): "1/4"}, nu=half)
        assert marginals(omega)[1].weights == half.weights

    def test_mass_must_be_one(self, chain2):
        with pytest.raises(InputError, match="1/2"):
            Coupling(events=chain2.events, entries=((0, 1, Fraction(1, 2)),))

    def test_duplicate_and_negative_entries_rejected(self, chain2):
        with pytest.raises(InputError):
            Coupling(
                events=chain2.events,
                entries=((0, 1, Fraction(1, 2)), (0, 1, Fraction(1, 2))),
            )
        with pytest.raises(InputError):
            coupling(chain2.events, {("a", "b"): "3/2", ("b", "a"): "-1/2"})

    def test_weights_are_read_as_rationals(self, chain2):
        omega = Coupling(events=chain2.events, entries=((0, 1, 0.5), (0, 0, 0.5)))
        assert omega.entries == ((0, 0, Fraction(1, 2)), (0, 1, Fraction(1, 2)))
        assert all(type(w) is Fraction for _, _, w in omega.entries)
        with pytest.raises(InputError):
            Coupling(events=chain2.events, entries=((0, 1, True),))

    def test_indices_must_be_integers(self, chain2):
        for entry in ((0.0, 1, Fraction(1)), (0, True, Fraction(1))):
            with pytest.raises(InputError):
                Coupling(events=chain2.events, entries=(entry,))

    def test_identity_coupling_verifies(self, chain3):
        mu = measure(chain3.events, {"a": "1/3", "c": "2/3"})
        assert verify_coupling(chain3, identity_coupling(mu), mu, mu)

    def test_backward_dirac_fails_verification(self, chain2):
        omega = coupling(chain2.events, {("b", "a"): 1})
        assert not verify_coupling(chain2, omega, dirac(chain2.events, "b"), dirac(chain2.events, "a"))

    def test_wrong_marginals_fail_verification(self, chain2):
        omega = coupling(chain2.events, {("a", "b"): 1})
        assert not verify_coupling(chain2, omega, dirac(chain2.events, "b"), dirac(chain2.events, "b"))


class TestCompose:
    def test_dirac_chain(self, chain3):
        ab = coupling(chain3.events, {("a", "b"): 1})
        bc = coupling(chain3.events, {("b", "c"): 1})
        glued = compose_couplings(ab, bc)
        assert glued.entries == ((0, 2, Fraction(1)),)

    def test_identity_is_neutral(self, chain3):
        omega = coupling(chain3.events, {("a", "b"): "1/2", ("b", "c"): "1/2"})
        left = marginals(omega)[0]
        assert compose_couplings(identity_coupling(left), omega).entries == omega.entries

    def test_marginal_mismatch(self, chain3):
        ab = coupling(chain3.events, {("a", "b"): 1})
        with pytest.raises(InputError):
            compose_couplings(ab, ab)

    def test_glued_random_couplings_stay_causal(self):
        from kcausal import random_forward_push

        rng = random.Random(31)
        for _ in range(25):
            space = random_dag_space(n=rng.randint(2, 6), edge_prob=0.5, seed=rng.randrange(2**32))
            mu = random_measure(rng, space.events)
            nu, omega1 = random_forward_push(rng, space, mu)
            rho, omega2 = random_forward_push(rng, space, nu)
            glued = compose_couplings(omega1, omega2)
            assert verify_coupling(space, glued, mu, rho)


class TestMix:
    def test_support_union(self, chain3):
        one = coupling(chain3.events, {("a", "b"): 1})
        two = coupling(chain3.events, {("b", "c"): 1})
        mixed = mix_couplings("1/2", one, two)
        assert mixed.entries == ((0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2)))

    def test_mix_of_causal_couplings_verifies(self, chain3):
        # the convexity step behind interpolation trials
        mu1 = dirac(chain3.events, "a")
        nu1 = dirac(chain3.events, "b")
        omega1 = decide_k_causal(chain3, mu1, nu1).witness
        mu2 = dirac(chain3.events, "b")
        omega2 = identity_coupling(mu2)
        from kcausal import convex_combination

        mixed = mix_couplings("1/2", omega1, omega2)
        assert verify_coupling(
            chain3,
            mixed,
            convex_combination("1/2", mu1, mu2),
            convex_combination("1/2", nu1, mu2),
        )

    def test_coefficient_range(self, chain3):
        omega = identity_coupling(uniform_measure(chain3.events))
        with pytest.raises(InputError):
            mix_couplings(2, omega, omega)


class TestSubsetConditions:
    def test_fixture_verdicts(self, chain3, diamond):
        mu = measure(chain3.events, {"a": "1/2", "b": "1/2"})
        nu = measure(chain3.events, {"b": "1/2", "c": "1/2"})
        assert condition2_check(chain3, mu, nu)
        assert condition3_check(chain3, mu, nu)
        bad_mu = measure(diamond.events, {"b": "1/2", "c": "1/2"})
        bad_nu = measure(diamond.events, {"a": "1/2", "d": "1/2"})
        assert not condition2_check(diamond, bad_mu, bad_nu)
        assert not condition3_check(diamond, bad_mu, bad_nu)

    def test_agree_with_decision(self):
        rng = random.Random(57)
        for _ in range(30):
            space = random_dag_space(n=rng.randint(1, 6), edge_prob=0.45, seed=rng.randrange(2**32))
            mu = random_measure(rng, space.events)
            nu = random_measure(rng, space.events)
            verdict = decide_k_causal(space, mu, nu).feasible
            assert condition2_check(space, mu, nu) == verdict
            assert condition3_check(space, mu, nu) == verdict

    def test_bound(self):
        space = explicit_space([f"e{i}" for i in range(21)], [])
        mu = uniform_measure(space.events)
        with pytest.raises(BoundExceededError):
            condition2_check(space, mu, mu)
        with pytest.raises(BoundExceededError):
            condition3_check(space, mu, mu)


class TestJson:
    def test_coupling_round_trip(self, chain3):
        omega = coupling(chain3.events, {("a", "b"): "1/2", ("b", "c"): "1/2"})
        obj = coupling_to_jsonable(omega)
        assert obj == {"pairs": [["a", "b", "1/2"], ["b", "c", "1/2"]]}
        assert coupling_from_jsonable(obj, chain3.events).entries == omega.entries

    def test_coupling_labels_must_be_json_strings(self):
        events = EventSet(["1", "b", "None"])
        for cause in (1, None):
            with pytest.raises(InputError, match="list of strings"):
                coupling_from_jsonable({"pairs": [[cause, "b", "1"]]}, events)

    @pytest.mark.parametrize(
        "pairs",
        [
            [["a", "b", "-1/2"], ["a", "b", "3/2"]],
            [["a", "b", "1/2"], ["a", "b", "-1/2"], ["a", "a", "1"]],
        ],
    )
    def test_negative_entries_are_refused_before_they_are_summed(self, chain2, pairs):
        with pytest.raises(InputError, match=r"coupling entry \(0, 1\) must carry positive weight"):
            coupling_from_jsonable({"pairs": pairs}, chain2.events)

    def test_nonnegative_entries_on_one_pair_are_summed(self, chain2):
        obj = {"pairs": [["a", "b", "1/4"], ["b", "b", "1/2"], ["a", "a", "0"], ["a", "b", "1/4"]]}
        entries = coupling_from_jsonable(obj, chain2.events).entries
        assert entries == ((0, 1, Fraction(1, 2)), (1, 1, Fraction(1, 2)))

    def test_feasible_certificate_shape(self, chain2):
        cert = decide_k_causal(chain2, dirac(chain2.events, "a"), dirac(chain2.events, "b"))
        assert certificate_to_jsonable(cert) == {
            "verdict": "feasible",
            "witness": {"pairs": [["a", "b", "1"]]},
        }

    def test_infeasible_certificate_shape(self, diamond):
        mu = measure(diamond.events, {"b": "1/2", "c": "1/2"})
        nu = measure(diamond.events, {"a": "1/2", "d": "1/2"})
        cert = decide_k_causal(diamond, mu, nu)
        assert certificate_to_jsonable(cert) == {
            "verdict": "infeasible",
            "violator": ["b", "c"],
            "mu_B": "1",
            "nu_KplusB": "1/2",
        }

    def test_malformed_coupling_rejected(self, chain2):
        with pytest.raises(InputError):
            coupling_from_jsonable({"pairs": [["a", "b"]]}, chain2.events)
        with pytest.raises(InputError):
            coupling_from_jsonable({}, chain2.events)
