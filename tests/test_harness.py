"""Property-trial harness: configuration, named trials, and suite runs."""

from __future__ import annotations

import json
import random

import pytest

from kcausal import cli, harness
from kcausal import (
    SUITES,
    InputError,
    TrialConfig,
    TrialReport,
    chain_violations,
    closedness_trial,
    decide_k_causal,
    dirac,
    implication_chain_trial,
    measure,
    measure_from_jsonable,
    random_feasible_pair,
    random_forward_push,
    random_measure,
    random_space,
    report_to_jsonable,
    run_suite,
    space_from_jsonable,
    uniform_measure,
    verify_coupling,
)


class TestTrialConfig:
    def test_defaults(self):
        config = TrialConfig()
        assert config.suites == SUITES
        assert config.trials == 200
        assert config.max_events == 7

    def test_unknown_suite(self):
        with pytest.raises(InputError, match="unknown suite"):
            TrialConfig(suites=("prop2-closedness", "nonsense"))

    def test_suites_normalized_to_canonical_order(self):
        config = TrialConfig(suites=("minguzzi", "lemma6", "thm3-chain"))
        assert config.suites == ("thm3-chain", "lemma6", "minguzzi")

    def test_empty_suites(self):
        with pytest.raises(InputError):
            TrialConfig(suites=())

    def test_trials_positive(self):
        with pytest.raises(InputError):
            TrialConfig(trials=0)

    def test_seed_range(self):
        with pytest.raises(InputError):
            TrialConfig(seed=-1)
        with pytest.raises(InputError):
            TrialConfig(seed=2**64)
        TrialConfig(seed=2**64 - 1)

    def test_enumeration_suites_cap_size_harder(self):
        TrialConfig(suites=("lemma6",), max_events=20)
        TrialConfig(suites=("minguzzi",), max_events=8)
        with pytest.raises(InputError, match="caps max_events"):
            TrialConfig(suites=("minguzzi",), max_events=9)
        with pytest.raises(InputError, match="caps max_events"):
            TrialConfig(suites=("lemma6",), max_events=21)
        with pytest.raises(InputError):
            TrialConfig(max_events=0)


class TestTrialReport:
    def test_counts_must_add_up(self):
        config = TrialConfig(suites=("lemma6",), trials=10)
        with pytest.raises(InputError):
            TrialReport(config=config, counts=(("lemma6", 3, 2),), failures=())

    def test_ok_and_total(self):
        config = TrialConfig(suites=("lemma6", "minguzzi"), trials=4)
        report = TrialReport(
            config=config,
            counts=(("lemma6", 4, 0), ("minguzzi", 3, 1)),
            failures=({"suite": "minguzzi", "trial": 2},),
        )
        assert not report.ok
        assert report.total_failed == 1

    def test_jsonable_shape(self):
        config = TrialConfig(suites=("lemma6",), trials=2, seed=9, max_events=5)
        report = TrialReport(config=config, counts=(("lemma6", 2, 0),), failures=())
        assert report_to_jsonable(report) == {
            "config": {
                "suites": ["lemma6"],
                "trials": 2,
                "seed": 9,
                "max_events": 5,
            },
            "suites": [{"suite": "lemma6", "passed": 2, "failed": 0}],
            "failures": [],
        }


class TestGenerators:
    def test_random_space_respects_bound(self):
        rng = random.Random(1)
        for _ in range(30):
            space = random_space(rng, 7)
            assert 2 <= space.n <= 7

    def test_random_measure_is_a_grid_composition(self):
        rng = random.Random(2)
        space = random_space(rng, 6)
        for _ in range(20):
            mu = random_measure(rng, space.events)
            assert sum(mu.weights) == 1
            assert all(w.denominator in (1, 2, 3, 4, 6, 8, 12, 24) for w in mu.weights)

    def test_forward_push_builds_verified_feasible_pairs(self):
        rng = random.Random(3)
        for _ in range(30):
            space = random_space(rng, 7)
            mu = random_measure(rng, space.events)
            nu, omega = random_forward_push(rng, space, mu)
            assert verify_coupling(space, omega, mu, nu)
            assert decide_k_causal(space, mu, nu).feasible

    def test_feasible_pair_helper(self):
        rng = random.Random(4)
        space = random_space(rng, 6)
        mu, nu, omega = random_feasible_pair(rng, space)
        assert verify_coupling(space, omega, mu, nu)


class TestClosednessTrial:
    def test_identity_endpoints(self, chain2):
        mu = dirac(chain2.events, "a")
        assert closedness_trial(chain2, mu, mu, mu, mu)

    def test_dirac_interpolation(self, chain2):
        mu = dirac(chain2.events, "a")
        nu = dirac(chain2.events, "b")
        assert closedness_trial(chain2, mu, nu, mu, mu, steps=10)

    def test_randomized_instance(self):
        rng = random.Random(7)
        space = random_space(rng, 7)
        mu, nu, _ = random_feasible_pair(rng, space)
        mu_p, nu_p, _ = random_feasible_pair(rng, space)
        assert closedness_trial(space, mu, nu, mu_p, nu_p)

    def test_requires_feasible_endpoints(self, chain2):
        mu = dirac(chain2.events, "b")
        nu = dirac(chain2.events, "a")
        with pytest.raises(InputError, match="feasible endpoint"):
            closedness_trial(chain2, mu, nu, nu, mu)

    def test_steps_positive(self, chain2):
        mu = dirac(chain2.events, "a")
        with pytest.raises(InputError):
            closedness_trial(chain2, mu, mu, mu, mu, steps=0)


class TestImplicationChainTrial:
    def test_feasible_instance_passes_everywhere(self, chain3):
        mu = measure(chain3.events, {"a": "1/2", "b": "1/2"})
        nu = measure(chain3.events, {"b": "1/2", "c": "1/2"})
        verdicts = implication_chain_trial(chain3, mu, nu)
        assert verdicts == {"c1": True, "c2": True, "c3": True, "c4": True, "c5": True}
        assert chain_violations(verdicts) == []

    def test_infeasible_instance_fails_everywhere(self, diamond):
        mu = measure(diamond.events, {"b": "1/2", "c": "1/2"})
        nu = measure(diamond.events, {"a": "1/2", "d": "1/2"})
        verdicts = implication_chain_trial(diamond, mu, nu)
        assert verdicts == {"c1": False, "c2": False, "c3": False, "c4": False, "c5": False}
        assert chain_violations(verdicts) == []

    def test_equal_measures(self, diamond):
        mu = uniform_measure(diamond.events)
        verdicts = implication_chain_trial(diamond, mu, mu)
        assert all(verdicts.values())

    def test_cycle_leaves_time_conditions_undefined(self, cyclic2):
        mu = dirac(cyclic2.events, "a")
        nu = dirac(cyclic2.events, "b")
        verdicts = implication_chain_trial(cyclic2, mu, nu)
        assert verdicts["c1"] is True
        assert verdicts["c4"] is None and verdicts["c5"] is None
        assert chain_violations(verdicts) == []


class TestChainViolations:
    def test_clean_vectors(self):
        assert chain_violations({"c1": True, "c2": True, "c3": True, "c4": True, "c5": True}) == []
        assert (
            chain_violations({"c1": False, "c2": False, "c3": False, "c4": None, "c5": None}) == []
        )

    def test_each_link(self):
        base = {"c1": True, "c2": True, "c3": True, "c4": True, "c5": True}
        assert chain_violations({**base, "c1": False}) == ["1eq2"]
        assert chain_violations({**base, "c3": False}) == ["2eq3"]
        assert chain_violations({**base, "c4": False}) == ["3to4"]
        assert chain_violations({**base, "c5": False}) == ["4to5"]
        broken = {"c1": False, "c2": False, "c3": False, "c4": False, "c5": True}
        assert chain_violations(broken) == ["5to2"]

    def test_false_c4_without_c3_is_not_a_violation(self):
        verdicts = {"c1": False, "c2": False, "c3": False, "c4": False, "c5": False}
        assert chain_violations(verdicts) == []


class TestRunSuite:
    def test_small_run_is_green(self):
        config = TrialConfig(trials=5, seed=11)
        report = run_suite(config)
        assert report.ok
        assert [s for s, _, _ in report.counts] == list(SUITES)
        assert all(passed == 5 and failed == 0 for _, passed, failed in report.counts)
        assert report.failures == ()

    def test_reproducible_reports(self):
        config = TrialConfig(suites=("thm4-oracle", "lemma6"), trials=8, seed=21)
        one = report_to_jsonable(run_suite(config))
        two = report_to_jsonable(run_suite(config))
        assert one == two

    def test_suite_subset_runs_only_requested(self):
        config = TrialConfig(suites=("prop2-transitivity",), trials=3, seed=5)
        report = run_suite(config)
        assert [s for s, _, _ in report.counts] == ["prop2-transitivity"]

    def test_different_seeds_still_green(self):
        for seed in (1, 2, 3):
            report = run_suite(TrialConfig(trials=3, seed=seed))
            assert report.ok, report.failures


class TestFailingTrial:
    """A failing trial is reported with a bundle that replays it."""

    # (suite, harness fact forced false, the fields the suite's runner adds)
    CASES = [
        ("lemma6", "lemma_complement_check", {"subset"}),
        ("prop2-transitivity", "verify_coupling", {"mu", "nu", "rho"}),
    ]

    @pytest.mark.parametrize("suite, fact, fields", CASES)
    def test_bundle_rebuilds_the_trial(self, monkeypatch, suite, fact, fields):
        monkeypatch.setattr(harness, fact, lambda *args: False)
        config = TrialConfig(suites=(suite,), trials=3, seed=9)
        report = run_suite(config)
        assert report.counts == ((suite, 0, 3),)
        assert not report.ok
        json.dumps(report_to_jsonable(report))
        for trial, failure in enumerate(report.failures):
            assert set(failure) == {"suite", "trial", "seed", "space"} | fields
            assert (failure["suite"], failure["trial"], failure["seed"]) == (suite, trial, 9)
            # Each trial draws its space first from its own seeded stream.
            drawn = random_space(random.Random(f"9:{suite}:{trial}"), config.max_events)
            rebuilt = space_from_jsonable(failure["space"])
            assert rebuilt.events.labels == drawn.events.labels
            assert rebuilt.raw.rows == drawn.raw.rows
            for name in fields - {"subset"}:
                measure_from_jsonable(failure[name], rebuilt.events)

    @pytest.mark.parametrize("suite, fact, fields", CASES)
    def test_verify_exits_one(self, monkeypatch, tmp_path, capsys, suite, fact, fields):
        monkeypatch.setattr(harness, fact, lambda *args: False)
        report = tmp_path / "report.json"
        assert cli.main(["verify", "--suite", suite, "--trials", "2", "--report", str(report)]) == 1
        assert f"{suite}: 0 passed, 2 failed" in capsys.readouterr().out
        assert len(json.loads(report.read_text(encoding="utf-8"))["failures"]) == 2
