"""End-to-end command-line tests via subprocess."""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kcausal import (
    coupling_from_jsonable,
    enumerate_time_functions,
    enumerate_upsets,
    explicit_space,
    measure_from_jsonable,
    random_feasible_pair,
    random_dag_space,
    random_measure,
    random_space,
    space_from_jsonable,
    space_to_jsonable,
    timefn_to_jsonable,
    verify_coupling,
)
from kcausal.measures import format_rational
from kcausal.structure import GENERATOR_EVENT_BOUND, MASK_BLOCK, iter_bits
from kcausal.timefunctions import _sampled_timefns

CHAIN2 = {"events": ["a", "b"], "relation": {"kind": "explicit", "pairs": [["a", "b"]]}}
CHAIN3 = {
    "events": ["a", "b", "c"],
    "relation": {"kind": "explicit", "pairs": [["a", "b"], ["b", "c"]]},
}
DIAMOND = {
    "events": ["a", "b", "c", "d"],
    "relation": {
        "kind": "explicit",
        "pairs": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]],
    },
}
CYCLE = {"events": ["a", "b"], "relation": {"kind": "explicit", "pairs": [["a", "b"], ["b", "a"]]}}

DIRAC_A = {"weights": {"a": "1"}}
DIRAC_B = {"weights": {"b": "1"}}


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "kcausal", *args],
        capture_output=True,
        text=True,
    )


def write(tmp_path, name: str, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestCheck:
    def test_feasible_pair(self, tmp_path):
        space = write(tmp_path, "space.json", CHAIN2)
        mu = write(tmp_path, "mu.json", DIRAC_A)
        nu = write(tmp_path, "nu.json", DIRAC_B)
        witness = tmp_path / "witness.json"
        cert = tmp_path / "cert.json"
        result = run_cli(
            "check", space, mu, nu, "--witness", str(witness), "--certificate", str(cert)
        )
        assert result.returncode == 0
        assert result.stdout == "feasible\n"
        assert json.loads(witness.read_text()) == {"pairs": [["a", "b", "1"]]}
        assert json.loads(cert.read_text())["verdict"] == "feasible"

    def test_infeasible_pair(self, tmp_path):
        space = write(tmp_path, "space.json", CHAIN2)
        mu = write(tmp_path, "mu.json", DIRAC_B)
        nu = write(tmp_path, "nu.json", DIRAC_A)
        witness = tmp_path / "witness.json"
        cert = tmp_path / "cert.json"
        result = run_cli(
            "check", space, mu, nu, "--witness", str(witness), "--certificate", str(cert)
        )
        assert result.returncode == 1
        assert result.stdout == "infeasible\n"
        assert not witness.exists()
        assert json.loads(cert.read_text()) == {
            "verdict": "infeasible",
            "violator": ["b"],
            "mu_B": "1",
            "nu_KplusB": "0",
        }

    def test_oracle_cross_check(self, tmp_path):
        space = write(tmp_path, "space.json", DIAMOND)
        mu = write(tmp_path, "mu.json", {"weights": {"b": "1/2", "c": "1/2"}})
        nu = write(tmp_path, "nu.json", {"weights": {"a": "1/2", "d": "1/2"}})
        result = run_cli("check", space, mu, nu, "--oracle")
        assert result.returncode == 1
        assert result.stdout == "infeasible\n"
        assert result.stderr == ""

    def test_unnormalized_measure(self, tmp_path):
        space = write(tmp_path, "space.json", CHAIN2)
        mu = write(tmp_path, "mu.json", {"weights": {"a": "1/3"}})
        nu = write(tmp_path, "nu.json", DIRAC_B)
        result = run_cli("check", space, mu, nu)
        assert result.returncode == 2
        assert "weights sum to 1/3" in result.stderr

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        space = write(tmp_path, "space.json", CHAIN2)
        nu = write(tmp_path, "nu.json", DIRAC_B)
        result = run_cli("check", str(bad), str(bad), nu)
        assert result.returncode == 2
        assert result.stderr.startswith("error:")
        result = run_cli("check", space, str(bad), nu)
        assert result.returncode == 2

    def test_missing_file(self, tmp_path):
        result = run_cli("check", str(tmp_path / "nope.json"), "x", "y")
        assert result.returncode == 2

    def test_unknown_event_in_measure(self, tmp_path):
        space = write(tmp_path, "space.json", CHAIN2)
        mu = write(tmp_path, "mu.json", {"weights": {"z": "1"}})
        nu = write(tmp_path, "nu.json", DIRAC_B)
        result = run_cli("check", space, mu, nu)
        assert result.returncode == 2


class TestClosure:
    def test_chain_closure(self, tmp_path):
        space = write(tmp_path, "space.json", CHAIN3)
        result = run_cli("closure", space)
        assert result.returncode == 0
        assert json.loads(result.stdout) == {
            "events": ["a", "b", "c"],
            "relation": {
                "kind": "explicit",
                "pairs": [
                    ["a", "a"],
                    ["a", "b"],
                    ["a", "c"],
                    ["b", "b"],
                    ["b", "c"],
                    ["c", "c"],
                ],
            },
        }

    def test_idempotent_round_trip(self, tmp_path):
        space = write(tmp_path, "space.json", DIAMOND)
        first = run_cli("closure", space)
        again = write(tmp_path, "closed.json", json.loads(first.stdout))
        second = run_cli("closure", again)
        assert second.returncode == 0
        assert second.stdout == first.stdout

    def test_byte_determinism(self, tmp_path):
        space = write(tmp_path, "space.json", DIAMOND)
        assert run_cli("closure", space).stdout == run_cli("closure", space).stdout


class TestUpsets:
    def test_diamond_upsets_canonical_order(self, tmp_path):
        space = write(tmp_path, "space.json", DIAMOND)
        result = run_cli("upsets", space)
        assert result.returncode == 0
        assert json.loads(result.stdout) == {
            "upsets": [
                [],
                ["d"],
                ["b", "d"],
                ["c", "d"],
                ["b", "c", "d"],
                ["a", "b", "c", "d"],
            ]
        }

    def test_size_bound(self, tmp_path):
        space = write(tmp_path, "space.json", DIAMOND)
        result = run_cli("upsets", space, "--max-events", "3")
        assert result.returncode == 2
        assert result.stdout == ""
        # ``_SubsetTables`` refuses as it is built, before anything is written, so no output file is created.
        antichain = {"events": ["a", "b", "c"], "relation": {"kind": "explicit", "pairs": []}}
        antichain = write(tmp_path, "antichain.json", antichain)
        out = tmp_path / "upsets.json"
        for path, n, bound in ((space, 4, 3), (antichain, 3, 2)):
            result = run_cli("upsets", path, "--max-events", str(bound), "--out", str(out))
            assert result.returncode == 2
            assert result.stdout == ""
            assert f"up-set enumeration refuses n={n} events (bound {bound})" in result.stderr
            assert not out.exists()


class TestTimefn:
    def test_enumerate_chain(self, tmp_path):
        space = write(tmp_path, "space.json", CHAIN3)
        result = run_cli("timefn", space, "--enumerate")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"values": {"a": "0", "b": "1", "c": "2"}}

    def test_enumerate_diamond(self, tmp_path):
        space = write(tmp_path, "space.json", DIAMOND)
        result = run_cli("timefn", space, "--enumerate")
        assert len(result.stdout.splitlines()) == 2

    def test_sampling_is_seed_deterministic(self, tmp_path):
        space = write(tmp_path, "space.json", DIAMOND)
        one = run_cli("timefn", space, "--sample", "3", "--seed", "5")
        two = run_cli("timefn", space, "--sample", "3", "--seed", "5")
        assert one.returncode == 0
        assert len(one.stdout.splitlines()) == 3
        assert one.stdout == two.stdout

    def test_sample_requires_seed(self, tmp_path):
        space = write(tmp_path, "space.json", DIAMOND)
        result = run_cli("timefn", space, "--sample", "3")
        assert result.returncode == 2
        assert "--seed" in result.stderr

    def test_sample_count_positive(self, tmp_path):
        space = write(tmp_path, "space.json", DIAMOND)
        assert run_cli("timefn", space, "--sample", "0", "--seed", "1").returncode == 2

    def test_bad_count_is_reported_before_a_missing_seed(self, tmp_path):
        space = write(tmp_path, "space.json", DIAMOND)
        result = run_cli("timefn", space, "--sample", "0")
        assert result.returncode == 2
        assert "sample count" in result.stderr

    def test_seed_outside_the_unsigned_64_bit_range_exits_two(self, tmp_path):
        # random.Random(-7) draws what random.Random(7) draws; the range check keeps
        # one seed per sample sequence.
        space = write(tmp_path, "space.json", DIAMOND)
        for seed in ("-7", str(2**64)):
            result = run_cli("timefn", space, "--sample", "1", "--seed", seed)
            assert result.returncode == 2
            assert result.stderr == f"error: seed must be an unsigned 64-bit integer, got {seed}\n"

    def test_cycle_exits_one_naming_the_pair(self, tmp_path):
        space = write(tmp_path, "space.json", CYCLE)
        result = run_cli("timefn", space, "--enumerate")
        assert result.returncode == 1
        assert "not stably causal" in result.stderr
        assert "'a'" in result.stderr and "'b'" in result.stderr

    def test_failed_commands_create_no_file(self, tmp_path):
        # The writer computes the first line before it opens --out: sampling a cyclic space fails there,
        # and the enumeration bound is checked before anything is written.
        out = tmp_path / "timefns.jsonl"
        cycle = write(tmp_path, "cycle.json", CYCLE)
        result = run_cli("timefn", cycle, "--sample", "1", "--seed", "0", "--out", str(out))
        assert result.returncode == 1
        assert not out.exists()
        antichain = {"events": ["a", "b", "c"], "relation": {"kind": "explicit", "pairs": []}}
        antichain = write(tmp_path, "antichain.json", antichain)
        result = run_cli("timefn", antichain, "--enumerate", "--max-events", "2", "--out", str(out))
        assert result.returncode == 2
        assert not out.exists()


class TestGenerate:
    def test_random_dag_recipe(self, tmp_path):
        spec = write(tmp_path, "spec.json", {"kind": "random-dag", "n": 5, "p": 0.5, "seed": 11})
        result = run_cli("generate", spec)
        assert result.returncode == 0
        obj = json.loads(result.stdout)
        assert obj["events"] == ["e0", "e1", "e2", "e3", "e4"]
        assert run_cli("generate", spec).stdout == result.stdout

    def test_closure_relation_flag(self, tmp_path):
        spec = write(tmp_path, "spec.json", {"kind": "random-dag", "n": 4, "p": 0.7, "seed": 2})
        raw = json.loads(run_cli("generate", spec).stdout)
        closed = json.loads(run_cli("generate", spec, "--relation", "kplus").stdout)
        raw_pairs = {tuple(p) for p in raw["relation"]["pairs"]}
        closed_pairs = {tuple(p) for p in closed["relation"]["pairs"]}
        assert raw_pairs <= closed_pairs
        assert {(e, e) for e in closed["events"]} <= closed_pairs

    def test_sprinkle_recipe(self, tmp_path):
        spec = write(
            tmp_path,
            "spec.json",
            {"kind": "sprinkle", "n": 6, "dim": 2, "box": [[0, 1], [-1, 1]], "seed": 3},
        )
        result = run_cli("generate", spec)
        assert result.returncode == 0
        assert len(json.loads(result.stdout)["events"]) == 6

    def test_unknown_kind(self, tmp_path):
        spec = write(tmp_path, "spec.json", {"kind": "torus", "n": 3})
        assert run_cli("generate", spec).returncode == 2

    def test_loose_recipes_exit_two_with_one_line(self, tmp_path):
        # Each of these used to run as a nearby valid recipe (seed 7, n 6, label "1").
        for recipe in (
            {"kind": "random-dag", "n": 6, "p": 0.4, "seed": 7.9},
            {"kind": "random-dag", "n": 6.5, "p": 0.4, "seed": 7},
            {"kind": "random-dag", "n": 6, "p": 0.4, "seed": "7"},
            {"kind": "random-dag", "n": True, "p": 0.4, "seed": 7},
            {"events": ["a", 1], "relation": {"kind": "explicit", "pairs": []}},
        ):
            result = run_cli("generate", write(tmp_path, "spec.json", recipe))
            assert result.returncode == 2, recipe
            assert result.stderr.count("\n") == 1, result.stderr
            assert "Traceback" not in result.stderr

    def test_recipes_too_big_to_build_exit_two_with_one_line(self, tmp_path):
        # Under its own 1 GiB address-space limit: without the bound, each of these builds
        # labels until MemoryError (exit 3) rather than taking the machine's memory.
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        for n in (GENERATOR_EVENT_BOUND + 1, 10**11, 2**64):
            for recipe in (
                {"kind": "random-dag", "n": n, "p": 0.5, "seed": 0},
                {"kind": "sprinkle", "n": n, "dim": 2, "box": [[0, 1], [-1, 1]], "seed": 0},
            ):
                result = subprocess.run(
                    [sys.executable, "-m", "kcausal", "generate", write(tmp_path, "spec.json", recipe)],
                    capture_output=True,
                    text=True,
                    env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                    preexec_fn=limit,
                )
                assert result.returncode == 2, recipe
                assert result.stderr == f"error: event count must be at most {GENERATOR_EVENT_BOUND}, got {n}\n"


class TestVerify:
    def test_single_suite(self, tmp_path):
        report = tmp_path / "report.json"
        result = run_cli(
            "verify", "--suite", "lemma6", "--trials", "3", "--report", str(report)
        )
        assert result.returncode == 0
        assert "lemma6: 3 passed, 0 failed" in result.stdout
        obj = json.loads(report.read_text())
        assert obj["config"]["trials"] == 3
        assert obj["suites"] == [{"suite": "lemma6", "passed": 3, "failed": 0}]
        assert obj["failures"] == []

    def test_comma_separated_suites(self, tmp_path):
        result = run_cli(
            "verify",
            "--suite",
            "minguzzi,prop2-transitivity",
            "--trials",
            "2",
            "--report",
            str(tmp_path / "r.json"),
        )
        assert result.returncode == 0
        assert result.stdout.splitlines() == [
            "prop2-transitivity: 2 passed, 0 failed",
            "minguzzi: 2 passed, 0 failed",
        ]

    def test_unknown_suite(self):
        result = run_cli("verify", "--suite", "bogus", "--trials", "1")
        assert result.returncode == 2
        assert "unknown suite" in result.stderr


class TestUsage:
    def test_no_subcommand(self):
        assert run_cli().returncode == 2

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2


class TestMalformedJson:
    def test_explicit_spec_with_scalar_events(self, tmp_path):
        space = write(tmp_path, "space.json", {"kind": "explicit", "events": 5, "pairs": []})
        mu = write(tmp_path, "mu.json", DIRAC_A)
        result = run_cli("check", space, mu, mu)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    def test_minkowski_spec_with_scalar_points(self, tmp_path):
        space = write(tmp_path, "space.json", {"kind": "minkowski", "points": [5, 6]})
        mu = write(tmp_path, "mu.json", DIRAC_A)
        result = run_cli("check", space, mu, mu)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    def test_minkowski_spec_with_mixed_or_one_dimensional_points(self, tmp_path):
        for points in ([[0, 0], [1, 1, 1]], [[0], [1]]):
            space = write(tmp_path, "space.json", {"kind": "minkowski", "points": points})
            result = run_cli("closure", space)
            assert result.returncode == 2
            assert result.stderr.count("\n") == 1
            assert "dimension" in result.stderr

    def test_weight_overflowing_a_float(self, tmp_path):
        space = write(tmp_path, "space.json", CHAIN2)
        mu = tmp_path / "mu.json"
        mu.write_text('{"weights": {"a": 1e400}}', encoding="utf-8")
        result = run_cli("check", space, str(mu), str(mu))
        assert result.returncode == 2
        assert "not a valid rational" in result.stderr

    def test_integer_past_the_digit_limit(self, tmp_path):
        space = write(tmp_path, "space.json", CHAIN2)
        mu = tmp_path / "mu.json"
        mu.write_text('{"weights": {"a": 1%s}}' % ("0" * 5000), encoding="utf-8")
        result = run_cli("check", space, str(mu), str(mu))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    def test_deeply_nested_json(self, tmp_path):
        space = tmp_path / "space.json"
        space.write_text("[" * 100000, encoding="utf-8")
        result = run_cli("closure", str(space))
        assert result.returncode == 2
        assert "nested too deeply" in result.stderr
        assert "Traceback" not in result.stderr


class TestRationalTooLongToPrint:
    def test_certificate_mass_past_the_digit_limit_exits_two(self, tmp_path):
        # Every weight parses, but the violator's mu_B = 10**-4000 + 3**-8000
        # has a 7818-digit denominator, past the default limit of 4300.
        space = write(
            tmp_path,
            "space.json",
            {"events": ["a", "b", "c", "d", "e"], "relation": {"kind": "explicit", "pairs": []}},
        )
        tiny_a, tiny_b = Fraction(1, 10**4000), Fraction(1, 3**8000)
        weights = {"a": tiny_a, "b": tiny_b, "c": Fraction(1, 2) - tiny_a, "d": Fraction(1, 2) - tiny_b}
        mu = write(tmp_path, "mu.json", {"weights": {k: str(w) for k, w in weights.items()}})
        nu = write(tmp_path, "nu.json", {"weights": {"c": "1/2", "d": "1/2"}})
        cert = tmp_path / "cert.json"
        result = run_cli("check", space, mu, nu, "--certificate", str(cert))
        assert result.returncode == 2
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr
        assert "PYTHONINTMAXSTRDIGITS" in result.stderr
        assert not cert.exists()

    def test_measure_whose_sum_is_past_the_digit_limit_exits_two(self, tmp_path):
        space = write(tmp_path, "space.json", CHAIN2)
        weights = {"a": str(Fraction(1, 10**4000)), "b": str(Fraction(1, 3**4000))}
        mu = write(tmp_path, "mu.json", {"weights": weights})
        result = run_cli("check", space, mu, mu)
        assert result.returncode == 2
        assert result.stderr.count("\n") == 1
        assert "PYTHONINTMAXSTRDIGITS" in result.stderr


class TestInternalFailure:
    def test_assertion_exits_three(self, tmp_path, monkeypatch, capsys):
        from kcausal import cli

        def broken(*args):
            raise AssertionError("forced failure")

        monkeypatch.setattr(cli, "decide_k_causal", broken)
        space = write(tmp_path, "space.json", CHAIN2)
        mu = write(tmp_path, "mu.json", DIRAC_A)
        nu = write(tmp_path, "nu.json", DIRAC_B)
        assert cli.main(["check", space, mu, nu]) == 3
        err = capsys.readouterr().err
        assert "forced failure" in err
        assert "this is a bug" in err

    def test_unexpected_exception_exits_three(self, tmp_path, monkeypatch, capsys):
        from kcausal import cli

        def broken(*args):
            raise RuntimeError("stray failure")

        monkeypatch.setattr(cli, "decide_k_causal", broken)
        space = write(tmp_path, "space.json", CHAIN2)
        mu = write(tmp_path, "mu.json", DIRAC_A)
        nu = write(tmp_path, "nu.json", DIRAC_B)
        assert cli.main(["check", space, mu, nu]) == 3
        err = capsys.readouterr().err
        assert "stray failure" in err
        assert "this is a bug" in err


class TestArtifactsFeedBackIntoTheApi:
    def test_witness_file_verifies(self, tmp_path):
        space_path = write(tmp_path, "space.json", CHAIN3)
        mu_obj = {"weights": {"a": "1/2", "b": "1/2"}}
        nu_obj = {"weights": {"b": "1/2", "c": "1/2"}}
        mu_path = write(tmp_path, "mu.json", mu_obj)
        nu_path = write(tmp_path, "nu.json", nu_obj)
        witness = tmp_path / "witness.json"
        result = run_cli("check", space_path, mu_path, nu_path, "--witness", str(witness))
        assert result.returncode == 0
        space = space_from_jsonable(CHAIN3)
        mu = measure_from_jsonable(mu_obj, space.events)
        nu = measure_from_jsonable(nu_obj, space.events)
        omega = coupling_from_jsonable(json.loads(witness.read_text()), space.events)
        assert verify_coupling(space, omega, mu, nu)


def oracle_space_text(space, relation):
    """The ``closure``/``generate`` text as ``cli._emit_space`` built it before it
    yielded one piece per cause, kept as an oracle: an f-string per pair, one
    list of lines, one joined string.  The pairs come from one sort of the
    relation's label pairs, not from the code under test."""
    rows = space.raw.rows if relation == "raw" else space.kplus.rows
    labels = space.events.labels
    quoted = [json.dumps(label) for label in labels]
    ordered = sorted((labels[i], labels[j], i, j) for i, row in enumerate(rows) for j in iter_bits(row))
    pairs = [f"      [\n        {quoted[i]},\n        {quoted[j]}\n      ]" for _, _, i, j in ordered]
    lines = [
        "{",
        '  "events": [',
        ",\n".join(f"    {label}" for label in quoted),
        "  ],",
        '  "relation": {',
        '    "kind": "explicit",',
        '    "pairs": [' + ("\n" + ",\n".join(pairs) + "\n    ]" if pairs else "]"),
        "  }",
        "}",
    ]
    return "\n".join(lines) + "\n"


class TestPairWriter:
    """``closure`` and ``generate`` write the pair list a cause at a time; the bytes
    must equal ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` and the earlier
    one-string writer's (``oracle_space_text``)."""

    @staticmethod
    def dumped(space, relation):
        # The pair list as space_to_jsonable built it before it shared the
        # writer's label order: every pair, then one sort of the label pairs.
        rel = space.raw if relation == "raw" else space.kplus
        labels = space.events.labels
        pairs = sorted([labels[i], labels[j]] for i, row in enumerate(rel.rows) for j in iter_bits(row))
        obj = {"events": list(labels), "relation": {"kind": "explicit", "pairs": pairs}}
        assert space_to_jsonable(space, relation) == obj
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def assert_bytes_match(self, tmp_path, spec):
        from kcausal import cli

        path = write(tmp_path, "spec.json", spec)
        space = space_from_jsonable(spec)
        out = tmp_path / "out.json"
        runs = [
            (["closure", path], "kplus"),
            (["generate", path], "raw"),
            (["generate", path, "--relation", "raw"], "raw"),
            (["generate", path, "--relation", "kplus"], "kplus"),
        ]
        for argv, relation in runs:
            assert cli.main([*argv, "--out", str(out)]) == 0
            assert out.read_bytes() == self.dumped(space, relation).encode("utf-8"), argv
            assert out.read_bytes() == oracle_space_text(space, relation).encode("utf-8"), argv

    def test_acceptance_corpus(self, tmp_path):
        # The 200 spaces of tests/test_acceptance.py's corpus, drawn the same way.
        rng = random.Random(20260814)
        for _ in range(200):
            space = random_space(rng, 7)
            if rng.random() < 0.5:
                random_feasible_pair(rng, space)
            else:
                random_measure(rng, space.events)
                random_measure(rng, space.events)
            self.assert_bytes_match(tmp_path, space_to_jsonable(space))

    def test_acceptance_recipes(self, tmp_path):
        for spec in (
            CHAIN2,
            CHAIN3,
            DIAMOND,
            CYCLE,
            {"kind": "sprinkle", "n": 100, "dim": 2, "box": [[0, 1], [-1, 1]], "seed": 42},
            {"kind": "random-dag", "n": 40, "p": "1/10", "seed": 9},
        ):
            self.assert_bytes_match(tmp_path, spec)

    def test_one_event(self, tmp_path):
        self.assert_bytes_match(tmp_path, {"events": ["solo"], "relation": {"kind": "explicit", "pairs": []}})

    def test_empty_pair_list(self, tmp_path):
        # The raw relation has no pairs; its closure has only the diagonal.
        self.assert_bytes_match(tmp_path, {"events": ["a", "b", "c"], "relation": {"kind": "explicit", "pairs": []}})

    def test_label_order_differs_from_index_order(self, tmp_path):
        # Shuffled labels "b", "a1" .. "a299" ("a10" sorts before "a9") on more
        # events than one block of rows, so the emit's label sort is exercised.
        rng = random.Random(20261018)
        labels = ["b"] + [f"a{k}" for k in range(1, 300)]
        rng.shuffle(labels)
        space = random_dag_space(300, "1/100", 5, labels=labels)
        self.assert_bytes_match(tmp_path, space_to_jsonable(space))

    def test_labels_that_need_escaping(self, tmp_path):
        labels = ['quo"te', "back\\slash", "tab\there", "nul\x00bell\x07", "line\nbreak", "日本語", "é", "\U0001f600", "z"]
        pairs = [[labels[i], labels[(3 * i + 1) % len(labels)]] for i in range(len(labels))]
        self.assert_bytes_match(tmp_path, {"events": labels, "relation": {"kind": "explicit", "pairs": pairs}})

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 30),
        p=st.sampled_from(["0", "1/10", "1/4", "1/2", "4/5"]),
        seed=st.integers(0, 2**32 - 1),
        labels=st.permutations([f"v{k}" for k in range(31)]),
    )
    def test_random_dags_with_permuted_labels(self, tmp_path_factory, n, p, seed, labels):
        # Drawn from v0 .. v30, so "v10" can sort between "v1" and "v2".
        space = random_dag_space(n, p, seed, labels=labels[:n])
        self.assert_bytes_match(tmp_path_factory.mktemp("pairs"), space_to_jsonable(space))


def oracle_timefn_text(space, timefns):
    """The ``timefn`` text as ``cli._timefn_lines`` built it before it yielded one
    line per time function, kept as an oracle: every line in one list, then one join."""
    labels = space.events.labels
    heads = [(i, json.dumps(labels[i]) + ': "') for i in sorted(range(space.n), key=labels.__getitem__)]
    lines = []
    for t in timefns:
        lines.append('{"values": {' + '", '.join([head + format_rational(t.values[i]) for i, head in heads]) + '"}}\n')
    return "".join(lines)


class TestTimefnWriter:
    """``timefn`` writes one line at a time from label text quoted once; the bytes must
    equal ``json.dumps(timefn_to_jsonable(t), sort_keys=True) + "\\n"`` per time function
    and the earlier one-string writer's (``oracle_timefn_text``)."""

    SPACES = (
        # Labels that ``json.dumps`` escapes: a quote, a backslash, a tab, and non-ASCII é and U+2028.
        {
            "events": ["é", 'a"b', "a\\b", "a\tb", "\u2028"],
            "relation": {"kind": "explicit", "pairs": [["a\\b", "é"]]},
        },
        # Sorted label order ("e10", "e2", "e9") differs from index order.
        {"events": ["e10", "e9", "e2"], "relation": {"kind": "explicit", "pairs": [["e9", "e10"]]}},
        {"events": ["solo"], "relation": {"kind": "explicit", "pairs": []}},
        DIAMOND,
        {"kind": "random-dag", "n": 7, "p": "1/4", "seed": 3},
    )

    @staticmethod
    def dumped(timefns):
        return "".join(json.dumps(timefn_to_jsonable(t), sort_keys=True) + "\n" for t in timefns)

    def assert_bytes_match(self, directory, spec, samples=((1, 0), (5, 17), (3, 2**64 - 1))):
        from kcausal import cli

        out = directory / "out.jsonl"
        path = write(directory, "spec.json", spec)
        space = space_from_jsonable(spec)
        assert cli.main(["timefn", path, "--enumerate", "--out", str(out)]) == 0
        timefns = enumerate_time_functions(space)
        assert out.read_bytes() == self.dumped(timefns).encode("utf-8"), spec
        assert out.read_bytes() == oracle_timefn_text(space, timefns).encode("utf-8"), spec
        for count, seed in samples:
            argv = ["timefn", path, "--sample", str(count), "--seed", str(seed), "--out", str(out)]
            assert cli.main(argv) == 0
            written, case = out.read_bytes(), (spec, count, seed)
            assert written == self.dumped(_sampled_timefns(space, count, seed)).encode("utf-8"), case
            assert written == oracle_timefn_text(space, _sampled_timefns(space, count, seed)).encode("utf-8"), case

    def test_enumerate_and_sample_bytes(self, tmp_path):
        for spec in self.SPACES:
            self.assert_bytes_match(tmp_path, spec)

    def test_acceptance_corpus(self, tmp_path):
        # The spaces of tests/test_acceptance.py's corpus, drawn the same way; every one is acyclic.
        rng = random.Random(20260814)
        for seed in range(200):
            space = random_space(rng, 7)
            if rng.random() < 0.5:
                random_feasible_pair(rng, space)
            else:
                random_measure(rng, space.events)
                random_measure(rng, space.events)
            self.assert_bytes_match(tmp_path, space_to_jsonable(space), samples=((4, seed),))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 7),
        p=st.sampled_from(["0", "1/4", "1/2", "4/5"]),
        seed=st.integers(0, 2**32 - 1),
        labels=st.permutations([f"v{k}" for k in range(11)]),
    )
    def test_random_dags_with_permuted_labels(self, tmp_path_factory, n, p, seed, labels):
        # Drawn from v0 .. v10, so "v10" can sort between "v1" and "v2".
        space = random_dag_space(n, p, seed, labels=labels[:n])
        self.assert_bytes_match(tmp_path_factory.mktemp("timefns"), space_to_jsonable(space), samples=((3, seed),))

    def test_escaped_labels_read_back(self, tmp_path):
        path = write(tmp_path, "spec.json", self.SPACES[0])
        result = run_cli("timefn", path, "--sample", "2", "--seed", "9")
        assert result.returncode == 0
        for line in result.stdout.splitlines():
            assert sorted(json.loads(line)["values"]) == sorted(self.SPACES[0]["events"])


def oracle_upsets_text(space):
    """The ``upsets`` output as the command built it before it sorted masks by
    the subset listing key, kept as an oracle: one label set per up-set, one
    sort by (size, sorted labels), one ``json.dumps``."""
    subsets = enumerate_upsets(space)
    listed = sorted((len(s), sorted(s)) for s in subsets)
    return json.dumps({"upsets": [labels for _, labels in listed]}, indent=2, sort_keys=True) + "\n"


class TestUpsetsWriter:
    """``upsets`` sorts the up-set masks by ``_SubsetTables.key`` and writes the
    text from labels quoted once; the bytes must equal the oracle's."""

    @staticmethod
    def assert_bytes_match(directory, space):
        from kcausal import cli

        path = write(directory, "space.json", space_to_jsonable(space))
        out = directory / "upsets.json"
        assert cli.main(["upsets", path, "--out", str(out)]) == 0
        expected = oracle_upsets_text(space)
        assert out.read_bytes() == expected.encode("utf-8")
        return json.loads(expected)["upsets"]

    def test_diamond(self, tmp_path):
        self.assert_bytes_match(tmp_path, space_from_jsonable(DIAMOND))

    def test_one_event(self, tmp_path):
        assert self.assert_bytes_match(tmp_path, explicit_space(["solo"], [])) == [[], ["solo"]]

    def test_chain_has_one_more_upset_than_events(self, tmp_path):
        # Labels against the chain's direction, so each up-set is a label prefix written in label order.
        labels = [f"c{k}" for k in range(8)][::-1]
        space = explicit_space(labels, list(zip(labels, labels[1:])))
        assert len(self.assert_bytes_match(tmp_path, space)) == 8 + 1

    def test_antichain_has_every_subset(self, tmp_path):
        labels = random.Random(10).sample([f"e{k}" for k in range(10)], 10)
        assert len(self.assert_bytes_match(tmp_path, explicit_space(labels, []))) == 2**10

    def test_antichain_past_one_mask_block(self, tmp_path):
        # 2**13 up-sets are written in slices of MASK_BLOCK masks, so the text spans more than one slice.
        labels = random.Random(13).sample([f"e{k}" for k in range(13)], 13)
        assert 2**13 > MASK_BLOCK
        assert len(self.assert_bytes_match(tmp_path, explicit_space(labels, []))) == 2**13

    def test_cyclic_space_upsets_hold_whole_classes(self, tmp_path):
        cycle = {"p", "q", "r"}
        space = explicit_space(["s", "r", "q", "p", "t"], [("p", "q"), ("q", "r"), ("r", "p"), ("r", "s")])
        upsets = self.assert_bytes_match(tmp_path, space)
        assert all(cycle <= set(labels) or not cycle & set(labels) for labels in upsets)
        assert ["p", "q", "r", "s"] in upsets and ["q", "s"] not in upsets

    def test_labels_that_need_escaping_and_multi_digit_labels(self, tmp_path):
        labels = ['quo"te', "back\\slash", "tab\there", "日本語", "é", "a10", "a9", "a1"]
        space = explicit_space(labels, [("a9", "é"), ("a10", "tab\there"), ("quo\"te", "a1")])
        self.assert_bytes_match(tmp_path, space)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 10),
        p=st.sampled_from(["0", "1/10", "1/4", "1/2", "4/5"]),
        seed=st.integers(0, 2**32 - 1),
        labels=st.permutations([f"v{k}" for k in range(11)]),
    )
    def test_random_dags_with_permuted_labels(self, tmp_path_factory, n, p, seed, labels):
        # Drawn from v0 .. v10, so "v10" can sort between "v1" and "v2".
        space = random_dag_space(n, p, seed, labels=labels[:n])
        self.assert_bytes_match(tmp_path_factory.mktemp("upsets"), space)


def traced_peak(call) -> int:
    """Peak bytes ``tracemalloc`` sees allocated during ``call()``, above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestWriterMemory:
    def test_closure_is_not_held_as_one_string(self, tmp_path):
        # The closure of a 1000-event DAG is megabytes of text.  Written a cause at a time, the command
        # needs little more memory than building the space does; held whole, it needed several times
        # the file's size on top.
        from kcausal import cli

        recipe = {"kind": "random-dag", "n": 1000, "p": "1/100", "seed": 11}
        path = write(tmp_path, "recipe.json", recipe)
        out = tmp_path / "closure.json"
        building = traced_peak(lambda: space_from_jsonable(recipe))
        command = traced_peak(lambda: cli.main(["closure", path, "--out", str(out)]))
        assert out.stat().st_size > 4_000_000
        assert command - building < out.stat().st_size / 8
