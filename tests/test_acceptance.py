"""Acceptance gate: one test and one printed verdict line per criterion.

All randomness is seeded, all arithmetic is exact, and the stated time
budgets are asserted, not just observed.  The shared corpus is 200 spaces
with up to 7 events carrying measure pairs on the 1/24 grid, half of them
feasible by construction.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from kcausal import (
    Measure,
    chain_violations,
    closedness_trial,
    condition4_check,
    decide_k_causal,
    explicit_space,
    implication_chain_trial,
    is_stably_causal,
    lemma_complement_check,
    minguzzi_check,
    random_dag_space,
    random_feasible_pair,
    random_measure,
    random_space,
    sprinkle_space,
    strassen_check,
    verify_coupling,
)

CORPUS_SEED = 20260814
CORPUS_SIZE = 200


def _verdict(num: int, name: str, ok: bool, detail: str):
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    instances = []
    for _ in range(CORPUS_SIZE):
        space = random_space(rng, 7)
        if rng.random() < 0.5:
            mu, nu, _ = random_feasible_pair(rng, space)
        else:
            mu = random_measure(rng, space.events)
            nu = random_measure(rng, space.events)
        instances.append((space, mu, nu))
    return instances


def test_criterion_1_oracle_equivalence(corpus):
    started = time.perf_counter()
    disagreements = 0
    verdicts = {True: 0, False: 0}
    for space, mu, nu in corpus:
        fast = decide_k_causal(space, mu, nu).feasible
        slow, _ = strassen_check(space, mu, nu)
        if fast != slow:
            disagreements += 1
        verdicts[fast] += 1
    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and elapsed < 10.0 and verdicts[True] and verdicts[False]
    _verdict(
        1,
        "oracle equivalence",
        ok,
        f"{CORPUS_SIZE - disagreements}/{CORPUS_SIZE} verdicts agree "
        f"({verdicts[True]} feasible, {verdicts[False]} infeasible) "
        f"in {elapsed:.2f} s (budget 10 s)",
    )


def test_criterion_2_equivalence_chain(corpus):
    broken = 0
    defined45 = 0
    for space, mu, nu in corpus:
        verdicts = implication_chain_trial(space, mu, nu)
        if chain_violations(verdicts):
            broken += 1
            continue
        c1, c2, c3, c4, c5 = (verdicts[k] for k in ("c1", "c2", "c3", "c4", "c5"))
        if not (c1 == c2 == c3):
            broken += 1
        if c4 is not None and c5 is not None:
            defined45 += 1
            if (c3 and not c4) or (c4 and not c5) or (c5 and not c2):
                broken += 1
    ok = broken == 0 and defined45 == CORPUS_SIZE
    _verdict(
        2,
        "equivalence chain",
        ok,
        f"conditions 1=2=3 and 3=>4=>5 on {CORPUS_SIZE}/{CORPUS_SIZE} instances, "
        f"0 violations; 5=>2 held on all {defined45} instances (finite-model scope)",
    )


def test_criterion_3_time_function_characterization():
    started = time.perf_counter()
    rng = random.Random(3)
    spaces = [
        explicit_space(["a", "b"], [("a", "b")]),
        explicit_space(["a", "b"], []),
        explicit_space(["a", "b", "c"], [("a", "b"), ("b", "c")]),
        explicit_space(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
    ]
    for _ in range(36):
        spaces.append(
            random_dag_space(
                n=rng.randint(2, 6),
                edge_prob=0.2 + 0.5 * rng.random(),
                seed=rng.randrange(2**32),
            )
        )
    pairs_checked = 0
    exceptions = 0
    for space in spaces:
        assert is_stably_causal(space)
        labels = space.events.labels
        for i in range(space.n):
            for j in range(space.n):
                agrees = minguzzi_check(space, labels[i], labels[j]) == bool(space.kplus.rows[i] >> j & 1)
                pairs_checked += 1
                if not agrees:
                    exceptions += 1
    elapsed = time.perf_counter() - started
    ok = exceptions == 0 and elapsed < 30.0
    _verdict(
        3,
        "time-function characterization",
        ok,
        f"{pairs_checked} ordered pairs over {len(spaces)} posets, "
        f"{exceptions} exceptions, {elapsed:.2f} s (budget 30 s)",
    )


def test_criterion_4_closedness():
    rng = random.Random(4)
    failures = 0
    for _ in range(100):
        space = random_space(rng, 7)
        mu, nu, _ = random_feasible_pair(rng, space)
        mu_p, nu_p, _ = random_feasible_pair(rng, space)
        if not closedness_trial(space, mu, nu, mu_p, nu_p, steps=10):
            failures += 1
    ok = failures == 0
    _verdict(
        4,
        "closedness under interpolation",
        ok,
        f"100 trials, steps=10, per-step feasibility plus exact 1/n distance decay, "
        f"{failures} failures",
    )


def test_criterion_5_complement_lemma():
    rng = random.Random(5)
    subsets_checked = 0
    failures = 0
    for _ in range(50):
        space = random_space(rng, 7)
        labels = space.events.labels
        for mask in range(1 << space.n):
            subset = [labels[i] for i in range(space.n) if mask >> i & 1]
            subsets_checked += 1
            if not lemma_complement_check(space, subset):
                failures += 1
    ok = failures == 0
    _verdict(
        5,
        "complement lemma",
        ok,
        f"{subsets_checked} subsets over 50 spaces, {failures} failures",
    )


def test_criterion_6_half_line_agreement(corpus):
    disagreements = 0
    for space, mu, nu in corpus:
        open_verdict = condition4_check(space, mu, nu, half_line="open")
        closed_verdict = condition4_check(space, mu, nu, half_line="closed")
        if open_verdict != closed_verdict:
            disagreements += 1
    ok = disagreements == 0
    _verdict(
        6,
        "open/closed half-line agreement",
        ok,
        f"{CORPUS_SIZE} instances, {disagreements} disagreements",
    )


def test_criterion_7_certificate_soundness(corpus):
    failures = 0
    feasible = infeasible = 0
    for space, mu, nu in corpus:
        cert = decide_k_causal(space, mu, nu)
        if cert.feasible:
            feasible += 1
            if not verify_coupling(space, cert.witness, mu, nu):
                failures += 1
        else:
            infeasible += 1
            mask = space.events.mask_of(cert.violator)
            if not mu.mass_of_mask(mask) > nu.mass_of_mask(space.future_mask(mask)):
                failures += 1
    ok = failures == 0
    _verdict(
        7,
        "certificate soundness",
        ok,
        f"{feasible} witnesses verified, {infeasible} violators re-checked exactly, "
        f"{failures} failures",
    )


def _random_atom_measure(rng: random.Random, events, atoms: int, per_atom: int) -> Measure:
    den = atoms * per_atom
    chosen = rng.sample(range(len(events)), atoms)
    units = {i: 1 for i in chosen}
    for _ in range(den - atoms):
        units[chosen[rng.randrange(atoms)]] += 1
    weights = [Fraction(0)] * len(events)
    for i, u in units.items():
        weights[i] = Fraction(u, den)
    return Measure(events=events, weights=tuple(weights))


def test_criterion_8_scale_smoke(tmp_path):
    started = time.perf_counter()
    space = sprinkle_space(n=2000, dim=2, box=((0, 1), (-1, 1)), seed=88)
    rng = random.Random(8)
    mu = _random_atom_measure(rng, space.events, atoms=200, per_atom=24)
    nu = _random_atom_measure(rng, space.events, atoms=200, per_atom=24)

    spec_path = tmp_path / "space.json"
    spec_path.write_text(
        json.dumps(
            {"kind": "sprinkle", "n": 2000, "dim": 2, "box": [[0, 1], [-1, 1]], "seed": 88}
        ),
        encoding="utf-8",
    )
    labels = space.events.labels
    for name, m in (("mu.json", mu), ("nu.json", nu)):
        (tmp_path / name).write_text(
            json.dumps({"weights": {labels[i]: str(w) for i, w in enumerate(m.weights) if w}}),
            encoding="utf-8",
        )
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "kcausal",
            "check",
            str(spec_path),
            str(tmp_path / "mu.json"),
            str(tmp_path / "nu.json"),
            "--certificate",
            str(tmp_path / "cert.json"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - started
    ok = result.returncode in (0, 1) and elapsed < 60.0
    _verdict(
        8,
        "scale smoke test",
        ok,
        f"n=2000 sprinkle, two 200-atom measures, verdict "
        f"{result.stdout.strip() or '<none>'} in {elapsed:.2f} s (budget 60 s)",
    )


def test_criterion_9_byte_determinism(tmp_path):
    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "kcausal", *args], capture_output=True, text=True
        )

    chain = {"events": ["a", "b"], "relation": {"kind": "explicit", "pairs": [["a", "b"]]}}
    (tmp_path / "chain.json").write_text(json.dumps(chain), encoding="utf-8")
    (tmp_path / "mu.json").write_text(json.dumps({"weights": {"a": "1"}}), encoding="utf-8")
    (tmp_path / "nu.json").write_text(json.dumps({"weights": {"b": "1"}}), encoding="utf-8")
    (tmp_path / "sprinkle.json").write_text(
        json.dumps({"kind": "sprinkle", "n": 100, "dim": 2, "box": [[0, 1], [-1, 1]], "seed": 42}),
        encoding="utf-8",
    )

    commands = [
        ("generate", [["generate", str(tmp_path / "sprinkle.json"), "--out", "OUT"]]),
        ("closure", [["closure", str(tmp_path / "chain.json"), "--out", "OUT"]]),
        (
            "check",
            [
                [
                    "check",
                    str(tmp_path / "chain.json"),
                    str(tmp_path / "mu.json"),
                    str(tmp_path / "nu.json"),
                    "--witness",
                    "OUT",
                ]
            ],
        ),
        ("timefn", [["timefn", str(tmp_path / "chain.json"), "--sample", "5", "--seed", "9", "--out", "OUT"]]),
        ("verify", [["verify", "--suite", "lemma6", "--trials", "2", "--report", "OUT"]]),
    ]
    mismatches = []
    for name, [argv] in commands:
        artifacts = []
        for attempt in ("first", "second"):
            out_path = tmp_path / f"{name}-{attempt}.json"
            concrete = [out_path.as_posix() if a == "OUT" else a for a in argv]
            result = run(concrete)
            assert result.returncode in (0, 1), (name, result.stderr)
            artifacts.append(out_path.read_bytes())
        if artifacts[0] != artifacts[1]:
            mismatches.append(name)
    ok = not mismatches
    _verdict(
        9,
        "byte determinism",
        ok,
        f"{len(commands)} commands re-run with identical inputs, "
        f"mismatched artifacts: {mismatches or 'none'}",
    )
