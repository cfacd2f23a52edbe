"""Tests of the benchmark's own code: order counts, span arithmetic, p99 rule, gate.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
from pathlib import Path

import pytest

import kcausal
import kcausal.cli
from kcausal import decide_k_causal, explicit_space, measure, random_dag_space, sprinkle_space
from perfbench import gate, run, stats, trace
from perfbench.orders import CONE_BLOCK, bits, dag_closure, links_count, reference_space
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def links_brute_force(rows) -> int:
    """Covering pairs by definition: i < j with no k strictly between them."""
    strict = [row & ~(1 << i) for i, row in enumerate(rows)]
    return sum(
        1
        for i in range(len(rows))
        for j in bits(strict[i])
        if not any(strict[k] >> j & 1 for k in bits(strict[i]) if k != j)
    )


def _small_spaces():
    for seed in range(12):
        yield random_dag_space(n=3 + seed % 8, edge_prob=0.15 + 0.05 * (seed % 6), seed=seed)
        yield sprinkle_space(n=4 + seed % 9, dim=2, box=((0, 1), (-1, 1)), seed=100 + seed)


@pytest.mark.parametrize(
    "labels, pairs, expected",
    [
        (["a"], [], 0),
        (list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")], 3),
        (list("abcd"), [], 0),
        (list("abcd"), [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], 4),
        (list("abc"), [("a", "b"), ("b", "c"), ("a", "c")], 2),
    ],
)
def test_links_count_on_named_orders(labels, pairs, expected):
    rows = explicit_space(labels, pairs).kplus.rows
    assert links_count(rows) == links_brute_force(rows) == expected


def test_links_count_matches_brute_force_transitive_reduction():
    for space in _small_spaces():
        rows = space.kplus.rows
        assert links_count(rows) == links_brute_force(rows)


def test_dag_closure_matches_kcausal_closure():
    for seed in range(10):
        space = random_dag_space(n=12, edge_prob=0.2, seed=seed)
        assert dag_closure(space.raw.rows) == list(space.kplus.rows)


def test_reference_space_matches_kcausal_on_every_spec_shape():
    specs = [
        # More events than one cone block, so block boundaries are crossed.
        {"kind": "sprinkle", "n": CONE_BLOCK + 45, "dim": 2, "box": [[0, 1], [-1, 1]], "seed": 5},
        {"kind": "sprinkle", "n": 40, "dim": 3, "box": [[0, 1], [-1, 1], ["-1/2", "1/2"]], "seed": 6},
        {"kind": "random-dag", "n": 60, "p": "1/10", "seed": 7},
        {"events": list("abcd"), "relation": {"kind": "explicit", "pairs": [["a", "b"], ["b", "c"]]}},
    ]
    for spec in specs:
        space = kcausal.space_from_jsonable(spec)
        labels, raw, closure = reference_space(spec)
        assert labels == list(space.events.labels)
        assert raw == list(space.raw.rows)
        assert closure == list(space.kplus.rows)


def _write_spec(tmp_path, spec) -> gate.Gate:
    (tmp_path / "s.json").write_text(json.dumps(spec))
    return gate.Gate(kcausal, tmp_path)


@pytest.mark.parametrize("relation", ["raw", "kplus"])
def test_gate_rejects_a_space_whose_relation_lost_a_pair(tmp_path, monkeypatch, relation):
    spec = {"kind": "sprinkle", "n": CONE_BLOCK + 10, "dim": 2, "box": [[0, 1], [-1, 1]], "seed": 9}
    assert _write_spec(tmp_path, spec).space("s")[1] == list(kcausal.space_from_jsonable(spec).kplus.rows)
    build = kcausal.structure.space_from_jsonable

    def dropping(obj):
        space = build(obj)
        rows = list(getattr(space, relation).rows)
        # Drop one strict pair from a row past the first cone block.
        i = next(k for k in range(CONE_BLOCK, space.n) if rows[k] & ~(1 << k))
        j = next(j for j in bits(rows[i]) if j != i)
        rows[i] &= ~(1 << j)
        changed = type(space.raw)(space.n, tuple(rows))
        return type(space)(space.events, changed if relation == "raw" else space.raw,
                           changed if relation == "kplus" else space.kplus)

    monkeypatch.setattr(kcausal.structure, "space_from_jsonable", dropping)
    name = "raw relation" if relation == "raw" else "closure"
    with pytest.raises(ValueError, match=f"{name} of s differs from the reference in 1 rows"):
        _write_spec(tmp_path, spec).space("s")


def test_upsets_of_matches_enumerate_upsets():
    for seed in range(6):
        space = random_dag_space(n=9, edge_prob=0.25, seed=seed)
        got = {frozenset(space.events.labels[i] for i in s) for s in gate.upsets_of(space.kplus.rows)}
        assert got == set(kcausal.enumerate_upsets(space))


def test_self_times_on_nested_span_tree():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["a", 6.0, 7.5, 3],
    ]
    assert trace.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 1.5])
    assert trace.layer_self_times(spans) == pytest.approx({"root": 3.0, "a": 3.5, "a.inner": 1.0, "b": 2.5})


def test_self_times_count_overlapping_children_once():
    spans = [["p", 0.0, 10.0, None], ["c", 2.0, 6.0, 0], ["c", 4.0, 8.0, 0], ["c", 9.0, 12.0, 0]]
    assert trace.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_p99_needs_ten_samples_beyond_it():
    assert stats.p99(list(range(999))) is None
    assert stats.p99(list(range(1009))) == {"value": 998, "samples": 1009}
    assert stats.p99([0.5] * 100) is None


def _diamond():
    return explicit_space(list("abcd"), [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def test_gate_accepts_then_rejects_a_tampered_witness():
    space = _diamond()
    mu_obj = {"weights": {"a": "1/2", "b": "1/2"}}
    nu_obj = {"weights": {"c": "1/2", "d": "1/2"}}
    mu = kcausal.measure_from_jsonable(mu_obj, space.events)
    nu = kcausal.measure_from_jsonable(nu_obj, space.events)
    cert = decide_k_causal(space, mu, nu)
    pairs = kcausal.coupling_to_jsonable(cert.witness)
    assert gate.check_witness(kcausal, space, pairs, mu_obj, nu_obj) is None
    # b -> c carries mass between unrelated events; marginals still match.
    tampered = {"pairs": [["a", "d", "1/2"], ["b", "c", "1/2"]]}
    assert gate.check_witness(kcausal, space, tampered, mu_obj, nu_obj) == "witness fails verify_coupling"
    unbalanced = {"pairs": [["a", "c", "1/2"], ["b", "d", "1/4"], ["b", "b", "1/4"]]}
    assert gate.check_witness(kcausal, space, unbalanced, mu_obj, nu_obj) is not None


def test_gate_rejects_non_violating_and_misstated_violators():
    space = _diamond()
    labels = space.events.labels
    mu = {"b": "1/2", "c": "1/2"}
    nu = {"a": "1/2", "d": "1/2"}
    cert = kcausal.certificate_to_jsonable(
        decide_k_causal(space, measure(space.events, mu), measure(space.events, nu))
    )
    rows = space.kplus.rows
    assert gate.check_violator(rows, labels, mu, nu, cert) is None
    honest_but_not_violating = {"violator": ["b"], "mu_B": "1/2", "nu_KplusB": "1/2"}
    assert "does not violate" in gate.check_violator(rows, labels, mu, nu, honest_but_not_violating)
    misstated = dict(cert, nu_KplusB="0")
    assert "differ" in gate.check_violator(rows, labels, mu, nu, misstated)


def test_immediate_gate_checks_exit_code_against_verdict():
    from perfbench.workloads import Op

    op = Op("check x", lambda: None, kind="cli", verdict="feasible", meta={"argv": ["check"]})
    assert gate.immediate(op, 0, "feasible\n") is None
    assert "exit code" in gate.immediate(op, 1, "feasible\n")
    assert "force" in gate.immediate(op, 1, "infeasible\n")
    assert "no verdict" in gate.immediate(op, 3, "")


def test_patched_records_layer_spans_and_restores(tmp_path):
    space = {"kind": "random-dag", "n": 6, "p": "1/2", "seed": 3}
    (tmp_path / "s.json").write_text(json.dumps(space))
    (tmp_path / "mu.json").write_text(json.dumps({"weights": {"e0": "1"}}))
    (tmp_path / "nu.json").write_text(json.dumps({"weights": {"e5": "1"}}))
    original = kcausal.cli.decide_k_causal
    tracer = trace.Tracer()
    with trace.patched(tracer, kcausal):
        assert kcausal.cli.decide_k_causal is not original
        with tracer.span("cli.main"):
            kcausal.cli.main(["check", *(str(tmp_path / f) for f in ("s.json", "mu.json", "nu.json"))])
    assert kcausal.cli.decide_k_causal is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main"
    assert {"structure.generate", "structure.closure", "measures.parse"} <= set(names)
    assert any(n.startswith("transport.decide_") for n in names)
    closure = names.index("structure.closure")
    assert names[tracer.spans[closure][3]] == "structure.generate"
    counts = trace.count_calls(tracer.calls, {})
    assert counts["structure.events"] == 6
    assert counts["measures.support"] == 2


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS


def test_suite_names_match_the_harness():
    assert run.SUITES == kcausal.SUITES
