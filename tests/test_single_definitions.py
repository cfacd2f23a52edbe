"""Every exhaustive bound, CLI default and public name has one defining place."""

from __future__ import annotations

import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

import kcausal
from kcausal import (
    GeneratorSpec,
    InputError,
    TrialConfig,
    condition2_check,
    condition3_check,
    condition4_check,
    condition5_check,
    enumerate_time_functions,
    enumerate_upsets,
    explicit_space,
    minguzzi_check,
    random_dag_space,
    sample_time_function,
    sprinkle_space,
    strassen_check,
    uniform_measure,
    upset_masks,
)
from kcausal.cli import _build_parser
from kcausal.structure import DEFAULT_UPSET_BOUND, SEED_SPAN, _check_seed
from kcausal.timefunctions import DEFAULT_ENUMERATION_BOUND


def max_events_default(func):
    return inspect.signature(func).parameters["max_events"].default


@pytest.mark.parametrize(
    "func",
    [upset_masks, enumerate_upsets, strassen_check, condition2_check, condition3_check, condition5_check],
    ids=lambda func: func.__name__,
)
def test_subset_scans_default_to_the_subset_bound(func):
    assert max_events_default(func) == DEFAULT_UPSET_BOUND


@pytest.mark.parametrize(
    "func",
    [enumerate_time_functions, condition4_check, minguzzi_check],
    ids=lambda func: func.__name__,
)
def test_extension_scans_default_to_the_enumeration_bound(func):
    assert max_events_default(func) == DEFAULT_ENUMERATION_BOUND


def test_cli_defaults_read_the_constants():
    parser = _build_parser()
    assert parser.parse_args(["upsets", "s.json"]).max_events == DEFAULT_UPSET_BOUND
    assert parser.parse_args(["timefn", "s.json", "--enumerate"]).max_events == DEFAULT_ENUMERATION_BOUND
    verify = parser.parse_args(["verify"])
    defaults = {field.name: field.default for field in fields(TrialConfig)}
    assert (verify.trials, verify.seed, verify.max_events) == (
        defaults["trials"],
        defaults["seed"],
        defaults["max_events"],
    )


# The package's public names.  The list is spelled out here, not derived, so
# that a name dropped from or added to a module's ``__all__`` fails a test.
PUBLIC_NAMES = [
    "BoundExceededError", "CausalRelation", "CausalSpace", "Certificate", "Coupling", "EventSet",
    "GeneratorSpec", "InputError", "KCausalError", "Measure", "NotStablyCausalError", "SUITES",
    "TimeFunction", "TrialConfig", "TrialReport", "certificate_to_jsonable", "chain_violations",
    "closedness_trial", "compose_couplings", "condition2_check", "condition3_check",
    "condition4_check", "condition5_check", "convex_combination", "coupling",
    "coupling_from_jsonable", "coupling_to_jsonable", "decide_k_causal", "default_labels", "dirac",
    "enumerate_time_functions", "enumerate_upsets", "explicit_space", "format_rational",
    "future_set", "future_volume_timefn", "generate", "generator_spec_from_jsonable",
    "identity_coupling", "implication_chain_trial", "indicator_time_function", "integrate",
    "is_stably_causal", "is_strictly_monotone", "is_upset", "kplus_closure",
    "lemma_complement_check", "marginals", "measure", "measure_from_jsonable", "measure_of",
    "measure_to_jsonable", "minguzzi_check", "minkowski_space", "mix_couplings", "parse_rational",
    "past_set", "product_coupling", "random_dag_space", "random_feasible_pair",
    "random_forward_push", "random_measure", "random_space", "rank_time_function",
    "report_to_jsonable", "run_suite", "sample_time_function", "space_from_jsonable",
    "space_to_jsonable", "sprinkle_space", "strassen_check", "time_function",
    "timefn_from_jsonable", "timefn_to_jsonable", "tv_distance", "uniform_measure", "upset_masks",
    "verify_coupling",
]

LIBRARY_MODULES = ["errors", "harness", "measures", "structure", "timefunctions", "transport"]

# Names the benchmark reads besides the traced targets: (module, attribute).
BENCHMARK_NAMES = [
    ("structure", "space_from_jsonable"),
    ("measures", "measure_from_jsonable"),
    ("transport", "coupling_from_jsonable"),
    ("transport", "verify_coupling"),
    ("errors", "InputError"),
    ("harness", "TrialConfig"),
    ("harness", "run_suite"),
    ("harness", "report_to_jsonable"),
    ("harness", "SUITES"),
    ("timefunctions", "rank_time_function"),
    ("timefunctions", "minguzzi_check"),
    ("cli", "main"),
]


def module(name: str):
    return importlib.import_module(f"kcausal.{name}")


def test_public_names_are_unchanged():
    assert sorted(kcausal.__all__) == PUBLIC_NAMES


def test_package_all_is_the_union_of_the_module_lists():
    listed = [name for home in LIBRARY_MODULES for name in module(home).__all__]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(kcausal.__all__)


@pytest.mark.parametrize("home", LIBRARY_MODULES + ["cli"])
def test_every_listed_name_exists_in_its_module(home):
    missing = [name for name in module(home).__all__ if not hasattr(module(home), name)]
    assert missing == []


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_exported_name_is_the_defining_modules_object(name):
    obj = getattr(kcausal, name)
    (home,) = [home for home in LIBRARY_MODULES if name in module(home).__all__]
    assert getattr(module(home), name) is obj
    defined_in = getattr(obj, "__module__", None)
    if defined_in is not None:
        assert getattr(importlib.import_module(defined_in), name) is obj


def traced_targets():
    """``(module, function)`` pairs from the benchmark tracer's ``TARGETS``, read without importing it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return [(home, func) for home, func, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/trace.py defines no TARGETS")


@pytest.mark.parametrize("home, attr", traced_targets() + BENCHMARK_NAMES)
def test_benchmark_names_resolve(home, attr):
    assert hasattr(module(home), attr)


def test_only_structure_turns_rationals_into_integers():
    # ``structure._scaled`` is the one place a common denominator is taken.
    package = Path(kcausal.__file__).resolve().parent
    users = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            imported = isinstance(node, ast.ImportFrom) and any(alias.name == "lcm" for alias in node.names)
            if imported or (isinstance(node, ast.Attribute) and node.attr == "lcm"):
                users.add(path.name)
    assert users == {"structure.py"}


CHAIN = explicit_space(["a", "b", "c"], [("a", "b"), ("b", "c")])
UNIFORM = uniform_measure(CHAIN.events)

# Every public entry point that takes a seed, called with that seed.
SEED_TAKERS = {
    "GeneratorSpec": lambda seed: GeneratorSpec(kind="random-dag", n=3, edge_prob=0.5, seed=seed),
    "TrialConfig": lambda seed: TrialConfig(seed=seed),
    "sprinkle_space": lambda seed: sprinkle_space(3, 2, [[0, 1], [-1, 1]], seed),
    "random_dag_space": lambda seed: random_dag_space(3, 0.5, seed),
    "sample_time_function": lambda seed: sample_time_function(CHAIN, seed),
    "condition4_check": lambda seed: condition4_check(CHAIN, UNIFORM, UNIFORM, mode="sampled", seed=seed),
    "condition5_check": lambda seed: condition5_check(CHAIN, UNIFORM, UNIFORM, mode="sampled", seed=seed),
}


# Besides the ends of the span: a float, a bool and a string are not seeds,
# though random.Random would take each of them.
@pytest.mark.parametrize("seed", [-1, SEED_SPAN, 1.5, True, "7"])
@pytest.mark.parametrize("taker", SEED_TAKERS)
def test_seed_takers_reject_seeds_outside_the_span_alike(taker, seed):
    with pytest.raises(InputError) as expected:
        _check_seed(seed)
    with pytest.raises(InputError) as got:
        SEED_TAKERS[taker](seed)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("taker", SEED_TAKERS)
def test_seed_takers_accept_both_ends_of_the_span(taker):
    SEED_TAKERS[taker](0)
    SEED_TAKERS[taker](SEED_SPAN - 1)
