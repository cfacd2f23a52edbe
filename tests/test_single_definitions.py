"""Every exhaustive bound, CLI default and public name has one defining place."""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import random
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcausal
from kcausal import (
    BoundExceededError,
    CausalRelation,
    CausalSpace,
    Coupling,
    EventSet,
    GeneratorSpec,
    InputError,
    KCausalError,
    Measure,
    NotStablyCausalError,
    TimeFunction,
    TrialConfig,
    TrialReport,
    closedness_trial,
    compose_couplings,
    condition2_check,
    condition3_check,
    condition4_check,
    condition5_check,
    convex_combination,
    coupling,
    coupling_from_jsonable,
    decide_k_causal,
    default_labels,
    enumerate_time_functions,
    enumerate_upsets,
    explicit_space,
    future_set,
    future_volume_timefn,
    generate,
    generator_spec_from_jsonable,
    identity_coupling,
    implication_chain_trial,
    indicator_time_function,
    integrate,
    is_strictly_monotone,
    is_upset,
    lemma_complement_check,
    measure,
    measure_of,
    minguzzi_check,
    minkowski_space,
    mix_couplings,
    past_set,
    product_coupling,
    random_dag_space,
    random_forward_push,
    rank_time_function,
    sample_time_function,
    space_from_jsonable,
    space_to_jsonable,
    sprinkle_space,
    strassen_check,
    time_function,
    tv_distance,
    uniform_measure,
    upset_masks,
    verify_coupling,
)
from kcausal.cli import _build_parser
from kcausal.structure import (
    DEFAULT_UPSET_BOUND,
    GENERATOR_EVENT_BOUND,
    SEED_SPAN,
    _check_count,
    _check_event_count,
    _check_seed,
    _require_same_events,
    _SubsetTables,
    parse_rational,
)
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
    # ``structure`` alone takes common denominators: ``_scaled`` where ``Fraction``s first become integers,
    # ``_common_units`` over the units measures and couplings store, and ``_reduced`` brings units over a
    # denominator to the least one.
    package = Path(kcausal.__file__).resolve().parent
    users = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            imported = isinstance(node, ast.ImportFrom) and any(alias.name in ("lcm", "gcd") for alias in node.names)
            if imported or (isinstance(node, ast.Attribute) and node.attr in ("lcm", "gcd")):
                users.add(path.name)
    assert users == {"structure.py"}


def qualified_owners(tree):
    """Each top-level statement and each class member of a module, with its (qualified) name or None."""
    for owner in tree.body:
        if isinstance(owner, ast.ClassDef):
            yield from ((f"{owner.name}.{getattr(node, 'name', None)}", node) for node in owner.body)
        else:
            yield getattr(owner, "name", None), owner


def test_only_rationals_from_outside_are_scaled():
    # After construction a measure's or coupling's one integer form is its ``_integer_weights``: every
    # operation on stored objects reads it through ``_common_units``.  ``_scaled`` reads ``Fraction``s only
    # where they first become integers: outside input, cone coordinates and the middle masses' reciprocals.
    package = Path(kcausal.__file__).resolve().parent
    scalers, weighed = set(), set()
    for path in package.glob("*.py"):
        for name, owner in qualified_owners(ast.parse(path.read_text(encoding="utf-8"))):
            for node in ast.walk(owner):
                called = isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None))
                if called == "_scaled":
                    scalers.add((path.name, name))
                if called == "_SubsetTables" and any(getattr(arg, "attr", None) == "weights" for arg in ast.walk(node)):
                    weighed.add((path.name, name))
    assert scalers == {
        ("measures.py", "Measure.__post_init__"),
        ("transport.py", "Coupling.__post_init__"),
        ("structure.py", "_cone_rows"),
        ("transport.py", "compose_couplings"),
    }
    assert weighed == set()


def test_only_the_input_readers_call_the_public_constructors():
    # ``Measure(...)`` and ``Coupling(...)`` read outside input; ``measures.measure`` and ``transport.coupling``
    # are their only callers.  Every measure and coupling the package computes comes from its integer units
    # through ``_of_units``.
    package = Path(kcausal.__file__).resolve().parent
    callers = set()
    for path in package.glob("*.py"):
        for owner in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(owner):
                called = isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None))
                if called in ("Measure", "Coupling"):
                    callers.add((path.name, getattr(owner, "name", None), called))
    assert callers == {("measures.py", "measure", "Measure"), ("transport.py", "coupling", "Coupling")}


def test_only_structure_reads_the_raw_relation():
    # Outside ``structure`` the order is read from ``kplus``; the raw relation is its input only.
    package = Path(kcausal.__file__).resolve().parent
    users = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "raw":
                users.add(path.name)
    assert users == {"structure.py"}


def test_one_place_derives_the_order_of_every_event():
    # ``_order_links`` over ``range(...)`` (every event) runs only in the cached ``CausalSpace._order``;
    # ``decide_k_causal`` calls it over the measures' support, which is the other allowed form.
    package = Path(kcausal.__file__).resolve().parent
    sites = []
    for path in package.glob("*.py"):
        for owner in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(owner, ast.FunctionDef):
                continue
            for node in ast.walk(owner):
                name = isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "_order_links":
                    members = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "members")]
                    if any(isinstance(m, ast.Call) and getattr(m.func, "id", None) == "range" for m in members):
                        sites.append((path.name, owner.name))
    assert sites == [("structure.py", "_order")]
    assert isinstance(inspect.getattr_static(CausalSpace, "_order"), functools.cached_property)


def test_a_relation_is_its_rows():
    # Pasts read the closure rows: no module defines or reads a ``transpose``, and a relation caches nothing.
    package = Path(kcausal.__file__).resolve().parent
    sites = []
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
            if name == "transpose":
                sites.append((path.name, node.lineno))
    assert sites == []
    assert not [name for name, value in vars(CausalRelation).items() if isinstance(value, functools.cached_property)]


def test_one_function_owns_the_flow_network():
    # The arc lists are ``transport._max_flow``'s: only it and its per-path helper ``_augment`` name
    # them, and only ``_max_flow`` calls ``_augment``, so another max-flow engine replaces just those two.
    package = Path(kcausal.__file__).resolve().parent
    namers, callers = set(), set()
    for path in package.glob("*.py"):
        for owner in ast.parse(path.read_text(encoding="utf-8")).body:
            site = (path.name, getattr(owner, "name", None))
            for node in ast.walk(owner):
                # A variable, an attribute, a parameter or a keyword argument of either name.
                name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "arg", None)
                if name in ("arc_to", "arc_cap"):
                    namers.add(site)
                called = isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None))
                if called == "_augment":
                    callers.add(site)
    assert namers == {("transport.py", "_max_flow"), ("transport.py", "_augment")}
    assert callers == {("transport.py", "_max_flow")}


def test_one_owner_for_the_subset_listing_order():
    # Subsets are listed by size, then by sorted labels, through the lazily built ``_SubsetTables.key``:
    # the subset oracle's first violator and ``kcausal upsets`` read it, sort no labels or label sets
    # themselves, and the checkers that list nothing never build it.
    package = Path(kcausal.__file__).resolve().parent
    readers, sorters = set(), set()
    for path in package.glob("*.py"):
        for name, owner in qualified_owners(ast.parse(path.read_text(encoding="utf-8"))):
            for node in ast.walk(owner):
                if isinstance(node, ast.Attribute) and node.attr in ("key", "by_label"):
                    readers.add((path.name, name, node.attr))
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sorted":
                    sorters.add((path.name, name))
    assert readers == {
        ("structure.py", "_SubsetTables.__init__", "by_label"),
        ("structure.py", "_SubsetTables.key", "by_label"),
        ("transport.py", "strassen_check", "key"),
        ("cli.py", "_cmd_upsets", "key"),
        ("cli.py", "_cmd_upsets", "by_label"),
    }
    assert not sorters & {("transport.py", "strassen_check"), ("cli.py", "_cmd_upsets")}
    assert isinstance(inspect.getattr_static(_SubsetTables, "key"), functools.cached_property)


def test_two_owners_for_the_exhaustive_bounds():
    # Every subset scan builds a ``_SubsetTables``, which refuses a space over ``max_events`` as it is built,
    # and every extension scan reads ``timefunctions._extensions``: no other function checks the bound.
    package = Path(kcausal.__file__).resolve().parent
    callers = set()
    for path in package.glob("*.py"):
        for name, owner in qualified_owners(ast.parse(path.read_text(encoding="utf-8"))):
            for node in ast.walk(owner):
                called = isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None))
                if called == "_check_bound":
                    callers.add((path.name, name))
    assert callers == {("structure.py", "_SubsetTables.__init__"), ("timefunctions.py", "_extensions")}


def test_one_writer_for_command_output():
    # Every command's text goes through ``cli._write``, which computes the first piece before it opens
    # ``--out``: no other function in ``cli`` opens a file for writing or writes to stdout itself.
    path = Path(kcausal.__file__).resolve().parent / "cli.py"
    writers = set()
    for name, owner in qualified_owners(ast.parse(path.read_text(encoding="utf-8"))):
        for node in ast.walk(owner):
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "id", getattr(node.func, "attr", None))
            modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
            opened = called == "open" and any(set(str(getattr(m, "value", ""))) & set("wax+") for m in modes)
            stdout = called in ("write", "writelines") and ast.unparse(node.func.value) == "sys.stdout"
            if opened or stdout or called in ("write_text", "write_bytes"):
                writers.add(name)
    assert writers == {"_write"}


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
    # The sampled mode's seed is checked in the other mode too.
    "condition4_check exhaustive": lambda seed: condition4_check(CHAIN, UNIFORM, UNIFORM, seed=seed),
    "condition5_check exact": lambda seed: condition5_check(CHAIN, UNIFORM, UNIFORM, seed=seed),
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


# Values whose repr would pass the interpreter's integer-to-string digit limit,
# in messages that print the value: seeds, labels, generator kinds, numbers.
@pytest.mark.parametrize(
    "call",
    [
        lambda: sample_time_function(CHAIN, -(10**5000)),
        lambda: GeneratorSpec(kind="random-dag", n=3, edge_prob=0.5, seed=10**5000),
        lambda: sample_time_function(CHAIN, Fraction(10**5000, 3)),
        lambda: CHAIN.events.index_of(10**5000),
        lambda: GeneratorSpec(kind=10**5000),
        lambda: parse_rational([10**5000]),
        lambda: GeneratorSpec(kind="random-dag", n=10**5000, edge_prob=0.5, seed=0),
        lambda: default_labels(10**5000),
    ],
    ids=[
        "negative int", "GeneratorSpec", "Fraction", "index_of", "GeneratorSpec kind", "parse_rational",
        "GeneratorSpec n", "default_labels",
    ],
)
def test_values_too_long_to_print_are_input_errors(call):
    with pytest.raises(InputError, match="too long to print"):
        call()


@pytest.mark.parametrize("taker", SEED_TAKERS)
def test_seed_takers_accept_both_ends_of_the_span(taker):
    SEED_TAKERS[taker](0)
    SEED_TAKERS[taker](SEED_SPAN - 1)


BOX = [[0, 1], [-1, 1]]

# Every public entry point that takes a count or a bound: what ``_check_count``
# calls the value, the least value allowed, and the call.
COUNT_TAKERS = {
    "sprinkle_space n": ("event count", 1, lambda n: sprinkle_space(n, 2, BOX, 0)),
    "sprinkle_space dim": ("sprinkle dimension (time plus space)", 2, lambda dim: sprinkle_space(3, dim, BOX, 0)),
    "random_dag_space": ("event count", 1, lambda n: random_dag_space(n, 0.5, 0)),
    "CausalRelation": ("event count", 1, lambda n: CausalRelation(n, (1,))),
    "default_labels": ("event count", 1, default_labels),
    "TrialConfig trials": ("trial count", 1, lambda trials: TrialConfig(trials=trials)),
    "TrialConfig max_events": ("max_events", 1, lambda bound: TrialConfig(max_events=bound)),
    "closedness_trial": ("step count", 1, lambda steps: closedness_trial(CHAIN, *[UNIFORM] * 4, steps=steps)),
    "condition4_check samples": (
        "sample count", 1, lambda samples: condition4_check(CHAIN, UNIFORM, UNIFORM, mode="sampled", samples=samples)
    ),
    "condition5_check samples": (
        "sample count", 1, lambda samples: condition5_check(CHAIN, UNIFORM, UNIFORM, mode="sampled", samples=samples)
    ),
    # Each mode's count or bound is checked in the other mode too.
    "condition4_check exhaustive samples": (
        "sample count", 1, lambda samples: condition4_check(CHAIN, UNIFORM, UNIFORM, samples=samples)
    ),
    "condition5_check exact samples": (
        "sample count", 1, lambda samples: condition5_check(CHAIN, UNIFORM, UNIFORM, samples=samples)
    ),
    "condition4_check sampled max_events": (
        "max_events", 1, lambda bound: condition4_check(CHAIN, UNIFORM, UNIFORM, mode="sampled", max_events=bound)
    ),
    "condition5_check sampled max_events": (
        "max_events", 1, lambda bound: condition5_check(CHAIN, UNIFORM, UNIFORM, mode="sampled", max_events=bound)
    ),
    "upset_masks": ("max_events", 1, lambda bound: upset_masks(CHAIN, bound)),
    "enumerate_upsets": ("max_events", 1, lambda bound: enumerate_upsets(CHAIN, bound)),
    "strassen_check": ("max_events", 1, lambda bound: strassen_check(CHAIN, UNIFORM, UNIFORM, bound)),
    "condition2_check": ("max_events", 1, lambda bound: condition2_check(CHAIN, UNIFORM, UNIFORM, bound)),
    "condition3_check": ("max_events", 1, lambda bound: condition3_check(CHAIN, UNIFORM, UNIFORM, bound)),
    "condition4_check": ("max_events", 1, lambda bound: condition4_check(CHAIN, UNIFORM, UNIFORM, max_events=bound)),
    "condition5_check": ("max_events", 1, lambda bound: condition5_check(CHAIN, UNIFORM, UNIFORM, max_events=bound)),
    "enumerate_time_functions": ("max_events", 1, lambda bound: enumerate_time_functions(CHAIN, bound)),
    "minguzzi_check": ("max_events", 1, lambda bound: minguzzi_check(CHAIN, "a", "c", bound)),
}


# Every subset scan and what ``_SubsetTables`` calls it when it refuses the space.
SUBSET_SCANS = {
    "strassen_check": ("subset oracle", lambda bound: strassen_check(CHAIN, UNIFORM, UNIFORM, bound)),
    "condition2_check": ("subset check", lambda bound: condition2_check(CHAIN, UNIFORM, UNIFORM, bound)),
    "condition3_check": ("up-set enumeration", lambda bound: condition3_check(CHAIN, UNIFORM, UNIFORM, bound)),
    "condition5_check exact": (
        "up-set enumeration", lambda bound: condition5_check(CHAIN, UNIFORM, UNIFORM, max_events=bound)
    ),
    "upset_masks": ("up-set enumeration", lambda bound: upset_masks(CHAIN, bound)),
}


@pytest.mark.parametrize("scan", SUBSET_SCANS)
def test_subset_scans_refuse_one_event_over_the_bound(scan):
    # ``upset_masks`` refuses when it is called, not when its stream is first read.
    what, call = SUBSET_SCANS[scan]
    with pytest.raises(BoundExceededError) as got:
        call(CHAIN.n - 1)
    assert type(got.value) is BoundExceededError
    assert str(got.value) == f"{what} refuses n=3 events (bound 2)"
    call(CHAIN.n)


# A float, a bool, a string and None are not counts, and each taker has a least value.
@pytest.mark.parametrize("value", [1.5, True, "3", None, "below"])
@pytest.mark.parametrize("taker", COUNT_TAKERS)
def test_count_takers_reject_non_counts_alike(taker, value):
    what, least, call = COUNT_TAKERS[taker]
    value = least - 1 if value == "below" else value
    with pytest.raises(InputError) as expected:
        _check_count(what, value, least)
    with pytest.raises(InputError) as got:
        call(value)
    assert str(got.value) == str(expected.value)


# Every entry point that builds events from a count, called with that count.
EVENT_COUNT_TAKERS = {
    "GeneratorSpec sprinkle": lambda n: GeneratorSpec(kind="sprinkle", n=n, dim=2, box=BOX, seed=0),
    "GeneratorSpec random-dag": lambda n: GeneratorSpec(kind="random-dag", n=n, edge_prob=0.5, seed=0),
    "sprinkle recipe": lambda n: space_from_jsonable({"kind": "sprinkle", "n": n, "dim": 2, "box": BOX, "seed": 0}),
    "random-dag recipe": lambda n: space_from_jsonable({"kind": "random-dag", "n": n, "p": 0.5, "seed": 0}),
    "sprinkle_space": lambda n: sprinkle_space(n, 2, BOX, 0),
    "random_dag_space": lambda n: random_dag_space(n, 0.5, 0),
    "default_labels": default_labels,
    "minkowski_space": lambda n: minkowski_space([[0, 0]] * n),
}


@pytest.mark.parametrize("taker", EVENT_COUNT_TAKERS)
def test_event_count_takers_read_the_one_generator_bound(taker, monkeypatch):
    # A bound of 3 stands in for GENERATOR_EVENT_BOUND, so a taker that skips the check builds 4 events, not 2**15.
    monkeypatch.setattr(module("structure"), "GENERATOR_EVENT_BOUND", 3)
    EVENT_COUNT_TAKERS[taker](3)
    expected = refusal(lambda: _check_event_count(4))
    assert expected == "event count must be at most 3, got 4"
    assert refusal(lambda: EVENT_COUNT_TAKERS[taker](4)) == expected


def test_generator_bound_is_well_above_the_largest_benchmark_space():
    # The largest benchmark size is 4000 events; README records the peak memory measured
    # at 4000, 8000, 16000 and at the bound.
    assert GENERATOR_EVENT_BOUND > 4 * 4000
    assert _check_event_count(GENERATOR_EVENT_BOUND) is None
    assert refusal(lambda: _check_event_count(GENERATOR_EVENT_BOUND + 1)) == (
        f"event count must be at most {GENERATOR_EVENT_BOUND}, got {GENERATOR_EVENT_BOUND + 1}"
    )


# One recipe per generator kind that builds, as GeneratorSpec fields.
RECIPES = {
    "explicit": dict(labels=["a", "b"], pairs=[["a", "b"]]),
    "minkowski": dict(labels=["a", "b"], points=[[0, 0], [1, 1]]),
    "sprinkle": dict(n=3, dim=2, box=BOX, seed=0),
    "random-dag": dict(labels=["a", "b", "c"], n=3, edge_prob="1/2", seed=0),
}


def as_json(kind, fields):
    """The JSON recipe of ``GeneratorSpec(kind=kind, **fields)``: only two keys are named otherwise."""
    return {"kind": kind, **{{"labels": "events", "edge_prob": "p"}.get(k, k): v for k, v in fields.items()}}


def refusal(call) -> str:
    with pytest.raises(InputError) as got:
        call()
    return str(got.value)


# Per recipe field: values GeneratorSpec itself refuses.
SPEC_REFUSES = {
    ("explicit", "labels"): [5, "ab", ["a", 1], ["a", ""], [None]],
    ("explicit", "pairs"): [5, [["a"]], [["a", 1]], [["a", ""]], ["ab"]],
    ("minkowski", "labels"): [["a", 2]],
    ("minkowski", "points"): [5, ["00", "11"], [[0, "x"], [1, 1]]],
    ("sprinkle", "box"): [5, ["01", "01"], [[0, 1], [0]]],
    ("sprinkle", "seed"): [-1, SEED_SPAN, 7.9, "7"],
    ("random-dag", "seed"): [1.5, True],
}
# Per recipe field: values only the builder refuses, at ``generate``.
BUILDER_REFUSES = {
    ("random-dag", "edge_prob"): ["3/2", "x"],
    ("sprinkle", "box"): [[[0, 1]], [[1, 0], [0, 1]]],
    ("explicit", "labels"): [[], ["a", "a"]],
    ("explicit", "pairs"): [[["a", "c"]]],
}


def field_cases(table):
    return [(kind, field, value) for (kind, field), values in table.items() for value in values]


@pytest.mark.parametrize(("kind", "field", "value"), field_cases(SPEC_REFUSES))
def test_json_and_api_recipes_refuse_a_field_alike(kind, field, value):
    fields = {**RECIPES[kind], field: value}
    expected = refusal(lambda: GeneratorSpec(kind=kind, **fields))
    assert refusal(lambda: generator_spec_from_jsonable(as_json(kind, fields))) == expected


@pytest.mark.parametrize(("kind", "field", "value"), field_cases(BUILDER_REFUSES))
def test_json_and_api_recipes_refuse_at_generate_alike(kind, field, value):
    fields = {**RECIPES[kind], field: value}
    expected = refusal(lambda: generate(GeneratorSpec(kind=kind, **fields)))
    assert refusal(lambda: space_from_jsonable(as_json(kind, fields))) == expected


@pytest.mark.parametrize(("kind", "field"), [(kind, field) for kind in RECIPES for field in RECIPES[kind]])
def test_a_missing_recipe_field_is_asked_for_by_its_spec_name(kind, field):
    fields = {name: value for name, value in RECIPES[kind].items() if name != field}
    if field == "labels" and kind != "explicit":  # optional: default labels
        assert generator_spec_from_jsonable(as_json(kind, fields)) == GeneratorSpec(kind=kind, **fields)
        return
    expected = f"{kind} generator needs {field}"
    assert refusal(lambda: GeneratorSpec(kind=kind, **fields, **{field: None})) == expected
    assert refusal(lambda: generator_spec_from_jsonable(as_json(kind, fields))) == expected


# GeneratorSpec's counts: what ``_check_count`` calls each and its least value, as the
# builders do.  Not in COUNT_TAKERS: a None count is malformed there, while a None spec
# field means absent and is asked for.
SPEC_COUNTS = {
    ("random-dag", "n"): ("event count", 1),
    ("sprinkle", "n"): ("event count", 1),
    ("sprinkle", "dim"): ("sprinkle dimension (time plus space)", 2),
}
SPEC_COUNT_CALLS = [
    lambda value, kind=kind, field=field: GeneratorSpec(kind=kind, **{**RECIPES[kind], field: value})
    for kind, field in SPEC_COUNTS
]


@pytest.mark.parametrize("value", [1.5, True, "3", "below"])
@pytest.mark.parametrize(("kind", "field"), SPEC_COUNTS)
def test_spec_counts_are_refused_as_the_builders_refuse_them(kind, field, value):
    what, least = SPEC_COUNTS[kind, field]
    value = least - 1 if value == "below" else value
    fields = {**RECIPES[kind], field: value}
    expected = refusal(lambda: _check_count(what, value, least))
    assert refusal(lambda: GeneratorSpec(kind=kind, **fields)) == expected
    assert refusal(lambda: generator_spec_from_jsonable(as_json(kind, fields))) == expected


# The same events as CHAIN, relabeled: every size check passes, only the labels differ.
OTHER = explicit_space(["x", "y", "z"], [])
OTHER_UNIFORM = uniform_measure(OTHER.events)

# Every public entry point that takes two of a space, a measure, a coupling
# and a time function, called with one of them on OTHER's events.
EVENT_SET_TAKERS = {
    "tv_distance": lambda: tv_distance(UNIFORM, OTHER_UNIFORM),
    "convex_combination": lambda: convex_combination(0, UNIFORM, OTHER_UNIFORM),
    "integrate": lambda: integrate(UNIFORM, rank_time_function(OTHER)),
    "product_coupling": lambda: product_coupling(UNIFORM, OTHER_UNIFORM),
    "compose_couplings": lambda: compose_couplings(identity_coupling(UNIFORM), identity_coupling(OTHER_UNIFORM)),
    "mix_couplings": lambda: mix_couplings(0, identity_coupling(UNIFORM), identity_coupling(OTHER_UNIFORM)),
    "decide_k_causal": lambda: decide_k_causal(CHAIN, UNIFORM, OTHER_UNIFORM),
    "strassen_check": lambda: strassen_check(CHAIN, OTHER_UNIFORM, UNIFORM),
    "condition2_check": lambda: condition2_check(CHAIN, UNIFORM, OTHER_UNIFORM),
    "condition3_check": lambda: condition3_check(CHAIN, OTHER_UNIFORM, UNIFORM),
    "condition4_check": lambda: condition4_check(CHAIN, UNIFORM, OTHER_UNIFORM),
    "condition5_check": lambda: condition5_check(CHAIN, OTHER_UNIFORM, UNIFORM),
    "future_volume_timefn": lambda: future_volume_timefn(CHAIN, OTHER_UNIFORM, 1, []),
    "random_forward_push": lambda: random_forward_push(random.Random(0), CHAIN, OTHER_UNIFORM),
    "closedness_trial": lambda: closedness_trial(CHAIN, UNIFORM, UNIFORM, OTHER_UNIFORM, OTHER_UNIFORM),
    "implication_chain_trial": lambda: implication_chain_trial(CHAIN, UNIFORM, OTHER_UNIFORM),
}


@pytest.mark.parametrize("taker", EVENT_SET_TAKERS)
def test_event_set_takers_refuse_other_events_alike(taker):
    with pytest.raises(InputError) as expected:
        _require_same_events(CHAIN, OTHER, kinds=(CausalSpace, CausalSpace))
    with pytest.raises(InputError) as got:
        EVENT_SET_TAKERS[taker]()
    assert str(got.value) == str(expected.value)


def test_event_set_predicates_answer_false():
    # The marginals of the identity coupling on OTHER equal UNIFORM's weights.
    assert verify_coupling(CHAIN, identity_coupling(UNIFORM), UNIFORM, UNIFORM)
    assert not verify_coupling(CHAIN, identity_coupling(OTHER_UNIFORM), UNIFORM, UNIFORM)
    assert not verify_coupling(CHAIN, identity_coupling(UNIFORM), OTHER_UNIFORM, UNIFORM)
    assert not verify_coupling(CHAIN, identity_coupling(UNIFORM), UNIFORM, OTHER_UNIFORM)
    assert is_strictly_monotone(CHAIN, rank_time_function(CHAIN))
    assert not is_strictly_monotone(CHAIN, rank_time_function(OTHER))


# Constructors given a container of the wrong shape: each refuses it at its own check.
@pytest.mark.parametrize(
    "call",
    [
        lambda: Coupling(CHAIN.events, ((0, 1),)),
        lambda: Measure(CHAIN.events, None),
        lambda: TimeFunction(CHAIN.events, 5),
        lambda: CausalRelation(1, None),
        lambda: CausalRelation(1, (None,)),
        lambda: TimeFunction(CHAIN.events, "123"),
        lambda: Measure(explicit_space(["a", "b"], []).events, "10"),
        lambda: Measure(explicit_space(["a", "b"], []).events, b"\x00\x01"),
        lambda: EventSet(labels="ab"),
        lambda: minkowski_space(["00", "11"]),
        lambda: EventSet(labels=5),
        lambda: EventSet(labels=("a",), coords=5),
        lambda: minkowski_space(None),
        lambda: sprinkle_space(3, 2, None, 1),
        lambda: sprinkle_space(3, 2, [[0, 1], [0]], 1),
        lambda: explicit_space(["a", "b"], [("a",)]),
        lambda: explicit_space(["a", "b"], None),
        lambda: TrialConfig(suites=None),
        lambda: future_set(CHAIN, [["a"]]),
        lambda: integrate(UNIFORM, None),
        lambda: integrate(UNIFORM, 5),
        lambda: integrate(UNIFORM, {"a": 1, "b": 2, "c": 3, "zz": 4}),
        lambda: integrate(UNIFORM, [1, 2, 3]),
        lambda: measure(CHAIN.events, None),
        lambda: coupling(CHAIN.events, None),
        lambda: coupling(CHAIN.events, {"ab": 1}),
        lambda: coupling(CHAIN.events, {("a", "b", "c"): 1}),
        lambda: time_function(CHAIN, None),
        lambda: future_set(CHAIN, None),
        lambda: future_set(CHAIN, "ab"),
        lambda: measure_of(UNIFORM, "ab"),
    ],
    ids=[
        "Coupling pair entry",
        "Measure None",
        "TimeFunction int",
        "CausalRelation None",
        "CausalRelation None row",
        "TimeFunction str",
        "Measure str",
        "Measure bytes",
        "EventSet str labels",
        "minkowski_space str points",
        "EventSet int labels",
        "EventSet int coords",
        "minkowski_space None",
        "sprinkle_space None box",
        "sprinkle_space short box side",
        "explicit_space short pair",
        "explicit_space None pairs",
        "TrialConfig None suites",
        "unhashable label",
        "integrate None",
        "integrate int",
        "integrate unknown label",
        "integrate list",
        "measure None",
        "coupling None",
        "coupling str pair",
        "coupling triple key",
        "time_function None",
        "future_set None",
        "future_set str",
        "measure_of str",
    ],
)
def test_malformed_containers_are_input_errors(call):
    with pytest.raises(InputError):
        call()


PAIR = EventSet(labels=("a", "b"))
HALF = Fraction(1, 2)

# Each constructor or builder that takes a sequence, and a tuple it accepts there.
SEQUENCE_TAKERS = {
    "EventSet labels": (lambda v: EventSet(labels=v), ("a", "b")),
    "EventSet coords": (lambda v: EventSet(labels=("a", "b"), coords=v), ((0, 0), (1, 1))),
    "CausalRelation": (lambda v: CausalRelation(2, v), (3, 2)),
    "Measure": (lambda v: Measure(PAIR, v), (HALF, HALF)),
    "TimeFunction": (lambda v: TimeFunction(PAIR, v), (0, 1)),
    "Coupling": (lambda v: Coupling(PAIR, v), ((0, 0, HALF), (1, 1, HALF))),
    "explicit_space labels": (lambda v: explicit_space(v, [("a", "b")]), ("a", "b")),
    "explicit_space pairs": (lambda v: explicit_space(["a", "b"], v), (("a", "b"),)),
    "minkowski_space points": (minkowski_space, ((0, 0), (1, 1))),
    "minkowski_space labels": (lambda v: minkowski_space([[0, 0], [1, 1]], labels=v), ("a", "b")),
    "sprinkle_space box": (lambda v: sprinkle_space(3, 2, v, 0), ((0, 1), (-1, 1))),
    "sprinkle_space labels": (lambda v: sprinkle_space(2, 2, BOX, 0, labels=v), ("a", "b")),
    "random_dag_space labels": (lambda v: random_dag_space(2, 1, 0, labels=v), ("a", "b")),
    "generate pairs": (lambda v: generate(GeneratorSpec(kind="explicit", labels=("a", "b"), pairs=v)), (("a", "b"),)),
    "GeneratorSpec labels": (lambda v: generate(GeneratorSpec(kind="explicit", labels=v, pairs=())), ("a", "b")),
    "GeneratorSpec points": (lambda v: generate(GeneratorSpec(kind="minkowski", points=v)), ((0, 0), (1, 1))),
    "GeneratorSpec box": (lambda v: generate(GeneratorSpec(kind="sprinkle", n=3, dim=2, box=v, seed=0)), ((0, 1), (-1, 1))),
    "TrialConfig": (lambda v: TrialConfig(suites=v), ("lemma6", "minguzzi")),
    "TrialReport": (lambda v: TrialReport(TrialConfig(trials=2), v, ()), (("lemma6", 1, 1),)),
    "coupling_from_jsonable": (lambda v: coupling_from_jsonable({"pairs": v}, PAIR), (("a", "b", 1),)),
}

# The same sequence as a tuple, a list, a generator, and with its entries as lists too.
SEQUENCE_FORMS = {
    "list": list,
    "generator": lambda value: (x for x in value),
    "nested lists": lambda value: [list(x) if isinstance(x, tuple) else x for x in value],
}


@pytest.mark.parametrize("form", SEQUENCE_FORMS)
@pytest.mark.parametrize("taker", SEQUENCE_TAKERS)
def test_any_iterable_builds_what_its_tuple_builds(taker, form):
    build, value = SEQUENCE_TAKERS[taker]
    assert build(SEQUENCE_FORMS[form](value)) == build(value)


def test_generator_and_array_arguments():
    assert Coupling(PAIR, ((i, i, "1/2") for i in range(2))) == identity_coupling(uniform_measure(PAIR))
    assert EventSet(labels=np.array(["a", "b"])).labels == ("a", "b")
    assert explicit_space(np.array(["a", "b"]), [("a", "b")]) == explicit_space(("a", "b"), [("a", "b")])


# Values that are not sequences of the expected shape: scalars, huge and
# non-finite numbers, strings, bytes, mappings, one-shot generators of
# numbers, and nested lists of any arity, some of whose entries are lists.
not_sequences = (
    st.none()
    | st.integers(-3, 3)
    | st.integers(min_value=2**64, max_value=2**200)
    | st.just(10**5000)
    | st.just(float("nan"))
    | st.text(alphabet="ab01", max_size=3)
    | st.binary(max_size=3)
    | st.dictionaries(st.sampled_from(["a", "b", 0]), st.integers(0, 2), max_size=2)
    | st.lists(st.integers(-1, 3), max_size=3).map(lambda xs: (x for x in xs))
    | st.lists(st.lists(st.integers(-1, 3) | st.lists(st.integers(0, 1), max_size=1), max_size=4), max_size=3)
)

# Besides the takers above: space specs whose keys hold non-JSON values.
SPEC_TAKERS = {
    "space_from_jsonable events": lambda v: space_from_jsonable({"kind": "explicit", "events": v, "pairs": []}),
    "space_from_jsonable points": lambda v: space_from_jsonable({"kind": "minkowski", "points": v}),
    "space_from_jsonable box": lambda v: space_from_jsonable({"kind": "sprinkle", "n": 2, "dim": 2, "box": v, "seed": 0}),
}
SEQUENCE_CALLS = {name: build for name, (build, _) in SEQUENCE_TAKERS.items()} | SPEC_TAKERS


@settings(deadline=None, max_examples=60)
@given(value=not_sequences)
@pytest.mark.parametrize("taker", SEQUENCE_CALLS)
def test_sequence_takers_raise_only_toolkit_errors(taker, value):
    try:
        SEQUENCE_CALLS[taker](value)
    except KCausalError:
        pass


def test_only_structure_refuses_strings_as_containers():
    # ``structure._sequence`` and ``structure._mapping`` are the container rules; other
    # modules call them instead of testing for ``str``/``bytes`` or abstract container classes.
    package = Path(kcausal.__file__).resolve().parent
    users = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                names = {getattr(kind, "id", getattr(kind, "attr", None)) for kind in kinds}  # Name or a.b.Name
                if names & {"bytes", "Iterable", "Sequence", "Mapping"} or ("str" in names and len(names) > 1):
                    users.add(path.name)
    assert users == {"structure.py"}


PAIR_SPACE = explicit_space(["a", "b"], [("a", "b")])

# Each label-keyed mapping parameter, and a mapping it accepts there.
MAPPING_TAKERS = {
    "measure weights": (lambda v: measure(PAIR, v), {"a": HALF, "b": HALF}),
    "coupling weights": (lambda v: coupling(PAIR, v), {("a", "a"): HALF, ("a", "b"): HALF}),
    "time_function values": (lambda v: time_function(PAIR_SPACE, v), {"a": 0, "b": 1}),
    "integrate f": (lambda v: integrate(uniform_measure(PAIR), v), {"a": 0, "b": 1}),
}

# Each label-subset parameter, and a subset it accepts there.
SUBSET_TAKERS = {
    "future_set X": (lambda v: future_set(CHAIN, v), ("b",)),
    "past_set X": (lambda v: past_set(CHAIN, v), ("b",)),
    "is_upset X": (lambda v: is_upset(CHAIN, v), ("b", "c")),
    "lemma_complement_check X": (lambda v: lemma_complement_check(CHAIN, v), ("a", "c")),
    "measure_of X": (lambda v: measure_of(UNIFORM, v), ("a", "c")),
    "indicator_time_function subset": (lambda v: indicator_time_function(CHAIN, v), ("b", "c")),
    "future_volume_timefn y": (lambda v: future_volume_timefn(CHAIN, UNIFORM, HALF, v), ("a", "b")),
}

# The same subset as a list, a generator, a set and a frozenset, each with one label repeated.
SUBSET_FORMS = {"list": list, "generator": lambda v: (x for x in v), "set": set, "frozenset": frozenset}


@pytest.mark.parametrize("form", SUBSET_FORMS)
@pytest.mark.parametrize("taker", SUBSET_TAKERS)
def test_any_iterable_of_labels_reads_as_its_subset(taker, form):
    build, value = SUBSET_TAKERS[taker]
    assert build(SUBSET_FORMS[form](value + value[:1])) == build(value)


# Keys and values a label-keyed mapping may hold by mistake.
hostile_mappings = st.dictionaries(
    st.sampled_from(["a", "b", "ab", ("a", "b"), ("a", "a"), ("a", "b", "c"), 0, None, b"a"]),
    not_sequences | st.floats(allow_nan=True) | st.sampled_from(["1/2", "x", "1e400"]),
    max_size=3,
)
LABEL_CALLS = {name: build for name, (build, _) in (MAPPING_TAKERS | SUBSET_TAKERS).items()}


@settings(deadline=None, max_examples=60)
@given(value=not_sequences | hostile_mappings)
@pytest.mark.parametrize("taker", LABEL_CALLS)
def test_mapping_and_subset_takers_raise_only_toolkit_errors(taker, value):
    try:
        LABEL_CALLS[taker](value)
    except KCausalError:
        pass


def test_integrate_reads_values_exactly():
    uniform = uniform_measure(PAIR)
    assert integrate(uniform, {"a": 0.1, "b": 0.2}) == (Fraction(0.1) + Fraction(0.2)) / 2
    assert type(integrate(uniform, {"a": 0.1, "b": 0.2})) is Fraction
    assert integrate(uniform, {"a": "1/2", "b": "1"}) == Fraction(3, 4)


def test_generator_spec_reads_its_sequences_once():
    spec = GeneratorSpec(kind="explicit", labels=iter(("a", "b")), pairs=(p for p in [("a", "b")]))
    assert generate(spec) == generate(spec) == explicit_space(["a", "b"], [("a", "b")])
    spec = GeneratorSpec(kind="sprinkle", n=4, dim=2, box=(iter(side) for side in BOX), seed=3)
    assert generate(spec) == generate(spec) == sprinkle_space(4, 2, BOX, 3)


def test_labels_are_plain_strings():
    space = explicit_space(np.array(["a", "b"]), [("a", "b"), ("b", "a")])
    with pytest.raises(NotStablyCausalError, match="events 'a' and 'b' precede each other"):
        rank_time_function(space)
    emitted = space_to_jsonable(space)
    labels = emitted["events"] + [label for pair in emitted["relation"]["pairs"] for label in pair]
    assert labels and all(type(label) is str for label in labels)


IDENTITY = identity_coupling(UNIFORM)

# Every call that takes two or more of a space, a measure, a coupling and a
# time function, with arguments it accepts.
OBJECT_CALLS = {
    tv_distance: dict(mu=UNIFORM, nu=UNIFORM),
    convex_combination: dict(lam=HALF, mu=UNIFORM, nu=UNIFORM),
    integrate: dict(mu=UNIFORM, f=rank_time_function(CHAIN)),
    product_coupling: dict(mu=UNIFORM, nu=UNIFORM),
    compose_couplings: dict(omega1=IDENTITY, omega2=IDENTITY),
    mix_couplings: dict(lam=HALF, omega1=IDENTITY, omega2=IDENTITY),
    decide_k_causal: dict(space=CHAIN, mu=UNIFORM, nu=UNIFORM),
    strassen_check: dict(space=CHAIN, mu=UNIFORM, nu=UNIFORM),
    condition2_check: dict(space=CHAIN, mu=UNIFORM, nu=UNIFORM),
    condition3_check: dict(space=CHAIN, mu=UNIFORM, nu=UNIFORM),
    condition4_check: dict(space=CHAIN, mu=UNIFORM, nu=UNIFORM),
    condition5_check: dict(space=CHAIN, mu=UNIFORM, nu=UNIFORM),
    future_volume_timefn: dict(space=CHAIN, eta=UNIFORM, lam=HALF, y=()),
    random_forward_push: dict(rng=random.Random(0), space=CHAIN, mu=UNIFORM),
    closedness_trial: dict(space=CHAIN, mu=UNIFORM, nu=UNIFORM, mu_prime=UNIFORM, nu_prime=UNIFORM, steps=1),
    implication_chain_trial: dict(space=CHAIN, mu=UNIFORM, nu=UNIFORM),
}
# Each of their object parameters, called with the value there.
OBJECT_TAKERS = {
    f"{func.__name__} {name}": lambda v, func=func, kwargs=kwargs, name=name: func(**{**kwargs, name: v})
    for func, kwargs in OBJECT_CALLS.items()
    for name, arg in kwargs.items()
    if hasattr(arg, "events")
}


@pytest.mark.parametrize("value", [None, 5, "ab", PAIR], ids=["None", "int", "str", "EventSet"])
@pytest.mark.parametrize("taker", OBJECT_TAKERS)
def test_object_takers_refuse_non_objects(taker, value):
    with pytest.raises(InputError):
        OBJECT_TAKERS[taker](value)


# One toolkit object of each kind, all on CHAIN's events.
KINDS = {"space": CHAIN, "measure": UNIFORM, "coupling": IDENTITY, "time function": rank_time_function(CHAIN)}


def wrong_kinds(calls: dict) -> list[tuple[str, str]]:
    """``(taker, kind)`` for each object parameter of ``calls`` and each kind other than its argument's."""
    return [
        (f"{func.__name__} {name}", kind)
        for func, kwargs in calls.items()
        for name, arg in kwargs.items()
        if hasattr(arg, "events")
        for kind, value in KINDS.items()
        if type(value) is not type(arg)
    ]


@pytest.mark.parametrize("taker, kind", wrong_kinds(OBJECT_CALLS))
def test_object_takers_refuse_other_kinds(taker, kind):
    with pytest.raises(InputError):
        OBJECT_TAKERS[taker](KINDS[kind])


# The two predicates, with arguments for which they answer True.
PREDICATE_CALLS = {
    verify_coupling: dict(space=CHAIN, omega=IDENTITY, mu=UNIFORM, nu=UNIFORM),
    is_strictly_monotone: dict(space=CHAIN, timefn=rank_time_function(CHAIN)),
}
# Each of their parameters, called with the value there.
PREDICATE_TAKERS = {
    f"{func.__name__} {name}": lambda v, func=func, kwargs=kwargs, name=name: func(**{**kwargs, name: v})
    for func, kwargs in PREDICATE_CALLS.items()
    for name in kwargs
}


@pytest.mark.parametrize("value", [None, 5, "ab", OTHER_UNIFORM], ids=["None", "int", "str", "other events"])
@pytest.mark.parametrize("taker", PREDICATE_TAKERS)
def test_predicates_answer_false_for_anything_on_other_events(taker, value):
    assert PREDICATE_TAKERS[taker](value) is False


@pytest.mark.parametrize("taker, kind", wrong_kinds(PREDICATE_CALLS))
def test_predicates_answer_false_for_other_kinds(taker, kind):
    assert PREDICATE_TAKERS[taker](KINDS[kind]) is False


@pytest.mark.parametrize("f", [{"a": 1, "b": 2, "c": 3}, rank_time_function(CHAIN)], ids=["mapping", "time function"])
@pytest.mark.parametrize("mu", [None, 5, "ab", PAIR], ids=["None", "int", "str", "EventSet"])
def test_integrate_checks_mu_on_both_forms(mu, f):
    expected = refusal(lambda: _require_same_events(mu, kinds=(Measure,)))
    assert refusal(lambda: integrate(mu, f)) == expected


# ``coupling``'s declared marginals, where ``None`` means "not declared".
IDENTITY_WEIGHTS = {(label, label): Fraction(1, 3) for label in CHAIN.events.labels}
DECLARED_MARGINALS = {
    f"coupling {name}": lambda v, name=name: coupling(CHAIN.events, IDENTITY_WEIGHTS, **{name: v})
    for name in ("mu", "nu")
}
# Values that are not a measure on CHAIN's events.
NOT_MARGINALS = {"int": 5, "str": "ab", "EventSet": PAIR, "other events": OTHER_UNIFORM}
NOT_MARGINALS.update((kind, value) for kind, value in KINDS.items() if kind != "measure")


@pytest.mark.parametrize("kind", NOT_MARGINALS)
@pytest.mark.parametrize("taker", DECLARED_MARGINALS)
def test_declared_marginals_are_checked_like_objects(taker, kind):
    value = NOT_MARGINALS[kind]
    expected = refusal(lambda: _require_same_events(IDENTITY, value, kinds=(Coupling, Measure)))
    assert refusal(lambda: DECLARED_MARGINALS[taker](value)) == expected
    assert DECLARED_MARGINALS[taker](UNIFORM) == DECLARED_MARGINALS[taker](None) == IDENTITY


# Public parameters no taker table above feeds, each with the reason.
EXEMPT_PARAMETERS = {
    # Single-object arguments: a value that is not a toolkit object fails at its
    # first attribute read.  A check per function would add a line to each; the
    # multi-object calls share ``_require_same_events``.
    "single object": [
        "CausalSpace events", "CausalSpace raw", "CausalSpace kplus", "Coupling events", "Measure events",
        "TimeFunction events", "TrialReport config", "certificate_to_jsonable cert", "coupling events",
        "coupling_from_jsonable events", "coupling_to_jsonable omega", "dirac events",
        "enumerate_time_functions space", "enumerate_upsets space", "future_set space",
        "generate spec", "identity_coupling mu", "indicator_time_function space", "is_stably_causal space",
        "is_upset space", "kplus_closure raw", "lemma_complement_check space", "marginals omega",
        "measure events", "measure_from_jsonable events", "measure_of mu", "measure_to_jsonable mu",
        "minguzzi_check space", "past_set space", "random_feasible_pair space", "random_measure events",
        "rank_time_function space", "report_to_jsonable report", "run_suite config", "sample_time_function space",
        "space_to_jsonable space", "time_function space", "timefn_from_jsonable space",
        "timefn_to_jsonable timefn", "uniform_measure events", "upset_masks space",
    ],
    # What the harness's own samplers are handed: its random generator and its size bound.
    "sampler": [
        "random_feasible_pair rng", "random_forward_push rng", "random_measure rng", "random_space rng",
        "random_space max_events",
    ],
    # Whole JSON documents: tests/test_readers.py feeds them arbitrary JSON values.
    "JSON reader": [
        "generator_spec_from_jsonable obj", "space_from_jsonable obj", "measure_from_jsonable obj",
        "coupling_from_jsonable obj", "timefn_from_jsonable obj",
    ],
    # Scalars each read by one check that ends in InputError: ``parse_rational`` for
    # rationals, ``index_of`` for labels, a membership test for names.
    "scalar": [
        "parse_rational value", "format_rational value", "convex_combination lam", "mix_couplings lam",
        "future_volume_timefn lam", "indicator_time_function epsilon", "random_dag_space edge_prob",
        "GeneratorSpec edge_prob", "dirac label", "minguzzi_check p", "minguzzi_check q", "GeneratorSpec kind",
        "space_to_jsonable relation", "condition4_check half_line", "condition4_check mode",
        "condition5_check mode", "Certificate verdict",
    ],
    # Built by ``decide_k_causal`` and ``run_suite``; their fields are results, not input.
    "result record": [
        "Certificate witness", "Certificate violator", "Certificate mu_B", "Certificate nu_kplus_B",
        "TrialReport failures", "chain_violations verdicts",
    ],
}

MARK = object()


def fed_parameters(calls) -> set[str]:
    """``"callable parameter"`` for each public parameter that ``calls`` hand ``MARK`` to."""
    public = {}
    for name in kcausal.__all__:
        obj = getattr(kcausal, name)
        code = getattr(obj.__init__ if isinstance(obj, type) else obj, "__code__", None)
        if code is not None:
            public[code] = name
    fed = set()

    def watch(frame, event, _):
        if event == "call" and frame.f_code in public:
            fed.update(f"{public[frame.f_code]} {p}" for p, v in frame.f_locals.items() if v is MARK)

    sys.setprofile(watch)
    try:
        for call in calls:
            try:
                call(MARK)
            except KCausalError:
                pass
    finally:
        sys.setprofile(None)
    return fed


def test_every_public_parameter_is_fed_or_exempt():
    callables = [getattr(kcausal, name) for name in kcausal.__all__]
    everything = {
        f"{func.__name__} {p}"
        for func in callables
        if callable(func) and not (isinstance(func, type) and issubclass(func, BaseException))
        for p in inspect.signature(func).parameters
    }
    tables = [
        SEED_TAKERS.values(),
        [call for _, _, call in COUNT_TAKERS.values()],
        SPEC_COUNT_CALLS,
        SEQUENCE_CALLS.values(),
        LABEL_CALLS.values(),
        OBJECT_TAKERS.values(),
        PREDICATE_TAKERS.values(),
        DECLARED_MARGINALS.values(),
    ]
    fed = fed_parameters([call for table in tables for call in table])
    exempt = {p for group in EXEMPT_PARAMETERS.values() for p in group}
    assert fed & exempt == set()
    assert everything - fed - exempt == set()
    assert (fed | exempt) - everything == set()
