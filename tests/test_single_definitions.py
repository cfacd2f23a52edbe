"""Every exhaustive bound and CLI default reads its one defining constant."""

from __future__ import annotations

import inspect
from dataclasses import fields

import pytest

from kcausal import (
    TrialConfig,
    condition2_check,
    condition3_check,
    condition4_check,
    condition5_check,
    enumerate_time_functions,
    enumerate_upsets,
    minguzzi_check,
    strassen_check,
    upset_masks,
)
from kcausal.cli import _build_parser
from kcausal.structure import DEFAULT_UPSET_BOUND
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
