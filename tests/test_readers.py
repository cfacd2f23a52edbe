"""JSON readers on arbitrary JSON-shaped input: toolkit errors only, never a crash.

The CLI maps every toolkit error to a stable exit code, so a reader that lets
``TypeError``, ``KeyError``, ``OverflowError`` or ``RecursionError`` escape
turns a malformed file into a traceback.  Integers and floats are kept small
so that no generated spec describes a large space.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcausal import (
    InputError,
    KCausalError,
    coupling_from_jsonable,
    explicit_space,
    measure_from_jsonable,
    parse_rational,
    space_from_jsonable,
    timefn_from_jsonable,
)

LABELS = ["a", "b", "c"]
SPEC_KEYS = ["kind", "events", "relation", "pairs", "points", "n", "dim", "box", "seed", "p"]
KINDS = ["explicit", "minkowski", "sprinkle", "random-dag", "bogus"]

leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=9)
    | st.floats(min_value=-4, max_value=4)
    | st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e300])
    | st.text(alphabet="abcxe/.-", max_size=4)
    | st.sampled_from(LABELS + KINDS + ["1/2", "1/3", "0", "1", "-1", "1/0", "1e400", "0.5"])
)
keys = st.sampled_from(LABELS + SPEC_KEYS) | st.text(alphabet="abcx", max_size=3)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
    max_leaves=16,
)


@st.composite
def spacetime_specs(draw):
    obj = draw(st.dictionaries(st.sampled_from(SPEC_KEYS), json_values, max_size=6))
    if draw(st.booleans()):
        obj["kind"] = draw(st.sampled_from(KINDS))
    return obj


def mapping_of(field):
    return st.builds(lambda m: {field: m}, st.dictionaries(keys, json_values, max_size=4))


def reads_or_refuses(read, *args):
    """Call a reader; a toolkit error is a refusal, any other exception fails."""
    try:
        read(*args)
    except KCausalError:
        pass


READER_SETTINGS = settings(deadline=None)


@READER_SETTINGS
@given(spacetime_specs() | json_values)
@example({"kind": "explicit", "events": 5, "pairs": []})
@example({"kind": "minkowski", "points": [5, 6]})
@example({"kind": "random-dag", "n": 3, "p": "1e400", "seed": 0})
@example({"kind": "sprinkle", "n": float("inf"), "dim": 2, "box": [[0, 1], [0, 1]], "seed": 0})
@example({"kind": "random-dag", "n": 6, "p": 0.4, "seed": 7.9})
@example({"kind": "random-dag", "n": "6", "p": 0.4, "seed": 7})
@example({"kind": "random-dag", "n": True, "p": 0.4, "seed": 7})
@example({"kind": "explicit", "events": [1, None], "pairs": []})
def test_space_reader(obj):
    reads_or_refuses(space_from_jsonable, obj)


@READER_SETTINGS
@given(mapping_of("weights") | json_values)
@example(json.loads('{"weights": {"a": 1e400}}'))
def test_measure_reader(obj):
    reads_or_refuses(measure_from_jsonable, obj, explicit_space(LABELS, []).events)


pair_entries = st.lists(st.sampled_from(LABELS) | json_values, min_size=2, max_size=4)


@READER_SETTINGS
@given(st.builds(lambda pairs: {"pairs": pairs}, st.lists(pair_entries, max_size=4)) | json_values)
@example({"pairs": [["a", "b", 1e400]]})
def test_coupling_reader(obj):
    reads_or_refuses(coupling_from_jsonable, obj, explicit_space(LABELS, []).events)


@READER_SETTINGS
@given(mapping_of("values") | json_values, st.booleans())
@example({"values": {"a": 0, "b": float("inf"), "c": 2}}, False)
def test_timefn_reader(obj, cyclic):
    pairs = [("a", "b"), ("b", "a")] if cyclic else [("a", "b"), ("b", "c")]
    reads_or_refuses(timefn_from_jsonable, obj, explicit_space(LABELS, pairs))


def test_decimal_exponent_beyond_the_digit_limit_is_refused():
    # Building 10**exponent takes time that grows with the exponent; the
    # interpreter's integer digit limit bounds it.
    limit = sys.get_int_max_str_digits()
    assert parse_rational(f"1e-{limit}") == Fraction(1, 10**limit)
    for text in ("1e1000000", "1E-1000000", f"2.5e+{limit + 1}"):
        with pytest.raises(InputError):
            parse_rational(text)
