"""Spans recorded around the calls into each kcausal module, and their self times.

The tracer wraps public functions at the names their callers look up (for
example ``kcausal.cli.decide_k_causal`` and ``kcausal.harness.decide_k_causal``)
and restores the originals afterwards, so nothing in the package is edited.
Each span is ``[name, start, end, parent]``; a layer's self time is its span's
duration minus the part of that interval its child spans cover.

Counters that need work of their own (closure pairs, links, related support
pairs) are not computed inside the wrappers: the wrapper keeps the call's
arguments and result, and :func:`count_calls` counts them after the pass, so
counting never lands inside a timed span.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from perfbench.orders import links_count

# (defining module, function, span name). A span name of None means the name
# is chosen from the result (decide_k_causal: feasible or infeasible).
TARGETS = (
    ("structure", "space_from_jsonable", "structure.generate"),
    ("structure", "sprinkle_space", "structure.generate"),
    ("structure", "random_dag_space", "structure.generate"),
    ("structure", "kplus_closure", "structure.closure"),
    ("structure", "enumerate_upsets", "structure.upsets"),
    ("measures", "measure_from_jsonable", "measures.parse"),
    ("transport", "decide_k_causal", None),
    ("transport", "certificate_to_jsonable", "transport.certificate"),
    ("transport", "coupling_to_jsonable", "transport.certificate"),
    ("transport", "strassen_check", "transport.strassen"),
    ("transport", "condition2_check", "transport.condition2"),
    ("transport", "condition3_check", "transport.condition3"),
    ("timefunctions", "sample_time_function", "timefunctions.sample"),
    ("timefunctions", "rank_time_function", "timefunctions.rank"),
    ("timefunctions", "enumerate_time_functions", "timefunctions.enumerate"),
    ("timefunctions", "minguzzi_check", "timefunctions.enumerate"),
    ("timefunctions", "condition4_check", "timefunctions.condition4"),
    ("timefunctions", "condition5_check", "timefunctions.condition5"),
)

CALLER_MODULES = ("cli", "structure", "measures", "transport", "timefunctions", "harness")


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its direct children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(idx)
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[idx], key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_self_times(spans) -> dict[str, float]:
    """Self time summed by span name."""
    totals: dict[str, float] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name] = totals.get(name, 0.0) + own
    return totals


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: list[tuple[str, tuple, object]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str | None, func_name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name or "transport.decide")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name is None:
                self.spans[idx][0] = (
                    "transport.decide_feasible" if result.feasible else "transport.decide_infeasible"
                )
            self.calls.append((func_name, args, result))
            return result

        return traced


@contextmanager
def patched(tracer: Tracer, package):
    """Replace every target at each name a kcausal module binds it to; restore on exit."""
    modules = [package] + [getattr(package, name) for name in CALLER_MODULES]
    saved = []
    try:
        for home, func_name, span_name in TARGETS:
            original = getattr(getattr(package, home), func_name)
            wrapper = tracer.wrap(original, span_name, func_name)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    saved.append((module, func_name, original))
                    setattr(module, func_name, wrapper)
        yield
    finally:
        for module, func_name, original in reversed(saved):
            setattr(module, func_name, original)


def count_calls(calls, links_cache: dict) -> dict[str, int]:
    """Per-pass counters from the recorded calls; links are cached per closure."""
    counts = dict.fromkeys(
        (
            "structure.events",
            "structure.closure_pairs",
            "structure.links",
            "measures.support",
            "measures.den_bits",
            "transport.related_support_pairs",
            "transport.witness_entries",
            "transport.violator_size",
            "timefunctions.extensions",
        ),
        0,
    )
    for func_name, args, result in calls:
        if func_name == "kplus_closure":
            rows = result.rows
            if rows not in links_cache:
                links_cache[rows] = links_count(rows)
            counts["structure.events"] += result.n
            counts["structure.closure_pairs"] += sum(row.bit_count() for row in rows)
            counts["structure.links"] += links_cache[rows]
        elif func_name == "measure_from_jsonable":
            counts["measures.support"] += sum(1 for w in result.weights if w)
            bits = result._common_denominator.bit_length()
            counts["measures.den_bits"] = max(counts["measures.den_bits"], bits)
        elif func_name == "decide_k_causal":
            space, mu, nu = args[:3]
            rows = space.kplus.rows
            target = nu.support_mask()
            counts["transport.related_support_pairs"] += sum(
                (rows[i] & target).bit_count() for i, w in enumerate(mu.weights) if w
            )
            if result.feasible:
                counts["transport.witness_entries"] += len(result.witness.entries)
            else:
                counts["transport.violator_size"] += len(result.violator)
        elif func_name == "enumerate_time_functions":
            counts["timefunctions.extensions"] += len(result)
    return counts
