"""Order computations the benchmark makes itself, independent of kcausal's code.

Relations are bit-packed rows as in kcausal: bit ``j`` of ``rows[i]`` means
event ``i`` precedes event ``j``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import numpy as np

# Sprinkle coordinates are drawn on this many grid steps per box side, as the
# ``sprinkle`` spec format defines them.
SPRINKLE_GRID = 10**6
# Rows of the cone relation computed per block; bounds the temporaries to
# CONE_BLOCK x n int64 each.
CONE_BLOCK = 256


def popcount(x: int) -> int:
    return bin(x).count("1")


def default_labels(n: int) -> list[str]:
    """Default event labels of a generated space: ``e0``.. zero-padded to one width."""
    width = len(str(n - 1)) if n > 1 else 1
    return [f"e{i:0{width}d}" for i in range(n)]


def sprinkle_points(n: int, box, seed: int) -> list[tuple[Fraction, ...]]:
    """The points a ``sprinkle`` spec places, drawn coordinate by coordinate from ``Random(seed)``."""
    rng = random.Random(seed)
    bounds = [(Fraction(lo), Fraction(hi)) for lo, hi in box]
    return [
        tuple(lo + (hi - lo) * Fraction(rng.randrange(SPRINKLE_GRID + 1), SPRINKLE_GRID) for lo, hi in bounds)
        for _ in range(n)
    ]


def cone_rows(points) -> list[int]:
    """Closed-cone relation, exactly: ``q`` follows ``p`` iff ``dt >= 0`` and ``dt^2 >= |dx|^2``.

    Coordinates are scaled to one integer denominator, so no square root is
    taken, and rows are computed CONE_BLOCK at a time.
    """
    n = len(points)
    den = lcm(*(c.denominator for point in points for c in point))
    scaled = [[int(c * den) for c in point] for point in points]
    peak = max(abs(c) for point in scaled for c in point)
    if (2 * peak) ** 2 * len(scaled[0]) >= 2**63:
        raise ValueError("coordinates too fine for exact int64 cone tests")
    arr = np.array(scaled, dtype=np.int64)
    rows: list[int] = []
    for lo in range(0, n, CONE_BLOCK):
        block = arr[lo : lo + CONE_BLOCK]
        dt = arr[None, :, 0] - block[:, None, 0]
        sq = np.zeros_like(dt)
        for axis in range(1, arr.shape[1]):
            dx = arr[None, :, axis] - block[:, None, axis]
            sq += dx * dx
        packed = np.packbits((dt >= 0) & (dt * dt >= sq), axis=1, bitorder="little")
        rows.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return rows


def random_dag_rows(n: int, p, seed: int) -> list[int]:
    """The raw relation a ``random-dag`` spec defines: each ``i < j`` an edge with probability ``p``."""
    rng = random.Random(seed)
    prob = float(Fraction(p))
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < prob:
                rows[i] |= 1 << j
    return rows


def reference_space(spec: dict) -> tuple[list[str], list[int], list[int]]:
    """Labels, raw relation and closure of a space spec, built from the spec alone.

    Handles the spec shapes the benchmark writes: ``sprinkle``, ``random-dag``
    and an explicit event list with a pair list.
    """
    kind = spec.get("kind")
    if kind == "sprinkle":
        raw = cone_rows(sprinkle_points(spec["n"], spec["box"], spec["seed"]))
        # A cone relation is reflexive and transitive already.
        return default_labels(spec["n"]), raw, raw
    if kind == "random-dag":
        raw = random_dag_rows(spec["n"], spec["p"], spec["seed"])
        return default_labels(spec["n"]), raw, dag_closure(raw)
    names = list(spec["events"])
    index = {name: i for i, name in enumerate(names)}
    raw = [0] * len(names)
    for cause, effect in spec["relation"]["pairs"]:
        raw[index[cause]] |= 1 << index[effect]
    return names, raw, dag_closure(raw)


def dag_closure(raw_rows) -> list[int]:
    """Reflexive-transitive closure of an acyclic relation, by reachability DP.

    Processes events in reverse Kahn order, so each row is the union of the
    already-finished rows of its direct successors.
    """
    n = len(raw_rows)
    indeg = [0] * n
    succ = [[j for j in bits(row) if j != i] for i, row in enumerate(raw_rows)]
    for targets in succ:
        for j in targets:
            indeg[j] += 1
    order = [i for i in range(n) if indeg[i] == 0]
    for i in order:
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    if len(order) != n:
        raise ValueError("relation has a cycle")
    reach = [0] * n
    for i in reversed(order):
        row = 1 << i
        for j in succ[i]:
            row |= reach[j]
        reach[i] = row
    return reach


def links_count(rows) -> int:
    """Number of covering pairs (links) of a reflexive-transitive acyclic relation.

    Events are relabelled in a topological order (a strictly later event has a
    strictly smaller future), so the lowest uncovered bit of an event's strict
    future is always one of its links; each link found covers its own future.
    The work is one big-integer operation per link.
    """
    n = len(rows)
    if n == 1:
        return 0
    nbytes = (n + 7) // 8
    order = sorted(range(n), key=lambda i: -popcount(rows[i]))
    packed = np.frombuffer(b"".join(rows[i].to_bytes(nbytes, "little") for i in order), dtype=np.uint8)
    dense = np.unpackbits(packed.reshape(n, nbytes), axis=1, bitorder="little")[:, :n]
    dense = dense[:, order]
    relabelled = [
        int.from_bytes(np.packbits(dense[k], bitorder="little").tobytes(), "little") for k in range(n)
    ]
    total = 0
    for k, row in enumerate(relabelled):
        candidates = row & ~(1 << k)
        covered = 0
        rest = candidates
        while rest:
            low = rest & -rest
            total += 1
            covered |= relabelled[low.bit_length() - 1]
            rest = candidates & ~covered
    return total


def bits(mask: int):
    """Set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
