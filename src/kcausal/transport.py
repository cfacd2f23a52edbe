"""Couplings and the decision procedure for causal precedence of measures.

``decide_k_causal`` answers whether one measure can be transported onto
another along the closed causal order, by exact max-flow over the order's
link graph (its covering pairs) on the support events.  A feasible answer
carries a witness coupling; an infeasible one carries a violating event
subset extracted from the min cut, falsifying the marginal inequality
``mu(B) <= nu(future of B)``.  ``strassen_check`` is the independent
brute-force oracle: it tests that inequality and its dual on every subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import InputError, _shown
from .measures import Measure, _mixture_coefficient, format_rational, parse_rational
from .structure import (
    DEFAULT_UPSET_BOUND, CausalSpace, EventSet, _common_units, _is_integer, _labels, _mapping,
    _order_links, _reduced, _require_same_events, _scaled, _sequence, _SubsetTables,
)

__all__ = [
    "Coupling",
    "Certificate",
    "coupling",
    "identity_coupling",
    "product_coupling",
    "marginals",
    "verify_coupling",
    "compose_couplings",
    "mix_couplings",
    "decide_k_causal",
    "strassen_check",
    "condition2_check",
    "condition3_check",
    "coupling_from_jsonable",
    "coupling_to_jsonable",
    "certificate_to_jsonable",
]


@dataclass(frozen=True)
class Coupling:
    """Sparse joint probability vector over ordered event pairs.

    ``entries`` holds ``(cause index, effect index, weight)`` triples with
    strictly positive weights, sorted by index pair; total mass is exactly 1.
    """

    events: EventSet
    entries: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        n = len(self.events)
        try:
            entries = [(i, j, parse_rational(w)) for i, j, w in _sequence("coupling entries", self.entries)]
        except (TypeError, ValueError):  # an entry that is not iterable, or not three items
            raise InputError("coupling entries must be (cause index, effect index, weight) triples") from None
        seen = set()
        for i, j, w in entries:
            if not (_is_integer(i) and _is_integer(j) and 0 <= i < n and 0 <= j < n):
                raise InputError("coupling entry outside the event set")
            if (i, j) in seen:
                raise InputError(f"duplicate coupling entry for pair ({i}, {j})")
            seen.add((i, j))
            if w.numerator <= 0:
                raise InputError(f"coupling entry ({i}, {j}) must carry positive weight")
        object.__setattr__(self, "entries", tuple(sorted(entries)))
        den, (units,) = integer = _scaled([w for _, _, w in self.entries])
        object.__setattr__(self, "_integer_weights", integer)
        if sum(units) != den:
            raise InputError(f"coupling mass is {format_rational(Fraction(sum(units), den))}, expected exactly 1")

    @classmethod
    def _of_units(cls, events: EventSet, den: int, units: Mapping[tuple[int, int], int]) -> Coupling:
        """Coupling of weights ``units[i, j] / den`` from the package's own units, which sum to ``den``; zeros drop."""
        pairs = sorted(pair for pair, u in units.items() if u)
        omega = object.__new__(cls)
        den, (scaled,) = integer = _reduced(den, [units[pair] for pair in pairs])
        entries = tuple((i, j, Fraction(u, den)) for (i, j), u in zip(pairs, scaled))
        vars(omega).update(events=events, entries=entries, _integer_weights=integer)
        return omega

    @cached_property
    def _integer_marginals(self) -> tuple[int, list[int], list[int]]:
        """The entries' common denominator, and the row and column sums in its units."""
        den, (units,) = self._integer_weights
        rows = [0] * len(self.events)
        cols = rows.copy()
        for (i, j, _), u in zip(self.entries, units):
            rows[i] += u
            cols[j] += u
        return den, rows, cols


def _same_values(a_den: int, a: list[int], b_den: int, b: list[int]) -> bool:
    """True iff ``a[i] / a_den == b[i] / b_den`` at every index, by cross-multiplying."""
    return all(x * b_den == y * a_den for x, y in zip(a, b))


def coupling(
    events: EventSet,
    weights: Mapping[tuple[str, str], object],
    mu: Measure | None = None,
    nu: Measure | None = None,
) -> Coupling:
    """Coupling from a pair-to-weight mapping, checked against declared marginals."""
    weights = _mapping("coupling weights", weights)
    pairs = zip(_sequence("coupling pairs", weights.keys(), 2), weights.values())
    entries = ((events.index_of(c), events.index_of(e), parse_rational(w)) for (c, e), w in pairs)
    omega = Coupling(events=events, entries=((i, j, w) for i, j, w in entries if w))
    den, *sums = omega._integer_marginals
    for which, declared, units in zip(("first", "second"), (mu, nu), sums):
        if declared is not None:
            _require_same_events(omega, declared, kinds=(Coupling, Measure))
            declared_den, (weights,) = declared._integer_weights
            if not _same_values(den, units, declared_den, weights):
                raise InputError(f"{which} marginal does not match the declared measure")
    return omega


def identity_coupling(mu: Measure) -> Coupling:
    den, (units,) = mu._integer_weights
    return Coupling._of_units(mu.events, den, {(i, i): u for i, u in enumerate(units)})


def product_coupling(mu: Measure, nu: Measure) -> Coupling:
    _require_same_events(mu, nu, kinds=(Measure, Measure))
    (mu_den, (first,)), (nu_den, (second,)) = mu._integer_weights, nu._integer_weights
    units = {(i, j): a * b for i, a in enumerate(first) if a for j, b in enumerate(second)}
    return Coupling._of_units(mu.events, mu_den * nu_den, units)


def marginals(omega: Coupling) -> tuple[Measure, Measure]:
    """Row-sum and column-sum measures of a coupling."""
    den, rows, cols = omega._integer_marginals
    return Measure._of_units(omega.events, den, rows), Measure._of_units(omega.events, den, cols)


def verify_coupling(space: CausalSpace, omega: Coupling, mu: Measure, nu: Measure) -> bool:
    """True iff the marginals match exactly and all mass sits inside the closure."""
    try:
        _require_same_events(space, omega, mu, nu, kinds=(CausalSpace, Coupling, Measure, Measure))
    except InputError:
        return False
    den, first, second = omega._integer_marginals
    (mu_den, (m,)), (nu_den, (v,)) = mu._integer_weights, nu._integer_weights
    if not (_same_values(den, first, mu_den, m) and _same_values(den, second, nu_den, v)):
        return False
    rows = space.kplus.rows
    return all(rows[i] >> j & 1 for i, j, _ in omega.entries)


def compose_couplings(omega1: Coupling, omega2: Coupling) -> Coupling:
    """Glue two couplings along their shared middle marginal.

    ``weight(p, r) = sum_q w1(p, q) * w2(q, r) / m(q)`` over intermediate
    events with positive mass ``m``; zero-mass intermediates are skipped.
    """
    _require_same_events(omega1, omega2, kinds=(Coupling, Coupling))
    den1, _, middle = omega1._integer_marginals
    den2, middle_in, _ = omega2._integer_marginals
    if not _same_values(den1, middle, den2, middle_in):
        raise InputError("intermediate marginals do not match")
    # With w1 = a / den1, w2 = b / den2 and m = c / den1, a term is a * b / (c * den2).  ``_scaled`` of
    # the reciprocals 1/c gives their common multiple ``scale`` and ``scale / c`` per intermediate event.
    scale, (per_mass,) = _scaled([Fraction(1, c) if c else Fraction(0) for c in middle])
    (_, (units1,)), (_, (units2,)) = omega1._integer_weights, omega2._integer_weights
    by_middle: dict[int, list[tuple[int, int]]] = {}
    for (q, r, _), b in zip(omega2.entries, units2):
        by_middle.setdefault(q, []).append((r, b))
    glued: dict[tuple[int, int], int] = {}
    for (p, q, _), a in zip(omega1.entries, units1):
        for r, b in by_middle.get(q, []):
            glued[(p, r)] = glued.get((p, r), 0) + a * b * per_mass[q]
    return Coupling._of_units(omega1.events, scale * den2, glued)


def mix_couplings(lam, omega1: Coupling, omega2: Coupling) -> Coupling:
    """Entrywise mixture ``lam * omega1 + (1 - lam) * omega2``.

    Mixtures of couplings supported inside the closure stay supported inside
    the closure, which is what makes convex interpolation preserve
    feasibility.
    """
    lam = _mixture_coefficient(lam)
    _require_same_events(omega1, omega2, kinds=(Coupling, Coupling))
    p, q = lam.numerator, lam.denominator
    den, (first, second) = _common_units(omega1, omega2)
    mixed: dict[tuple[int, int], int] = {}
    for (i, j, _), u in zip(omega1.entries, first):
        mixed[(i, j)] = p * u
    for (i, j, _), u in zip(omega2.entries, second):
        mixed[(i, j)] = mixed.get((i, j), 0) + (q - p) * u
    return Coupling._of_units(omega1.events, q * den, mixed)


@dataclass(frozen=True)
class Certificate:
    """Outcome of a precedence decision: a witness coupling or a violating subset."""

    verdict: str
    witness: Coupling | None = None
    violator: frozenset[str] | None = None
    mu_B: Fraction | None = None
    nu_kplus_B: Fraction | None = None

    def __post_init__(self):
        if self.verdict not in ("feasible", "infeasible"):
            raise InputError(f"unknown verdict: {_shown(self.verdict)}")
        if self.verdict == "feasible" and self.witness is None:
            raise InputError("feasible certificate needs a witness coupling")
        if self.verdict == "infeasible" and (
            self.violator is None or self.mu_B is None or self.nu_kplus_B is None
        ):
            raise InputError("infeasible certificate needs a violator and both masses")

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"


def decide_k_causal(space: CausalSpace, mu: Measure, nu: Measure) -> Certificate:
    """Decide whether ``mu`` precedes ``nu`` along the closure, with certificate.

    By Strassen's theorem ``mu`` precedes ``nu`` iff the maximum flow from ``mu`` to ``nu``
    along the links between classes of support events (``_max_flow``) is the whole mass, in
    integers after scaling by the common denominator of both measures.  The witness splits
    that flow into packets; the violator is the support of ``mu`` on the source side of the
    minimal minimum cut.  Either certificate is checked before it is returned
    (``AssertionError`` if not).
    """
    _require_same_events(space, mu, nu, kinds=(CausalSpace, Measure, Measure))
    den, (supply, demand) = _common_units(mu, nu)
    support = [i for i in range(space.n) if supply[i] or demand[i]]
    classes, links = _order_links(space.kplus.rows, support)
    given = [sum(supply[i] for i in members) for members in classes]
    taken = [sum(demand[i] for i in members) for members in classes]

    flow_total, flows, reached = _max_flow(given, taken, links)

    if flow_total == den:
        witness = Coupling._of_units(space.events, den, _packets(classes, supply, demand, flows))
        if not verify_coupling(space, witness, mu, nu):
            raise AssertionError("flow decomposition produced an invalid witness coupling")
        return Certificate(verdict="feasible", witness=witness)

    violator_mask = 0
    for k in reached:
        for i in classes[k]:
            if supply[i]:
                violator_mask |= 1 << i
    mu_B = mu.mass_of_mask(violator_mask)
    nu_kplus_B = nu.mass_of_mask(space.future_mask(violator_mask))
    if mu_B <= nu_kplus_B:
        raise AssertionError("min-cut extraction produced a non-violating subset")
    return Certificate(
        verdict="infeasible",
        violator=space.events.labels_of(violator_mask),
        mu_B=mu_B,
        nu_kplus_B=nu_kplus_B,
    )


def _packets(classes, supply, demand, flows) -> dict[tuple[int, int], int]:
    """Split a saturating flow into packets ``{(origin, destination): units}``, positive and summing to the flow.

    Classes are visited in topological order.  At each class the packets that
    arrived over links, coalesced by origin in arrival order, go before the
    class's own supply; they fill the class's sink demand first, then its
    links in link order (``flows[k]`` holds ``(class, flow)`` per link).
    """
    arrived: list[dict[int, int]] = [{} for _ in classes]
    delivered: dict[int, dict[int, int]] = {}
    for k, members in enumerate(classes):
        packets = list(arrived[k].items())
        outflows = []
        for i in members:
            if supply[i]:
                packets.append((i, supply[i]))
            if demand[i]:
                outflows.append((delivered.setdefault(i, {}), demand[i]))
        outflows += [(arrived[q], flow) for q, flow in flows[k] if flow]
        queue = iter(packets)
        origin, left = -1, 0
        for bucket, amount in outflows:
            while amount:
                if not left:
                    origin, left = next(queue)
                take = min(left, amount)
                bucket[origin] = bucket.get(origin, 0) + take
                left -= take
                amount -= take
    return {(i, j): amount for j, bucket in delivered.items() for i, amount in bucket.items()}


def _max_flow(given, taken, links) -> tuple[int, list[list[tuple[int, int]]], list[int]]:
    """Dinic's maximum flow from a source through classes to a sink.

    Class ``k`` takes up to ``given[k]`` from the source, gives up to ``taken[k]`` to the sink,
    and sends along each link in ``links[k]`` (capacity twice the total supply, so no cut
    crosses it).  Returns the flow value, each class's ``(class, flow)`` per link in the order
    of ``links[k]``, and the classes the last level search reaches: the source side of the
    minimal minimum cut, the same for every maximum flow.  Only this function and ``_augment``
    know how the network is stored.
    """
    # Node ids: 0 source, 1 sink, then 2 + k for the k-th class.  Arc ``a``'s reverse is ``a ^ 1``.
    source, sink = 0, 1
    n = 2 + len(links)
    graph: list[list[int]] = [[] for _ in range(n)]
    arc_to: list[int] = []
    arc_cap: list[int] = []

    def add_arc(u: int, v: int, cap: int):
        graph[u].append(len(arc_to))
        arc_to.append(v)
        arc_cap.append(cap)
        graph[v].append(len(arc_to))
        arc_to.append(u)
        arc_cap.append(0)

    for k, (g, t) in enumerate(zip(given, taken)):
        if g:
            add_arc(source, 2 + k, g)
        if t:
            add_arc(2 + k, sink, t)
    link_cap = 2 * sum(given)
    for k, covers in enumerate(links):
        for q in covers:
            add_arc(2 + k, 2 + q, link_cap)

    total = 0
    while True:
        level = [-1] * n
        level[source] = 0
        queue = [source]
        for u in queue:
            for arc in graph[u]:
                v = arc_to[arc]
                if arc_cap[arc] and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            break
        ptr = [0] * n
        while True:
            pushed = _augment(graph, arc_to, arc_cap, level, ptr, source, sink)
            if not pushed:
                break
            total += pushed

    # A class's link arcs are its forward (even) arcs into class nodes, in the order they were added;
    # each one's flow sits on its reverse.
    flows = [
        [(arc_to[arc] - 2, arc_cap[arc ^ 1]) for arc in arcs if not arc & 1 and arc_to[arc] >= 2]
        for arcs in graph[2:]
    ]
    reached = [k for k in range(len(links)) if level[2 + k] >= 0]
    return total, flows, reached


def _augment(graph, arc_to, arc_cap, level, ptr, source: int, sink: int) -> int:
    # Iterative depth-first search for one augmenting path in the level graph.
    path: list[int] = []
    u = source
    while True:
        if u == sink:
            bottleneck = min(arc_cap[arc] for arc in path)
            for arc in path:
                arc_cap[arc] -= bottleneck
                arc_cap[arc ^ 1] += bottleneck
            return bottleneck
        arcs = graph[u]
        want = level[u] + 1
        for k in range(ptr[u], len(arcs)):
            arc = arcs[k]
            if arc_cap[arc] and level[arc_to[arc]] == want:
                ptr[u] = k
                path.append(arc)
                u = arc_to[arc]
                break
        else:  # a dead end: no arc from u reaches the next level
            ptr[u] = len(arcs)
            level[u] = -1
            if not path:
                return 0
            arc = path.pop()
            u = arc_to[arc ^ 1]
            ptr[u] += 1


def strassen_check(
    space: CausalSpace,
    mu: Measure,
    nu: Measure,
    max_events: int = DEFAULT_UPSET_BOUND,
) -> tuple[bool, frozenset[str] | None]:
    """Brute-force feasibility oracle over every event subset.

    Checks ``mu(B) <= nu(future of B)`` and ``mu(past of B) >= nu(B)`` for all
    ``B``; returns the first violating subset in increasing-size,
    label-lexicographic order.  Intentionally exponential: O(2**n) time, as
    lookups in exact integer subset tables whose size is bounded whatever n
    is (``structure.MASK_BLOCK`` entries each).
    """
    _require_same_events(space, mu, nu, kinds=(CausalSpace, Measure, Measure))
    tables = _SubsetTables("subset oracle", space, max_events, (mu, nu))
    m, v = tables.masses
    past = tables.table([space.past_mask(1 << j) for j in range(space.n)], np.bitwise_or)
    first = None
    for masks in tables.blocks():
        mu_B = tables.at(m, masks)
        nu_B = tables.at(v, masks)
        future_short = mu_B > tables.at(v, tables.at(tables.future, masks))
        past_short = tables.at(m, tables.at(past, masks)) < nu_B
        bad = masks[future_short | past_short]
        if bad.size:
            keys = tables.at(tables.key, bad)
            k = np.argmin(keys)
            if first is None or keys[k] < first[0]:
                first = keys[k], int(bad[k])
    if first is None:
        return True, None
    return False, space.events.labels_of(first[1])


def condition2_check(
    space: CausalSpace,
    mu: Measure,
    nu: Measure,
    max_events: int = DEFAULT_UPSET_BOUND,
) -> bool:
    """Future-mass inequality ``mu(future of C) <= nu(future of C)`` over all subsets.

    Every subset of a finite space is compact, so the quantifier runs over the
    full power set: O(2**n) time, as lookups in exact integer subset tables
    whose size is bounded whatever n is (``structure.MASK_BLOCK`` entries each).
    """
    _require_same_events(space, mu, nu, kinds=(CausalSpace, Measure, Measure))
    tables = _SubsetTables("subset check", space, max_events, (mu, nu))
    m, v = tables.masses
    for masks in tables.blocks():
        future = tables.at(tables.future, masks)
        if np.any(tables.at(m, future) > tables.at(v, future)):
            return False
    return True


def condition3_check(
    space: CausalSpace,
    mu: Measure,
    nu: Measure,
    max_events: int = DEFAULT_UPSET_BOUND,
) -> bool:
    """Up-set mass inequality ``mu(X) <= nu(X)`` over all future-closed subsets."""
    _require_same_events(space, mu, nu, kinds=(CausalSpace, Measure, Measure))
    return _heavier_upset(space, mu, nu, max_events) is None


def _heavier_upset(space, mu, nu, max_events: int) -> tuple[int, Fraction] | None:
    """First up-set mask, in increasing mask order, with ``mu(X) > nu(X)``, and the gap."""
    tables = _SubsetTables("up-set enumeration", space, max_events, (mu, nu))
    m, v = tables.masses
    for upsets in tables.upsets():
        gaps = tables.at(m, upsets) - tables.at(v, upsets)
        heavier = np.flatnonzero(gaps > 0)
        if heavier.size:
            k = heavier[0]
            return int(upsets[k]), Fraction(int(gaps[k]), tables.scale)
    return None


# ---------------------------------------------------------------------------
# JSON formats


def coupling_to_jsonable(omega: Coupling) -> dict:
    labels = omega.events.labels
    pairs = sorted([labels[i], labels[j], format_rational(w)] for i, j, w in omega.entries)
    return {"pairs": pairs}


def coupling_from_jsonable(obj, events: EventSet) -> Coupling:
    weights: dict[tuple[str, str], Fraction] = {}
    for entry in _sequence("JSON 'pairs'", _mapping("coupling", obj).get("pairs"), 3):
        key, weight = _labels("JSON 'pairs'", entry[:2]), parse_rational(entry[2])
        if weight < 0:  # refused before another entry on its pair can offset it
            raise InputError("coupling entry ({}, {}) must carry positive weight".format(*map(events.index_of, key)))
        weights[key] = weights.get(key, Fraction(0)) + weight
    return coupling(events, weights)


def certificate_to_jsonable(cert: Certificate) -> dict:
    if cert.feasible:
        return {"verdict": "feasible", "witness": coupling_to_jsonable(cert.witness)}
    return {
        "verdict": "infeasible",
        "violator": sorted(cert.violator),
        "mu_B": format_rational(cert.mu_B),
        "nu_KplusB": format_rational(cert.nu_kplus_B),
    }
