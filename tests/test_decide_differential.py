"""``decide_k_causal`` against the bipartite support network it replaced.

The reference below is the earlier decision network, kept as an oracle: one
arc from every supported cause to every supported effect it precedes.  The
link-graph network must give the same verdict and the same minimal min cut,
so ``violator``, ``mu_B`` and ``nu_kplus_B`` must be identical; its witness
may differ and must pass ``verify_coupling``.

The reference shares no flow code with ``kcausal``: it runs its own
Edmonds–Karp max-flow (shortest augmenting paths by BFS; Edmonds & Karp,
J. ACM 19, 1972) and reads the min cut from its own residual BFS.

The flow layer is also checked at its own boundary: ``transport._max_flow``
on per-class capacities and ``_order_links`` links must give the value and
the source-side classes that Edmonds–Karp gives on the same network built
here, and link flows that extend to a flow of that value.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcausal import (
    CausalSpace,
    decide_k_causal,
    explicit_space,
    measure,
    minkowski_space,
    random_dag_space,
    random_measure,
    sprinkle_space,
    verify_coupling,
)
from kcausal.structure import _order_links, iter_bits
from kcausal.transport import _max_flow


def residual_bfs(graph, arc_to, arc_cap, source):
    """Arc by which each node reachable in the residual graph was first reached."""
    reached = {source: None}
    queue = [source]
    for u in queue:
        for arc in graph[u]:
            v = arc_to[arc]
            if arc_cap[arc] and v not in reached:
                reached[v] = arc
                queue.append(v)
    return reached


def edmonds_karp(graph, arc_to, arc_cap, source, sink):
    """Max-flow value and the residual-reachable nodes once no augmenting path is left."""
    total = 0
    while True:
        reached = residual_bfs(graph, arc_to, arc_cap, source)
        if sink not in reached:
            return total, reached
        path = []
        v = sink
        while v != source:
            arc = reached[v]
            path.append(arc)
            v = arc_to[arc ^ 1]
        bottleneck = min(arc_cap[arc] for arc in path)
        for arc in path:
            arc_cap[arc] -= bottleneck
            arc_cap[arc ^ 1] += bottleneck
        total += bottleneck


def bipartite_decide(space: CausalSpace, mu, nu):
    """Reference decision on the bipartite support network.

    Returns ``(feasible, violator, mu_B, nu_kplus_B)`` as ``Certificate``
    holds them: the last three are ``None`` when feasible.
    """
    den = lcm(mu._integer_weights[0], nu._integer_weights[0])
    supply = [int(w * den) for w in mu.weights]
    demand = [int(w * den) for w in nu.weights]
    lefts = [i for i, s in enumerate(supply) if s]
    rights = [j for j, d in enumerate(demand) if d]
    left_id = {i: 2 + k for k, i in enumerate(lefts)}
    right_id = {j: 2 + len(lefts) + k for k, j in enumerate(rights)}
    graph: list[list[int]] = [[] for _ in range(2 + len(lefts) + len(rights))]
    arc_to: list[int] = []
    arc_cap: list[int] = []

    def add_arc(u, v, cap):
        graph[u].append(len(arc_to))
        arc_to.append(v)
        arc_cap.append(cap)
        graph[v].append(len(arc_to))
        arc_to.append(u)
        arc_cap.append(0)

    for i in lefts:
        add_arc(0, left_id[i], supply[i])
    for j in rights:
        add_arc(right_id[j], 1, demand[j])
    rows = space.kplus.rows
    for i in lefts:
        for j in rights:
            if rows[i] >> j & 1:
                add_arc(left_id[i], right_id[j], 2 * den)
    flow, reachable = edmonds_karp(graph, arc_to, arc_cap, 0, 1)
    if flow == den:
        return True, None, None, None
    mask = 0
    for i in lefts:
        if left_id[i] in reachable:
            mask |= 1 << i
    return (
        False,
        space.events.labels_of(mask),
        mu.mass_of_mask(mask),
        nu.mass_of_mask(space.future_mask(mask)),
    )


@st.composite
def spaces(draw, max_n=9):
    """Random DAGs, cone spaces with coincident and lightlike points, cyclic relations."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["dag", "cone", "cyclic"]))
    if kind == "dag":
        p = draw(st.sampled_from([0.0, 0.2, 0.4, 0.7, 1.0]))
        return random_dag_space(n, p, draw(st.integers(0, 2**32 - 1)))
    if kind == "cone":
        dim = draw(st.integers(2, 4))
        coord = st.sampled_from(["-1", "-1/2", "0", "1/2", "1"])
        point = st.lists(coord, min_size=dim, max_size=dim)
        return minkowski_space(draw(st.lists(point, min_size=n, max_size=n)))
    labels = [f"v{i}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)), max_size=2 * n))
    return explicit_space(labels, pairs)


@st.composite
def instances(draw):
    """A space and two measures; half the time ``nu`` pushes ``mu`` forward, so it is feasible."""
    space = draw(spaces())
    n = space.n
    units = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any))
    if draw(st.booleans()):
        pushed = [0] * n
        for i, u in enumerate(units):
            future = list(iter_bits(space.kplus.rows[i]))
            for _ in range(u):
                pushed[draw(st.sampled_from(future))] += 1
    else:
        pushed = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any))
    labels = space.events.labels
    mu = measure(space.events, {labels[i]: Fraction(u, sum(units)) for i, u in enumerate(units)})
    nu = measure(space.events, {labels[i]: Fraction(u, sum(pushed)) for i, u in enumerate(pushed)})
    return space, mu, nu


def cycle_instance():
    # {a, b} is one class of mutually related events; d precedes it.
    space = explicit_space(["a", "b", "c", "d"], [("a", "b"), ("b", "a"), ("b", "c"), ("d", "a")])
    mu = measure(space.events, {"a": "1/2", "b": "1/4", "c": "1/4"})
    nu = measure(space.events, {"d": "1/2", "c": "1/2"})
    return space, mu, nu


def assert_same_decision(space, mu, nu):
    cert = decide_k_causal(space, mu, nu)
    assert (cert.feasible, cert.violator, cert.mu_B, cert.nu_kplus_B) == bipartite_decide(space, mu, nu)
    assert not cert.feasible or verify_coupling(space, cert.witness, mu, nu)
    return cert.feasible


@settings(max_examples=300, deadline=None)
@given(instances())
@example(cycle_instance())
def test_link_network_matches_bipartite_reference(instance):
    assert_same_decision(*instance)


def test_seeded_corpus_with_full_supports():
    rng = random.Random(5)
    verdicts = set()
    for k in range(24):
        n = rng.randint(30, 80)
        if k % 2:
            space = sprinkle_space(n, 2, [[0, 1], [-1, 1]], rng.randrange(2**32))
        else:
            space = random_dag_space(n, 3 / n, rng.randrange(2**32))
        mu = random_measure(rng, space.events)
        if k % 3:
            nu = random_measure(rng, space.events)
        else:
            pushed = {}
            for i, w in enumerate(mu.weights):
                j = rng.choice(list(iter_bits(space.kplus.rows[i])))
                pushed[space.events.labels[j]] = pushed.get(space.events.labels[j], 0) + w
            nu = measure(space.events, pushed)
        verdicts.add(assert_same_decision(space, mu, nu))
    assert verdicts == {True, False}


def link_network(given, taken, links):
    """The network ``_max_flow`` decides: node 0 the source, 1 the sink, ``2 + k`` class ``k``."""
    graph: list[list[int]] = [[] for _ in range(2 + len(links))]
    arc_to: list[int] = []
    arc_cap: list[int] = []

    def add_arc(u, v, cap):
        graph[u].append(len(arc_to))
        arc_to.append(v)
        arc_cap.append(cap)
        graph[v].append(len(arc_to))
        arc_to.append(u)
        arc_cap.append(0)

    for k, (g, t) in enumerate(zip(given, taken)):
        add_arc(0, 2 + k, g)
        add_arc(2 + k, 1, t)
    for k, covers in enumerate(links):
        for q in covers:
            add_arc(2 + k, 2 + q, 2 * sum(given))
    return graph, arc_to, arc_cap


def pushed_along_links(rng, given, links):
    """Per-class demand that takes each supply unit a random number of links forward."""
    taken = [0] * len(given)
    for k, units in enumerate(given):
        for _ in range(units):
            q = k
            while links[q] and rng.random() < 0.7:
                q = rng.choice(links[q])
            taken[q] += 1
    return taken


def random_capacities(rng, links, mode):
    """``given`` and ``taken`` with zeros: pushed along links or permuted (equal totals), or independent."""
    given = [max(0, rng.randint(-8, 24)) for _ in links]
    if mode == "pushed":
        return given, pushed_along_links(rng, given, links)
    if mode == "permuted":
        return given, rng.sample(given, len(given))
    return given, [max(0, rng.randint(-8, 24)) for _ in links]


def assert_same_flow(given, taken, links):
    """``_max_flow`` against Edmonds–Karp on the same network; returns the flow value."""
    value, flows, reached = _max_flow(given, taken, links)
    reference, reachable = edmonds_karp(*link_network(given, taken, links), 0, 1)
    assert value == reference
    # Every maximum flow leaves the same residual-reachable set: the minimal min cut.
    assert sorted(reached) == [k for k in range(len(links)) if 2 + k in reachable]
    assert [[q for q, _ in row] for row in flows] == links
    net = [0] * len(links)
    for k, row in enumerate(flows):
        for q, flow in row:
            assert flow >= 0
            net[k] += flow
            net[q] -= flow
    # Class k balances with source flow s and sink flow s - net[k], both within its capacities, so
    # s lies in [low, high]; the link flows extend to a flow of this value iff the value lies in the sums.
    low = [max(0, d) for d in net]
    high = [min(g, t + d) for g, t, d in zip(given, taken, net)]
    assert all(lo <= hi for lo, hi in zip(low, high))
    assert sum(low) <= value <= sum(high)
    return value


@settings(max_examples=300, deadline=None)
@given(
    spaces(),
    st.lists(st.booleans(), max_size=9),
    st.randoms(use_true_random=False),
    st.sampled_from(["pushed", "permuted", "independent"]),
)
def test_flow_layer_matches_edmonds_karp(space, left_out, rng, mode):
    members = [i for i in range(space.n) if not (i < len(left_out) and left_out[i])]
    _, links = _order_links(space.kplus.rows, members)
    assert_same_flow(*random_capacities(rng, links, mode), links)


def test_flow_layer_on_the_seeded_corpus():
    rng = random.Random(11)
    saturated = set()
    for k in range(24):
        n = rng.randint(30, 80)
        if k % 2:
            space = sprinkle_space(n, 2, [[0, 1], [-1, 1]], rng.randrange(2**32))
        else:
            space = random_dag_space(n, 3 / n, rng.randrange(2**32))
        members = [i for i in range(n) if rng.random() < 0.8] if k % 4 > 1 else range(n)
        _, links = _order_links(space.kplus.rows, members)
        given, taken = random_capacities(rng, links, ["pushed", "permuted", "independent"][k % 3])
        saturated.add(assert_same_flow(given, taken, links) == sum(given))
    assert saturated == {True, False}
