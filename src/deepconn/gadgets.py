"""Instance generators: set-system encodings, the layered simple-path
reduction, the Hamiltonian-path reduction, and random test instances.

The encoders return the constructed instance together with a labels map
recording which nodes/edges play which construction role, so structural
properties can be audited exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .errors import ValidationError
from .model import (
    ROUTE_POLICIES, Instance, adjacency, build_instance, connected, edge_key, shortest_path,
)

APEX_X = "apex_x"
APEX_Y = "apex_y"


@dataclass(frozen=True)
class SetSystem:
    """m elements (1-based) and an ordered collection of subsets.

    m may be 0: compacting away unused elements can leave a system of empty
    sets, which the encoders still accept.
    """

    m: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.m < 0 or not self.sets:
            raise ValidationError("set system dimensions out of range")
        for s in self.sets:
            if any(i < 1 or i > self.m for i in s):
                raise ValidationError("set element out of range")

    @property
    def n(self) -> int:
        return len(self.sets)

    @staticmethod
    def from_lists(m: int, sets) -> "SetSystem":
        return SetSystem(m, tuple(frozenset(s) for s in sets))


@dataclass
class GadgetOutput:
    instance: Instance
    labels: dict


def encode_set_system(h_nodes, h_edges, f, system: SetSystem) -> GadgetOutput:
    """Build an underlying graph and routing scheme realizing a set system.

    Overlay edges outside f are routed as themselves.  The j-th edge of f is
    routed through the element edges of the j-th set (ascending element
    order), with every connector edge subdivided through a fresh z vertex.
    Requires every element to appear in some set, otherwise the element's
    edge would form its own underlying component.
    """
    h_nodes = list(h_nodes)
    h_edges = [edge_key(*e) for e in h_edges]
    f = [edge_key(*e) for e in f]
    if len(f) != system.n:
        raise ValidationError("f must list one overlay edge per set")
    routed = set(f)
    if len(routed) != len(f):
        raise ValidationError("duplicate edges in f")
    if not routed <= set(h_edges):
        raise ValidationError("f must be a subset of the overlay edges")
    used = set().union(*system.sets)
    for i in range(1, system.m + 1):
        if i not in used:
            raise ValidationError(
                f"element {i} appears in no set; its edge would be disconnected"
            )

    nodes = list(h_nodes)
    taken = set(nodes)

    def fresh(name: str) -> str:
        if name in taken:
            raise ValidationError(f"node name {name} collides with an overlay vertex")
        taken.add(name)
        nodes.append(name)
        return name

    element_vertices = {
        i: (fresh(f"v{i}_a"), fresh(f"v{i}_b")) for i in range(1, system.m + 1)
    }
    element_edges = [edge_key(a, b) for a, b in element_vertices.values()]

    identity_edges = [e for e in h_edges if e not in routed]
    route_edges = []
    subdivision_vertices = []
    routes = {e: e for e in identity_edges}
    for j, ((x, y), members) in enumerate(zip(f, system.sets), start=1):
        # The stops pair up as the connectors (x, a1), (b1, a2), ..., (bk, y),
        # and each element edge (ai, bi) lies between two of them.
        stops = [x, *(v for i in sorted(members) for v in element_vertices[i]), y]
        path = []
        for c, (a, b) in enumerate(zip(stops[::2], stops[1::2]), start=1):
            z = fresh(f"z{j}_{c}")
            subdivision_vertices.append(z)
            route_edges += [edge_key(a, z), edge_key(z, b)]
            path.extend([a, z, b])
        routes[(x, y)] = tuple(path)

    edges = identity_edges + element_edges + route_edges
    instance = build_instance(nodes, edges, h_nodes, h_edges, routes)
    labels = {
        "element_vertices": {i: list(v) for i, v in element_vertices.items()},
        "element_edges": [list(e) for e in element_edges],
        "route_edges": [list(e) for e in route_edges],
        "identity_edges": [list(e) for e in identity_edges],
        "subdivision_vertices": list(subdivision_vertices),
        "f": [list(e) for e in f],
        "routes": {f"{u},{v}": list(routes[(u, v)]) for u, v in f},
    }
    return GadgetOutput(instance, labels)


def _compact(system: SetSystem) -> SetSystem:
    """Drop elements that appear in no set; packing structure is unchanged."""
    used = sorted(set().union(*system.sets))
    relabel = {old: new for new, old in enumerate(used, start=1)}
    return SetSystem(
        len(used), tuple(frozenset(relabel[i] for i in s) for s in system.sets)
    )


def build_spddc_reduction(
    system: SetSystem, k: int
) -> tuple[GadgetOutput, str, str]:
    """Layered overlay whose simply-implemented (s,t)-paths encode size-k
    packings: k layers, each offering one copy of every set on its odd hop.
    """
    if k < 1:
        raise ValidationError("k must be positive")
    compact = _compact(system)
    layer_u = [f"u{l}" for l in range(k + 1)]
    layer_v = {
        (l, j): f"v{l}_{j}" for l in range(1, k + 1) for j in range(1, compact.n + 1)
    }
    odd_edges = [edge_key(layer_u[l - 1], v) for (l, _), v in layer_v.items()]
    even_edges = [edge_key(v, layer_u[l]) for (l, _), v in layer_v.items()]
    copied = SetSystem(compact.m, compact.sets * k)
    out = encode_set_system(
        layer_u + list(layer_v.values()), odd_edges + even_edges, odd_edges, copied
    )
    out.labels["layer_vertices"] = {
        "u": list(layer_u),
        "v": {f"{l},{j}": name for (l, j), name in layer_v.items()},
    }
    out.labels["source"] = layer_u[0]
    out.labels["sink"] = layer_u[-1]
    return out, layer_u[0], layer_u[-1]


def build_hamiltonian_reduction(g0_nodes, g0_edges) -> Instance:
    """Apex construction: non-adjacent peer pairs route through the shared
    (apex_x, apex_y) edge, so a sparse 2-survivable overlay forces a
    Hamiltonian cycle with at most one virtual edge.
    """
    g0_nodes = list(g0_nodes)
    if len(g0_nodes) < 3:
        raise ValidationError("need at least three vertices")
    if APEX_X in g0_nodes or APEX_Y in g0_nodes:
        raise ValidationError("input vertex names collide with apex names")
    g0_set = {edge_key(*e) for e in g0_edges}
    nodes = g0_nodes + [APEX_X, APEX_Y]
    edges = sorted(g0_set) + [edge_key(APEX_X, APEX_Y)]
    for v in g0_nodes:
        edges.append(edge_key(v, APEX_X))
        edges.append(edge_key(v, APEX_Y))
    overlay = list(combinations(sorted(g0_nodes), 2))
    routes = {
        pair: pair if pair in g0_set else (pair[0], APEX_X, APEX_Y, pair[1])
        for pair in overlay
    }
    return build_instance(nodes, edges, g0_nodes, overlay, routes)


# -- random instances ------------------------------------------------------

_GRAPH_ATTEMPTS = 1000


def random_instance(
    n_nodes: int,
    n_peers: int,
    edge_probability: float,
    route_policy: str = "shortest_path",
    seed: int = 0,
) -> Instance:
    """Seeded random instance: connected G, total routing, complete overlay."""
    if n_nodes < 2 or not 2 <= n_peers <= n_nodes:
        raise ValidationError("node/peer counts out of range")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValidationError("edge probability out of range")
    if route_policy not in ROUTE_POLICIES:
        raise ValidationError(f"unknown route policy {route_policy!r}")
    rng = random.Random(seed)
    nodes = [f"n{i:02d}" for i in range(n_nodes)]
    for _ in range(_GRAPH_ATTEMPTS):
        edges = [
            edge_key(u, v)
            for u, v in combinations(nodes, 2)
            if rng.random() < edge_probability
        ]
        adj = adjacency(nodes, edges)
        if connected(nodes, adj):
            break
    else:
        raise ValidationError(f"no connected graph within {_GRAPH_ATTEMPTS} attempts")
    peers = sorted(rng.sample(nodes, n_peers))
    overlay = list(combinations(peers, 2))
    if route_policy == "shortest_path":
        hops = {u: [(v, 0) for v in vs] for u, vs in adj.items()}
        routes = {pair: shortest_path(hops, (0,), *pair) for pair in overlay}
    else:
        routes = {pair: _random_simple_path(adj, *pair, rng) for pair in overlay}
    return build_instance(nodes, edges, peers, overlay, routes)


def _random_simple_path(adj, s, t, rng) -> tuple[str, ...]:
    """Random simple path: the tree path from s to t of a randomized
    depth-first search that enters each vertex once.

    A vertex stays visited after the search backs out of it: every
    unvisited vertex it reached has been entered without finding t, so
    entering it again cannot either, and the search takes linear time.
    The search keeps one neighbour order per path vertex on an explicit
    stack, each drawn when its vertex is entered, as a recursive search
    would draw it, so a seeded rng gives the same path.
    """
    path, seen, orders = [s], {s}, []
    while path[-1] != t:
        u = path[-1]
        orders.append(iter(rng.sample(adj[u], len(adj[u]))))
        while (v := next((v for v in orders[-1] if v not in seen), None)) is None:
            orders.pop()
            path.pop()
            if not orders:
                raise AssertionError("connected graph must admit a path")
        path.append(v)
        seen.add(v)
    return tuple(path)
