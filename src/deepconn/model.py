"""Two-layer network data model: underlying graph, peers, routing scheme, overlay.

An instance bundles an undirected simple connected graph G, a peer set P,
a symmetric routing scheme rho (unordered peer pair -> simple path in G) and
an overlay graph H on P.  Instances are immutable after validation and every
operation here is a pure function.  Because an instance never changes, its
indexes are built once and shared by every solver: the G-edge support of
each route while the routes are validated; on first use the numbered
overlay (each overlay edge's number and each peer's (neighbour, number)
hops, which every overlay search walks), the kill set of each G-edge, the
cut candidates, the bit of each G-edge, each overlay edge's route support
as an int mask over those bits, indexed by its number, and the vertex
footprint of each overlay hop.

A failure, a set of failed G-edges, is an int mask over the G-edge bits.
An overlay edge fails with any G-edge of its route, so a hop is alive iff
its support mask misses the failure.
"""

from __future__ import annotations

import json
import re
from collections import Counter, deque
from collections.abc import Mapping
from functools import cached_property
from itertools import combinations
from types import MappingProxyType

from .errors import BudgetExceededError, FormatError, ValidationError

# An undirected edge is a name pair sorted lexicographically.
Edge = tuple[str, str]
Path = tuple[str, ...]

NAME_RE = re.compile(r"[A-Za-z0-9_]+")

DEFAULT_PATH_CAP = 100_000

# How a generated instance routes each peer pair (gadgets.random_instance).
ROUTE_POLICIES = ("shortest_path", "random_simple")


def edge_key(u: str, v: str) -> Edge:
    """Canonical unordered edge."""
    return (u, v) if u <= v else (v, u)


class Instance:
    """A validated (G, P, rho, H) bundle of six fields: the tuple ``nodes``,
    the frozenset ``edges`` of canonical G-edges, the tuple ``peers``, the
    frozenset ``overlay_edges`` of canonical overlay edges, ``routes`` and
    ``supports``.

    ``routes`` is a read-only map from the canonical unordered pair to the
    route path, oriented so that it starts at the smaller endpoint, and
    ``supports`` a read-only map from the same pairs to the canonical G-edges
    of their routes.

    An instance is an immutable value: equal to an instance with equal
    fields, unhashable, shown by its fields, and copied with changed fields
    by ``replace``.  It is a plain class, so loading it needs no
    ``dataclasses``; its fields and its cached indexes live in its
    ``__dict__``.
    """

    _FIELDS = ("nodes", "edges", "peers", "overlay_edges", "routes", "supports")

    def __init__(self, nodes, edges, peers, overlay_edges, routes, supports):
        fields = nodes, edges, peers, overlay_edges, routes, supports
        vars(self).update(zip(self._FIELDS, fields))

    def _fields(self) -> dict:
        return {f: vars(self)[f] for f in self._FIELDS}

    def __eq__(self, other):  # defining __eq__ alone sets __hash__ to None
        same = other.__class__ is self.__class__
        return self._fields() == other._fields() if same else NotImplemented

    def __repr__(self) -> str:
        return "Instance(" + ", ".join(f"{f}={v!r}" for f, v in self._fields().items()) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes) -> Instance:
        """A new instance with the named fields changed; it builds its own
        indexes."""
        return Instance(**{**self._fields(), **changes})

    # -- indexes, built once on first use -----------------------------------

    @cached_property
    def total(self) -> bool:
        """True when every unordered pair of distinct peers has a route."""
        n = len(self.peers)
        return len(self.routes) == n * (n - 1) // 2

    @cached_property
    def kill_sets(self) -> Mapping[Edge, frozenset[Edge]]:
        """G-edge -> the overlay edges routed through it, in edge order.

        Only G-edges on the route of some overlay edge appear.
        """
        kill: dict[Edge, set[Edge]] = {}
        for f in self.overlay_edges:
            for e in self.supports[f]:
                kill.setdefault(e, set()).add(f)
        return MappingProxyType({e: frozenset(kill[e]) for e in sorted(kill)})

    @cached_property
    def numbered_overlay(self) -> tuple[Mapping[Edge, int], Mapping[str, tuple]]:
        """The overlay edges numbered 0, 1, ... in edge order, as two
        read-only maps: both orientations of each overlay edge -> its
        number, and peer u -> its (v, number of uv) hops in the order of
        the overlay neighbours v.
        """
        number = {}
        for i, (u, v) in enumerate(sorted(self.overlay_edges)):
            number[u, v] = number[v, u] = i
        hops = {
            u: tuple([(v, number[u, v]) for v in vs])
            for u, vs in adjacency(self.peers, self.overlay_edges).items()
        }
        return MappingProxyType(number), MappingProxyType(hops)

    @cached_property
    def cut_candidates(self) -> tuple[Edge, ...]:
        """The first G-edge, in edge order, of each distinct kill set, in
        edge order: failing any routed G-edge kills what one of them kills.

        ERDC searches these G-edges, and FDC's LP keeps one row for each.
        """
        first: dict[frozenset[Edge], Edge] = {}
        for e, dies in self.kill_sets.items():
            first.setdefault(dies, e)
        return tuple(first.values())

    @cached_property
    def _node_bits(self) -> dict[str, int]:
        return {u: 1 << i for i, u in enumerate(self.nodes)}

    @cached_property
    def _footprints(self) -> tuple[dict, dict]:
        """Two maps, peer u -> (v, footprint) per overlay neighbour v in
        order, over ``_node_bits``: first with v's bit as the footprint of
        the hop u -> v, then with its route's vertices other than u, the
        vertices the hop adds to a walk that has reached u.
        """
        bit = self._node_bits
        peer, walk = {}, {}
        for u, vs in self.numbered_overlay[1].items():
            peer[u] = tuple((v, bit[v]) for v, _ in vs)
            walk[u] = tuple(
                (v, sum(bit[x] for x in self.routes[edge_key(u, v)]) - bit[u])
                for v, _ in vs
            )
        return peer, walk

    @cached_property
    def edge_bits(self) -> Mapping[Edge, int]:
        """G-edge -> its bit in the int masks of supports, in edge order."""
        return MappingProxyType({e: 1 << i for i, e in enumerate(sorted(self.edges))})

    @cached_property
    def support_masks(self) -> tuple[int, ...]:
        """Overlay edge number -> the mask of its route support over
        ``edge_bits``.
        """
        bit = self.edge_bits
        return tuple(
            sum(bit[e] for e in self.supports[f]) for f in sorted(self.overlay_edges)
        )

    def h_neighbors(self, u: str) -> tuple[str, ...]:
        return tuple(v for v, _ in self.numbered_overlay[1].get(u, ()))

    def route_support(self, u: str, v: str) -> frozenset[Edge]:
        return self.supports[edge_key(u, v)]


def adjacency(nodes, edges) -> dict[str, list[str]]:
    """The sorted neighbour list of each node of the graph (nodes, edges)."""
    adj: dict[str, list[str]] = {u: [] for u in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for vs in adj.values():
        vs.sort()
    return adj


def connected(nodes, adj) -> bool:
    """True iff the graph with adjacency map adj is connected on nodes."""
    if not nodes:
        return True
    seen = {nodes[0]}
    queue = deque([nodes[0]])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(nodes)


def check_pair(instance: Instance, s: str, t: str, paths=()) -> None:
    """Raise ValidationError unless s and t are distinct peers and each of
    ``paths``, the paths a certificate names, is an overlay (s,t)-path.
    """
    if s not in instance.peers or t not in instance.peers:
        raise ValidationError(f"{s} or {t} is not a peer")
    if s == t:
        raise ValidationError("endpoints must be distinct")
    for path in paths:
        _check_overlay_path(instance, path)
        if path[0] != s or path[-1] != t:
            raise ValidationError(f"path does not join {s} and {t}")


def peer_pairs(instance: Instance):
    """Unordered peer pairs (u, v) with u < v, in lexicographic order."""
    return combinations(sorted(instance.peers), 2)


def shortest_path(hops, masks, s: str, t: str, failed: int = 0) -> Path | None:
    """The lexicographically first fewest-hop (s,t)-path, s != t, that
    survives the failure ``failed``; None when t is unreachable.

    ``hops[u]`` lists u's (neighbour, number) hops in sorted neighbour
    order, as ``Instance.numbered_overlay`` does, and a hop is alive iff
    ``masks[number]`` misses the int mask ``failed``.  Breadth-first search
    from s then reaches the vertices of each layer in the order of their
    lexicographically first shortest paths, so the vertex that first
    reaches v lies on v's lexicographically first shortest path, and the
    chain of first discoverers back from t is t's.  The search stops when
    t is discovered: its first discoverer is already fixed.
    """
    prev: dict[str, str] = {s: s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v, f in hops[u]:
            if v not in prev and not masks[f] & failed:
                prev[v] = u
                if v == t:
                    path = [t]
                    while path[-1] != s:
                        path.append(prev[path[-1]])
                    return tuple(reversed(path))
                queue.append(v)
    return None


def _name_set(names: tuple) -> set:
    """The set of names; an unhashable one (a JSON array or object) is invalid."""
    try:
        return set(names)
    except TypeError:
        bad = next(x for x in names if not isinstance(x, str))
        raise ValidationError(f"invalid node name {bad!r}") from None


def build_instance(nodes, edges, peers, overlay_edges, routes) -> Instance:
    """Validate raw components and assemble an Instance.

    ``routes`` is a mapping from unordered pair to node sequence; orientation
    is normalized here.  Raises ValidationError naming the first violated
    invariant.
    """
    nodes = tuple(nodes)
    for name in nodes:
        if not isinstance(name, str) or not NAME_RE.fullmatch(name):
            raise ValidationError(f"invalid node name {name!r}")
    node_set = set(nodes)
    if len(node_set) != len(nodes):
        raise ValidationError("duplicate node name")

    canon_edges = set()
    adj: dict[str, list[str]] = {u: [] for u in nodes}
    for u, v in edges:
        if u == v:
            raise ValidationError(f"self-loop at {u}")
        if not (isinstance(u, str) and isinstance(v, str)):
            raise ValidationError(f"invalid node name in edge {[u, v]!r}")
        if u not in node_set or v not in node_set:
            raise ValidationError(f"edge ({u},{v}) references unknown node")
        key = (u, v) if u <= v else (v, u)  # edge_key, inlined
        if key in canon_edges:
            raise ValidationError(f"duplicate edge {key}")
        canon_edges.add(key)
        adj[u].append(v)
        adj[v].append(u)
    canon_edges = frozenset(canon_edges)

    if not connected(nodes, adj):
        raise ValidationError("underlying graph disconnected")

    peers = tuple(peers)
    peer_set = _name_set(peers)
    if len(peer_set) != len(peers):
        raise ValidationError("duplicate peer")
    if not peer_set <= node_set:
        raise ValidationError("peer not a node of the underlying graph")
    if len(peers) < 2:
        raise ValidationError("fewer than two peers")

    # Both orientations of every G-edge -> its canonical key.
    keys = {(v, u): (u, v) for u, v in canon_edges}
    keys.update((e, e) for e in canon_edges)
    canon_routes: dict[Edge, Path] = {}
    supports: dict[Edge, frozenset[Edge]] = {}
    for (u, v), path in routes.items():
        try:
            key = (u, v) if u <= v else (v, u)
        except TypeError:
            raise ValidationError(f"invalid node name in route pair {[u, v]!r}") from None
        if len(path) < 2:
            raise ValidationError(f"route for {key} shorter than one edge")
        simple = len(_name_set(path)) == len(path)
        ends = path[0], path[-1]
        if ends != (u, v) and ends != (v, u):
            raise ValidationError(f"route for {key} does not connect its endpoints")
        if u not in peer_set or v not in peer_set:
            raise ValidationError(f"route endpoints {key} are not peers")
        if not simple:
            raise ValidationError("route not vertex-simple")
        try:
            support = frozenset(map(keys.__getitem__, zip(path, path[1:])))
        except KeyError as exc:
            a, b = exc.args[0]
            raise ValidationError(f"route for {key} uses non-edge ({a},{b})") from None
        if key in canon_routes:
            raise ValidationError(f"duplicate route for pair {key}")
        canon_routes[key] = tuple(path if ends[0] == key[0] else reversed(path))
        supports[key] = support

    canon_overlay = set()
    for u, v in overlay_edges:
        if u == v:
            raise ValidationError(f"overlay self-loop at {u}")
        if not (isinstance(u, str) and isinstance(v, str)):
            raise ValidationError(f"invalid node name in overlay edge {[u, v]!r}")
        if u not in peer_set or v not in peer_set:
            raise ValidationError(f"overlay edge ({u},{v}) endpoint is not a peer")
        key = (u, v) if u <= v else (v, u)
        if key in canon_overlay:
            raise ValidationError(f"duplicate overlay edge {key}")
        if key not in canon_routes:
            raise ValidationError(f"overlay edge {key} has no route")
        canon_overlay.add(key)

    return Instance(
        nodes=nodes,
        edges=canon_edges,
        peers=peers,
        overlay_edges=frozenset(canon_overlay),
        routes=MappingProxyType(canon_routes),
        supports=MappingProxyType(supports),
    )


# -- document format -------------------------------------------------------


def parse_instance(text: str) -> Instance:
    """Parse a JSON instance document and validate it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        # json's decoder recurses once per nesting level.
        raise FormatError("document nested too deeply") from None
    except ValueError as exc:
        # An integer longer than sys.get_int_max_str_digits() allows.
        raise FormatError(f"malformed document: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError("document root must be an object")
    for key in ("nodes", "edges", "peers", "overlay_edges", "routes"):
        if key not in doc:
            raise FormatError(f"missing key {key!r}")
        if not isinstance(doc[key], list):
            raise FormatError(f"{key!r} must be an array")
    try:
        routes = {}
        for entry in doc["routes"]:
            pair, path = entry["pair"], entry["path"]
            if not isinstance(pair, list) or len(pair) != 2:
                raise FormatError(f"route pair {pair!r} is not a 2-array")
            if not isinstance(path, list):
                raise FormatError(f"route path {path!r} is not an array")
            u, v = pair
            key = (u, v) if u <= v else (v, u)  # edge_key, inlined
            if key in routes:
                raise ValidationError(f"duplicate route for pair {key}")
            routes[key] = path
    except (TypeError, KeyError) as exc:
        raise FormatError(f"malformed document: {exc}") from exc
    edges = _two_arrays(doc["edges"], "edges")
    overlay = _two_arrays(doc["overlay_edges"], "overlay_edges")
    return build_instance(doc["nodes"], edges, doc["peers"], overlay, routes)


def _two_arrays(items: list, key: str) -> list[list]:
    """The 2-arrays of a JSON array; FormatError on any other item."""
    pairs = [e for e in items if isinstance(e, list) and len(e) == 2]
    if len(pairs) != len(items):
        raise FormatError(f"{key!r} must hold 2-arrays")
    return pairs


def serialize_instance(instance: Instance) -> str:
    """Canonical JSON serialization; parse(serialize(x)) == x.

    The text is that of ``json.dumps(doc, indent=2)`` plus a newline, where
    doc holds the nodes, the sorted edges, the peers, the sorted overlay
    edges and the routes in pair order.  It is written directly, because an
    indent sends ``json`` to its pure-Python encoder.  Validated names match
    NAME_RE, so each one is quoted as it is.
    """
    names = _json_array("  ", '"')
    items = _json_array("  ")
    edge = _json_array("    ", '"')
    sep = '",\n        "'  # between the names of a route's pair or path
    routes = [
        '{\n      "pair": [\n        "' + u + sep + v + '"\n      ],\n      "path": [\n        "'
        + sep.join(path) + '"\n      ]\n    }'
        for (u, v), path in sorted(instance.routes.items())
    ]
    return (
        '{\n  "nodes": ' + names(instance.nodes)
        + ',\n  "edges": ' + items([edge(e) for e in sorted(instance.edges)])
        + ',\n  "peers": ' + names(instance.peers)
        + ',\n  "overlay_edges": '
        + items([edge(e) for e in sorted(instance.overlay_edges)])
        + ',\n  "routes": ' + items(routes) + "\n}\n"
    )


def _json_array(pad: str, quote: str = ""):
    """Writer of a JSON array laid out as ``json.dumps(..., indent=2)`` lays
    it out with the closing bracket at indent pad; quote wraps each item.
    """
    head = "[\n" + pad + "  " + quote
    sep = quote + ",\n" + pad + "  " + quote
    tail = quote + "\n" + pad + "]"
    return lambda items: head + sep.join(items) + tail if items else "[]"


# -- route images ----------------------------------------------------------


def route_image(instance: Instance, path: Path) -> Counter:
    """Multiplicity of each G-edge along the concatenated implementation.

    counts[e] is the number of hops whose route uses e; absent keys mean 0.
    Routes are vertex-simple, so each route uses an edge at most once and
    the image is the sum of the hops' route supports.
    """
    _check_overlay_path(instance, path)
    counts = Counter()
    for u, v in zip(path, path[1:]):
        counts.update(instance.route_support(u, v))
    return counts


def is_simple_concatenation(instance: Instance, path: Path) -> bool:
    """True iff path is an overlay path (else ValidationError) whose
    concatenated walk in G visits no vertex twice.
    """
    _check_overlay_path(instance, path)
    return _simply_implemented(instance, path)


def _simply_implemented(instance: Instance, path: Path) -> bool:
    """``is_simple_concatenation`` of a path known to be an overlay path.

    The walk has 1 + sum(len(r) - 1) vertices over the hops' routes r, and
    it visits exactly the vertices of those routes, so it is simple iff the
    routes cover that many distinct vertices.  Neither count depends on a
    route's orientation, so the stored routes are read as they are.
    """
    routes = [instance.routes[edge_key(u, v)] for u, v in zip(path, path[1:])]
    return len(set().union(*routes)) == 1 + sum(len(r) - 1 for r in routes)


def _check_overlay_path(instance: Instance, path: Path) -> None:
    if len(path) < 2:
        raise ValidationError("overlay path needs at least two peers")
    try:  # an unhashable or unorderable name fails a test with TypeError
        if len(set(path)) != len(path):
            raise ValidationError("overlay path not vertex-simple")
        for u, v in zip(path, path[1:]):
            if edge_key(u, v) not in instance.overlay_edges:
                raise ValidationError(f"({u},{v}) is not an overlay edge")
    except TypeError:
        raise ValidationError(f"invalid node name in overlay path {path!r}") from None


def enumerate_simple_paths(
    instance: Instance, s: str, t: str, walk_simple: bool = False
) -> list[Path]:
    """All vertex-simple (s,t)-paths of H in lexicographic order; with
    ``walk_simple``, only those whose concatenated walk in G is simple.

    The search carries an int mask of the vertices used so far: the peers
    on the stack, or with ``walk_simple`` the G-vertices of the walk.  It
    skips a hop u -> v whose footprint meets that mask: v's bit, or the
    vertices of v's route from u other than u.  A walk is simple iff each
    hop adds only fresh vertices, so every prefix of a simple walk is
    simple, and a skipped prefix has no simply implemented extension; a
    hop's footprint holds v, so the walk-simple paths are vertex-simple.
    The list is therefore the vertex-simple paths for which
    ``is_simple_concatenation`` holds, in the same order.

    Raises ValidationError unless s and t are distinct peers, and
    BudgetExceededError when more than ``DEFAULT_PATH_CAP`` paths are listed.
    """
    check_pair(instance, s, t)
    cap = DEFAULT_PATH_CAP
    hops = instance._footprints[walk_simple]
    out: list[Path] = []
    stack = [s]
    used = instance._node_bits[s]
    added = [used]  # the footprint each vertex on the stack added
    # One hop iterator per vertex on the stack: the depth-first order of a
    # recursive search, without its depth limit.
    frontier = [iter(hops[s])]
    while frontier:
        for v, footprint in frontier[-1]:
            if footprint & used:
                continue
            if v == t:
                out.append((*stack, t))
                if len(out) > cap:
                    raise BudgetExceededError(
                        f"more than {cap} simple paths between {s} and {t}"
                    )
                continue
            stack.append(v)
            used |= footprint
            added.append(footprint)
            frontier.append(iter(hops[v]))
            break
        else:
            frontier.pop()
            stack.pop()
            used ^= added.pop()
    return out
