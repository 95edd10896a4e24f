"""Exhaustive reference oracles that only the tests use."""

import json
from collections import deque
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType

from deepconn.errors import (
    BudgetExceededError,
    FormatError,
    PreconditionError,
    ValidationError,
)
from deepconn.fdc import FlowResult
from deepconn.gadgets import SetSystem
from deepconn.model import (
    NAME_RE,
    Edge,
    Instance,
    Path,
    adjacency,
    connected,
    edge_key,
    enumerate_simple_paths,
    is_simple_concatenation,
    peer_pairs,
    route_image,
)
from deepconn.oracles import pair_parameter, seed_packing


def _root(parent, x):
    while parent[x] != x:
        x = parent[x]
    return x


def first_cut_edge(instance, pairs):
    """The first G-edge in canonical order, among those the pairs' routes
    use, whose failure splits the peers joined by the pairs that avoid it;
    None if no such edge.  One union-find per edge.
    """
    supports = [instance.route_support(*p) for p in pairs]
    for e in sorted(set().union(*supports)):
        parent = {x: x for x in instance.peers}
        for (u, v), support in zip(pairs, supports):
            if e not in support:
                parent[_root(parent, u)] = _root(parent, v)
        if len({_root(parent, x) for x in instance.peers}) > 1:
            return e
    return None


def precondition_reference(instance):
    """ERDC(K_P) >= 2 tested on every routed G-edge, without the load cut:
    ok, and the first violating edge.
    """
    witness = first_cut_edge(instance, list(peer_pairs(instance)))
    return witness is None, witness


def brute_force_augment(instance, tree, budget: int = 200_000):
    """Minimum-cardinality superset of the tree that survives every single
    G-edge failure; exhaustive.
    """
    ok, witness = precondition_reference(instance)
    if not ok:
        raise PreconditionError(
            f"precondition ERDC(K_P) >= 2 violated at edge ({witness[0]},{witness[1]})",
            witness,
        )
    tree = frozenset(edge_key(*e) for e in tree)
    candidates = [p for p in peer_pairs(instance) if p not in tree]
    explored = 0
    for size in range(len(candidates) + 1):
        for extra in combinations(candidates, size):
            explored += 1
            if explored > budget:
                raise BudgetExceededError(
                    f"augmentation search exceeded budget of {budget} subsets"
                )
            overlay = tree | set(extra)
            if first_cut_edge(instance, sorted(overlay)) is None:
                return frozenset(overlay)
    raise AssertionError("complete peer graph must be feasible under the precondition")


def separation_reference(instance, s, t, y):
    """The (cost, hops, path)-smallest simple overlay (s,t)-path whose image
    costs < 1 under y, else None; exhaustive.
    """
    best = min(
        (
            (sum(m * y.get(e, 0) for e, m in route_image(instance, p).items()), len(p), p)
            for p in enumerate_simple_paths(instance, s, t)
        ),
        default=None,
    )
    return best[2] if best is not None and best[0] < 1 else None


class DensePackingSimplex:
    """Tableau for max sum(x) s.t. A x <= 1, x >= 0 that stores every row
    from the start; the reference for ``deepconn.simplex.PackingSimplex``.

    Row i starts as e_i with right-hand side 1, its slack basic.  Entries
    are integers over the shared denominator ``d``, updated by the
    fraction-free pivot; Bland's rule picks the entering and leaving
    variables, with slack k labelled k and structural j labelled
    ``n_rows + j``.
    """

    def __init__(self, n_rows: int):
        self.n_rows = n_rows
        self.n_cols = 0
        self.d = 1
        self.rows = [[int(k == i) for k in range(n_rows)] + [1] for i in range(n_rows)]
        self.cost = [0] * (n_rows + 1)
        self.basis = list(range(n_rows))

    def add_column(self, column):
        support = [(k, c) for k, c in column.items() if c]
        for row in self.rows:
            row.insert(-1, sum(row[k] * c for k, c in support))
        cost = self.cost
        cost.insert(-1, self.d + sum(cost[k] * c for k, c in support))
        self.n_cols += 1

    def solve(self):
        rows, cost, basis = self.rows, self.cost, self.basis
        width = self.n_rows + self.n_cols
        while True:
            enter = next((j for j in range(width) if cost[j] > 0), None)
            if enter is None:
                return
            leave_row = None
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    if leave_row is None:
                        leave_row, best_a, best_b = i, a, row[-1]
                        continue
                    lhs, rhs = row[-1] * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave_row]):
                        leave_row, best_a, best_b = i, a, row[-1]
            if leave_row is None:
                raise ArithmeticError("packing LP unbounded; column has no support")
            self._pivot(leave_row, enter)
            basis[leave_row] = enter

    def duals(self):
        return [-c for c in self.cost[: self.n_rows]], self.d

    def solution(self):
        d = self.d
        x = [Fraction(0)] * self.n_cols
        for i, var in enumerate(self.basis):
            if var >= self.n_rows:
                x[var - self.n_rows] = Fraction(self.rows[i][-1], d)
        y = [Fraction(-self.cost[i], d) for i in range(self.n_rows)]
        return Fraction(-self.cost[-1], d), x, y

    def _pivot(self, pr, pc):
        rows, d = self.rows, self.d
        pivot_row = rows[pr]
        p = pivot_row[pc]
        for i, row in enumerate(rows):
            if i != pr:
                rows[i] = [(v * p - row[pc] * w) // d for v, w in zip(row, pivot_row)]
        cost, f = self.cost, self.cost[pc]
        cost[:] = [(v * p - f * w) // d for v, w in zip(cost, pivot_row)]
        self.d = p


def fdc_reference(instance, s, t):
    """Column generation on Fraction duals: each round solves the packing LP
    on the dense tableau ``DensePackingSimplex``, reads every dual from
    ``solution()`` and prices them with ``separation_reference``, over one LP
    row per routed G-edge, where ``fdc_pair`` keeps one per kill-set class.
    """
    rows = list(instance.kill_sets)
    lp = DensePackingSimplex(len(rows))
    generated, y = [], {}
    while (path := separation_reference(instance, s, t, y)) is not None:
        assert path not in generated
        generated.append(path)
        lp.add_column({rows.index(e): m for e, m in route_image(instance, path).items()})
        lp.solve()
        value, x, y_rows = lp.solution()
        y = {e: q for e, q in zip(rows, y_rows) if q}
    if not generated:
        return FlowResult(Fraction(0), {}, {}, [])
    return FlowResult(value, {p: q for p, q in zip(generated, x) if q}, y, generated)


def lex_shortest_path(adj, s, t, dead=frozenset()):
    """Lexicographically smallest among the fewest-hop (s,t)-paths over the
    sorted adjacency adj, avoiding the edges in dead: a breadth-first search
    from t, then a walk from s that takes the smallest neighbour one hop
    closer at each step.  None when t is unreachable.
    """
    dist = {t: 0}
    queue = deque([t])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist and edge_key(u, v) not in dead:
                dist[v] = dist[u] + 1
                queue.append(v)
    if s not in dist:
        return None
    path = [s]
    while path[-1] != t:
        u = path[-1]
        path.append(
            min(
                v
                for v in adj[u]
                if dist.get(v, -1) == dist[u] - 1 and edge_key(u, v) not in dead
            )
        )
    return tuple(path)


def seed_reference(instance, s, t):
    """The greedy seed over sets of dead overlay edges: each path is the
    ``lex_shortest_path`` that avoids the kill sets of the G-edges on the
    earlier paths' images.
    """
    adj = adjacency(instance.peers, instance.overlay_edges)
    dead, seed = set(), []
    while (path := lex_shortest_path(adj, s, t, dead)) is not None:
        seed.append(path)
        for e in route_image(instance, path):
            dead |= instance.kill_sets[e]
    return seed


def all_pairs_reference(instance, which, **kwargs):
    """The all-pairs minimum with eager bounds: every pair's full seed
    first, then the pairs searched in sorted (bound, pair) order until a
    pair's (bound, pair) exceeds the best (value, pair) found.  The bound is
    the seed's size for "erdc" and "pddc", its simply implemented paths for
    "spddc" and "fdc".
    """

    def bound(pair):
        seed = seed_packing(instance, *pair)
        if which in ("spddc", "fdc"):
            return sum(is_simple_concatenation(instance, p) for p in seed)
        return len(seed)

    best = None
    for low, pair in sorted((bound(pair), pair) for pair in peer_pairs(instance)):
        if best is not None and (low, pair) > best[:2]:
            break
        value, witness = pair_parameter(instance, which, *pair, **kwargs)
        if best is None or (value, pair) < best[:2]:
            best = (value, pair, witness)
    return best


def set_packing_brute_force(system: SetSystem, k: int, budget: int = 1_000_000) -> bool:
    """True iff k pairwise disjoint sets exist; exhaustive search."""
    if k < 1:
        raise ValidationError("k must be positive")
    explored = 0
    for combo in combinations(system.sets, k):
        explored += 1
        if explored > budget:
            raise BudgetExceededError(f"set packing search exceeded {budget} subsets")
        union = set()
        total = 0
        for s in combo:
            union |= s
            total += len(s)
        if len(union) == total:
            return True
    return False


def classic_edge_connectivity(nodes, edges, s: str, t: str) -> int:
    """Unit-capacity undirected max flow between s and t (augmenting paths)."""
    if s == t:
        raise ValidationError("endpoints must be distinct")
    cap: dict[tuple[str, str], int] = {}
    adj: dict[str, list[str]] = {u: [] for u in nodes}
    for u, v in edges:
        cap[(u, v)] = 1
        cap[(v, u)] = 1
        adj[u].append(v)
        adj[v].append(u)
    flow = 0
    while True:
        prev = {s: s}
        queue = deque([s])
        while queue and t not in prev:
            u = queue.popleft()
            for v in adj[u]:
                if v not in prev and cap[(u, v)] > 0:
                    prev[v] = u
                    queue.append(v)
        if t not in prev:
            return flow
        v = t
        while v != s:
            u = prev[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        flow += 1


# -- the instance document parser before its one-pass validation -----------
# Kept verbatim, but for its names, as the reference for the class, message
# and precedence of every document error.


def _name_set_reference(names: tuple) -> set:
    """The set of names; an unhashable one (a JSON array or object) is invalid."""
    try:
        return set(names)
    except TypeError:
        bad = next(x for x in names if not isinstance(x, str))
        raise ValidationError(f"invalid node name {bad!r}") from None


def build_reference(nodes, edges, peers, overlay_edges, routes) -> Instance:
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
    for u, v in edges:
        if u == v:
            raise ValidationError(f"self-loop at {u}")
        if not (isinstance(u, str) and isinstance(v, str)):
            raise ValidationError(f"invalid node name in edge {[u, v]!r}")
        if u not in node_set or v not in node_set:
            raise ValidationError(f"edge ({u},{v}) references unknown node")
        key = edge_key(u, v)
        if key in canon_edges:
            raise ValidationError(f"duplicate edge {key}")
        canon_edges.add(key)
    canon_edges = frozenset(canon_edges)

    if not connected(nodes, adjacency(nodes, canon_edges)):
        raise ValidationError("underlying graph disconnected")

    peers = tuple(peers)
    peer_set = _name_set_reference(peers)
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
    for pair, path in routes.items():
        u, v = pair
        key = edge_key(u, v)
        path = tuple(path)
        if len(path) < 2:
            raise ValidationError(f"route for {key} shorter than one edge")
        path_set = _name_set_reference(path)
        if {path[0], path[-1]} != {u, v}:
            raise ValidationError(f"route for {key} does not connect its endpoints")
        if u not in peer_set or v not in peer_set:
            raise ValidationError(f"route endpoints {key} are not peers")
        if len(path_set) != len(path):
            raise ValidationError("route not vertex-simple")
        try:
            support = frozenset([keys[hop] for hop in zip(path, path[1:])])
        except KeyError as exc:
            a, b = exc.args[0]
            raise ValidationError(f"route for {key} uses non-edge ({a},{b})") from None
        if key in canon_routes:
            raise ValidationError(f"duplicate route for pair {key}")
        canon_routes[key] = path if path[0] == key[0] else tuple(reversed(path))
        supports[key] = support

    canon_overlay = set()
    for u, v in overlay_edges:
        if u == v:
            raise ValidationError(f"overlay self-loop at {u}")
        if not (isinstance(u, str) and isinstance(v, str)):
            raise ValidationError(f"invalid node name in overlay edge {[u, v]!r}")
        if u not in peer_set or v not in peer_set:
            raise ValidationError(f"overlay edge ({u},{v}) endpoint is not a peer")
        key = edge_key(u, v)
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


def parse_reference(text: str) -> Instance:
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
            key = edge_key(*pair)
            if key in routes:
                raise ValidationError(f"duplicate route for pair {key}")
            routes[key] = tuple(path)
    except (TypeError, KeyError) as exc:
        raise FormatError(f"malformed document: {exc}") from exc
    edges = _two_arrays_reference(doc["edges"], "edges")
    overlay = _two_arrays_reference(doc["overlay_edges"], "overlay_edges")
    return build_reference(doc["nodes"], edges, doc["peers"], overlay, routes)


def _two_arrays_reference(items: list, key: str) -> list[tuple]:
    """The 2-arrays of a JSON array as tuples; FormatError on any other item."""
    pairs = [tuple(e) for e in items if isinstance(e, list) and len(e) == 2]
    if len(pairs) != len(items):
        raise FormatError(f"{key!r} must hold 2-arrays")
    return pairs
