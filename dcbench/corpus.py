"""Fixed instance corpora and the CLI ops each workload runs on them.

The generator is the benchmark's own and does not call ``deepconn.gadgets``,
so a change to the library's random-instance generator cannot change what
the benchmark measures.  Instance ``i`` of a corpus is drawn from its own
``random.Random`` seeded by a fixed number, so every corpus is the same on
every run; the run's ``--seed`` only permutes the order of the ops.

Exact column generation and the exponential searches are path dependent:
relabelling the nodes of one instance can change its solve time many-fold,
so a corpus drawn afresh per seed would measure different work each run.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"
OUTPUT = "@output"  # replaced by the op's output path when the op runs


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``deepconn <argv...> -i <doc> --json``."""

    op_id: str
    doc: str  # document name within the corpus
    argv: tuple[str, ...]


@dataclass
class Corpus:
    docs: dict[str, dict]
    ops: list[Op]


def edge_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def _adjacency(nodes, edges) -> dict[str, list[str]]:
    adj = {u: [] for u in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for u in adj:
        adj[u].sort()
    return adj


def _connected(adj) -> bool:
    start = next(iter(adj))
    seen = {start}
    queue = deque([start])
    while queue:
        for v in adj[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(adj)


def _shortest_path(adj, s: str, t: str) -> list[str]:
    """Lexicographically smallest among the BFS-shortest (s,t)-paths."""
    dist = {t: 0}
    queue = deque([t])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    path = [s]
    while path[-1] != t:
        u = path[-1]
        path.append(min(v for v in adj[u] if dist.get(v, -1) == dist[u] - 1))
    return path


def _random_simple_path(adj, s: str, t: str, rng: random.Random) -> list[str]:
    """Tree path to t of a depth-first search taking neighbours in random order.

    Nodes stay visited after backtracking, so the search is linear in the
    graph size.
    """
    parent = {s: None}
    stack = [s]
    while stack:
        u = stack.pop()
        if u == t:
            break
        for v in rng.sample(adj[u], len(adj[u])):
            if v not in parent:
                parent[v] = u
                stack.append(v)
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    return path[::-1]


def random_doc(
    seed: int, n_nodes: int, n_peers: int, edge_prob: float, policy: str
) -> dict:
    """Connected G(n, p), sorted random peers, complete overlay, total routing."""
    rng = random.Random(seed)
    nodes = [f"n{i:02d}" for i in range(n_nodes)]
    while True:
        edges = [e for e in combinations(nodes, 2) if rng.random() < edge_prob]
        adj = _adjacency(nodes, edges)
        if _connected(adj):
            break
    peers = sorted(rng.sample(nodes, n_peers))
    pairs = list(combinations(peers, 2))
    if policy == "shortest_path":
        routes = [_shortest_path(adj, u, v) for u, v in pairs]
    else:
        routes = [_random_simple_path(adj, u, v, rng) for u, v in pairs]
    return {
        "nodes": nodes,
        "edges": [list(e) for e in edges],
        "peers": peers,
        "overlay_edges": [list(p) for p in pairs],
        "routes": [{"pair": list(p), "path": r} for p, r in zip(pairs, routes)],
    }


def _kill_index(doc) -> dict[tuple[str, str], set]:
    """G-edge -> overlay edges whose route uses it."""
    kill: dict[tuple[str, str], set] = {}
    routes = {edge_key(*r["pair"]): r["path"] for r in doc["routes"]}
    for u, v in doc["overlay_edges"]:
        path = routes[edge_key(u, v)]
        for a, b in zip(path, path[1:]):
            kill.setdefault(edge_key(a, b), set()).add(edge_key(u, v))
    return kill


def _spans(peers, edges) -> bool:
    parent = {p: p for p in peers}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = len(parent)
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return components == 1


def survives_single_failures(doc) -> bool:
    """Does the overlay stay connected on the peers after any one G-edge fails?

    An overlay edge dies with every G-edge on its route.  Used both to pick
    precondition-feasible sparsify instances (overlay = all peer pairs) and
    to check the sparsifier's output.
    """
    overlay = {edge_key(*e) for e in doc["overlay_edges"]}
    if not _spans(doc["peers"], overlay):
        return False
    return all(
        _spans(doc["peers"], overlay - dead)
        for dead in _kill_index(doc).values()
    )


def _fixture(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


# -- workload corpora ------------------------------------------------------

# Criterion-2 shape: 8..20 nodes, 4..10 peers, edge probability 0.45, route
# policies alternating.  Instance k of the schedule uses the same size rule
# as the library's strong-duality acceptance corpus.  Instances 34 and 48
# (16 and 17 nodes, 10 peers) are left out: they took 2.6 s and 1.5 s at the
# seed commit, over half of a pass, so a run would hold only a few samples of
# the two ops that set ``ops_per_s``.
FDC_INSTANCES = 60
FDC_LEFT_OUT = (34, 48)


def fdc_colgen() -> Corpus:
    docs, ops = {}, []
    for k in range(FDC_INSTANCES):
        if k in FDC_LEFT_OUT:
            continue
        n = 8 + k % 13
        p = min(4 + k % 7, n)
        policy = "shortest_path" if k % 2 else "random_simple"
        name = f"fdc{k:03d}"
        docs[name] = random_doc(20_000 + k, n, p, 0.45, policy)
        peers = docs[name]["peers"]
        ops.append(
            Op(name, name, ("fdc", "--pair", peers[0], peers[-1], "--witness"))
        )
    docs["fig1"] = _fixture("fig1")
    ops.append(Op("fig1", "fig1", ("fdc", "--all-pairs", "--witness")))
    return Corpus(docs, ops)


CUT_VERBS = ("erdc", "pddc", "spddc")
# Small dense instances for all three verbs: (nodes, peers) per instance.
CUT_SMALL = [(n, p) for p in (4, 5) for n in range(8, 14)] + [
    (n, 6) for n in range(8, 16)
]


def cut_pack() -> Corpus:
    docs, ops = {}, []
    for k, (n, p) in enumerate(CUT_SMALL):
        policy = "shortest_path" if k % 2 else "random_simple"
        name = f"cut{k:03d}"
        docs[name] = random_doc(30_000 + k, n, p, 0.6, policy)
        for verb in CUT_VERBS:
            ops.append(Op(f"{verb}-{name}", name, (verb, "--all-pairs", "--witness")))
    # One larger instance for ERDC only, so that its subset search carries
    # more of the workload than the packing branch and bound.
    docs["erdc000"] = random_doc(31_000, 12, 7, 0.6, "random_simple")
    ops.append(Op("erdc-erdc000", "erdc000", ("erdc", "--all-pairs", "--witness")))
    for name in ("fig1", "shared_edge"):
        docs[name] = _fixture(name)
        for verb in CUT_VERBS:
            ops.append(Op(f"{verb}-{name}", name, (verb, "--all-pairs", "--witness")))
    return Corpus(docs, ops)


# Shortest-path routing on a complete overlay; instances whose complete
# overlay does not survive every single G-edge failure violate the
# sparsifier's precondition and are skipped by advancing the seed.
SPARSIFY_PEERS = (25,) * 10 + (27,) * 6 + (30,) * 5 + (33,) * 4 + (36,) * 3 + (40,) * 2
SPARSIFY_SIZES = [(2 * p, p) for p in SPARSIFY_PEERS]


def sparsify() -> Corpus:
    docs, ops = {}, []
    for k, (n, p) in enumerate(SPARSIFY_SIZES):
        seed = 40_000 + 1000 * k
        while True:
            doc = random_doc(seed, n, p, 0.12, "shortest_path")
            if survives_single_failures(doc):
                break
            seed += 1
        name = f"sp{k:03d}"
        docs[name] = doc
        ops.append(Op(name, name, ("sparsify", "-o", OUTPUT)))
    return Corpus(docs, ops)


BUILDERS = {"fdc-colgen": fdc_colgen, "cut-pack": cut_pack, "sparsify": sparsify}
WORKLOADS = tuple(BUILDERS)


def build(workload: str) -> Corpus:
    return BUILDERS[workload]()
