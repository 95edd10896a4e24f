"""Independent checks of one op's output.

Nothing here calls into ``deepconn``: each certificate is re-checked from
the raw instance document with the benchmark's own code, so a defect in the
library's own ``validate`` cannot hide a wrong answer.  ``summary`` extracts
what is compared with the reference values recorded at the seed commit.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations

from corpus import edge_key, survives_single_failures


class Net:
    """The parts of an instance document the checks need."""

    def __init__(self, doc: dict):
        self.edges = {edge_key(*e) for e in doc["edges"]}
        self.peers = set(doc["peers"])
        self.overlay = {edge_key(*e) for e in doc["overlay_edges"]}
        self.routes = {edge_key(*r["pair"]): list(r["path"]) for r in doc["routes"]}

    def route(self, u: str, v: str) -> list[str]:
        path = self.routes[edge_key(u, v)]
        return path if path[0] == u else path[::-1]

    def route_edges(self, f) -> list[tuple[str, str]]:
        path = self.routes[f]
        return [edge_key(a, b) for a, b in zip(path, path[1:])]

    def overlay_path_problem(self, path, s: str, t: str) -> str | None:
        if len(path) < 2 or path[0] != s or path[-1] != t:
            return f"path {path} does not run from {s} to {t}"
        if len(set(path)) != len(path):
            return f"path {path} repeats a peer"
        for u, v in zip(path, path[1:]):
            if edge_key(u, v) not in self.overlay:
                return f"({u},{v}) is not an overlay edge"
        return None

    def walk(self, path) -> list[str]:
        out = [path[0]]
        for u, v in zip(path, path[1:]):
            out.extend(self.route(u, v)[1:])
        return out

    def image(self, path) -> Counter:
        walk = self.walk(path)
        return Counter(edge_key(a, b) for a, b in zip(walk, walk[1:]))

    def overlay_neighbors(self, alive) -> dict[str, list[str]]:
        adj = {p: [] for p in self.peers}
        for u, v in alive:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def reachable(self, alive, s: str, t: str) -> bool:
        adj = self.overlay_neighbors(alive)
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:
                return True
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return False


def _flow_problems(net: Net, s: str, t: str, value: Fraction, witness) -> list[str]:
    """Primal and dual feasible with equal objectives, so both are optimal."""
    problems = []
    load: Counter = Counter()
    primal_total = Fraction(0)
    for key, text in witness["primal"].items():
        path, flow = key.split(" "), Fraction(text)
        problem = net.overlay_path_problem(path, s, t)
        if problem:
            return [f"primal: {problem}"]
        if flow <= 0:
            problems.append(f"primal flow {flow} on {key} is not positive")
        primal_total += flow
        for e, mult in net.image(path).items():
            load[e] += mult * flow
    if any(v > 1 for v in load.values()):
        problems.append("primal exceeds a unit edge capacity")
    dual = {}
    for key, text in witness["dual"].items():
        e, weight = edge_key(*key.split(",")), Fraction(text)
        if e not in net.edges:
            return [f"dual weight on non-edge {key}"]
        if weight < 0:
            problems.append(f"negative dual weight on {key}")
        dual[e] = weight
    if primal_total != value or sum(dual.values(), Fraction(0)) != value:
        problems.append("primal and dual objectives differ from the value")
    # Dual feasibility over every overlay (s,t)-path: the cheapest overlay
    # walk under w(f) = dual mass on f's route costs at least 1.
    weight = {f: sum((dual.get(e, 0) for e in net.route_edges(f)), Fraction(0))
              for f in net.overlay}
    if value == 0:
        if net.reachable(net.overlay, s, t):
            problems.append("value 0 but the overlay connects the pair")
    elif _cheapest(net, weight, s, t) < 1:
        problems.append("dual violates an overlay path constraint")
    return problems


def _cheapest(net: Net, weight, s: str, t: str) -> Fraction:
    adj = net.overlay_neighbors(net.overlay)
    dist = {s: Fraction(0)}
    heap = [(Fraction(0), s)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        if u == t:
            return d
        done.add(u)
        for v in adj[u]:
            nd = d + weight[edge_key(u, v)]
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return Fraction(2)  # unreachable: every path constraint holds vacuously


def _cut_problems(net: Net, s: str, t: str, value: int, witness) -> list[str]:
    cut = {edge_key(*e) for e in witness["cut"]}
    if not cut <= net.edges:
        return ["cut names a non-edge"]
    problems = [] if len(cut) == value else [f"cut size {len(cut)} != value {value}"]
    alive = {f for f in net.overlay if not cut & set(net.route_edges(f))}
    if net.reachable(alive, s, t):
        problems.append("cut does not disconnect the pair")
    return problems


def _packing_problems(
    net: Net, s: str, t: str, value: int, witness, simple: bool
) -> list[str]:
    paths = witness["paths"]
    for path in paths:
        problem = net.overlay_path_problem(path, s, t)
        if problem:
            return [problem]
    problems = [] if len(paths) == value else [f"{len(paths)} paths != value {value}"]
    supports = [set(net.image(p)) for p in paths]
    if any(a & b for a, b in combinations(supports, 2)):
        problems.append("packing images intersect")
    if simple and any(len(set(w)) != len(w) for w in map(net.walk, paths)):
        problems.append("packing path is not simply implemented")
    return problems


def _sparsify_problems(doc: dict, report: dict, out_doc: dict | None) -> list[str]:
    if out_doc is None:
        return ["no output document"]
    problems = []
    for key in ("nodes", "edges", "peers", "routes"):
        if _canonical(key, out_doc[key]) != _canonical(key, doc[key]):
            problems.append(f"output changed {key}")
    overlay = sorted(edge_key(*e) for e in out_doc["overlay_edges"])
    if [tuple(e) for e in report["overlay_edges"]] != overlay:
        problems.append("report and output document disagree on the overlay")
    if report["size"] != len(overlay) or report["tree_edges"] != len(doc["peers"]) - 1:
        problems.append("report sizes are inconsistent")
    if not set(overlay) <= {edge_key(*e) for e in doc["overlay_edges"]}:
        problems.append("output overlay uses a pair outside the input overlay")
    if not survives_single_failures(out_doc):
        problems.append("output overlay does not survive every single G-edge failure")
    return problems


def _canonical(key: str, value):
    if key == "routes":
        return sorted(
            (edge_key(*r["pair"]), tuple(r["path"] if r["path"][0] <= r["path"][-1]
                                         else r["path"][::-1]))
            for r in value
        )
    if key == "edges":
        return sorted(edge_key(*e) for e in value)
    return sorted(value)


def problems(argv, doc: dict, report: dict, out_doc: dict | None = None) -> list[str]:
    """Every reason the report of ``deepconn <argv>`` on ``doc`` is wrong."""
    verb = argv[0]
    if report.get("status") != "ok":
        return [f"status {report.get('status')!r}"]
    if verb == "sparsify":
        return _sparsify_problems(doc, report, out_doc)
    net = Net(doc)
    s, t = report["pair"] if "pair" in report else report["argmin_pair"]
    witness = report["witness"]
    if verb == "fdc":
        return _flow_problems(net, s, t, Fraction(report["value"]), witness)
    if verb == "erdc":
        return _cut_problems(net, s, t, report["value"], witness)
    return _packing_problems(net, s, t, report["value"], witness, verb == "spddc")


def summary(report: dict) -> dict:
    """The fields compared against the reference: value, argmin and size."""
    keys = ("value", "pair", "argmin_pair", "size")
    return {k: report[k] for k in keys if k in report}
