"""Exact (exponential-time, desk-scale) oracles for the cut and packing
parameters, plus a classic single-layer edge-connectivity routine.

These double as first-class features and as ground truth for property tests.
Budgets are hard guards: the searches fail loudly instead of approximating.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceededError, ValidationError
from .fdc import fdc_pair
from .model import (
    DEFAULT_PATH_CAP,
    Edge,
    Instance,
    Path,
    check_pair,
    enumerate_simple_paths,
    image_support,
    is_simple_concatenation,
    overlay_path,
    peer_pairs,
)

DEFAULT_CUT_BUDGET = 1 << 20
DEFAULT_PACKING_BUDGET = 1_000_000


@dataclass
class CutCertificate:
    """A set of G-edges whose removal disconnects s from t in the overlay."""

    edges: frozenset[Edge]

    def validate(self, instance: Instance, s: str, t: str) -> None:
        if not _cut_disconnects(instance, self.edges, s, t):
            raise ValidationError("cut certificate does not disconnect the pair")


@dataclass
class PathPacking:
    """Overlay (s,t)-paths with pairwise disjoint image supports."""

    paths: list[Path]

    def validate(self, instance: Instance, simple_only: bool = False) -> None:
        supports = [image_support(instance, p) for p in self.paths]
        for a, b in combinations(supports, 2):
            if a & b:
                raise ValidationError("packing images intersect")
        if simple_only:
            for p in self.paths:
                if not is_simple_concatenation(instance, p):
                    raise ValidationError("packing path is not simply implemented")


def _cut_disconnects(instance: Instance, cut, s: str, t: str) -> bool:
    dead = set().union(*(instance.kill_sets.get(e, ()) for e in cut))
    return overlay_path(instance, s, t, dead) is None


def erdc_pair(
    instance: Instance, s: str, t: str, budget: int = DEFAULT_CUT_BUDGET
) -> tuple[int, CutCertificate]:
    """Minimum number of G-edges whose removal disconnects s from t in H.

    Candidate edges are grouped by identical kill sets (the overlay edges
    routed through them) before enumerating subsets by increasing size.
    """
    check_pair(instance, s, t)
    if overlay_path(instance, s, t) is None:
        return 0, CutCertificate(frozenset())

    kill = instance.kill_sets
    # One representative underlying edge per distinct kill set; kill_sets
    # lists its edges in order, so the candidates come out sorted.
    reps: dict[frozenset[Edge], Edge] = {}
    for e, dies in kill.items():
        reps.setdefault(dies, e)
    candidates = list(reps.values())

    explored = 0
    for size in range(1, len(candidates) + 1):
        for subset in combinations(candidates, size):
            explored += 1
            if explored > budget:
                raise BudgetExceededError(
                    f"cut search exceeded budget of {budget} subsets"
                )
            dead = set().union(*(kill[e] for e in subset))
            if overlay_path(instance, s, t, dead) is None:
                return size, CutCertificate(frozenset(subset))
    raise AssertionError("removing every routed edge must disconnect the pair")


def _max_packing(
    supports: list[frozenset[Edge]], budget: int
) -> list[int]:
    """Exact maximum set packing by lexicographic branch and bound."""
    best: list[int] = []
    nodes = 0

    def search(idx: int, chosen: list[int], used: frozenset[Edge]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"packing search exceeded budget of {budget} nodes"
            )
        if len(chosen) > len(best):
            best = list(chosen)
        if idx == len(supports):
            return
        # Upper bound: everything remaining fits.
        if len(chosen) + (len(supports) - idx) <= len(best):
            return
        if not (supports[idx] & used):
            chosen.append(idx)
            search(idx + 1, chosen, used | supports[idx])
            chosen.pop()
        search(idx + 1, chosen, used)

    search(0, [], frozenset())
    return best


def pddc_pair(
    instance: Instance,
    s: str,
    t: str,
    path_cap: int = DEFAULT_PATH_CAP,
    budget: int = DEFAULT_PACKING_BUDGET,
) -> tuple[int, PathPacking]:
    """Maximum number of overlay (s,t)-paths with pairwise disjoint images."""
    check_pair(instance, s, t)
    paths = enumerate_simple_paths(instance, s, t, cap=path_cap)
    supports = [image_support(instance, p) for p in paths]
    chosen = _max_packing(supports, budget)
    return len(chosen), PathPacking([paths[i] for i in chosen])


def spddc_pair(
    instance: Instance,
    s: str,
    t: str,
    path_cap: int = DEFAULT_PATH_CAP,
    budget: int = DEFAULT_PACKING_BUDGET,
) -> tuple[int, PathPacking]:
    """As pddc_pair, restricted to paths whose concatenated walk is simple."""
    check_pair(instance, s, t)
    paths = [
        p
        for p in enumerate_simple_paths(instance, s, t, cap=path_cap)
        if is_simple_concatenation(instance, p)
    ]
    supports = [image_support(instance, p) for p in paths]
    chosen = _max_packing(supports, budget)
    return len(chosen), PathPacking([paths[i] for i in chosen])


_PAIR_OPS = {
    "fdc": fdc_pair,
    "erdc": erdc_pair,
    "pddc": pddc_pair,
    "spddc": spddc_pair,
}


def pair_parameter(instance: Instance, which: str, s: str, t: str, **kwargs):
    """(value, certificate) of one parameter for one pair.

    The certificate of "fdc" is its FlowResult.
    """
    result = _PAIR_OPS[which](instance, s, t, **kwargs)
    return (result.value, result) if which == "fdc" else result


def all_pairs(instance: Instance, which: str, **kwargs):
    """Minimum over unordered peer pairs; lexicographically smallest argmin."""
    best = None
    for u, v in peer_pairs(instance):
        value, witness = pair_parameter(instance, which, u, v, **kwargs)
        if best is None or value < best[0]:
            best = (value, (u, v), witness)
    return best


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
