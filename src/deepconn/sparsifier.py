"""Sparse 2-edge-survivable overlay construction.

Implements the feasibility precondition, the per-tracked-edge component
counting (kappa), the marginal-gain function (delta), the greedy submodular
augmentation, a brute-force optimal augmenter for ratio tests, and the
identity-routing special case that achieves at most 2n-2 overlay edges.

The greedy is lazy (Minoux's accelerated greedy): every candidate pair is
scored once, and each round re-scores only the top of a max-heap of stored
gains until the re-scored top still beats the next stored gain.  This is
exact because delta is antitone (adding overlay edges only merges
components, so no gain grows): a stored gain bounds the current one from
above.  Ties go to the first pair in ``peer_pairs`` order, as in a full
rescan, so the overlay and the kappa trace are those of the full rescan.

The precondition asks whether removing the pairs routed through one
G-edge disconnects K_P.  K_P is (|P|-1)-edge-connected, so only G-edges
that carry the routes of at least |P|-1 pairs are tested.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import combinations

from .errors import BudgetExceededError, PreconditionError, ValidationError
from .model import Edge, Instance, edge_key, peer_pairs

DEFAULT_AUGMENT_BUDGET = 200_000


class _DSU:
    """Union-find over a fixed universe, tracking the component count."""

    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.components = len(self.parent)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        self.components -= 1
        return True


def _require_total(instance: Instance) -> None:
    if not instance.total:
        raise ValidationError("sparsifier requires a total routing scheme")


def check_precondition(instance: Instance) -> tuple[bool, Edge | None]:
    """Feasibility of the 2-survivable target on the complete peer graph.

    ok iff no single underlying edge disconnects K_P once every peer pair
    routed through it is removed.  Returns the first violating edge in
    canonical order otherwise.  Only G-edges with a route load of at least
    |P|-1 pairs are tested; no other edge can disconnect K_P.
    """
    _require_total(instance)
    pairs = list(peer_pairs(instance))
    supports = {p: instance.route_support(*p) for p in pairs}
    load = Counter()
    for support in supports.values():
        load.update(support)
    need = len(instance.peers) - 1
    for e in sorted(e for e, n in load.items() if n >= need):
        dsu = _DSU(instance.peers)
        for p in pairs:
            if e not in supports[p]:
                dsu.union(*p)
        if dsu.components > 1:
            return False, e
    return True, None


@dataclass
class AugmentationState:
    """Mutable greedy state: per-tracked-edge peer partitions and deficits."""

    instance: Instance
    tree: frozenset[Edge]
    overlay: set[Edge]
    tracked: tuple[Edge, ...]
    partitions: list[_DSU]
    kappa_i: list[int] = field(default_factory=list)

    @property
    def kappa(self) -> int:
        return sum(self.kappa_i)


def tracked_state(instance: Instance, overlay, tree) -> AugmentationState:
    """State for an arbitrary overlay edge set (not necessarily containing
    the tree); the tree argument only fixes the tracked underlying edges.
    """
    _require_total(instance)
    overlay = {edge_key(*e) for e in overlay}
    tree = frozenset(edge_key(*e) for e in tree)
    tracked = tuple(
        sorted(set().union(*(instance.route_support(*e) for e in tree)))
    )
    partitions = []
    kappa_i = []
    for e_i in tracked:
        dsu = _DSU(instance.peers)
        for f in overlay:
            if e_i not in instance.route_support(*f):
                dsu.union(*f)
        partitions.append(dsu)
        kappa_i.append(dsu.components - 1)
    return AugmentationState(
        instance=instance,
        tree=tree,
        overlay=overlay,
        tracked=tracked,
        partitions=partitions,
        kappa_i=kappa_i,
    )


def compute_kappa(instance: Instance, overlay, tree) -> AugmentationState:
    """Distance of the overlay from 2-survivability, tracked against tree routes."""
    _require_total(instance)
    overlay = {edge_key(*e) for e in overlay}
    tree = {edge_key(*e) for e in tree}
    if not tree <= overlay:
        raise ValidationError("overlay must contain the base tree")
    _check_spanning_tree(instance, tree)
    return tracked_state(instance, overlay, tree)


def _check_spanning_tree(instance: Instance, tree) -> None:
    if len(tree) != len(instance.peers) - 1:
        raise ValidationError("base tree has wrong edge count")
    dsu = _DSU(instance.peers)
    for u, v in tree:
        if u not in dsu.parent or v not in dsu.parent:
            raise ValidationError("tree edge endpoint is not a peer")
        if not dsu.union(u, v):
            raise ValidationError("base tree contains a cycle")
    if dsu.components != 1:
        raise ValidationError("base tree does not span the peers")


def delta(state: AugmentationState, e: Edge) -> int:
    """Drop in kappa from adding candidate overlay edge e; sum of 0/1 terms."""
    e = edge_key(*e)
    if e in state.overlay:
        raise ValidationError(f"candidate edge {e} already in the overlay")
    support = state.instance.route_support(*e)
    gain = 0
    for e_i, dsu in zip(state.tracked, state.partitions):
        if e_i in support:
            continue
        if dsu.find(e[0]) != dsu.find(e[1]):
            gain += 1
    return gain


def add_edge(state: AugmentationState, e: Edge) -> None:
    e = edge_key(*e)
    support = state.instance.route_support(*e)
    state.overlay.add(e)
    for idx, e_i in enumerate(state.tracked):
        if e_i not in support and state.partitions[idx].union(*e):
            state.kappa_i[idx] -= 1


def greedy_augment(
    instance: Instance, tree, trace: list | None = None
) -> frozenset[Edge]:
    """Add maximum-gain peer pairs to the tree until kappa reaches zero.

    Ties go to the first pair in ``peer_pairs`` order.
    """
    ok, witness = check_precondition(instance)
    if not ok:
        raise PreconditionError(
            f"precondition ERDC(K_P) >= 2 violated at edge ({witness[0]},{witness[1]})",
            witness,
        )
    state = compute_kappa(instance, tree, tree)
    # Lazy greedy (see the module docstring): stored gains only overestimate,
    # so a re-scored top that still beats the next stored key is the best pair.
    heap = []
    for index, cand in enumerate(peer_pairs(instance)):
        if cand not in state.overlay:
            gain = delta(state, cand)
            if gain > 0:
                heap.append((-gain, index, cand))
    heapq.heapify(heap)
    while state.kappa > 0:
        if trace is not None:
            trace.append(state.kappa)
        while True:
            if not heap:
                raise AssertionError("no improving edge despite positive kappa")
            _, index, cand = heapq.heappop(heap)
            gain = delta(state, cand)
            if gain == 0:
                continue
            entry = (-gain, index, cand)
            if not heap or entry < heap[0]:
                break
            heapq.heappush(heap, entry)
        add_edge(state, cand)
    if trace is not None:
        trace.append(0)
    return frozenset(state.overlay)


def star_tree(instance: Instance) -> frozenset[Edge]:
    """Deterministic base tree: star centered at the smallest peer."""
    center = min(instance.peers)
    return frozenset(edge_key(center, v) for v in instance.peers if v != center)


def sparsify(instance: Instance) -> frozenset[Edge]:
    """Two-stage construction: star base tree, then greedy augmentation."""
    return greedy_augment(instance, star_tree(instance))


def sparsified_instance(instance: Instance, overlay: frozenset[Edge]) -> Instance:
    """The input instance with its overlay replaced by a constructed edge set.

    Only the new overlay is checked: the rest was validated with the input.
    The routed pairs are exactly the pairs of distinct peers that have a
    route, so an edge that is not one of them is a ValidationError.
    """
    canon = frozenset(edge_key(u, v) for u, v in overlay)
    unrouted = [e for e in canon if e not in instance.routes]
    if unrouted:
        raise ValidationError(f"overlay edge {min(unrouted)} has no route")
    return replace(instance, overlay_edges=canon)


def brute_force_augment(
    instance: Instance, tree, budget: int = DEFAULT_AUGMENT_BUDGET
) -> frozenset[Edge]:
    """Minimum-cardinality superset of the tree with kappa zero; exhaustive."""
    ok, witness = check_precondition(instance)
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
            if tracked_state(instance, overlay, tree).kappa == 0:
                return frozenset(overlay)
    raise AssertionError("complete peer graph must be feasible under the precondition")


def special_case_construct(nodes, edges) -> frozenset[Edge]:
    """Identity-routing special case: spanning tree plus one cover edge per
    tree edge; at most 2n-2 overlay edges, survivable against any single
    underlying edge failure.  Requires a 2-edge-connected graph.
    """
    nodes = list(nodes)
    canon = sorted(edge_key(*e) for e in edges)
    # Minimum-lexicographic Kruskal tree.
    dsu = _DSU(nodes)
    tree: list[Edge] = []
    for e in canon:
        if dsu.union(*e):
            tree.append(e)
    if dsu.components != 1:
        raise ValidationError("underlying graph disconnected")
    overlay = set(tree)
    tree_set = set(tree)
    for e in tree:
        # Peers on e[0]'s side of the cut induced by removing e from the tree.
        side = {e[0]}
        stack = [e[0]]
        while stack:
            u = stack.pop()
            for f in tree_set:
                if f == e or u not in f:
                    continue
                v = f[0] if f[1] == u else f[1]
                if v not in side:
                    side.add(v)
                    stack.append(v)
        cover = next(
            (
                f
                for f in canon
                if f != e and (f[0] in side) != (f[1] in side)
            ),
            None,
        )
        if cover is None:
            raise PreconditionError(
                f"underlying graph has a bridge at ({e[0]},{e[1]})", e
            )
        overlay.add(cover)
    return frozenset(overlay)
