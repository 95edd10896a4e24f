"""Sparse 2-edge-survivable overlay construction.

Implements the feasibility precondition, the per-tracked-edge component
counting (kappa), the marginal-gain function (delta), the greedy submodular
augmentation, and the identity-routing special case that achieves at most
2n-2 overlay edges.

Kappa sums, over the tracked G-edges (those on the base tree's routes),
the number of components minus one of the peers joined by the overlay
edges routed around that G-edge.  The state keeps one int per peer pair,
its separation mask: bit i is set when the pair's endpoints lie in
different components for tracked edge i and that edge is not on the
pair's route.  Adding the pair merges exactly those components, so delta
is the mask's popcount.  Adding an edge visits only its mask's bits: for
each, it merges the smaller component's member list into the larger and
clears the bit on every pair across the two, so the work over a whole run
is bounded by the cross pairs of the starting partitions.

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
from dataclasses import dataclass, replace
from itertools import combinations

from .errors import PreconditionError, ValidationError
from .model import Edge, Instance, edge_key, peer_pairs


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
    """Mutable greedy state: per-pair separation masks over the tracked edges.

    Partition i groups the peers by the overlay edges whose routes avoid
    ``tracked[i]``; ``components[i]`` maps each peer to the member list of
    its component there.  Bit i of ``sep[p]`` is set when the peer pair p
    joins two components of partition i, that is, when its endpoints are
    in different components and ``tracked[i]`` is not on p's route.
    """

    instance: Instance
    tree: frozenset[Edge]
    overlay: set[Edge]
    tracked: tuple[Edge, ...]
    sep: dict[Edge, int]
    components: list[dict[str, list[str]]]
    kappa_i: list[int]

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
    supports = {p: instance.route_support(*p) for p in peer_pairs(instance)}
    tracked = tuple(sorted(set().union(*(supports[e] for e in tree))))
    index = {e_i: i for i, e_i in enumerate(tracked)}
    # on_route[p]: the tracked edges on p's route, as a bitmask.
    on_route = {}
    for p, support in supports.items():
        mask = 0
        for e in support:
            if e in index:
                mask |= 1 << index[e]
        on_route[p] = mask
    adjacency: dict[str, list[tuple[str, int]]] = {x: [] for x in instance.peers}
    for u, v in overlay:
        adjacency[u].append((v, on_route[(u, v)]))
        adjacency[v].append((u, on_route[(u, v)]))
    sep = dict.fromkeys(supports, 0)
    components = []
    kappa_i = []
    for i in range(len(tracked)):
        # Breadth-first labelling over the overlay edges that avoid tracked[i];
        # each group list is its own queue.
        comp: dict[str, list[str]] = {}
        groups = []
        for x in instance.peers:
            if x in comp:
                continue
            group = [x]
            comp[x] = group
            for y in group:
                for z, mask in adjacency[y]:
                    if z not in comp and not mask >> i & 1:
                        comp[z] = group
                        group.append(z)
            groups.append(group)
        bit = 1 << i
        for a, b in combinations(groups, 2):
            for x in a:
                for y in b:
                    sep[(x, y) if x < y else (y, x)] |= bit
        components.append(comp)
        kappa_i.append(len(groups) - 1)
    for p, mask in on_route.items():
        sep[p] &= ~mask
    return AugmentationState(
        instance=instance,
        tree=tree,
        overlay=overlay,
        tracked=tracked,
        sep=sep,
        components=components,
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
    """Drop in kappa from adding candidate overlay edge e: one per tracked
    edge whose partition e would merge, the popcount of its separation mask.
    """
    e = edge_key(*e)
    if e in state.overlay:
        raise ValidationError(f"candidate edge {e} already in the overlay")
    return state.sep[e].bit_count()


def add_edge(state: AugmentationState, e: Edge) -> None:
    """Add overlay edge e, merging the two components it joins in each
    partition where its mask has a bit; every cross pair loses that bit.
    """
    e = edge_key(*e)
    u, v = e
    sep = state.sep
    bits = sep[e]
    state.overlay.add(e)
    while bits:
        low = bits & -bits
        bits ^= low
        i = low.bit_length() - 1
        comp = state.components[i]
        small, large = comp[u], comp[v]
        if len(small) > len(large):
            small, large = large, small
        keep = ~low
        for x in small:
            for y in large:
                sep[(x, y) if x < y else (y, x)] &= keep
        for x in small:
            comp[x] = large
        large.extend(small)
        state.kappa_i[i] -= 1


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
