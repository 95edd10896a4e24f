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

A state is built in one of two ways.  Let own[p] be the tracked bits of
pair p's route.  ``compute_kappa`` starts with every peer alone in every
partition, so sep[p] is every tracked bit but own[p], and adds the overlay
pairs one by one with ``add_edge``, which merges exactly what the
definition merges.  The greedy starts from the tree's own state, which has
a closed form.  Partition i of the tree is the tree minus the tree edges
whose own mask has bit i, so kappa_i is the number of those edges, and two
peers lie apart there iff their tree path holds one of them.  So sep[p] is
the OR of own over p's tree path, with p's own bits cleared.  One walk of
the tree gives every path's OR and every partition's groups, and no pair's
support is searched.

Each greedy round adds the first pair of largest gain in ``peer_pairs``
order, found lazily (Minoux's accelerated greedy).  Delta is antitone:
adding overlay edges only merges components, so no gain grows.  A heap
keys each pair by its gain when it was last counted, which bounds its gain
now from above.  The top pair is recounted; when its gain equals its key,
every other pair gains at most its own key, which is no larger, and a pair
of equal gain has an equal key and comes later in ``peer_pairs``, so the
top pair is exactly the full rescan's pick.  A stale top pair goes back
with its current gain, or out for good at zero gain, since it never gains
again.  Tree pairs start at zero and an added pair's mask is cleared, so
overlay pairs never enter or re-enter the heap.

The greedy is also the one feasibility test.  The precondition,
ERDC(K_P) >= 2, fails at a G-edge when removing the pairs routed through
it disconnects K_P.  Once no pair has a positive gain, partition i is
exactly the components of K_P minus the pairs routed through tracked[i],
so kappa_i > 0 there iff tracked[i] violates the precondition; an
untracked G-edge never does, because the tree survives its failure.  The
greedy raises PreconditionError at the first such edge when no live pair
gains; kappa never rises, so when it drains to zero instead, K_P's kappa
is zero too.  check_precondition runs the greedy from the star tree.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace

from .errors import PreconditionError, ValidationError
from .model import Edge, Instance, adjacency, connected, edge_key, peer_pairs


class AugmentationState:
    """Mutable greedy state: per-pair separation masks over the tracked edges.

    ``overlay`` is the set of overlay edges added so far and ``tracked`` the
    tuple of tracked G-edges.  Partition i groups the peers by the overlay
    edges whose routes avoid ``tracked[i]``; ``components[i]`` maps each
    peer to the member list of its component there, and ``kappa_i[i]`` is
    its number of components minus one.  Bit i of the int ``sep[p]`` is set
    when the peer pair p joins two components of partition i, that is, when
    its endpoints are in different components and ``tracked[i]`` is not on
    p's route.  A plain mutable record, with no ``==`` of its own.
    """

    def __init__(self, overlay, tracked, sep, components, kappa_i):
        self.overlay, self.tracked, self.sep = overlay, tracked, sep
        self.components, self.kappa_i = components, kappa_i

    @property
    def kappa(self) -> int:
        return sum(self.kappa_i)


def compute_kappa(instance: Instance, overlay, tree) -> AugmentationState:
    """Distance of the overlay from 2-survivability, tracked against the
    routes of a spanning tree of peer pairs.  The overlay is any set of peer
    pairs; it need not contain the tree.
    """
    tree, tracked, own = _tracked_edges(instance, tree)
    overlay = {edge_key(*e) for e in overlay}
    # A spanning tree holds only peer pairs, so only the overlay can stray.
    stray = overlay.difference(own)
    if stray:
        raise ValidationError(f"edge {min(stray)} is not a pair of distinct peers")
    # Every peer alone in every partition: a pair joins two groups of
    # partition i unless tracked[i] is on its route.
    full = (1 << len(tracked)) - 1
    sep = {p: full & ~m for p, m in own.items()}
    components = [{x: [x] for x in instance.peers} for _ in tracked]
    kappa_i = [len(instance.peers) - 1] * len(tracked)
    state = AugmentationState(set(), tracked, sep, components, kappa_i)
    for e in sorted(overlay):
        add_edge(state, e)
    return state


def _tree_state(instance: Instance, tree) -> AugmentationState:
    """``compute_kappa(instance, tree, tree)`` in closed form: sep[p] is
    the OR of the tracked bits of the routes on p's tree path, less the
    tracked bits of p's own route, and partition i is the tree less its
    edges with bit i (see the module docstring).
    """
    tree, tracked, own = _tracked_edges(instance, tree)
    adj = adjacency(instance.peers, tree)
    # path[x][y] is the OR of own over the x-y tree path.  The walk meets
    # each peer z from its tree neighbour x before any peer beyond z, so
    # z's path to every peer met so far runs through x, and z joins x's
    # group in each partition whose bit the tree edge (x, z) lacks.
    root = instance.peers[0]
    path: dict[str, dict[str, int]] = {root: {}}
    components = [{root: [root]} for _ in tracked]
    kappa_i = [0] * len(tracked)
    queue = [root]
    for x in queue:
        row = path[x]
        for z in adj[x]:
            if z not in path:
                m = own[edge_key(x, z)]
                zrow = path[z] = {y: mask | m for y, mask in row.items()}
                for y, mask in zrow.items():
                    path[y][z] = mask
                zrow[x] = row[z] = m
                for i, comp in enumerate(components):
                    if m >> i & 1:
                        comp[z] = [z]
                        kappa_i[i] += 1
                    else:
                        comp[z] = comp[x]
                        comp[z].append(z)
                queue.append(z)
    sep = {p: path[p[0]][p[1]] & ~m for p, m in own.items()}
    return AugmentationState(tree, tracked, sep, components, kappa_i)


def _tracked_edges(
    instance: Instance, tree
) -> tuple[set[Edge], tuple[Edge, ...], dict[Edge, int]]:
    """The canonical base tree, the sorted G-edges on its routes, and each
    peer pair's tracked bits (bit i for tracked[i] on its route), after the
    checks that routing is total and the tree spans the peers.
    """
    if not instance.total:
        raise ValidationError("sparsifier requires a total routing scheme")
    tree = {edge_key(*e) for e in tree}
    _check_spanning_tree(instance, tree)
    supports = instance.supports  # keyed by exactly the peer pairs
    tracked = tuple(sorted(set().union(*(supports[e] for e in tree))))
    bit = dict.fromkeys(instance.edges, 0)
    for i, e in enumerate(tracked):
        bit[e] = 1 << i
    own = {p: sum(map(bit.__getitem__, support)) for p, support in supports.items()}
    return tree, tracked, own


def _check_spanning_tree(instance: Instance, tree) -> None:
    # |P| - 1 peer pairs join all |P| peers iff they close no cycle.
    peers = instance.peers
    if len(tree) != len(peers) - 1:
        raise ValidationError("base tree has wrong edge count")
    if not set().union(*tree) <= set(peers):
        raise ValidationError("tree edge endpoint is not a peer")
    if not connected(peers, adjacency(peers, tree)):
        raise ValidationError("base tree contains a cycle")


def delta(state: AugmentationState, e: Edge) -> int:
    """Drop in kappa from adding candidate overlay edge e: one per tracked
    edge whose partition e would merge, the popcount of its separation mask.
    """
    e = edge_key(*e)
    if e in state.overlay:
        raise ValidationError(f"candidate edge {e} already in the overlay")
    try:
        return state.sep[e].bit_count()
    except KeyError:
        raise ValidationError(f"candidate edge {e} is not a pair of distinct peers") from None


def add_edge(state: AugmentationState, e: Edge) -> None:
    """Add overlay edge e, merging the two components it joins in each
    partition where its mask has a bit; every cross pair loses that bit.
    """
    e = edge_key(*e)
    u, v = e
    sep = state.sep
    try:
        bits = sep[e]
    except KeyError:
        raise ValidationError(f"edge {e} is not a pair of distinct peers") from None
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


def check_precondition(instance: Instance) -> tuple[bool, Edge | None]:
    """Feasibility of the 2-survivable target on the complete peer graph.

    ok iff no single underlying edge disconnects K_P once every peer pair
    routed through it is removed.  The greedy from the star tree drains
    kappa to zero exactly then, and otherwise names the first violating
    edge in canonical order (see the module docstring).
    """
    try:
        sparsify(instance)
    except PreconditionError as exc:
        return False, exc.witness
    return True, None


def greedy_augment(
    instance: Instance, tree, trace: list | None = None
) -> frozenset[Edge]:
    """Add maximum-gain peer pairs to the tree until kappa reaches zero.

    The start state is the tree's, in closed form.  Each round adds the
    first pair of largest gain in ``peer_pairs`` order, from a max-heap
    keyed by each pair's gain when last counted: gains only fall, so a top
    pair whose recount equals its key is that pair, and a stale one goes
    back with its current gain, or out at zero.  If the heap empties while
    kappa is positive, no pair gains and the precondition fails:
    PreconditionError names the first violating edge, as
    ``check_precondition`` would, and ``trace`` keeps the rounds that ran.
    """
    state = _tree_state(instance, tree)
    sep = state.sep
    heap = [
        (-gain, j, p)
        for j, p in enumerate(peer_pairs(instance))
        if (gain := sep[p].bit_count())
    ]
    heapify(heap)
    while state.kappa > 0:
        if trace is not None:
            trace.append(state.kappa)
        while heap:
            key, j, cand = heap[0]
            gain = sep[cand].bit_count()
            if gain == -key:
                break
            if gain:
                heapreplace(heap, (-gain, j, cand))
            else:
                heappop(heap)
        else:  # the heap ran dry: no pair gains
            witness = next(e for e, k in zip(state.tracked, state.kappa_i) if k)
            raise PreconditionError(
                f"precondition ERDC(K_P) >= 2 violated at edge ({witness[0]},{witness[1]})",
                witness,
            )
        heappop(heap)
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
    return instance.replace(overlay_edges=canon)


def special_case_construct(instance: Instance) -> frozenset[Edge]:
    """Identity-routing special case: spanning tree plus one cover edge per
    tree edge; at most 2n-2 overlay edges, survivable against any single
    underlying edge failure.  Requires every node to be a peer and a
    2-edge-connected graph.

    The tree is Prim's, grown from nodes[0] by the least canonical key
    leaving it.  No two edges share a key, so the spanning tree of least
    key order is unique, and Prim's walk and the sorted-order Kruskal both
    find it; Prim's also sets each node's parent and depth as it enters.
    """
    if set(instance.peers) != set(instance.nodes):
        raise PreconditionError("special case requires every node to be a peer")
    adj = adjacency(instance.nodes, instance.edges)
    root = instance.nodes[0]
    parent, depth = {root: None}, {root: 0}
    tree: list[Edge] = []
    heap = [(edge_key(root, v), root, v) for v in adj[root]]
    heapify(heap)
    while heap:
        e, u, v = heappop(heap)
        if v not in depth:
            parent[v], depth[v] = u, depth[u] + 1
            tree.append(e)
            for w in adj[v]:
                if w not in depth:
                    heappush(heap, (edge_key(v, w), v, w))
    # Each G-edge f, in sorted order, walks its tree path up to where the
    # two sides meet and becomes the cover of every edge e != f on it that
    # has none yet: the first edge crossing e's cut.  A tree edge covers
    # nothing else.
    cover: dict[Edge, Edge] = {}
    for f in sorted(instance.edges):
        u, v = f
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            e = edge_key(u, parent[u])
            if e != f:
                cover.setdefault(e, f)
            u = parent[u]
    for e in sorted(tree):
        if e not in cover:
            raise PreconditionError(
                f"underlying graph has a bridge at ({e[0]},{e[1]})", e
            )
    return frozenset(tree).union(cover.values())
