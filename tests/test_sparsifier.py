import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import brute_force_augment, precondition_reference
from conftest import random_connected_graph
import deepconn
from deepconn import fixtures
from deepconn.errors import PreconditionError, ValidationError
from deepconn.gadgets import ROUTE_POLICIES, random_instance
from deepconn.model import build_instance, edge_key, peer_pairs
from deepconn.oracles import all_pairs
from deepconn.sparsifier import (
    _tree_state,
    add_edge,
    check_precondition,
    compute_kappa,
    delta,
    greedy_augment,
    sparsified_instance,
    sparsify,
    special_case_construct,
    star_tree,
)


def three_cycle():
    nodes = ["a", "b", "c"]
    edges = [("a", "b"), ("b", "c"), ("a", "c")]
    return build_instance(
        nodes, edges, nodes, edges, {edge_key(u, v): (u, v) for u, v in edges}
    )


def path_instance():
    nodes = ["a", "b", "c"]
    edges = [("a", "b"), ("b", "c")]
    routes = {("a", "b"): ("a", "b"), ("b", "c"): ("b", "c"), ("a", "c"): ("a", "b", "c")}
    return build_instance(nodes, edges, nodes, edges + [("a", "c")], routes)


def feasible_random_instances(count, max_peers=8, seed0=0):
    found = []
    seed = seed0
    while len(found) < count:
        n = 5 + seed % 8
        p = 4 + seed % (max_peers - 3)
        inst = random_instance(n, min(p, n), 0.6, "shortest_path", seed=seed)
        seed += 1
        if check_precondition(inst)[0]:
            found.append(inst)
    return found


def cycle_instance(n):
    """Every node of the n-cycle a peer, each pair routed along its shorter arc."""
    nodes = [f"c{i}" for i in range(n)]
    edges = [edge_key(nodes[i], nodes[(i + 1) % n]) for i in range(n)]
    routes = {}
    for i, j in itertools.combinations(range(n), 2):
        arc = list(range(i, j + 1))
        if 2 * (j - i) > n:
            arc = [i] + list(range(i - 1, j - n - 1, -1))
        routes[(nodes[i], nodes[j])] = tuple(nodes[k % n] for k in arc)
    return build_instance(nodes, edges, nodes, edges, routes)


def full_rescan_greedy(instance, tree):
    """Greedy that re-scores every candidate each round: the overlay and the
    trace.  It stops when no candidate gains while kappa is positive, with
    overlay None and the trace of the rounds that ran.
    """
    state = compute_kappa(instance, tree, tree)
    trace = []
    while state.kappa > 0:
        trace.append(state.kappa)
        gains = [(delta(state, c), c) for c in peer_pairs(instance) if c not in state.overlay]
        gain, best = max(gains, key=lambda g: g[0], default=(0, None))
        if gain == 0:
            return None, trace
        add_edge(state, best)
    return frozenset(state.overlay), trace + [0]


def tie_heavy_instances():
    """Instances with many equal gains: identity routing on K_n and on cycles."""
    for n in (3, 4, 5, 6):
        nodes = [f"k{i}" for i in range(n)]
        yield fixtures.identity_instance(nodes, list(itertools.combinations(nodes, 2)))
    for n in (4, 5, 6, 7, 8):
        yield cycle_instance(n)


def _path_tree(instance):
    peers = sorted(instance.peers)
    return frozenset(edge_key(u, v) for u, v in zip(peers, peers[1:]))


def _random_tree(instance, rng):
    """A random spanning tree: the peers in random order, each attached to
    a random earlier one.
    """
    peers = list(instance.peers)
    rng.shuffle(peers)
    return frozenset(edge_key(peers[k], rng.choice(peers[:k])) for k in range(1, len(peers)))


def _draw_tree(instance, kind, rng):
    if kind == "star":
        return star_tree(instance)
    return _path_tree(instance) if kind == "path" else _random_tree(instance, rng)


TREE_KINDS = ("star", "path", "random")


def _find(parent, x):
    while parent[x] != x:
        x = parent[x]
    return x


def reference_partitions(instance, overlay, tracked):
    """The per-tracked-edge union-find parent maps the state used to keep."""
    partitions = []
    for e_i in tracked:
        parent = {x: x for x in instance.peers}
        for f in overlay:
            if e_i not in instance.route_support(*f):
                parent[_find(parent, f[0])] = _find(parent, f[1])
        partitions.append(parent)
    return partitions


def kappa_i_reference(instance, overlay, tracked):
    return [
        len({_find(parent, x) for x in instance.peers}) - 1
        for parent in reference_partitions(instance, overlay, tracked)
    ]


def delta_reference(instance, overlay, tracked, e):
    """The gain as the old loop computed it: one find pair per tracked edge."""
    support = instance.route_support(*e)
    return sum(
        e_i not in support and _find(parent, e[0]) != _find(parent, e[1])
        for e_i, parent in zip(tracked, reference_partitions(instance, overlay, tracked))
    )


def assert_state_matches_reference(inst, state):
    overlay, tracked = state.overlay, state.tracked
    assert state.kappa_i == kappa_i_reference(inst, overlay, tracked)
    assert state.kappa == sum(state.kappa_i)
    for cand in peer_pairs(inst):
        if cand not in overlay:
            assert delta(state, cand) == delta_reference(inst, overlay, tracked, cand)
    partitions = reference_partitions(inst, overlay, tracked)
    # Bit i of every pair's mask, overlay pairs included: set iff tracked[i]
    # is off the pair's route and its endpoints have different roots.
    for p in peer_pairs(inst):
        support = inst.route_support(*p)
        expected = sum(
            1 << i
            for i, (e_i, parent) in enumerate(zip(tracked, partitions))
            if e_i not in support and _find(parent, p[0]) != _find(parent, p[1])
        )
        assert state.sep[p] == expected
    # components[i] maps each peer to the members of its reference group.
    assert len(state.components) == len(tracked)
    for comp, parent in zip(state.components, partitions):
        for x in inst.peers:
            root = _find(parent, x)
            assert sorted(comp[x]) == sorted(y for y in inst.peers if _find(parent, y) == root)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_nodes=st.integers(3, 10),
    keep=st.floats(0.0, 1.0),
    policy=st.sampled_from(ROUTE_POLICIES),
    tree_kind=st.sampled_from(TREE_KINDS),
)
def test_state_matches_union_find_reference(seed, n_nodes, keep, policy, tree_kind):
    rng = random.Random(seed)
    inst = random_instance(n_nodes, rng.randint(3, n_nodes), 0.5, policy, seed=seed)
    tree = _draw_tree(inst, tree_kind, rng)
    pairs = list(peer_pairs(inst))
    # An arbitrary start overlay, then nested ones: one edge added at a time.
    state = compute_kappa(inst, [p for p in pairs if rng.random() < keep], tree)
    assert_state_matches_reference(inst, state)
    rest = [p for p in pairs if p not in state.overlay]
    rng.shuffle(rest)
    for cand in rest[: rng.randint(0, len(rest))]:
        kappa, gain = state.kappa, delta(state, cand)
        add_edge(state, (cand[1], cand[0]) if rng.random() < 0.5 else cand)
        assert state.kappa == kappa - gain
        assert_state_matches_reference(inst, state)
    assert state.kappa_i == compute_kappa(inst, state.overlay, tree).kappa_i


def _partition(comp):
    """The groups of a peer -> group-list map, as a set of frozensets; every
    member of a group maps to the one shared list.
    """
    assert all(x in comp[x] and all(comp[y] is comp[x] for y in comp[x]) for x in comp)
    return {frozenset(group) for group in comp.values()}


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_nodes=st.integers(2, 12),
    policy=st.sampled_from(ROUTE_POLICIES),
    tree_kind=st.sampled_from(TREE_KINDS),
)
def test_tree_state_matches_compute_kappa(seed, n_nodes, policy, tree_kind):
    rng = random.Random(seed)
    inst = random_instance(n_nodes, rng.randint(2, n_nodes), 0.5, policy, seed=seed)
    tree = _draw_tree(inst, tree_kind, rng)
    state = _tree_state(inst, tree)
    assert_state_matches_reference(inst, state)
    reference = compute_kappa(inst, tree, tree)
    assert state.overlay == reference.overlay == set(tree)
    assert state.tracked == reference.tracked
    assert state.sep == reference.sep
    assert state.kappa_i == reference.kappa_i
    assert list(map(_partition, state.components)) == list(
        map(_partition, reference.components)
    )


def test_greedy_recounts_a_stale_top_pair():
    # On the 5-cycle with this tree, the first round adds (c3,c4), gain 4.
    # That drops (c0,c3), the next heap key at 3, to a gain of 1, below
    # (c2,c3) and (c2,c4) at 2: the top entry is stale, yet still positive,
    # and (c0,c3) is added in the third round.
    inst = cycle_instance(5)
    tree = [("c0", "c1"), ("c0", "c2"), ("c1", "c3"), ("c1", "c4")]
    state = compute_kappa(inst, tree, tree)
    gains = {p: delta(state, p) for p in peer_pairs(inst) if p not in state.overlay}
    assert sorted(gains.values()) == [1, 1, 2, 3, 3, 4]
    assert (gains[("c0", "c3")], gains[("c3", "c4")]) == (3, 4)
    add_edge(state, ("c3", "c4"))
    assert delta(state, ("c0", "c3")) == 1
    assert delta(state, ("c2", "c3")) == delta(state, ("c2", "c4")) == 2
    trace = []
    overlay = greedy_augment(inst, tree, trace=trace)
    assert (overlay, trace) == full_rescan_greedy(inst, tree)
    assert overlay == set(tree) | {("c3", "c4"), ("c2", "c3"), ("c0", "c3")}
    assert trace == [7, 3, 1, 0]


def test_greedy_matches_full_rescan():
    instances = [three_cycle(), *tie_heavy_instances()]
    instances += feasible_random_instances(25, max_peers=9, seed0=300)
    instances = [inst for inst in instances if check_precondition(inst)[0]]
    assert len(instances) >= 30
    rng = random.Random(7)
    for inst in instances:
        for tree in (star_tree(inst), _path_tree(inst), _random_tree(inst, rng)):
            trace = []
            overlay = greedy_augment(inst, tree, trace=trace)
            assert (overlay, trace) == full_rescan_greedy(inst, tree)


def precondition_corpus():
    instances = [three_cycle(), path_instance(), fixtures.k2(), *tie_heavy_instances()]
    for seed in range(60):
        n = 3 + seed % 8
        policy = ("shortest_path", "random_simple")[seed % 2]
        instances.append(random_instance(n, 2 + seed % (n - 1), 0.35, policy, seed=seed))
    return instances


def test_precondition_matches_all_edge_reference():
    instances = precondition_corpus()
    results = [check_precondition(inst) for inst in instances]
    assert results == [precondition_reference(inst) for inst in instances]
    assert sum(ok for ok, _ in results) >= 10
    assert sum(not ok for ok, _ in results) >= 10


def test_greedy_raises_at_the_first_violating_edge():
    infeasible = 0
    rng = random.Random(8)
    for inst in precondition_corpus():
        ok, witness = precondition_reference(inst)
        if ok:
            continue
        infeasible += 1
        for tree in (star_tree(inst), _path_tree(inst), _random_tree(inst, rng)):
            trace = []
            with pytest.raises(PreconditionError) as info:
                greedy_augment(inst, tree, trace=trace)
            assert info.value.witness == witness
            assert str(info.value) == (
                f"precondition ERDC(K_P) >= 2 violated at edge ({witness[0]},{witness[1]})"
            )
            assert trace and all(a > b for a, b in zip(trace, trace[1:]))
            assert full_rescan_greedy(inst, tree) == (None, trace)
    assert infeasible >= 10


def test_precondition_three_cycle():
    assert check_precondition(three_cycle()) == (True, None)


def test_precondition_path_instance():
    ok, witness = check_precondition(path_instance())
    assert not ok and witness == ("a", "b")


def test_precondition_k2():
    inst = fixtures.k2()
    ok, witness = check_precondition(inst)
    assert not ok and witness == ("a", "b")


def test_precondition_requires_total(fig1):
    with pytest.raises(ValidationError, match="total"):
        check_precondition(fig1)


K4_EDGES = list(itertools.combinations("abcd", 2))


@pytest.mark.parametrize(
    "tree, message",
    [
        ([("a", "b"), ("b", "c")], "base tree has wrong edge count"),
        ([("a", "b"), ("b", "c"), ("c", "zz")], "tree edge endpoint is not a peer"),
        ([("a", "b"), ("b", "c"), ("a", "c")], "base tree contains a cycle"),
    ],
    ids=["edge-count", "non-peer", "cycle"],
)
def test_tree_checks(tree, message):
    # A tree that does not span either has the wrong edge count or closes a
    # cycle (the cycle case leaves d out), so it has no message of its own.
    inst = fixtures.identity_instance(list("abcd"), K4_EDGES)
    with pytest.raises(ValidationError, match=message):
        compute_kappa(inst, tree, tree)
    with pytest.raises(ValidationError, match=message):
        greedy_augment(inst, tree)


def test_compute_kappa_accepts_overlay_without_the_tree():
    # kappa is defined for any overlay; the tree only fixes the tracked edges.
    inst = fixtures.identity_instance(list("abcd"), K4_EDGES)
    state = compute_kappa(inst, K4_EDGES[:2], star_tree(inst))
    assert state.overlay == set(K4_EDGES[:2])
    assert_state_matches_reference(inst, state)


def test_tree_check_error_is_the_same_under_every_hash_seed():
    # The tree is a set, so the order of its edges follows the hash seed.
    # This tree has both a cycle and a stray endpoint; the check must name
    # the endpoint whatever the order.
    code = textwrap.dedent(
        """
        import itertools
        from deepconn import fixtures
        from deepconn.errors import ValidationError
        from deepconn.sparsifier import greedy_augment
        k5 = list(itertools.combinations("abcde", 2))
        inst = fixtures.identity_instance(list("abcde"), k5)
        try:
            greedy_augment(inst, [("a", "b"), ("b", "c"), ("a", "c"), ("d", "zz")])
        except ValidationError as exc:
            print(exc)
        """
    )
    src = str(Path(deepconn.__file__).resolve().parents[1])
    messages = set()
    for hash_seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        messages.add(proc.stdout)
    assert messages == {"tree edge endpoint is not a peer\n"}


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 7), data=st.data())
def test_tree_check_matches_networkx(n, data):
    peers = [f"p{i}" for i in range(n)]
    pairs = list(itertools.combinations(peers, 2))
    inst = fixtures.identity_instance(peers, pairs)
    tree = data.draw(
        st.lists(st.sampled_from(pairs), min_size=n - 1, max_size=n - 1, unique=True)
    )
    stray = data.draw(st.booleans())
    if stray:
        tree[data.draw(st.integers(0, n - 2))] = (data.draw(st.sampled_from(peers)), "zz")
    graph = nx.Graph(tree)
    graph.add_nodes_from(peers)
    if not stray and nx.is_tree(graph):
        compute_kappa(inst, tree, tree)
        return
    message = "tree edge endpoint is not a peer" if stray else "base tree contains a cycle"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        compute_kappa(inst, tree, tree)


def test_compute_kappa_tree():
    inst = three_cycle()
    state = compute_kappa(inst, [("a", "b"), ("b", "c")], [("a", "b"), ("b", "c")])
    assert state.kappa_i == [1, 1]
    assert state.kappa == 2


def test_kappa_zero_on_complete_overlay():
    inst = three_cycle()
    tree = [("a", "b"), ("b", "c")]
    full = [("a", "b"), ("b", "c"), ("a", "c")]
    assert compute_kappa(inst, full, tree).kappa == 0


def test_kappa_zero_iff_survivable():
    rng = random.Random(1)
    for inst in feasible_random_instances(6, max_peers=6, seed0=40):
        tree = star_tree(inst)
        overlay = set(tree)
        for e in sorted(inst.overlay_edges):
            if e not in overlay and rng.random() < 0.4:
                overlay.add(e)
        kappa = compute_kappa(inst, overlay, tree).kappa
        erdc = all_pairs(sparsified_instance(inst, frozenset(overlay)), "erdc")[0]
        assert (kappa == 0) == (erdc >= 2)


def test_delta_three_cycle():
    inst = three_cycle()
    tree = [("a", "b"), ("b", "c")]
    state = compute_kappa(inst, tree, tree)
    assert delta(state, ("a", "c")) == 2


def test_delta_path_instance():
    inst = path_instance()
    tree = [("a", "b"), ("b", "c")]
    state = compute_kappa(inst, tree, tree)
    assert delta(state, ("a", "c")) == 0


def test_delta_rejects_existing_edge():
    inst = three_cycle()
    tree = [("a", "b"), ("b", "c")]
    state = compute_kappa(inst, tree, tree)
    with pytest.raises(ValidationError):
        delta(state, ("a", "b"))


def test_delta_rejects_non_pair():
    inst = three_cycle()
    state = compute_kappa(inst, [("a", "b")], [("a", "b"), ("b", "c")])
    with pytest.raises(ValidationError, match="not a pair of distinct peers"):
        delta(state, ("a", "a"))


def test_add_edge_rejects_non_pair_and_keeps_state():
    inst = three_cycle()
    state = compute_kappa(inst, [("a", "b")], [("a", "b"), ("b", "c")])
    before = (set(state.overlay), dict(state.sep), list(state.kappa_i))
    with pytest.raises(ValidationError, match="not a pair of distinct peers"):
        add_edge(state, ("a", "zz"))
    assert (state.overlay, state.sep, state.kappa_i) == before
    assert_state_matches_reference(inst, state)


def test_compute_kappa_rejects_edge_to_non_peer():
    inst = three_cycle()
    tree = [("a", "b"), ("b", "c")]
    with pytest.raises(ValidationError, match="not a pair of distinct peers"):
        compute_kappa(inst, tree + [("c", "zz")], tree)


def test_compute_kappa_rejects_self_pair():
    inst = three_cycle()
    tree = [("a", "b"), ("b", "c")]
    with pytest.raises(ValidationError, match="not a pair of distinct peers"):
        compute_kappa(inst, tree + [("b", "b")], tree)


def test_compute_kappa_error_precedence(fig1):
    # The routing check comes first, then the tree checks, and the smallest
    # canonical non-pair of the overlay is the one named, even when the
    # overlay's names do not all compare with each other.
    inst = three_cycle()
    tree = [("a", "b"), ("b", "c")]
    cases = [
        (inst, tree + [("c", "zz"), ("b", "b")], tree, "edge ('b', 'b') is not a pair of distinct peers"),
        (inst, [("zz", "a")] + tree, tree, "edge ('a', 'zz') is not a pair of distinct peers"),
        (inst, tree + [(1, 2)], tree, "edge (1, 2) is not a pair of distinct peers"),
        (inst, tree + [("c", "zz")], tree[:1], "base tree has wrong edge count"),
        (fig1, [("S", "zz")], star_tree(fig1), "sparsifier requires a total routing scheme"),
    ]
    for instance, overlay, base, message in cases:
        with pytest.raises(ValidationError) as info:
            compute_kappa(instance, overlay, base)
        assert str(info.value) == message


def test_greedy_three_cycle():
    inst = three_cycle()
    result = greedy_augment(inst, [("a", "b"), ("b", "c")])
    assert result == frozenset({("a", "b"), ("b", "c"), ("a", "c")})


def test_tree_kappa_always_positive():
    # Removing the route edges of any tree edge disconnects the tree itself,
    # so a bare spanning tree can never have kappa zero; greedy always adds.
    for inst in feasible_random_instances(5, max_peers=5, seed0=200):
        tree = star_tree(inst)
        assert compute_kappa(inst, tree, tree).kappa > 0
        assert len(greedy_augment(inst, tree)) > len(tree)


def test_greedy_strictly_decreases_kappa():
    for inst in feasible_random_instances(5, max_peers=7, seed0=10):
        trace = []
        greedy_augment(inst, star_tree(inst), trace=trace)
        assert all(a > b for a, b in zip(trace, trace[1:]))
        assert trace[-1] == 0


def test_sparsify_outputs_survivable():
    inst = three_cycle()
    result = sparsify(inst)
    assert len(result) == 3
    for inst in feasible_random_instances(5, max_peers=7, seed0=60):
        overlay = sparsify(inst)
        assert compute_kappa(inst, overlay, star_tree(inst)).kappa == 0
        assert all_pairs(sparsified_instance(inst, overlay), "erdc")[0] >= 2


def test_sparsified_instance_matches_full_rebuild(fig1):
    for inst in [*feasible_random_instances(4, max_peers=6, seed0=90), fig1]:
        overlay = frozenset(sorted(inst.routes)[::2])
        result = sparsified_instance(inst, {(v, u) for u, v in overlay})
        assert result == build_instance(
            inst.nodes, inst.edges, inst.peers, overlay, inst.routes
        )
        for u in inst.peers:
            assert result.h_neighbors(u) == tuple(
                sorted(v for v in inst.peers if edge_key(u, v) in overlay)
            )
    unrouted = next(p for p in peer_pairs(fig1) if p not in fig1.routes)
    for bad in (("S", "S"), ("S", "U2"), unrouted):
        with pytest.raises(ValidationError, match="has no route"):
            sparsified_instance(fig1, {bad})


def test_sparsify_infeasible_raises():
    with pytest.raises(PreconditionError, match=r"violated at edge \(a,b\)"):
        sparsify(path_instance())


def test_brute_force_three_cycle():
    inst = three_cycle()
    tree = [("a", "b"), ("b", "c")]
    best = brute_force_augment(inst, tree)
    assert len(best) - len(tree) == 1


def test_greedy_ratio_bound():
    for inst in feasible_random_instances(6, max_peers=6, seed0=80):
        tree = star_tree(inst)
        greedy = greedy_augment(inst, tree)
        best = brute_force_augment(inst, tree)
        kappa_t = compute_kappa(inst, tree, tree).kappa
        added_greedy = len(greedy) - len(tree)
        added_best = len(best) - len(tree)
        if added_best == 0:
            assert added_greedy == 0
        else:
            assert added_greedy <= (math.log(kappa_t) + 1) * added_best


def test_submodularity():
    rng = random.Random(99)
    instances = feasible_random_instances(3, max_peers=6, seed0=120)
    for _ in range(200):
        inst = rng.choice(instances)
        tree = star_tree(inst)
        pairs = sorted(inst.overlay_edges)
        h2 = {e for e in pairs if rng.random() < 0.6}
        h1 = {e for e in h2 if rng.random() < 0.6}
        s1 = compute_kappa(inst, h1, tree)
        s2 = compute_kappa(inst, h2, tree)
        assert s1.kappa >= s2.kappa
        candidates = [e for e in pairs if e not in h2]
        if candidates:
            e = rng.choice(candidates)
            assert delta(s1, e) >= delta(s2, e)


def special_case(nodes, edges):
    return special_case_construct(fixtures.identity_instance(nodes, edges))


def test_special_case_four_cycle():
    nodes = ["a", "b", "c", "d"]
    cyc = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
    overlay = special_case(nodes, cyc)
    assert overlay == frozenset(edge_key(u, v) for u, v in cyc)
    assert len(overlay) <= 2 * len(nodes) - 2


def test_special_case_k4():
    nodes = ["a", "b", "c", "d"]
    edges = list(itertools.combinations(nodes, 2))
    overlay = special_case(nodes, edges)
    assert len(overlay) <= 6
    inst = build_instance(nodes, edges, nodes, overlay, {e: e for e in overlay})
    assert all_pairs(inst, "erdc")[0] >= 2


def test_special_case_needs_every_node_a_peer():
    with pytest.raises(
        PreconditionError, match=r"^special case requires every node to be a peer$"
    ):
        special_case_construct(fixtures.fig1())


def test_special_case_bridge():
    nodes = ["a", "b", "c"]
    edges = [("a", "b"), ("b", "c")]
    with pytest.raises(PreconditionError, match="bridge"):
        special_case(nodes, edges)
    # Prim's walk from a meets the bridge (c,d) before the bridge (b,d);
    # the first bridge in edge order is named, as the reference names it.
    nodes = ["a", "b", "c", "d", "e"]
    edges = [("a", "c"), ("a", "e"), ("c", "e"), ("c", "d"), ("b", "d")]
    with pytest.raises(PreconditionError) as exc:
        special_case(nodes, edges)
    assert (str(exc.value), exc.value.witness) == (
        "underlying graph has a bridge at (b,d)",
        ("b", "d"),
    )


def test_special_case_single_failure_simulation():
    rng = random.Random(17)
    nodes, edges = random_connected_graph(rng, 8, 0.5)
    while any(
        not _still_connected(nodes, [f for f in edges if f != e]) for e in edges
    ):
        nodes, edges = random_connected_graph(rng, 8, 0.5)
    overlay = special_case(nodes, edges)
    for e in sorted(set(overlay) | set(edges)):
        surviving = [f for f in overlay if f != e]
        assert _still_connected(nodes, surviving)


def special_case_reference(nodes, edges):
    """The special case as first written: a DFS per tree edge for its side."""
    nodes = list(nodes)
    canon = sorted(edge_key(*e) for e in edges)
    parent = {x: x for x in nodes}
    tree = []
    for e in canon:
        a, b = _find(parent, e[0]), _find(parent, e[1])
        if a != b:
            parent[a] = b
            tree.append(e)
    if len(tree) != len(nodes) - 1:
        raise ValidationError("underlying graph disconnected")
    overlay = set(tree)
    for e in tree:
        side = {e[0]}
        stack = [e[0]]
        while stack:
            u = stack.pop()
            for f in tree:
                if f == e or u not in f:
                    continue
                v = f[0] if f[1] == u else f[1]
                if v not in side:
                    side.add(v)
                    stack.append(v)
        cover = next(
            (f for f in canon if f != e and (f[0] in side) != (f[1] in side)), None
        )
        if cover is None:
            raise PreconditionError(f"underlying graph has a bridge at ({e[0]},{e[1]})", e)
        overlay.add(cover)
    return frozenset(overlay)


def _outcome(construct, nodes, edges):
    try:
        return construct(nodes, edges)
    except (PreconditionError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 30),
    density=st.floats(0.05, 0.9),
    seed=st.integers(0, 10**6),
)
def test_special_case_matches_reference(n, density, seed):
    # A disconnected draw fails in identity_instance, and the reference must
    # fail with the same message; edges come shuffled and in either
    # orientation.
    rng = random.Random(seed)
    nodes = [f"v{i}" for i in range(n)]
    edges = [e for e in itertools.combinations(nodes, 2) if rng.random() < density]
    rng.shuffle(edges)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    assert _outcome(special_case, nodes, edges) == _outcome(
        special_case_reference, nodes, edges
    )


def cycle_with_chords(n):
    nodes = [f"c{i}" for i in range(n)]
    edges = [(nodes[i], nodes[(i + 1) % n]) for i in range(n)]
    edges += [(nodes[i], nodes[(7 * i + 3) % n]) for i in range(0, n, 5)]
    return nodes, [e for e in edges if e[0] != e[1]]


def test_special_case_large_cycle_with_chords():
    nodes, edges = cycle_with_chords(100)
    assert special_case(nodes, edges) == special_case_reference(nodes, edges)
    nodes, edges = cycle_with_chords(400)
    overlay = special_case(nodes, edges)
    assert overlay <= {edge_key(*e) for e in edges}
    assert len(overlay) <= 2 * len(nodes) - 2
    graph = nx.Graph(list(overlay))
    assert set(graph) == set(nodes) and nx.is_k_edge_connected(graph, 2)


def _still_connected(nodes, edges):
    adj = {u: [] for u in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(nodes)
