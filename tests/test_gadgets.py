import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import set_packing_brute_force
from deepconn.errors import BudgetExceededError, ValidationError
from deepconn.gadgets import (
    SetSystem,
    build_hamiltonian_reduction,
    build_spddc_reduction,
    encode_set_system,
    _random_simple_path,
    random_instance,
)
from deepconn.model import build_instance, edge_key
from deepconn.oracles import all_pairs, spddc_pair


def lemma_example():
    system = SetSystem.from_lists(2, [[1], [1, 2]])
    h_nodes = ["x", "y", "z"]
    h_edges = [("x", "y"), ("y", "z")]
    return encode_set_system(h_nodes, h_edges, h_edges, system), system


def test_lemma_membership_matrix():
    out, system = lemma_example()
    inst = out.instance
    element = [tuple(e) for e in out.labels["element_edges"]]
    f = [tuple(e) for e in out.labels["f"]]
    for i in range(1, system.m + 1):
        for j in range(1, system.n + 1):
            assert (element[i - 1] in inst.route_support(*f[j - 1])) == (
                i in system.sets[j - 1]
            )


def test_lemma_edge_partition():
    out, system = lemma_example()
    inst = out.instance
    identity = {tuple(e) for e in out.labels["identity_edges"]}
    element = {tuple(e) for e in out.labels["element_edges"]}
    route = {tuple(e) for e in out.labels["route_edges"]}
    assert identity | element | route == set(inst.edges)
    assert not (identity & element or identity & route or element & route)
    assert len(element) == system.m


def test_lemma_vertex_count():
    out, system = lemma_example()
    inst = out.instance
    n_z = len(out.labels["subdivision_vertices"])
    assert len(inst.nodes) == 3 + 2 * system.m + n_z
    # One z per connector: each route with k elements has k+1 connectors.
    assert n_z == sum(len(s) + 1 for s in system.sets)


def test_empty_set_column_routes_directly():
    system = SetSystem.from_lists(1, [[1], []])
    out = encode_set_system(
        ["x", "y", "z"], [("x", "y"), ("y", "z")], [("x", "y"), ("y", "z")], system
    )
    path = out.instance.routes[edge_key("y", "z")]
    # Direct subdivided connector: y - z-vertex - z, no element edges.
    assert len(path) == 3
    assert path[1] in out.labels["subdivision_vertices"]


def test_route_edge_unique_ownership():
    rng = random.Random(4)
    for _ in range(10):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        sets = [rng.sample(range(1, m + 1), rng.randint(0, m)) for _ in range(n)]
        for i in range(1, m + 1):
            if not any(i in s for s in sets):
                sets[rng.randrange(n)].append(i)
        system = SetSystem.from_lists(m, sets)
        h_nodes = [f"h{i}" for i in range(n + 1)]
        h_edges = [(f"h{i}", f"h{i+1}") for i in range(n)]
        out = encode_set_system(h_nodes, h_edges, h_edges, system)
        for e in (tuple(x) for x in out.labels["route_edges"]):
            owners = [
                pair
                for pair in out.instance.overlay_edges
                if e in out.instance.route_support(*pair)
            ]
            assert len(owners) == 1


def test_unused_element_rejected():
    system = SetSystem.from_lists(2, [[1]])
    with pytest.raises(ValidationError, match="element 2"):
        encode_set_system(["x", "y"], [("x", "y")], [("x", "y")], system)


def test_duplicate_f_rejected():
    system = SetSystem.from_lists(1, [[1], [1]])
    with pytest.raises(ValidationError, match="duplicate"):
        encode_set_system(
            ["x", "y"], [("x", "y")], [("x", "y"), ("x", "y")], system
        )


def test_gadget_outputs_validate():
    out, _ = lemma_example()
    # build_instance already ran; re-parse the serialized form for good measure.
    from deepconn.model import parse_instance, serialize_instance

    assert parse_instance(serialize_instance(out.instance)) == out.instance


@pytest.mark.parametrize(
    "sets,k,expected",
    [
        ([[1], [2]], 2, True),
        ([[1], [1]], 2, False),
        ([[1, 2]], 1, True),
        ([[1], [2], [1, 2]], 2, True),
    ],
)
def test_spddc_reduction(sets, k, expected):
    m = max(max(s) for s in sets if s)
    system = SetSystem.from_lists(m, sets)
    out, s, t = build_spddc_reduction(system, k)
    value, witness = spddc_pair(out.instance, s, t)
    assert (value >= 1) == expected
    assert set_packing_brute_force(system, k) == expected
    if value:
        witness.validate(out.instance, s, t, simple_only=True)


def test_spddc_reduction_k1_always_packs():
    system = SetSystem.from_lists(3, [[1, 2, 3]])
    out, s, t = build_spddc_reduction(system, 1)
    assert spddc_pair(out.instance, s, t)[0] >= 1


def test_set_packing_brute_force():
    assert set_packing_brute_force(SetSystem.from_lists(2, [[1], [2], [1, 2]]), 2)
    assert not set_packing_brute_force(SetSystem.from_lists(2, [[1], [1, 2]]), 2)
    assert set_packing_brute_force(SetSystem.from_lists(2, [[1, 2]]), 1)
    with pytest.raises(BudgetExceededError):
        set_packing_brute_force(
            SetSystem.from_lists(1, [[1]] * 20), 10, budget=10
        )


def test_hamiltonian_reduction_path():
    inst = build_hamiltonian_reduction(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert inst.total
    overlay = [("a", "b"), ("b", "c"), ("a", "c")]
    cycle = build_instance(inst.nodes, inst.edges, inst.peers, overlay, inst.routes)
    assert all_pairs(cycle, "erdc")[0] == 2


def test_hamiltonian_reduction_star_has_no_sparse_solution():
    nodes = ["c", "l1", "l2", "l3"]
    edges = [("c", "l1"), ("c", "l2"), ("c", "l3")]
    inst = build_hamiltonian_reduction(nodes, edges)
    n = len(nodes)
    pairs = list(itertools.combinations(sorted(nodes), 2))
    for overlay in itertools.combinations(pairs, n):
        trial = build_instance(
            inst.nodes, inst.edges, inst.peers, overlay, inst.routes
        )
        assert all_pairs(trial, "erdc")[0] < 2


def test_hamiltonian_reduction_triangle():
    nodes = ["a", "b", "c"]
    edges = [("a", "b"), ("b", "c"), ("a", "c")]
    inst = build_hamiltonian_reduction(nodes, edges)
    cycle = build_instance(inst.nodes, inst.edges, inst.peers, edges, inst.routes)
    assert all_pairs(cycle, "erdc")[0] >= 2
    # The cycle uses no virtual edge, so the apex edge appears in no image.
    for e in edges:
        assert cycle.route_support(*e) == frozenset({edge_key(*e)})


def test_hamiltonian_routing_rule():
    inst = build_hamiltonian_reduction(["a", "b", "c"], [("a", "b")])
    assert inst.routes[edge_key("a", "b")] == ("a", "b")
    assert inst.routes[edge_key("a", "c")] == ("a", "apex_x", "apex_y", "c")


def test_random_instance_validates_and_is_deterministic():
    a = random_instance(8, 4, 0.5, "shortest_path", seed=1)
    b = random_instance(8, 4, 0.5, "shortest_path", seed=1)
    assert a == b
    assert a.total
    c = random_instance(8, 4, 0.5, "shortest_path", seed=2)
    assert a != c


def test_random_instance_shortest_routes():
    from collections import deque

    inst = random_instance(10, 5, 0.4, "shortest_path", seed=3)
    adj = {u: [] for u in inst.nodes}
    for u, v in inst.edges:
        adj[u].append(v)
        adj[v].append(u)
    for pair, path in inst.routes.items():
        dist = {pair[0]: 0}
        queue = deque([pair[0]])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        assert len(path) - 1 == dist[pair[1]]


def test_random_instance_parameter_validation():
    with pytest.raises(ValidationError):
        random_instance(4, 5, 0.5)
    with pytest.raises(ValidationError):
        random_instance(4, 2, 1.5)
    with pytest.raises(ValidationError):
        random_instance(4, 2, 0.5, "weird")


def random_simple_path_reference(adj, s, t, rng):
    """The recursive twin of the generator's randomized depth-first search:
    a vertex stays visited after the search backs out of it."""
    stack = [s]
    on_stack = {s}

    def walk(u):
        if u == t:
            return True
        for v in rng.sample(adj[u], len(adj[u])):
            if v not in on_stack:
                stack.append(v)
                on_stack.add(v)
                if walk(v):
                    return True
                stack.pop()
        return False

    assert walk(s)
    return tuple(stack)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 12), extra=st.integers(0, 24), seed=st.integers(0, 10**6))
def test_random_simple_path_matches_recursive_reference(n, extra, seed):
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(n)]
    adj = {u: [] for u in nodes}
    links = [(nodes[i], nodes[rng.randrange(i)]) for i in range(1, n)]
    links += [tuple(rng.sample(nodes, 2)) for _ in range(extra)]
    for u, v in links:
        if v not in adj[u]:
            adj[u].append(v)
            adj[v].append(u)
    s, t = rng.sample(nodes, 2)
    ours, theirs = random.Random(seed), random.Random(seed)
    assert _random_simple_path(adj, s, t, ours) == random_simple_path_reference(
        adj, s, t, theirs
    )
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", [0, 5])
def test_random_simple_path_long_cycle(seed):
    # From c0 these seeds try c1499 first, so the search walks the whole
    # cycle: 1,500 hops, past the default recursion limit.
    n = 1500
    nodes = [f"c{i}" for i in range(n)]
    adj = {nodes[i]: [nodes[(i + 1) % n], nodes[i - 1]] for i in range(n)}
    path = _random_simple_path(adj, "c0", "c1", random.Random(seed))
    assert path == ("c0", *reversed(nodes[1:]))
