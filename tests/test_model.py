import copy
import itertools
import json
import random
import re
import string
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import lex_shortest_path, parse_reference
from conftest import disconnected_overlay_instance, subsample_overlay
from deepconn import fixtures, model
from deepconn.errors import BudgetExceededError, DeepConnError, FormatError, ValidationError
from deepconn.gadgets import ROUTE_POLICIES, random_instance
from deepconn.model import (
    build_instance,
    edge_key,
    enumerate_simple_paths,
    is_simple_concatenation,
    parse_instance,
    peer_pairs,
    route_image,
    serialize_instance,
    shortest_path,
)
from deepconn.oracles import _image_masks


def test_fig1_counts(fig1):
    assert len(fig1.nodes) == 14
    # Route-induced edges plus the extremes give 18; three extra row edges
    # raise the underlying (S,T) connectivity to the expected 3.
    assert len(fig1.edges) == 21
    assert len(fig1.peers) == 8
    assert len(fig1.overlay_edges) == 9
    assert not fig1.total


def test_total_follows_the_routes(triangle):
    assert triangle.total
    routes = dict(triangle.routes)
    del routes[("b", "c")]
    assert not replace(triangle, routes=routes).total


def test_cut_candidates_are_the_first_edge_of_each_kill_set(fig1):
    kill = fig1.kill_sets
    candidates = fig1.cut_candidates
    assert list(candidates) == sorted(candidates)
    assert [kill[e] for e in candidates] == list(dict.fromkeys(kill.values()))


@pytest.mark.parametrize(
    "routes, message",
    [
        ({("U1", "U4"): ("U1",)}, "route for ('U1', 'U4') shorter than one edge"),
        (
            {("U1", "U4"): ("U1", "M1")},
            "route for ('U1', 'U4') does not connect its endpoints",
        ),
        ({("U1", "M1"): ("U1", "M1")}, "route endpoints ('M1', 'U1') are not peers"),
        # (M2,U4) is an edge read against its orientation; (M1,M2) is the
        # first hop that is not an edge.
        (
            {("U1", "U4"): ("U1", "M1", "M2", "U4")},
            "route for ('U1', 'U4') uses non-edge (M1,M2)",
        ),
        ({("U1", "U4"): ("U1", "M1", "M1", "U4")}, "route not vertex-simple"),
        (
            {("U1", "U4"): ("U1", "M1", "U4"), ("U4", "U1"): ("U4", "M1", "U1")},
            "duplicate route for pair ('U1', 'U4')",
        ),
    ],
    ids=["short", "endpoints", "not-peers", "non-edge", "not-simple", "duplicate"],
)
def test_build_rejects_bad_route(routes, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build_instance(
            nodes=["U1", "M1", "M2", "U4"],
            edges=[("U1", "M1"), ("M1", "U4"), ("U4", "M2")],
            peers=["U1", "U4"],
            overlay_edges=[],
            routes=routes,
        )


_PATH_DOC = {
    "nodes": ["a", "b", "c"],
    "edges": [["a", "b"], ["b", "c"]],
    "peers": ["a", "c"],
    "overlay_edges": [["a", "c"]],
    "routes": [{"pair": ["a", "c"], "path": ["a", "b", "c"]}],
}


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"nodes": ["a", "b", "c", "a"]}, "duplicate node name"),
        ({"edges": [["a", "b"], ["c", "c"]]}, "self-loop at c"),
        ({"edges": [["a", "b"], ["b", "c"], ["b", "a"]]}, "duplicate edge ('a', 'b')"),
        ({"edges": [["a", "b"], ["b", "d"]]}, "edge (b,d) references unknown node"),
        ({"peers": ["a", "c", "a"]}, "duplicate peer"),
        ({"peers": ["a", "d"]}, "peer not a node of the underlying graph"),
        ({"overlay_edges": [["a", "a"]]}, "overlay self-loop at a"),
        ({"overlay_edges": [["a", "b"]]}, "overlay edge (a,b) endpoint is not a peer"),
        (
            {"overlay_edges": [["a", "c"], ["c", "a"]]},
            "duplicate overlay edge ('a', 'c')",
        ),
        (
            {"routes": _PATH_DOC["routes"] + [{"pair": ["c", "a"], "path": ["c", "b", "a"]}]},
            "duplicate route for pair ('a', 'c')",
        ),
        (dict.fromkeys(_PATH_DOC, []), "fewer than two peers"),
    ],
    ids=[
        "duplicate-node",
        "self-loop",
        "duplicate-edge",
        "unknown-node",
        "duplicate-peer",
        "peer-not-a-node",
        "overlay-self-loop",
        "overlay-non-peer",
        "duplicate-overlay-edge",
        "duplicate-route",
        "empty",
    ],
)
def test_parse_rejects_invalid_document(changes, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        parse_instance(json.dumps({**_PATH_DOC, **changes}))


_PEERS_ABC = {"peers": ["a", "b", "c"]}


def _routes(*extra):
    """_PATH_DOC's route a-b-c, then a route entry per (pair, path)."""
    return _PATH_DOC["routes"] + [{"pair": pair, "path": path} for pair, path in extra]


# Two faults per document; the first one in reporting order wins.
@pytest.mark.parametrize(
    "changes, error, message",
    [
        (
            {"nodes": ["a", "b", "c", "a-"], "routes": _routes((["a"], ["a", "c"]))},
            FormatError,
            "route pair ['a'] is not a 2-array",
        ),
        (
            {"nodes": ["a", "b", "c", "a-"], "routes": _routes((["c", "a"], ["c", "b", "a"]))},
            ValidationError,
            "duplicate route for pair ('a', 'c')",
        ),
        (
            {
                "edges": [["a", "b"], ["b", "c"], ["a", "a"]],
                "routes": [{"pair": ["a", "c"], "path": ["a", "c"]}],
            },
            ValidationError,
            "self-loop at a",
        ),
        (
            {**_PEERS_ABC, "overlay_edges": [["a", "c"], ["c", "a"], ["a", "b"]]},
            ValidationError,
            "duplicate overlay edge ('a', 'c')",
        ),
        (
            {**_PEERS_ABC, "overlay_edges": [["a", "b"], ["a", "c"], ["c", "a"]]},
            ValidationError,
            "overlay edge ('a', 'b') has no route",
        ),
        (
            {"overlay_edges": [["a", "c"], [["a"], "c"], ["a", "a"]]},
            ValidationError,
            "invalid node name in overlay edge [['a'], 'c']",
        ),
        (
            {"edges": [["a", "b"], ["b", "c"], [1, 2], ["a", "d"]]},
            ValidationError,
            "invalid node name in edge [1, 2]",
        ),
        (
            {"edges": [["a", "b"], ["b", "c"], ["a", ["b"]], ["b", "b"]]},
            ValidationError,
            "invalid node name in edge ['a', ['b']]",
        ),
        (
            {"edges": [["a", "b"], ["b", "c", "a"]], "routes": _routes(("ac", ["a", "c"]))},
            FormatError,
            "route pair 'ac' is not a 2-array",
        ),
    ],
    ids=[
        "route-format-before-names",
        "duplicate-route-before-names",
        "self-loop-before-routes",
        "duplicate-overlay-before-unrouted",
        "unrouted-before-duplicate-overlay",
        "unhashable-overlay-name",
        "integer-edge-names",
        "unhashable-edge-name",
        "route-format-before-edge-format",
    ],
)
def test_error_precedence(changes, error, message):
    with pytest.raises(DeepConnError) as caught:
        parse_instance(json.dumps({**_PATH_DOC, **changes}))
    assert (type(caught.value), str(caught.value)) == (error, message)


def test_parse_rejects_disconnected_graph():
    doc = {
        "nodes": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["c", "d"]],
        "peers": ["a", "b"],
        "overlay_edges": [["a", "b"]],
        "routes": [{"pair": ["a", "b"], "path": ["a", "b"]}],
    }
    with pytest.raises(ValidationError, match="underlying graph disconnected"):
        parse_instance(json.dumps(doc))


def test_parse_reports_syntax_position():
    with pytest.raises(FormatError, match="line 2"):
        parse_instance('{\n"nodes": [}')


def test_parse_rejects_deep_nesting():
    with pytest.raises(FormatError, match="^document nested too deeply$"):
        parse_instance("[" * 100_000 + "]" * 100_000)


def test_route_image_fig1(fig1):
    counts = route_image(fig1, ("S", "U1", "U4", "T"))
    expected = {
        edge_key("S", "U1"),
        edge_key("U1", "M1"),
        edge_key("M1", "M2"),
        edge_key("M2", "U2"),
        edge_key("U2", "U3"),
        edge_key("U3", "U4"),
        edge_key("U4", "T"),
    }
    assert set(counts) == expected
    assert all(m == 1 for m in counts.values())


@pytest.mark.parametrize(
    "path, message",
    [
        (("S",), "overlay path needs at least two peers"),
        (("S", "U1", "S"), "overlay path not vertex-simple"),
        (("S", "T"), "(S,T) is not an overlay edge"),
    ],
)
def test_route_image_rejects_a_non_overlay_path(fig1, path, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        route_image(fig1, path)


def test_route_image_single_edge(k2):
    assert route_image(k2, ("a", "b")) == {("a", "b"): 1}


def test_route_image_shared_edge_multiplicity(shared_edge):
    counts = route_image(shared_edge, ("s", "x", "t"))
    assert counts[edge_key("a", "b")] == 2


def test_is_simple_concatenation(fig1, shared_edge):
    assert is_simple_concatenation(fig1, ("S", "U1", "U4", "T"))
    assert not is_simple_concatenation(shared_edge, ("s", "x", "t"))
    assert is_simple_concatenation(fig1, ("S", "U1"))


def test_enumerate_fig1(fig1):
    paths = enumerate_simple_paths(fig1, "S", "T")
    assert len(paths) == 3
    assert paths == sorted(paths)


def test_enumerate_disconnected_pair():
    inst = disconnected_overlay_instance()
    assert enumerate_simple_paths(inst, "a", "c") == []


def test_enumerate_triangle(triangle):
    assert enumerate_simple_paths(triangle, "a", "b") == [("a", "b"), ("a", "c", "b")]


def test_enumerate_cap(triangle, monkeypatch):
    monkeypatch.setattr(model, "DEFAULT_PATH_CAP", 1)
    with pytest.raises(BudgetExceededError):
        enumerate_simple_paths(triangle, "a", "b")


def test_cap_counts_listed_paths(fig1, monkeypatch):
    # Four vertex-simple overlay paths join D1 and M1; one is simply
    # implemented.
    monkeypatch.setattr(model, "DEFAULT_PATH_CAP", 1)
    assert len(enumerate_simple_paths(fig1, "D1", "M1", walk_simple=True)) == 1
    with pytest.raises(BudgetExceededError):
        enumerate_simple_paths(fig1, "D1", "M1")
    monkeypatch.setattr(model, "DEFAULT_PATH_CAP", 0)
    with pytest.raises(BudgetExceededError):
        enumerate_simple_paths(fig1, "D1", "M1", walk_simple=True)


def enumerate_reference(instance, s, t):
    """The recursive search that enumerate_simple_paths replaced."""
    out, stack = [], [s]

    def visit(u):
        if u == t:
            out.append(tuple(stack))
            return
        for v in instance.h_neighbors(u):
            if v not in stack:
                stack.append(v)
                visit(v)
                stack.pop()

    visit(s)
    return out


def test_enumerate_matches_recursive_reference():
    rng = random.Random(11)
    for seed in range(40):
        n = 3 + seed % 6
        policy = ROUTE_POLICIES[seed % 2]
        full = random_instance(n, 2 + seed % (n - 1), 0.5, policy, seed=seed)
        inst = subsample_overlay(rng, full, 0.7)
        for s, t in itertools.permutations(inst.peers, 2):
            assert enumerate_simple_paths(inst, s, t) == enumerate_reference(inst, s, t)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_nodes=st.integers(2, 9),
    keep=st.floats(0.3, 1.0),
    policy=st.sampled_from(ROUTE_POLICIES),
)
def test_walk_simple_enumeration_is_the_filtered_one(seed, n_nodes, keep, policy):
    """The pruned search lists exactly the vertex-simple paths that pass
    is_simple_concatenation, in the same order, and the packing's image
    masks hold exactly the edges of each path's route image.
    """
    rng = random.Random(seed)
    peers = rng.randint(2, min(n_nodes, 6))
    inst = subsample_overlay(rng, random_instance(n_nodes, peers, 0.5, policy, seed=seed), keep)
    for s, t in itertools.permutations(inst.peers, 2):
        paths = enumerate_simple_paths(inst, s, t)
        assert enumerate_simple_paths(inst, s, t, walk_simple=True) == [
            p for p in paths if is_simple_concatenation(inst, p)
        ]
        for path, mask in zip(paths, _image_masks(inst, paths)):
            edges = {e for e, bit in inst.edge_bits.items() if mask & bit}
            assert edges == set(route_image(inst, path))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 9),
    density=st.floats(0.1, 0.9),
    dead_share=st.floats(0.0, 0.5),
)
def test_shortest_path_matches_reference(seed, n, density, dead_share):
    rng = random.Random(seed)
    names = rng.sample(string.ascii_lowercase, n)
    edges = [e for e in itertools.combinations(sorted(names), 2) if rng.random() < density]
    adj = {u: [] for u in names}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for u in adj:
        adj[u].sort()
    dead = frozenset(e for e in edges if rng.random() < dead_share)
    # Edge i is hop number i, and its mask is bit i.
    number = {e: i for i, e in enumerate(edges)}
    hops = {u: [(v, number[edge_key(u, v)]) for v in vs] for u, vs in adj.items()}
    masks = [1 << i for i in range(len(edges))]
    failed = sum(1 << number[e] for e in dead)
    for s, t in itertools.permutations(names, 2):
        assert shortest_path(hops, masks, s, t, failed) == lex_shortest_path(adj, s, t, dead)


def test_roundtrip(fig1, shared_edge, triangle):
    for inst in (fig1, shared_edge, triangle):
        assert parse_instance(serialize_instance(inst)) == inst
        assert serialize_instance(parse_instance(serialize_instance(inst))) == (
            serialize_instance(inst)
        )


NAME_CHARS = string.ascii_letters + string.digits + "_"


def serialize_reference(instance):
    """The writer serialize_instance replaced: json's indent=2 encoder."""
    doc = {
        "nodes": list(instance.nodes),
        "edges": [list(e) for e in sorted(instance.edges)],
        "peers": list(instance.peers),
        "overlay_edges": [list(e) for e in sorted(instance.overlay_edges)],
        "routes": [
            {"pair": list(pair), "path": list(instance.routes[pair])}
            for pair in sorted(instance.routes)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_nodes=st.integers(2, 8),
    keep_route=st.floats(0.0, 1.0),
    keep_overlay=st.floats(0.0, 1.0),
    policy=st.sampled_from(ROUTE_POLICIES),
    names=st.lists(
        st.text(NAME_CHARS, min_size=1, max_size=6), min_size=8, max_size=8, unique=True
    ),
)
def test_serialize_matches_json_encoder(
    seed, n_nodes, keep_route, keep_overlay, policy, names
):
    rng = random.Random(seed)
    full = random_instance(n_nodes, rng.randint(2, n_nodes), 0.5, policy, seed=seed)
    rename = dict(zip(full.nodes, names))
    routes = {
        (rename[u], rename[v]): tuple(rename[x] for x in path)
        for (u, v), path in full.routes.items()
        if rng.random() < keep_route
    }
    overlay = [p for p in routes if rng.random() < keep_overlay]
    inst = build_instance(
        [rename[u] for u in full.nodes],
        [(rename[u], rename[v]) for u, v in full.edges],
        [rename[u] for u in full.peers],
        overlay,
        routes,
    )
    text = serialize_instance(inst)
    assert text == serialize_reference(inst)
    assert parse_instance(text) == inst


def test_serialize_empty_lists():
    inst = disconnected_overlay_instance()
    assert not inst.overlay_edges and not inst.routes
    assert serialize_instance(inst) == serialize_reference(inst)
    assert '"overlay_edges": [],\n  "routes": []\n}\n' in serialize_instance(inst)


def walk_reference(instance, path):
    """The G-walk that concatenates the hops' routes, the reference that
    the route-image functions are checked against.
    """
    walk = [path[0]]
    for u, v in zip(path, path[1:]):
        route = instance.routes[edge_key(u, v)]
        walk.extend((route if route[0] == u else route[::-1])[1:])
    return walk


def walk_image(instance, path):
    walk = walk_reference(instance, path)
    return Counter(edge_key(a, b) for a, b in zip(walk, walk[1:]))


def walk_is_simple(instance, path):
    walk = walk_reference(instance, path)
    return len(set(walk)) == len(walk)


def test_image_support_is_union_of_hops(fig1, shared_edge):
    """route_image, its support and is_simple_concatenation agree with the
    concatenated walk on every overlay path, up to 40 per pair, of fig1,
    shared_edge and random instances under both route policies.
    """
    instances = [fig1, shared_edge] + [
        random_instance(9, 6, 0.5, policy, seed=seed)
        for policy in ROUTE_POLICIES
        for seed in range(4)
    ]
    simple_paths = repeated = 0
    for inst in instances:
        for s, t in peer_pairs(inst):
            for path in enumerate_simple_paths(inst, s, t)[:40]:
                image = walk_image(inst, path)
                union = frozenset().union(
                    *(inst.route_support(u, v) for u, v in zip(path, path[1:]))
                )
                assert route_image(inst, path) == image
                assert union == frozenset(image)
                simple = walk_is_simple(inst, path)
                assert is_simple_concatenation(inst, path) == simple
                simple_paths += simple
                repeated += max(image.values()) > 1
    assert simple_paths and repeated


def test_one_hop_multiplicities_are_one():
    for seed in range(3):
        inst = random_instance(8, 4, 0.5, "random_simple", seed=seed)
        for e in inst.overlay_edges:
            assert all(m == 1 for m in route_image(inst, e).values())


def test_simple_concatenation_implies_unit_multiplicities():
    for seed in range(4):
        inst = random_instance(8, 4, 0.5, "shortest_path", seed=seed)
        peers = sorted(inst.peers)
        for path in enumerate_simple_paths(inst, peers[0], peers[1])[:30]:
            if is_simple_concatenation(inst, path):
                assert all(m == 1 for m in route_image(inst, path).values())


def test_overlay_edge_requires_route():
    with pytest.raises(ValidationError, match="has no route"):
        build_instance(
            nodes=["a", "b"],
            edges=[("a", "b")],
            peers=["a", "b"],
            overlay_edges=[("a", "b")],
            routes={},
        )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_nodes=st.integers(2, 9),
    keep=st.floats(0.0, 1.0),
    policy=st.sampled_from(ROUTE_POLICIES),
)
def test_indexes_match_their_definitions(seed, n_nodes, keep, policy):
    rng = random.Random(seed)
    full = random_instance(n_nodes, rng.randint(2, n_nodes), 0.5, policy, seed=seed)
    inst = subsample_overlay(rng, full, keep)

    def support(path):
        return frozenset(edge_key(a, b) for a, b in zip(path, path[1:]))

    for u in inst.nodes:
        assert inst.h_neighbors(u) == tuple(
            sorted(v for v in inst.peers if edge_key(u, v) in inst.overlay_edges)
        )
    # Every random instance routes all peer pairs.
    assert inst.supports.keys() == inst.routes.keys() == set(peer_pairs(inst))
    for (u, v), path in inst.routes.items():
        assert inst.supports[(u, v)] == support(path)
        assert inst.route_support(u, v) == inst.route_support(v, u) == support(path)
    kill = {
        e: frozenset(f for f in inst.overlay_edges if e in support(inst.routes[f]))
        for e in sorted(inst.edges)
    }
    assert list(inst.kill_sets.items()) == [(e, f) for e, f in kill.items() if f]
    # The cut candidates are the first edge of each kill set, in edge order,
    # and every routed G-edge shares its kill set with one candidate at or
    # before it.
    heads = {}
    for e, f in kill.items():
        if f:
            heads.setdefault(f, e)
    assert inst.cut_candidates == tuple(heads.values())
    for e, f in inst.kill_sets.items():
        sharing = [c for c in inst.cut_candidates if inst.kill_sets[c] == f]
        assert len(sharing) == 1 and sharing[0] <= e
    number, hops = inst.numbered_overlay
    assert {number[f] for f in inst.overlay_edges} == set(range(len(inst.overlay_edges)))
    for u, v in inst.overlay_edges:
        assert number[u, v] == number[v, u]
    for u in inst.peers:
        assert hops[u] == tuple((v, number[u, v]) for v in inst.h_neighbors(u))
        assert inst.h_neighbors(u) == tuple(v for v, _ in hops[u])
    assert inst.support_masks == tuple(
        sum(inst.edge_bits[e] for e in inst.supports[f]) for f in sorted(inst.overlay_edges)
    )
    with pytest.raises(TypeError):
        number[next(iter(number))] = 0
    with pytest.raises(TypeError):
        hops[inst.peers[0]] = ()
    with pytest.raises(TypeError):
        inst.routes[next(iter(inst.routes))] = ("x", "y")
    with pytest.raises(TypeError):
        inst.supports[next(iter(inst.supports))] = frozenset()
    with pytest.raises(TypeError):
        inst.kill_sets[next(iter(inst.kill_sets))] = frozenset()


def _positions(value, path=()):
    """Every position in a JSON value, as the key path that reaches it."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from _positions(child, path + (key,))


_FUZZ_DOCS = [
    json.loads(serialize_instance(inst))
    for inst in (
        fixtures.fig1(),
        fixtures.shared_edge(),
        fixtures.k2(),
        fixtures.triangle(),
        random_instance(5, 3, 0.6, "random_simple", seed=3),
    )
]
_FUZZ_POSITIONS = [list(_positions(doc)) for doc in _FUZZ_DOCS]
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.floats(),
    st.text(alphabet="abSTU1_\n", max_size=3),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["pair", "path", "nodes"]), inner, max_size=2),
    max_leaves=5,
)


def _mutant(old, kind, new):
    if kind == "wrap":
        return [old]
    if kind == "join" and isinstance(old, list):
        return "".join(x for x in old if isinstance(x, str))
    return new


def _replace_at(value, path, mutate):
    """value with the part at path replaced by mutate(part); unchanged if path is gone."""
    if not path:
        return mutate(value)
    head, *rest = path
    if isinstance(value, dict) and head in value or (
        isinstance(value, list) and isinstance(head, int) and head < len(value)
    ):
        value[head] = _replace_at(value[head], rest, mutate)
    return value


@settings(max_examples=400, deadline=None)
@given(data=st.data(), which=st.integers(0, len(_FUZZ_DOCS) - 1))
def test_fuzzed_documents_raise_only_deepconn_errors(data, which):
    doc = copy.deepcopy(_FUZZ_DOCS[which])
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(_FUZZ_POSITIONS[which]))
        kind = data.draw(st.sampled_from(["replace", "wrap", "join"]))
        new = data.draw(_JSON_VALUES)
        doc = _replace_at(doc, path, lambda old: _mutant(old, kind, new))
    try:
        parse_instance(json.dumps(doc))
    except DeepConnError:
        return
    assert _obeys_schema(doc)


def _obeys_schema(doc):
    """Names are strings; edges, pairs and paths are arrays of them."""

    def names(value):
        return isinstance(value, list) and all(isinstance(x, str) for x in value)

    return (
        names(doc["nodes"])
        and names(doc["peers"])
        and all(
            names(e) and len(e) == 2 for key in ("edges", "overlay_edges") for e in doc[key]
        )
        and all(names(r["pair"]) and len(r["pair"]) == 2 and names(r["path"]) for r in doc["routes"])
    )


_LISTS = ("nodes", "edges", "peers", "overlay_edges", "routes")
# Bad, unknown, integer and unhashable names.
_BAD_NAMES = st.sampled_from(["a-", "", "n 1", "zz", 0, 7, True, None, 1.5, ["n00"], {"n": 1}])


def _random_doc(rng):
    """The document of a random 3-7-node instance with a random share of its
    overlay and every route.
    """
    n = rng.randint(3, 7)
    policy = rng.choice(ROUTE_POLICIES)
    inst = random_instance(n, rng.randint(2, n), 0.5, policy, rng.randrange(10**6))
    return json.loads(serialize_instance(subsample_overlay(rng, inst, rng.random())))


def _shuffled(doc, rng):
    """doc with every list in a random order and every pair in a random
    orientation: the same instance, written another way.
    """
    for key in _LISTS:
        rng.shuffle(doc[key])
    for e in doc["edges"] + doc["overlay_edges"] + [r["pair"] for r in doc["routes"]]:
        if rng.random() < 0.5:
            e.reverse()
    for r in doc["routes"]:
        if rng.random() < 0.5:
            r["path"].reverse()
    return doc


def _name_slots(doc):
    """(list, index) of every name in a well-formed document."""
    lists = [doc["nodes"], doc["peers"], *doc["edges"], *doc["overlay_edges"]]
    lists += [r[k] for r in doc["routes"] for k in ("pair", "path")]
    return [(names, i) for names in lists for i in range(len(names))]


def _mutate(doc, kind, rng, data):
    """Apply one fault of the given kind to a well-formed document."""
    nodes, peers, routes = doc["nodes"], doc["peers"], doc["routes"]
    paths = [r["path"] for r in routes]
    if kind == "rename":
        names, i = rng.choice(_name_slots(doc))
        names[i] = data.draw(_BAD_NAMES) if rng.random() < 0.5 else rng.choice(nodes)
    elif kind == "duplicate" and (items := doc[rng.choice(_LISTS)]):
        copied = copy.deepcopy(rng.choice(items))
        if isinstance(copied, list) and rng.random() < 0.5:
            copied.reverse()
        elif items is routes and rng.random() < 0.5:
            copied["pair"].reverse()
        items.insert(rng.randint(0, len(items)), copied)
    elif kind == "self-loop":
        key, among = rng.choice([("edges", nodes), ("overlay_edges", peers)])
        x = rng.choice(among)
        doc[key].insert(rng.randint(0, len(doc[key])), [x, x])
    elif kind == "non-edge" and paths:
        path = rng.choice(paths)
        path[1:-1] = [rng.choice(nodes)] if rng.random() < 0.5 else []
    elif kind == "not-simple" and paths:
        path = rng.choice(paths)
        path.insert(rng.randint(0, len(path)), rng.choice(path))
    elif kind == "endpoints" and paths:
        path = rng.choice(paths)
        if rng.random() < 0.5:
            path[rng.choice([0, -1])] = rng.choice(nodes)
        else:
            del path[rng.choice([0, -1])]
    elif kind == "unrouted" and routes:
        del routes[rng.randrange(len(routes))]


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


_SEMANTIC_FAULTS = [
    "rename", "duplicate", "self-loop", "non-edge", "not-simple", "endpoints", "unrouted"
]


@settings(max_examples=600, deadline=None)
@given(
    data=st.data(),
    rng=st.randoms(use_true_random=False),
    faults=st.lists(st.sampled_from(_SEMANTIC_FAULTS), max_size=3),
    structural=st.sampled_from([None, None, "drop", "retype"]),
)
def test_parse_matches_reference_on_mutated_documents(data, rng, faults, structural):
    """Every mutated document gives the reference's error class and message,
    or its instance: faults of each kind in any number and document order,
    then at most one dropped key or wrongly typed value.
    """
    doc = copy.deepcopy(_FUZZ_DOCS[0]) if rng.random() < 0.3 else _random_doc(rng)
    doc = _shuffled(doc, rng)
    for kind in faults:
        _mutate(doc, kind, rng, data)
    if structural == "drop":
        owner = doc if rng.random() < 0.5 or not doc["routes"] else rng.choice(doc["routes"])
        if owner:
            del owner[rng.choice(sorted(owner))]
    elif structural == "retype":
        path = rng.choice(list(_positions(doc)))
        doc = _replace_at(doc, path, lambda old: data.draw(_JSON_VALUES))
    text = json.dumps(doc)
    assert _outcome(parse_instance, text) == _outcome(parse_reference, text)
