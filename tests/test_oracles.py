import itertools
import random
import re
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import (
    all_pairs_reference,
    classic_edge_connectivity,
    lex_shortest_path,
    seed_reference,
)
from conftest import (
    disconnected_overlay_instance,
    random_connected_graph,
    subsample_overlay,
)
from deepconn import fixtures, oracles
from deepconn.cli import _witness
from deepconn.errors import BudgetExceededError, ValidationError
from deepconn.fdc import fdc_pair
from deepconn.gadgets import ROUTE_POLICIES, random_instance
from deepconn.model import adjacency, parse_instance, peer_pairs
from deepconn.oracles import (
    _max_packing,
    _survivor,
    all_pairs,
    check_cut,
    check_packing,
    erdc_pair,
    pair_parameter,
    pddc_pair,
    seed_packing,
    spddc_pair,
)


def test_erdc_fig1(fig1):
    value, cut = erdc_pair(fig1, "S", "T")
    assert value == 2
    assert len(cut) == 2
    check_cut(fig1, "S", "T", cut)


def test_erdc_minimality_fig1(fig1):
    # No single underlying edge disconnects S from T: exhaustive check.
    for e in sorted(fig1.edges):
        assert _survivor(fig1, fig1.edge_bits[e], "S", "T") is not None


def test_cut_certificate_rejects_a_non_peer_pair(fig1):
    # The empty cut leaves S unable to reach a node that is not a peer.
    with pytest.raises(ValidationError, match="not a peer"):
        check_cut(fig1, "S", "ZZ", frozenset())


def test_cut_certificate_counts_only_routed_g_edges(fig1):
    _, cut = erdc_pair(fig1, "S", "T")
    assert cut == {("D1", "D2"), ("M1", "M2")}
    # A non-edge fails nothing, nor does the unrouted G-edge (D3,D4).
    check_cut(fig1, "S", "T", cut | {("S", "ZZ")})
    assert ("D3", "D4") in fig1.edges
    for e in sorted(cut):
        with_d3d4 = fig1.edge_bits[e] | fig1.edge_bits["D3", "D4"]
        assert _survivor(fig1, with_d3d4, "S", "T") == _survivor(
            fig1, fig1.edge_bits[e], "S", "T"
        )


@pytest.mark.parametrize(
    "edges",
    [
        {("S", "ZZ")},
        {("D2", "D1"), ("M2", "M1")},  # the cut's edges as reversed keys
        {("D1", "D2"), ("D3", "D4")},
    ],
)
def test_cut_certificate_with_odd_edges_is_rejected(fig1, edges):
    with pytest.raises(ValidationError, match="does not disconnect the pair"):
        check_cut(fig1, "S", "T", frozenset(edges))


@pytest.mark.parametrize(
    "edges",
    [[["S", "U1"]], [("D1", "D2"), ["M1", "M2"]], [("D1", ["D2"])]],
    ids=["list", "one-list", "list-name"],
)
def test_cut_certificate_with_an_unhashable_edge_is_rejected(fig1, edges):
    """A cut edge that cannot be a G-edge key, such as the JSON array of a
    --witness report, is a ValidationError, not a TypeError."""
    message = f"invalid edge in cut certificate {edges!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        check_cut(fig1, "S", "T", edges)


def test_cut_certificate_counts_a_repeated_edge_once(fig1):
    # An edge listed twice fails that edge, not the G-edge of the next bit.
    check_cut(fig1, "S", "T", [("M1", "M2"), ("M1", "M2"), ("D1", "D2")])
    with pytest.raises(ValidationError, match="does not disconnect the pair"):
        check_cut(fig1, "S", "T", [("D3", "M3"), ("D3", "M3"), ("M1", "M2")])


def test_path_packing_certifies_only_its_own_pair(fig1):
    packing = [("S", "U1")]
    check_packing(fig1, "S", "U1", packing)
    with pytest.raises(ValidationError, match="does not join S and T"):
        check_packing(fig1, "S", "T", packing)
    with pytest.raises(ValidationError, match="not a peer"):
        check_packing(fig1, "S", "ZZ", packing)


def test_forged_cut_and_packings_are_rejected(fig1, shared_edge):
    with pytest.raises(ValidationError, match="does not disconnect the pair"):
        check_cut(fig1, "S", "T", frozenset())
    _, packing = pddc_pair(fig1, "S", "T")
    with pytest.raises(ValidationError, match="packing images intersect"):
        check_packing(fig1, "S", "T", packing * 2)
    # s-x-t is a packing for PDDC, but its walk crosses (a,b) twice.
    _, packing = pddc_pair(shared_edge, "s", "t")
    check_packing(shared_edge, "s", "t", packing)
    with pytest.raises(ValidationError, match="not simply implemented"):
        check_packing(shared_edge, "s", "t", packing, simple_only=True)


def test_erdc_k2(k2):
    assert erdc_pair(k2, "a", "b")[0] == 1


def test_erdc_triangle(triangle):
    for s, t in itertools.combinations("abc", 2):
        assert erdc_pair(triangle, s, t)[0] == 2


def test_pddc_fig1(fig1):
    value, paths = pddc_pair(fig1, "S", "T")
    assert value == 1
    check_packing(fig1, "S", "T", paths)


def test_pddc_shared_edge(shared_edge):
    # Strictly above the flow value 1/2: the two parameters are incomparable.
    value, _ = pddc_pair(shared_edge, "s", "t")
    assert value == 1
    assert fdc_pair(shared_edge, "s", "t").value == Fraction(1, 2)


def test_pddc_triangle(triangle):
    value, paths = pddc_pair(triangle, "a", "b")
    assert value == 2
    check_packing(triangle, "a", "b", paths)


def test_spddc_fig1(fig1):
    assert spddc_pair(fig1, "S", "T")[0] == 1


def test_spddc_shared_edge(shared_edge):
    value, paths = spddc_pair(shared_edge, "s", "t")
    assert value == 0
    assert paths == []


def test_spddc_triangle(triangle):
    value, paths = spddc_pair(triangle, "a", "b")
    assert value == 2
    check_packing(triangle, "a", "b", paths, simple_only=True)


def test_all_pairs(triangle, k2):
    assert all_pairs(triangle, "erdc")[0] == 2
    assert all_pairs(k2, "spddc")[0] == 1
    inst = disconnected_overlay_instance()
    for which in ("erdc", "pddc", "spddc"):
        assert all_pairs(inst, which)[0] == 0


def test_seed_packing_is_a_packing(fig1):
    for s, t in peer_pairs(fig1):
        seed = seed_packing(fig1, s, t)
        check_packing(fig1, s, t, seed)
        assert 0 < len(seed) <= erdc_pair(fig1, s, t)[0]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_nodes=st.integers(6, 12),
    keep=st.floats(0.3, 1.0),
    fail_share=st.floats(0.0, 0.3),
    policy=st.sampled_from(ROUTE_POLICIES),
)
def test_seed_and_survivor_match_the_kill_set_reference(
    seed, n_nodes, keep, fail_share, policy
):
    """Failure masks give the seeds and survivors that the kill-set unions
    of the overlay edges give.
    """
    rng = random.Random(seed)
    full = random_instance(n_nodes, rng.randint(2, min(n_nodes, 8)), 0.4, policy, seed=seed)
    inst = subsample_overlay(rng, full, keep)
    adj = adjacency(inst.peers, inst.overlay_edges)
    for s, t in peer_pairs(inst):
        assert seed_packing(inst, s, t) == seed_reference(inst, s, t)
        failed = [e for e in sorted(inst.edges) if rng.random() < fail_share]
        dead = set().union(*(inst.kill_sets.get(e, ()) for e in failed))
        mask = sum(inst.edge_bits[e] for e in failed)
        assert _survivor(inst, mask, s, t) == lex_shortest_path(adj, s, t, dead)


@pytest.mark.parametrize(
    "which, searched",
    [
        ("erdc", 16),
        ("pddc", 1),
        ("spddc", [("D1", "U4"), ("D1", "D4")]),
        ("fdc", 28),
    ],
)
def test_all_pairs_searches_only_pairs_that_can_win(fig1, monkeypatch, which, searched):
    calls = []
    search = oracles._PAIR_OPS[which]

    def counted(instance, s, t, **kwargs):
        calls.append((s, t))
        return search(instance, s, t, **kwargs)

    monkeypatch.setitem(oracles._PAIR_OPS, which, counted)
    assert all_pairs(fig1, which)[1] == ("D1", "D4")
    assert len(set(calls)) == len(calls)
    if isinstance(searched, int):
        assert len(calls) == searched
    else:
        assert calls == searched


def min_loop(instance, which):
    """The unpruned minimum: every pair searched in lexicographic order."""
    best = None
    for s, t in peer_pairs(instance):
        value, witness = pair_parameter(instance, which, s, t)
        if best is None or value < best[0]:
            best = (value, (s, t), witness)
    return best


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_nodes=st.integers(6, 12),
    keep=st.floats(0.3, 1.0),
    policy=st.sampled_from(ROUTE_POLICIES),
)
def test_all_pairs_matches_min_loop(seed, n_nodes, keep, policy):
    rng = random.Random(seed)
    full = random_instance(n_nodes, rng.randint(3, min(n_nodes, 7)), 0.4, policy, seed=seed)
    inst = subsample_overlay(rng, full, keep)
    for which in ("erdc", "pddc", "spddc", "fdc"):
        value, pair, witness = all_pairs(inst, which)
        expected = min_loop(inst, which)
        assert (value, pair) == expected[:2]
        assert _witness(which, witness) == _witness(which, expected[2])


def _searched(minimum, instance, which, **kwargs):
    """The pairs ``minimum`` (an all-pairs function) searches, in order,
    and its (value, pair, witness), or the message of its budget error.
    """
    calls = []
    search = oracles._PAIR_OPS[which]

    def recorded(instance, s, t, **kwargs):
        calls.append((s, t))
        return search(instance, s, t, **kwargs)

    with patch.dict(oracles._PAIR_OPS, {which: recorded}):
        try:
            value, pair, witness = minimum(instance, which, **kwargs)
        except BudgetExceededError as exc:
            return calls, str(exc)
    return calls, (value, pair, _witness(which, witness))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_nodes=st.integers(6, 12),
    keep=st.floats(0.3, 1.0),
    policy=st.sampled_from(ROUTE_POLICIES),
    budget=st.one_of(st.none(), st.integers(0, 40)),
)
def test_all_pairs_searches_in_the_order_of_the_eager_reference(
    seed, n_nodes, keep, policy, budget
):
    """Seeds grown level by level search the pairs that full seeds sorted by
    (bound, pair) search, in the same order, and give the same answer or
    raise the same budget error.
    """
    rng = random.Random(seed)
    full = random_instance(n_nodes, rng.randint(3, min(n_nodes, 7)), 0.4, policy, seed=seed)
    inst = subsample_overlay(rng, full, keep)
    for which in ("erdc", "pddc", "spddc", "fdc"):
        kwargs = {} if budget is None or which == "fdc" else {"budget": budget}
        assert _searched(all_pairs, inst, which, **kwargs) == _searched(
            all_pairs_reference, inst, which, **kwargs
        )


@pytest.mark.parametrize(
    "which, document, most",
    [("pddc", None, 29), ("erdc", "forty_nodes.json", 387)],
)
def test_all_pairs_stops_growing_seeds_it_does_not_need(
    fig1, monkeypatch, which, document, most
):
    """A pair that is never searched never finishes its seed, and each
    overlay search stops at t.  Full seeds for every pair take 68 searches
    on fig1 and 1,197 on the 40-node fixture.
    """
    instance = fig1
    if document is not None:
        instance = parse_instance((Path(__file__).parent / "data" / document).read_text())
    calls = []
    search = oracles.shortest_path

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(oracles, "shortest_path", counted)
    all_pairs(instance, which)
    assert len(calls) <= most


def test_classic_connectivity():
    assert classic_edge_connectivity(["a", "b"], [("a", "b")], "a", "b") == 1
    k4 = ["a", "b", "c", "d"]
    k4e = list(itertools.combinations(k4, 2))
    for s, t in itertools.combinations(k4, 2):
        assert classic_edge_connectivity(k4, k4e, s, t) == 3


def test_classic_connectivity_fig1(fig1):
    assert classic_edge_connectivity(fig1.nodes, fig1.edges, "S", "T") == 3


def test_parameter_inequalities_fixtures(fig1, shared_edge, triangle):
    for inst, s, t in (
        (fig1, "S", "T"),
        (shared_edge, "s", "t"),
        (triangle, "a", "c"),
    ):
        erdc = erdc_pair(inst, s, t)[0]
        pddc = pddc_pair(inst, s, t)[0]
        spddc = spddc_pair(inst, s, t)[0]
        flow = fdc_pair(inst, s, t).value
        assert spddc <= pddc <= erdc
        assert spddc <= flow <= erdc


def test_single_layer_equivalence():
    rng = random.Random(3)
    for _ in range(8):
        nodes, edges = random_connected_graph(rng, rng.randint(3, 7), 0.5)
        inst = fixtures.identity_instance(nodes, edges)
        for s, t in itertools.combinations(sorted(nodes), 2):
            lam = classic_edge_connectivity(nodes, edges, s, t)
            assert erdc_pair(inst, s, t)[0] == lam
            assert pddc_pair(inst, s, t)[0] == lam
            assert spddc_pair(inst, s, t)[0] == lam
            assert fdc_pair(inst, s, t).value == lam


def test_packing_budget(triangle):
    with pytest.raises(BudgetExceededError):
        pddc_pair(triangle, "a", "b", budget=1)


def test_pddc_long_overlay_path():
    # 1,100 hops: past the interpreter's default recursion limit.
    nodes = [f"p{i:04d}" for i in range(1100)]
    inst = fixtures.identity_instance(nodes, list(zip(nodes, nodes[1:])))
    assert pddc_pair(inst, nodes[0], nodes[-1])[0] == 1


def test_pair_validation(fig1):
    with pytest.raises(ValidationError):
        erdc_pair(fig1, "S", "S")
    with pytest.raises(ValidationError):
        pddc_pair(fig1, "S", "U2")  # U2 is not a peer


# -- reference searches ------------------------------------------------------


def erdc_reference(instance, s, t):
    """Plain lexicographic enumeration over the routed G-edges, one BFS each."""
    adj = adjacency(instance.peers, instance.overlay_edges)
    routed = sorted(
        {e for f in instance.overlay_edges for e in instance.route_support(*f)}
    )
    for size in range(len(routed) + 1):
        for subset in itertools.combinations(routed, size):
            dead = {
                f
                for f in instance.overlay_edges
                if instance.route_support(*f).intersection(subset)
            }
            if lex_shortest_path(adj, s, t, dead) is None:
                return size, frozenset(subset)
    raise AssertionError("removing every routed edge must disconnect the pair")


def max_packing_reference(supports):
    """Recursive include-first branch and bound whose only bound is that
    every remaining set fits; returns (index list, nodes visited)."""
    best = []
    nodes = 0

    def search(idx, chosen, used):
        nonlocal best, nodes
        nodes += 1
        if len(chosen) > len(best):
            best = list(chosen)
        if idx == len(supports):
            return
        if len(chosen) + (len(supports) - idx) <= len(best):
            return
        if not (supports[idx] & used):
            chosen.append(idx)
            search(idx + 1, chosen, used | supports[idx])
            chosen.pop()
        search(idx + 1, chosen, used)

    search(0, [], frozenset())
    return best, nodes


@st.composite
def set_families(draw):
    """Sets over range(m), each meeting both the s-elements and the t-elements."""
    m = draw(st.integers(2, 10))
    elements = st.integers(0, m - 1)
    s_elems = draw(st.frozensets(elements, min_size=1))
    t_elems = draw(st.frozensets(elements, min_size=1))
    sets = []
    for _ in range(draw(st.integers(0, 14))):
        s_end = draw(st.sampled_from(sorted(s_elems)))
        t_end = draw(st.sampled_from(sorted(t_elems)))
        sets.append(draw(st.frozensets(elements)) | {s_end, t_end})
    return sets, s_elems, t_elems


def _mask(items):
    return sum(1 << x for x in items)


@settings(max_examples=400, deadline=None)
@given(set_families())
def test_max_packing_matches_reference(family):
    sets, s_elems, t_elems = family
    expected, nodes = max_packing_reference(sets)
    masks = [_mask(x) for x in sets]
    # The s/t bound only adds pruning: the same packing within the
    # reference's node count.
    assert _max_packing(masks, _mask(s_elems), _mask(t_elems), nodes) == expected


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_nodes=st.integers(3, 7),
    density=st.sampled_from([0.5, 0.8]),
    keep=st.floats(0.2, 1.0),
    policy=st.sampled_from(ROUTE_POLICIES),
)
def test_erdc_matches_reference(seed, n_nodes, density, keep, policy):
    rng = random.Random(seed)
    n_peers = rng.randint(2, n_nodes)
    full = random_instance(n_nodes, n_peers, density, policy, seed=seed)
    inst = subsample_overlay(rng, full, keep)
    for s, t in peer_pairs(inst):
        value, cut = erdc_pair(inst, s, t)
        assert (value, cut) == erdc_reference(inst, s, t)

