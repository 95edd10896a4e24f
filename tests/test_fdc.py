import itertools
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import classic_edge_connectivity, separation_reference
from conftest import disconnected_overlay_instance, random_connected_graph, subsample_overlay
from deepconn import fixtures
from deepconn.errors import ValidationError
from deepconn.fdc import FlowResult, fdc_pair, separation_oracle
from deepconn.gadgets import ROUTE_POLICIES, random_instance
from deepconn.model import (
    build_instance,
    edge_key,
    peer_pairs,
    route_image,
    shortest_path,
)
from deepconn.oracles import all_pairs


def test_oracle_zero_weights_returns_violation(fig1):
    path = separation_oracle(fig1, "S", "T", {})
    assert path is not None
    assert path[0] == "S" and path[-1] == "T"


def test_oracle_unit_weights_feasible(fig1):
    y = {e: Fraction(1) for e in fig1.edges}
    assert separation_oracle(fig1, "S", "T", y) is None


def test_oracle_half_weights_tight(fig1):
    y = {
        edge_key("M1", "M2"): Fraction(1, 2),
        edge_key("D2", "D3"): Fraction(1, 2),
        edge_key("U3", "U4"): Fraction(1, 2),
    }
    # Each of the three (S,T) routes crosses exactly two weighted edges.
    for mid in (("U1", "U4"), ("M1", "M4"), ("D1", "D4")):
        image = route_image(fig1, ("S", *mid, "T"))
        assert sum((m * y.get(e, 0) for e, m in image.items()), Fraction(0)) == 1
    assert separation_oracle(fig1, "S", "T", y) is None


def test_oracle_third_weights_violate(fig1):
    # Same weighted edges at 1/3: each route costs 2/3 < 1, so a path comes back.
    y = {
        edge_key("M1", "M2"): Fraction(1, 3),
        edge_key("D2", "D3"): Fraction(1, 3),
        edge_key("U3", "U4"): Fraction(1, 3),
    }
    path = separation_oracle(fig1, "S", "T", y)
    assert path is not None and path[0] == "S" and path[-1] == "T"


def test_oracle_long_path_overlay_needs_no_recursion():
    nodes = [f"p{i:05d}" for i in range(sys.getrecursionlimit() + 100)]
    inst = fixtures.identity_instance(nodes, list(zip(nodes, nodes[1:])))
    assert separation_oracle(inst, nodes[0], nodes[-1], {}) == tuple(nodes)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_nodes=st.integers(3, 7),
    keep=st.floats(0.2, 1.0),
    policy=st.sampled_from(ROUTE_POLICIES),
    # Zeros are frequent so that many paths tie on cost.
    duals=st.lists(
        st.one_of(st.just(Fraction(0)), st.fractions(0, 1, max_denominator=6)),
        min_size=21,
        max_size=21,
    ),
)
def test_oracle_matches_reference(seed, n_nodes, keep, policy, duals):
    rng = random.Random(seed)
    full = random_instance(n_nodes, rng.randint(2, n_nodes), 0.6, policy, seed=seed)
    inst = subsample_overlay(rng, full, keep)
    y = dict(zip(sorted(inst.edges), duals))
    for s, t in peer_pairs(inst):
        assert separation_oracle(inst, s, t, y) == separation_reference(inst, s, t, y)
        # fdc_pair's first column.
        assert separation_oracle(inst, s, t, {}) == shortest_path(inst.h_neighbors, s, t)


def test_fdc_fig1(fig1):
    result = fdc_pair(fig1, "S", "T")
    assert result.value == Fraction(3, 2)
    result.validate(fig1, "S", "T")


def test_fdc_k2(k2):
    assert fdc_pair(k2, "a", "b").value == 1


def test_fdc_shared_edge(shared_edge):
    result = fdc_pair(shared_edge, "s", "t")
    assert result.value == Fraction(1, 2)
    result.validate(shared_edge, "s", "t")


def test_flow_result_certifies_only_its_own_pair(triangle):
    result = fdc_pair(triangle, "a", "b")
    result.validate(triangle, "a", "b")
    with pytest.raises(ValidationError, match="does not join a and c"):
        result.validate(triangle, "a", "c")
    with pytest.raises(ValidationError, match="not a peer"):
        result.validate(triangle, "a", "zz")
    # Here the certificate of a pair with FDC 3/2 also passes every other
    # check for a pair with FDC 1.
    inst = random_instance(7, 4, 0.5, "shortest_path", seed=0)
    result = fdc_pair(inst, "n00", "n03")
    assert (result.value, fdc_pair(inst, "n03", "n05").value) == (Fraction(3, 2), 1)
    with pytest.raises(ValidationError, match="does not join n03 and n05"):
        result.validate(inst, "n03", "n05")


def _scaled(weights, factor):
    return {key: w * factor for key, w in weights.items()}


@pytest.mark.parametrize(
    "forge, message",
    [
        (lambda r: replace(r, primal=_scaled(r.primal, -1)), "negative primal flow"),
        (lambda r: replace(r, primal=_scaled(r.primal, 2)), "violates an edge capacity"),
        (lambda r: replace(r, value=r.value + 1), "objectives differ from value"),
        (lambda r: replace(r, dual=_scaled(r.dual, Fraction(1, 2))), None),
        (lambda r: replace(r, dual={**r.dual, min(r.dual): -max(r.dual.values())}), None),
        (lambda r: replace(r, generated_paths=[r.generated_paths[0][:1]]), None),
        (lambda r: FlowResult(Fraction(0), {}, {}, []), "dual infeasible over the full path space"),
    ],
    ids=[
        "negative-flow",
        "doubled-primal",
        "value-plus-one",
        "halved-dual",
        "negated-weight",
        "one-peer-path",
        "zero-certificate",
    ],
)
def test_forged_flow_certificate_is_rejected(fig1, shared_edge, forge, message):
    for inst, s, t in ((fig1, "S", "T"), (shared_edge, "s", "t")):
        forged = forge(fdc_pair(inst, s, t))
        with pytest.raises(ValidationError, match=message):
            forged.validate(inst, s, t)


def test_flow_result_rejects_an_empty_path(fig1):
    for forged in (
        FlowResult(Fraction(1), {(): Fraction(1)}, {}, []),
        FlowResult(Fraction(0), {}, {}, [()]),
    ):
        with pytest.raises(ValidationError, match="at least two peers"):
            forged.validate(fig1, "S", "T")


def test_oracle_rejects_a_negative_weight(fig1):
    with pytest.raises(ValidationError, match="dual weights must be nonnegative"):
        separation_oracle(fig1, "S", "T", {edge_key("M1", "M2"): Fraction(-1, 2)})


def test_fdc_all_pairs_triangle(triangle):
    value, pair, _ = all_pairs(triangle, "fdc")
    assert value == 2


def test_fdc_all_pairs_k2(k2):
    value, pair, _ = all_pairs(k2, "fdc")
    assert value == 1 and pair == ("a", "b")


def test_fdc_disconnected_overlay():
    inst = disconnected_overlay_instance()
    value, _, result = all_pairs(inst, "fdc")
    assert value == 0
    assert result.primal == {} and result.generated_paths == []


def test_same_endpoint_rejected(fig1):
    with pytest.raises(ValidationError):
        fdc_pair(fig1, "S", "S")


def test_strong_duality_random():
    for seed in range(15):
        inst = random_instance(10, 5, 0.5, "random_simple", seed=seed)
        peers = sorted(inst.peers)
        result = fdc_pair(inst, peers[0], peers[1])
        total_primal = sum(result.primal.values(), Fraction(0))
        total_dual = sum(result.dual.values(), Fraction(0))
        assert total_primal == result.value == total_dual
        result.validate(inst, peers[0], peers[1])


def test_single_layer_equivalence_random():
    rng = random.Random(11)
    for _ in range(10):
        nodes, edges = random_connected_graph(rng, rng.randint(3, 6), 0.5)
        inst = fixtures.identity_instance(nodes, edges)
        for s, t in itertools.combinations(sorted(nodes), 2):
            assert fdc_pair(inst, s, t).value == classic_edge_connectivity(
                nodes, edges, s, t
            )


def test_monotone_in_overlay_edges():
    rng = random.Random(23)
    for seed in range(6):
        inst = random_instance(8, 5, 0.6, "shortest_path", seed=seed)
        small = subsample_overlay(rng, inst, 0.5)
        peers = sorted(inst.peers)
        s, t = peers[0], peers[1]
        base = fdc_pair(small, s, t).value
        extra = next(
            (e for e in sorted(inst.overlay_edges) if e not in small.overlay_edges),
            None,
        )
        if extra is None:
            continue
        bigger = build_instance(
            inst.nodes,
            inst.edges,
            inst.peers,
            sorted(small.overlay_edges) + [extra],
            inst.routes,
        )
        assert fdc_pair(bigger, s, t).value >= base

