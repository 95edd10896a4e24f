import itertools
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import classic_edge_connectivity, fdc_reference, separation_reference
from conftest import disconnected_overlay_instance, random_connected_graph, subsample_overlay
from deepconn import fdc, fixtures
from deepconn.cli import main
from deepconn.errors import ValidationError
from deepconn.fdc import FlowResult, fdc_pair, separation_oracle
from deepconn.gadgets import ROUTE_POLICIES, SetSystem, encode_set_system, random_instance
from deepconn.model import (
    build_instance,
    edge_key,
    peer_pairs,
    route_image,
    shortest_path,
)
from deepconn.oracles import all_pairs


def as_numerators(y):
    """A Fraction dual as integer numerators over the lcm of its
    denominators, the conversion ``FlowResult.validate`` makes."""
    scale = math.lcm(*(q.denominator for q in y.values()))
    return {e: q.numerator * (scale // q.denominator) for e, q in y.items()}, scale


def test_oracle_zero_weights_returns_violation(fig1):
    path = separation_oracle(fig1, "S", "T", {}, 1)
    assert path is not None
    assert path[0] == "S" and path[-1] == "T"


def test_oracle_unit_weights_feasible(fig1):
    assert separation_oracle(fig1, "S", "T", dict.fromkeys(fig1.edges, 1), 1) is None


def test_oracle_half_weights_tight(fig1):
    # Numerator 1 on three edges, over the scale 2.
    y = dict.fromkeys([edge_key("M1", "M2"), edge_key("D2", "D3"), edge_key("U3", "U4")], 1)
    # Each of the three (S,T) routes crosses exactly two weighted edges.
    for mid in (("U1", "U4"), ("M1", "M4"), ("D1", "D4")):
        image = route_image(fig1, ("S", *mid, "T"))
        assert sum(m * y.get(e, 0) for e, m in image.items()) == 2
    assert separation_oracle(fig1, "S", "T", y, 2) is None


def test_oracle_third_weights_violate(fig1):
    # Same weighted edges at 1/3: each route costs 2/3 < 1, so a path comes back.
    y = dict.fromkeys([edge_key("M1", "M2"), edge_key("D2", "D3"), edge_key("U3", "U4")], 1)
    path = separation_oracle(fig1, "S", "T", y, 3)
    assert path is not None and path[0] == "S" and path[-1] == "T"


def test_oracle_long_path_overlay_needs_no_recursion():
    nodes = [f"p{i:05d}" for i in range(sys.getrecursionlimit() + 100)]
    inst = fixtures.identity_instance(nodes, list(zip(nodes, nodes[1:])))
    assert separation_oracle(inst, nodes[0], nodes[-1], {}, 1) == tuple(nodes)


ORACLE_CASES = dict(
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


def oracle_case(seed, n_nodes, keep, policy, duals):
    """A random instance with a subsampled overlay and a Fraction dual on
    its G-edges."""
    rng = random.Random(seed)
    full = random_instance(n_nodes, rng.randint(2, n_nodes), 0.6, policy, seed=seed)
    inst = subsample_overlay(rng, full, keep)
    return inst, dict(zip(sorted(inst.edges), duals))


@settings(max_examples=300, deadline=None)
@given(**ORACLE_CASES)
def test_oracle_matches_reference(**case):
    inst, y = oracle_case(**case)
    nums, scale = as_numerators(y)
    for s, t in peer_pairs(inst):
        assert separation_oracle(inst, s, t, nums, scale) == separation_reference(inst, s, t, y)
        # fdc_pair's first column.
        assert separation_oracle(inst, s, t, {}, 1) == shortest_path(
            inst.numbered_overlay[1], inst.support_masks, s, t
        )


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 1000), **ORACLE_CASES)
def test_oracle_path_does_not_depend_on_the_common_denominator(k, **case):
    # fdc_pair prices over the tableau's denominator, a multiple of the lcm.
    inst, y = oracle_case(**case)
    nums, scale = as_numerators(y)
    multiplied = {e: k * v for e, v in nums.items()}
    for s, t in peer_pairs(inst):
        assert separation_oracle(inst, s, t, multiplied, k * scale) == separation_oracle(
            inst, s, t, nums, scale
        )


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


def test_fdc_generates_the_fraction_loop_columns(fig1, shared_edge):
    for inst, s, t in ((fig1, "S", "T"), (shared_edge, "s", "t")):
        assert fdc_pair(inst, s, t) == fdc_reference(inst, s, t)


def assert_matches_the_fraction_loop(inst):
    """fdc_pair, on one row per kill-set class, gives the FlowResult of the
    reference, which keeps a row for every routed G-edge."""
    candidates = set(inst.cut_candidates)
    for s, t in peer_pairs(inst):
        result = fdc_pair(inst, s, t)
        assert result == fdc_reference(inst, s, t)
        assert result.dual.keys() <= candidates


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_nodes=st.integers(5, 8),
    keep=st.floats(0.4, 1.0),
    policy=st.sampled_from(ROUTE_POLICIES),
)
def test_fdc_matches_the_fraction_loop(seed, n_nodes, keep, policy):
    rng = random.Random(seed)
    # At most six peers keep the reference's path enumeration small.
    full = random_instance(n_nodes, rng.randint(3, min(6, n_nodes)), 0.5, policy, seed=seed)
    assert_matches_the_fraction_loop(subsample_overlay(rng, full, keep))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n_peers=st.integers(3, 5), m=st.integers(1, 4))
def test_fdc_matches_the_fraction_loop_on_set_systems(seed, n_peers, m):
    # Each set routes one overlay edge of a random connected overlay, and the
    # two subdivided G-edges of each connector on its route share one kill
    # set, so every encoding repeats kill sets.
    rng = random.Random(seed)
    nodes, edges = random_connected_graph(rng, n_peers, 0.6)
    f = rng.sample(edges, rng.randint(1, len(edges)))
    sets = [{i for i in range(1, m + 1) if rng.random() < 0.5} for _ in f]
    for i in range(1, m + 1):
        rng.choice(sets).add(i)
    inst = encode_set_system(nodes, edges, f, SetSystem.from_lists(m, sets)).instance
    assert len(inst.cut_candidates) < len(inst.kill_sets)
    assert_matches_the_fraction_loop(inst)


def test_fdc_lp_has_one_row_per_kill_set_class(fig1, tmp_path, monkeypatch, capsys):
    sizes = []

    class Recording(fdc.PackingSimplex):
        def __init__(self, n_rows):
            sizes.append(n_rows)
            super().__init__(n_rows)

    monkeypatch.setattr(fdc, "PackingSimplex", Recording)
    path = tmp_path / "fig1.json"
    path.write_text(fixtures.fig1_text())
    assert main(["fdc", "-i", str(path), "--pair", "S", "T"]) == 0
    assert "value: 3/2" in capsys.readouterr().out
    # 18 routed G-edges fall into 12 kill-set classes.
    assert (len(fig1.kill_sets), sizes) == (18, [12])


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
        separation_oracle(fig1, "S", "T", {edge_key("M1", "M2"): -1}, 2)
    with pytest.raises(ValidationError, match="dual scale must be positive"):
        separation_oracle(fig1, "S", "T", {}, 0)


def test_fdc_all_pairs_triangle(triangle):
    value, pair, _ = all_pairs(triangle, "fdc")
    assert value == 2


def test_fdc_all_pairs_k2(k2):
    value, pair, _ = all_pairs(k2, "fdc")
    assert value == 1 and pair == ("a", "b")


def test_fdc_disconnected_overlay():
    inst = disconnected_overlay_instance()
    value, (s, t), result = all_pairs(inst, "fdc")
    assert value == 0
    assert result.primal == {} and result.dual == {} and result.generated_paths == []
    result.validate(inst, s, t)


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

