"""Acceptance suite: nine numbered criteria, one PASS/FAIL line each.

Each test prints exactly one ``criterion N: PASS/FAIL`` line (visible because
the suite runs with capture disabled) and fails the normal pytest way on any
violation.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from brute_force import (
    brute_force_augment,
    classic_edge_connectivity,
    set_packing_brute_force,
)
from conftest import random_connected_graph
from deepconn import fixtures
from deepconn.errors import BudgetExceededError
from deepconn.fdc import fdc_pair
from deepconn.gadgets import (
    SetSystem,
    build_hamiltonian_reduction,
    build_spddc_reduction,
    encode_set_system,
    random_instance,
)
from deepconn.model import build_instance, edge_key
from deepconn.oracles import (
    all_pairs,
    erdc_pair,
    pddc_pair,
    spddc_pair,
)
from deepconn.sparsifier import (
    check_precondition,
    compute_kappa,
    greedy_augment,
    sparsified_instance,
    special_case_construct,
    star_tree,
)


def _report(number, failures, detail):
    verdict = "PASS" if not failures else "FAIL"
    suffix = detail if not failures else "; ".join(failures[:3])
    print(f"\ncriterion {number}: {verdict} - {suffix}")
    assert not failures, suffix


def test_criterion_1_fig1_reproduction(fig1):
    started = time.perf_counter()
    failures = []
    if erdc_pair(fig1, "S", "T")[0] != 2:
        failures.append("erdc(S,T) != 2")
    if pddc_pair(fig1, "S", "T")[0] != 1:
        failures.append("pddc(S,T) != 1")
    if fdc_pair(fig1, "S", "T").value != Fraction(3, 2):
        failures.append("fdc(S,T) != 3/2")
    if classic_edge_connectivity(fig1.nodes, fig1.edges, "S", "T") != 3:
        failures.append("classic(S,T) != 3")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, failures, f"erdc=2 pddc=1 fdc=3/2 classic=3 in {elapsed:.2f}s")


def test_criterion_2_strong_duality(fig1):
    started = time.perf_counter()
    failures = []
    cases = [(fig1, "S", "T")]
    for seed in range(200):
        n = 8 + seed % 13  # 8..20 nodes
        p = 4 + seed % 7  # 4..10 peers
        policy = "shortest_path" if seed % 2 else "random_simple"
        inst = random_instance(n, min(p, n), 0.45, policy, seed=seed)
        peers = sorted(inst.peers)
        cases.append((inst, peers[0], peers[-1]))
    for idx, (inst, s, t) in enumerate(cases):
        result = fdc_pair(inst, s, t)
        primal = sum(result.primal.values(), Fraction(0))
        dual = sum(result.dual.values(), Fraction(0))
        if not (primal == result.value == dual):
            failures.append(f"case {idx}: primal {primal} != dual {dual}")
            continue
        try:
            # Re-checks capacity feasibility and runs a full oracle pass.
            result.validate(inst, s, t)
        except Exception as exc:  # pragma: no cover - diagnostic path
            failures.append(f"case {idx}: certificate invalid: {exc}")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(2, failures, f"{len(cases)} instances, exact duality, {elapsed:.1f}s")


def test_criterion_3_single_layer_equivalence():
    failures = []
    rng = random.Random(303)
    pairs_checked = 0
    for _ in range(100):
        nodes, edges = random_connected_graph(rng, rng.randint(3, 8), 0.4)
        inst = fixtures.identity_instance(nodes, edges)
        for s, t in itertools.combinations(sorted(nodes), 2):
            lam = classic_edge_connectivity(nodes, edges, s, t)
            got = (
                erdc_pair(inst, s, t)[0],
                pddc_pair(inst, s, t)[0],
                spddc_pair(inst, s, t)[0],
                fdc_pair(inst, s, t).value,
            )
            pairs_checked += 1
            if got != (lam, lam, lam, lam):
                failures.append(f"{s},{t}: {got} != classic {lam}")
    _report(3, failures, f"100 identity graphs, {pairs_checked} pairs, all equal")


def test_criterion_4_parameter_inequalities(fig1, shared_edge):
    failures = []
    instances = [fig1, shared_edge, fixtures.triangle(), fixtures.k2()]
    for seed in range(30):
        n = 6 + seed % 7
        p = 3 + seed % 4  # 3..6 peers
        policy = "shortest_path" if seed % 2 else "random_simple"
        instances.append(random_instance(n, p, 0.5, policy, seed=1000 + seed))
    pairs_checked = 0
    for inst in instances:
        peers = sorted(inst.peers)
        for s, t in itertools.combinations(peers, 2):
            erdc = erdc_pair(inst, s, t)[0]
            pddc = pddc_pair(inst, s, t)[0]
            spddc = spddc_pair(inst, s, t)[0]
            flow = fdc_pair(inst, s, t).value
            pairs_checked += 1
            if not (spddc <= pddc <= erdc and spddc <= flow <= erdc):
                failures.append(
                    f"{s},{t}: spddc={spddc} pddc={pddc} fdc={flow} erdc={erdc}"
                )
    # Incomparability demonstrated in both directions.
    if not pddc_pair(shared_edge, "s", "t")[0] == 1 > fdc_pair(
        shared_edge, "s", "t"
    ).value == Fraction(1, 2):
        failures.append("shared-edge fixture: expected pddc=1 > fdc=1/2")
    if not pddc_pair(fig1, "S", "T")[0] == 1 < fdc_pair(fig1, "S", "T").value == (
        Fraction(3, 2)
    ):
        failures.append("fig1: expected pddc=1 < fdc=3/2")
    _report(
        4,
        failures,
        f"{len(instances)} instances / {pairs_checked} pairs, "
        "incomparability both ways",
    )


def _feasible_instances(count, max_peers, seed0):
    found = []
    seed = seed0
    while len(found) < count:
        n = 5 + seed % 8
        p = 3 + seed % (max_peers - 2)
        inst = random_instance(n, min(p, n), 0.6, "shortest_path", seed=seed)
        seed += 1
        if check_precondition(inst)[0]:
            found.append(inst)
    return found


def test_criterion_5_sparsifier():
    failures = []
    instances = _feasible_instances(100, max_peers=8, seed0=5000)
    bound_checked = 0
    for idx, inst in enumerate(instances):
        tree = star_tree(inst)
        trace = []
        overlay = greedy_augment(inst, tree, trace=trace)
        if compute_kappa(inst, overlay, tree).kappa != 0:
            failures.append(f"instance {idx}: kappa != 0")
        if any(a <= b for a, b in zip(trace, trace[1:])):
            failures.append(f"instance {idx}: kappa not strictly decreasing")
        if all_pairs(sparsified_instance(inst, overlay), "erdc")[0] < 2:
            failures.append(f"instance {idx}: all-pairs erdc < 2")
        try:
            best = brute_force_augment(inst, tree)
        except BudgetExceededError:
            continue
        bound_checked += 1
        kappa_t = compute_kappa(inst, tree, tree).kappa
        added_greedy = len(overlay) - len(tree)
        added_best = len(best) - len(tree)
        bound = (math.log(kappa_t) + 1) * added_best if added_best else 0
        if added_greedy > bound:
            failures.append(
                f"instance {idx}: greedy {added_greedy} > bound {bound:.2f}"
            )
    _report(
        5,
        failures,
        f"100 feasible instances, ratio bound checked on {bound_checked}",
    )


def test_criterion_6_submodularity():
    failures = []
    rng = random.Random(606)
    instances = _feasible_instances(5, max_peers=7, seed0=6000)
    for trial in range(1000):
        inst = instances[trial % len(instances)]
        tree = star_tree(inst)
        pairs = sorted(inst.overlay_edges)
        h2 = {e for e in pairs if rng.random() < 0.7}
        h1 = {e for e in h2 if rng.random() < 0.7}
        s1 = compute_kappa(inst, h1, tree)
        s2 = compute_kappa(inst, h2, tree)
        if s1.kappa < s2.kappa:
            failures.append(f"trial {trial}: kappa not antitone")
        candidates = [e for e in pairs if e not in h2]
        if not candidates:
            continue
        e = rng.choice(candidates)
        from deepconn.sparsifier import delta

        if delta(s1, e) < delta(s2, e):
            failures.append(f"trial {trial}: delta not antitone at {e}")
    _report(6, failures, "1000 nested-overlay triples, kappa and delta antitone")


def test_criterion_7_special_case():
    failures = []
    rng = random.Random(707)
    done = 0
    while done < 50:
        n = rng.randint(4, 10)
        nodes, edges = random_connected_graph(rng, n, 0.5)
        if any(
            not _connected_without(nodes, edges, e) for e in edges
        ):  # bridge: not 2-edge-connected
            continue
        done += 1
        overlay = special_case_construct(fixtures.identity_instance(nodes, edges))
        if len(overlay) > 2 * n - 2:
            failures.append(f"{n} nodes: |H| = {len(overlay)} > {2 * n - 2}")
        inst = build_instance(
            nodes, edges, nodes, overlay, {e: e for e in overlay}
        )
        if all_pairs(inst, "erdc")[0] < 2:
            failures.append(f"{n} nodes: all-pairs erdc < 2")
    _report(7, failures, "50 two-edge-connected graphs, |H| <= 2n-2, erdc >= 2")


def _connected_without(nodes, edges, dropped):
    adj = {u: [] for u in nodes}
    for e in edges:
        if e == dropped:
            continue
        u, v = e
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


def _covering_set_systems(max_m, max_n):
    """Multisets of nonempty subsets of [m] whose union is [m]."""
    for m in range(1, max_m + 1):
        subsets = [
            frozenset(c)
            for size in range(1, m + 1)
            for c in itertools.combinations(range(1, m + 1), size)
        ]
        for n in range(1, max_n + 1):
            for combo in itertools.combinations_with_replacement(subsets, n):
                if frozenset().union(*combo) == frozenset(range(1, m + 1)):
                    yield SetSystem(m=m, sets=tuple(combo))


def _has_hamiltonian_path(nodes, edge_set):
    nodes = sorted(nodes)
    for perm in itertools.permutations(nodes):
        if all(
            edge_key(u, v) in edge_set for u, v in zip(perm, perm[1:])
        ):
            return True
    return False


def _reduction_has_survivable_overlay(inst, n):
    # An n-edge overlay with all-pairs ERDC >= 2 must be spanning, connected
    # and everywhere of degree >= 2, i.e. a Hamiltonian cycle of K_P; the
    # brute force enumerates all n-edge subsets and filters accordingly.
    peers = sorted(inst.peers)
    kp = [edge_key(u, v) for u, v in itertools.combinations(peers, 2)]
    for combo in itertools.combinations(kp, n):
        degree = {u: 0 for u in peers}
        for u, v in combo:
            degree[u] += 1
            degree[v] += 1
        if any(d != 2 for d in degree.values()):
            continue
        if not _connected_without(peers, list(combo), None):
            continue
        trial = build_instance(inst.nodes, inst.edges, inst.peers, combo, inst.routes)
        if all_pairs(trial, "erdc")[0] >= 2:
            return True
    return False


def test_criterion_8_reduction_soundness():
    started = time.perf_counter()
    failures = []
    systems = 0
    for system in _covering_set_systems(4, 4):
        for k in (1, 2, 3):
            systems += 1
            out, s, t = build_spddc_reduction(system, k)
            gadget_says = spddc_pair(out.instance, s, t)[0] >= 1
            truth = set_packing_brute_force(system, k)
            if gadget_says != truth:
                failures.append(f"set system {system.sets} k={k}")

    import networkx as nx

    graphs = 0
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() < 3 or g.number_of_nodes() > 6:
            continue
        if not nx.is_connected(g):
            continue
        graphs += 1
        nodes = [f"g{u}" for u in sorted(g.nodes)]
        edges = [(f"g{u}", f"g{v}") for u, v in g.edges]
        inst = build_hamiltonian_reduction(nodes, edges)
        edge_set = {edge_key(u, v) for u, v in edges}
        ham = _has_hamiltonian_path(nodes, edge_set)
        survivable = _reduction_has_survivable_overlay(inst, len(nodes))
        if ham != survivable:
            failures.append(f"atlas graph on {nodes}: ham={ham} overlay={survivable}")
    elapsed = time.perf_counter() - started
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s >= 300s")
    _report(
        8,
        failures,
        f"{systems} (system,k) cases and {graphs} graph classes, {elapsed:.1f}s",
    )


def test_criterion_9_lemma_audit():
    failures = []
    audited = 0
    for system in _covering_set_systems(3, 3):
        n = system.n
        h_nodes = [f"h{i}" for i in range(n + 1)]
        h_edges = [(f"h{i}", f"h{i + 1}") for i in range(n)]
        out = encode_set_system(h_nodes, h_edges, h_edges, system)
        inst = out.instance
        audited += 1
        identity = {tuple(e) for e in out.labels["identity_edges"]}
        element = [tuple(e) for e in out.labels["element_edges"]]
        route = {tuple(e) for e in out.labels["route_edges"]}
        f = [tuple(e) for e in out.labels["f"]]
        # Property (1): exact vertex count in the O(m*n) form, one
        # subdivision vertex per connector hop.
        n_z = len(out.labels["subdivision_vertices"])
        expected_z = sum(len(s) + 1 for s in system.sets)
        if len(inst.nodes) != len(h_nodes) + 2 * system.m + n_z or n_z != expected_z:
            failures.append(f"{system.sets}: vertex count off")
        # Property (2): disjoint partition E(G) = (E(H)-F) + E_D + E_rho.
        if identity != set() or len(element) != system.m:
            failures.append(f"{system.sets}: edge classes wrong (F = E(H))")
        if set(element) | route | identity != set(inst.edges) or set(element) & route:
            failures.append(f"{system.sets}: edge partition broken")
        # Property (3): membership matrix realized exactly.
        for i in range(1, system.m + 1):
            for j in range(1, n + 1):
                if (element[i - 1] in inst.route_support(*f[j - 1])) != (
                    i in system.sets[j - 1]
                ):
                    failures.append(f"{system.sets}: membership ({i},{j}) wrong")
        # Property (4): every E_rho edge belongs to exactly one route image.
        for e in sorted(route):
            owners = sum(
                1 for pair in inst.overlay_edges if e in inst.route_support(*pair)
            )
            if owners != 1:
                failures.append(f"{system.sets}: edge {e} owned by {owners}")
    _report(9, failures, f"{audited} encodings satisfy properties (1)-(4) exactly")
