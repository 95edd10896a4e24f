"""Flow parameter via LP column generation with a shortest-path pricing step.

The primal packs flow on images of overlay (s,t)-paths under unit underlying
capacities; the dual fractionally buys underlying edges so every image costs
at least 1.  Columns (paths) are generated by the separation routine: weight
each overlay edge by the dual mass of its route and look for an (s,t)-path of
weight below 1 in H.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .model import Edge, Instance, Path, check_pair, edge_key, route_image
from .simplex import PackingSimplex

ZERO = Fraction(0)


@dataclass
class FlowResult:
    """Exact flow value with primal and dual certificates."""

    value: Fraction
    primal: dict[Path, Fraction]
    dual: dict[Edge, Fraction]
    generated_paths: list[Path]

    def validate(self, instance: Instance, s: str, t: str) -> None:
        """Re-check both certificates independently of the solver.

        The closing separation oracle prices every overlay (s,t)-path, the
        generated ones included, and rejects a negative dual weight.
        """
        check_pair(instance, s, t, (*self.primal, *self.generated_paths))
        load: dict[Edge, Fraction] = {}
        total = ZERO
        for path, flow in self.primal.items():
            if flow < 0:
                raise ValidationError("negative primal flow")
            total += flow
            for e, mult in route_image(instance, path).items():
                load[e] = load.get(e, ZERO) + mult * flow
        if any(v > 1 for v in load.values()):
            raise ValidationError("primal violates an edge capacity")
        if total != self.value or sum(self.dual.values(), ZERO) != self.value:
            raise ValidationError("primal/dual objectives differ from value")
        if separation_oracle(instance, s, t, self.dual) is not None:
            raise ValidationError("dual infeasible over the full path space")


def separation_oracle(
    instance: Instance, s: str, t: str, y: dict[Edge, Fraction]
) -> Path | None:
    """Return an overlay (s,t)-path whose image costs < 1 under y, if any.

    The returned path has minimum cost, then the fewest hops, and is then
    the lexicographically smallest in ``h_neighbors`` order.  The search
    runs on integers: y is scaled by the lcm of its denominators, and an
    overlay edge whose route then weighs w gets the weight w·|P| + 1.  A
    simple path has fewer than |P| hops, so the added ones sum to less than
    |P|: they never reorder paths of different cost, only break ties by hop
    count, and "costs < 1" becomes "weighs < scale·|P|".  Every weight is
    positive, so the tight edges (those on a shortest path to t) form a DAG.
    One Dijkstra from t, then a walk from s that takes the first tight
    neighbour at each step, yields the path; it is simple with no search.
    """
    check_pair(instance, s, t)
    if any(v < 0 for v in y.values()):
        raise ValidationError("dual weights must be nonnegative")
    scale = math.lcm(*(v.denominator for v in y.values()))
    n = len(instance.peers)
    # Each G-edge g in y's support adds its scaled mass to the overlay edges
    # routed through it.
    kill = instance.kill_sets
    w = dict.fromkeys(instance.overlay_edges, 1)
    for g, v in y.items():
        x = v.numerator * (scale // v.denominator) * n
        for f in kill.get(g, ()):
            w[f] += x

    # Dijkstra from t; dist[v] = cheapest (v,t) overlay distance.
    dist: dict[str, int] = {t: 0}
    heap = [(0, t)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in instance.h_neighbors(u):
            nd = d + w[edge_key(u, v)]
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    if s not in dist or dist[s] >= scale * n:
        return None

    # dist falls strictly along every tight edge, so the walk ends at t.
    path = [s]
    while path[-1] != t:
        u = path[-1]
        tight = (v for v in instance.h_neighbors(u) if w[edge_key(u, v)] + dist[v] == dist[u])
        path.append(next(tight))
    return tuple(path)


def fdc_pair(instance: Instance, s: str, t: str) -> FlowResult:
    """Exact flow value between two peers with primal/dual certificates."""
    # The first column is the oracle's path under a zero dual: the
    # lexicographically first fewest-hop path.
    violated = separation_oracle(instance, s, t, {})
    if violated is None:
        return FlowResult(ZERO, {}, {}, [])

    # Fix the row set once so the program only ever grows by columns and the
    # solver can warm-start from the previous optimal basis.
    row_edges = list(instance.kill_sets)
    row_index = {e: i for i, e in enumerate(row_edges)}
    lp = PackingSimplex(len(row_edges))

    generated: list[Path] = []
    while violated is not None:
        assert violated not in generated, "oracle returned an already generated path"
        generated.append(violated)
        image = route_image(instance, violated)
        lp.add_column({row_index[e]: mult for e, mult in image.items()})
        lp.solve()
        value, x, y_rows = lp.solution()
        y = {e: y_rows[i] for e, i in row_index.items() if y_rows[i] != 0}
        violated = separation_oracle(instance, s, t, y)
    primal = {p: x[j] for j, p in enumerate(generated) if x[j] != 0}
    return FlowResult(value, primal, y, generated)
