"""Flow parameter via LP column generation with a shortest-path pricing step.

The primal packs flow on images of overlay (s,t)-paths under unit underlying
capacities; the dual fractionally buys underlying edges so every image costs
at least 1.  Columns (paths) are generated by the separation routine: weight
each overlay edge by the dual mass of its route and look for an (s,t)-path of
weight below 1 in H.

``separation_oracle`` takes the dual as nonnegative integer numerators over
one positive common denominator.  ``fdc_pair`` passes the numerators read
from the tableau's cost row over its denominator d, a common multiple of
every reduced dual denominator; ``FlowResult.validate`` passes its Fraction
dual scaled by the lcm of the denominators.  Either way the oracle returns
the same path.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .model import Edge, Instance, Path, check_pair, route_image
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
            for u, v in zip(path, path[1:]):
                for e in instance.route_support(u, v):
                    load[e] = load.get(e, ZERO) + flow
        if any(v > 1 for v in load.values()):
            raise ValidationError("primal violates an edge capacity")
        if total != self.value or sum(self.dual.values(), ZERO) != self.value:
            raise ValidationError("primal/dual objectives differ from value")
        scale = math.lcm(*(q.denominator for q in self.dual.values()))
        y = {e: q.numerator * (scale // q.denominator) for e, q in self.dual.items()}
        if separation_oracle(instance, s, t, y, scale) is not None:
            raise ValidationError("dual infeasible over the full path space")


def separation_oracle(
    instance: Instance, s: str, t: str, y: dict[Edge, int], scale: int
) -> Path | None:
    """Return an overlay (s,t)-path whose image costs < 1 under the dual
    y/scale, if any.

    ``y`` maps G-edges to integer numerators over the one positive common
    denominator ``scale``; a negative numerator raises ValidationError.
    The returned path has minimum cost, then the fewest hops, and is then
    the lexicographically smallest in ``h_neighbors`` order.  An overlay
    edge whose route weighs w (numerators summed) gets the weight w·|P| + 1.
    A simple path has fewer than |P| hops, so the added ones sum to less
    than |P|: they never reorder paths of different cost, only break ties
    by hop count, and "costs < 1" becomes "weighs < scale·|P|".  Scaling y
    and scale by one factor k ≥ 1 multiplies every cost difference by k and
    keeps the hops below |P|, so any common denominator returns the same
    path.  Every weight is positive, so the tight edges (those on a
    shortest path to t) form a DAG.  One Dijkstra from t, then a walk from
    s that takes the first tight neighbour at each step, yields the path;
    it is simple with no search.
    """
    check_pair(instance, s, t)
    if any(v < 0 for v in y.values()):
        raise ValidationError("dual weights must be nonnegative")
    if scale < 1:
        raise ValidationError("dual scale must be positive")
    n = len(instance.peers)
    # Each G-edge g in y's support adds its mass to the overlay edges routed
    # through it.
    number, hops = instance.numbered_overlay
    kill = instance.kill_sets
    w = [1] * len(instance.overlay_edges)
    for g, v in y.items():
        x = v * n
        for f in kill.get(g, ()):
            w[number[f]] += x

    # Dijkstra from t; dist[v] = cheapest (v,t) overlay distance.
    dist: dict[str, int] = {t: 0}
    heap = [(0, t)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue  # u was reached more cheaply since this entry was pushed
        for v, f in hops[u]:
            nd = d + w[f]
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    if s not in dist or dist[s] >= scale * n:
        return None

    # dist falls strictly along every tight edge, so the walk ends at t.
    path = [s]
    while path[-1] != t:
        u = path[-1]
        path.append(next(v for v, f in hops[u] if w[f] + dist[v] == dist[u]))
    return tuple(path)


def fdc_pair(instance: Instance, s: str, t: str) -> FlowResult:
    """Exact flow value between two peers with primal/dual certificates.

    Each round prices the dual as integers over the tableau's denominator;
    Fractions are built once, from the last round's solution.
    """
    # The first column is the oracle's path under a zero dual: the
    # lexicographically first fewest-hop path.  With no overlay path no
    # round runs, and the LP's solution with no columns is the zero flow.
    violated = separation_oracle(instance, s, t, {}, 1)

    # Fix the row set once so the program only ever grows by columns and the
    # solver can warm-start from the previous optimal basis.  One row per
    # kill-set class, the G-edges ERDC searches: a G-edge with the same kill
    # set as its class head carries the same overlay edges, so its row would
    # copy the head's in every column, keep its slack basic at 0 and never
    # be the pivot row.
    row_edges = instance.cut_candidates
    row_index = {e: i for i, e in enumerate(row_edges)}
    lp = PackingSimplex(len(row_edges))

    generated: list[Path] = []
    while violated is not None:
        assert violated not in generated, "oracle returned an already generated path"
        generated.append(violated)
        image = route_image(instance, violated)
        lp.add_column({row_index[e]: m for e, m in image.items() if e in row_index})
        lp.solve()
        nums, d = lp.duals()
        y = {e: v for e, v in zip(row_edges, nums) if v}
        violated = separation_oracle(instance, s, t, y, d)
    value, x, y_rows = lp.solution()
    primal = {p: x[j] for j, p in enumerate(generated) if x[j] != 0}
    dual = {e: q for e, q in zip(row_edges, y_rows) if q != 0}
    return FlowResult(value, primal, dual, generated)
