"""Exact (exponential-time, desk-scale) oracles for the cut and packing
parameters.

These double as first-class features and as ground truth for property tests.
Budgets are hard guards: the searches fail loudly instead of approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count

from .errors import BudgetExceededError, ValidationError
from .fdc import fdc_pair
from .model import (
    Edge,
    Instance,
    Path,
    _simply_implemented,
    check_pair,
    enumerate_simple_paths,
    peer_pairs,
    shortest_path,
)

DEFAULT_CUT_BUDGET = 1 << 20
DEFAULT_PACKING_BUDGET = 1_000_000


@dataclass
class CutCertificate:
    """A set of G-edges whose removal disconnects s from t in the overlay."""

    edges: frozenset[Edge]

    def validate(self, instance: Instance, s: str, t: str) -> None:
        check_pair(instance, s, t)
        # A key that is no G-edge, or a reversed one, fails nothing.
        failed = sum(instance.edge_bits.get(e, 0) for e in self.edges)
        if _survivor(instance, failed, s, t) is not None:
            raise ValidationError("cut certificate does not disconnect the pair")


@dataclass
class PathPacking:
    """Overlay (s,t)-paths with pairwise disjoint image supports."""

    paths: list[Path]

    def validate(
        self, instance: Instance, s: str, t: str, simple_only: bool = False
    ) -> None:
        check_pair(instance, s, t, self.paths)
        used = 0
        for p, image in zip(self.paths, _image_masks(instance, self.paths)):
            if used & image:
                raise ValidationError("packing images intersect")
            if simple_only and not _simply_implemented(instance, p):
                raise ValidationError("packing path is not simply implemented")
            used |= image


def _survivor(instance: Instance, failed: int, s: str, t: str) -> Path | None:
    """The overlay (s,t)-path that survives the failure of the G-edges in
    the mask ``failed`` over ``instance.edge_bits``, the lexicographically
    first fewest-hop one; None when the failure disconnects the pair.
    """
    hops = instance.numbered_overlay[1]
    return shortest_path(hops, instance.support_masks, s, t, failed)


def _seed_paths(instance: Instance, s: str, t: str):
    """Yield the paths of ``seed_packing`` one at a time, each found only
    when it is asked for; the pair is not checked.
    """
    failed = 0
    while (path := _survivor(instance, failed, s, t)) is not None:
        yield path
        failed |= _image_masks(instance, [path])[0]


def seed_packing(instance: Instance, s: str, t: str) -> list[Path]:
    """Overlay (s,t)-paths with pairwise disjoint images, found greedily.

    Each path is the lexicographically first fewest-hop overlay (s,t)-path
    that survives the failure of the earlier paths' images: the failure is
    one G-edge mask, and each path ORs its image mask into it.  So every
    cut needs one G-edge per seed path.  The seed's size bounds ERDC and
    PDDC from below, and its simply implemented paths bound SPDDC and FDC.
    The paths are those of ``_seed_paths``, which ``all_pairs`` pulls only
    as far as its bounds need.
    """
    check_pair(instance, s, t)
    return list(_seed_paths(instance, s, t))


def erdc_pair(
    instance: Instance, s: str, t: str, budget: int = DEFAULT_CUT_BUDGET
) -> tuple[int, CutCertificate]:
    """Minimum number of G-edges whose removal disconnects s from t in H.

    The candidates are ``instance.cut_candidates``, one G-edge per distinct
    kill set (the overlay edges routed through it), and subsets of them are
    enumerated by increasing size in lexicographic order, so the cut
    returned is the lexicographically first minimum cut.

    The search keeps a family of overlay (s,t)-paths, each candidate holding
    an int mask of the family paths it kills.  A subset whose masks do not
    cover the family leaves a known path alive and skips the BFS; a subset
    that covers it but still leaves a path adds that path to the family (an
    implicit hitting set).  The family starts as ``seed_packing``, so no
    cut is smaller than the seed and the enumeration starts at its size.
    ``budget`` counts every subset enumerated from that size on, whether or
    not it reached the BFS.
    """
    seed = seed_packing(instance, s, t)
    candidates = instance.cut_candidates
    bits = [instance.edge_bits[e] for e in candidates]
    masks = [0] * len(candidates)
    family = 0  # one bit per known surviving path

    def learn(path: Path) -> None:
        """Give path a family bit and set it on the candidates that kill
        the path, those on its image.
        """
        nonlocal family
        bit = family + 1
        family |= bit
        image = _image_masks(instance, [path])[0]
        for c, b in enumerate(bits):
            if image & b:
                masks[c] |= bit

    for path in seed:
        learn(path)
    lower = len(seed)
    if lower == 0:
        return 0, CutCertificate(frozenset())

    explored = 0
    for size in range(lower, len(candidates) + 1):
        for subset in combinations(range(len(candidates)), size):
            explored += 1
            if explored > budget:
                raise BudgetExceededError(
                    f"cut search exceeded budget of {budget} subsets"
                )
            hit = 0
            for c in subset:
                hit |= masks[c]
            if hit != family:
                continue
            path = _survivor(instance, sum(bits[c] for c in subset), s, t)
            if path is None:
                return size, CutCertificate(frozenset(candidates[c] for c in subset))
            learn(path)
    raise AssertionError("removing every routed edge must disconnect the pair")


def _max_packing(
    masks: list[int], s_edges: int, t_edges: int, budget: int
) -> list[int]:
    """Exact maximum set packing by lexicographic branch and bound.

    ``masks`` are int bitmasks of the sets; every set must meet both
    ``s_edges`` and ``t_edges``.  An explicit-stack depth-first search tries
    including each set before excluding it, and replaces its incumbent only
    by a strictly larger packing, so it returns the lexicographically first
    maximum packing as a list of indexes.  A node is pruned when even
    ``min(sets left, free s-edges left, free t-edges left)`` more sets
    cannot beat the incumbent: pairwise disjoint sets need distinct s-edges
    and distinct t-edges.  ``budget`` counts the nodes of the pruned tree.
    """
    n = len(masks)
    # The s-edges and t-edges that the sets from index i on still offer.
    s_left = [0] * (n + 1)
    t_left = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        s_left[i] = s_left[i + 1] | (masks[i] & s_edges)
        t_left[i] = t_left[i + 1] | (masks[i] & t_edges)
    best, best_size = 0, 0
    nodes = 0
    stack = [(0, 0, 0, 0)]  # (index, used elements, chosen sets, their count)
    while stack:
        idx, used, chosen, size = stack.pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"packing search exceeded budget of {budget} nodes"
            )
        if size > best_size:
            best, best_size = chosen, size
        if idx == n:
            continue
        free = ~used
        room = min(
            n - idx, (s_left[idx] & free).bit_count(), (t_left[idx] & free).bit_count()
        )
        if size + room <= best_size:
            continue
        stack.append((idx + 1, used, chosen, size))
        if not masks[idx] & used:
            stack.append((idx + 1, used | masks[idx], chosen | 1 << idx, size + 1))
    return [i for i in range(n) if best >> i & 1]


def _packing(
    instance: Instance, s: str, t: str, walk_simple: bool, budget: int
) -> tuple[int, PathPacking]:
    """Maximum packing of overlay (s,t)-paths with pairwise disjoint images,
    among the paths ``enumerate_simple_paths`` lists with ``walk_simple``.

    Each image support is an int mask over G-edges, the union of the route
    support masks of the path's hops.
    """
    paths = enumerate_simple_paths(instance, s, t, walk_simple=walk_simple)
    chosen = _max_packing(
        _image_masks(instance, paths),
        sum(bit for e, bit in instance.edge_bits.items() if s in e),
        sum(bit for e, bit in instance.edge_bits.items() if t in e),
        budget,
    )
    return len(chosen), PathPacking([paths[i] for i in chosen])


def _image_masks(instance: Instance, paths: list[Path]) -> list[int]:
    """The image support of each path as a mask over ``instance.edge_bits``."""
    number = instance.numbered_overlay[0]
    hop = instance.support_masks
    masks = []
    for path in paths:
        mask = 0
        for step in zip(path, path[1:]):
            mask |= hop[number[step]]
        masks.append(mask)
    return masks


def pddc_pair(
    instance: Instance,
    s: str,
    t: str,
    budget: int = DEFAULT_PACKING_BUDGET,
) -> tuple[int, PathPacking]:
    """Maximum number of overlay (s,t)-paths with pairwise disjoint images."""
    return _packing(instance, s, t, False, budget)


def spddc_pair(
    instance: Instance,
    s: str,
    t: str,
    budget: int = DEFAULT_PACKING_BUDGET,
) -> tuple[int, PathPacking]:
    """As pddc_pair, restricted to paths whose concatenated walk is simple."""
    return _packing(instance, s, t, True, budget)


_PAIR_OPS = {
    "fdc": fdc_pair,
    "erdc": erdc_pair,
    "pddc": pddc_pair,
    "spddc": spddc_pair,
}


def pair_parameter(instance: Instance, which: str, s: str, t: str, **kwargs):
    """(value, certificate) of one parameter for one pair.

    The certificate of "fdc" is its FlowResult.
    """
    result = _PAIR_OPS[which](instance, s, t, **kwargs)
    return (result.value, result) if which == "fdc" else result


def all_pairs(instance: Instance, which: str, **kwargs):
    """Minimum over unordered peer pairs; lexicographically smallest argmin.

    Each pair's seed (``_seed_paths``) bounds its value from below: the
    seed's size for "erdc" and "pddc", its simply implemented paths for
    "spddc" and "fdc".  The bounds grow level by level.  At level k = 0, 1,
    2, ... the pending pairs are visited in ``peer_pairs`` order, each with
    k counted seed paths pulled so far; the search ends at the first whose
    (k, pair) exceeds the best (value, pair) found, which no pair left can
    then beat.  Otherwise one more counted path is pulled: if the seed has
    run out, the pair's bound is k and it is searched, else its bound
    exceeds k and it waits for the next level.  So the pairs searched, and
    their order, are those of sorting every pair by (bound, pair), but a
    pair that is never searched never finishes its seed.  A budget in
    ``kwargs`` bounds each pair search on its own, and a skipped pair runs
    none.
    """
    pending = {}
    for pair in peer_pairs(instance):
        seed = _seed_paths(instance, *pair)
        if which in ("spddc", "fdc"):
            seed = (p for p in seed if _simply_implemented(instance, p))
        pending[pair] = seed

    best = None
    for k in count():
        if not pending:
            return best
        for pair, counted in list(pending.items()):
            if best is not None and (k, pair) > best[:2]:
                return best
            if next(counted, None) is None:
                del pending[pair]
                value, witness = pair_parameter(instance, which, *pair, **kwargs)
                if best is None or (value, pair) < best[:2]:
                    best = (value, pair, witness)
