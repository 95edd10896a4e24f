"""Exhaustive reference oracles that only the tests use."""

from itertools import combinations

from deepconn.errors import BudgetExceededError, PreconditionError, ValidationError
from deepconn.gadgets import SetSystem
from deepconn.model import edge_key, peer_pairs
from deepconn.sparsifier import check_precondition, tracked_state


def brute_force_augment(instance, tree, budget: int = 200_000):
    """Minimum-cardinality superset of the tree with kappa zero; exhaustive."""
    ok, witness = check_precondition(instance)
    if not ok:
        raise PreconditionError(
            f"precondition ERDC(K_P) >= 2 violated at edge ({witness[0]},{witness[1]})",
            witness,
        )
    tree = frozenset(edge_key(*e) for e in tree)
    candidates = [p for p in peer_pairs(instance) if p not in tree]
    explored = 0
    for size in range(len(candidates) + 1):
        for extra in combinations(candidates, size):
            explored += 1
            if explored > budget:
                raise BudgetExceededError(
                    f"augmentation search exceeded budget of {budget} subsets"
                )
            overlay = tree | set(extra)
            if tracked_state(instance, overlay, tree).kappa == 0:
                return frozenset(overlay)
    raise AssertionError("complete peer graph must be feasible under the precondition")


def set_packing_brute_force(system: SetSystem, k: int, budget: int = 1_000_000) -> bool:
    """True iff k pairwise disjoint sets exist; exhaustive search."""
    if k < 1:
        raise ValidationError("k must be positive")
    explored = 0
    for combo in combinations(system.sets, k):
        explored += 1
        if explored > budget:
            raise BudgetExceededError(f"set packing search exceeded {budget} subsets")
        union = set()
        total = 0
        for s in combo:
            union |= s
            total += len(s)
        if len(union) == total:
            return True
    return False
