"""Exact-pivot simplex for packing LPs: max sum(x) s.t. A x <= 1, x >= 0.

The tableau is fraction-free: every entry and every reduced cost is a
Python ``int`` numerator over one shared positive denominator ``d``, which
starts at 1.  A pivot on element ``p`` maps each entry ``v`` of a non-pivot
row to ``(v*p - f*w) // d``, where ``f`` is the row's entry in the pivot
column and ``w`` the pivot row's entry in the same column, and then sets
``d = p`` (the Edmonds/Bareiss integer-preserving pivot; the division is
exact).  ``duals`` reads the dual as integers over ``d``; only ``solution``
builds ``fractions.Fraction`` values, and column generation calls it once,
after its last round.

Bland's rule guarantees termination on degenerate instances.  The dual
vector is read off the optimal tableau from the slack columns, so the
returned (x, y) pair satisfies strong duality exactly.

PackingSimplex supports adding columns to an already solved program: the
old basis stays primal-feasible, so re-optimizing after a column arrives
takes only a handful of pivots.  This is the workhorse of the column
generation loop.

Rows are stored on first touch.  A row no column touches stays ``d * e_k``
with right-hand side ``d`` under every pivot: its entry in every structural
column and every other slack column is 0, so it never enters the ratio
test, and its slack's reduced cost stays 0, so that slack never enters.
The tableau therefore starts with no rows and appends row k, as ``d * e_k``
with right-hand side ``d``, when a column first gives it a nonzero
coefficient.  The slack block stays ``n_rows`` wide in global row order and
the basis labels stay global, so Bland's rule makes the choices of the
tableau that stores every row, and ``duals`` and ``solution`` still give a
dual for each of the ``n_rows`` rows, 0 for an untouched one.
"""

from __future__ import annotations

from fractions import Fraction


class PackingSimplex:
    """Incremental tableau for max sum(x) s.t. A x <= 1, x >= 0.

    Column layout: the ``n_rows`` slack columns come first, structural
    columns follow in insertion order, and the rightmost entry of each row
    is the constraint value.  Entries are integers over the shared
    denominator ``d``; the slack block holds ``d`` times the basis inverse,
    which is what lets new raw columns be reduced on arrival.  ``basis[i]``
    labels the basic variable of stored row i: slack k is k, structural j
    is ``n_rows + j``.
    """

    def __init__(self, n_rows: int):
        self.n_rows = n_rows
        self.n_cols = 0
        self.d = 1
        # The stored rows, in order of first touch, and their global indices.
        self.rows: list[list[int]] = []
        self.touched: set[int] = set()
        # Reduced costs per column plus the negated objective value.
        self.cost = [0] * (n_rows + 1)
        self.basis: list[int] = []

    def add_column(self, column: dict[int, int]) -> None:
        """Append a structural column with objective coefficient 1.

        ``column`` maps row index -> nonnegative integer coefficient; a row
        it is the first to touch is stored first.
        """
        support = [(k, c) for k, c in column.items() if c]
        for k, _ in support:
            if k not in self.touched:
                self.touched.add(k)
                row = [0] * (self.n_rows + self.n_cols + 1)
                row[k] = row[-1] = self.d
                self.rows.append(row)
                self.basis.append(k)
        for row in self.rows:
            row.insert(-1, sum(row[k] * c for k, c in support))
        # Reduced cost d * (1 - y . a), with y_k = -cost[slack_k] / d.
        cost = self.cost
        cost.insert(-1, self.d + sum(cost[k] * c for k, c in support))
        self.n_cols += 1

    def solve(self) -> None:
        """Pivot to optimality (Bland's rule on the current column order)."""
        rows, cost, basis = self.rows, self.cost, self.basis
        width = self.n_rows + self.n_cols
        while True:
            enter = next((j for j in range(width) if cost[j] > 0), None)
            if enter is None:
                return
            # Bland: leaving variable of smallest index among tied min ratios.
            # Ratios b_i / a_i share the denominator d, so compare the
            # numerators crosswise: b_i / a_i < b_j / a_j iff b_i a_j < b_j a_i.
            leave_row = None
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    if leave_row is None:
                        leave_row, best_a, best_b = i, a, row[-1]
                        continue
                    lhs, rhs = row[-1] * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave_row]):
                        leave_row, best_a, best_b = i, a, row[-1]
            if leave_row is None:
                raise ArithmeticError("packing LP unbounded; column has no support")
            self._pivot(leave_row, enter)
            basis[leave_row] = enter

    def duals(self) -> tuple[list[int], int]:
        """(numerator per row, d): y_k = -cost[slack_k] / d, each numerator
        nonnegative at optimality.
        """
        return [-c for c in self.cost[: self.n_rows]], self.d

    def solution(self):
        """(value, x per structural column, y per row), all exact Fractions."""
        d = self.d
        x = [Fraction(0)] * self.n_cols
        for i, var in enumerate(self.basis):
            if var >= self.n_rows:
                x[var - self.n_rows] = Fraction(self.rows[i][-1], d)
        y = [Fraction(-self.cost[i], d) for i in range(self.n_rows)]
        return Fraction(-self.cost[-1], d), x, y

    def _pivot(self, pr: int, pc: int) -> None:
        rows, d = self.rows, self.d
        pivot_row = rows[pr]
        p = pivot_row[pc]
        for i, row in enumerate(rows):
            if i != pr:
                rows[i] = _eliminate(row, pivot_row, row[pc], p, d)
        cost = self.cost
        cost[:] = _eliminate(cost, pivot_row, cost[pc], p, d)
        self.d = p


def _eliminate(row: list[int], pivot_row: list[int], f: int, p: int, d: int) -> list[int]:
    """One fraction-free row update: (v*p - f*w) // d, entry by entry."""
    if not f:
        if p == d:
            return row
        return [v * p // d for v in row]
    return [(v * p - f * w) // d for v, w in zip(row, pivot_row)]
