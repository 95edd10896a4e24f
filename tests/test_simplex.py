from fractions import Fraction

from brute_force import DensePackingSimplex
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deepconn.simplex import PackingSimplex


@st.composite
def packing_batches(draw):
    """(n_rows, columns split into batches); every column has a nonzero entry."""
    n_rows = draw(st.integers(1, 8))
    column = st.lists(st.integers(0, 3), min_size=n_rows, max_size=n_rows).filter(any)
    batches = draw(st.lists(st.lists(column, min_size=1, max_size=4), min_size=1, max_size=4))
    return n_rows, [[dict(enumerate(col)) for col in batch] for batch in batches]


@st.composite
def sparse_batches(draw):
    """(n_rows, batches of sparse columns).  Batch b touches only the first
    reach_b rows of a random row order, reach growing batch by batch, so
    rows first appear in later batches, often below rows already present,
    and some rows may stay untouched.
    """
    n_rows = draw(st.integers(1, 8))
    order = draw(st.permutations(range(n_rows)))
    reach = sorted(draw(st.lists(st.integers(1, n_rows), min_size=1, max_size=4)))
    batches = []
    for r in reach:
        column = st.dictionaries(
            st.sampled_from(order[:r]), st.integers(0, 3), min_size=1, max_size=3
        ).filter(lambda col: any(col.values()))
        batches.append(draw(st.lists(column, min_size=1, max_size=4)))
    return n_rows, batches


def recording(cls):
    """cls, recording each pivot as (entering column, leaving label)."""

    class Recording(cls):
        def __init__(self, n_rows):
            super().__init__(n_rows)
            self.pivots = []

        def _pivot(self, pr, pc):
            self.pivots.append((pc, self.basis[pr]))
            super()._pivot(pr, pc)

    return Recording


def assert_optimal(lp, columns):
    """Primal and dual feasibility plus equal objectives, all in Fractions."""
    value, x, y = lp.solution()
    assert all(type(q) is Fraction for q in [value, *x, *y])
    assert len(x) == len(columns) and len(y) == lp.n_rows
    assert all(q >= 0 for q in x) and all(q >= 0 for q in y)
    for i in range(lp.n_rows):
        assert sum(col[i] * xj for col, xj in zip(columns, x)) <= 1
    for col in columns:
        assert sum(col[i] * y[i] for i in range(lp.n_rows)) >= 1
    assert sum(x) == sum(y) == value


def solve_from_scratch(n_rows, columns):
    lp = PackingSimplex(n_rows)
    for col in columns:
        lp.add_column(col)
    lp.solve()
    return lp


@settings(max_examples=150, deadline=None)
@given(packing_batches())
def test_warm_started_solves_are_optimal(case):
    n_rows, batches = case
    lp = PackingSimplex(n_rows)
    columns = []
    for batch in batches:
        for col in batch:
            lp.add_column(col)
        columns.extend(batch)
        lp.solve()
        assert_optimal(lp, columns)
        assert lp.solution()[0] == solve_from_scratch(n_rows, columns).solution()[0]
        nums, d = lp.duals()
        assert all(num >= 0 for num in nums)
        assert [Fraction(num, d) for num in nums] == lp.solution()[2]


@settings(max_examples=300, deadline=None)
@given(sparse_batches())
@example((5, [[{3: 1}, {4: 2, 3: 1}], [{0: 1, 2: 0}, {1: 2, 4: 1}], [{0: 3, 3: 1}]]))
def test_pivots_and_duals_match_the_dense_tableau(case):
    n_rows, batches = case
    lp, dense = recording(PackingSimplex)(n_rows), recording(DensePackingSimplex)(n_rows)
    touched = set()
    for batch in batches:
        for col in batch:
            lp.add_column(col)
            dense.add_column(col)
            touched.update(k for k, c in col.items() if c)
        lp.solve()
        dense.solve()
        assert lp.pivots == dense.pivots
        assert lp.duals() == dense.duals()
        assert lp.solution() == dense.solution()
        assert len(lp.rows) == len(touched)


def test_untouched_rows_are_not_stored():
    lp = PackingSimplex(6)
    for col in ({1: 1, 4: 2}, {4: 1}, {1: 2, 3: 0}):
        lp.add_column(col)
    lp.solve()
    assert len(lp.rows) == 2
    untouched = (0, 2, 3, 5)
    nums, d = lp.duals()
    assert len(nums) == 6 and [nums[k] for k in untouched] == [0, 0, 0, 0]
    value, x, y = lp.solution()
    assert value == Fraction(3, 2) and x == [0, 1, Fraction(1, 2)]
    assert len(y) == 6 and [y[k] for k in untouched] == [Fraction(0)] * 4
    assert y[1] + y[4] == value


class CountingSimplex(PackingSimplex):
    degenerate_pivots = 0

    def _pivot(self, pr, pc):
        self.degenerate_pivots += self.rows[pr][-1] == 0
        super()._pivot(pr, pc)


def test_degenerate_instance_terminates():
    # Seven of this program's pivots leave a basic variable at value 0, the
    # situation in which a pivoting rule without Bland's tie-breaks can cycle.
    columns = [
        {0: 1, 1: 1, 2: 1, 3: 1},
        {0: 0, 1: 0, 2: 0, 3: 2},
        {0: 0, 1: 1, 2: 2, 3: 1},
        {0: 1, 1: 0, 2: 0, 3: 1},
        {0: 1, 1: 2, 2: 0, 3: 0},
        {0: 1, 1: 0, 2: 0, 3: 2},
        {0: 0, 1: 1, 2: 1, 3: 0},
    ]
    lp = CountingSimplex(4)
    for col in columns:
        lp.add_column(col)
    lp.solve()
    assert lp.degenerate_pivots == 7
    assert lp.solution()[0] == 2
    assert_optimal(lp, columns)


def test_tableau_stays_integral():
    lp = solve_from_scratch(3, [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}])
    assert lp.solution()[0] == Fraction(3, 2)
    assert lp.d > 0
    assert all(type(v) is int for row in [*lp.rows, lp.cost] for v in row)
