import random
from fractions import Fraction

import pytest

from ncdef.linalg import nullspace
from oracle import dense_nullspace


def test_nullspace_simple():
    # x + y = 0 over 2 columns -> one-dimensional nullspace spanned by (1, -1)
    ns = nullspace([{0: 1, 1: 1}], 2)
    assert len(ns) == 1
    v = ns[0]
    assert v[0] + v[1] == 0 and (v[0], v[1]) != (0, 0)


def test_nullspace_orthogonal_to_rows_randomized():
    sympy = pytest.importorskip("sympy")

    def rank(rows):
        return sympy.Matrix(rows).rank()

    rng = random.Random(7)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        rows = [{c: rng.randint(-3, 3) for c in range(n) if rng.random() < 0.7}
                for _ in range(m)]
        dense = [[r.get(c, 0) for c in range(n)] for r in rows]
        ns = nullspace(rows, n)
        r = rank(dense)
        assert len(ns) == n - r
        for v in ns:
            for row in dense:
                assert sum(a * b for a, b in zip(row, v)) == 0
        # nullspace vectors are independent
        assert rank(ns) == len(ns)


@pytest.mark.parametrize("rows, ncols, expected", [
    ([], 0, []),  # nothing at all
    ([], 2, [[1, 0], [0, 1]]),  # no rows: the identity basis
    ([{}, {0: 0}], 2, [[1, 0], [0, 1]]),  # zero rows, one of them stated
    ([{0: 2, 1: -4}, {0: 2, 1: -4}, {0: -1, 1: 2}], 2, [[2, 1]]),  # duplicates
    ([{0: 1, 2: 1}], 3, [[0, 1, 0], [-1, 0, 1]]),  # column 1 unused by any row
    ([{1: 3, 2: 6}, {0: 2, 1: 1}], 3, [[1, -2, 1]]),  # pivots out of row order
])
def test_nullspace_edge_cases(rows, ncols, expected):
    ns = nullspace(rows, ncols)
    assert ns == [[Fraction(x) for x in v] for v in expected]
    assert ns == dense_nullspace(rows, ncols)


def test_nullspace_matches_dense_oracle():
    """The sparse integer elimination gives the very vectors of Gauss-Jordan
    elimination on the same matrix in dense ``Fraction`` rows."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def matrices(draw):
        ncols = draw(st.integers(0, 8))
        cols = st.integers(0, ncols - 1) if ncols else st.nothing()
        rows = draw(st.lists(st.dictionaries(cols, st.integers(-4, 4)), max_size=7))
        return rows, ncols

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(matrices())
    def check(matrix):
        rows, ncols = matrix
        assert nullspace(rows, ncols) == dense_nullspace(rows, ncols)

    check()
