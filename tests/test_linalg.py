import random
from fractions import Fraction

import pytest

from ncdef.linalg import nullspace


def test_nullspace_simple():
    # x + y = 0 over 2 columns -> one-dimensional nullspace spanned by (1, -1)
    ns = nullspace([[Fraction(1), Fraction(1)]], 2)
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
        rows = [
            [Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)
        ]
        ns = nullspace(rows, n)
        r = rank(rows)
        assert len(ns) == n - r
        for v in ns:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0
        # nullspace vectors are independent
        assert rank(ns) == len(ns)
