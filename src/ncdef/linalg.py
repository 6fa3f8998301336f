"""Exact linear algebra over the rationals.

Small dense/sparse routines used for span computations (row spaces keyed by an
arbitrary orderable "pivot" label) and nullspaces of dense Fraction matrices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable


class RowSpace:
    """Incremental row space of sparse vectors over Q.

    Vectors are dicts mapping pivot labels to nonzero Fractions.  A key
    function picks the pivot (the largest label under ``key``).  Supports
    rank queries and membership tests.
    """

    def __init__(self, key=None):
        self._key = key or (lambda x: x)
        self._rows: dict[Hashable, dict] = {}  # pivot -> reduced row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _eliminate(self, vec: dict) -> dict:
        vec = dict(vec)
        while vec:
            piv = max(vec, key=self._key)
            row = self._rows.get(piv)
            if row is None:
                return vec
            factor = vec[piv] / row[piv]
            for lab, c in row.items():
                new = vec.get(lab, Fraction(0)) - factor * c
                if new:
                    vec[lab] = new
                else:
                    vec.pop(lab, None)
        return vec

    def add(self, vec: dict) -> bool:
        """Insert a vector; return True if it enlarged the space."""
        rem = self._eliminate(vec)
        if not rem:
            return False
        piv = max(rem, key=self._key)
        self._rows[piv] = rem
        return True

    def contains(self, vec: dict) -> bool:
        return not self._eliminate(vec)


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace of the matrix given by ``rows``."""
    # Gauss-Jordan to reduced row echelon form.
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -mat[ri][fc]
        basis.append(vec)
    return basis


def rank(rows: Iterable[list[Fraction]]) -> int:
    space = RowSpace()
    rk = 0
    for row in rows:
        vec = {i: c for i, c in enumerate(row) if c}
        if space.add(vec):
            rk += 1
    return rk
