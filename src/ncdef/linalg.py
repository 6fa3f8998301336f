"""Exact linear algebra over the rationals: nullspaces of sparse integer
matrices by fraction-free elimination."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable


def nullspace(rows: Iterable[dict[int, int]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace of the matrix over columns 0..ncols-1
    whose rows are ``{column: int}`` maps; a missing column is a zero.

    Each row is reduced in the integers against the pivot rows kept so far,
    lowest column first, until its lowest column is no pivot's; it is then
    kept, divided by its content, with that column as its pivot.  These are
    the pivot columns of the reduced row echelon form, which the row space
    determines, so the basis is unique: one vector per free column, 1 there
    and 0 at every other free column, its pivot coordinates back-solved in
    ``Fraction``s.  Gauss-Jordan elimination reads off the same basis."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            p = min(row)
            piv = pivots.get(p)
            if piv is None:
                g = gcd(*row.values())
                pivots[p] = {c: v // g for c, v in row.items()}
                break
            g = gcd(piv[p], row[p])
            a, b = piv[p] // g, row[p] // g
            row = {c: a * v for c, v in row.items()}
            for c, v in piv.items():
                if nv := row.get(c, 0) - b * v:
                    row[c] = nv
                else:
                    row.pop(c, None)
    back, basis = sorted(pivots.items(), reverse=True), []
    for free in (c for c in range(ncols) if c not in pivots):
        x = {free: Fraction(1)}
        for p, piv in back:
            if s := sum(v * x[c] for c, v in piv.items() if c in x):
                x[p] = -s / piv[p]
        basis.append([x.get(c, Fraction(0)) for c in range(ncols)])
    return basis
