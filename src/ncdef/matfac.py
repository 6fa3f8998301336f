"""A rank-2 matrix factorization of a 7-variable quadric and its generators.

The hypersurface is ``F = x^2 + u*y^2 + 2v*y*z + w*z^2 + (uw - v^2)*t^2`` in
variables (x, y, z, t, u, v, w).  ``PHI = x*I - XI`` and ``PSI = x*I + XI``
satisfy ``PHI @ PSI = PSI @ PHI = F*I``, so the cokernel of PHI is a rank-2
maximally Cohen-Macaulay module on the hypersurface.  The module carries two
endomorphisms ``A_MAT``, ``B_MAT`` and maps ``C_MAT`` (to the structure
sheaf) and ``D_MAT`` (from it); the identity suites verify the quadratic
relations among them and the congruences expressing x, y, z modulo the image
of PHI.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .commpoly import CommPoly, divexact, partials, substitute, varset
from .ncgb import InternalConsistencyError

SVARS = varset("x", "y", "z", "t", "u", "v", "w")

_x = CommPoly.variable(SVARS, "x")
_y = CommPoly.variable(SVARS, "y")
_z = CommPoly.variable(SVARS, "z")
_t = CommPoly.variable(SVARS, "t")
_u = CommPoly.variable(SVARS, "u")
_v = CommPoly.variable(SVARS, "v")
_w = CommPoly.variable(SVARS, "w")
_0 = CommPoly.zero(SVARS)
_1 = CommPoly.const(SVARS, 1)

F_POLY = (
    _x * _x
    + _u * _y * _y
    + (_v * _y * _z).scale(2)
    + _w * _z * _z
    + (_u * _w - _v * _v) * _t * _t
)


class PolyMatrix:
    """Dense matrix with polynomial entries; ``@`` is matrix product."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[CommPoly]]):
        self.rows = tuple(tuple(r) for r in rows)
        if not self.rows or any(len(r) != len(self.rows[0]) for r in self.rows):
            raise ValueError("rows must be non-empty and rectangular")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    @staticmethod
    def identity(n: int, scalar: CommPoly = _1) -> "PolyMatrix":
        return PolyMatrix(
            [[scalar if i == j else _0 for j in range(n)] for i in range(n)]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return PolyMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix([[-a for a in r] for r in self.rows])

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-other)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        m, k = self.shape
        k2, n = other.shape
        if k != k2:
            raise ValueError("shape mismatch")
        out = []
        for i in range(m):
            row = []
            for j in range(n):
                s = _0
                for p in range(k):
                    s = s + self.rows[i][p] * other.rows[p][j]
                row.append(s)
            out.append(row)
        return PolyMatrix(out)

    def scale(self, c: CommPoly) -> "PolyMatrix":
        return PolyMatrix([[c * a for a in r] for r in self.rows])

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.rows for a in r)

    def __repr__(self) -> str:
        return f"PolyMatrix({self.shape[0]}x{self.shape[1]})"


XI = PolyMatrix([
    [-_v * _t, _y, _z, _t],
    [-_u * _y - (_v * _z).scale(2), _v * _t, -_u * _t, _z],
    [-_w * _z, _w * _t, -_v * _t, -_y],
    [-_u * _w * _t, -_w * _z, _u * _y + (_v * _z).scale(2), _v * _t],
])

PHI = PolyMatrix.identity(4, _x) - XI
PSI = PolyMatrix.identity(4, _x) + XI

A_MAT = PolyMatrix([
    [_0, _1, _0, _0],
    [-_u, _0, _0, _0],
    [-_v.scale(2), _0, _0, _1],
    [_0, _v.scale(2), -_u, _0],
])

B_MAT = PolyMatrix([
    [_0, _0, _1, _0],
    [_0, _0, _0, -_1],
    [-_w, _0, _0, _0],
    [_0, _w, _0, _0],
])

C_MAT = PolyMatrix([[_x - _v * _t, _y, _z, _t]])

D_MAT = PolyMatrix([[_0], [_0], [_0], [_1]])


def mf_verify() -> bool:
    """Check PHI @ PSI = PSI @ PHI = F * identity."""
    fid = PolyMatrix.identity(4, F_POLY)
    return PHI @ PSI == fid and PSI @ PHI == fid


def cofactor(mat: PolyMatrix) -> Optional[PolyMatrix]:
    """Return G with mat = PHI @ G when the columns of ``mat`` lie in the
    column space of PHI over the polynomial ring, else None.

    Since PSI @ PHI = F*I, such a G exists exactly when every entry of
    PSI @ mat is divisible by F, and then G = (PSI @ mat) / F.
    """
    prod = PSI @ mat
    rows = []
    for r in prod.rows:
        row = []
        for e in r:
            if e.is_zero():
                row.append(_0)
                continue
            q = divexact(e, F_POLY)
            if q is None:
                return None
            row.append(q)
        rows.append(row)
    return PolyMatrix(rows)


def in_image(mat: PolyMatrix) -> bool:
    """Whether ``mat`` is congruent to 0 modulo the column space of PHI."""
    g = cofactor(mat)
    if g is None:
        return False
    if not (PHI @ g == mat):  # re-derive the membership from the witness
        raise InternalConsistencyError("cofactor witness failed to reproduce the matrix")
    return True


def matrix_identity_suite() -> dict[str, bool]:
    """Quadratic matrix identities among the module endomorphisms, the scalar
    composites through the rank-one maps c, d, and exact commutation with the
    factorization matrix."""
    ad = A_MAT @ D_MAT
    bd = B_MAT @ D_MAT
    return {
        "a_squared_is_minus_u": A_MAT @ A_MAT == PolyMatrix.identity(4, -_u),
        "b_squared_is_minus_w": B_MAT @ B_MAT == PolyMatrix.identity(4, -_w),
        "ab_plus_ba_is_minus_2v": (
            A_MAT @ B_MAT + B_MAT @ A_MAT == PolyMatrix.identity(4, -_v.scale(2))
        ),
        "cd_is_t": (C_MAT @ D_MAT).rows[0][0] == _t,
        "cad_is_z": (C_MAT @ ad).rows[0][0] == _z,
        "cbd_is_minus_y": (C_MAT @ bd).rows[0][0] == -_y,
        "cbad_is_x_minus_vt": (C_MAT @ (B_MAT @ ad)).rows[0][0] == _x - _v * _t,
        "a_commutes_with_phi": A_MAT @ PHI == PHI @ A_MAT,
        "b_commutes_with_phi": B_MAT @ PHI == PHI @ B_MAT,
        "c_phi_divisible_by_F": all(
            e.is_zero() or divexact(e, F_POLY) is not None
            for e in (C_MAT @ PHI).rows[0]
        ),
    }


# Expected residuals of the three congruences below, written out entrywise.
_RESIDUAL_Y = PolyMatrix([
    [_y, _0, -_t, _0],
    [-_x + _v * _t, _0, -_z, _0],
    [_w * _t, _0, _y, _0],
    [-_w * _z, _0, _x - _v * _t, _0],
])

_RESIDUAL_Z = PolyMatrix([
    [_z, _t, _0, _0],
    [-_u * _t, _z, _0, _0],
    [-_x - _v * _t, -_y, _0, _0],
    [_u * _y + (_v * _z).scale(2), -_x + _v * _t, _0, _0],
])

_RESIDUAL_X = PolyMatrix([
    [_0, -_y, -_z, _0],
    [_0, _x - _v * _t, _u * _t, _0],
    [_0, -_w * _t, _x + _v * _t, _0],
    [_0, _w * _z, -_u * _y - (_v * _z).scale(2), _0],
])


def generator_identity_suite() -> dict[str, bool]:
    """Congruences modulo Im(PHI) identifying y, z, x with words in the
    generators; each is checked both against its expected entrywise residual
    and for actual membership in the image.

    The x congruence only holds with the two four-letter products taken in
    the order d@c@a@b and b@a@d@c; the suite also records that the opposite
    sign assignment fails membership ("x_swapped_products_in_image").
    """
    dc = D_MAT @ C_MAT  # rank-one square matrix
    r_y = (
        PolyMatrix.identity(4, _y)
        - B_MAT.scale(_t)
        + B_MAT @ dc
        + dc @ B_MAT
    )
    r_z = (
        PolyMatrix.identity(4, _z)
        + A_MAT.scale(_t)
        - A_MAT @ dc
        - dc @ A_MAT
    )
    ba = B_MAT @ A_MAT
    x_base = PolyMatrix.identity(4, _x + _v * _t) + ba.scale(_t)
    x_products = dc @ A_MAT @ B_MAT - ba @ dc
    r_x = x_base + x_products
    r_x_swapped = x_base - x_products
    return {
        "y_residual_matches": r_y == _RESIDUAL_Y,
        "y_in_image": in_image(r_y),
        "z_residual_matches": r_z == _RESIDUAL_Z,
        "z_in_image": in_image(r_z),
        "x_residual_matches": r_x == _RESIDUAL_X,
        "x_in_image": in_image(r_x),
        "x_swapped_products_in_image": cofactor(r_x_swapped) is not None,
    }


def polynomial_identity_suite(n: int, lam: Optional[Sequence] = None) -> dict[str, bool]:
    """Scalar polynomial identities behind the hypersurface family.

    ``lam`` has 2n entries, each a rational value or the token "sym", which
    keeps parameter i as the symbolic variable li; ``lam=None`` means all
    "sym".  Checks:
    (i)  u*F = u*x^2 + B^2 + A*C with A = uw - v^2, B = uy + vz, C = z^2 + ut^2;
    (ii) substituting t = (-w)^n, u = y + sum_i li*(-w)^i, v = 0 into F yields
         x^2 + y^3 + sum li*y^2*(-w)^i + z^2*w + y*w^(2n+1)
         - sum li*(-w)^(i+2n+1);
    (iii) the weighted Euler combination of that hypersurface equation, with
         weights (6n+3, 4n+2, 6n+1, 4) on (x, y, z, w), equals
         (12n+6)*F_lam + sum_j (4j-4n-2)*lj*(y^2*(-w)^j - (-w)^(j+2n+1)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a_p = _u * _w - _v * _v
    b_p = _u * _y + _v * _z
    c_p = _z * _z + _u * _t * _t
    ok_quadric = _u * F_POLY == _u * _x * _x + b_p * b_p + a_p * c_p

    lam = ["sym"] * (2 * n) if lam is None else list(lam)
    if len(lam) != 2 * n:
        raise ValueError("need 2n parameter values")
    ext = varset(*SVARS.names, *(f"l{i}" for i, v in enumerate(lam, 1) if v == "sym"))
    x, y, z, w = (CommPoly.variable(ext, v) for v in "xyzw")
    lams = [
        CommPoly.variable(ext, f"l{i}") if v == "sym" else CommPoly.const(ext, Fraction(v))
        for i, v in enumerate(lam, 1)
    ]
    mw = -w
    u_img = y + sum((lams[i - 1] * mw ** i for i in range(1, 2 * n + 1)),
                    CommPoly.zero(ext))
    sub = substitute(
        F_POLY,
        {"t": mw ** n, "u": u_img, "v": CommPoly.zero(ext)},
        target=ext,
    )
    f_lam = (
        x * x + y ** 3
        + sum((lams[i - 1] * y * y * mw ** i for i in range(1, 2 * n + 1)),
              CommPoly.zero(ext))
        + z * z * w + y * w ** (2 * n + 1)
        - sum((lams[i - 1] * mw ** (i + 2 * n + 1) for i in range(1, 2 * n + 1)),
              CommPoly.zero(ext))
    )
    ok_sub = sub == f_lam

    d = dict(zip(ext.names, partials(f_lam)))
    euler = (
        x * d["x"] * CommPoly.const(ext, 6 * n + 3)
        + y * d["y"] * CommPoly.const(ext, 4 * n + 2)
        + z * d["z"] * CommPoly.const(ext, 6 * n + 1)
        + w * d["w"] * CommPoly.const(ext, 4)
    )
    expected = f_lam.scale(12 * n + 6) + sum(
        ((lams[j - 1] * (y * y * mw ** j - mw ** (j + 2 * n + 1))).scale(4 * j - 4 * n - 2)
         for j in range(1, 2 * n + 1)),
        CommPoly.zero(ext),
    )
    ok_euler = euler == expected
    return {
        "quadric_decomposition": ok_quadric,
        "substitution_matches_family": ok_sub,
        "euler_identity": ok_euler,
    }
