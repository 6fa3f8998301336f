import itertools
import random
from fractions import Fraction

import pytest

from ncdef import commpoly
from ncdef.commpoly import (
    CommPoly,
    GrlexOrder,
    VarSetError,
    divexact,
    groebner,
    local_report,
    monomials_of_degree,
    normal_form,
    partials,
    quotient_basis,
    substitute,
    varset,
)

XYZW = varset("x", "y", "z", "w")


def _vars():
    return [CommPoly.variable(XYZW, n) for n in XYZW.names]


def _rand_poly(rng, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(4))
        c = Fraction(rng.randint(-4, 4))
        if c:
            terms[e] = terms.get(e, Fraction(0)) + c
    return CommPoly(XYZW, {e: c for e, c in terms.items() if c})


def test_ring_axioms_randomized():
    rng = random.Random(3)
    for _ in range(40):
        f, g, h = (_rand_poly(rng) for _ in range(3))
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == CommPoly.zero(XYZW)


def test_difference_of_squares():
    x, y, _, _ = _vars()
    assert (x + y) * (x - y) == x * x - y * y


def test_pow_matches_repeated_product():
    x, y, _, _ = _vars()
    f = x + y.scale(2)
    assert f ** 0 == CommPoly.const(XYZW, 1)
    assert f ** 3 == f * f * f


def test_divexact_roundtrip_and_failure():
    rng = random.Random(5)
    for _ in range(20):
        f, g = _rand_poly(rng), _rand_poly(rng)
        if g.is_zero():
            continue
        q = divexact(f * g, g)
        assert q == f
    x, y, _, _ = _vars()
    assert divexact(x, x * x + y) is None


def test_substitute_identity_and_composition():
    x, y, z, w = _vars()
    f = x * x + y * z - w
    assert substitute(f, {}) == f
    g = substitute(f, {"x": y, "y": x})
    assert g == y * y + x * z - w


def test_substitute_rejects_an_image_for_an_unknown_name():
    x, y, _, _ = _vars()
    with pytest.raises(VarSetError, match="unknown variable 'q'"):
        substitute(x * x, {"q": y})


def test_partials_product_rule_spot():
    x, y, _, _ = _vars()
    f = x * x * y
    px, py, pz, pw = partials(f)
    assert px == (x * y).scale(2)
    assert py == x * x
    assert pz.is_zero() and pw.is_zero()


def _f0(n):
    x, y, z, w = _vars()
    return x * x + y ** 3 + z * z * w + y * w ** (2 * n + 1)


def test_jacobian_reductions_hold(n=1):
    """Membership facts used downstream: x, zw generate together with the
    other two partials an ideal containing y*w^(2n+1), y^3, w^(4n+2), y^4."""
    x, y, z, w = _vars()
    gens = partials(_f0(n))
    order = GrlexOrder(XYZW)
    gb = groebner(gens, order)
    for member in (
        x,
        z * w,
        y * w ** (2 * n + 1),
        y ** 3,
        w ** (4 * n + 2),
        y ** 4,
        y * y * z,
        y * z * z - (w ** (4 * n + 1)).scale(Fraction(2 * n + 1, 3)),
    ):
        assert normal_form(member, gb).is_zero()


def test_groebner_normal_form_properties():
    rng = random.Random(9)
    x, y, z, w = _vars()
    gens = [x * x - y, y * z - w]
    gb = groebner(gens, GrlexOrder(XYZW))
    for _ in range(15):
        f = _rand_poly(rng)
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf  # idempotent
        assert normal_form(f - nf, gb).is_zero()  # difference in ideal
        g = _rand_poly(rng)
        # normal form is linear
        assert normal_form(f + g, gb) == normal_form(f, gb) + normal_form(g, gb)


def test_quotient_basis_finite_and_infinite():
    x, y, z, w = _vars()
    gb = groebner([x, y, z * z, w * w * w], GrlexOrder(XYZW))
    qb = quotient_basis(gb, 10)
    assert qb.finite and len(qb.monomials) == 6  # z^i w^j, i<2, j<3
    gb2 = groebner([x], GrlexOrder(XYZW))
    assert not quotient_basis(gb2, 6).finite


def test_jacobian_quotient_dimensions():
    # engine-computed dimensions of k[x,y,z,w]/J_0
    for n, expect in ((1, 11), (2, 17)):
        gb = groebner(partials(_f0(n)), GrlexOrder(XYZW))
        qb = quotient_basis(gb, 30)
        assert qb.finite
        assert len(qb.monomials) == expect


def test_jacobian_standard_monomials_match_sympy():
    """Independent check of the grlex standard monomials of J(f0) = (df0)."""
    sympy = pytest.importorskip("sympy")
    qb = quotient_basis(groebner(partials(_f0(1)), GrlexOrder(XYZW)), 30)
    assert qb.finite
    syms = sympy.symbols(XYZW.names)
    x, y, z, w = syms
    f0 = x ** 2 + y ** 3 + z ** 2 * w + y * w ** 3
    gb = sympy.groebner(
        [sympy.diff(f0, s) for s in syms], *syms, order="grlex"
    )
    leads = [sympy.Poly(g, *syms).monoms(order="grlex")[0] for g in gb.exprs]
    # a lead v_i^k for every variable bounds each exponent of a standard monomial
    bounds = [
        min(l[i] for l in leads if sum(l) == l[i] > 0) for i in range(len(syms))
    ]
    standard = {
        e
        for e in itertools.product(*(range(k) for k in bounds))
        if not any(all(a >= b for a, b in zip(e, l)) for l in leads)
    }
    assert set(qb.monomials) == standard


def test_monomials_of_degree_count():
    assert len(monomials_of_degree(XYZW, 3)) == 20  # C(3+3,3)


def test_local_report_artinian_pair():
    x, y, _, _ = _vars()
    v2 = varset("x", "y")
    a = CommPoly.variable(v2, "x")
    b = CommPoly.variable(v2, "y")
    rep = local_report([a * a - b ** 3], GrlexOrder(v2), 12)
    assert rep.status == "not-finite"
    rep2 = local_report([a * a - b ** 3, a * b], GrlexOrder(v2), 12)
    assert rep2.status == "finite"
    assert rep2.dim == 5  # 1, x, y, y^2, y^3 (x^2 = y^3, xy = 0)


def test_local_report_rejects_max_cutoff_below_two():
    gens = partials(_f0(1))
    for maxN in (1, 0, -3):
        with pytest.raises(ValueError, match=f"must be >= 2, got {maxN}"):
            local_report(gens, GrlexOrder(XYZW), maxN)


def test_local_report_criteria_prune_pairs(monkeypatch):
    """The pair criteria keep the f0 tower cheap: without them most of the
    S-polynomials of the degree-N cut monomials are reduced, only to zero."""
    calls = []
    inner = commpoly.normal_form

    def counting(f, gb):
        calls.append(1)
        return inner(f, gb)

    monkeypatch.setattr(commpoly, "normal_form", counting)
    rep = local_report(partials(_f0(1)), GrlexOrder(XYZW), 20)
    assert (rep.status, rep.dim, rep.certified_at) == ("finite", 11, 6)
    assert 0 < len(calls) <= 1500


def _fermat(vars, degree):
    """sum_i l_i^degree for the fixed change of coordinates l = L*U*x, with
    L lower triangular of ones and U unit upper triangular with 2 above the
    diagonal (the shape of perfbench's milnor forms)."""
    xs = [CommPoly.variable(vars, n) for n in vars.names]
    n = len(xs)
    lower = [[1 if j <= i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (2 if j > i else 0) for j in range(n)] for i in range(n)]
    f = CommPoly.zero(vars)
    for i in range(n):
        lin = CommPoly.zero(vars)
        for j in range(n):
            c = sum(lower[i][k] * upper[k][j] for k in range(n))
            lin = lin + xs[j].scale(c)
        f = f + lin ** degree
    return f


@pytest.mark.parametrize(
    "kind, arg",
    [("jacobian", None), ("fermat", (3, 3)), ("fermat", (3, 4)), ("fermat", (4, 3))]
    + [("cut", N) for N in range(4, 8)],
)
def test_reduced_basis_matches_sympy(kind, arg):
    """The whole monic reduced grlex basis, coefficients included, equals
    sympy's for J(f0), Fermat Jacobians in other coordinates and the
    local_report cut ideals J(f0) + (all monomials of degree N)."""
    sympy = pytest.importorskip("sympy")
    if kind == "fermat":
        nvars, degree = arg
        gens = partials(_fermat(varset(*XYZW.names[:nvars]), degree))
    else:
        gens = partials(_f0(1))
    if kind == "cut":
        gens += [CommPoly.monomial(XYZW, e) for e in monomials_of_degree(XYZW, arg)]
    vars = gens[0].vars
    syms = sympy.symbols(vars.names)
    exprs = [
        sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s ** k for s, k in zip(syms, e)))
            for e, c in g.terms.items()
        )
        for g in gens
    ]
    expected = set()
    for g in sympy.groebner(exprs, *syms, order="grlex").exprs:
        terms = sympy.Poly(g, *syms).terms(order="grlex")
        lc = Fraction(int(terms[0][1].p), int(terms[0][1].q))
        expected.add(frozenset(
            (tuple(e), Fraction(int(c.p), int(c.q)) / lc) for e, c in terms
        ))
    gb = groebner(gens, GrlexOrder(vars))
    assert {frozenset(g.terms.items()) for g in gb.basis} == expected
    assert len(gb.basis) == len(expected)
