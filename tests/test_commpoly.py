import itertools
import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from ncdef import commpoly
from ncdef.commpoly import (
    CommGB,
    CommPoly,
    GrlexOrder,
    InternalConsistencyError,
    LocalOrder,
    VarSetError,
    divexact,
    groebner,
    local_report,
    normal_form,
    partials,
    poly_str,
    quotient_basis,
    stable_tower,
    substitute,
    varset,
)
from ncdef.exprparse import presentation_parse
from oracle import brute_force_dim, fraction_normal_form, monomials_of_degree

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


def test_basis_must_be_monic():
    x, y, _, _ = _vars()
    order = GrlexOrder(XYZW)
    with pytest.raises(ValueError, match="monic"):
        CommGB([x.scale(2)], order)
    assert CommGB([x, y * y - x], order).leads == [(1, 0, 0, 0), (0, 2, 0, 0)]


def test_integer_kernel_scales_by_cleared_lead_coefficients():
    """x - y/3 and y^2 - x/2 clear to lead coefficients 3 and 2, so reducing
    x^2 scales the work at each of its four steps: x^2 -> x*y/3 -> y^2/9
    -> x/18 -> y/54.  A coefficient that the lead coefficient divides needs
    no scaling."""
    vars = varset("x", "y")
    x, y = (CommPoly.variable(vars, n) for n in vars.names)
    gb = CommGB([x - y.scale(Fraction(1, 3)), y * y - x.scale(Fraction(1, 2))],
                GrlexOrder(vars))
    assert gb.reducers == [((1, 0), 3, [((0, 1), -1)]), ((0, 2), 2, [((1, 0), -1)])]
    for f, nf in [(x * x, y.scale(Fraction(1, 54))), (x.scale(3), y),
                  (x * y.scale(Fraction(5, 7)) + y, y.scale(Fraction(131, 126)))]:
        assert normal_form(f, gb) == nf == fraction_normal_form(f, gb)
        assert all(type(c) is Fraction for c in nf.terms.values())


@pytest.mark.parametrize("cut", [None, 3])
def test_integer_kernel_zero_reduced_and_cut_inputs(cut):
    """The zero polynomial and a reduced one come back equal; under a cut a
    polynomial whose every term is at or past the cut reduces to zero."""
    x, y, z, w = _vars()
    order = GrlexOrder(XYZW) if cut is None else LocalOrder(XYZW, cut=cut)
    gb = groebner([x * x - y.scale(Fraction(2, 3)), y * z - w], order)
    zero = CommPoly.zero(XYZW)
    reduced = CommPoly.const(XYZW, Fraction(-1, 2)) + z.scale(Fraction(3, 4)) + x * z
    assert normal_form(zero, gb) == zero
    assert normal_form(reduced, gb) == reduced
    past = (x ** 3).scale(Fraction(1, 2)) + x * y * w - (z ** 4).scale(Fraction(5, 3))
    nf = normal_form(past, gb)
    assert nf == fraction_normal_form(past, gb)
    assert nf.is_zero() == (cut is not None)


@pytest.mark.parametrize("build", [
    lambda v: CommPoly(v, {(1, 0): 0.1}),
    lambda v: CommPoly.const(v, 0.1),
    lambda v: CommPoly.variable(v, "x").scale(0.1),
    lambda v: CommPoly.monomial(v, (1, 0), 0.1),
], ids=["init", "const", "scale", "monomial"])
def test_float_coefficients_are_refused(build):
    """0.1 is not 1/10 in binary, so a float coefficient is an error, not
    the exact 3602879701896397/36028797018963968 it stands for."""
    vars = varset("x", "y")
    with pytest.raises(ValueError, match=r"^coefficient 0\.1 is a float; pass a "
                                         r"Fraction, an int or a string"):
        build(vars)
    tenth = CommPoly(vars, {(1, 0): Fraction(1, 10)})
    assert CommPoly.monomial(vars, (1, 0), "1/10") == tenth
    assert CommPoly.variable(vars, "x").scale(Fraction(1, 10)) == tenth
    assert CommPoly.const(vars, 2) == CommPoly(vars, {(0, 0): 2})


@pytest.mark.parametrize("terms", [{(1, 0): 0.0, (0, 1): 1}, {(1, 0): -0.0}])
def test_float_zero_is_refused_like_any_float(terms):
    """A zero coefficient is dropped only after it is converted, so a float
    zero raises as every float does instead of vanishing silently."""
    vars = varset("x", "y")
    with pytest.raises(ValueError, match=r"^coefficient -?0\.0 is a float"):
        CommPoly(vars, terms)
    assert CommPoly(vars, {(1, 0): 0, (0, 1): Fraction(0)}).is_zero()


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


def test_monomials_of_degree_is_the_top_unrestricted_standard_level():
    for n in range(1, 5):
        vars = varset(*XYZW.names[:n])
        for d in range(11):
            top = commpoly._standard_monomials(n, (), d + 1)[d]
            assert monomials_of_degree(vars, d) == top


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


def _fake_tower(bases, closed=()):
    """A ``basis_at`` that reads the basis at each cut from ``bases`` and
    logs the cuts it is asked for; the state is a label of the cut, and the
    cuts in ``closed`` are closed."""
    asked = []

    def basis_at(cut):
        asked.append(cut)
        return bases[cut], f"state {cut}", cut in closed

    return basis_at, asked


def test_stable_tower_certifies_at_the_first_equal_count():
    bases = {2: ["1"], 3: ["1", "x"], 5: ["1", "x", "y"], 7: ["y", "1", "x"],
             9: ["1", "x", "y"]}
    basis_at, asked = _fake_tower(bases)
    assert stable_tower([2, 3, 5, 7, 9], basis_at) == (5, 7, bases[7], "state 7")
    assert asked == [2, 3, 5, 7]  # no cut past the certifying pair is run


def test_stable_tower_without_agreement_returns_the_last_cut():
    bases = {N: list(range(N)) for N in range(2, 7)}
    basis_at, asked = _fake_tower(bases)
    assert stable_tower(range(2, 7), basis_at) == (None, 6, bases[6], "state 6")
    assert asked == [2, 3, 4, 5, 6]


def test_stable_tower_equal_counts_with_different_words_raise():
    """Equal counts prove the two cut ideals equal, so their standard words
    must be the same set; two different sets of one size are an error."""
    basis_at, asked = _fake_tower({2: ["1"], 3: ["1", "x"], 4: ["1", "y"]})
    with pytest.raises(InternalConsistencyError, match="cuts 3 and 4 give 2"):
        stable_tower([2, 3, 4, 5], basis_at)
    assert asked == [2, 3, 4]


def test_stable_tower_certifies_a_closed_cut_at_once():
    """A closed cut before the last one certifies itself: no cut past it
    runs, and the basis and state are its own."""
    bases = {2: ["1"], 3: ["1", "x"], 5: ["1", "x", "y"], 7: ["1", "x", "y"]}
    basis_at, asked = _fake_tower(bases, closed={5})
    assert stable_tower([2, 3, 5, 7], basis_at) == (5, 5, bases[5], "state 5")
    assert asked == [2, 3, 5]


def test_stable_tower_tests_equal_counts_before_the_closed_cut():
    """Equal counts at W and W' certify W even when W' is closed."""
    bases = {2: ["1"], 3: ["1", "x"], 4: ["x", "1"], 5: ["1", "x"]}
    basis_at, asked = _fake_tower(bases, closed={4})
    assert stable_tower([2, 3, 4, 5], basis_at) == (3, 4, bases[4], "state 4")
    assert asked == [2, 3, 4]


def test_stable_tower_never_certifies_the_last_cut_by_the_closed_test():
    """The last cut has no successor that equal counts could compare, so
    a closed last cut leaves the tower uncertified."""
    bases = {N: list(range(N)) for N in range(2, 6)}
    basis_at, asked = _fake_tower(bases, closed={5})
    assert stable_tower(range(2, 6), basis_at) == (None, 5, bases[5], "state 5")
    assert asked == [2, 3, 4, 5]


def test_local_report_keeps_the_reduced_basis_of_its_last_cut():
    """``gb`` is the reduced basis of the cut ideal at ``certified_at`` + 1,
    and ``basis`` its standard monomials."""
    v2 = varset("x", "y")
    a, b = CommPoly.variable(v2, "x"), CommPoly.variable(v2, "y")
    gens = [a * a - b ** 3, a * b]
    rep = local_report(gens, GrlexOrder(v2), 12)
    cut = groebner(gens, LocalOrder(v2, cut=rep.certified_at + 1))
    assert rep.gb.basis == cut.basis
    assert rep.basis == quotient_basis(cut, rep.certified_at + 1).monomials
    open_rep = local_report([a * a - b ** 3], GrlexOrder(v2), 7)
    assert open_rep.gb.basis == groebner(
        [a * a - b ** 3], LocalOrder(v2, cut=7)).basis


def test_local_report_graded_dims_are_the_hilbert_samuel_function():
    """Under the local order the standard monomials of degree d count
    m^d / (m^(d+1) + I), so the prefix sums of ``graded_dims`` are the
    dimensions of k[x]/(I + m^N) for N = 1, 2, ..., which no order enters;
    the brute-force oracle computes them with every letter central."""
    jac = partials(_f0(1))
    rep = local_report(jac, GrlexOrder(XYZW), 20)
    p = presentation_parse(
        "generators: x y z w\ncentral: x y z w\nrelations: "
        + " ; ".join(poly_str(g) for g in jac) + "\n")
    sums = list(itertools.accumulate(rep.graded_dims))
    assert sums == [1, 4, 7, 9, 10, 11]
    assert sums == [brute_force_dim(p, N) for N in range(1, len(sums) + 1)]


def test_local_report_basis_drops_every_monomial_past_the_cut():
    """The cut is carried by the order of ``gb``, so its normal forms drop
    every monomial of total degree N or more, and not only those of N."""
    rep = local_report(partials(_f0(1)), GrlexOrder(XYZW), 20)
    N = rep.gb.order.cut
    assert N == rep.certified_at + 1
    for d in range(N, N + 3):
        for e in monomials_of_degree(XYZW, d):
            assert normal_form(CommPoly.monomial(XYZW, e), rep.gb).is_zero()


def test_local_report_criteria_prune_pairs(monkeypatch):
    """The pair criteria keep the f0 tower cheap: without them most of the
    S-polynomials of the degree-N cut monomials are reduced, only to zero."""
    calls = []
    inner = commpoly._reduce

    def counting(work, scale, reducers, order):
        calls.append(1)
        return inner(work, scale, reducers, order)

    monkeypatch.setattr(commpoly, "_reduce", counting)
    rep = local_report(partials(_f0(1)), GrlexOrder(XYZW), 20)
    assert (rep.status, rep.dim, rep.certified_at) == ("finite", 11, 6)
    assert 0 < len(calls) <= 1500


def test_monomial_pairs_are_never_reduced(monkeypatch):
    """Two monomials have S-polynomial zero, so groebner queues no pair of
    them: on a monomial ideal its only normal forms are those of the tail
    inter-reduction, one per basis element.  The f0 tower never builds its
    cut monomials and queues no pair with them."""
    inputs = []
    inner = commpoly._reduce

    def counting(work, scale, reducers, order):
        inputs.append(CommPoly(order.vars, work))
        return inner(work, scale, reducers, order)

    monkeypatch.setattr(commpoly, "_reduce", counting)
    x, y, z, w = _vars()
    gens = [x * x, y * z, w ** 3] + [
        CommPoly.monomial(XYZW, e) for e in monomials_of_degree(XYZW, 3)
    ]
    gb = groebner(gens, GrlexOrder(XYZW))
    assert all(len(g.terms) == 1 for g in gb.basis)
    assert len(inputs) == len(gb.basis)
    assert all(f.is_zero() for f in inputs)  # the empty tail of each monomial

    inputs.clear()
    rep = local_report(partials(_f0(1)), GrlexOrder(XYZW), 20)
    assert (rep.status, rep.dim, rep.certified_at) == ("finite", 11, 6)
    assert 0 < len(inputs) <= 120


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


# ------------------------------------------------------ pinned reduced bases

COMMPOLY_BASES = pathlib.Path(__file__).parent / "golden" / "commpoly_bases.json"


def _commpoly_bases():
    """Reduced bases, as text, of J(f0) under plain grlex and under its
    quasi-homogeneous weights x18, of the cut ideals J(f0) + m^N, and of the
    Fermat Jacobians above; and the fields of local_report(J(f0), 20).
    Weighted grlex has no sympy oracle, so this pin is its guard."""
    jac = partials(_f0(1))
    order = GrlexOrder(XYZW)

    def basis(gens, order):
        return [poly_str(g) for g in groebner(gens, order).basis]

    rep = local_report(jac, order, 20)
    return {
        "jacobian": basis(jac, order),
        "jacobian_weighted_9_6_7_4": basis(jac, GrlexOrder(XYZW, (9, 6, 7, 4))),
        "cut": {
            N: basis(jac + [CommPoly.monomial(XYZW, e)
                            for e in monomials_of_degree(XYZW, N)], order)
            for N in range(2, 9)
        },
        "fermat": {
            f"{nvars}-{degree}": basis(partials(_fermat(vars, degree)), GrlexOrder(vars))
            for nvars, degree in ((3, 3), (3, 4), (4, 3))
            for vars in [varset(*XYZW.names[:nvars])]
        },
        "local_report": {
            "status": rep.status,
            "dim": rep.dim,
            "certified_at": rep.certified_at,
            "graded_dims": rep.graded_dims,
            "basis": rep.basis,
        },
    }


def _commpoly_bases_text():
    return json.dumps(_commpoly_bases(), indent=1, sort_keys=True) + "\n"


def test_reduced_bases_match_pinned():
    assert _commpoly_bases_text() == COMMPOLY_BASES.read_text(encoding="utf-8")


def test_groebner_leads_do_not_depend_on_the_remainder_order(monkeypatch):
    """groebner takes a new element's lead by the order, not by where the
    kernel puts it in the remainder: with every remainder reversed the
    pinned bases come out the same."""
    inner = commpoly._reduce

    def reversed_remainder(work, scale, reducers, order):
        rem, scale = inner(work, scale, reducers, order)
        return dict(reversed(rem.items())), scale

    monkeypatch.setattr(commpoly, "_reduce", reversed_remainder)
    test_reduced_bases_match_pinned()


if __name__ == "__main__":
    COMMPOLY_BASES.write_text(_commpoly_bases_text(), encoding="utf-8")
    print(f"recorded {COMMPOLY_BASES.name}", file=sys.stderr)
