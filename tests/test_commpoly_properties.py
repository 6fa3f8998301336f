"""Property tests of the commutative Buchberger engine on random small
ideals, under plain and weighted grlex (sympy has no weighted grlex, so this
is the guard for weighted orders).  Generators may be pure monomials, and an
ideal may carry every monomial of one degree, so pairs of two monomials,
which are never reduced, are exercised.  A pair discarded by a wrong criterion
shows up as an S-polynomial that does not reduce to zero, or as a basis
that depends on the order of the generators.  The degree cut of a
``LocalOrder`` is checked against the grlex basis of the cut ideal with every
monomial of the cut degree listed as a generator: the two must generate the
same ideal.  The local order itself cannot serve as that oracle without its
cut, since its normal forms need not terminate there: -2*x*y^2 - 2*y leads
with y, and reducing y*m by it gives x*y^2*m, which y divides again.  The
integer reduction kernel and S-polynomial are checked against the
``Fraction`` ones in ``tests/oracle.py`` on the bases of both kinds of
order, and the reducer made from a remainder against the one of its monic
multiple."""

from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from ncdef.commpoly import (
    CommPoly,
    GrlexOrder,
    LocalOrder,
    _cleared,
    _exps_divides,
    _int_spoly,
    _primitive,
    _reducer,
    _standard_monomials,
    groebner,
    normal_form,
    poly_str,
    quotient_basis,
    varset,
)
from ncdef.exprparse import presentation_parse
from oracle import (
    brute_force_dim,
    fraction_normal_form,
    fraction_spoly,
    monomials_of_degree,
)


@st.composite
def ideals(draw):
    nvars = draw(st.integers(2, 3))
    vars = varset(*"xyz"[:nvars])
    weights = draw(st.none() | st.tuples(*[st.integers(1, 3)] * nvars))
    monomial = st.tuples(*[st.integers(0, 2)] * nvars)
    coeff = st.integers(-3, 3).filter(bool)
    term = st.dictionaries(monomial, st.just(1), min_size=1, max_size=1)
    polys = st.dictionaries(monomial, coeff, min_size=1, max_size=3) | term
    gens = [CommPoly(vars, t) for t in draw(st.lists(polys, min_size=1, max_size=3))]
    # every monomial of one degree, listed as generators
    cut = draw(st.none() | st.integers(2, 4))
    if cut is not None:
        gens += [CommPoly.monomial(vars, e) for e in monomials_of_degree(vars, cut)]
    return gens, GrlexOrder(vars, weights)


def _s_poly(f, g, order):
    (fe, _), (ge, _) = f.lead(order), g.lead(order)
    lcm = tuple(max(a, b) for a, b in zip(fe, ge))
    mf = CommPoly.monomial(f.vars, tuple(a - b for a, b in zip(lcm, fe)))
    mg = CommPoly.monomial(g.vars, tuple(a - b for a, b in zip(lcm, ge)))
    return mf * f - mg * g


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _assert_reduced_basis_of(gb, gens):
    """gb is the monic reduced Groebner basis of the ideal of gens under
    ``gb.order``."""
    order = gb.order
    leads = [g.lead(order) for g in gb.basis]
    assert gb.leads == [e for e, _ in leads]
    # monic and reduced: no term of an element is divisible by another lead
    for k, g in enumerate(gb.basis):
        assert leads[k][1] == 1
        for e in g.terms:
            assert not any(
                m != k and _divides(le, e) for m, (le, _) in enumerate(leads)
            )
    # it generates an ideal containing every generator ...
    for f in gens:
        assert normal_form(f, gb).is_zero()
    # ... and is a Groebner basis: every S-polynomial reduces to zero
    for i in range(len(gb.basis)):
        for j in range(i):
            assert normal_form(_s_poly(gb.basis[i], gb.basis[j], order), gb).is_zero()


@settings(max_examples=60, deadline=None)
@given(ideals(), st.randoms(use_true_random=False))
def test_groebner_is_a_reduced_basis_of_the_ideal(ideal, rnd):
    gens, order = ideal
    gb = groebner(gens, order)
    _assert_reduced_basis_of(gb, gens)
    # so it depends on the ideal only, not on how the generators are listed
    shuffled = gens + [g.scale(Fraction(rnd.randint(1, 5), 2)) for g in gens[:2]]
    rnd.shuffle(shuffled)
    assert groebner(shuffled, order).basis == gb.basis


@st.composite
def bases(draw, cuts=st.none() | st.integers(2, 7)):
    """A basis under plain or weighted grlex (a cut of None), or under a
    local order with a cut drawn from ``cuts``, of generators with
    non-integral coefficients."""
    nvars = draw(st.integers(2, 3))
    vars = varset(*"xyz"[:nvars])
    weights = draw(st.none() | st.tuples(*[st.integers(1, 3)] * nvars))
    cut = draw(cuts)
    order = (GrlexOrder(vars, weights) if cut is None
             else LocalOrder(vars, weights, cut=cut))
    coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    # no constant term, which would make the unit ideal
    monomial = st.tuples(*[st.integers(0, 2)] * nvars).filter(any)
    gens = draw(st.lists(st.dictionaries(monomial, coeff, min_size=2, max_size=3),
                         min_size=1, max_size=3))
    return groebner([CommPoly(vars, t) for t in gens], order)


@st.composite
def reductions(draw):
    """A basis under plain or weighted grlex, or a local order cut at 2-7,
    and polynomials whose every coefficient has a denominator above 1."""
    gb = draw(bases())
    vars = gb.order.vars
    rational = st.builds(Fraction, st.integers(-9, 9), st.integers(2, 12)).filter(
        lambda q: q.denominator > 1)
    fs = draw(st.lists(st.dictionaries(st.tuples(*[st.integers(0, 4)] * len(vars)),
                                       rational, max_size=5),
                       min_size=1, max_size=3))
    return gb, [CommPoly(vars, t) for t in fs]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(reductions())
def test_integer_kernel_matches_the_fraction_kernel(case):
    """Reduction over the integers with one running scale gives the normal
    form of Fraction arithmetic exactly, with Fraction coefficients."""
    gb, fs = case
    for f in fs:
        nf = normal_form(f, gb)
        assert nf == fraction_normal_form(f, gb)
        assert all(type(c) is Fraction for c in nf.terms.values())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.builds(Fraction, st.integers(-9, 9).filter(bool),
                                 st.integers(1, 12)),
                       min_size=1, max_size=5),
       st.integers(1, 6), st.sampled_from([1, -1]), st.none() | st.integers(1, 7))
@example({(1, 0): Fraction(-2, 3), (0, 1): Fraction(4, 5)}, 6, 1, None)
def test_primitive_vector_is_the_reducer_of_the_monic_element(terms, k, sign, cut):
    """An integer vector over its content, signed so that its lead
    coefficient is positive, is the reducer of its monic multiple
    h.scale(1/c): also when the lead coefficient is negative and the
    content above 1 (the example: -10*x + 12*y times 6)."""
    vars = varset("x", "y")
    order = GrlexOrder(vars) if cut is None else LocalOrder(vars, cut=cut)
    h = CommPoly(vars, terms)
    e, c = h.lead(order)
    work = {t: sign * k * v for t, v in _cleared(h)[0].items()}
    monic = h.scale(1 / c)
    L = lcm(*(v.denominator for v in monic.terms.values()))
    tail = [(t, v.numerator * (L // v.denominator))
            for t, v in monic.terms.items() if t != e]
    assert _primitive(e, work) == _reducer(monic, e) == (e, L, tail)


@pytest.mark.parametrize("cuts", [st.none(), st.integers(2, 7)],
                         ids=["grlex", "local"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_spoly_is_the_fraction_spoly_over_its_scale(cuts, data):
    """The S-polynomial that groebner builds from two integer reducers,
    divided by its scale, is the Fraction S-polynomial of the two monic
    elements, for every pair of a basis."""
    gb = data.draw(bases(cuts))
    for i, j in combinations(range(len(gb.basis)), 2):
        m = tuple(map(max, gb.leads[i], gb.leads[j]))
        work, scale = _int_spoly(gb.reducers[i], gb.reducers[j], m)
        spoly = CommPoly(gb.order.vars, {t: Fraction(c, scale) for t, c in work.items()})
        assert spoly == fraction_spoly(gb.basis[i], gb.leads[i],
                                       gb.basis[j], gb.leads[j], m)


def _cut_ideal(gens, vars, N):
    """gens and every monomial of total degree N, as generators."""
    return list(gens) + [CommPoly.monomial(vars, e) for e in monomials_of_degree(vars, N)]


def _assert_cut_basis_of(gb, gens):
    """gb is the reduced basis under its local order of gens and every
    monomial of total degree ``gb.order.cut``, and generates the same ideal
    as the grlex basis with those monomials listed: each basis reduces the
    other's elements to zero."""
    order = gb.order
    listed = _cut_ideal(gens, order.vars, order.cut)
    _assert_reduced_basis_of(gb, listed)
    grlex = groebner(listed, GrlexOrder(order.vars, order.weights))
    assert all(normal_form(g, gb).is_zero() for g in grlex.basis)
    assert all(normal_form(g, grlex).is_zero() for g in gb.basis)


@st.composite
def cut_ideals(draw):
    nvars = draw(st.integers(1, 4))
    vars = varset(*"xyzw"[:nvars])
    weights = draw(st.none() | st.tuples(*[st.integers(1, 3)] * nvars))
    monomial = st.tuples(*[st.integers(0, 2)] * nvars)
    coeff = st.integers(-3, 3).filter(bool)
    polys = st.dictionaries(monomial, coeff, min_size=1, max_size=3)
    gens = [CommPoly(vars, t) for t in draw(st.lists(polys, min_size=1, max_size=3))]
    return gens, LocalOrder(vars, weights, cut=draw(st.integers(1, 7)))


# The grlex oracle runs for minutes on about one ideal in 3,000 of these
# (one whose generators make a unit modulo m^7), so the examples are fixed.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(cut_ideals())
def test_degree_cut_matches_the_cut_monomials_as_generators(ideal):
    """The degree cut, which never builds the cut monomials, gives a reduced
    basis of the ideal with all of them listed."""
    gens, order = ideal
    _assert_cut_basis_of(groebner(gens, order), gens)


@pytest.mark.parametrize("weights", [None, (2, 1)])
def test_degree_cut_of_generators_at_or_above_the_cut(weights):
    """Generators inside m^N vanish under the cut; the answer is every
    degree-N monomial, not an error for want of nonzero generators."""
    vars = varset("x", "y")
    x, y = (CommPoly.variable(vars, n) for n in vars.names)
    gens = [x ** 2 * y - y ** 3, x ** 4, CommPoly.zero(vars)]
    gb = groebner(gens, LocalOrder(vars, weights, cut=3))
    assert gb.basis == [CommPoly.monomial(vars, e)
                        for e in monomials_of_degree(vars, 3)]


def test_degree_cut_one():
    """At N = 1 the cut is the maximal ideal m = (x, y): a generator with a
    constant term makes the whole ring, and any other leaves m."""
    vars = varset("x", "y")
    order = LocalOrder(vars, cut=1)
    x, y = (CommPoly.variable(vars, n) for n in vars.names)
    for f, leads in [
        (x * y - x, [(0, 1), (1, 0)]),
        (x * x + y.scale(3), [(0, 1), (1, 0)]),
        (x + CommPoly.const(vars, 1), [(0, 0)]),
    ]:
        gb = groebner([f], order)
        assert gb.leads == leads
        _assert_cut_basis_of(gb, [f])


def test_degree_cut_worst_case_is_a_reduced_basis():
    """A weighted cut ideal on which Buchberger with the 36 cut monomials as
    generators runs for more than 90 s; the degree cut's answer is checked
    directly: it holds every generator and every degree-7 monomial, its
    S-polynomials reduce to zero, and it is monic and reduced."""
    vars = varset("x", "y", "z")
    order = LocalOrder(vars, (3, 2, 3), cut=7)

    def m(c, e):
        return CommPoly.monomial(vars, e, c)

    half = Fraction(1, 2)
    gens = [
        m(half, (3, 3, 2)) + m(Fraction(5, 3), (2, 0, 3))
        + m(half, (2, 3, 2)) - m(1, (1, 2, 0)),
        m(-3, (3, 0, 1)) - m(3, (2, 2, 1)),
        m(1, (2, 1, 0)) + m(Fraction(5, 2), (3, 0, 0))
        - m(1, (2, 3, 0)) - m(1, (1, 1, 3)),
        m(-3, (2, 3, 1)) + m(1, (0, 0, 1)) - m(1, (2, 2, 0))
        + m(Fraction(5, 2), (1, 0, 2)),
    ]
    gb = groebner(gens, order)
    _assert_reduced_basis_of(gb, _cut_ideal(gens, vars, 7))


def test_degree_cut_of_a_coefficient_swell_ideal():
    """A plain cut-7 ideal on which grlex swells coefficients: with the cut
    monomials listed its basis takes seconds, and with the degree cut more
    than 30 s.  Under the local order a generator leads with its
    lowest-degree term, so reductions only raise degree towards the cut.
    Its dim 4 is the brute-force oracle's, which uses no order."""
    vars = varset("x", "y", "z")

    def m(c, e):
        return CommPoly.monomial(vars, e, c)

    five3 = Fraction(5, 3)
    gens = [
        m(2, (3, 2, 2)) + m(five3, (3, 2, 1)) - m(1, (1, 3, 2)) + m(five3, (2, 1, 0)),
        m(five3, (1, 3, 1)) + m(five3, (2, 0, 1)) + m(Fraction(1, 2), (0, 0, 2))
        + m(2, (1, 0, 0)),
        m(Fraction(1, 2), (1, 2, 0)) - m(1, (0, 0, 2)) - m(3, (0, 1, 0)),
        m(-1, (3, 3, 2)) + m(1, (1, 1, 1)) - m(1, (0, 2, 1)) + m(five3, (2, 0, 0)),
    ]
    gb = groebner(gens, LocalOrder(vars, cut=7))
    assert gb.basis == [
        m(1, (0, 0, 4)),
        m(1, (0, 1, 0)) + m(Fraction(1, 3), (0, 0, 2)),
        m(1, (1, 0, 0)) + m(Fraction(1, 4), (0, 0, 2)),
    ]
    assert quotient_basis(gb, 7).monomials == [(0, 0, k) for k in range(4)]
    p = presentation_parse("generators: x y z\ncentral: x y z\nrelations: "
                           + " ; ".join(poly_str(g) for g in gens) + "\n")
    assert brute_force_dim(p, 7) == 4


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_standard_monomials_are_those_no_lead_divides(data):
    """The enumerator's levels are the monomials of each total degree below
    the bound that no lead divides (by ``_exps_divides``), sorted, up to the
    first empty degree; the leads are random, the unit among them."""
    n = data.draw(st.integers(1, 4))
    depth = data.draw(st.integers(1, 6))
    leads = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=5))
    levels = []
    for d in range(depth):
        level = sorted(e for e in product(range(d + 1), repeat=n) if sum(e) == d
                       and not any(_exps_divides(l, e) for l in leads))
        if not level:
            break
        levels.append(level)
    assert _standard_monomials(n, leads, depth) == levels
