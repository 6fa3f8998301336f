"""Property tests of the commutative Buchberger engine on random small
ideals, under plain and weighted grlex (sympy has no weighted grlex, so this
is the guard for weighted orders).  Generators may be pure monomials, and an
ideal may carry every monomial of one degree, so pairs of two monomials,
which are never reduced, are exercised.  A pair discarded by a wrong criterion
shows up as an S-polynomial that does not reduce to zero, or as a basis
that depends on the order of the generators.  The degree cut of
``cut_groebner`` is checked against the cut ideal with every monomial of the
cut degree listed as a generator."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncdef.commpoly import (
    CommPoly,
    GrlexOrder,
    cut_groebner,
    groebner,
    monomials_of_degree,
    normal_form,
    varset,
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
    # every monomial of one degree, as local_report's cut ideals carry
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


def _assert_reduced_basis_of(gb, gens, order):
    """gb is the monic reduced Groebner basis of the ideal of gens."""
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
    _assert_reduced_basis_of(gb, gens, order)
    # so it depends on the ideal only, not on how the generators are listed
    shuffled = gens + [g.scale(Fraction(rnd.randint(1, 5), 2)) for g in gens[:2]]
    rnd.shuffle(shuffled)
    assert groebner(shuffled, order).basis == gb.basis


def _cut_ideal(gens, vars, N):
    """gens and every monomial of total degree N, as generators."""
    return list(gens) + [CommPoly.monomial(vars, e) for e in monomials_of_degree(vars, N)]


@st.composite
def cut_ideals(draw):
    nvars = draw(st.integers(1, 4))
    vars = varset(*"xyzw"[:nvars])
    weights = draw(st.none() | st.tuples(*[st.integers(1, 3)] * nvars))
    monomial = st.tuples(*[st.integers(0, 2)] * nvars)
    coeff = st.integers(-3, 3).filter(bool)
    polys = st.dictionaries(monomial, coeff, min_size=1, max_size=3)
    gens = [CommPoly(vars, t) for t in draw(st.lists(polys, min_size=1, max_size=3))]
    return gens, GrlexOrder(vars, weights), draw(st.integers(1, 7))


# The oracle itself runs for minutes on about one ideal in 3,000 of these
# (one whose generators make a unit modulo m^7), so the examples are fixed.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(cut_ideals())
def test_degree_cut_matches_the_cut_monomials_as_generators(ideal):
    """The degree cut, which never builds the cut monomials, gives the
    reduced basis of the ideal with all of them listed."""
    gens, order, N = ideal
    expected = groebner(_cut_ideal(gens, order.vars, N), order)
    assert cut_groebner(gens, order, N).basis == expected.basis


@pytest.mark.parametrize("weights", [None, (2, 1)])
def test_degree_cut_of_generators_at_or_above_the_cut(weights):
    """Generators inside m^N vanish under the cut; the answer is every
    degree-N monomial, not an error for want of nonzero generators."""
    vars = varset("x", "y")
    x, y = (CommPoly.variable(vars, n) for n in vars.names)
    gens = [x ** 2 * y - y ** 3, x ** 4, CommPoly.zero(vars)]
    gb = cut_groebner(gens, GrlexOrder(vars, weights), 3)
    assert gb.basis == [CommPoly.monomial(vars, e)
                        for e in monomials_of_degree(vars, 3)]


def test_degree_cut_one():
    """At N = 1 the cut is the maximal ideal m = (x, y): a generator with a
    constant term makes the whole ring, and any other leaves m."""
    vars = varset("x", "y")
    order = GrlexOrder(vars)
    x, y = (CommPoly.variable(vars, n) for n in vars.names)
    for f, leads in [
        (x * y - x, [(0, 1), (1, 0)]),
        (x * x + y.scale(3), [(0, 1), (1, 0)]),
        (x + CommPoly.const(vars, 1), [(0, 0)]),
    ]:
        gb = cut_groebner([f], order, 1)
        assert gb.leads == leads
        assert gb.basis == groebner(_cut_ideal([f], vars, 1), order).basis


def test_degree_cut_worst_case_is_a_reduced_basis():
    """A weighted cut ideal on which Buchberger with the 36 cut monomials as
    generators runs for more than 90 s; the degree cut's answer is checked
    directly: it holds every generator and every degree-7 monomial, its
    S-polynomials reduce to zero, and it is monic and reduced."""
    vars = varset("x", "y", "z")
    order = GrlexOrder(vars, (3, 2, 3))

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
    gb = cut_groebner(gens, order, 7)
    _assert_reduced_basis_of(gb, _cut_ideal(gens, vars, 7), order)
