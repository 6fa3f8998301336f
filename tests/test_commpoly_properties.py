"""Property tests of the commutative Buchberger engine on random small
ideals, under plain and weighted grlex (sympy has no weighted grlex, so this
is the guard for weighted orders).  Generators may be pure monomials, and an
ideal may carry every monomial of one degree, so pairs of two monomials,
which are never reduced, are exercised.  A pair discarded by a wrong criterion
shows up as an S-polynomial that does not reduce to zero, or as a basis
that depends on the order of the generators."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncdef.commpoly import (
    CommPoly,
    GrlexOrder,
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


@settings(max_examples=60, deadline=None)
@given(ideals(), st.randoms(use_true_random=False))
def test_groebner_is_a_reduced_basis_of_the_ideal(ideal, rnd):
    gens, order = ideal
    gb = groebner(gens, order)
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
    # so it depends on the ideal only, not on how the generators are listed
    shuffled = gens + [g.scale(Fraction(rnd.randint(1, 5), 2)) for g in gens[:2]]
    rnd.shuffle(shuffled)
    assert groebner(shuffled, order).basis == gb.basis
