"""Property tests of the reduction kernel.

Many reductions, one after another, against one finished rule system (the
pattern of ``derive_check`` and ``center_basis``) must match a full rescan
that keeps nothing between steps.  The division search
:func:`~ncdef.ncgb.find_division`, which matches each rule's split lead by
substring and multiset tests, must pick the rule and the division that the
oracle's letter-by-letter scan finds.  While completion runs, every cached
division must be the one the oracle finds.
"""

import functools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncdef import ncgb
from ncdef.exprparse import presentation_parse
from ncdef.freealg import NcPoly, canon_word, genset, word_mul
from ncdef.ncgb import (
    RewriteRule,
    find_division,
    nc_complete,
    nc_reduce,
)
from ncdef.zoo import (
    karmazyn_contraction_presentation,
    laufer_presentation,
    length2_claimed_presentation,
    standard_lambda,
)
from oracle import first_division, rescan_reduce

TRUNC = 7
PRESENTATIONS = {
    "laufer-1-e1": laufer_presentation(1, standard_lambda(1, 1)),
    "laufer-2-0": laufer_presentation(2, standard_lambda(2, 0)),
    "laufer-1-sym": laufer_presentation(1, ["sym", "sym"]),
    "length2": length2_claimed_presentation(),
    "karmazyn-2": karmazyn_contraction_presentation(2),
    # most of its completed tail coefficients are not +-1
    "non-unit": presentation_parse(
        "generators: a b\ncentral: t\n"
        "relations: a*b - 2*b*a + t*a; b^2 - 3/2*a^2 + t^2\n"
    ),
}


@functools.cache
def completed(name):
    """The presentation completed at TRUNC, built on first use so that a
    completion which never ends cannot stop the module from importing."""
    return nc_complete(PRESENTATIONS[name], TRUNC)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def reductions(draw):
    gb = completed(draw(st.sampled_from(list(PRESENTATIONS))))
    letters = st.lists(st.integers(0, len(gb.gens.names) - 1), max_size=TRUNC + 1)
    words = letters.map(lambda ls: canon_word(gb.gens, ls))
    polys = st.dictionaries(words, rationals, min_size=1, max_size=8)
    return gb, [NcPoly(gb.gens, t) for t in draw(st.lists(polys, min_size=1, max_size=6))]


@settings(max_examples=40, deadline=None)
@given(reductions())
def test_cached_reduction_matches_full_rescan(case):
    gb, polys = case
    for f in polys:
        red = nc_reduce(f, gb)
        poly, trace, truncated = rescan_reduce(f, gb)
        assert red.poly == poly
        assert red.trace == trace
        assert red.truncated == truncated


@st.composite
def divisor_cases(draw):
    """Leads and a word over a few letters of a generator set with 0-2
    central letters; the 300-generator set puts letters past chr(255)."""
    n = draw(st.sampled_from([2, 3, 4, 300]))
    alphabet = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True))
    ncentral = draw(st.integers(0, min(2, len(alphabet) - 1)))
    cen, nc = alphabet[:ncentral], alphabet[ncentral:]
    gens = genset([f"g{i}" for i in range(n)], central=[f"g{i}" for i in cen])

    def words(max_c, max_n):
        parts = st.tuples(
            st.lists(st.sampled_from(cen), max_size=max_c) if cen else st.just([]),
            st.lists(st.sampled_from(nc), max_size=max_n),
        )
        return parts.map(lambda cn: canon_word(gens, cn[0] + cn[1]))

    leads = draw(st.lists(words(2, 3).filter(bool), min_size=1, max_size=8))
    w = draw(words(4, 8))
    if draw(st.booleans()):  # make sure some lead divides the word
        w = word_mul(gens, word_mul(gens, w, draw(st.sampled_from(leads))), draw(words(1, 2)))
    zero = NcPoly.zero(gens)
    return gens, [RewriteRule(lead, zero, {}, True, k) for k, lead in enumerate(leads)], w


@settings(max_examples=200, deadline=None)
@given(divisor_cases())
def test_find_division_is_the_oracles_first_division(case):
    gens, rules, w = case
    # rules compare by identity, so this checks the rule object too
    assert find_division(gens, rules, w) == first_division(gens, rules, w)


def _check_cached_divisions(gb):
    gens, active = gb.gens, gb.active_rules()
    for w, hit in gb.reductions.items():
        assert hit == first_division(gens, active, w)
        if hit is not None:
            rule, u, v = hit
            assert word_mul(gens, word_mul(gens, u, rule.lead), v) == w


@pytest.mark.parametrize("trunc", [4, 5, 6, 7])
@pytest.mark.parametrize("name", PRESENTATIONS)
def test_cached_divisions_stay_valid_during_completion(monkeypatch, name, trunc):
    real = ncgb.nc_reduce
    calls = 0

    def checked(f, gb):
        nonlocal calls
        calls += 1
        red = real(f, gb)
        _check_cached_divisions(gb)
        return red

    monkeypatch.setattr(ncgb, "nc_reduce", checked)
    nc_complete(PRESENTATIONS[name], trunc)
    assert calls
