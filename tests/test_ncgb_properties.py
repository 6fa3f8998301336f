"""Property test of the cached reduction kernel: many reductions, one after
another, against one finished rule system (the pattern of ``derive_check``
and ``center_basis``) must match a full rescan that keeps nothing between
steps."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncdef.freealg import NcPoly, canon_word
from ncdef.ncgb import nc_complete, nc_reduce
from ncdef.zoo import (
    karmazyn_contraction_presentation,
    laufer_presentation,
    length2_claimed_presentation,
    standard_lambda,
)
from oracle import rescan_reduce

TRUNC = 7
SYSTEMS = [
    nc_complete(p, TRUNC)
    for p in (
        laufer_presentation(1, standard_lambda(1, 1)),
        laufer_presentation(2, standard_lambda(2, 0)),
        laufer_presentation(1, ["sym", "sym"]),
        length2_claimed_presentation(),
        karmazyn_contraction_presentation(2),
    )
]

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def reductions(draw):
    gb = draw(st.sampled_from(SYSTEMS))
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
