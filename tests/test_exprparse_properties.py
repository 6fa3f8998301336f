"""Property test of the presentation file format: rendering a random
presentation and parsing the text back gives the same presentation, under
deglex and wdeglex, with central letters and with rational and negative
coefficients."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncdef.exprparse import presentation_parse, render
from ncdef.freealg import NcPoly, canon_word, genset
from ncdef.ncgb import Presentation

NAMES = ["a", "b", "c", "t", "u1", "x2"]


@st.composite
def presentations(draw):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    central = draw(st.lists(st.sampled_from(names), max_size=len(names) - 1, unique=True))
    order = draw(st.sampled_from(["deglex", "wdeglex"]))
    weights = (draw(st.lists(st.integers(1, 3), min_size=len(names), max_size=len(names)))
               if order == "wdeglex" else None)
    gens = genset(names, weights, central)
    words = st.lists(st.integers(0, len(names) - 1), min_size=1, max_size=4).map(
        lambda ls: canon_word(gens, ls))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    terms = st.dictionaries(words, coeffs, min_size=1, max_size=4)
    relations = draw(st.lists(terms.map(lambda t: NcPoly(gens, t)), max_size=3))
    return Presentation(gens, tuple(relations), order)


@settings(max_examples=100, deadline=None)
@given(presentations())
def test_render_then_parse_is_the_identity(p):
    text = render(p)
    q = presentation_parse(text)
    assert q == p
    assert render(q) == text
