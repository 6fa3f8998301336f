"""Property tests of the reduction kernel.

Many reductions, one after another, against one finished rule system (the
pattern of ``derive_check`` and ``center_basis``) must match a full rescan
that keeps nothing between steps.  The division search
:func:`~ncdef.ncgb.find_division`, which matches each rule's split lead by
substring and multiset tests, must pick the rule and the division that the
oracle's letter-by-letter scan finds.  While completion runs, every cached
division, resumed over the rules its entry has not seen, must be the one
the oracle finds.  The integer provenance fold,
read as ``Fraction``s, must equal the oracle's ``Fraction`` fold.  The
kernel's heap key must order words as the rule key does, reversed.  The
standard-word enumerator, which tests parents instead of searching, must
list exactly the words below the cut that no lead divides, and call a cut
closed exactly when every word in the band of degrees just past it is
divisible.  Every rule's stored reducer must be the primitive one of its
polynomial.
"""

import functools
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncdef import ncgb
from ncdef.commpoly import _cleared, _primitive
from ncdef.exprparse import presentation_parse
from ncdef.freealg import NcOrder, NcPoly, canon_word, genset, word_mul
from ncdef.ncgb import (
    RewriteRule,
    TruncatedGB,
    _fold_trace,
    _irreducible_words,
    _prov_view,
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
from oracle import first_division, fraction_fold, rescan_reduce

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
    # a^3 leads the first rule, b*a^3 is divided by it while the second
    # relation reduces, and the lead a^2 of the third retires it
    "retiring": presentation_parse(
        "generators: a b c\nweights: 1 1 4\n"
        "relations: a^3 + c ; b*a^3 + b^2 ; a^2 + b^3\n"
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_heap_key_reverses_the_rule_key(data):
    """Over 2-4 generators with 0-2 of them central and weights 1-3, under
    both orders: heap_key(a) < heap_key(b) exactly when rule_key(a) >
    rule_key(b), and the heap keys of distinct words differ.  The second
    word is often a rearrangement of the first, of the same degree and
    length."""
    n = data.draw(st.integers(2, 4))
    names = [f"g{i}" for i in range(n)]
    gens = genset(names,
                  data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
                  data.draw(st.lists(st.sampled_from(names), max_size=2, unique=True)))
    order = NcOrder(gens, data.draw(st.sampled_from(["deglex", "wdeglex"])))
    letters = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    a = canon_word(gens, letters)
    b = canon_word(gens, data.draw(
        st.permutations(letters) | st.lists(st.integers(0, n - 1), max_size=6)))
    assert ((order.heap_key(a) < order.heap_key(b))
            == (order.rule_key(a) > order.rule_key(b)))
    assert (order.heap_key(a) == order.heap_key(b)) == (a == b)


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
    return gens, [RewriteRule(gens, (lead, 1, []), None, True, k)
                  for k, lead in enumerate(leads)], w


@settings(max_examples=200, deadline=None)
@given(divisor_cases())
def test_find_division_is_the_oracles_first_division(case):
    gens, rules, w = case
    # rules compare by identity, so this checks the rule object too
    assert find_division(gens, rules, w) == first_division(gens, rules, w)


def _check_cached_divisions(gb):
    """Every cached entry, resolved through the lookup the kernel uses, is
    the oracle's first division over the active rules: a retired hit and a
    miss that has not seen the newest rules both resume their search."""
    gens, active = gb.gens, gb.active_rules()
    for w in list(gb.reductions):
        hit = gb.division(w)
        assert hit == first_division(gens, active, w)
        if hit is not None:
            rule, u, v = hit
            assert word_mul(gens, word_mul(gens, u, rule.lead), v) == w


@pytest.mark.parametrize("trunc", [4, 5, 6, 7])
@pytest.mark.parametrize("name", PRESENTATIONS)
def test_cached_divisions_stay_valid_during_completion(monkeypatch, name, trunc):
    real = ncgb._reduce
    calls = 0

    def checked(work, scale, gb):
        nonlocal calls
        calls += 1
        red = real(work, scale, gb)
        _check_cached_divisions(gb)
        return red

    monkeypatch.setattr(ncgb, "_reduce", checked)
    nc_complete(PRESENTATIONS[name], trunc)
    assert calls


# karmazyn-3 has rules whose tails have denominators 9 and 2 (reducer L > 1),
# non-unit rules whose provenance denominators run up to 60, and laufer-1-sym
# an inexact rule
FOLDED = {
    "karmazyn-3": karmazyn_contraction_presentation(3),
    "non-unit": PRESENTATIONS["non-unit"],
    "laufer-1-sym": PRESENTATIONS["laufer-1-sym"],
}


@pytest.mark.parametrize("provenance", [True, False], ids=["prov", "noprov"])
@pytest.mark.parametrize("trunc", [5, TRUNC])
@pytest.mark.parametrize("name", sorted(PRESENTATIONS.keys() | FOLDED.keys()))
def test_stored_reducers_are_primitive(name, trunc, provenance):
    """A rule keeps its polynomial only as its reducer (lead, L, R), retired
    rules and re-reduced tails included: the primitive vector of the monic
    rule, with L > 0 and gcd(L, R) = 1, which the views ``tail`` and
    ``poly()`` turn back into lead - tail."""
    p = PRESENTATIONS.get(name) or FOLDED[name]
    gb = nc_complete(p, trunc, provenance)
    for r in gb.rules:
        lead, L, R = r.red
        assert lead == r.lead and L > 0 and gcd(L, *(c for _, c in R)) == 1
        assert r.red == _primitive(r.lead, _cleared(r.poly())[0])
        assert r.poly() == NcPoly(gb.gens, {r.lead: 1}) - r.tail


@st.composite
def folds(draw):
    """A fresh completion, which a fold may write into, and raw trace steps
    ``(c, s, u, i, v)`` over its rules.  The scale s only grows, by a factor
    per step, as in the kernel; with ``owner`` set the fold goes into that
    rule's own provenance, and its steps often use that rule."""
    gb = nc_complete(FOLDED[draw(st.sampled_from(sorted(FOLDED)))], TRUNC)
    letters = st.lists(st.integers(0, len(gb.gens.names) - 1), max_size=3)
    words = letters.map(lambda ls: canon_word(gb.gens, ls))
    owner = draw(st.none() | st.integers(0, len(gb.rules) - 1))
    index = st.integers(0, len(gb.rules) - 1)
    if owner is not None:
        index = index | st.just(owner)
    steps = draw(st.lists(
        st.tuples(st.integers(-12, 12).filter(bool), st.sampled_from([1, 1, 2, 3, 5, 6]),
                  words, index, words),
        min_size=1, max_size=6))
    trace, scale = [], 1
    for c, a, u, i, v in steps:
        scale *= a
        trace.append((c, scale, u, i, v))
    return gb, trace, owner, draw(st.sampled_from([1, -1]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(folds())
def test_integer_fold_matches_the_fraction_fold(case):
    gb, trace, owner, sign = case
    provs = {r.idx: r.prov for r in gb.rules}
    if owner is None:
        acc, want = [{}, 1], {}
    else:
        acc, want = gb.rules[owner].acc, provs[owner]
    exact = _fold_trace(gb, trace, acc, sign)
    steps = [(Fraction(c, s), u, i, v) for c, s, u, i, v in trace]
    fraction_fold(gb.gens, provs, steps, want, sign)
    assert _prov_view(acc) == want
    assert all(type(c) is int for c in acc[0].values())
    assert exact == all(gb.rules[i].exact for _, _, _, i, _ in trace)


def test_integer_fold_into_its_own_rule_with_denominators():
    """One fixed fold that has every case at once: a rule whose reducer has
    L > 1 and whose provenance has a denominator, folded into its own
    provenance, with the scale changing between the steps."""
    gb = nc_complete(FOLDED["karmazyn-3"], TRUNC)
    rule = next(r for r in gb.rules if r.red[1] > 1 and r.acc[1] > 1)
    other = next(r for r in gb.rules if r.red[1] > 1 and r is not rule)
    b = (gb.gens.index("b"),)
    trace = [(3, 1, (), rule.idx, ()), (4, 2, b, other.idx, ()),
             (-7, 10, (), rule.idx, b), (5, 10, b, rule.idx, b)]
    provs = {r.idx: r.prov for r in gb.rules}
    want = provs[rule.idx]
    _fold_trace(gb, trace, rule.acc, -1)
    fraction_fold(gb.gens, provs, [(Fraction(c, s), u, i, v) for c, s, u, i, v in trace],
                  want, -1)
    assert rule.prov == want


@st.composite
def lead_systems(draw):
    """Rules with random leads (only the leads are read) over 2-3
    generators with 0-2 of them central and weights 1-3, under either
    order, at a cut of 2-5."""
    n = draw(st.integers(2, 3))
    names = [f"g{i}" for i in range(n)]
    gens = genset(names,
                  draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
                  draw(st.lists(st.sampled_from(names), max_size=2, unique=True)))
    order = NcOrder(gens, draw(st.sampled_from(["deglex", "wdeglex"])))
    words = st.lists(st.integers(0, n - 1), min_size=1, max_size=4).map(
        lambda ls: canon_word(gens, ls))
    leads = draw(st.lists(words, max_size=5, unique=True))
    rules = [RewriteRule(gens, (lead, 1, []), None, True, k)
             for k, lead in enumerate(leads)]
    return TruncatedGB(gens, order, draw(st.integers(2, 5)), rules)


def _canonical_words(gens, max_len):
    n = len(gens.names)
    return {canon_word(gens, ls) for k in range(max_len + 1)
            for ls in product(range(n), repeat=k)}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lead_systems())
def test_standard_words_are_those_no_lead_divides(gb):
    """``_irreducible_words`` lists, by length and then in word order, the
    canonical words of degree < the cut that ``find_division`` finds no
    lead for.  The cut is closed exactly when every word of degree in
    [cut, cut + heaviest letter) has a lead dividing it: each word past the
    cut extends one of those, found where its letters first reach the
    cut."""
    gens, order, cut, rules = gb.gens, gb.order, gb.trunc, gb.rules
    top = cut + max(gens.weights) - 1
    words = _canonical_words(gens, top)
    standard = sorted((w for w in words if order.degree(w) < cut
                       and find_division(gens, rules, w) is None),
                      key=lambda w: (len(w), order.key(w)))
    closed = all(find_division(gens, rules, w) for w in words
                 if cut <= order.degree(w) <= top)
    assert _irreducible_words(gb) == (standard, closed)
