import random
from fractions import Fraction
from itertools import product

import pytest

from ncdef.commpoly import CommPoly, varset
from ncdef.freealg import (
    CentralityError,
    NcOrder,
    NcPoly,
    canon_word,
    commutator,
    genset,
    nc_abelianize,
    nc_substitute,
    word_mul,
    word_str,
    word_weight,
)

G2 = genset(["a", "b"])
G3 = genset(["t", "a", "b"], central=["t"])


def _rand_poly(rng, gens, max_terms=4, max_len=3):
    f = NcPoly.zero(gens)
    for _ in range(rng.randint(0, max_terms)):
        letters = [
            rng.randrange(len(gens.names)) for _ in range(rng.randint(0, max_len))
        ]
        f = f + NcPoly.word(gens, letters, Fraction(rng.randint(-3, 3)))
    return f


@pytest.mark.parametrize("gens", [G2, G3])
def test_ring_axioms_randomized(gens):
    rng = random.Random(17)
    one = NcPoly.const(gens, 1)
    for _ in range(40):
        f, g, h = (_rand_poly(rng, gens) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (g + h) * f == g * f + h * f
        assert f * one == one * f == f
        assert f - f == NcPoly.zero(gens)


def test_noncommutativity_visible():
    a, b = NcPoly.gen(G2, "a"), NcPoly.gen(G2, "b")
    assert a * b != b * a


def test_central_letters_commute():
    t, a = NcPoly.gen(G3, "t"), NcPoly.gen(G3, "a")
    assert t * a == a * t
    assert canon_word(G3, [1, 0]) == canon_word(G3, [0, 1])  # t pulled front


def test_word_weight_and_str():
    gw = genset(["a", "b"], weights=[3, 2])
    w = canon_word(gw, [0, 1, 1])
    assert word_weight(gw, w) == 7
    assert word_str(gw, w) == "a*b^2"
    assert word_str(G2, ()) == "1"


def test_order_properties_to_length_4():
    order = NcOrder(G2, "deglex")
    words = [()]
    level = [()]
    for _ in range(4):
        level = [w + (g,) for w in level for g in range(2)]
        words += level
    keys = [order.key(w) for w in words]
    assert len(set(keys)) == len(keys)  # total order
    # multiplication is order-compatible: u < v => wu < wv and uw < vw
    short = [w for w in words if len(w) <= 2]
    for u, v in product(short, repeat=2):
        if order.key(u) < order.key(v):
            for w in short:
                assert order.key(word_mul(G2, w, u)) < order.key(word_mul(G2, w, v))
                assert order.key(word_mul(G2, u, w)) < order.key(word_mul(G2, v, w))


def test_rule_key_prefers_low_degree():
    order = NcOrder(G2, "deglex")
    a, aa = (0,), (0, 0)
    assert order.rule_key(a) > order.rule_key(aa)


def test_nc_substitute_homomorphism():
    rng = random.Random(23)
    a, b = NcPoly.gen(G2, "a"), NcPoly.gen(G2, "b")
    images = {"a": a * b - b, "b": a + NcPoly.const(G2, 2)}
    for _ in range(15):
        f, g = _rand_poly(rng, G2), _rand_poly(rng, G2)
        sf, sg = nc_substitute(f, images), nc_substitute(g, images)
        assert nc_substitute(f + g, images) == sf + sg
        assert nc_substitute(f * g, images) == sf * sg


def test_nc_substitute_centrality_guard():
    t = NcPoly.gen(G3, "t")
    a = NcPoly.gen(G3, "a")
    with pytest.raises(CentralityError):
        nc_substitute(t, {"t": a})  # non-central image for a central letter


def test_commutator_and_component():
    a, b = NcPoly.gen(G2, "a"), NcPoly.gen(G2, "b")
    assert commutator(a, b) == a * b - b * a


def test_abelianize_is_ring_hom():
    rng = random.Random(31)
    for _ in range(15):
        f, g = _rand_poly(rng, G2), _rand_poly(rng, G2)
        assert nc_abelianize(f * g) == nc_abelianize(f) * nc_abelianize(g)
        assert nc_abelianize(f + g) == nc_abelianize(f) + nc_abelianize(g)


def test_abelianize_kills_commutators():
    a, b = NcPoly.gen(G2, "a"), NcPoly.gen(G2, "b")
    assert nc_abelianize(a * b - b * a).is_zero()
    v = varset("a", "b")
    assert nc_abelianize(a * b + b * a) == (
        CommPoly.variable(v, "a") * CommPoly.variable(v, "b")
    ).scale(2)
