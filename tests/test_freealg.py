import random
from fractions import Fraction
from itertools import product

import pytest

from ncdef.commpoly import CommPoly, VarSetError, substitute, varset
from ncdef.freealg import (
    CentralityError,
    NcOrder,
    NcPoly,
    canon_word,
    commutator,
    genset,
    nc_abelianize,
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


@pytest.mark.parametrize("build", [
    lambda g: NcPoly.word(g, (0, 1), 0.1),
    lambda g: NcPoly(g, {(0,): 0.1}),
    lambda g: NcPoly.const(g, 0.1),
    lambda g: NcPoly.gen(g, "a").scale(0.1),
], ids=["word", "init", "const", "scale"])
def test_float_coefficients_are_refused(build):
    """An NcPoly coefficient goes through the same check as a CommPoly one:
    a float is an error, not its exact binary value."""
    with pytest.raises(ValueError, match=r"^coefficient 0\.1 is a float"):
        build(G2)
    assert NcPoly.word(G2, (0, 1), "1/10") == NcPoly(G2, {(0, 1): Fraction(1, 10)})


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
        sf, sg = substitute(f, images), substitute(g, images)
        assert substitute(f + g, images) == sf + sg
        assert substitute(f * g, images) == sf * sg


def test_nc_substitute_centrality_guard():
    t = NcPoly.gen(G3, "t")
    a = NcPoly.gen(G3, "a")
    with pytest.raises(CentralityError):
        substitute(t, {"t": a})  # non-central image for a central letter


@pytest.mark.parametrize("one, other", [
    (NcPoly.gen(G2, "a"), NcPoly.gen(genset(["a", "c"]), "a")),
    (CommPoly.variable(varset("a", "b"), "a"), CommPoly.variable(varset("a", "c"), "a")),
    (NcPoly.gen(G2, "a"), CommPoly.variable(varset("a", "b"), "a")),
], ids=["nc", "comm", "nc-comm"])
def test_arithmetic_across_sets_raises(one, other):
    for op in (lambda f, g: f + g, lambda f, g: f - g, lambda f, g: f * g):
        with pytest.raises(VarSetError, match="mismatched"):
            op(one, other)
        with pytest.raises(VarSetError, match="mismatched"):
            op(other, one)


def test_nc_and_commutative_polys_never_equal():
    ab = varset("a", "b")
    assert NcPoly.zero(G2) != CommPoly.zero(ab)
    assert CommPoly.zero(ab) != NcPoly.zero(G2)
    assert NcPoly.zero(G2) != CommPoly.zero(G2)
    assert NcPoly.gen(G2, "a") != CommPoly.variable(ab, "a")


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
