import pytest

from ncdef.freealg import NcPoly, genset, word_mul, word_str
from ncdef.ncgb import (
    DimensionUndefinedError,
    Presentation,
    PresentationError,
    derive_check,
    expand_certificate,
    find_division,
    nc_complete,
    nc_reduce,
    quotient_report,
)
from ncdef.zoo import (
    _claimed_genset,
    claimed_relation_readings,
    karmazyn_contraction_presentation,
)
from oracle import brute_force_dim

G2 = genset(["a", "b"])
A = NcPoly.gen(G2, "a")
B = NcPoly.gen(G2, "b")


def _pres(gens, rels, order="deglex"):
    return Presentation(gens, tuple(rels), order)


def laufer(n):
    g = genset(["a", "b"], weights=[2 * n + 1, 2])
    a, b = NcPoly.gen(g, "a"), NcPoly.gen(g, "b")
    return _pres(g, [a * b + b * a, a * a + b ** (2 * n + 1)], "wdeglex")


def length2_claimed():
    g = genset(["t", "a", "b"], central=["t"])
    t, a, b = (NcPoly.gen(g, n) for n in ("t", "a", "b"))
    return _pres(
        g, [t * a * b - t * b * a, a * b * b - b * b * a, a * a * b - b * a * a]
    )


# ---------------------------------------------------------------- validation


def test_presentation_rejects_constant_term():
    with pytest.raises(PresentationError):
        _pres(G2, [A + NcPoly.const(G2, 1)])
    with pytest.raises(PresentationError):
        _pres(G2, [NcPoly.zero(G2)])


# ---------------------------------------------------------------- reduction


def test_find_division_central_and_position():
    g = genset(["t", "a", "b"], central=["t"])
    t, a, b = 0, 1, 2
    # lead t*a inside t*b*a*b: central t divides, nc part a at position 1
    hit = find_division(g, (t, a), (t, b, a, b))
    assert hit is not None
    u, v = hit
    assert word_mul(g, word_mul(g, u, (t, a)), v) == (t, b, a, b)
    assert find_division(g, (t, a), (a, b)) is None  # central part missing


def test_nc_reduce_hand_rules():
    # single relation a^2 -> completed basis rewrites a^2 to 0 (monomial ideal)
    p = _pres(G2, [A * A])
    gb = nc_complete(p, 6)
    r = nc_reduce(A * A * B + B, gb)
    assert r.poly == B
    # idempotence
    again = nc_reduce(r.poly, gb)
    assert again.poly == r.poly


def test_completion_example_leads():
    # relations ab+ba, a^2+b^3 under plain deglex:
    # completed lead words {a^2, ba, ab^3, b^6}
    p = _pres(G2, [A * B + B * A, A * A + B ** 3])
    gb = nc_complete(p, 8)
    leads = {word_str(p.gens, w) for w in gb.lead_words()}
    assert leads == {"a^2", "b*a", "a*b^3", "b^6"}


# ------------------------------------------------------- brute-force oracle

CORPUS = [
    ("laufer-n1", laufer(1)),
    ("free-1gen", _pres(genset(["a"]), [])),
    ("cube-zero", _pres(genset(["a"]), [NcPoly.gen(genset(["a"]), "a") ** 3])),
    ("anticomm-only", _pres(G2, [A * B + B * A])),
    ("sum-of-squares", _pres(G2, [A * B + B * A, A * A + B * B])),
    ("deformed-squares", _pres(G2, [A * B + B * A, A * A + B * B + B ** 3])),
    ("comm-cube", _pres(G2, [A * B - B * A, A ** 3, B * B])),
    ("length2-claimed", length2_claimed()),
]


@pytest.mark.parametrize("name,p", CORPUS, ids=[n for n, _ in CORPUS])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_truncated_dimension_matches_brute_force(name, p, n):
    from ncdef.ncgb import _irreducible_words

    gb = nc_complete(p, n)
    assert len(_irreducible_words(gb)) == brute_force_dim(p, n)


def _system(gb):
    return [(r.lead, r.tail, r.exact, r.active) for r in gb.rules]


@pytest.mark.parametrize("name,p", CORPUS, ids=[n for n, _ in CORPUS])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_provenance_does_not_change_the_system(name, p, n):
    assert _system(nc_complete(p, n, True)) == _system(nc_complete(p, n, False))


def test_exact_rule_provenance_replays():
    replayed = 0
    for _, p in CORPUS:
        for n in (3, 5, 7):
            for r in nc_complete(p, n, True).rules:
                if r.exact:
                    assert expand_certificate(p, r.prov) == r.poly()
                    replayed += 1
    assert replayed == 35


KARMAZYN = [
    ("source-3", karmazyn_contraction_presentation(3)),
    ("claimed-4", _pres(_claimed_genset(4),
                        [readings[0][1] for readings in claimed_relation_readings(4)])),
]


@pytest.mark.parametrize("name,p", KARMAZYN, ids=[n for n, _ in KARMAZYN])
def test_karmazyn_exact_rules_replay(name, p):
    gb = nc_complete(p, 8, True)
    assert _system(gb) == _system(nc_complete(p, 8, False))
    exact = [r for r in gb.rules if r.exact]
    assert exact
    for r in exact:
        assert expand_certificate(p, r.prov) == r.poly()


# --------------------------------------------------------- quotient reports


def test_quotient_report_laufer_n1():
    rep = quotient_report(laufer(1))
    assert rep.status == "finite"
    assert rep.dim == 9
    basis = {word_str(rep.gb.gens, w) for w in rep.basis}
    assert basis == {
        "1", "a", "b", "a*b", "b^2", "a^2", "a*b^2", "a^2*b", "a^2*b^2"
    }
    assert rep.weight_list == [0, 2, 3, 4, 5, 6, 7, 8, 10]
    assert rep.certified_at is not None


def test_quotient_report_not_finite():
    p = _pres(G2, [A * B + B * A, A * A + B * B])
    rep = quotient_report(p, maxN=12)
    assert rep.status == "not-finite"
    assert rep.up_to == 12


def test_quotient_report_basis_counts_monotone():
    from ncdef.ncgb import _irreducible_words

    p = laufer(1)
    counts = [len(_irreducible_words(nc_complete(p, n))) for n in range(2, 9)]
    assert counts == sorted(counts)
    assert counts[-1] == counts[-2] == 9


def test_free_central_parameter_rejected():
    g = genset(["t", "a"], central=["t"])
    t, a = NcPoly.gen(g, "t"), NcPoly.gen(g, "a")
    with pytest.raises(DimensionUndefinedError):
        quotient_report(_pres(g, [a * a]))


# ------------------------------------------------------------- certificates


def test_derive_check_certificate_replay():
    p = length2_claimed()
    g = p.gens
    t, a, b = (NcPoly.gen(g, n) for n in ("t", "a", "b"))
    claim = (a * a) * b - b * (a * a)
    res = derive_check(p, [claim], trunc=8)[0]
    assert res.status == "certified-zero"
    assert expand_certificate(p, res.certificate) == claim


def test_derive_check_inconclusive_and_nonzero():
    p = _pres(G2, [A * B + B * A])
    res = derive_check(p, [A * A], trunc=8)[0]
    assert res.status == "inconclusive"
    assert not res.normal_form.is_zero()
