"""Tests of the rewriting engine: division, reduction, completion, quotient
reports and certificates.

``tests/golden/rule_systems.json`` pins whole completed rule systems (lead,
tail, provenance, exact and active flags) by digest.  To record it again
after an intended change of behaviour, run

    PYTHONPATH=src:tests python tests/test_ncgb.py
"""

import ast
import hashlib
import json
import pathlib
import sys

import pytest

from ncdef import ncgb
from ncdef.commpoly import GrlexOrder, VarSet, local_report
from ncdef.exprparse import presentation_parse
from ncdef.freealg import NcPoly, genset, nc_abelianize, word_mul, word_str
from ncdef.ncgb import (
    DimensionUndefinedError,
    Presentation,
    PresentationError,
    RewriteRule,
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
    laufer_presentation,
    standard_lambda,
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
    rule = RewriteRule((t, a), NcPoly.zero(g), {}, True, 0)
    # lead t*a inside t*b*a*b: central t divides, nc part a at position 1
    hit = find_division(g, [rule], (t, b, a, b))
    assert hit is not None
    got, u, v = hit
    assert got is rule
    assert word_mul(g, word_mul(g, u, (t, a)), v) == (t, b, a, b)
    assert find_division(g, [rule], (a, b)) is None  # central part missing


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
    leads = {word_str(p.gens, r.lead) for r in gb.active_rules()}
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


# Completions that take the central-letter pairs of ``gen_pairs``: both reach
# a central-only lead against a mixed lead that shares its central letters,
# and A also two central-only leads that share letters.
CENTRAL_PAIRS = {
    "A": "generators: a b\ncentral: t u\nrelations: t*u + a*b*a ; t^2 + b*a*b\n",
    "B": "generators: a b\ncentral: t u\nrelations: t*u + a*b*a*b ; t*a*b + a^4\n",
}


@pytest.mark.parametrize("name", sorted(CENTRAL_PAIRS))
@pytest.mark.parametrize("n", range(2, 8))
def test_central_pairs_match_brute_force(name, n):
    from ncdef.ncgb import _irreducible_words

    p = presentation_parse(CENTRAL_PAIRS[name])
    gb = nc_complete(p, n, provenance=False)
    assert len(_irreducible_words(gb)) == brute_force_dim(p, n)


def _engine_dim(text, n):
    from ncdef.ncgb import _irreducible_words

    p = presentation_parse(text)
    return len(_irreducible_words(nc_complete(p, n, provenance=False))), p


# A wdeglex presentation in which, under a length cut, a rule already closed
# under the cut got a shorter tail word and had to be closed again.
RECLOSE = (
    "generators: c0 a b\nweights: 4 1 2\ncentral: c0\n"
    "relations: 2*a^2 + 2*a*b^2 + c0*a*b^2 ; a^3 - c0*a^2 ; 2*c0 + a*b - b^2\n"
)


@pytest.mark.parametrize("n", range(5, 9))
def test_cutoff_extension_reclose_matches_brute_force(n):
    got, p = _engine_dim(RECLOSE, n)
    assert got == brute_force_dim(p, n)


# More weighted presentations against the weight-cut oracle, at cuts 3-11.
# Under a length cut the engine overcounted both: "shortening" (a rule whose
# tail is shorter than its lead) from cut 5 on, and "c0-a-b" from cut 7 on.
WEIGHTED = {
    "shortening": "generators: a t\nweights: 2 1\ncentral: t\nrelations: a + t^2\n",
    "c0-a-b": (
        "generators: c0 a b\nweights: 4 3 2\ncentral: c0\n"
        "relations: -c0^2 - b*a^2 - c0*b^2\n"
    ),
}


@pytest.mark.parametrize("n", range(3, 12))
@pytest.mark.parametrize("name", sorted(WEIGHTED))
def test_weighted_cut_matches_brute_force(name, n):
    got, p = _engine_dim(WEIGHTED[name], n)
    assert got == brute_force_dim(p, n)


# ``gen_pairs`` queues only cmax*pn*qn for leads that share central letters,
# but such leads compete at any distance (ROADMAP item 2): the engine gives
# 41, 78, 148 where the oracle gives 40, 72, 125.
GAP_PAIR = "generators: a b t\ncentral: t\nrelations: a^2 + t*a\n"


@pytest.mark.xfail(strict=True, reason="gap pairs of shared central letters (ROADMAP item 2)")
@pytest.mark.parametrize("n", range(5, 8))
def test_gap_pair_matches_brute_force(n):
    got, p = _engine_dim(GAP_PAIR, n)
    assert got == brute_force_dim(p, n)


def _system(gb):
    return [(r.lead, r.tail, r.exact, r.active) for r in gb.rules]


@pytest.mark.parametrize("name,p", CORPUS, ids=[n for n, _ in CORPUS])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_provenance_does_not_change_the_system(name, p, n):
    assert _system(nc_complete(p, n, True)) == _system(nc_complete(p, n, False))


def test_exact_rule_provenance_replays():
    replayed = dict.fromkeys((name for name, _ in CORPUS), 0)
    for name, p in CORPUS:
        for n in (3, 5, 7):
            for r in nc_complete(p, n, True).rules:
                if r.exact:
                    assert expand_certificate(p, r.prov) == r.poly()
                    replayed[name] += 1
    # laufer-n1 is weighted (3 and 2), so its cuts 3, 5 and 7 keep fewer
    # words than length cuts would; the deglex entries are cut by length
    assert replayed.pop("laufer-n1") == 2
    assert sum(replayed.values()) == 28


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


# ------------------------------------------------------ pinned rule systems

RULE_SYSTEMS = pathlib.Path(__file__).parent / "golden" / "rule_systems.json"

PINNED = {
    # the weighted ones at the cuts quotient_report takes: (2n+1)*k + 1
    **{
        f"laufer-{n}-{i}": (laufer_presentation(n, standard_lambda(n, i)),
                            range(2 * n + 2, 12 * n + 8, 2 * n + 1))
        for n in (1, 2)
        for i in range(2 * n + 1)
    },
    "laufer-1-sym": (laufer_presentation(1, ["sym", "sym"]), range(3, 10)),
    "karmazyn-2": (karmazyn_contraction_presentation(2), range(3, 10)),
    "karmazyn-3": (karmazyn_contraction_presentation(3), range(3, 9)),
    "karmazyn-4": (karmazyn_contraction_presentation(4), range(3, 10)),
}


def _system_digest(gb):
    """sha256 of every rule's lead, tail, provenance, exact and active flag."""
    h = hashlib.sha256()
    for r in gb.rules:
        entry = (r.lead, sorted(r.tail.terms.items()), sorted(r.prov.items()),
                 r.exact, r.active)
        h.update(repr(entry).encode())
    return h.hexdigest()


def _pinned_digests(name):
    p, cutoffs = PINNED[name]
    return {
        f"{name}/{n}/{'prov' if prov else 'noprov'}": _system_digest(nc_complete(p, n, prov))
        for n in cutoffs
        for prov in (True, False)
    }


@pytest.mark.parametrize("name", sorted(PINNED))
def test_rule_system_matches_pinned(name, monkeypatch):
    # every pinned completion pops under 200 items; a tight step limit turns
    # a runaway completion (say, from stale cached reductions) into an error
    monkeypatch.setattr(ncgb, "_MAX_COMPLETION_STEPS", 2_000)
    pinned = json.loads(RULE_SYSTEMS.read_text(encoding="utf-8"))
    got = _pinned_digests(name)
    assert got == {k: v for k, v in pinned.items() if k.startswith(name + "/")}


def _compares_len_with_trunc(node):
    operands = [node.left, *node.comparators]
    has_len = any(isinstance(o, ast.Call) and isinstance(o.func, ast.Name)
                  and o.func.id == "len" for o in operands)
    has_trunc = any(
        isinstance(x, ast.Name) and x.id == "trunc"
        or isinstance(x, ast.Attribute) and x.attr == "trunc"
        for o in operands for x in ast.walk(o)
    )
    return has_len and has_trunc


def test_the_cut_is_on_the_order_degree_only():
    """The cut has one definition, the order's degree: no comparison in the
    engine puts a word length against ``trunc``."""
    tree = ast.parse(pathlib.Path(ncgb.__file__).read_text(encoding="utf-8"))
    bad = [node.lineno for node in ast.walk(tree)
           if isinstance(node, ast.Compare) and _compares_len_with_trunc(node)]
    assert not bad, f"len(...) compared with trunc at lines {bad}"


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

    p = laufer(1)  # its top basis weight is 10
    counts = [len(_irreducible_words(nc_complete(p, n))) for n in range(2, 13)]
    assert counts == sorted(counts)
    assert counts[-1] == counts[-2] == 9


ALL_CENTRAL = {
    "cusp-and-xy": "x y ; x^2 - y^3 ; x*y",
    "cusp": "x y ; x^2 - y^3",
    "f0-jacobian": "x y z w ; 2*x ; 3*y^2 + w^3 ; 2*z*w ; z^2 + 3*y*w^2",
    "inhomogeneous": "x y ; x^2 + x^3*y ; y^3 - x*y^2 + x^4",
}


@pytest.mark.parametrize("name", sorted(ALL_CENTRAL))
def test_both_engines_certify_an_all_central_presentation_alike(name):
    """With every generator central the rewriting engine computes a
    commutative quotient, so its tower and commutative local_report's must
    certify at the same cut with the same dimension.  The bases are not
    compared: rules lead with the lowest-degree term and grlex with the
    highest, so on an inhomogeneous ideal the standard monomials differ."""
    names, *rels = ALL_CENTRAL[name].split(" ; ")
    p = presentation_parse(
        f"generators: {names}\ncentral: {names}\nrelations: {' ; '.join(rels)}\n")
    crep = local_report([nc_abelianize(r) for r in p.relations],
                        GrlexOrder(VarSet(p.gens.names)), 9)
    rep = quotient_report(p, 9, allow_free_central=True)
    assert (rep.status, len(rep.basis), rep.certified_at) == (
        crep.status, crep.dim, crep.certified_at)
    assert rep.dim == (crep.dim if crep.status == "finite" else None)


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


if __name__ == "__main__":
    digests = {}
    for name in sorted(PINNED):
        digests.update(_pinned_digests(name))
    RULE_SYSTEMS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"recorded {len(digests)} rule systems", file=sys.stderr)
