"""Acceptance suite: twelve headline checks, one printed verdict line each.

Each test prints ``[ACCEPTANCE nn] PASS|FAIL <summary> (t s)`` and then
asserts, so the verdict survives in captured output either way.
"""

import math
import random
import time
from fractions import Fraction

from ncdef.commpoly import (
    CommPoly,
    GrlexOrder,
    groebner,
    partials,
    quotient_basis,
    varset,
)
from ncdef.freealg import NcPoly, genset, word_str
from ncdef.matfac import (
    generator_identity_suite,
    matrix_identity_suite,
    mf_verify,
    polynomial_identity_suite,
)
from ncdef.ncgb import (
    Presentation,
    abelianization_report,
    derive_check,
    expand_certificate,
    nc_complete,
    nc_reduce,
    quadratic_classify,
    quotient_report,
)
from ncdef.zoo import (
    karmazyn_contraction_presentation,
    laufer_presentation,
    length2_claimed_presentation,
    length2_universal_suite,
    verify_higher_length,
)
from oracle import brute_force_dim


def _verdict(num, ok, summary, t0, budget):
    elapsed = time.monotonic() - t0
    in_budget = elapsed < budget
    line = (
        f"[ACCEPTANCE {num:02d}] {'PASS' if ok and in_budget else 'FAIL'} "
        f"{summary} ({elapsed:.2f}s)"
    )
    print(line)
    assert ok and in_budget, line


G2 = genset(["a", "b"])
A = NcPoly.gen(G2, "a")
B = NcPoly.gen(G2, "b")


def test_01_matrix_factorization():
    t0 = time.monotonic()
    _verdict(1, mf_verify(), "4x4 matrix factorization of the quintic", t0, 1)


def test_02_generator_identities():
    t0 = time.monotonic()
    mats = matrix_identity_suite()
    gens = generator_identity_suite()
    memberships = [
        v for k, v in gens.items()
        if k.endswith("in_image") and "swapped" not in k
    ]
    matches = [v for k, v in gens.items() if k.endswith("matches")]
    ok = (
        all(mats.values())
        and len(memberships) == 3
        and all(memberships)
        and all(matches)
    )
    _verdict(2, ok, "generator composites and image memberships", t0, 10)


def test_03_deformed_family_dimensions():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        rep = quotient_report(laufer_presentation(n, [0] * (2 * n)))
        basis = {word_str(rep.gb.gens, w) for w in rep.basis}
        expected = {
            word_str(rep.gb.gens, (0,) * s + (1,) * t)
            for s in range(3)
            for t in range(2 * n + 1)
        }
        ok = ok and (
            rep.status == "finite"
            and rep.dim == 6 * n + 3
            and rep.certified_at is not None
            and basis == expected
        )
    _verdict(3, ok, "dimensions 9/15/21 with monomial bases certified", t0, 60)


def test_04_square_deformation_pair():
    t0 = time.monotonic()
    deformed = Presentation(G2, (A * B + B * A, A * A + B * B + B ** 3), "deglex")
    plain = Presentation(G2, (A * B + B * A, A * A + B * B), "deglex")
    r1 = quotient_report(deformed)
    r2 = quotient_report(plain, maxN=20)
    # An outside claim put the deformed pair at dim 9; that is impossible.
    # With ab = -ba, a^3 computed as a*a^2 and as a^2*a gives 2b^3a = 0, and
    # a^4 as a^2*a^2 and as a*a^3 gives b^5(1+b) = 0, so b^5 = 0 (b is
    # nilpotent below the cutoff). Hence {b^i : i <= 4} u {b^i a : i <= 2}
    # spans and dim <= 8; the brute-force oracle agrees on 8.
    ok = (
        r1.status == "finite"
        and r1.dim == 8
        and r1.dim == brute_force_dim(deformed, r1.certified_at)
        and r2.status == "not-finite"
        and r2.up_to == 20
    )
    _verdict(
        4, ok,
        f"deformed pair dim 8 (engine: {r1.dim}; outside claim 9 is "
        "impossible: dim <= 8); undeformed pair not finite up to 20",
        t0, 30,
    )


def test_05_abelianization_dimensions():
    t0 = time.monotonic()
    expected = {1: [5, 4, 5], 2: [7, 4, 6, 7, 7]}
    ok = True
    for n, dims in expected.items():
        for i, want in enumerate(dims):
            lam = [Fraction(0)] * (2 * n)
            if i:
                lam[i - 1] = Fraction(1)
            # raises InternalConsistencyError if the two engines disagree
            ab = abelianization_report(laufer_presentation(n, lam))
            ok = ok and ab.dim == want and ab.comm_report.dim == want
    _verdict(5, ok, "abelianized dims match the independent commutative engine",
             t0, 60)


def test_06_critical_point_quotient_basis():
    t0 = time.monotonic()
    v = varset("x", "y", "z", "w")
    x, y, z, w = (CommPoly.variable(v, n) for n in v.names)
    f0 = x * x + y ** 3 + z * z * w + y * w ** 3
    qb = quotient_basis(groebner(partials(f0), GrlexOrder(v)), 30)
    got = {m for m in qb.monomials}
    # An outside claim listed 12 standard monomials (w^1..w^5 among them);
    # that is impossible. f0 is quasi-homogeneous with an isolated critical
    # point at the origin, so by Milnor-Orlik every monomial basis of the
    # quotient has mu = prod(1/w_i - 1) elements, and w^3 is the grlex lead
    # of df0/dy = 3y^2 + w^3. The grlex standard monomials (x, y, z, w)
    # below agree with sympy.groebner (tests/test_commpoly.py).
    weights = (Fraction(1, 2), Fraction(1, 3), Fraction(7, 18), Fraction(2, 9))
    mu = math.prod(1 / wt - 1 for wt in weights)
    expected = {
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 1, 0),
        (0, 0, 2, 0), (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0),
        (0, 1, 2, 0), (0, 2, 0, 0), (0, 2, 0, 1),
    }
    quasi_homogeneous = all(
        sum(wt * e for wt, e in zip(weights, m)) == 1 for m in f0.terms
    )
    ok = (
        quasi_homogeneous
        and qb.finite
        and got == expected
        and len(got) == mu == 11
    )
    _verdict(
        6, ok,
        f"critical-locus quotient equals the 11-monomial Milnor basis "
        f"(engine: {len(got)}, mu = {mu}; outside claim of 12 is impossible)",
        t0, 30,
    )


def test_07_polynomial_identities():
    t0 = time.monotonic()
    ok = all(
        all(polynomial_identity_suite(n).values()) for n in (1, 2)
    )
    _verdict(7, ok, "quadric decomposition, substitution family, Euler identity",
             t0, 10)


def test_08_higher_length_presentations():
    t0 = time.monotonic()
    rep1 = quotient_report(karmazyn_contraction_presentation(1))
    ok = rep1.status == "finite" and rep1.dim == 1
    for l in (2, 3, 4):
        rep = verify_higher_length(l, trunc=10)
        ok = ok and all(v.reading == "literal" for v in rep.forward)
        ok = ok and bool(rep.backward) and all(c.ok for c in rep.backward)
    _verdict(8, ok, "lengths 1-4 certified both directions at degree 10",
             t0, 300)


def test_08b_higher_length_extended():
    t0 = time.monotonic()
    ok = True
    for l in (5, 6):
        rep = verify_higher_length(l, trunc=8)
        for v in rep.forward:
            certified = v.reading is not None or v.corrected_status == "certified-zero"
            reported = bool(v.results)  # never silent: readings tried are recorded
            ok = ok and (certified or reported)
        ok = ok and all(c.ok for c in rep.backward)
    _verdict(8, ok, "lengths 5-6 certify or report reading mismatches",
             t0, 1800)


def test_09_splitting_type_counts():
    t0 = time.monotonic()
    from ncdef.bundle import contraction_splitting_type, expected_presentation_counts

    want = {2: (3, 5, 2), 3: (5, 12, 9), 4: (6, 17, 14),
            5: (7, 23, 20), 6: (7, 23, 20)}
    ok = all(
        expected_presentation_counts(contraction_splitting_type(l)) == c
        for l, c in want.items()
    )
    _verdict(9, ok, "generator/relation/quadratic counts for lengths 2-6", t0, 1)


def test_10_quadratic_classification():
    t0 = time.monotonic()
    ql = quadratic_classify(laufer_presentation(1, [0, 0]))
    q2 = quadratic_classify(length2_claimed_presentation())
    ok = (ql.sym_rank, ql.antisym_rank) == (2, 0) and (
        q2.sym_rank, q2.antisym_rank
    ) == (0, 1)
    _verdict(10, ok, "symmetric vs alternating quadratic parts", t0, 1)


def test_11_length2_universal_suite():
    t0 = time.monotonic()
    rep = length2_universal_suite()
    groups = (rep.forward, rep.backward, rep.abelianized, rep.s1)
    ok = all(g and all(c.ok for c in g) for g in groups)
    _verdict(11, ok, "length-2 universal algebra suite all certified", t0, 120)


def test_12_property_suites():
    t0 = time.monotonic()
    ok = True

    # ring axioms (random spot checks)
    rng = random.Random(7)

    def rand_nc():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            w = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
            c = Fraction(rng.randint(-3, 3))
            if c:
                terms[w] = terms.get(w, Fraction(0)) + c
        return NcPoly(G2, {w: c for w, c in terms.items() if c})

    for _ in range(25):
        f, g, h = rand_nc(), rand_nc(), rand_nc()
        ok = ok and (f + g) + h == f + (g + h)
        ok = ok and f * (g + h) == f * g + f * h
        ok = ok and (f * g) * h == f * (g * h)

    # normal-form idempotence
    p = laufer_presentation(1, [0, 0])
    gb = nc_complete(p, 8)
    for _ in range(10):
        f = rand_nc()
        f = NcPoly(p.gens, dict(f.terms))
        r = nc_reduce(f, gb)
        ok = ok and nc_reduce(r.poly, gb).poly == r.poly

    # truncated basis counts are monotone in the cutoff
    from ncdef.ncgb import _irreducible_words

    counts = [len(_irreducible_words(nc_complete(p, n))[0]) for n in range(2, 9)]
    ok = ok and counts == sorted(counts)

    # certificate replay
    l2 = length2_claimed_presentation()
    la, lb = NcPoly.gen(l2.gens, "a"), NcPoly.gen(l2.gens, "b")
    claim = (la * la) * lb - lb * (la * la)
    res = derive_check(l2, [claim], trunc=8)[0]
    ok = ok and res.status == "certified-zero"
    ok = ok and expand_certificate(l2, res.certificate) == claim

    # brute-force linear-algebra oracle over the corpus
    corpus = [
        Presentation(G2, (A * B + B * A, A * A + B ** 3), "deglex"),
        laufer_presentation(1, [0, 0]),
        Presentation(G2, (A * B + B * A, A * A + B * B), "deglex"),
        length2_claimed_presentation(),
        Presentation(genset(["a"]), (NcPoly.gen(genset(["a"]), "a") ** 3,), "deglex"),
    ]
    for pres in corpus:
        for n in (4, 6, 8):
            engine = len(_irreducible_words(nc_complete(pres, n))[0])
            ok = ok and engine == brute_force_dim(pres, n)

    _verdict(12, ok, "axioms, idempotence, monotonicity, certificates, oracle",
             t0, 300)
