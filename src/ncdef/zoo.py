"""Constructors and verification suites for the algebra families under study.

Three families:

* ``laufer_presentation(n, lam)`` — two anticommuting generators a, b of
  weights (2n+1, 2) with the deformed relation a^2 + b^(2n+1) + sum
  lam_i b^(2i); specializations A_0 (lam = 0) and A_i (lam = e_i).
* the length-2 universal algebra on a central t and two generators, with its
  claimed three relations and the six derived central elements.
* ``karmazyn_contraction_presentation(l)`` for l = 1..6 — the contraction
  algebra of the length-l universal flopping family, given by eliminating
  the affine generator d from the quiver presentation; with claimed
  two-generator relation lists verified in both directions.

All numbers in an :class:`InvariantTable` come out of the rewriting engine;
nothing is entered by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from .commpoly import substitute
from .freealg import (
    GenSet,
    NcPoly,
    Word,
    commutator,
    genset,
    nc_abelianize,
)
from .ncgb import (
    ClaimResult,
    Presentation,
    abelianization_report,
    center_basis,
    derive_check,
    quadratic_classify,
    quotient_report,
)

LambdaEntry = Union[Fraction, int, str]  # a rational or the token "sym"


# -- deformed anticommuting family ------------------------------------------

def laufer_lambda(
    n: int, lam: Optional[Sequence[LambdaEntry]]
) -> list[LambdaEntry]:
    """The checked parameters of the Laufer family A(n, lam): 2n entries,
    each a rational (a Fraction, an int or a string such as "1/3") or the
    token "sym"; ``None`` means every entry "sym".  Checks n >= 1 first, then
    each entry, then the count, and returns the entries as Fractions and
    "sym".  A float is refused: its exact binary value is rarely the decimal
    it was written as.  Every error is a ValueError; those about lam name
    lambda."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if lam is None:
        return ["sym"] * (2 * n)
    out: list[LambdaEntry] = []
    for v in lam:
        if isinstance(v, float):
            raise ValueError(f"lambda entry {v!r} is a float; pass a Fraction, "
                             "an int or a string such as '1/10'")
        try:
            out.append("sym" if v == "sym" else Fraction(v))
        except ZeroDivisionError:
            raise ValueError(f"lambda entry {v!r} has a zero denominator") from None
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"lambda entry {v!r} is neither a rational nor 'sym'") from None
    if len(out) != 2 * n:
        raise ValueError(f"need 2n = {2 * n} lambda entries, got {len(out)}")
    return out


def _deformation(b: NcPoly, lam: Sequence[LambdaEntry]) -> NcPoly:
    """b^(2n+1) + sum lam_i * b^(2i) for checked parameters lam_1 .. lam_2n;
    a "sym" lam_i is the central generator li of b's generator set."""
    out = b ** (len(lam) + 1)
    for i, v in enumerate(lam, 1):
        if v == "sym":
            out = out + NcPoly.gen(b.gens, f"l{i}") * b ** (2 * i)
        elif v:
            out = out + (b ** (2 * i)).scale(v)
    return out


def laufer_presentation(n: int, lam: Optional[Sequence[LambdaEntry]]) -> Presentation:
    """Two generators a, b with relations a*b + b*a and
    a^2 + b^(2n+1) + sum lam_i * b^(2i), i = 1..2n, for lam as
    :func:`laufer_lambda` checks it.

    Rational entries specialize the parameters; the token "sym" keeps that
    parameter as a central symbolic generator li (the order then falls back
    to plain degree-lex, since the parameters carry no natural weight).
    """
    lam = laufer_lambda(n, lam)
    symbolic = [f"l{i}" for i, v in enumerate(lam, 1) if v == "sym"]
    if symbolic:
        gens = genset(["a", "b"] + symbolic, central=symbolic)
        order = "deglex"
    else:
        gens = genset(["a", "b"], weights=[2 * n + 1, 2])
        order = "wdeglex"
    a, b = NcPoly.gen(gens, "a"), NcPoly.gen(gens, "b")
    return Presentation(gens, (a * b + b * a, a * a + _deformation(b, lam)), order)


def standard_lambda(n: int, i: int) -> list[Fraction]:
    """lam = 0 for i = 0, the i-th standard basis vector for 1 <= i <= 2n."""
    if not 0 <= i <= 2 * n:
        raise ValueError("specialization index out of range")
    lam = [Fraction(0)] * (2 * n)
    if i:
        lam[i - 1] = Fraction(1)
    return lam


# -- length-2 universal algebra ---------------------------------------------

def _length2_gens() -> GenSet:
    return genset(["t", "a", "b"], central=["t"])


def _length2_relations(g: GenSet) -> list[tuple[str, NcPoly]]:
    """The three claimed relations of the length-2 algebra, labelled."""
    t, a, b = (NcPoly.gen(g, n) for n in ("t", "a", "b"))
    return [
        ("t*a*b-t*b*a", t * a * b - t * b * a),
        ("a*b^2-b^2*a", a * b * b - b * b * a),
        ("a^2*b-b*a^2", a * a * b - b * a * a),
    ]


def length2_claimed_presentation() -> Presentation:
    g = _length2_gens()
    return Presentation(g, tuple(r for _, r in _length2_relations(g)), "deglex")


def length2_central_elements() -> dict[str, NcPoly]:
    """The six elements derived central in the universal algebra, written in
    t, a, b: u = -a^2, w = -b^2, v = -(ab+ba)/2, y = tb, z = -ta,
    x = -tba - vt."""
    g = _length2_gens()
    t, a, b = (NcPoly.gen(g, n) for n in ("t", "a", "b"))
    v = (a * b + b * a).scale(Fraction(-1, 2))
    return {
        "u": -(a * a),
        "w": -(b * b),
        "v": v,
        "y": t * b,
        "z": -(t * a),
        "x": -(t * b * a) - v * t,
    }


@dataclass
class SuiteCheck:
    name: str
    status: str  # "certified-zero" | "inconclusive" | "pass" | "fail"
    detail: Optional[ClaimResult] = None

    @property
    def ok(self) -> bool:
        return self.status in ("certified-zero", "pass")


@dataclass
class Length2Report:
    forward: list[SuiteCheck]
    backward: list[SuiteCheck]
    abelianized: list[SuiteCheck]
    s1: list[SuiteCheck]


def _centrality_claims(
    elems: Iterable[tuple[str, NcPoly]], g: GenSet, names: Sequence[str]
) -> list[tuple[str, NcPoly]]:
    """The nonzero commutators [x, n] of each labelled element x with each
    named generator n, labelled "[label,n]"."""
    coms = ((f"[{label},{n}]", commutator(x, NcPoly.gen(g, n)))
            for label, x in elems for n in names)
    return [(label, com) for label, com in coms if not com.is_zero()]


def _certify(
    p: Presentation, claims: Sequence[tuple[str, NcPoly]], trunc: int
) -> list[SuiteCheck]:
    """Check every labelled claim for membership in p's ideal, with one
    completion of p."""
    results = derive_check(p, [c for _, c in claims], trunc)
    return [SuiteCheck(label, r.status, r) for (label, _), r in zip(claims, results)]


def length2_universal_suite(trunc: int = 8) -> Length2Report:
    """Verify the universal length-2 algebra both ways: the three claimed
    relations from the centrality of the derived elements, and those
    centralities back from the claimed relations; plus the abelianization
    (all relations are commutators) and the vanishing of the quadric's
    coefficient equations under the derived element expressions."""
    if trunc < 8:
        raise ValueError("trunc must be >= 8")
    claimed = length2_claimed_presentation()
    g = claimed.gens
    t = NcPoly.gen(g, "t")
    relations = _length2_relations(g)
    elems = length2_central_elements()
    centrality = _centrality_claims(elems.items(), g, ("a", "b"))
    derived = Presentation(g, tuple(c for _, c in centrality), "deglex")
    forward = _certify(derived, relations, trunc)
    backward = _certify(claimed, centrality, trunc)
    abelianized = [
        SuiteCheck(label, "pass" if nc_abelianize(r).is_zero() else "fail")
        for label, r in relations
    ]

    u, w, v, y, z, x = (elems[k] for k in ("u", "w", "v", "y", "z", "x"))
    s1_exprs = {
        "x": x,
        "u*w-v^2": u * w - v * v,
        "u*y+v*z": u * y + v * z,
        "z^2+u*t^2": z * z + u * t * t,
        "y^2+w*t^2": y * y + w * t * t,
    }
    s1 = [
        SuiteCheck(name, "pass" if nc_abelianize(e).is_zero() else "fail")
        for name, e in s1_exprs.items()
    ]
    return Length2Report(forward, backward, abelianized, s1)


def laufer_specialization_check(
    n: int, lam: Sequence[LambdaEntry], trunc: int = 8
) -> list[SuiteCheck]:
    """From the universal length-2 relations plus the specialization
    t = b^(2n), a*b+b*a = 0, a^2 = -(t*b + sum lam_i b^(2i)), certify the
    deformed two-generator relations and the vanishing of a*b^(2n+1), t*a*b,
    t*b*a.  The parameters are rational: "sym" is rejected."""
    lam = laufer_lambda(n, lam)
    if "sym" in lam:
        raise ValueError(
            "laufer_specialization_check takes rational lambda entries, not 'sym'")
    g = _length2_gens()
    t, a, b = (NcPoly.gen(g, n_) for n_ in ("t", "a", "b"))
    deform = _deformation(b, lam)
    p = Presentation(
        g,
        tuple(r for _, r in _length2_relations(g))
        + (t - b ** (2 * n), a * b + b * a,
           a * a + t * b + deform - b ** (2 * n + 1)),
        "deglex",
    )
    claims = [
        ("a*b+b*a", a * b + b * a),
        ("a^2+b^(2n+1)+sum", a * a + deform),
        ("a*b^(2n+1)", a * b ** (2 * n + 1)),
        ("t*a*b", t * a * b),
        ("t*b*a", t * b * a),
    ]
    return _certify(p, claims, trunc)


# -- higher-length contraction algebras -------------------------------------

# Each relation of the length-l contraction algebra says that a central
# expression X in t, b, c equals a signed parameter.  Row l gives, relation
# by relation, the signed index k: X = u_k for k > 0, X = -u_|k| for k < 0.
_CONSTANTS = {2: (1, 2, 3), 3: (1, 3, 5), 4: (1, 2, 5), 5: (-4, -5, 1), 6: (1, 2, 4)}


def _central_expressions(l: int, g: GenSet) -> list[tuple[str, NcPoly]]:
    """The labelled central expressions of the length-l contraction algebra,
    over any generator set holding t, b, c and the parameters they use; the
    affine generator d is eliminated as t/l - b - c (t/5 + b at l = 5)."""
    if l not in _CONSTANTS:
        raise ValueError("length must be in 2..6")
    t, b, c = (NcPoly.gen(g, n) for n in ("t", "b", "c"))
    u = {int(n[1:]): NcPoly.gen(g, n) for n in g.names if n.startswith("u")}
    d = t.scale(Fraction(1, l)) + (b if l == 5 else -b - c)
    if l == 2:
        return [("b^2", b * b), ("c^2", c * c), ("d^2", d * d)]
    if l == 3:
        return [
            ("b^3-u2*b", b ** 3 - u[2] * b),
            ("c^3-u4*c", c ** 3 - u[4] * c),
            ("d^2", d * d),
        ]
    if l == 4:
        return [
            ("b^2", b * b),
            ("c^4-u4*c^2-u3*c", c ** 4 - u[4] * c * c - u[3] * c),
            ("d^3-u6*d", d ** 3 - u[6] * d),
        ]
    if l == 5:
        cb2 = c + b * b
        return [
            ("cbc+bc^2+b^3c+u7*bc+u6*c",
             c * b * c + b * c * c + b ** 3 * c + u[7] * b * c + u[6] * c),
            ("(c+b^2)^2+bcb+u7*(c+b^2)+u6*b",
             cb2 * cb2 + b * c * b + u[7] * cb2 + u[6] * b),
            ("d^4-u3*d^2-u2*d", d ** 4 - u[3] * d * d - u[2] * d),
        ]
    return [
        ("b^2", b * b),
        ("c^3-u3*c", c ** 3 - u[3] * c),
        ("d^5-u7*d^3-u6*d^2-u5*d",
         d ** 5 - u[7] * d ** 3 - u[6] * d * d - u[5] * d),
    ]


def karmazyn_contraction_presentation(l: int) -> Presentation:
    """Contraction-algebra presentation for length l, with the affine
    generator d eliminated by its expression in t, b, c: each relation is a
    central expression minus its signed parameter.

    l = 1 degenerates to the presentation <no noncommuting generators | t>,
    whose quotient is the ground field.
    """
    if l == 1:
        g = genset(["t"], central=["t"])
        return Presentation(g, (NcPoly.gen(g, "t"),), "deglex")
    if l not in _CONSTANTS:
        raise ValueError("length must be in 1..6")
    nu = {2: 3, 3: 5, 4: 6, 5: 7, 6: 7}[l]
    names = ["t"] + [f"u{i}" for i in range(1, nu + 1)] + ["b", "c"]
    g = genset(names, central=names[: nu + 1])
    rels = tuple(
        x - NcPoly.gen(g, f"u{abs(k)}").scale(1 if k > 0 else -1)
        for (_, x), k in zip(_central_expressions(l, g), _CONSTANTS[l])
    )
    return Presentation(g, rels, "deglex")


def _claimed_genset(l: int) -> GenSet:
    """t, then the parameters the central expressions use, then b and c."""
    g = karmazyn_contraction_presentation(l).gens
    used = {i for _, x in _central_expressions(l, g) for w in x.terms for i in w}
    params = [n for i, n in enumerate(g.names) if i in used and n.startswith("u")]
    names = ["t"] + params + ["b", "c"]
    return genset(names, central=names[:-2])


def claimed_relation_readings(l: int) -> list[list[tuple[str, NcPoly]]]:
    """The claimed two-generator relations for length l, one slot per
    relation; a slot lists the candidate readings of the source text
    (ambiguous tokens and suspected misprints yield several)."""
    if l not in (2, 3, 4, 5, 6):
        raise ValueError("length must be in 2..6")
    g = _claimed_genset(l)
    t, b, c = (NcPoly.gen(g, n) for n in ("t", "b", "c"))
    u = {int(n[1:]): NcPoly.gen(g, n) for n in g.names if n.startswith("u")}
    bc = b * c - c * b

    def skew_sum(first: NcPoly, last: NcPoly, k: int) -> NcPoly:
        """w - reverse(w) summed over the words w = first*m*last, m in {b, c}^k."""
        out = NcPoly.zero(g)
        for m in product((b, c), repeat=k):
            w = (first, *m, last)
            out = out + reduce(mul, w) - reduce(mul, w[::-1])
        return out

    deg4 = skew_sum(b, c, 2)
    if l == 2:
        return [
            [("literal", t * b * c - t * c * b)],
            [("literal", b * c * c - c * c * b)],
            [("literal", b * b * c - c * b * b)],
        ]
    if l == 3:
        return [
            [("literal", u[2] * bc - (b ** 3 * c - c * b ** 3))],
            [("literal", u[4] * bc - (b * c ** 3 - c ** 3 * b))],
            [(
                "literal",
                (b * c * c - c * c * b).scale(3)
                + (b * b * c - c * b * b).scale(3)
                - (t * b * c - t * c * b).scale(2),
            )],
        ]
    if l == 4:
        return [
            [("literal", b * b * c - c * b * b)],
            [(
                "literal",
                u[3] * bc + u[4] * (b * c * c - c * c * b) - (b * c ** 4 - c ** 4 * b),
            )],
            [(
                "literal",
                (u[6].scale(16) - (t * t).scale(3)) * bc
                + (t * (b * c * c - c * c * b)).scale(12)
                - deg4.scale(16),
            )],
        ]
    if l == 5:
        base3 = (
            u[2] * bc
            + u[3] * (b * b * c - c * b * b + (t * bc).scale(Fraction(2, 5)))
            - (t ** 3 * bc).scale(Fraction(4, 125))
            - (t * t * (b * b * c - c * b * b)).scale(Fraction(6, 25))
            - (b ** 4 * c - c * b ** 4)
        )
        minus = base3 - (t * (b ** 3 * c - c * b ** 3)).scale(Fraction(4, 5))
        plus = base3 - (t * (b ** 3 * c + c * b ** 3)).scale(Fraction(4, 5))
        return [
            [("literal", u[7] * bc + (b * c * c - c * c * b) + (b ** 3 * c - c * b ** 3))],
            [(
                "literal",
                u[6] * bc
                + u[7] * (b * b * c - b * c * b)
                + (b * c * b * c - c * b * c * b)
                + (b * b * c * c - b * c * c * b)
                + (b ** 4 * c - b ** 3 * c * b),
            )],
            [
                ("difference", minus),  # garbled token read as b^3*c - c*b^3
                ("sum", plus),  # garbled token read as b^3*c + c*b^3
            ],
        ]
    # l == 6
    sym = b * b * c - c * b * b + b * c * c - c * c * b
    deg5 = skew_sum(c, b, 3)
    deg6 = skew_sum(b, c, 4) - (b ** 5 * c - c * b ** 5).scale(2)
    literal3 = (
        (
            -(t ** 4).scale(Fraction(5, 6 ** 4))
            + (t * t * u[7]).scale(Fraction(1, 12))
            + (t * u[6]).scale(Fraction(1, 3))
            + u[5]
        )
        * bc
        + ((t ** 3).scale(Fraction(10, 6 ** 3)) - t.scale(Fraction(1, 2)) - u[6]) * sym
        + (-(t * t).scale(Fraction(10, 36)) + u[7].scale(Fraction(1, 6))) * deg4
        + (t * deg5).scale(Fraction(5, 6))
        + deg6
    )
    return [
        [("literal", b * b * c - c * b * b)],
        [
            ("difference", u[3] * bc - (b * c ** 3 - c ** 3 * b)),
            ("literal", u[3] * bc - b * c ** 3 - c ** 3 * b),
        ],
        [("literal", literal3)],
    ]


def corrected_relation(l: int, slot: int) -> Optional[NcPoly]:
    """Engine-derived replacement for a claimed relation: the commutator of a
    generator with the central expression from the eliminated generator's
    minimal polynomial (None when no correction is defined for the slot)."""
    if slot != 2 or l not in (5, 6):
        return None
    g = _claimed_genset(l)
    return commutator(NcPoly.gen(g, "c" if l == 5 else "b"),
                      _central_expressions(l, g)[2][1])


def backward_central_expressions(l: int) -> list[tuple[str, NcPoly]]:
    """The non-parameter central expressions of each eliminated presentation,
    written over the claimed generator set."""
    return _central_expressions(l, _claimed_genset(l))


@dataclass
class RelationVerdict:
    slot: int
    reading: Optional[str]  # which reading certified, or None
    results: list[tuple[str, str]]  # (reading name, status) per reading
    corrected_status: Optional[str] = None  # status of the derived correction

    @property
    def ok(self) -> bool:
        return self.reading is not None or self.corrected_status == "certified-zero"


@dataclass
class HigherLengthReport:
    forward: list[RelationVerdict]
    backward: list[SuiteCheck]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.forward) and all(c.ok for c in self.backward)


def verify_higher_length(l: int, trunc: int = 8) -> HigherLengthReport:
    """Certify the claimed relation list for length l in both directions.

    FORWARD: each claimed relation (in every reading of ambiguous tokens)
    is checked for membership in the eliminated presentation's ideal; when no
    reading certifies, the engine-derived corrected relation is certified
    instead and reported.  BACKWARD: modulo the certifying relation set, the
    non-parameter central expressions commute with b and c.
    """
    if l not in (2, 3, 4, 5, 6):
        raise ValueError("length must be in 2..6")
    source = karmazyn_contraction_presentation(l)
    slots = claimed_relation_readings(l)
    corrections = [corrected_relation(l, si) for si in range(len(slots))]
    # one completion of the source decides every reading and correction:
    # each slot's readings, then its correction when one is defined
    batch: list[NcPoly] = []
    for readings, corr in zip(slots, corrections):
        batch += [p for _, p in readings] + ([corr] if corr is not None else [])
    results = iter(derive_check(
        source, [substitute(p, {}, source.gens) for p in batch], trunc))
    forward: list[RelationVerdict] = []
    chosen: list[NcPoly] = []
    for si, (readings, corr) in enumerate(zip(slots, corrections)):
        res = [next(results) for _ in readings]
        cres = next(results) if corr is not None else None
        statuses = [(name, r.status) for (name, _), r in zip(readings, res)]
        hit = next(
            (name for (name, _), r in zip(readings, res)
             if r.status == "certified-zero"),
            None,
        )
        cstat = None
        if hit is not None:
            chosen.append(dict(readings)[hit])
        elif cres is not None:
            cstat = cres.status
            if cstat == "certified-zero":
                chosen.append(corr)
        forward.append(RelationVerdict(si, hit, statuses, cstat))

    backward: list[SuiteCheck] = []
    if len(chosen) == len(slots):
        g = _claimed_genset(l)
        claims = _centrality_claims(_central_expressions(l, g), g, ("b", "c"))
        backward = _certify(Presentation(g, tuple(chosen), "deglex"), claims, trunc)
    return HigherLengthReport(forward, backward)


# -- invariant table ---------------------------------------------------------

@dataclass
class ZooRow:
    label: str
    status: str
    dim: Optional[int]
    certified_at: Optional[int]
    ab_dim: Optional[int]
    graded_dims: list[int]
    weight_list: Optional[list[int]]
    center_dim: int
    sym_rank: int
    antisym_rank: int


@dataclass
class InvariantTable:
    n: int
    rows: list[ZooRow]
    checks: dict[str, bool]


def invariant_table(n: int) -> InvariantTable:
    """Rows for the specializations A_0 .. A_{2n} and the cross-family
    checks: the equality of the top dimensions with 6n+3, the expected
    abelianization dimensions, the identity of the A_0 and A_{n+j}
    abelianized ideals, and the quadratic classification (symmetric span 2,
    alternating span 0).  Each quotient report gets ``maxN`` = 4n+6, so its
    last cut is the weight (2n+1)(4n+5) + 1, which keeps every word of
    length < 4n+6; ``certified_at`` is a weight cut too.  The commutative
    abelianization cross-check truncates at degree 4n+6; two abelianized
    ideals are equal when the reduced bases of their stable cut ideals are."""
    maxN = 4 * n + 6
    rows: list[ZooRow] = []
    comm_gbs = []
    for i in range(2 * n + 1):
        p = laufer_presentation(n, standard_lambda(n, i))
        rep = quotient_report(p, maxN)
        ab = abelianization_report(p, maxN)
        quad = quadratic_classify(p)
        center = len(center_basis(rep)) if rep.status == "finite" else 0
        rows.append(
            ZooRow(
                label=f"A_{i}",
                status=rep.status,
                dim=rep.dim,
                certified_at=rep.certified_at,
                ab_dim=ab.dim,
                graded_dims=rep.graded_dims,
                weight_list=rep.weight_list if i == 0 else None,
                center_dim=center,
                sym_rank=quad.sym_rank,
                antisym_rank=quad.antisym_rank,
            )
        )
        comm_gbs.append(ab.comm_report.gb.basis)

    checks: dict[str, bool] = {}
    top = [rows[0].dim] + [rows[n + j].dim for j in range(1, n + 1)]
    checks["top_dims_equal_6n+3"] = all(d == 6 * n + 3 for d in top)
    ab_ok = rows[0].ab_dim == 2 * n + 3
    for i in range(1, n + 1):
        ab_ok = ab_ok and rows[i].ab_dim == 2 + 2 * i
    for j in range(1, n + 1):
        ab_ok = ab_ok and rows[n + j].ab_dim == 2 * n + 3
    checks["ab_dims_expected"] = ab_ok
    checks["ab_identical_normal_forms"] = all(
        comm_gbs[0] == comm_gbs[n + j] for j in range(1, n + 1)
    )
    checks["quadratic_sym2_alt0"] = all(
        r.sym_rank == 2 and r.antisym_rank == 0 for r in rows
    )
    return InvariantTable(n, rows, checks)


# -- superpotential ----------------------------------------------------------

def cyclic_derivative(f: NcPoly, name: str) -> NcPoly:
    """Cyclic derivative on the free algebra: for each occurrence of the
    letter in a word, rotate that occurrence to the front and delete it."""
    gens = f.gens
    idx = gens.index(name)
    if any(gens.central[i] for w in f.terms for i in w):
        raise ValueError("cyclic derivative needs a fully noncommutative word")
    out: dict[Word, Fraction] = {}
    for w, c in f.terms.items():
        for i, letter in enumerate(w):
            if letter == idx:
                rot = w[i + 1 :] + w[:i]
                out[rot] = out.get(rot, Fraction(0)) + c
    return NcPoly(gens, out)


@dataclass
class SuperpotentialReport:
    matches: dict[str, bool]
    differences: dict[str, NcPoly]
    reduces_to_deformed_family: bool


def superpotential_check(n: int, lam: Sequence[LambdaEntry]) -> SuperpotentialReport:
    """Cyclically differentiate the candidate potential in a, b, c, d, w and
    compare with the displayed relation list; mismatches are reported as
    data.  Also checks that setting c = d = w = 0 in the displayed relations
    recovers the deformed two-generator family.  The parameters are
    rational: "sym" is rejected."""
    lam = laufer_lambda(n, lam)
    if "sym" in lam:
        raise ValueError(
            "superpotential_check takes rational lambda entries, not 'sym'")
    g = genset(["a", "b", "c", "d", "w"])
    a, b, c, d, w = (NcPoly.gen(g, x) for x in "abcdw")
    pot = (
        (d * c * d * c).scale(Fraction(1, 2))
        + b * b * d * c
        + a * a * b
        + d * w * c
        - (w ** (n + 1)).scale(Fraction((-1) ** (n + 1), n + 1))
        + (b ** (2 * n + 2)).scale(Fraction(1, 2 * n + 2))
    )
    for i, v in enumerate(lam):
        if v:
            pot = pot + (b ** (2 * i + 3)).scale(v / (2 * i + 3))
    displayed = {
        "a": a * b + b * a,
        "b": a * a + b * d * c + d * c * b + _deformation(b, lam),
        "c": (b * b + d * c) * d,
        "d": c * (b * b + d * c),
        "w": c * d + (w ** n).scale(Fraction((-1) ** n)),
    }
    matches: dict[str, bool] = {}
    differences: dict[str, NcPoly] = {}
    for x in "abcdw":
        deriv = cyclic_derivative(pot, x)
        diff = deriv - displayed[x]
        matches[x] = diff.is_zero()
        if not diff.is_zero():
            differences[x] = diff
    # c = d = w = 0 in the displayed relations leaves the two-generator family
    zero = {x: NcPoly.zero(g) for x in "cdw"}
    family = laufer_presentation(n, lam)
    want = {substitute(r, {}, g) for r in family.relations}
    got = {substitute(displayed[x], zero) for x in "ab"}
    rest_vanish = all(substitute(displayed[x], zero).is_zero() for x in "cdw")
    return SuperpotentialReport(matches, differences, want == got and rest_vanish)
