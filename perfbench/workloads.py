"""Seeded inputs, operations and known answers of the ncdef benchmark.

Each workload is a list of :class:`Op`.  An op calls public ncdef functions
through the module objects it was built with (so a tracer that patches those
modules sees the calls) and returns one :class:`Verdict` per answer it checks.
A verdict compares the engine's output with an answer known without the
engine: a published closed form, an acceptance value, or a construction that
fixes the answer (ideal members built as two-sided combinations, non-members
shown by evaluation at a point where every relation vanishes).

``certify``
    The certificate path: provenance-on completion of the same presentation
    once per relation slot, claim reduction and certificate replay.
``dimension``
    The quotient-report path: provenance-off completion over many cutoffs,
    irreducible-word enumeration, abelianization and centers, and
    presentation files round-tripped through ``exprparse`` and the CLI.
``milnor``
    The commutative engine: Groebner bases, quotient bases and local reports
    of Jacobian ideals, plus the matrix-factorization suite.  No ``ncgb``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

WORKLOADS = ("certify", "dimension", "milnor")


@dataclass
class Verdict:
    name: str
    ok: bool  # the output matches the known answer
    certified: bool  # the engine gave a certified answer (not "inconclusive")
    output: Any  # deterministic summary; must repeat exactly between passes


@dataclass
class Op:
    label: str
    run: Callable[[], list[Verdict]]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs_text: str  # every generated input, serialized; equal seeds give equal text
    files: list[Path]  # presentation files written for the run


def build(name: str, m: SimpleNamespace, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``.

    ``m`` holds the ncdef modules (``m.ncgb``, ``m.zoo``, ...); presentation
    files go to ``workdir``.
    """
    builders = {"certify": _certify, "dimension": _dimension, "milnor": _milnor}
    return builders[name](m, random.Random(f"{name}:{seed}"), workdir)


def _rational(rng: random.Random) -> Fraction:
    """A random nonzero rational with small numerator and denominator."""
    return Fraction(rng.choice((1, -1, 2, -2, 3, -3, 5)), rng.choice((1, 2, 3, 7)))


def _cli(m: SimpleNamespace, argv: list[str]) -> tuple[int, dict]:
    """Run one CLI command in-process; the report is returned, not printed."""
    with contextlib.redirect_stdout(io.StringIO()):
        code, doc = m.cli.run_command(argv)
    if doc is not None:
        doc = {k: v for k, v in doc.items() if k != "timing_ms"}
    return code, doc


# -- certify -----------------------------------------------------------------

def _suite_output(checks) -> list:
    return [
        (c.name, c.status,
         len(c.detail.certificate) if c.detail is not None and c.detail.certificate else 0)
        for c in checks
    ]


def _higher_length_verdicts(l: int, trunc: int, rep) -> list[Verdict]:
    """ACCEPTANCE 08: every forward slot certifies with the literal reading,
    and every backward claim is certified-zero."""
    out = []
    for v in rep.forward:
        out.append(Verdict(
            f"karmazyn-{l}@{trunc}:forward-{v.slot}",
            v.reading == "literal", v.reading is not None,
            (v.slot, v.reading, list(v.results), v.corrected_status)))
    out.append(Verdict(
        f"karmazyn-{l}@{trunc}:backward-nonempty", bool(rep.backward),
        bool(rep.backward), len(rep.backward)))
    for c, o in zip(rep.backward, _suite_output(rep.backward)):
        ok = c.status == "certified-zero"
        out.append(Verdict(f"karmazyn-{l}@{trunc}:backward:{c.name}", ok, ok, o))
    return out


def _cli_higher_length_verdicts(l: int, trunc: int, code: int, doc: dict) -> list[Verdict]:
    out = [Verdict(f"cli:karmazyn-{l}@{trunc}:exit", code == 0, code == 0, code)]
    checks = doc["checks"] if doc else []
    forward = [c for c in checks if c["name"].startswith("forward:")]
    backward = [c for c in checks if c["name"].startswith("backward:")]
    out.append(Verdict(f"cli:karmazyn-{l}@{trunc}:shape",
                       len(forward) == 3 and bool(backward), True,
                       [c["name"] for c in checks]))
    for c in forward:
        ok = c["status"] == "certified" and c["detail"]["reading"] == "literal"
        out.append(Verdict(f"cli:karmazyn-{l}@{trunc}:{c['name']}", ok,
                           c["status"] == "certified", c))
    for c in backward:
        ok = c["status"] == "certified-zero"
        out.append(Verdict(f"cli:karmazyn-{l}@{trunc}:{c['name']}", ok, ok, c))
    return out


def _evaluate(f, point: dict[int, Fraction]) -> Fraction:
    """Value of a free-algebra polynomial at a point of the commutative plane:
    an algebra map, so it vanishes on the whole two-sided ideal of any
    relations that vanish there."""
    total = Fraction(0)
    for w, c in f.terms.items():
        v = c
        for letter in w:
            v *= point[letter]
        total += v
    return total


def _karmazyn3_point(p) -> dict[int, Fraction]:
    """A point with all coordinates nonzero at which every relation of the
    length-3 presentation vanishes: pick b, c, t, u2, u4 and solve the three
    relations for u1, u3, u5, which each occur in one relation, linearly."""
    g = p.gens
    val = {"t": Fraction(1), "b": Fraction(2), "c": Fraction(3),
           "u2": Fraction(1), "u4": Fraction(1)}
    d = val["t"] / 3 - val["b"] - val["c"]
    val["u1"] = val["b"] ** 3 - val["u2"] * val["b"]
    val["u3"] = val["c"] ** 3 - val["u4"] * val["c"]
    val["u5"] = d * d
    point = {g.index(n): v for n, v in val.items()}
    if any(_evaluate(r, point) for r in p.relations) or not all(point.values()):
        raise AssertionError("the chosen point is not a nonzero zero of the relations")
    return point


def _membership_claims(m, p, rng, point, count: int):
    """``count`` two-sided combinations sum c*u*r_i*v (members by
    construction) and ``count`` of them plus one word (non-members: the word
    is nonzero at ``point``, where the ideal vanishes)."""
    g = p.gens
    letters = [g.index(n) for n in ("b", "c", "t")]
    noncentral = [g.index(n) for n in ("b", "c")]

    def word(lo: int, hi: int, alphabet: list[int]) -> tuple[int, ...]:
        return tuple(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))

    def member():
        f = m.freealg.NcPoly.zero(g)
        for _ in range(2):
            rel = p.relations[rng.randrange(len(p.relations))]
            u = m.freealg.NcPoly.word(g, word(0, 2, letters), _rational(rng))
            v = m.freealg.NcPoly.word(g, word(0, 2, letters))
            f = f + u * rel * v
        return f

    members = [member() for _ in range(count)]
    nonmembers = []
    for _ in range(count):
        f = member() + m.freealg.NcPoly.word(g, word(1, 3, noncentral))
        if _evaluate(f, point) == 0:
            raise AssertionError("non-member claim vanishes at the witness point")
        nonmembers.append(f)
    return members, nonmembers


def _claim_verdicts(label, n_members: int, results) -> list[Verdict]:
    """The first ``n_members`` claims are members, the rest non-members.  A
    member may be certified or inconclusive; a non-member must never be
    certified."""
    out = []
    for k, r in enumerate(results):
        is_member = k < n_members
        cert = r.status == "certified-zero"
        output = (r.status, len(r.certificate) if r.certificate else 0,
                  repr(r.normal_form))
        kind = "member" if is_member else "nonmember"
        out.append(Verdict(f"{label}:{kind}-{k}", is_member or not cert, cert, output))
    return out


def _certify(m: SimpleNamespace, rng: random.Random, workdir: Path) -> Workload:
    zoo, ncgb = m.zoo, m.ncgb
    source = zoo.karmazyn_contraction_presentation(3)
    point = _karmazyn3_point(source)
    members, nonmembers = _membership_claims(m, source, rng, point, 12)
    claims = members + nonmembers
    karmazyn4 = ["zoo", "karmazyn", "--length", "4", "--verify", "--max-degree", "9"]

    def length2() -> list[Verdict]:
        # ACCEPTANCE 11: every group is nonempty and fully certified / passing
        rep = zoo.length2_universal_suite(8)
        out = []
        for group, checks in (("forward", rep.forward), ("backward", rep.backward),
                              ("abelianized", rep.abelianized), ("s1", rep.s1)):
            out.append(Verdict(f"length2:{group}-nonempty", bool(checks),
                               bool(checks), len(checks)))
            for c, o in zip(checks, _suite_output(checks)):
                out.append(Verdict(f"length2:{group}:{c.name}", c.ok, c.ok, o))
        return out

    def laufer_spec(n: int) -> Callable[[], list[Verdict]]:
        def run() -> list[Verdict]:
            checks = zoo.laufer_specialization_check(n, [0] * (2 * n), 8)
            return [
                Verdict(f"laufer-spec-{n}:{c.name}", c.status == "certified-zero",
                        c.status == "certified-zero", o)
                for c, o in zip(checks, _suite_output(checks))
            ]
        return run

    ops = [
        Op("karmazyn-3@8", lambda: _higher_length_verdicts(
            3, 8, zoo.verify_higher_length(3, 8))),
        Op("cli:karmazyn-4@9", lambda: _cli_higher_length_verdicts(
            4, 9, *_cli(m, karmazyn4))),
        Op("length2@8", length2),
        Op("laufer-spec-1@8", laufer_spec(1)),
        Op("laufer-spec-2@8", laufer_spec(2)),
        Op("claims:karmazyn-3@8", lambda: _claim_verdicts(
            "claims", len(members), ncgb.derive_check(source, claims, 8))),
    ]
    text = "\n".join(
        [m.exprparse.render(source), " ".join(karmazyn4)]
        + [m.freealg.nc_str(f) for f in claims]
    )
    return Workload("certify", ops, text, [])


# -- dimension ---------------------------------------------------------------

def _ab_word(s: int, t: int) -> str:
    parts = [x if k == 1 else f"{x}^{k}" for x, k in (("a", s), ("b", t)) if k]
    return "*".join(parts) or "1"


def laufer_basis(n: int) -> set[str]:
    """ACCEPTANCE 03: the quotient at lambda = 0 has basis a^s*b^t, s < 3,
    t < 2n+1 (dimension 6n+3)."""
    return {_ab_word(s, t) for s in range(3) for t in range(2 * n + 1)}


def ideal_variants(m: SimpleNamespace, p, rng: random.Random) -> list:
    """One variant per ordering of the relations: each relation rescaled by
    a random nonzero rational, then the first replaced by r_0 + c*r_1.
    Every variant generates the same ideal as ``p``; completion cost depends
    strongly on the relation order, so each order appears exactly once."""
    out = []
    for perm in itertools.permutations(range(len(p.relations))):
        rels = [p.relations[i].scale(_rational(rng)) for i in perm]
        rels[0] = rels[0] + rels[1].scale(_rational(rng))
        out.append(m.ncgb.Presentation(p.gens, tuple(rels), p.order))
    return out


AB_DIMS_N2 = [7, 4, 6, 7, 7]  # ACCEPTANCE 05, lambda = e_0 .. e_4


def _quotient_output(m, p, rep) -> tuple:
    return (rep.status, rep.dim, rep.certified_at, rep.up_to, list(rep.graded_dims),
            sorted(m.freealg.word_str(p.gens, w) for w in rep.basis))


def _dimension(m: SimpleNamespace, rng: random.Random, workdir: Path) -> Workload:
    zoo, ncgb = m.zoo, m.ncgb
    ops: list[Op] = []
    texts: list[str] = []
    files: list[Path] = []
    workdir.mkdir(parents=True, exist_ok=True)

    def laufer_tower(n: int) -> Op:
        p = zoo.laufer_presentation(n, [0] * (2 * n))
        texts.append(m.exprparse.render(p))

        def run() -> list[Verdict]:
            rep = ncgb.quotient_report(p)
            out = _quotient_output(m, p, rep)
            ok = rep.status == "finite" and rep.dim == 6 * n + 3 and set(out[-1]) == laufer_basis(n)
            return [Verdict(f"laufer-{n}", ok, rep.status == "finite", out)]
        return Op(f"laufer-{n}", run)

    def karmazyn_tower(l: int, maxN: int) -> Op:
        # free central parameters: the quotient maps onto a polynomial ring in
        # them (evaluate at any point of the relations' zero set), so the
        # truncated dimensions never stabilize
        p = zoo.karmazyn_contraction_presentation(l)
        texts.append(m.exprparse.render(p))

        def run() -> list[Verdict]:
            rep = ncgb.quotient_report(p, maxN, allow_free_central=True)
            return [Verdict(f"karmazyn-{l}@{maxN}", rep.status == "not-finite", False,
                            _quotient_output(m, p, rep))]
        return Op(f"karmazyn-{l}@{maxN}", run)

    def laufer2_row(i: int) -> Op:
        # the per-specialization flow of invariant_table(2)
        n, maxN = 2, 14
        p = zoo.laufer_presentation(n, zoo.standard_lambda(n, i))
        texts.append(m.exprparse.render(p))

        def run() -> list[Verdict]:
            rep = ncgb.quotient_report(p, maxN)
            ab = ncgb.abelianization_report(p, maxN)
            quad = ncgb.quadratic_classify(p)
            center = ncgb.center_basis(rep) if rep.status == "finite" else []
            label = f"A_{i}(n=2)"
            out = [
                Verdict(f"{label}:ab_dim", ab.dim == AB_DIMS_N2[i],
                        ab.status == "finite", (ab.status, ab.dim, ab.certified_at)),
                Verdict(f"{label}:quadratic", (quad.sym_rank, quad.antisym_rank) == (2, 0),
                        True, (quad.sym_rank, quad.antisym_rank)),
                # no independent value for the center: recorded, not judged
                Verdict(f"{label}:center", True, False,
                        sorted(m.freealg.nc_str(c) for c in center)),
            ]
            top = i == 0 or i > n  # A_0 and A_{n+j} have dimension 6n+3
            out.append(Verdict(f"{label}:dim", rep.dim == 6 * n + 3 if top else True,
                               rep.status == "finite", _quotient_output(m, p, rep)))
            return out
        return Op(f"A_{i}(n=2)", run)

    def variant_op(n: int, k: int, v) -> Op:
        text = m.exprparse.render(v)
        path = workdir / f"laufer{n}-variant{k}.txt"
        path.write_text(text, encoding="utf-8")
        texts.append(text)
        files.append(path)

        def run() -> list[Verdict]:
            code, doc = _cli(m, ["gb", str(path), "--max-degree", "20"])
            doc = doc or {}
            finite = code == 0 and doc.get("status") == "finite"
            ok = (finite and doc.get("dimension") == 6 * n + 3
                  and set(doc.get("basis", ())) == laufer_basis(n))
            return [Verdict(f"cli:gb:laufer-{n}-variant-{k}", ok, finite, doc)]
        return Op(f"cli:gb:laufer-{n}-variant-{k}", run)

    ops += [laufer_tower(3), laufer_tower(2)]
    ops += [karmazyn_tower(2, 7), karmazyn_tower(3, 6)]
    ops += [laufer2_row(i) for i in range(5)]
    for n in (1, 2):
        base = zoo.laufer_presentation(n, [0] * (2 * n))
        ops += [variant_op(n, k, v) for k, v in enumerate(ideal_variants(m, base, rng))]
    return Workload("dimension", ops, "\n".join(texts), files)


# -- milnor ------------------------------------------------------------------

def fermat_form(m: SimpleNamespace, nvars: int, degree: int, rng: random.Random):
    """sum_i l_i(x)^d for linear forms l = A x, A = L*U with L, U unit
    triangular and off-diagonal entries 1 or 2 (so det A = 1).  A linear
    change of coordinates of the Fermat form: an isolated singularity with
    Milnor number (d-1)^n, and a dense Jacobian ideal.  (With entries +-1,
    Groebner time splits into two modes an order of magnitude apart, which
    would make a pass's time depend on the seed.)"""
    cp = m.commpoly
    v = cp.VarSet(tuple("xyzw"[:nvars]))
    xs = [cp.CommPoly.variable(v, name) for name in v.names]
    n = nvars
    lower = [[1 if i == j else (rng.choice((1, 2)) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.choice((1, 2)) if j > i else 0)
              for j in range(n)] for i in range(n)]
    a = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    f = cp.CommPoly.zero(v)
    for row in a:
        lin = cp.CommPoly.zero(v)
        for x, c in zip(xs, row):
            if c:
                lin = lin + x.scale(c)
        f = f + lin ** degree
    return v, f


# (variables, degree, how many forms, whether local_report runs on them too)
MILNOR_FORMS = ((3, 3, 4, True), (3, 4, 8, False), (4, 3, 8, False))


def _milnor(m: SimpleNamespace, rng: random.Random, workdir: Path) -> Workload:
    cp = m.commpoly
    ops: list[Op] = []
    texts: list[str] = []

    def jacobian_op(label: str, v, f, mu: int, bound: int, local: bool) -> Op:
        texts.append(f"{label}: {cp.poly_str(f)}")

        def run() -> list[Verdict]:
            order = cp.GrlexOrder(v)
            jac = cp.partials(f)
            gb = cp.groebner(jac, order)
            qb = cp.quotient_basis(gb, bound)
            out = [Verdict(f"{label}:quotient_basis", qb.finite and qb.dim == mu,
                           qb.finite, (qb.finite, qb.dim, [cp.poly_str(g) for g in gb.basis]))]
            if local:
                lr = cp.local_report(jac, order, 20)
                out.append(Verdict(f"{label}:local_report",
                                   lr.status == "finite" and lr.dim == mu,
                                   lr.status == "finite",
                                   (lr.status, lr.dim, lr.certified_at, lr.graded_dims)))
            return out
        return Op(label, run)

    # ACCEPTANCE 06's f0 = x^2 + y^3 + z^2*w + y*w^3, quasi-homogeneous with
    # weights (1/2, 1/3, 7/18, 2/9): Milnor-Orlik gives mu = prod(1/w_i - 1) = 11
    v0 = cp.varset("x", "y", "z", "w")
    x, y, z, w = (cp.CommPoly.variable(v0, n) for n in v0.names)
    f0 = x * x + y ** 3 + z * z * w + y * w ** 3
    ops.append(jacobian_op("f0", v0, f0, 11, 30, True))
    for nvars, degree, count, local in MILNOR_FORMS:
        for k in range(count):
            v, f = fermat_form(m, nvars, degree, rng)
            ops.append(jacobian_op(f"form-n{nvars}-d{degree}-{k}", v, f,
                                   (degree - 1) ** nvars, nvars * (degree - 2) + 3, local))

    def matfac() -> list[Verdict]:
        # ACCEPTANCE 01, 02 and 07: every check of the suite passes
        code, doc = _cli(m, ["matfac", "verify-all"])
        out = [Verdict("cli:matfac:exit", code == 0, code == 0, code)]
        for c in doc["checks"] if doc else []:
            ok = c["status"] == "pass"
            out.append(Verdict(f"cli:matfac:{c['name']}", ok, ok, c))
        return out

    ops.append(Op("cli:matfac", matfac))
    texts.append("matfac verify-all")
    return Workload("milnor", ops, "\n".join(texts), [])
