"""Length-truncated two-sided rewriting systems for presented algebras.

A :class:`Presentation` is a generator set together with relations (elements
of the free algebra with central letters).  :func:`nc_complete` runs a
critical-pair completion in which each rule rewrites its lowest-degree term
(ties broken toward the largest word), so rewriting climbs in degree and the
length-``trunc`` cutoff makes every computation finite.  The resulting system
presents the quotient of the free algebra by the relation ideal plus all
words of length ``trunc``; :func:`quotient_report` stabilizes that quotient
over increasing cutoffs to certify the dimension of the completed algebra.

Rules carry provenance: an exact rule records how its polynomial expands as a
two-sided combination of the original relations, which lets
:func:`derive_check` emit independently replayable membership certificates.
Provenance is folded only for a pair that becomes a rule: pairs which reduce
to zero never build one.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .commpoly import GrlexOrder, VarSet, graded_dims, local_report
from .freealg import (
    GenSet,
    NcOrder,
    NcPoly,
    Word,
    commutator,
    nc_abelianize,
    word_mul,
    word_split,
    word_weight,
)
from .linalg import RowSpace, nullspace

# A provenance maps (left word, relation index, right word) -> coefficient,
# representing the two-sided combination  sum c * u * relation_i * v.
Provenance = dict[tuple[Word, int, Word], Fraction]


class PresentationError(ValueError):
    """Malformed presentation (zero relation, constant term, ...)."""


class DimensionUndefinedError(ValueError):
    """The quotient has a free central parameter, so no single dimension is
    defined; the partial report is attached as ``.report``."""

    def __init__(self, msg: str, report: "QuotientReport"):
        super().__init__(msg)
        self.report = report


class InternalConsistencyError(AssertionError):
    """Two independent computations of the same quantity disagreed."""


class NotFiniteError(ValueError):
    """An operation needing a finite-dimensional quotient got an infinite one."""


@dataclass(frozen=True)
class Presentation:
    gens: GenSet
    relations: tuple[NcPoly, ...]
    order: str = "deglex"

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple(self.relations))
        for k, r in enumerate(self.relations):
            if r.gens != self.gens:
                raise PresentationError(f"relation {k} uses a different generator set")
            if r.is_zero():
                raise PresentationError(f"relation {k} is zero")
            if () in r.terms:
                raise PresentationError(f"relation {k} has a constant term")
        NcOrder(self.gens, self.order)  # validates the order name


class RewriteRule:
    """Monic rule ``lead -> tail`` with provenance ``lead - tail = sum prov``.

    ``exact`` means the provenance identity holds on the nose (no word was
    dropped by truncation anywhere in the rule's derivation).
    """

    __slots__ = ("lead", "tail", "prov", "exact", "idx", "active", "ext_mt")

    def __init__(self, lead: Word, tail: NcPoly, prov: Provenance, exact: bool, idx: int):
        self.lead = lead
        self.tail = tail
        self.prov = prov
        self.exact = exact
        self.idx = idx
        self.active = True
        self.ext_mt = None  # smallest tail length already closed under cutoff

    def poly(self) -> NcPoly:
        return NcPoly(self.tail.gens, {self.lead: Fraction(1)}) - self.tail

    def __repr__(self) -> str:
        flag = "" if self.exact else " ~"
        return f"<rule {self.idx}{flag}: {self.lead} -> ...>"


@dataclass
class TruncatedGB:
    gens: GenSet
    order: NcOrder
    trunc: int
    rules: list[RewriteRule]

    def active_rules(self) -> list[RewriteRule]:
        return [r for r in self.rules if r.active]

    def lead_words(self) -> list[Word]:
        return sorted((r.lead for r in self.active_rules()), key=self.order.key)


def find_division(gens: GenSet, lead: Word, w: Word) -> Optional[tuple[Word, Word]]:
    """Leftmost division ``w = u * lead * v`` on canonical words, or None.

    The central letters of ``lead`` must embed in those of ``w`` (multiset
    containment); the noncommutative part must occur as a contiguous factor.
    Leftover central letters are returned inside ``u``.
    """
    if len(lead) > len(w):
        return None
    lc, ln = word_split(gens, lead)
    wc, wn = word_split(gens, w)
    if lc:
        cnt = Counter(wc)
        cnt.subtract(lc)
        if any(v < 0 for v in cnt.values()):
            return None
        leftover = tuple(sorted(cnt.elements()))
    else:
        leftover = wc
    if not ln:
        return leftover, wn
    m = len(ln)
    for i in range(len(wn) - m + 1):
        if wn[i : i + m] == ln:
            return leftover + wn[:i], wn[i + m :]
    return None


def _divisor(
    gens: GenSet, rules: Sequence[RewriteRule], w: Word
) -> Optional[tuple[RewriteRule, tuple[Word, Word]]]:
    """The first rule whose lead divides ``w``, with the division, or None."""
    for r in rules:
        div = find_division(gens, r.lead, w)
        if div is not None:
            return r, div
    return None


def _irreducible_levels(
    gens: GenSet, rules: Sequence[RewriteRule], maxlen: int
) -> list[list[Word]]:
    """Rule-irreducible canonical words by length: ``levels[k]`` for k <= maxlen.

    Every word of length k+1 extends a word of length k by one letter, and a
    rule dividing the shorter word divides the longer one, so extending only
    irreducible words reaches them all.  Each level is in generation order:
    first appearance while extending the previous level letter by letter.
    No rule has the empty lead, so the empty word is irreducible.
    """
    levels: list[list[Word]] = [[()]]
    for _ in range(maxlen):
        seen: set[Word] = set()
        level: list[Word] = []
        for w in levels[-1]:
            for g in range(len(gens.names)):
                u = word_mul(gens, w, (g,))
                if u not in seen:
                    seen.add(u)
                    if _divisor(gens, rules, u) is None:
                        level.append(u)
        levels.append(level)
    return levels


@dataclass
class ReduceResult:
    poly: NcPoly
    trace: list[tuple[Fraction, Word, int, Word]]  # steps c * u * rule_i * v
    truncated: bool


def nc_reduce(f: NcPoly, gb: TruncatedGB, with_trace: bool = False) -> ReduceResult:
    """Normal form of ``f`` modulo the active rules and the length cutoff.

    Each step rewrites the reducible term with the largest rule key (the
    lowest-degree one), using the lowest-index applicable rule at its leftmost
    occurrence; replacement words of length >= ``trunc`` are dropped and
    recorded in ``truncated``.
    """
    gens, order = gb.gens, gb.order
    active = gb.active_rules()
    work: dict[Word, Fraction] = {}
    truncated = False
    for w, c in f.terms.items():
        if len(w) >= gb.trunc:
            truncated = True
        else:
            work[w] = c
    trace: list[tuple[Fraction, Word, int, Word]] = []
    irreducible: set[Word] = set()
    while True:
        best = None
        for w in work:
            if w in irreducible:
                continue
            hit = _divisor(gens, active, w)
            if hit is None:
                irreducible.add(w)
                continue
            k = order.rule_key(w)
            if best is None or k > best[0]:
                best = (k, w, hit)
        if best is None:
            break
        _, w, (rule, (u, v)) = best
        c = work.pop(w)
        for tw, tc in rule.tail.terms.items():
            nw = word_mul(gens, word_mul(gens, u, tw), v)
            if len(nw) >= gb.trunc:
                truncated = True
                continue
            nv = work.get(nw, Fraction(0)) + c * tc
            if nv:
                work[nw] = nv
            else:
                del work[nw]
        if with_trace:
            trace.append((c, u, rule.idx, v))
    return ReduceResult(NcPoly(gens, work), trace, truncated)


def _conj(gens: GenSet, u: Word, prov: Provenance, v: Word, c: Fraction) -> Provenance:
    out: Provenance = {}
    for (pu, i, pv), pc in prov.items():
        key = (word_mul(gens, u, pu), i, word_mul(gens, pv, v))
        out[key] = out.get(key, Fraction(0)) + c * pc
    return out


def _prov_add(dst: Provenance, src: Provenance) -> None:
    for key, c in src.items():
        nv = dst.get(key, Fraction(0)) + c
        if nv:
            dst[key] = nv
        else:
            dst.pop(key, None)


def _fold_trace(
    gb: TruncatedGB,
    trace: Sequence[tuple[Fraction, Word, int, Word]],
    prov: Optional[Provenance],
    sign: int,
) -> bool:
    """Add ``sign * c * u * rule_i * v`` for each step to ``prov`` (skipped
    when None); True when every rule used is exact."""
    exact = True
    for c, u, i, v in trace:
        rule = gb.rules[i]
        if prov is not None:
            _prov_add(prov, _conj(gb.gens, u, rule.prov, v, sign * c))
        exact = exact and rule.exact
    return exact


_MAX_COMPLETION_STEPS = 200_000


def nc_complete(p: Presentation, trunc: int, provenance: bool = True) -> TruncatedGB:
    """Critical-pair completion of the presentation at length cutoff ``trunc``.

    The pending queue is ordered by the length of the word a pair overlaps on
    (FIFO within a length); pairs are processed even when that word itself
    exceeds the cutoff, because an inhomogeneous rule can rewrite it down to
    words below the cutoff.  The returned system is inter-reduced: no active
    lead divides another, and every tail is in normal form.
    """
    if trunc < 2:
        raise ValueError("trunc must be >= 2")
    gens = p.gens
    order = NcOrder(gens, p.order)
    gb = TruncatedGB(gens, order, trunc, [])
    noncentral = [i for i, c in enumerate(gens.central) if not c]

    heap: list = []
    seq = 0

    def push(prio: int, item) -> None:
        nonlocal seq
        heapq.heappush(heap, (prio, seq, item))
        seq += 1

    for i, rel in enumerate(p.relations):
        prov: Provenance = {((), i, ()): Fraction(1)} if provenance else {}
        push(min(len(w) for w in rel.terms), ("poly", rel, prov, True))

    def build(item) -> tuple[NcPoly, bool]:
        """Polynomial and exactness of an item.

        A ``comb`` item is a two-sided combination  sum c * u * rule_i * v
        of rules whose leads cancel (critical pairs, central-letter pairs)
        or lie in m^trunc (cutoff extensions, never exact); its polynomial
        is what remains,  -sum c * u * tail_i * v.
        """
        if item[0] == "poly":
            _, poly, _, exact = item
            return poly, exact
        _, combo, exact = item
        terms: dict[Word, Fraction] = {}
        for c, u, i, v in combo:
            for tw, tc in gb.rules[i].tail.terms.items():
                w = word_mul(gens, word_mul(gens, u, tw), v)
                terms[w] = terms.get(w, 0) - c * tc
        return NcPoly(gens, terms), _fold_trace(gb, combo, None, 1) and exact

    def item_prov(item) -> Provenance:
        """Provenance of an item, built only for one that becomes a rule."""
        if item[0] == "poly":
            return dict(item[2])
        prov: Provenance = {}
        _fold_trace(gb, item[1], prov, 1)
        return prov

    def gen_pairs(rp: RewriteRule, rq: RewriteRule) -> None:
        """Queue the critical pairs of the ordered rule pair (rp, rq)."""
        pc, pn = word_split(gens, rp.lead)
        qc, qn = word_split(gens, rq.lead)
        cp, cq = Counter(pc), Counter(qc)
        shared = bool(cp & cq)
        cmax = cp | cq
        rest_p = tuple(sorted((cmax - cp).elements()))
        rest_q = tuple(sorted((cmax - cq).elements()))
        clen = sum(cmax.values())

        def emit(up, vp, uq, vq, wlen):
            push(wlen, ("comb", ((1, uq, rq.idx, vq), (-1, up, rp.idx, vp)), True))

        if pn and qn:
            # proper overlaps: a suffix of pn is a prefix of qn
            for k in range(1, min(len(pn), len(qn))):
                if pn[-k:] == qn[:k]:
                    emit(rest_p, qn[k:], rest_q + pn[:-k], (),
                         clen + len(pn) + len(qn) - k)
            # inclusions: qn occurs inside pn (or the leads share nc part)
            if len(qn) < len(pn) or (qn == pn and rp is not rq):
                m = len(qn)
                for i in range(len(pn) - m + 1):
                    if pn[i : i + m] == qn:
                        emit(rest_p, (), rest_q + pn[:i], pn[i + m :],
                             clen + len(pn))
            # disjoint factors competing for shared central letters
            if shared:
                emit(rest_p, qn, rest_q + pn, (), clen + len(pn) + len(qn))
        elif pn and not qn:
            if shared:
                emit(rest_p, (), rest_q, pn, clen + len(pn))
        elif qn and not pn:
            pass  # covered by the (rq, rp) ordered pair
        else:
            if shared and rp is not rq:
                emit(rest_p, (), rest_q, (), clen)

    def enqueue_cutoff_exts(r: RewriteRule) -> None:
        """Close a rule with tail words shorter than its lead under the cutoff.

        For such a rule, a product u*lead*v can reach length >= trunc (hence
        lie in m^trunc and vanish from every computation) while u*tail*v does
        not; the surviving tail part is then a member of I + m^trunc that no
        critical pair ever sees.  Queue exactly the products in that window.
        """
        if r.tail.is_zero():
            return
        mt = min(len(w) for w in r.tail.terms)
        dl = len(r.lead)
        if mt >= dl or (r.ext_mt is not None and r.ext_mt <= mt):
            return
        lo = max(trunc - dl, 1)
        if r.ext_mt is not None:
            lo = max(lo, trunc - r.ext_mt)
        r.ext_mt = mt
        if lo >= trunc - mt:
            return
        # Reducible factors may be skipped: if u rewrites to red(u), then
        # u*tail*v - red(u)*tail*v lies in I + m^trunc already, so closing
        # over irreducible factors closes over all of them.
        levels = _irreducible_levels(gens, gb.active_rules(), trunc - mt - 1)
        for s in range(lo, trunc - mt):
            for k in range(s + 1):
                for u in levels[k]:
                    for v in levels[s - k]:
                        push(dl + s, ("comb", ((1, u, r.idx, v),), False))

    steps = 0
    while heap:
        steps += 1
        if steps > _MAX_COMPLETION_STEPS:
            raise RuntimeError("completion step limit exceeded")
        _, _, item = heapq.heappop(heap)
        poly, exact = build(item)
        red = nc_reduce(poly, gb, with_trace=True)
        if red.poly.is_zero():
            continue
        # nothing has changed gb.rules since the pop, so the provenance
        # folded now is the one the item would have carried all along
        prov = item_prov(item) if provenance else None
        exact = _fold_trace(gb, red.trace, prov, -1) and exact and not red.truncated
        lead = max(red.poly.terms, key=order.rule_key)
        if not lead:
            raise PresentationError("relations generate the unit ideal")
        c0 = red.poly.terms[lead]
        tail = NcPoly(gens, {w: -cf / c0 for w, cf in red.poly.terms.items() if w != lead})
        prov = {k: cf / c0 for k, cf in prov.items()} if provenance else {}
        new = RewriteRule(lead, tail, prov, exact, len(gb.rules))
        gb.rules.append(new)
        # retire rules whose lead the new lead divides; requeue their content
        for r in gb.rules:
            if r.active and r is not new and find_division(gens, new.lead, r.lead):
                r.active = False
                push(len(r.lead), ("poly", r.poly(), dict(r.prov), r.exact))
        enqueue_cutoff_exts(new)
        # keep the remaining tails in normal form
        for r in gb.rules:
            if not r.active or r is new:
                continue
            rr = nc_reduce(r.tail, gb, with_trace=True)
            if rr.trace or rr.truncated:
                r.tail = rr.poly
                r.exact = (
                    _fold_trace(gb, rr.trace, r.prov if provenance else None, 1)
                    and r.exact
                    and not rr.truncated
                )
                enqueue_cutoff_exts(r)
        for r in gb.rules:
            if not r.active:
                continue
            gen_pairs(new, r)
            if r is not new:
                gen_pairs(r, new)
        pc, pn = word_split(gens, new.lead)
        if not pn:
            for x in noncentral:
                # a central-only lead rewrites at any position, so its tail
                # must commute with every noncommuting generator
                push(len(new.lead) + 1,
                     ("comb", ((1, (x,), new.idx, ()), (-1, (), new.idx, (x,))), True))
    return gb


def _irreducible_words(gb: TruncatedGB) -> list[Word]:
    """All rule-irreducible canonical words of length < trunc, shortest
    first, each length in word order."""
    levels = _irreducible_levels(gb.gens, gb.active_rules(), gb.trunc - 1)
    return [w for level in levels for w in sorted(level, key=gb.order.key)]


@dataclass
class QuotientReport:
    """Stabilized description of the quotient by the relations plus all words
    of unbounded length (the completed algebra)."""

    status: str  # "finite" | "not-finite"
    dim: Optional[int]
    certified_at: Optional[int]
    up_to: int
    basis: list[Word]
    graded_dims: list[int]
    weight_list: Optional[list[int]]
    gb: TruncatedGB = field(repr=False)


def quotient_report(
    p: Presentation, maxN: int = 20, allow_free_central: bool = False
) -> QuotientReport:
    """Complete at increasing cutoffs until the truncated quotient stabilizes.

    Equal basis counts at consecutive cutoffs N, N+1 certify the dimension
    (the quotient at N+1 surjects onto the one at N, so equal dimensions make
    the tower constant from N on); the reported monomial basis is taken from
    the first pair of consecutive cutoffs whose basis sets agree.
    """
    if maxN < 2:
        raise ValueError(f"the maximum cutoff must be >= 2, got {maxN}")
    basis: Optional[list[Word]] = None
    gb: Optional[TruncatedGB] = None
    certified_at: Optional[int] = None
    stabilized = False
    last_n = maxN
    prev: Optional[tuple[list[Word], TruncatedGB]] = None
    for N in range(2, maxN + 1):
        cur_gb = nc_complete(p, N, provenance=False)
        cur_basis = _irreducible_words(cur_gb)
        if prev is not None:
            pb, pgb = prev
            if certified_at is None and len(pb) == len(cur_basis):
                certified_at = N - 1
            if certified_at is not None and set(pb) == set(cur_basis):
                basis, gb, stabilized, last_n = cur_basis, cur_gb, True, N
                break
        prev = (cur_basis, cur_gb)
    if not stabilized:
        basis, gb = prev
    status = "finite" if certified_at is not None else "not-finite"
    weight_list = None
    if p.order == "wdeglex" and status == "finite":
        weight_list = sorted(word_weight(p.gens, w) for w in basis)
    report = QuotientReport(
        status=status,
        dim=len(basis) if status == "finite" else None,
        certified_at=certified_at,
        up_to=last_n,
        basis=basis,
        graded_dims=graded_dims(len(w) for w in basis),
        weight_list=weight_list,
        gb=gb,
    )
    if not allow_free_central:
        free = [
            p.gens.names[w[0]]
            for w in basis
            if len(w) == 1 and p.gens.central[w[0]]
        ]
        if status == "not-finite" and free:
            raise DimensionUndefinedError(
                f"free central parameters {free}: dimension undefined", report
            )
    return report


# -- membership certificates -------------------------------------------------

@dataclass
class ClaimResult:
    status: str  # "certified-zero" | "inconclusive"
    at: int  # cutoff used
    certificate: Optional[Provenance]
    normal_form: NcPoly


def expand_certificate(p: Presentation, cert: Provenance) -> NcPoly:
    """Evaluate  sum c * u * relation_i * v  in the free algebra."""
    out = NcPoly.zero(p.gens)
    for (u, i, v), c in cert.items():
        out = out + (
            NcPoly(p.gens, {u: c}) * p.relations[i] * NcPoly(p.gens, {v: Fraction(1)})
        )
    return out


def derive_check(
    p: Presentation, claims: Sequence[NcPoly], trunc: int
) -> list[ClaimResult]:
    """Decide two-sided ideal membership for each claim at the given cutoff.

    ``certified-zero`` requires a zero normal form computed without any
    truncation through exact rules only; the returned certificate is replayed
    against the original relations before being reported.  Anything else is
    ``inconclusive`` at this cutoff.
    """
    gb = nc_complete(p, trunc, provenance=True)
    out = []
    for f in claims:
        red = nc_reduce(f, gb, with_trace=True)
        if (
            red.poly.is_zero()
            and not red.truncated
            and _fold_trace(gb, red.trace, None, 1)
        ):
            cert: Provenance = {}
            _fold_trace(gb, red.trace, cert, 1)
            if expand_certificate(p, cert) != f:
                raise InternalConsistencyError(
                    "certificate replay does not reproduce the claim"
                )
            out.append(ClaimResult("certified-zero", trunc, cert, red.poly))
        else:
            out.append(ClaimResult("inconclusive", trunc, None, red.poly))
    return out


# -- structure of finite quotients ------------------------------------------

def center_basis(report: QuotientReport) -> list[NcPoly]:
    """Basis of the center of a finite-dimensional quotient.

    Solves [x, g] = 0 over the monomial basis for every noncommuting
    generator g (central generators commute identically).
    """
    if report.status != "finite":
        raise NotFiniteError("center computation needs a finite quotient")
    gb = report.gb
    gens = gb.gens
    basis = report.basis
    index = {w: k for k, w in enumerate(basis)}
    noncentral = [i for i, c in enumerate(gens.central) if not c]
    rows = []
    for w in basis:
        row: list[Fraction] = []
        wp = NcPoly(gens, {w: Fraction(1)})
        for g in noncentral:
            gp = NcPoly(gens, {(g,): Fraction(1)})
            nf = nc_reduce(wp * gp - gp * wp, gb).poly
            coords = [Fraction(0)] * len(basis)
            for mw, c in nf.terms.items():
                coords[index[mw]] = c
            row.extend(coords)
        rows.append(row)
    # left nullspace: central elements x satisfy x . rows = 0
    transposed = [list(col) for col in zip(*rows)] if rows and rows[0] else []
    if not transposed:
        vecs = [[Fraction(1) if i == j else Fraction(0) for j in range(len(basis))]
                for i in range(len(basis))]
    else:
        vecs = nullspace(transposed, len(basis))
    out = []
    for v in vecs:
        out.append(NcPoly(gens, {basis[k]: c for k, c in enumerate(v) if c}))
    return out


@dataclass
class QuadraticReport:
    sym_parts: list[NcPoly]
    antisym_parts: list[NcPoly]
    sym_rank: int
    antisym_rank: int


def quadratic_classify(p: Presentation) -> QuadraticReport:
    """Split each relation's quadratic noncommutative part into its symmetric
    and antisymmetric pieces and report the span dimensions of each kind."""
    gens = p.gens
    sym_parts, antisym_parts = [], []
    sspace, aspace = RowSpace(), RowSpace()
    for rel in p.relations:
        sym: dict[Word, Fraction] = {}
        anti: dict[Word, Fraction] = {}
        for w, c in rel.terms.items():
            wc, wn = word_split(gens, w)
            # quadratic in the noncommuting letters; central letters act as
            # scalar coefficients and ride along in the word key
            if len(wn) != 2:
                continue
            rev = wc + (wn[1], wn[0])
            half = c / 2
            for tgt, val in ((w, half), (rev, half)):
                sym[tgt] = sym.get(tgt, Fraction(0)) + val
            for tgt, val in ((w, half), (rev, -half)):
                anti[tgt] = anti.get(tgt, Fraction(0)) + val
        sp = NcPoly(gens, sym)
        ap = NcPoly(gens, anti)
        sym_parts.append(sp)
        antisym_parts.append(ap)
        if not sp.is_zero():
            sspace.add(dict(sp.terms))
        if not ap.is_zero():
            aspace.add(dict(ap.terms))
    return QuadraticReport(sym_parts, antisym_parts, sspace.rank, aspace.rank)


@dataclass
class AbelianizationReport:
    status: str
    dim: Optional[int]
    certified_at: Optional[int]
    nc_report: QuotientReport
    comm_report: object  # commpoly.LocalReport


def abelianization_report(p: Presentation, maxN: int = 20) -> AbelianizationReport:
    """Quotient report after adding all commutators of noncommuting
    generators, cross-checked against an independent commutative computation
    on the abelianized relations."""
    gens = p.gens
    noncentral = [i for i, c in enumerate(gens.central) if not c]
    comms = []
    for a in range(len(noncentral)):
        for b in range(a):
            fa = NcPoly(gens, {(noncentral[a],): Fraction(1)})
            fb = NcPoly(gens, {(noncentral[b],): Fraction(1)})
            comms.append(commutator(fa, fb))
    p_ab = Presentation(gens, p.relations + tuple(comms), p.order)
    rep = quotient_report(p_ab, maxN, allow_free_central=True)

    vars = VarSet(gens.names)
    weights = gens.weights if p.order == "wdeglex" else None
    corder = GrlexOrder(vars, weights)
    cgens = [g for g in (nc_abelianize(r) for r in p.relations) if not g.is_zero()]
    crep = local_report(cgens, corder, maxN)
    if rep.status != crep.status or (
        rep.status == "finite" and rep.dim != crep.dim
    ):
        raise InternalConsistencyError(
            "abelianization mismatch: rewriting gives "
            f"{rep.status}/{rep.dim}, commutative basis gives "
            f"{crep.status}/{crep.dim}"
        )
    return AbelianizationReport(rep.status, rep.dim, rep.certified_at, rep, crep)
