"""Degree-truncated two-sided rewriting systems for presented algebras.

A :class:`Presentation` is a generator set together with relations (elements
of the free algebra with central letters).  :func:`nc_complete` runs a
critical-pair completion in which each rule rewrites its lowest-degree term
(ties broken toward the largest word), so rewriting climbs in degree and the
cutoff ``trunc`` makes every computation finite.  The cut is on the order's
own degree, ``NcOrder.degree``: the length under ``deglex`` and the weight
under ``wdeglex``.  Since no tail word has a lower degree than its lead, a
rewrite of a word at or past the cut only creates words at or past the cut,
so dropping them is safe at every step.  The resulting system presents the
quotient of the free algebra by the relation ideal plus F_trunc, the span of
all words of degree >= ``trunc``; :func:`quotient_report` certifies the
dimension of the completed algebra through
:func:`~ncdef.commpoly.stable_tower`, the rule the commutative engine uses.

Rules carry provenance: an exact rule records how its polynomial expands as a
two-sided combination of the original relations, which lets
:func:`derive_check` emit independently replayable membership certificates.
Provenance is folded only for a pair that becomes a rule: pairs which reduce
to zero never build one.

Every normal form goes through :func:`nc_reduce`.  A :class:`TruncatedGB`
caches, per word, which active rule divides it and where; completion clears
the cache whenever a rule is added or retired, so the many reductions
between two such changes divide each word only once.  There is one division
search, :func:`find_division`: each rule splits its lead once, into a
multiset of central letters and a string key of its noncommutative letters,
and the word is split and keyed once per search, so trying a rule is a
C-level substring search rather than a scan of the word's factors.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .commpoly import (GrlexOrder, InternalConsistencyError, VarSet, graded_dims,
                       local_report, stable_tower, substitute)
from .freealg import (
    GenSet,
    NcOrder,
    NcPoly,
    Word,
    nc_abelianize,
    word_mul,
    word_split,
    word_weight,
)
from .linalg import nullspace

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

    __slots__ = ("lead", "tail", "prov", "exact", "idx", "active",
                 "lead_c", "lead_key")

    def __init__(self, lead: Word, tail: NcPoly, prov: Provenance, exact: bool, idx: int):
        self.lead = lead
        lc, ln = word_split(tail.gens, lead)
        self.lead_c = Counter(lc)  # central letters of the lead, as a multiset
        self.lead_key = _word_key(ln)  # its noncommutative part
        self.tail = tail
        self.prov = prov
        self.exact = exact
        self.idx = idx
        self.active = True

    def poly(self) -> NcPoly:
        return NcPoly(self.tail.gens, {self.lead: Fraction(1)}) - self.tail

    def __repr__(self) -> str:
        flag = "" if self.exact else " ~"
        return f"<rule {self.idx}{flag}: {self.lead} -> ...>"


@dataclass
class TruncatedGB:
    """A rewriting system at cutoff ``trunc`` on the order's degree.

    ``reductions`` caches, per word w, ``find_division(gens, active, w)``:
    ``(rule, u, v)`` for the lowest-index active rule whose lead divides w
    and its leftmost division ``w = u * rule.lead * v``, or None when no
    active lead divides it.  An entry depends only on the leads and active
    flags, so it is valid exactly while the set of active rules is
    unchanged: whoever adds or retires a rule must clear it.  A changed tail
    leaves it valid, since the tail is read only when a step is applied.
    """

    gens: GenSet
    order: NcOrder
    trunc: int
    rules: list[RewriteRule]
    reductions: dict[
        Word, Optional[tuple[RewriteRule, Word, Word]]
    ] = field(default_factory=dict, repr=False, compare=False)

    def active_rules(self) -> list[RewriteRule]:
        return [r for r in self.rules if r.active]


def _word_key(letters: Word) -> str:
    """One character per letter, so contiguous factors are substrings."""
    return "".join(map(chr, letters))


def find_division(
    gens: GenSet, rules: Sequence[RewriteRule], w: Word
) -> Optional[tuple[RewriteRule, Word, Word]]:
    """The first rule of ``rules`` whose lead divides ``w``, with its
    leftmost division ``w = u * rule.lead * v``, as ``(rule, u, v)``; or None.

    A lead divides a canonical word when its central letters embed in those
    of ``w`` (multiset containment) and its noncommutative part occurs as a
    contiguous factor; leftover central letters are returned inside ``u``.
    """
    wc, wn = word_split(gens, w)
    key = _word_key(wn)
    cnt = None
    for r in rules:
        i = key.find(r.lead_key)
        if i < 0:
            continue
        if r.lead_c:
            if cnt is None:
                cnt = Counter(wc)
            for x, k in r.lead_c.items():
                if cnt[x] < k:
                    break
            else:
                left = tuple(sorted((cnt - r.lead_c).elements()))
                return r, left + wn[:i], wn[i + len(r.lead_key):]
            continue
        return r, wc + wn[:i], wn[i + len(r.lead_key):]
    return None


_UNSEEN = object()  # marks a word missing from ``TruncatedGB.reductions``


@dataclass
class ReduceResult:
    poly: NcPoly
    trace: list[tuple[Fraction, Word, int, Word]]  # steps c * u * rule_i * v
    truncated: bool


def nc_reduce(f: NcPoly, gb: TruncatedGB) -> ReduceResult:
    """Normal form of ``f`` modulo the active rules and the cutoff.

    Each step rewrites the reducible term with the largest rule key (the
    lowest-degree one), using the lowest-index applicable rule at its leftmost
    occurrence; the returned trace records each step as ``(c, u, rule index,
    v)``.  Words of order degree >= ``trunc`` are dropped and recorded in
    ``truncated``.  Which rule divides a word, and where, is looked up in
    ``gb.reductions`` and searched only for words not seen since the active
    rules last changed; the rule key is computed once per call, and only for
    the reducible words.

    The rule key is multiplicative, so a step creates only words whose key
    is below that of the word it rewrote; as the largest reducible key is
    always taken, each word is rewritten at most once, with its whole
    accumulated coefficient.
    """
    gens, cache, rule_key = gb.gens, gb.reductions, gb.order.rule_key
    degree, trunc = gb.order.degree, gb.trunc
    active: Optional[list[RewriteRule]] = None
    keys: dict[Word, tuple] = {}  # rule keys of the reducible words seen
    work: dict[Word, Fraction] = {}
    truncated = False
    for w, c in f.terms.items():
        if degree(w) >= trunc:
            truncated = True
        else:
            work[w] = c
    trace: list[tuple[Fraction, Word, int, Word]] = []
    while True:
        best = best_w = best_k = None
        for w in work:
            hit = cache.get(w, _UNSEEN)
            if hit is _UNSEEN:
                if active is None:
                    active = gb.active_rules()
                hit = cache[w] = find_division(gens, active, w)
            if hit is None:
                continue
            k = keys.get(w)
            if k is None:
                k = keys[w] = rule_key(w)
            if best is None or k > best_k:
                best, best_w, best_k = hit, w, k
        if best is None:
            break
        rule, u, v = best
        c = work.pop(best_w)
        for tw, tc in rule.tail.terms.items():
            nw = word_mul(gens, word_mul(gens, u, tw), v)
            if degree(nw) >= trunc:
                truncated = True
                continue
            # most tail coefficients are +-1: a sign flip skips the product
            t = c if tc == 1 else -c if tc == -1 else c * tc
            if nw not in work:
                work[nw] = t
            elif nv := work[nw] + t:
                work[nw] = nv
            else:
                del work[nw]
        trace.append((c, u, rule.idx, v))
    return ReduceResult(NcPoly(gens, work), trace, truncated)


def _conj(gens: GenSet, u: Word, prov: Provenance, v: Word, c: Fraction) -> Provenance:
    out: Provenance = {}
    for (pu, i, pv), pc in prov.items():
        key = (word_mul(gens, u, pu), i, word_mul(gens, pv, v))
        t = pc * c  # Fraction first: c may be a +-1 int
        out[key] = out[key] + t if key in out else t
    return out


def _prov_add(dst: Provenance, src: Provenance) -> None:
    for key, c in src.items():
        if key not in dst:
            if c:  # _conj can leave a zero where two of its keys merged
                dst[key] = c
        elif nv := dst[key] + c:
            dst[key] = nv
        else:
            del dst[key]


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
            _prov_add(prov, _conj(gb.gens, u, rule.prov, v, c if sign > 0 else -c))
        exact = exact and rule.exact
    return exact


_MAX_COMPLETION_STEPS = 200_000


def nc_complete(p: Presentation, trunc: int, provenance: bool = True) -> TruncatedGB:
    """Critical-pair completion of the presentation at cutoff ``trunc`` on
    the order's degree.

    The pending queue is ordered by the length of the word a pair overlaps on
    (FIFO within a length).  A pair whose overlap word has degree >=
    ``trunc`` reduces to zero: no tail word has a lower degree than its
    lead, so every word of the pair's polynomial is at or past the cut.  For
    the same reason a word at or past the cut never rewrites back below it,
    so the critical pairs alone close the system under the cut.  The
    returned system is inter-reduced: no active lead divides another, and
    every tail is in normal form.
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
        of rules whose leads cancel (critical pairs, central-letter pairs);
        its polynomial is what remains,  -sum c * u * tail_i * v.
        """
        if item[0] == "poly":
            _, poly, _, exact = item
            return poly, exact
        _, combo = item
        terms: dict[Word, Fraction] = {}
        for c, u, i, v in combo:  # every c is 1 or -1
            for tw, tc in gb.rules[i].tail.terms.items():
                w = word_mul(gens, word_mul(gens, u, tw), v)
                t = -tc if c > 0 else tc
                terms[w] = terms[w] + t if w in terms else t
        return NcPoly(gens, terms), _fold_trace(gb, combo, None, 1)

    def item_prov(item) -> Provenance:
        """Provenance of an item, built only for one that becomes a rule."""
        if item[0] == "poly":
            return dict(item[2])
        prov: Provenance = {}
        _fold_trace(gb, item[1], prov, 1)
        return prov

    def gen_pairs(rp: RewriteRule, rq: RewriteRule) -> None:
        """Queue the critical pairs of the ordered rule pair (rp, rq)."""
        cp, cq = rp.lead_c, rq.lead_c
        pn = rp.lead[len(rp.lead) - len(rp.lead_key):]
        qn = rq.lead[len(rq.lead) - len(rq.lead_key):]
        shared = bool(cp & cq)
        cmax = cp | cq
        rest_p = tuple(sorted((cmax - cp).elements()))
        rest_q = tuple(sorted((cmax - cq).elements()))
        clen = sum(cmax.values())

        def emit(up, vp, uq, vq, wlen):
            push(wlen, ("comb", ((1, uq, rq.idx, vq), (-1, up, rp.idx, vp))))

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
        elif not qn and shared and (pn or rp is not rq):
            # a central-only lead q against any lead it shares central
            # letters with (qn without pn is the (rq, rp) ordered pair)
            emit(rest_p, (), rest_q, pn, clen + len(pn))

    steps = 0
    while heap:
        steps += 1
        if steps > _MAX_COMPLETION_STEPS:
            raise RuntimeError("completion step limit exceeded")
        _, _, item = heapq.heappop(heap)
        poly, exact = build(item)
        red = nc_reduce(poly, gb)
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
            if r.active and r is not new and find_division(gens, (new,), r.lead):
                r.active = False
                push(len(r.lead), ("poly", r.poly(), dict(r.prov), r.exact))
        gb.reductions.clear()  # the active rules changed
        # keep the remaining tails in normal form
        for r in gb.rules:
            if not r.active or r is new:
                continue
            rr = nc_reduce(r.tail, gb)
            if rr.trace or rr.truncated:
                r.tail = rr.poly
                r.exact = (
                    _fold_trace(gb, rr.trace, r.prov if provenance else None, 1)
                    and r.exact
                    and not rr.truncated
                )
        for r in gb.rules:
            if not r.active:
                continue
            gen_pairs(new, r)
            if r is not new:
                gen_pairs(r, new)
        if not new.lead_key:
            for x in noncentral:
                # a central-only lead rewrites at any position, so its tail
                # must commute with every noncommuting generator
                push(len(new.lead) + 1,
                     ("comb", ((1, (x,), new.idx, ()), (-1, (), new.idx, (x,)))))
    gb.reductions.clear()  # return a lean system; later reductions refill it
    return gb


def _irreducible_words(gb: TruncatedGB) -> list[Word]:
    """All rule-irreducible canonical words of degree < trunc, shortest
    first, each length in word order.

    Every word of length k+1 extends a word of length k by one letter, of
    no larger degree, and a rule dividing the shorter word divides the
    longer one, so extending only the irreducible words below the cut
    reaches them all.  No rule has the empty lead, so the empty word is
    irreducible.
    """
    gens, rules, degree = gb.gens, gb.active_rules(), gb.order.degree
    words: list[Word] = []
    level: list[Word] = [()]
    while level:
        words.extend(sorted(level, key=gb.order.key))
        longer = {word_mul(gens, w, (g,)) for w in level for g in range(len(gens.names))}
        level = [u for u in longer
                 if degree(u) < gb.trunc and find_division(gens, rules, u) is None]
    return words


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

    The cutoffs are order degrees W_k = w*k + 1 for k = 1 .. maxN - 1, where
    the step w is the largest generator weight under ``wdeglex`` and 1 under
    ``deglex`` (where the cuts are 2 .. maxN).  The last cut,
    w*(maxN - 1) + 1, is the least one that keeps every word of length
    < maxN.  ``certified_at`` and ``up_to`` are cuts, that is, order degrees.

    :func:`~ncdef.commpoly.stable_tower` runs the cuts and proves that equal
    dimensions at consecutive cuts W and W + w certify the dimension.  The
    basis, ``gb`` and ``up_to`` are the last cut's, W + w when certified.
    """
    if maxN < 2:
        raise ValueError(f"the maximum cutoff must be >= 2, got {maxN}")
    step = max(p.gens.weights) if p.order == "wdeglex" else 1

    def basis_at(N: int) -> tuple[list[Word], TruncatedGB]:
        gb = nc_complete(p, N, provenance=False)
        return _irreducible_words(gb), gb

    certified_at, up_to, basis, gb = stable_tower(
        range(step + 1, step * (maxN - 1) + 2, step), basis_at
    )
    status = "finite" if certified_at is not None else "not-finite"
    weight_list = None
    if p.order == "wdeglex" and status == "finite":
        weight_list = sorted(word_weight(p.gens, w) for w in basis)
    report = QuotientReport(
        status=status,
        dim=len(basis) if status == "finite" else None,
        certified_at=certified_at,
        up_to=up_to,
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
        red = nc_reduce(f, gb)
        cert: Provenance = {}
        if (
            red.poly.is_zero()
            and not red.truncated
            and _fold_trace(gb, red.trace, cert, 1)
        ):
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
    vecs = nullspace([list(col) for col in zip(*rows)], len(basis))
    out = []
    for v in vecs:
        out.append(NcPoly(gens, {basis[k]: c for k, c in enumerate(v) if c}))
    return out


@dataclass
class QuadraticReport:
    sym_rank: int
    antisym_rank: int


def _span_rank(polys: Sequence[NcPoly]) -> int:
    """Dimension of the span of ``polys``: the words they use less the
    nullity of their coefficient matrix."""
    cols = list(dict.fromkeys(w for f in polys for w in f.terms))
    rows = [[f.terms.get(w, Fraction(0)) for w in cols] for f in polys]
    return len(cols) - len(nullspace(rows, len(cols)))


def quadratic_classify(p: Presentation) -> QuadraticReport:
    """Split each relation's quadratic noncommutative part into its symmetric
    and antisymmetric pieces and report the span dimensions of each kind."""
    gens = p.gens
    sym_parts, antisym_parts = [], []
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
        sym_parts.append(NcPoly(gens, sym))
        antisym_parts.append(NcPoly(gens, anti))
    return QuadraticReport(_span_rank(sym_parts), _span_rank(antisym_parts))


@dataclass
class AbelianizationReport:
    status: str
    dim: Optional[int]
    certified_at: Optional[int]
    comm_report: object  # commpoly.LocalReport


def abelianization_report(p: Presentation, maxN: int = 20) -> AbelianizationReport:
    """Quotient report of the relations with every generator made central,
    dropping those whose image is zero (commutators), cross-checked against
    ``comm_report``, the commutative :func:`~ncdef.commpoly.local_report` of
    the abelianized relations; both certify through ``stable_tower``."""
    gens = p.gens
    central = GenSet(gens.names, gens.weights, (True,) * len(gens.names))
    images = (substitute(r, {}, central) for r in p.relations)
    p_ab = Presentation(central, tuple(r for r in images if not r.is_zero()), p.order)
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
    return AbelianizationReport(rep.status, rep.dim, rep.certified_at, crep)
