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
to zero never build one.  A pair whose overlap word has degree >= ``trunc``
is not queued at all, since every word of its polynomial is at or past the
cut.

Completion runs over ``int``s: every normal form goes through the one
kernel :func:`~ncdef.commpoly._rewrite`, by :func:`_reduce`, with one
running scale, provenance is folded into integer accumulators, and
``Fraction``s are built only for a new rule's tail and the public views.  A
:class:`TruncatedGB` caches, per word, which active rule divides it and
where, together with how many rules that search has seen.  Completion
clears the cache only before it returns: a rule added or retired just makes
an entry resume its search at the first rule it has not seen, so the cache
tries a word against each rule at most once per completion.  After a new
rule, the kernel runs only on the tails that hold a word some active lead
now divides.  There is one division search, :func:`find_division`: each
rule splits its lead once, into the sorted tuple of its central letters and
a string key of its noncommutative letters, and the word is split and keyed
once per search, so trying a rule is a C-level substring search.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .commpoly import (GrlexOrder, InternalConsistencyError, LocalReport, VarSet,
                       _cleared, _rewrite, _standard_levels, graded_dims, local_report,
                       stable_tower, substitute)
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
# representing the two-sided combination  sum c * u * relation_i * v.  An
# accumulator [terms, D] holds the provenance {key: t / D} over the ints.
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
    dropped by truncation anywhere in the rule's derivation).  Setting
    ``tail`` sets ``red``, the rule's integer reducer (lead, L, R) in the
    convention of :class:`~ncdef.commpoly.CommGB`: L*(lead - tail) =
    L*lead + R, with R a list of (word, int) terms.  ``prov`` is the view of
    the accumulator ``acc`` (None without provenance).
    """

    __slots__ = ("lead", "_tail", "red", "acc", "exact", "idx", "active",
                 "lead_c", "lead_key")

    def __init__(self, lead: Word, tail: NcPoly, acc: list | None, exact: bool, idx: int):
        self.lead = lead
        lc, ln = word_split(tail.gens, lead)
        self.lead_c = lc  # central letters of the lead, sorted
        self.lead_key = _word_key(ln)  # its noncommutative part
        self.tail = tail
        self.acc = acc
        self.exact = exact
        self.idx = idx
        self.active = True

    def _set_tail(self, tail: NcPoly) -> None:
        work, L = _cleared(tail)
        self._tail, self.red = tail, (self.lead, L, [(w, -c) for w, c in work.items()])

    tail = property(lambda self: self._tail, _set_tail)
    prov = property(lambda self: _prov_view(self.acc))

    def poly(self) -> NcPoly:
        return NcPoly(self.tail.gens, {self.lead: Fraction(1)}) - self.tail

    def __repr__(self) -> str:
        flag = "" if self.exact else " ~"
        return f"<rule {self.idx}{flag}: {self.lead} -> ...>"


@dataclass
class TruncatedGB:
    """A rewriting system at cutoff ``trunc`` on the order's degree.

    ``reductions`` maps a word w to ``(hit, seen)``: ``hit`` is ``(rule, u,
    v)`` for the lowest-index active rule whose lead divides w and its
    leftmost division ``w = u * rule.lead * v``, or None, as far as the
    rules below index ``seen`` go; the search that made the entry tried
    exactly those.  Leads never change, rules are only appended, and a rule
    once retired stays retired, so the entry stays right for the rules it
    has seen: :meth:`division` resumes it at ``seen`` when the hit has
    retired (``seen`` is then the hit's index + 1) or when no rule below
    ``seen`` divides w and rules were added since.  No one needs to clear
    it; a changed tail leaves it valid too, since the tail is read only when
    a step is applied.
    """

    gens: GenSet
    order: NcOrder
    trunc: int
    rules: list[RewriteRule]
    reductions: dict[
        Word, tuple[Optional[tuple[RewriteRule, Word, Word]], int]
    ] = field(default_factory=dict, repr=False, compare=False)

    def active_rules(self) -> list[RewriteRule]:
        return [r for r in self.rules if r.active]

    def division(self, w: Word) -> Optional[tuple[RewriteRule, Word, Word]]:
        """``find_division`` of w over the active rules, through
        ``reductions``: a search runs only over the rules its entry has not
        seen, and the entry records how far it got."""
        hit, seen = self.reductions.get(w, _FRESH)
        if hit is not None and hit[0].active:
            return hit
        n = len(self.rules)
        if seen == n:
            return None
        hit = find_division(self.gens, filter(_ACTIVE, self.rules[seen:]), w)
        self.reductions[w] = (hit, hit[0].idx + 1 if hit else n)
        return hit


_FRESH = (None, 0)  # the entry of a word no search has seen
_ACTIVE = attrgetter("active")


def _word_key(letters: Word) -> str:
    """One character per letter, so contiguous factors are substrings."""
    return "".join(map(chr, letters))


def _central_minus(a: Word, b: Word) -> Word:
    """The multiset difference a - b of two sorted tuples of letters,
    sorted."""
    rest = list(a)
    for x in b:
        if x in rest:
            rest.remove(x)
    return tuple(rest)


def find_division(
    gens: GenSet, rules: Iterable[RewriteRule], w: Word
) -> Optional[tuple[RewriteRule, Word, Word]]:
    """The first rule of ``rules`` whose lead divides ``w``, with its
    leftmost division ``w = u * rule.lead * v``, as ``(rule, u, v)``; or None.

    A lead divides a canonical word when its central letters embed in those
    of ``w`` (multiset containment) and its noncommutative part occurs as a
    contiguous factor; leftover central letters are returned inside ``u``.
    """
    wc, wn = word_split(gens, w)
    key = _word_key(wn)
    for r in rules:
        i = key.find(r.lead_key)
        if i < 0:
            continue
        lc = r.lead_c
        if lc:
            left = _central_minus(wc, lc)
            if len(left) + len(lc) != len(wc):
                continue  # a central letter of the lead is missing from w
            return r, left + wn[:i], wn[i + len(r.lead_key):]
        return r, wc + wn[:i], wn[i + len(r.lead_key):]
    return None


@dataclass
class ReduceResult:
    poly: NcPoly
    trace: list[tuple[Fraction, Word, int, Word]]  # steps c * u * rule_i * v
    truncated: bool


def _reduce(work: dict[Word, int], scale: int, gb: TruncatedGB):
    """``(rem, scale, trace, truncated)`` of :func:`~ncdef.commpoly._rewrite`
    modulo the active rules and the cutoff, each step c * u * rule_i * v in
    the trace as ``(c, scale, u, i, v)``.  A word's divisor is its division
    (rule, u, v), by :meth:`TruncatedGB.division`, and the product with a
    tail word t is u*t*v, one canonical product u*t followed by v, which has
    no central letters.  ``NcOrder.heap_key`` reverses the
    multiplicative rule key, so each step rewrites the reducible word of the
    largest rule key (the lowest-degree one).
    """
    gens, division = gb.gens, gb.division

    def divide(w: Word):
        hit = division(w)
        return hit and (hit[0].red, hit)

    def product(hit, t: Word) -> Word:
        return word_mul(gens, hit[1], t) + hit[2]

    rem, scale, steps, truncated = _rewrite(work, scale, divide, product,
                                            gb.order.heap_key, gb.order.degree, gb.trunc)
    return rem, scale, [(c, s, u, r.idx, v) for c, s, (r, u, v) in steps], truncated


def nc_reduce(f: NcPoly, gb: TruncatedGB) -> ReduceResult:
    """Normal form of ``f`` by :func:`_reduce`, in ``Fraction``s:
    its trace records each step c * u * rule_i * v as ``(c, u, i, v)``."""
    rem, scale, trace, truncated = _reduce(*_cleared(f), gb)
    poly = NcPoly(gb.gens, {w: Fraction(c, scale) for w, c in rem.items()})
    return ReduceResult(poly, [(Fraction(c, s), u, i, v) for c, s, u, i, v in trace],
                        truncated)


def _prov_view(acc: list | None) -> Provenance:
    """The provenance an accumulator holds; empty for None."""
    return {k: Fraction(t, acc[1]) for k, t in acc[0].items()} if acc else {}


def _fold_trace(gb: TruncatedGB, trace: Sequence[tuple[int, int, Word, int, Word]],
                acc: list | None, sign: int) -> bool:
    """Add ``sign * c/s * u * prov_i * v`` for each raw step ``(c, s, u, i,
    v)`` to the accumulator ``acc`` (skipped when None), raising its
    denominator as a step needs; True when every rule used is exact.  A step
    by the rule that owns ``acc`` reads a snapshot of it."""
    gens, rules = gb.gens, gb.rules
    exact = True
    for c, s, u, i, v in trace:
        rule = rules[i]
        exact = exact and rule.exact
        if acc is None:
            continue
        src, den = rule.acc
        dst = acc[0]
        src = dict(src) if src is dst else src
        m = s * den
        g = gcd(c, m)
        c, m = sign * c // g, m // g
        a = m // gcd(acc[1], m)
        if a != 1:
            acc[1] *= a
            for k in dst:
                dst[k] *= a
        c *= acc[1] // m
        for (pu, j, pv), t in src.items():
            key = (word_mul(gens, u, pu), j, word_mul(gens, pv, v))
            t *= c
            if key not in dst:
                dst[key] = t
            elif nv := dst[key] + t:
                dst[key] = nv
            else:
                del dst[key]
    return exact


_MAX_COMPLETION_STEPS = 200_000


def nc_complete(p: Presentation, trunc: int, provenance: bool = True) -> TruncatedGB:
    """Critical-pair completion of the presentation at cutoff ``trunc`` on
    the order's degree.

    The pending queue is ordered by the length of the word a pair overlaps on
    (FIFO within a length).  A pair whose overlap word has degree >=
    ``trunc`` is not queued: no tail word has a lower degree than its lead,
    so every word of the pair's polynomial is at or past the cut and it
    reduces to zero.  For the same reason a word at or past the cut never
    rewrites back below it, so the critical pairs alone close the system
    under the cut.  The step limit ``_MAX_COMPLETION_STEPS`` counts the
    items popped from the queue, so a pair at or past the cut never counts
    toward it.  The returned system is inter-reduced: no active lead divides
    another, and every tail is in normal form.
    """
    if trunc < 2:
        raise ValueError("trunc must be >= 2")
    gens = p.gens
    order = NcOrder(gens, p.order)
    degree = order.degree
    gb = TruncatedGB(gens, order, trunc, [])
    noncentral = [i for i, c in enumerate(gens.central) if not c]

    heap: list = []
    seq = 0

    def push(prio: int, item) -> None:
        nonlocal seq
        heapq.heappush(heap, (prio, seq, item))
        seq += 1

    for i, rel in enumerate(p.relations):
        acc = [{((), i, ()): 1}, 1] if provenance else None
        push(min(len(w) for w in rel.terms), ("poly", *_cleared(rel), acc, True))

    def build(item) -> tuple[dict[Word, int], int, bool]:
        """``(work, scale, exact)`` of an item, whose polynomial is work/scale.

        A ``comb`` item is a two-sided combination  sum c * u * rule_i * v
        of rules whose leads cancel (critical pairs, central-letter pairs),
        as raw trace steps ``(c, 1, u, i, v)``; its polynomial is what
        remains,  sum c * u * R_i * v / L_i, over the lcm of the rules' L.
        Every right word v is a noncommutative suffix, so u * t * v is the
        canonical product u * t followed by v.
        """
        if item[0] == "poly":
            _, work, scale, _, exact = item
            return work, scale, exact
        _, combo = item
        scale = lcm(*(gb.rules[i].red[1] for _, _, _, i, _ in combo))
        work: dict[Word, int] = {}
        for c, _, u, i, v in combo:  # every c is 1 or -1
            _, L, tail = gb.rules[i].red
            k = c * (scale // L)
            for tw, tc in tail:
                w = word_mul(gens, u, tw) + v
                work[w] = work[w] + k * tc if w in work else k * tc
        return {w: c for w, c in work.items() if c}, scale, _fold_trace(gb, combo, None, 1)

    def item_acc(item) -> list:
        """Provenance of an item, built only for one that becomes a rule."""
        if item[0] == "poly":
            return [dict(item[3][0]), item[3][1]]
        acc = [{}, 1]
        _fold_trace(gb, item[1], acc, 1)
        return acc

    def push_pair(up: Word, rp: RewriteRule, vp: Word,
                  uq: Word, rq: RewriteRule, vq: Word) -> None:
        """Queue  uq * rule_q * vq - up * rule_p * vp,  whose leads cancel,
        by the length of its overlap word  uq * lead_q * vq.  A pair whose
        overlap word has degree >= ``trunc`` is not queued: every word of
        its polynomial is at or past the cut."""
        if degree(uq) + degree(rq.lead) + degree(vq) >= trunc:
            return
        push(len(uq) + len(rq.lead) + len(vq),
             ("comb", ((1, 1, uq, rq.idx, vq), (-1, 1, up, rp.idx, vp))))

    def gen_pairs(rp: RewriteRule, rq: RewriteRule) -> None:
        """Queue the critical pairs of the ordered rule pair (rp, rq)."""
        cp, cq = rp.lead_c, rq.lead_c
        pn = rp.lead[len(cp):]
        qn = rq.lead[len(cq):]
        # the central letters each lead lacks of the two leads' union
        rest_p, rest_q = _central_minus(cq, cp), _central_minus(cp, cq)
        shared = len(rest_q) < len(cp)
        if pn and qn:
            # proper overlaps: a suffix of pn is a prefix of qn
            for k in range(1, min(len(pn), len(qn))):
                if pn[-k:] == qn[:k]:
                    push_pair(rest_p, rp, qn[k:], rest_q + pn[:-k], rq, ())
            # inclusions: qn occurs inside pn (or the leads share nc part)
            if len(qn) < len(pn) or (qn == pn and rp is not rq):
                m = len(qn)
                for i in range(len(pn) - m + 1):
                    if pn[i : i + m] == qn:
                        push_pair(rest_p, rp, (), rest_q + pn[:i], rq, pn[i + m :])
            # disjoint factors competing for shared central letters
            if shared:
                push_pair(rest_p, rp, qn, rest_q + pn, rq, ())
        elif not qn and shared and (pn or rp is not rq):
            # a central-only lead q against any lead it shares central
            # letters with (qn without pn is the (rq, rp) ordered pair)
            push_pair(rest_p, rp, (), rest_q, rq, pn)

    steps = 0
    while heap:
        steps += 1
        if steps > _MAX_COMPLETION_STEPS:
            raise RuntimeError("completion step limit exceeded")
        _, _, item = heapq.heappop(heap)
        work, scale, exact = build(item)
        rem, scale, trace, truncated = _reduce(work, scale, gb)
        if not rem:
            continue
        # nothing has changed gb.rules since the pop, so the provenance
        # folded now is the one the item would have carried all along
        acc = item_acc(item) if provenance else None
        exact = _fold_trace(gb, trace, acc, -1) and exact and not truncated
        lead = max(rem, key=order.rule_key)
        if not lead:
            raise PresentationError("relations generate the unit ideal")
        c0 = rem[lead]
        tail = NcPoly(gens, {w: Fraction(-c, c0) for w, c in rem.items() if w != lead})
        if provenance:  # acc gives rem / scale, and the rule is rem / c0
            terms, den = acc[0], acc[1] * c0
            g = gcd(den, scale * gcd(*terms.values())) * (1 if den > 0 else -1)
            acc = [{k: t * scale // g for k, t in terms.items()}, den // g]
        new = RewriteRule(lead, tail, acc, exact, len(gb.rules))
        gb.rules.append(new)
        # retire rules whose lead the new lead divides; requeue their content
        for r in gb.rules:
            if r.active and r is not new and find_division(gens, (new,), r.lead):
                r.active = False
                _, L, rtail = r.red
                push(len(r.lead), ("poly", dict([(r.lead, L), *rtail]), L, r.acc, r.exact))
        # keep the remaining tails in normal form: with R/L the rule's
        # polynomial less its lead, the new one is lead + NF(R/L).  A tail
        # none of whose words an active lead divides is its own normal form
        # (tails lie below the cut), so the kernel runs only on the others.
        for r in gb.rules:
            if not r.active or r is new:
                continue
            _, L, rtail = r.red
            if not any(gb.division(w) for w, _ in rtail):
                continue
            rem, scale, trace, truncated = _reduce(dict(rtail), L, gb)
            if trace or truncated:
                r.tail = NcPoly(gens, {w: Fraction(-c, scale) for w, c in rem.items()})
                r.exact = _fold_trace(gb, trace, r.acc, -1) and r.exact and not truncated
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
                push_pair((), new, (x,), (x,), new, ())
    gb.reductions.clear()  # return a lean system; later reductions refill it
    return gb


def _irreducible_words(gb: TruncatedGB) -> tuple[list[Word], bool]:
    """``(words, closed)``: all rule-irreducible canonical words of degree <
    trunc, shortest first, each length in word order, by
    :func:`~ncdef.commpoly._standard_levels`, and whether the cut is closed
    (every crossing word, a child of one of them of degree >= trunc, is
    divisible by an active lead; see :func:`~ncdef.commpoly.stable_tower`).
    A word's children append a noncommuting letter, or, while it has none,
    a central letter no smaller than its last; its parents drop one central
    letter, or its first or its last noncommuting letter.
    """
    gens, rules, degree = gb.gens, gb.active_rules(), gb.order.degree
    central = gens.central
    nc = [(g,) for g, c in enumerate(central) if not c]
    cen = [g for g, c in enumerate(central) if c]

    def children(w: Word) -> list[Word]:
        out = [w + x for x in nc]
        if not w or central[w[-1]]:
            out += [w + (y,) for y in cen if not w or y >= w[-1]]
        return out

    def parents(w: Word) -> list[Word]:
        k = len(word_split(gens, w)[0])
        out = [w[:i] + w[i + 1:] for i in range(k)]
        if k < len(w):
            out += (w[:k] + w[k + 1:], w[:-1])
        return out

    levels, crossing = _standard_levels(
        (), children, parents, {r.lead for r in rules},
        lambda w: degree(w) < gb.trunc, gb.order.key)
    closed = all(find_division(gens, rules, w) for w in crossing)
    return [w for level in levels for w in level], closed


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
    dimensions at consecutive cuts W and W + w certify the dimension at W,
    as does a closed cut W before the last one, with no cut past it run.
    The basis, ``gb`` and ``up_to`` are the last cut's: W + w when equal
    dimensions certify, W when its closed test does.
    """
    if maxN < 2:
        raise ValueError(f"the maximum cutoff must be >= 2, got {maxN}")
    step = max(p.gens.weights) if p.order == "wdeglex" else 1

    def basis_at(N: int) -> tuple[list[Word], TruncatedGB, bool]:
        gb = nc_complete(p, N, provenance=False)
        words, closed = _irreducible_words(gb)
        return words, gb, closed

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
        acc = [{}, 1]
        steps = [(c.numerator, c.denominator, u, i, v) for c, u, i, v in red.trace]
        if (
            red.poly.is_zero()
            and not red.truncated
            and _fold_trace(gb, steps, acc, 1)
        ):
            cert = _prov_view(acc)
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
    comm_report: LocalReport


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
