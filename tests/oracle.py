"""Test-only oracles for the rewriting engine.

``brute_force_dim`` is a linear-algebra oracle for truncated quotient
dimensions, independent of the rewriting engine: it spans every product
u*relation*v over all words and counts what is left.  ``rescan_reduce`` is
the reduction kernel without any cache, for checking ``nc_reduce``.
"""

from ncdef.freealg import NcOrder, NcPoly, word_mul
from ncdef.linalg import RowSpace
from ncdef.ncgb import find_division


def _words_up_to(gens, maxlen):
    seen = {(): None}
    level = [()]
    for _ in range(maxlen):
        nxt = []
        for w in level:
            for gi in range(len(gens.names)):
                u = word_mul(gens, w, (gi,))
                if u not in seen:
                    seen[u] = None
                    nxt.append(u)
        level = nxt
    return list(seen)


def brute_force_dim(p, n):
    """dim of T/(I + m^n) by straight linear algebra over words of length < n."""
    gens = p.gens
    words = _words_up_to(gens, n - 1)
    span = RowSpace(key=NcOrder(gens, p.order).key)
    for rel in p.relations:
        minlen = min(len(w) for w in rel.terms)
        for u in words:
            for v in words:
                if len(u) + minlen + len(v) >= n:
                    continue
                f = NcPoly.word(gens, u) * rel * NcPoly.word(gens, v)
                f = NcPoly(gens, {w: c for w, c in f.terms.items() if len(w) < n})
                if not f.is_zero():
                    span.add(dict(f.terms))
    return len(words) - span.rank


def rescan_reduce(f, gb):
    """Normal form of ``f`` modulo ``gb`` by a full rescan at every step.

    Every step divides every word still in the remainder by every active
    rule, keeps nothing between steps, and rewrites the word with the largest
    rule key by its lowest-index divisor at the leftmost occurrence.
    Returns ``(poly, trace, truncated)`` in the form of ``nc_reduce``'s
    result, for comparison with the engine's cached kernel.
    """
    gens, order = gb.gens, gb.order
    active = [r for r in gb.rules if r.active]
    work = {w: c for w, c in f.terms.items() if len(w) < gb.trunc}
    truncated = len(work) < len(f.terms)
    trace = []
    while True:
        best = None
        for w in work:
            for r in active:
                div = find_division(gens, r.lead, w)
                if div is not None:
                    k = order.rule_key(w)
                    if best is None or k > best[0]:
                        best = (k, w, r, div)
                    break
        if best is None:
            return NcPoly(gens, work), trace, truncated
        _, w, rule, (u, v) = best
        c = work.pop(w)
        for tw, tc in rule.tail.terms.items():
            nw = word_mul(gens, word_mul(gens, u, tw), v)
            if len(nw) >= gb.trunc:
                truncated = True
                continue
            nv = work.get(nw, 0) + c * tc
            if nv:
                work[nw] = nv
            else:
                del work[nw]
        trace.append((c, u, rule.idx, v))
