"""Brute-force linear-algebra oracle for truncated quotient dimensions.

Independent of the rewriting engine: it spans every product u*relation*v
over all words and counts what is left.
"""

from ncdef.freealg import NcOrder, NcPoly, word_mul
from ncdef.linalg import RowSpace


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
