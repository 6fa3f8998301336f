"""Test-only oracles for the rewriting engine.

``brute_force_dim`` is a linear-algebra oracle for truncated quotient
dimensions, independent of the rewriting engine: it spans every product
u*relation*v over all words and counts what is left, with its own
elimination, so it shares no code with ``ncdef.linalg``.  Both oracles cut
by the order's degree, computed here by ``degree``: the length under
``deglex``, the weight sum under ``wdeglex``.  ``rescan_reduce`` is
the reduction kernel without any cache, for checking ``nc_reduce``; it divides
words with its own ``divide``, a letter-by-letter scan that shares no code
with the engine's division search.  ``monomials_of_degree`` lists the
monomials of one total degree, for the commutative engine's cut ideals with
every cut monomial written out as a generator.  ``fraction_normal_form`` and
``fraction_spoly`` are the commutative reduction kernel and S-polynomial in
``Fraction`` arithmetic, for checking the engine's integer ones;
``fraction_fold`` is the provenance fold of the rewriting engine in
``Fraction`` arithmetic, for checking its integer accumulators.
"""

from collections import Counter
from itertools import combinations_with_replacement

from ncdef.commpoly import CommPoly
from ncdef.freealg import NcPoly, word_mul, word_split


def monomials_of_degree(vars, deg):
    """Every exponent tuple over ``vars`` of total degree ``deg``, sorted."""
    n = len(vars)
    return sorted(
        tuple(map(c.count, range(n)))
        for c in combinations_with_replacement(range(n), deg)
    )


def fraction_normal_form(f, gb):
    """Normal form of ``f`` under the finished ``CommGB`` ``gb``, step by
    step in ``Fraction`` arithmetic: the largest term left, found by a scan
    of every term, is divided by the first element whose lead divides it,
    and under a cut the first term at or past it ends the reduction."""
    key, cut = gb.order.key, gb.order.cut
    rem = {}
    work = dict(f.terms)
    while work:
        e = max(work, key=key)
        if cut is not None and sum(e) >= cut:
            break
        c = work.pop(e)
        for g, ge in zip(gb.basis, gb.leads):
            if all(a <= b for a, b in zip(ge, e)):
                q = tuple(a - b for a, b in zip(e, ge))
                for te, tc in g.terms.items():
                    ne = tuple(a + b for a, b in zip(q, te))
                    if ne == e:
                        continue
                    nv = work.get(ne, 0) - c * tc
                    if nv:
                        work[ne] = nv
                    else:
                        del work[ne]
                break
        else:
            rem[e] = c
    return CommPoly(f.vars, rem)


def fraction_spoly(f, fe, g, ge, lcm):
    """S-polynomial of the monic f and g with leads fe and ge that divide
    the exponents ``lcm``: x^(lcm - fe)*f - x^(lcm - ge)*g."""
    qf = tuple(a - b for a, b in zip(lcm, fe))
    qg = tuple(a - b for a, b in zip(lcm, ge))
    terms = {tuple(a + b for a, b in zip(qf, e)): c for e, c in f.terms.items()}
    for e, c in g.terms.items():
        ne = tuple(a + b for a, b in zip(qg, e))
        terms[ne] = terms[ne] - c if ne in terms else -c
    return CommPoly(f.vars, terms)


def fraction_fold(gens, provs, trace, dst, sign):
    """Add ``sign * c * u * provs[i] * v`` to the provenance ``dst`` for
    each step ``(c, u, i, v)`` of ``trace``, in ``Fraction`` arithmetic.

    Each step first builds its whole term, the provenance ``provs[i]`` with
    u and v multiplied on and its coefficients scaled, and then adds it, so
    ``provs[i]`` may be ``dst`` itself: a step reads it as the earlier steps
    left it.  A key whose sum is zero is removed.
    """
    for c, u, i, v in trace:
        term = {}
        for (pu, j, pv), pc in provs[i].items():
            key = (word_mul(gens, u, pu), j, word_mul(gens, pv, v))
            term[key] = term.get(key, 0) + sign * c * pc
        for key, t in term.items():
            nv = dst.get(key, 0) + t
            if nv:
                dst[key] = nv
            else:
                dst.pop(key, None)


def divide(gens, lead, w):
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


def first_division(gens, rules, w):
    """``(rule, u, v)`` for the first rule of ``rules`` whose lead divides
    ``w`` and its leftmost division, or None, found by ``divide``."""
    for r in rules:
        div = divide(gens, r.lead, w)
        if div is not None:
            return (r, *div)
    return None


def degree(gens, order, w):
    """The degree the cut applies to: length, or the sum of the weights."""
    return sum(gens.weights[i] for i in w) if order == "wdeglex" else len(w)


def _words_below(gens, order, n):
    """Every canonical word of degree < n."""
    seen = {(): None}
    level = [()]
    while level:
        nxt = []
        for w in level:
            for gi in range(len(gens.names)):
                u = word_mul(gens, w, (gi,))
                if u not in seen and degree(gens, order, u) < n:
                    seen[u] = None
                    nxt.append(u)
        level = nxt
    return list(seen)


def _rank(vectors):
    """Rank of sparse vectors (dicts word -> coefficient) by elimination."""
    rows = {}  # pivot word -> a reduced row whose largest word it is
    for vec in vectors:
        vec = dict(vec)
        while vec:
            piv = max(vec)
            row = rows.get(piv)
            if row is None:
                rows[piv] = vec
                break
            factor = vec[piv] / row[piv]
            for w, c in row.items():
                nv = vec.get(w, 0) - factor * c
                if nv:
                    vec[w] = nv
                else:
                    del vec[w]
    return len(rows)


def brute_force_dim(p, n):
    """dim of T/(I + F_n) by straight linear algebra over the words of
    degree < n, where F_n spans the words of degree >= n."""
    gens = p.gens

    def deg(w):
        return degree(gens, p.order, w)

    words = _words_below(gens, p.order, n)

    def products():
        for rel in p.relations:
            mindeg = min(map(deg, rel.terms))
            for u in words:
                for v in words:
                    if deg(u) + mindeg + deg(v) < n:
                        f = NcPoly.word(gens, u) * rel * NcPoly.word(gens, v)
                        yield {w: c for w, c in f.terms.items() if deg(w) < n}

    return len(words) - _rank(products())


def rescan_reduce(f, gb):
    """Normal form of ``f`` modulo ``gb`` by a full rescan at every step.

    Every step divides every word still in the remainder by every active
    rule, keeps nothing between steps, and rewrites the word with the largest
    rule key by its lowest-index divisor at the leftmost occurrence.
    Returns ``(poly, trace, truncated)`` in the form of ``nc_reduce``'s
    result, for comparison with the engine's cached kernel.
    """
    gens, order = gb.gens, gb.order

    def deg(w):
        return degree(gens, order.mode, w)

    active = [r for r in gb.rules if r.active]
    work = {w: c for w, c in f.terms.items() if deg(w) < gb.trunc}
    truncated = len(work) < len(f.terms)
    trace = []
    while True:
        best = None
        for w in work:
            hit = first_division(gens, active, w)
            if hit is not None:
                k = order.rule_key(w)
                if best is None or k > best[0]:
                    best = (k, w, hit)
        if best is None:
            return NcPoly(gens, work), trace, truncated
        _, w, (rule, u, v) = best
        c = work.pop(w)
        for tw, tc in rule.tail.terms.items():
            nw = word_mul(gens, word_mul(gens, u, tw), v)
            if deg(nw) >= gb.trunc:
                truncated = True
                continue
            nv = work.get(nw, 0) + c * tc
            if nv:
                work[nw] = nv
            else:
                del work[nw]
        trace.append((c, u, rule.idx, v))
