"""Exact multivariate commutative polynomials over Q with Buchberger bases.

:class:`Poly`, a sparse map from monomials to nonzero Fractions, is also the
core of :class:`~ncdef.freealg.NcPoly`; :class:`CommPoly` takes exponent
tuples as monomials, and :func:`substitute` serves both.  Ideals are
ordered by graded (optionally weighted) lexicographic order,
:class:`GrlexOrder`; an ideal cut at total degree N is ordered by the local
degree order :class:`LocalOrder`, which carries N, so that a polynomial's lead
is its lowest-degree term.  Includes normal forms, quotient monomial bases,
and local (truncation-stabilized) quotient reports; :func:`stable_tower`
certifies a truncated tower for this engine and for the rewriting engine.

:func:`groebner` discards useless S-pairs before reducing them with the
Gebauer-Moeller criteria (the B, M and F chain criteria and the coprime-lead
criterion), never queues a pair of two monomials, whose S-polynomial is zero,
and reduces the pair of lowest sugar degree, then smallest lcm, first.  Its
normal forms divide only by the live elements, those whose lead no later
lead divides.  Under a :class:`LocalOrder` with cut N it also holds every
monomial of total degree N, without building them as generators.  A
:class:`CommGB` is monic and carries one list of its elements' lead
exponents, so normal forms and quotient bases neither recompute a lead nor
divide by its coefficient.  Reduction is fraction-free: :func:`_rewrite`,
the one normal-form kernel of both engines, divides by integer reducers
with one running scale, looks a term's divisor up once, when the term
enters the work, and heaps only reducible terms.  Buchberger's loop stays
in the integers throughout, so ``Fraction``s are built only for returned
bases and normal forms.  One enumerator, :func:`_standard_levels`, lists
standard monomials and words, and one printer, :func:`word_str`, writes
them.  A ``float`` coefficient is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import groupby
from math import gcd, lcm
from operator import add, le, mul, neg, sub
from typing import Callable, Iterable, Mapping, Optional, Sequence

Exponents = tuple[int, ...]


class VarSetError(ValueError):
    """An unknown name, or operands that belong to different sets."""


class DivisionByZeroPolyError(ZeroDivisionError):
    """Exact division by the zero polynomial."""


class InternalConsistencyError(AssertionError):
    """Two independent computations of the same quantity disagreed."""


@dataclass(frozen=True)
class VarSet:
    names: tuple[str, ...]

    _noun = "variable"  # what the error messages call a name

    def __post_init__(self):
        if not self.names:
            raise ValueError(f"empty {self._noun} set")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate {self._noun} names")
        for n in self.names:
            if not n or not isinstance(n, str):
                raise ValueError(f"{self._noun} names must be non-empty strings")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise VarSetError(f"unknown {self._noun} {name!r}") from None


def varset(*names: str) -> VarSet:
    return VarSet(tuple(names))


class GrlexOrder:
    """Graded lexicographic order, optionally weighted.

    Keys ascend: higher (weighted) total degree is larger; ties broken by the
    exponent tuple, so an earlier variable with a higher exponent wins.
    """

    cut = None  # no degree cut: every monomial is kept

    def __init__(self, vars: VarSet, weights: Optional[Sequence[int]] = None):
        if weights is not None:
            weights = tuple(weights)
            if len(weights) != len(vars) or any(w < 1 for w in weights):
                raise ValueError("need one positive weight per variable")
        self.vars = vars
        self.weights = weights

    def degree(self, exps: Exponents) -> int:
        if self.weights is None:
            return sum(exps)
        return sum(map(mul, self.weights, exps))

    def key(self, exps: Exponents):
        return (self.degree(exps), exps)

    def heap_key(self, exps: Exponents):
        """The key negated: a min-heap of these pops the largest first."""
        return (-self.degree(exps), tuple(map(neg, exps)))


class LocalOrder(GrlexOrder):
    """Local degree order of the ideals cut at total degree ``cut``.

    Keys ascend: lower total degree is larger, ties broken by the
    :class:`GrlexOrder` key, so a polynomial's lead is a term of its lowest
    total degree.  Lower degree first is a well-order only on the finitely
    many monomials of total degree below the cut, so the order carries it:
    normal forms drop every term of total degree >= ``cut``.
    """

    def __init__(self, vars: VarSet, weights: Optional[Sequence[int]] = None,
                 *, cut: int):
        super().__init__(vars, weights)
        self.cut = cut

    def key(self, exps: Exponents):
        return (-sum(exps), self.degree(exps), exps)

    def heap_key(self, exps: Exponents):
        return (sum(exps), -self.degree(exps), tuple(map(neg, exps)))


def rational(c) -> Fraction:
    """c as a Fraction; a float, whose binary value is rarely the decimal it
    was written as, raises ValueError."""
    if isinstance(c, float):
        raise ValueError(f"coefficient {c!r} is a float; pass a Fraction, "
                         "an int or a string such as '1/10'")
    return c if type(c) is Fraction else Fraction(c)


def _exps_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def _exps_divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


def _exps_div(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(sub, a, b))


def _exps_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


class Poly:
    """A sparse polynomial over Q: ``terms`` maps monomials to nonzero
    Fractions, over the names of ``ring``.

    The linear operations live here.  A subclass fixes the monomial type
    through ``_mono`` (the monomial of a sequence of letters, as indices into
    ``ring``) and its inverse ``_letters``, and defines the product.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: VarSet, terms: Mapping):
        self.ring = ring
        # convert before the zero filter, so that a float zero raises too
        self.terms = {m: q for m, c in terms.items()
                      if (q := c if type(c) is Fraction else rational(c))}

    @classmethod
    def zero(cls, ring: VarSet):
        return cls(ring, {})

    @classmethod
    def const(cls, ring: VarSet, c):
        return cls(ring, {cls._mono(ring, ()): rational(c)})

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise VarSetError(f"mismatched {self.ring._noun} sets")

    def _check_image(self, name: str, image: "Poly") -> None:
        """Raise unless ``image`` may replace the name in :func:`substitute`."""
        self.ring.index(name)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return type(self)(self.ring, out)

    def __neg__(self):
        return type(self)(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = rational(c)
        return type(self)(self.ring, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = type(self).const(self.ring, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._text()})"


class CommPoly(Poly):
    """A commutative polynomial; monomials are exponent tuples."""

    __slots__ = ()

    @property
    def vars(self) -> VarSet:
        return self.ring

    @staticmethod
    def _mono(vars: VarSet, letters: Sequence[int]) -> Exponents:
        exps = [0] * len(vars)
        for i in letters:
            exps[i] += 1
        return tuple(exps)

    @staticmethod
    def _letters(exps: Exponents) -> list[int]:
        return [i for i, k in enumerate(exps) for _ in range(k)]

    @staticmethod
    def variable(vars: VarSet, name: str) -> "CommPoly":
        return CommPoly(vars, {CommPoly._mono(vars, (vars.index(name),)): Fraction(1)})

    @staticmethod
    def monomial(vars: VarSet, exps: Exponents, c=1) -> "CommPoly":
        return CommPoly(vars, {tuple(exps): rational(c)})

    def __mul__(self, other: "CommPoly") -> "CommPoly":
        self._check(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _exps_mul(e1, e2)
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return CommPoly(self.ring, out)

    def lead(self, order: GrlexOrder) -> tuple[Exponents, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def _text(self) -> str:
        return poly_str(self)


def terms_str(terms: Iterable[tuple[Fraction, str]]) -> str:
    """Text of a sum of (coefficient, monomial) terms in the order given;
    the monomial "1" is the unit, and the empty sum is "0"."""
    parts = []
    for c, mono in terms:
        if mono == "1":
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def word_str(vars: VarSet, letters: Sequence[int]) -> str:
    """Text of a product of letters, indices into ``vars``: each run of one
    letter as a power, such as "a*b^2"; the empty product is "1"."""
    return "*".join(
        vars.names[i] if k == 1 else f"{vars.names[i]}^{k}"
        for i, k in ((i, len(list(run))) for i, run in groupby(letters))
    ) or "1"


def poly_str(f: CommPoly) -> str:
    return terms_str(
        (f.terms[e], word_str(f.vars, CommPoly._letters(e)))
        for e in sorted(f.terms, key=lambda e: (sum(e), e), reverse=True)
    )


def divexact(f: CommPoly, g: CommPoly) -> Optional[CommPoly]:
    """Return q with f = q*g, or None when g does not divide f exactly."""
    if g.is_zero():
        raise DivisionByZeroPolyError("division by zero polynomial")
    f._check(g)
    order = GrlexOrder(f.vars)
    ge, gc = g.lead(order)
    quot: dict[Exponents, Fraction] = {}
    rem = f
    while not rem.is_zero():
        re, rc = rem.lead(order)
        if not _exps_divides(ge, re):
            return None
        qe = _exps_div(re, ge)
        qc = rc / gc
        quot[qe] = quot.get(qe, Fraction(0)) + qc
        rem = rem - CommPoly.monomial(f.vars, qe, qc) * g
    return CommPoly(f.vars, quot)


def substitute(
    f: Poly,
    images: Mapping[str, Poly],
    target: Optional[VarSet] = None,
) -> Poly:
    """Compose f with images of its variables (or generators).

    Names without an explicit image map to the same-named variable of the
    target set (which defaults to the image polynomials' shared set, or f's
    own set when no images are given).  An image for a name f's set does not
    have raises :class:`VarSetError`; an :class:`~ncdef.freealg.NcPoly`
    raises ``CentralityError`` for a central generator whose image has a
    non-central letter, so the result is well defined on canonical words.
    """
    if images:
        tsets = {im.ring for im in images.values()}
        if len(tsets) > 1:
            raise VarSetError("images use different variable sets")
        inferred = next(iter(tsets))
        if target is None:
            target = inferred
        elif target != inferred:
            raise VarSetError("images do not live in the target variable set")
    elif target is None:
        target = f.ring
    for name, im in images.items():
        f._check_image(name, im)
    cls = type(f)
    full = [
        images[name] if name in images
        else cls(target, {cls._mono(target, (target.index(name),)): Fraction(1)})
        for name in f.ring.names
    ]
    out = cls.zero(target)
    for m, c in f.terms.items():
        term = cls.const(target, c)
        for i in cls._letters(m):
            term = term * full[i]
        out = out + term
    return out


def partials(f: CommPoly) -> list[CommPoly]:
    """Partial derivatives, one per variable in declaration order."""
    out = []
    for i in range(len(f.vars)):
        terms: dict[Exponents, Fraction] = {}
        for e, c in f.terms.items():
            if e[i]:
                de = list(e)
                de[i] -= 1
                terms[tuple(de)] = c * e[i]
        out.append(CommPoly(f.vars, terms))
    return out


# -- Groebner bases ---------------------------------------------------------

@dataclass
class CommGB:
    """Monic polynomials under a monomial order, with the lead exponents of
    each one in ``leads``; a non-monic element raises ``ValueError``.

    ``reducers`` holds each element once as the integer triple (lead
    exponents, L, tail) of :func:`_reducer` that :func:`_reduce` divides by:
    L times the element is L*x^lead + tail.  The ``cut`` N of a
    :class:`LocalOrder` stands for every monomial of total degree N, which
    the basis then holds without listing them all: normal forms drop each
    term of total degree >= N."""

    basis: list[CommPoly]
    order: GrlexOrder
    leads: list[Exponents] = field(init=False, repr=False, compare=False)
    reducers: list[tuple[Exponents, int, list[tuple[Exponents, int]]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        leads = [g.lead(self.order) for g in self.basis]
        if any(c != 1 for _, c in leads):
            raise ValueError("basis elements must be monic")
        self.leads = [e for e, _ in leads]
        self.reducers = list(map(_reducer, self.basis, self.leads))


def _reducer(g: CommPoly, e: Exponents):
    """(e, L, tail) of the monic multiple of g with lead e: L is the lcm of
    its denominators and tail lists its other terms times L, all integers."""
    return _primitive(e, _cleared(g)[0])


def _primitive(e: Exponents, work: Mapping[Exponents, int]):
    """The reducer of the monic multiple h of the integer vector ``work``
    with lead e: ``work`` over its content, signed so that L > 0.  For the
    lcm L of h's denominators, L*h is that same primitive vector."""
    g = gcd(*work.values()) * (1 if work[e] > 0 else -1)
    return e, work[e] // g, [(t, c // g) for t, c in work.items() if t != e]


def _cleared(f: Poly) -> tuple[dict, int]:
    """(work, scale): f times ``scale``, the lcm of its denominators."""
    scale = lcm(*(c.denominator for c in f.terms.values()))
    return {e: c.numerator * (scale // c.denominator)
            for e, c in f.terms.items()}, scale


def _int_spoly(a, b, m: Exponents) -> tuple[dict[Exponents, int], int]:
    """(work, scale) of the S-polynomial at m of the monic elements with the
    reducers a and b: scale = lcm(La, Lb), and work is scale times it."""
    (ae, La, atail), (be, Lb, btail) = a, b
    scale = lcm(La, Lb)
    ka, kb = scale // La, scale // Lb
    qa, qb = _exps_div(m, ae), _exps_div(m, be)
    work = {_exps_mul(qa, t): ka * c for t, c in atail}
    for t, c in btail:
        ne = _exps_mul(qb, t)
        work[ne] = work[ne] - kb * c if ne in work else -kb * c
    return work, scale


def _rewrite(work: dict, scale: int, divide: Callable, product: Callable,
             heap_key: Callable, degree: Callable, cut: Optional[int]):
    """The one normal-form kernel of both engines, the reduction of the
    diamond lemma (Bergman, Adv. Math. 29, 1978; Mora, TCS 134, 1994):
    ``(rem, scale, steps, truncated)`` with rem/scale the remainder of
    work/scale; ``work`` is used up.

    ``divide(t)`` is None for an irreducible term t, else ``(reducer, ctx)``
    with a reducer (lead, L, tail), L*h = L*lead + tail for an element h,
    and ``product(ctx, lead) == t``.  It is called once per term, when the
    term enters ``work``; only reducible terms are heaped, by ``heap_key``,
    and irreducible ones stay in ``work`` as the remainder.  Each step pops
    the largest reducible term c*t, of the smallest key, and with
    g = gcd(L, c) multiplies ``work`` and ``scale`` by L/g and adds
    -(c/g)*k*product(ctx, m) for each term k*m of the tail, recording
    ``(c, scale, ctx)`` with the scale before the step.  The terms it adds
    lie below t, so no term is rewritten twice; one that cancels stays in
    the heap as a zero.  Terms t with ``degree(t) >= cut`` are dropped, and
    ``truncated`` says whether any was.
    """
    truncated = False
    if cut is not None:
        size = len(work)
        work = {t: c for t, c in work.items() if degree(t) < cut}
        truncated = len(work) < size
    heap = []
    for t in work:
        d = divide(t)
        if d is not None:
            heap.append((heap_key(t), t, d))
    heapify(heap)
    steps = []
    while heap:
        _, t, ((_, L, tail), ctx) = heappop(heap)
        c = work.pop(t)
        if not c:
            continue
        steps.append((c, scale, ctx))
        g = gcd(L, c)
        if g != L:
            a = L // g
            scale *= a
            for m in work:
                work[m] *= a
        b = c // g
        for m, k in tail:
            n = product(ctx, m)
            if n in work:
                work[n] -= b * k
            elif cut is not None and degree(n) >= cut:
                truncated = True
            else:
                work[n] = -b * k
                d = divide(n)
                if d is not None:
                    heappush(heap, (heap_key(n), n, d))
    return {t: c for t, c in work.items() if c}, scale, steps, truncated


def _reduce(work: dict, scale: int, reducers: Sequence, order: GrlexOrder):
    """(rem, scale) of :func:`_rewrite`, whose divisor of a term is the first
    reducer whose lead divides it.  Under a :class:`LocalOrder` a step adds
    terms of total degree at least that of the term it rewrites, so the
    finitely many terms below the cut bound the steps."""

    def divide(e: Exponents):
        for r in reducers:
            if all(map(le, r[0], e)):  # _exps_divides, inlined: most tests fail
                return r, _exps_div(e, r[0])
        return None

    rem, scale, _, _ = _rewrite(work, scale, divide, _exps_mul, order.heap_key,
                                sum, order.cut)
    return rem, scale


def normal_form(f: CommPoly, gb: CommGB) -> CommPoly:
    """Remainder of f under ``gb``, with no term that a lead divides."""
    rem, scale = _reduce(*_cleared(f), gb.reducers, gb.order)
    return CommPoly(f.vars, {e: Fraction(c, scale) for e, c in rem.items()})


def groebner(gens: Sequence[CommPoly], order: GrlexOrder) -> CommGB:
    """Reduced monic Groebner basis of the ideal generated by ``gens``, and
    by every monomial of total degree N when ``order`` is a
    :class:`LocalOrder` with cut N.

    Buchberger's algorithm with the Gebauer-Moeller update.  When an element
    h is added, its pairs with the earlier elements are pruned by the M and F
    chain criteria (a pair goes when another new pair's lcm divides its lcm;
    one pair per lcm is kept) and then by the coprime-lead criterion; queued
    pairs go by the B chain criterion (lead(h) divides their lcm, which
    differs from both of their lcms with h); and the elements whose lead
    lead(h) divides take no later pairs.  A pair of two single-term elements
    counts as coprime: its S-polynomial is zero, so it is never queued but
    still serves the M and F criteria as a witness (Gebauer and Moeller,
    JSC 6, 1988).  The queued pair with the lowest sugar degree, and among
    those the smallest lcm under ``order.key``, is reduced next by
    :func:`_reduce` over the live elements only: a retired lead is a
    multiple of a live one, so the reducible terms are the same.  On a
    homogeneous ideal the sugar degree is the degree of the lcm.

    The loop runs over the integers: an element is only its reducer, made
    from a remainder and its largest term under ``order`` by
    :func:`_primitive`, an S-polynomial is built from two
    reducers by :func:`_int_spoly`, and ``Fraction``s are built only for the
    inter-reduced basis returned.

    Under a cut N the monomials of total degree N are basis elements that
    are never built.  Generators and normal forms drop every term of total
    degree >= N, and the lead of an element is a term of its lowest degree.
    A pair whose lcm L has |L| >= N is not queued: for either element h and
    x^a * lead(h) = L, every term of x^a * h has degree >= |L|, so the
    S-polynomial lies in m^N, as does that of an element with a cut
    monomial.  The basis of the last step lists the cut monomials that no
    lead divides.
    """
    cut = order.cut
    reducers: list[tuple] = []  # every element, as its integer reducer
    leads: list[Exponents] = []  # parallel to reducers
    sugars: list[int] = []  # sugar degrees, parallel to reducers
    live: list[int] = []  # elements that take pairs with later ones
    active: list[tuple] = []  # the reducers of the live elements
    queue: list[tuple] = []  # heap of (sugar, order.key(lcm), i, j, lcm)

    def add(r: tuple, sugar: int) -> None:
        e = r[0]
        k = len(reducers)
        reducers.append(r)
        leads.append(e)
        sugars.append(sugar)
        lcms = {i: _exps_lcm(leads[i], e) for i in live}
        # a pair of two monomials has S-polynomial zero, like a coprime one
        coprime = {i for i in live if lcms[i] == _exps_mul(leads[i], e)
                   or not r[2] and not reducers[i][2]}
        pending, kept = list(live), []
        while pending:
            i = pending.pop()
            if i in coprime or not any(
                _exps_divides(lcms[j], lcms[i]) for j in pending + kept
            ):
                kept.append(i)
        queue[:] = [
            p for p in queue
            if not _exps_divides(e, p[4])
            or _exps_lcm(leads[p[2]], e) == p[4]
            or _exps_lcm(leads[p[3]], e) == p[4]
        ]
        heapify(queue)
        for i in kept:
            if i not in coprime and (cut is None or sum(lcms[i]) < cut):
                s = order.degree(lcms[i]) + max(
                    sugars[i] - order.degree(leads[i]), sugar - order.degree(e)
                )
                heappush(queue, (s, order.key(lcms[i]), i, k, lcms[i]))
        live[:] = [i for i in live if not _exps_divides(e, leads[i])] + [k]
        active[:] = [reducers[i] for i in live]

    for g in gens:
        if cut is not None:
            g = CommPoly(g.vars, {e: c for e, c in g.terms.items() if sum(e) < cut})
        if not g.is_zero():
            add(_reducer(g, g.lead(order)[0]), max(map(order.degree, g.terms)))
    if not reducers and cut is None:
        raise ValueError("no nonzero generators")
    while queue:
        sugar, _, i, j, m = heappop(queue)
        rem, _ = _reduce(*_int_spoly(reducers[i], reducers[j], m), active, order)
        if rem:
            add(_primitive(max(rem, key=order.key), rem), sugar)
    # inter-reduce to the unique reduced basis.  Every element left out of
    # ``live`` has a lead divisible by a live one, and live leads are distinct.
    tails = [reducers[k] for k in live
             if not any(m != k and _exps_divides(leads[m], leads[k]) for m in live)]
    reduced = {}
    for e, L, tail in tails:
        # the tail lies below e, and its normal form differs from it by an
        # element of the ideal, so e + NF(tail) is the element with lead e
        rem, scale = _reduce(dict(tail), L, tails, order)
        reduced[e] = CommPoly(order.vars, {
            e: Fraction(1), **{t: Fraction(c, scale) for t, c in rem.items()}})
    if cut is not None:
        levels = _standard_monomials(len(order.vars), [r[0] for r in tails], cut + 1)
        for level in levels[cut:]:
            for e in level:
                reduced[e] = CommPoly.monomial(order.vars, e)
    return CommGB([reduced[e] for e in sorted(reduced)], order)


@dataclass
class QuotientBasis:
    monomials: list[Exponents]
    finite: bool
    dim: int


def _standard_levels(root, children: Callable, parents: Callable, leads,
                     inside: Callable, key: Optional[Callable] = None):
    """``(levels, crossing)`` for the standard monomials (or words) from
    ``root`` up, those that ``inside`` keeps and no lead divides: ``levels[d]``
    lists those of d letters, sorted by ``key``, up to the first empty
    level, and ``crossing`` lists the ``children`` of standard ones that
    ``inside`` rejects.

    ``children(m)`` makes each monomial exactly once, from its one parent
    in the tree that ``children`` spans, and ``parents(m)`` lists every
    monomial with one letter less that m is a multiple of in the sense of
    division (the tree parent among them); ``inside`` must keep the parents
    of what it keeps.  A candidate is standard when it is not one of the
    ``leads`` (a set) and every one of its parents is standard, which needs
    no division search: a lead that divides m but none of m's parents is m
    itself.  For monomials, the exponents of a proper divisor l of m fall
    short of m's in some variable, and m less one of that variable is still
    a multiple of l.  For a canonical word m, a proper divisor either lacks
    a central letter of m, and then m less that letter is a multiple, or
    has m's central letters and a noncommutative part that is a proper
    factor of m's, which m less its first or its last noncommutative letter
    still contains.
    """
    levels: list[list] = []
    crossing: list = []
    level = [root] if inside(root) and root not in leads else []
    while level:
        level.sort(key=key)
        levels.append(level)
        prev, level = set(level), []
        for m in levels[-1]:
            for c in children(m):
                if not inside(c):
                    crossing.append(c)
                elif c not in leads and prev.issuperset(parents(c)):
                    level.append(c)
    return levels, crossing


def _standard_monomials(nvars: int, leads: Sequence[Exponents], depth: int):
    """The levels of :func:`_standard_levels` of the monomials of total
    degree < ``depth`` that no lead divides.  A monomial's children raise
    the exponent of its last variable or of a later one."""

    def children(e: Exponents):
        last = max((i for i, k in enumerate(e) if k), default=0)
        return [e[:i] + (e[i] + 1,) + e[i + 1:] for i in range(last, nvars)]

    def parents(e: Exponents):
        return [e[:i] + (k - 1,) + e[i + 1:] for i, k in enumerate(e) if k]

    return _standard_levels((0,) * nvars, children, parents, set(leads),
                            lambda e: sum(e) < depth)[0]


def quotient_basis(gb: CommGB, bound: int) -> QuotientBasis:
    """Order-irreducible monomials of total degree < bound.

    ``finite`` requires no irreducible monomial at the top two degrees
    examined (bound-2 and bound-1), that is, an empty level by bound-2.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    levels = _standard_monomials(len(gb.order.vars), gb.leads, bound)
    finite = len(levels) <= bound - 2
    monomials = [e for level in levels for e in level]
    return QuotientBasis(monomials, finite, len(monomials))


def graded_dims(degrees: Iterable[int]) -> list[int]:
    """Tally of basis elements by degree, from degree 0 to the largest one."""
    graded: dict[int, int] = {}
    for d in degrees:
        graded[d] = graded.get(d, 0) + 1
    return [graded.get(d, 0) for d in range(max(graded, default=0) + 1)]


def stable_tower(cuts: Iterable[int], basis_at: Callable[[int], tuple]):
    """Run the cuts until two consecutive ones give bases of equal size, or
    until a cut other than the last is closed.

    ``basis_at(W)`` returns the standard words (or monomials) of I + F_W,
    where F_W spans every word of degree >= W, the state they came from,
    and whether W is closed: every child of a standard word that reaches
    degree >= W is divisible by a lead.  Returns ``(certified_at, cut,
    basis, state)``: the first cut W whose successor W' gives as many words,
    or the first closed cut W before the last one (else None), the last cut
    run, and its basis and state.  Consecutive cuts differ by at least the
    heaviest letter.

    Let A_M = k<X>/(I + F_M) (or k[X]/(I + F_M)).  A_{W'} surjects onto A_W,
    so equal dimensions (the basis sizes) give I + F_W = I + F_{W'}.  Take a
    word x of degree >= W and strip letters from its left until the suffix y
    has degree in [W, W'); no letter is heavier than W' - W, so this
    happens.  Then x = u*y with y in I + F_{W'}, so x lies in
    I + F_{deg(u) + W'}, which is inside I + F_{deg(x) + 1}.  Hence F_M is
    inside I + F_{M+1} for every M >= W, and by induction I + F_W = I + F_M:
    the tower is constant from W on.  Both bases are then the standard words
    of one ideal under one order, so bases of one size that differ as sets
    raise :class:`InternalConsistencyError`.

    A closed cut W proves the same without a second cut and without
    trusting that the leads are complete (Bergman, Adv. Math. 29, 1978).
    Every word x of degree >= W contains a lead: on the path from the
    empty word to x through the tree of ``children`` the degree rises, so
    take the first word y on it of degree >= W; either a word before y is
    not standard, and its lead divides x, or y is a crossing word, which a
    lead divides.  Each rule lies in I + F_W and its lead, of degree < W,
    is its lowest-degree term, so a word z = u*lead*v of degree >= W equals
    u*tail*v modulo I + F_{deg(z) + 1}, where each tail word has z's degree
    and is a smaller word, or has a higher degree.  A degree holds finitely
    many words, so z lies in I + F_{deg(z) + 1}; hence F_M is inside
    I + F_{M+1} for every M >= W, and the tower is constant from W on, as
    above.  The successor of W would give the same basis, so the closed
    test moves neither ``certified_at`` nor the basis; it is not applied at
    the last cut, which has no successor to compare.
    """
    cuts = list(cuts)
    prev = None
    for k, cut in enumerate(cuts):
        basis, state, closed = basis_at(cut)
        if prev is not None and len(prev[1]) == len(basis):
            if set(prev[1]) != set(basis):
                raise InternalConsistencyError(
                    f"cuts {prev[0]} and {cut} give {len(basis)} standard "
                    "words each, but different ones"
                )
            return prev[0], cut, basis, state
        if closed and k + 1 < len(cuts):
            return cut, cut, basis, state
        prev = (cut, basis)
    return None, cut, basis, state


@dataclass
class LocalReport:
    """Truncation-stabilized quotient data for an ideal plus all degree-N
    monomials; ``basis`` and ``gb``, the reduced basis of the cut ideal under
    its :class:`LocalOrder`, are those of the last cut N run
    (``certified_at`` + 1 if finite, else maxN).  ``graded_dims`` counts the
    standard monomials by total degree: under a local degree order that is
    the Hilbert-Samuel function, dim m^d / (m^(d+1) + I), and its prefix sums
    are the dimensions of the cut quotients."""

    status: str  # "finite" | "not-finite"
    dim: int
    certified_at: Optional[int]
    graded_dims: list[int]
    basis: list[Exponents]
    gb: CommGB = field(repr=False, compare=False)


def local_report(
    gens: Sequence[CommPoly], order: GrlexOrder, maxN: int
) -> LocalReport:
    """Dimension of the quotient by (gens) + all monomials of degree >= N,
    certified when the standard monomial counts of the cut ideals agree at
    consecutive N (:func:`stable_tower`, with every variable of degree 1).
    Each cut ideal's basis is :func:`groebner`'s under the :class:`LocalOrder`
    of ``order``'s variables and weights with cut N, so no cut monomial enters
    Buchberger's loop as a generator."""
    if maxN < 2:
        raise ValueError(f"the maximum cutoff must be >= 2, got {maxN}")

    def basis_at(N: int) -> tuple[list[Exponents], CommGB, bool]:
        gb = groebner(gens, LocalOrder(order.vars, order.weights, cut=N))
        # never closed: ``gb.basis`` lists the cut monomials of its cut, and
        # ``zoo.invariant_table`` compares it across towers, so every tower
        # stops the same way, one cut past the certifying one
        return quotient_basis(gb, N).monomials, gb, False

    certified_at, _, basis, gb = stable_tower(range(2, maxN + 1), basis_at)
    status = "not-finite" if certified_at is None else "finite"
    gd = graded_dims(map(sum, basis))
    return LocalReport(status, len(basis), certified_at, gd, basis, gb)
