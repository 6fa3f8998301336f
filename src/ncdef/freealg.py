"""Words and noncommutative polynomials over named generators.

Generators may be declared central; central letters commute with everything,
which is realized by canonicalizing every word so its central letters sit at
the front in declaration order.  A word is therefore a pair (central multiset,
noncommutative letter sequence) stored as one flat index tuple.

Orders: ``deglex`` (length, then central exponent vector, then the letter
tuple) and ``wdeglex`` (weighted degree first).  Both are total, multiplicative
and degree-compatible on canonical words; the empty word is minimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence

from .commpoly import CommPoly, Poly, VarSet, rational, terms_str, word_str

Word = tuple[int, ...]


class CentralityError(ValueError):
    """A central generator was given a non-central image."""


@dataclass(frozen=True)
class GenSet(VarSet):
    """Generator names with weights and centrality; names are checked, and
    looked up by :meth:`~ncdef.commpoly.VarSet.index`, as for any variable set.
    ``commutative`` is derived: it holds when every generator is central."""

    weights: tuple[int, ...]
    central: tuple[bool, ...]
    commutative: bool = field(init=False)

    _noun = "generator"

    def __post_init__(self):
        super().__post_init__()
        if len(self.weights) != len(self.names) or len(self.central) != len(self.names):
            raise ValueError("weights/centrality must match generator count")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be >= 1")
        object.__setattr__(self, "commutative", all(self.central))


def genset(
    names: Sequence[str],
    weights: Optional[Sequence[int]] = None,
    central: Sequence[str] = (),
) -> GenSet:
    """The generator set of ``names`` (weights default to 1) in which the
    names in ``central`` commute with everything; it is commutative exactly
    when every name is central."""
    names = tuple(names)
    if weights is None:
        weights = (1,) * len(names)
    cset = set(central)
    unknown = cset - set(names)
    if unknown:
        raise ValueError(f"central names not among generators: {sorted(unknown)}")
    return GenSet(names, tuple(weights), tuple(n in cset for n in names))


# -- word helpers -----------------------------------------------------------

def canon_word(gens: GenSet, letters: Sequence[int]) -> Word:
    cen = sorted(i for i in letters if gens.central[i])
    rest = [i for i in letters if not gens.central[i]]
    return tuple(cen) + tuple(rest)


def word_split(gens: GenSet, w: Word) -> tuple[Word, Word]:
    """Split a canonical word into (central part, noncommutative part)."""
    k = 0
    while k < len(w) and gens.central[w[k]]:
        k += 1
    return w[:k], w[k:]


def word_mul(gens: GenSet, u: Word, v: Word) -> Word:
    if not v or not gens.central[v[0]]:
        return u + v  # v has no central letters, so u + v is canonical
    uc, un = word_split(gens, u)
    vc, vn = word_split(gens, v)
    return tuple(sorted(uc + vc)) + un + vn


def word_weight(gens: GenSet, w: Word) -> int:
    return sum(map(gens.weights.__getitem__, w))


class NcOrder:
    """Total multiplicative word order; ``wdeglex`` compares weighted degree,
    then length, then the central exponent vector, then the letter tuple."""

    def __init__(self, gens: GenSet, mode: str = "deglex"):
        if mode not in ("deglex", "wdeglex"):
            raise ValueError(f"unknown order {mode!r}")
        self.gens = gens
        self.mode = mode
        self._central_idx = [i for i, c in enumerate(gens.central) if c]
        n = len(gens)
        self._heap_letter = [i if c else 2 * n - i
                             for i, c in enumerate(gens.central)].__getitem__
        # the degree a truncation cuts by; bound once, as every reduction
        # calls it for every word it creates
        self.degree: Callable[[Word], int] = (
            len if mode == "deglex" else partial(word_weight, gens))

    def _cvec(self, w: Word) -> tuple[int, ...]:
        return tuple(map(w.count, self._central_idx))

    def key(self, w: Word):
        return (self.degree(w), len(w), self._cvec(w), word_split(self.gens, w)[1])

    def rule_key(self, w: Word):
        """Key ordering rewrite preference: among a relation's terms the
        rule left-hand side maximizes this key (lowest degree first, then the
        largest word), so rewriting pushes terms up in degree and truncation
        guarantees termination."""
        return (-self.degree(w), len(w), self._cvec(w), word_split(self.gens, w)[1])

    def heap_key(self, w: Word):
        """:meth:`rule_key` reversed, so a min-heap of these pops the word of
        the largest rule key first.  Between words of one degree and length,
        the sorted central prefix is smaller exactly when the central
        exponent vector is larger; each noncommutative letter i stands as
        2n - i, above every central letter (so a shorter prefix ends as if
        by a sentinel) and in reverse order, which reverses the order of the
        noncommutative parts."""
        return (self.degree(w), -len(w), *map(self._heap_letter, w))


# -- polynomials ------------------------------------------------------------

class NcPoly(Poly):
    """A noncommutative polynomial; monomials are canonical words."""

    __slots__ = ()

    @property
    def gens(self) -> GenSet:
        return self.ring

    _mono = staticmethod(canon_word)

    @staticmethod
    def _letters(w: Word) -> Word:
        return w

    @staticmethod
    def gen(gens: GenSet, name: str) -> "NcPoly":
        return NcPoly(gens, {(gens.index(name),): Fraction(1)})

    @staticmethod
    def word(gens: GenSet, letters: Sequence[int], c=1) -> "NcPoly":
        return NcPoly(gens, {canon_word(gens, letters): rational(c)})

    def _check_image(self, name: str, image: "NcPoly") -> None:
        if self.ring.central[self.ring.index(name)] and any(
            not image.ring.central[i] for w in image.terms for i in w
        ):
            raise CentralityError(f"central generator {name!r} needs a central image")

    def __mul__(self, other: "NcPoly") -> "NcPoly":
        self._check(other)
        gens = self.ring
        out: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = word_mul(gens, w1, w2)
                out[w] = out[w] + c1 * c2 if w in out else c1 * c2
        return NcPoly(gens, out)

    def _text(self) -> str:
        return nc_str(self)


def nc_str(f: NcPoly) -> str:
    """Expression text for a polynomial, parseable by ``exprparse.parse_expr``."""
    order = NcOrder(f.gens, "deglex")
    return terms_str(
        (f.terms[w], word_str(f.gens, w)) for w in sorted(f.terms, key=order.key)
    )


def commutator(f: NcPoly, g: NcPoly) -> NcPoly:
    return f * g - g * f


def nc_abelianize(f: NcPoly) -> CommPoly:
    """Image under the monoid map word -> exponent vector."""
    vars = VarSet(f.gens.names)
    terms: dict[tuple[int, ...], Fraction] = {}
    for w, c in f.terms.items():
        e = CommPoly._mono(vars, w)
        terms[e] = terms[e] + c if e in terms else c
    return CommPoly(vars, terms)
