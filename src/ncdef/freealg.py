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

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .commpoly import CommPoly, VarSet, terms_str

Word = tuple[int, ...]


class GenSetError(ValueError):
    """Operands belong to different generator sets."""


class CentralityError(ValueError):
    """A central generator was given a non-central image."""


@dataclass(frozen=True)
class GenSet:
    names: tuple[str, ...]
    weights: tuple[int, ...]
    central: tuple[bool, ...]
    commutative: bool = False

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator names")
        if len(self.weights) != len(self.names) or len(self.central) != len(self.names):
            raise ValueError("weights/centrality must match generator count")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be >= 1")
        if not self.commutative and self.names and all(self.central):
            raise ValueError(
                "all generators central: declare the presentation commutative"
            )

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise GenSetError(f"unknown generator {name!r}") from None


def genset(
    names: Sequence[str],
    weights: Optional[Sequence[int]] = None,
    central: Sequence[str] = (),
    commutative: bool = False,
) -> GenSet:
    names = tuple(names)
    if weights is None:
        weights = (1,) * len(names)
    cset = set(central)
    unknown = cset - set(names)
    if unknown:
        raise ValueError(f"central names not among generators: {sorted(unknown)}")
    return GenSet(names, tuple(weights), tuple(n in cset for n in names), commutative)


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
    return sum(gens.weights[i] for i in w)


def word_str(gens: GenSet, w: Word) -> str:
    if not w:
        return "1"
    parts: list[tuple[int, int]] = []  # (letter, multiplicity)
    for i in w:
        if parts and parts[-1][0] == i:
            parts[-1] = (i, parts[-1][1] + 1)
        else:
            parts.append((i, 1))
    return "*".join(
        gens.names[i] if k == 1 else f"{gens.names[i]}^{k}" for i, k in parts
    )


class NcOrder:
    """Total multiplicative word order; ``wdeglex`` compares weighted degree,
    then length, then the central exponent vector, then the letter tuple."""

    def __init__(self, gens: GenSet, mode: str = "deglex"):
        if mode not in ("deglex", "wdeglex"):
            raise ValueError(f"unknown order {mode!r}")
        self.gens = gens
        self.mode = mode
        self._central_idx = [i for i, c in enumerate(gens.central) if c]

    def degree(self, w: Word) -> int:
        if self.mode == "deglex":
            return len(w)
        return word_weight(self.gens, w)

    def _cvec(self, w: Word) -> tuple[int, ...]:
        return tuple(sum(1 for x in w if x == i) for i in self._central_idx)

    def key(self, w: Word):
        return (self.degree(w), len(w), self._cvec(w), word_split(self.gens, w)[1])

    def rule_key(self, w: Word):
        """Key ordering rewrite preference: among a relation's terms the
        rule left-hand side maximizes this key (lowest degree first, then the
        largest word), so rewriting pushes terms up in degree and truncation
        guarantees termination."""
        return (-self.degree(w), len(w), self._cvec(w), word_split(self.gens, w)[1])


# -- polynomials ------------------------------------------------------------

class NcPoly:
    __slots__ = ("gens", "terms")

    def __init__(self, gens: GenSet, terms: Mapping[Word, Fraction]):
        self.gens = gens
        self.terms = {
            w: c if type(c) is Fraction else Fraction(c)
            for w, c in terms.items()
            if c
        }

    @staticmethod
    def zero(gens: GenSet) -> "NcPoly":
        return NcPoly(gens, {})

    @staticmethod
    def const(gens: GenSet, c) -> "NcPoly":
        return NcPoly(gens, {(): Fraction(c)})

    @staticmethod
    def gen(gens: GenSet, name: str) -> "NcPoly":
        return NcPoly(gens, {(gens.index(name),): Fraction(1)})

    @staticmethod
    def word(gens: GenSet, letters: Sequence[int], c=1) -> "NcPoly":
        return NcPoly(gens, {canon_word(gens, letters): Fraction(c)})

    def _check(self, other: "NcPoly"):
        if self.gens != other.gens:
            raise GenSetError("mismatched generator sets")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NcPoly)
            and self.gens == other.gens
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.gens, frozenset(self.terms.items())))

    def __add__(self, other: "NcPoly") -> "NcPoly":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return NcPoly(self.gens, out)

    def __neg__(self) -> "NcPoly":
        return NcPoly(self.gens, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def __mul__(self, other: "NcPoly") -> "NcPoly":
        self._check(other)
        out: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = word_mul(self.gens, w1, w2)
                out[w] = out.get(w, 0) + c1 * c2
        return NcPoly(self.gens, out)

    def scale(self, c) -> "NcPoly":
        c = Fraction(c)
        return NcPoly(self.gens, {w: c * v for w, v in self.terms.items()})

    def __pow__(self, n: int) -> "NcPoly":
        if n < 0:
            raise ValueError("negative power")
        out = NcPoly.const(self.gens, 1)
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self) -> str:
        return f"NcPoly({nc_str(self)})"


def nc_str(f: NcPoly) -> str:
    """Expression text for a polynomial, parseable by ``exprparse.parse_expr``."""
    order = NcOrder(f.gens, "deglex")
    return terms_str(
        (f.terms[w], word_str(f.gens, w)) for w in sorted(f.terms, key=order.key)
    )


def commutator(f: NcPoly, g: NcPoly) -> NcPoly:
    return f * g - g * f


def nc_substitute(f: NcPoly, images: Mapping[str, NcPoly]) -> NcPoly:
    """Compose f with generator images.

    Substituting a central generator requires an image all of whose letters
    are central (so the result is well defined on canonical words).
    """
    if not images:
        return f
    tsets = {im.gens for im in images.values()}
    if len(tsets) > 1:
        raise GenSetError("images use different generator sets")
    target = next(iter(tsets))
    for name, im in images.items():
        idx = f.gens.index(name)
        if f.gens.central[idx]:
            for w in im.terms:
                if any(not target.central[i] for i in w):
                    raise CentralityError(
                        f"central generator {name!r} needs a central image"
                    )
    gen_imgs = []
    for i, name in enumerate(f.gens.names):
        if name in images:
            gen_imgs.append(images[name])
        else:
            gen_imgs.append(NcPoly.gen(target, name))
    out = NcPoly.zero(target)
    for w, c in f.terms.items():
        term = NcPoly.const(target, c)
        for i in w:
            term = term * gen_imgs[i]
        out = out + term
    return out


def nc_abelianize(f: NcPoly) -> CommPoly:
    """Image under the monoid map word -> exponent vector."""
    vars = VarSet(f.gens.names)
    terms: dict[tuple[int, ...], Fraction] = {}
    for w, c in f.terms.items():
        e = [0] * len(f.gens.names)
        for i in w:
            e[i] += 1
        e = tuple(e)
        terms[e] = terms.get(e, Fraction(0)) + c
    return CommPoly(vars, terms)
