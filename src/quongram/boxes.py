"""
Factored denominators for the inverse-Gram arithmetic.

Every denominator that shows up when inverting the Gram matrices is a product
of "box" factors: for a subset T of positions of a fixed word i_1..i_n,

    Box_T  =  1 - prod_{a != b in T} q_{i_a i_b}

(the product runs over ordered pairs, so Box_T is fixed by the involution
q_{ij} <-> q_{ji}).  We therefore never need multivariate gcd: a fraction is a
polynomial numerator over a *multiset* of box factors, and the only
cancellation mechanism is exact polynomial division by one of them.

>>> f = BoxFraction.from_poly(Poly.parse("1 - q12*q21"))
>>> g = f / BoxFactor((1, 2), frozenset({1, 2}))
>>> print(g)
1
"""

from __future__ import annotations

__all__ = ["BoxFactor", "BoxFraction"]

from dataclasses import dataclass, field
from functools import lru_cache

from .ring import Poly, NotDivisible, GaussRat


@lru_cache(maxsize=None)
def _box_poly(letters: tuple, one_param: bool) -> Poly:
    q = Poly.one()
    if one_param:
        k = len(letters)
        return Poly.one() - Poly.single_q() ** (k * (k - 1))
    for x in range(len(letters)):
        for y in range(len(letters)):
            if x != y:
                q = q * Poly.var(letters[x], letters[y])
    return Poly.one() - q


@dataclass(frozen=True)
class BoxFactor:
    """Box_T bound to a word: positions T (1-based, |T| >= 2) into word.

    The canonical identity of the factor is its expansion as a Poly, so two
    factors over different words that expand to the same polynomial cancel
    against each other.
    """

    word: tuple
    positions: frozenset
    one_param: bool = False

    def __post_init__(self):
        if len(self.positions) < 2:
            raise ValueError("box factor needs at least two positions")
        if not all(1 <= p <= len(self.word) for p in self.positions):
            raise ValueError(f"positions {set(self.positions)} out of range "
                             f"for word of length {len(self.word)}")

    @property
    def letters(self) -> tuple:
        """Letters of the word at the chosen positions (sorted, with
        multiplicity)."""
        return tuple(sorted(self.word[p - 1] for p in self.positions))

    def expand(self) -> Poly:
        """The factor as a polynomial 1 - prod_{a != b} q_{i_a i_b}."""
        return _box_poly(self.letters, self.one_param)

    def q_part(self) -> Poly:
        """The monomial prod_{a != b in T} q_{i_a i_b} (so expand() = 1 - q_part())."""
        return Poly.one() - self.expand()

    # identity and ordering go through the canonical expansion
    def _key(self):
        return (self.one_param, self.letters)

    def __eq__(self, o):
        return isinstance(o, BoxFactor) and self._key() == o._key()

    def __hash__(self):
        return hash(self._key())

    def __lt__(self, o):
        return self._key() < o._key()

    def map_labels(self, f) -> "BoxFactor":
        return BoxFactor(tuple(f(ch) for ch in self.word), self.positions,
                         self.one_param)

    def __str__(self):
        # display the canonical identity (letters), not the word positions
        return "Box{%s}" % ",".join(str(ch) for ch in self.letters)

    def to_json(self):
        return {"word": list(self.word),
                "positions": sorted(self.positions),
                "one_param": self.one_param}

    @staticmethod
    def from_json(data) -> "BoxFactor":
        return BoxFactor(tuple(data["word"]), frozenset(data["positions"]),
                         bool(data.get("one_param", False)))


def _den_poly(den: tuple) -> Poly:
    p = Poly.one()
    for f in den:
        p = p * f.expand()
    return p


class BoxFraction:
    """Polynomial numerator over a multiset of box factors, kept reduced:
    no factor of the denominator exactly divides the numerator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den=(), reduce: bool = True):
        den = tuple(sorted(den))
        if reduce:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den

    # -- constructors --------------------------------------------------------
    @staticmethod
    def from_poly(p: Poly) -> "BoxFraction":
        return BoxFraction(p, ())

    @staticmethod
    def zero() -> "BoxFraction":
        return BoxFraction(Poly.zero(), ())

    @staticmethod
    def one() -> "BoxFraction":
        return BoxFraction(Poly.one(), ())

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, o: "BoxFraction") -> "BoxFraction":
        if isinstance(o, Poly):
            o = BoxFraction(o)
        # least common multiset of box factors
        lcm = _multiset_max(self.den, o.den)
        na = self.num * _den_poly(_multiset_sub(lcm, self.den))
        nb = o.num * _den_poly(_multiset_sub(lcm, o.den))
        return BoxFraction(na + nb, lcm)

    def __radd__(self, o) -> "BoxFraction":
        return self + o

    def __sub__(self, o: "BoxFraction") -> "BoxFraction":
        return self + (-o)

    def __rsub__(self, o) -> "BoxFraction":
        return (-self) + o

    def __neg__(self) -> "BoxFraction":
        r = BoxFraction.__new__(BoxFraction)
        r.num = -self.num
        r.den = self.den
        return r

    def __mul__(self, o) -> "BoxFraction":
        if isinstance(o, Poly):
            o = BoxFraction(o)
        return BoxFraction(self.num * o.num, self.den + o.den)

    def __rmul__(self, o) -> "BoxFraction":
        return self * o

    def __truediv__(self, o) -> "BoxFraction":
        """Divide by a BoxFactor or by a BoxFraction whose numerator is a
        product of box factors times +-1 (the only divisions we ever need)."""
        if isinstance(o, BoxFactor):
            return BoxFraction(self.num, self.den + (o,))
        raise TypeError(f"cannot divide BoxFraction by {type(o).__name__}")

    def __eq__(self, o):
        if isinstance(o, Poly):
            o = BoxFraction(o)
        if not isinstance(o, BoxFraction):
            return NotImplemented
        # cross multiplication, no reduction needed
        return self.num * _den_poly(o.den) == o.num * _den_poly(self.den)

    def __hash__(self):
        # reduced form is canonical up to ordering of den (sorted in __init__)
        return hash((self.num, self.den))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def scale(self, c: int) -> "BoxFraction":
        return BoxFraction(self.num.scale(c), self.den,
                           reduce=False) if c else BoxFraction.zero()

    def map_labels(self, f) -> "BoxFraction":
        return BoxFraction(self.num.map_labels(f),
                           tuple(b.map_labels(f) for b in self.den),
                           reduce=False)

    def conjugate(self) -> "BoxFraction":
        # every box factor is fixed by the involution
        r = BoxFraction.__new__(BoxFraction)
        r.num = self.num.conjugate()
        r.den = self.den
        return r

    def evaluate(self, assignment, mode="free") -> GaussRat:
        val = self.num.evaluate(assignment, mode)
        for f in self.den:
            val = val / f.expand().evaluate(assignment, mode)
        return val

    # -- presentation ----------------------------------------------------------
    def __str__(self):
        num = str(self.num)
        if not self.den:
            return num
        from collections import Counter
        parts = []
        for f, m in sorted(Counter(self.den).items()):
            parts.append(str(f) + (f"^{m}" if m > 1 else ""))
        den = " ".join(parts)
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num} / {den}"

    def __repr__(self):
        return f"<BoxFraction {self}>"

    def to_json(self):
        return {"num": self.num.to_json(),
                "den": [f.to_json() for f in self.den]}

    @staticmethod
    def from_json(data) -> "BoxFraction":
        return BoxFraction(Poly.from_json(data["num"]),
                           tuple(BoxFactor.from_json(f) for f in data["den"]),
                           reduce=False)


def _reduce(num: Poly, den: tuple):
    """Cancel denominator factors that exactly divide the numerator."""
    if num.is_zero():
        return num, ()
    remaining = list(den)
    progress = True
    while progress:
        progress = False
        for k, f in enumerate(remaining):
            try:
                num = num.exact_div(f.expand())
            except NotDivisible:
                continue
            del remaining[k]
            progress = True
            break
    return num, tuple(remaining)


def _multiset_max(a: tuple, b: tuple):
    from collections import Counter
    ca, cb = Counter(a), Counter(b)
    out = []
    for f in set(ca) | set(cb):
        out.extend([f] * max(ca[f], cb[f]))
    return tuple(sorted(out))


def _multiset_sub(a: tuple, b: tuple):
    from collections import Counter
    ca = Counter(a)
    ca.subtract(Counter(b))
    out = []
    for f, m in ca.items():
        if m < 0:
            raise ValueError("multiset difference went negative")
        out.extend([f] * m)
    return tuple(sorted(out))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
