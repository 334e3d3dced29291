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

__all__ = ["BoxFactor", "BoxFraction", "dot"]

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

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
        # identity and ordering go through the canonical expansion, which
        # depends only on the sorted letters; computed once, not per hash
        letters = tuple(sorted(self.word[p - 1] for p in self.positions))
        object.__setattr__(self, "_key", (self.one_param, letters))

    @property
    def letters(self) -> tuple:
        """Letters of the word at the chosen positions (sorted, with
        multiplicity)."""
        return self._key[1]

    def expand(self) -> Poly:
        """The factor as a polynomial 1 - prod_{a != b} q_{i_a i_b}."""
        return _box_poly(self.letters, self.one_param)

    def q_part(self) -> Poly:
        """The monomial prod_{a != b in T} q_{i_a i_b} (so expand() = 1 - q_part())."""
        return Poly.one() - self.expand()

    def __eq__(self, o):
        return isinstance(o, BoxFactor) and self._key == o._key

    def __hash__(self):
        return hash(self._key)

    def __lt__(self, o):
        return self._key < o._key

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
        return _sum_parts((_parts(self), _parts(o)))

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
        """Divide by a BoxFactor, the only division the inverse needs;
        any other divisor raises TypeError."""
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


def _parts(x):
    """Numerator and denominator multiset of a Poly or a BoxFraction."""
    return (x.num, x.den) if isinstance(x, BoxFraction) else (x, ())


def _sum_parts(parts) -> BoxFraction:
    """Sum of (numerator, denominator multiset) pairs over their least
    common multiset of box factors, reduced once.

    This is the only summation path; ``+`` is its two-term case.  Each
    factor of the common denominator is represented by its first
    occurrence in part order, the one a chain of ``+`` keeps while the
    factor stays in the running denominator.
    """
    common: Counter = Counter()
    for _, den in parts:
        common |= Counter(den)
    num = Poly.zero()
    for n, den in parts:
        if not n.is_zero():
            num = num + n * _den_poly((common - Counter(den)).elements())
    return BoxFraction(num, common.elements())


def dot(xs, ys) -> BoxFraction:
    """Sum of x*y over paired Polys and BoxFractions, over one common
    multiset of box factors and reduced once; the products are not reduced
    on their own.

    >>> b = BoxFactor((1, 2), frozenset({1, 2}))
    >>> x = BoxFraction(Poly.one(), (b,))
    >>> print(dot([x, Poly.one()], [Poly.parse("q12*q21"), Poly.one()]))
    1 / Box{1,2}
    """
    parts = []
    for x, y in zip(xs, ys):
        (nx, dx), (ny, dy) = _parts(x), _parts(y)
        n = nx * ny
        if not n.is_zero():  # as reduced, a zero product has no denominator
            parts.append((n, dx + dy))
    return _sum_parts(parts)


def _reduce(num: Poly, den: tuple):
    """Cancel denominator factors that exactly divide the numerator.

    ``den`` is sorted, so equal factors are adjacent.  Each distinct factor
    is divided out until its first miss and never tried again: if f does
    not divide N, it does not divide N/g either.
    """
    if num.is_zero():
        return num, ()
    remaining = []
    for f, run in groupby(den):
        run = list(run)
        p = f.expand()
        k = 0
        while k < len(run):
            try:
                num = num.exact_div(p)
            except NotDivisible:
                break
            k += 1
        remaining.extend(run[k:])
    return num, tuple(remaining)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
