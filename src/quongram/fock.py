"""
Words, weights, and the deformed derivative calculus on the free algebra.

The two-sided derivative calculus here is the ground-truth oracle for every
Gram-matrix entry: the pairing of two words is computed by iterated left
derivatives and lands in the scalars.  Left derivatives implement

    i∂(θ_{j₁}…θ_{j_n}) = Σ_{p : j_p = i} q_{i j₁} ⋯ q_{i j_{p-1}}
                            · θ_{j₁} … (omit j_p) … θ_{j_n}

and right derivatives the mirror rule (picking up q_{j_l i} from the letters
to the *right* of the removed one).

>>> v = FockVector.word(Word((2, 1)))
>>> print(partial_left(1, v))
q12*2
>>> print(inner_product(Word((1, 2, 3)), Word((1, 3, 2))))
q23
"""

from __future__ import annotations

__all__ = [
    "Weight", "Word", "FockVector",
    "partial_left", "partial_right", "inner_product", "check_ccr",
    "coproduct",
]

import itertools
from collections import namedtuple
from .ring import Poly


class Word(tuple):
    """A word i₁…i_n over the index set; prints as concatenated labels."""

    def weight(self) -> "Weight":
        mult = {}
        for ch in self:
            mult[ch] = mult.get(ch, 0) + 1
        return Weight(mult)

    def reverse(self) -> "Word":
        return Word(reversed(self))

    def drop(self, p: int) -> "Word":
        """Remove the letter at 0-based position p."""
        return Word(self[:p] + self[p + 1:])

    def __str__(self):
        if all(isinstance(ch, int) and 0 <= ch <= 9 for ch in self):
            return "".join(str(ch) for ch in self)
        return ",".join(str(ch) for ch in self)

    def __repr__(self):
        return f"Word({tuple(self)!r})"

    @staticmethod
    def parse(s: str) -> "Word":
        s = s.strip()
        if "," in s:
            return Word(int(x) for x in s.split(","))
        return Word(int(ch) for ch in s)


class Weight(namedtuple("Weight", "multiplicities")):
    """Multiplicity vector ν: how many times each label occurs, kept as the
    sorted tuple of (label, count) pairs, counts >= 1.  It is built from a
    dict, whose zero counts are dropped, or from the pairs."""

    __slots__ = ()

    def __new__(cls, multiplicities):
        if isinstance(multiplicities, dict):
            items = tuple(sorted((k, v) for k, v in multiplicities.items() if v))
        else:
            items = tuple(sorted(multiplicities))
        if any(c < 0 for _, c in items):
            raise ValueError("negative multiplicity")
        return super().__new__(cls, items)

    @property
    def size(self) -> int:
        """|ν| = total number of letters."""
        return sum(c for _, c in self.multiplicities)

    @property
    def generic(self) -> bool:
        return all(c <= 1 for _, c in self.multiplicities)

    @property
    def labels(self) -> tuple:
        return tuple(k for k, _ in self.multiplicities)

    def support_word(self) -> Word:
        """The sorted word with each label repeated to its multiplicity."""
        out = []
        for k, c in self.multiplicities:
            out.extend([k] * c)
        return Word(out)

    def words(self):
        """All words of this weight, lexicographically sorted: the distinct
        permutations of the support word, each from the one before by the
        next-permutation step (Knuth, TAOCP 7.2.1.2, Algorithm L), so no
        repeated word is ever built."""
        a = list(self.support_word())
        out = [Word(a)]
        last = len(a) - 1
        while True:
            # the longest non-increasing suffix starts after j
            j = last - 1
            while j >= 0 and a[j] >= a[j + 1]:
                j -= 1
            if j < 0:
                return out
            # swap a[j] with the last letter of the suffix that exceeds it
            k = last
            while a[j] >= a[k]:
                k -= 1
            a[j], a[k] = a[k], a[j]
            a[j + 1:] = a[:j:-1]
            out.append(Word(a))

    @staticmethod
    def generic_n(n: int) -> "Weight":
        """The generic weight on labels 1..n."""
        return Weight({i: 1 for i in range(1, n + 1)})

    def __str__(self):
        return str(self.support_word())


class FockVector:
    """Finite Poly-linear combination of words of one common weight."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            weights = set()
            for w, c in terms.items():
                if not c.is_zero():
                    self.terms[Word(w)] = c
                    weights.add(Word(w).weight())
            if len(weights) > 1:
                raise ValueError("vector is not weight-homogeneous")

    @staticmethod
    def zero() -> "FockVector":
        return FockVector()

    @staticmethod
    def word(w, coeff: Poly | None = None) -> "FockVector":
        v = FockVector()
        v.terms[Word(w)] = coeff if coeff is not None else Poly.one()
        return v

    def _add(self, w, c: Poly):
        """Add c to the coefficient of w in place, dropping it at zero."""
        s = self.terms.get(w, Poly.zero()) + c
        if s.is_zero():
            self.terms.pop(w, None)
        else:
            self.terms[w] = s

    def __add__(self, o: "FockVector") -> "FockVector":
        out = FockVector()
        out.terms = dict(self.terms)
        for w, c in o.terms.items():
            out._add(w, c)
        return out

    def __sub__(self, o: "FockVector") -> "FockVector":
        return self + o.scale(Poly.const(-1))

    def scale(self, p: Poly) -> "FockVector":
        out = FockVector()
        if p.is_zero():
            return out
        out.terms = {w: c * p for w, c in self.terms.items()}
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, o):
        return isinstance(o, FockVector) and self.terms == o.terms

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms):
            c = self.terms[w]
            ws = str(w) if len(w) else "e"
            if c.is_one():
                bits.append(ws)
            elif c.nterms() == 1:
                bits.append(f"{c}*{ws}")
            else:
                bits.append(f"({c})*{ws}")
        return " + ".join(bits)

    def to_json(self):
        return {str(w): str(c) for w, c in sorted(self.terms.items())}


def partial_left(i, v: FockVector) -> FockVector:
    """Left derivative i∂: remove one occurrence of letter i, collecting
    q_{i,j} for every letter j strictly left of the removed one."""
    out = FockVector()
    for w, c in v.terms.items():
        pref = Poly.one()
        for p, ch in enumerate(w):
            if ch == i:
                out._add(w.drop(p), c * pref)
            pref = pref * Poly.var(i, ch)
    return out


def partial_right(i, v: FockVector) -> FockVector:
    """Right derivative ∂_i: mirror of partial_left, collecting q_{j,i} for
    every letter j strictly right of the removed one."""
    out = FockVector()
    for w, c in v.terms.items():
        n = len(w)
        suff = Poly.one()
        for p in range(n - 1, -1, -1):
            if w[p] == i:
                out._add(w.drop(p), c * suff)
            suff = suff * Poly.var(w[p], i)
    return out


def inner_product(x, y) -> Poly:
    """Deformed pairing (θ_x, θ_y): iterated left derivatives of y along the
    letters of x (first letter first).  Zero across distinct weights;
    hermitian under the involution q_{ij} <-> q_{ji}.

    >>> print(inner_product(Word((1, 1, 3)), Word((1, 3, 1))))
    q13 + q11*q13
    """
    x, y = Word(x), Word(y)
    if x.weight() != y.weight():
        return Poly.zero()
    v = FockVector.word(y)
    for i in x:
        v = partial_left(i, v)
    if v.is_zero():
        return Poly.zero()
    return v.terms[Word(())]


def check_ccr(i, j, w) -> bool:
    """Verify the commutation relation a_i a_j† = q_{ij} a_j† a_i + δ_{ij}
    on the word w: i∂(θ_j·w) = q_{ij}·θ_j·i∂(w) + δ_{ij}·w."""
    w = Word(w)
    lhs = partial_left(i, FockVector.word(Word((j,) + tuple(w))))
    dw = partial_left(i, FockVector.word(w))
    rhs = FockVector({Word((j,) + tuple(u)): c * Poly.var(i, j)
                      for u, c in dw.terms.items()})
    if i == j:
        rhs = rhs + FockVector.word(w)
    return lhs == rhs


def coproduct(w):
    """All splittings of the word w into (left, right) with the deformation
    coefficient picked up by the letters that jump left.

    Returns a list of (left: Word, right: Word, coeff: Poly) with one term
    per subset of positions, 2^n in total.

    >>> for l, r, c in coproduct(Word((1, 2))):
    ...     print(f"{l or 'e'}|{r or 'e'}  {c}")
    e|12  1
    1|2  1
    2|1  q12
    12|e  1
    """
    w = Word(w)
    n = len(w)
    out = []
    for k in range(n + 1):
        for left_pos in itertools.combinations(range(n), k):
            left_set = set(left_pos)
            right_pos = [p for p in range(n) if p not in left_set]
            coeff = Poly.one()
            # a letter chosen for the left factor jumps over every
            # unchosen letter that precedes it
            for b in left_pos:
                for a in right_pos:
                    if a < b:
                        coeff = coeff * Poly.var(w[a], w[b])
            out.append((Word(w[p] for p in left_pos),
                        Word(w[p] for p in right_pos), coeff))
    return out


if __name__ == "__main__":
    import doctest

    doctest.testmod()
