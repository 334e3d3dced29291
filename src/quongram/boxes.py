"""
Factored denominators for the inverse-Gram arithmetic.

Every denominator that shows up when inverting the Gram matrices is a product
of "box" factors: for a subset T of positions of a fixed word i_1..i_n,

    Box_T  =  1 - prod_{a != b in T} q_{i_a i_b}

(the product runs over ordered pairs, so Box_T is fixed by the involution
q_{ij} <-> q_{ji}).  Box_T depends only on the sorted letters i_a, a in T
(and on whether every q_ij is set to one parameter q), so a ``BoxFactor`` is
that key and nothing else.  We therefore never need multivariate gcd: a
fraction is a polynomial numerator over a *multiset* of box factors, and the
only cancellation mechanism is exact polynomial division by one of them.

A denominator multiset is a sorted tuple of factors, so equal factors sit
next to each other for ``groupby``.  Products and sums combine these tuples
with the builtin sort and list removal (``_den_plus``, ``_den_lcm``,
``_den_minus``).

Sums of fractions go through ``sum_parts``, and sums of products of Polys
and fractions (a matrix entry, a coefficient of a composed operator or of a
sum of operators) through ``sum_products``.  Both follow one rule, in every
mode: the numerators are accumulated over the common denominator of all
the parts by ``Poly.sum_of_products`` and the total is reduced once.  A
group of numerators over a smaller denominator is lifted one missing box at
a time: the groups are split by their first missing box, each branch is
summed on the rest, and the branch sum goes into the sum above it as one
more pair with that box's binomial.  No product of several boxes is
expanded, so nothing needs a cache.

The rule has two steps: the grouping step lists the numerator pairs per
denominator and finds the common denominator and each group's missing
boxes, and the summation step lifts, accumulates and reduces.  A dense
matrix product takes the grouping step once per row (``by_denominator``),
puts each column over one denominator once (``over_common``), and hands
each entry's pairs to the summation step (``sum_row_column``).

A multiparameter box over distinct letters is irreducible, and two such
boxes over different letters are different primes of Z[q], so over such
boxes a value has exactly one reduced form.  A one-parameter box is not
prime (1 - q^2 divides 1 - q^6), nor is a box over a repeated letter
(1 - q11^2 = (1 - q11)(1 + q11)), so there a value can have several
reduced forms; the one a sum reaches depends on the multiset of its parts,
not on their order.

>>> f = BoxFraction(Poly.parse("1 - q12*q21"))
>>> g = f / BoxFactor((1, 2), frozenset({1, 2}))
>>> print(g)
1
"""

from __future__ import annotations

__all__ = ["box_poly", "BoxFactor", "BoxFraction", "as_part",
           "by_denominator", "over_common", "sum_parts", "sum_products",
           "sum_row_column", "leftover"]

import math
from fractions import Fraction
from functools import lru_cache
from itertools import groupby

from .ring import Poly, NotDivisible, GaussRat, Point, pair_var

_new = object.__new__
_ONE = Poly.one()


# a full pass of any benchmark workload (seed 1) leaves at most 26 entries;
# 1024 holds every box over up to 10 letters, in both modes
@lru_cache(maxsize=1024)
def box_poly(letters: tuple, one_param: bool) -> Poly:
    """The expansion of the box over these letters (``BoxFactor``)."""
    k = len(letters)
    if one_param:
        return Poly.one() - Poly.single_q() ** (k * (k - 1))
    return Poly.one() - Poly.monomial(
        pair_var(letters[x], letters[y])
        for x in range(k) for y in range(k) if x != y)


class BoxFactor(tuple):
    """Box_T over the letters at positions T (1-based, |T| >= 2) of a word.

    The factor is its key ``(one_param, letters)``, with the letters
    sorted: the expansion depends on nothing else, so factors over
    different words that select the same letters are equal, hash equally
    and cancel against each other.  A one-parameter box 1 - q^(k(k-1))
    depends on its size k alone, so its letters are 1..k whatever the
    word, and renaming letters leaves it as it is.  Equality, hashing and
    ordering are those of the key tuple.
    """

    __slots__ = ()

    def __new__(cls, word: tuple, positions, one_param: bool = False):
        if len(positions) < 2:
            raise ValueError("box factor needs at least two positions")
        if not all(1 <= p <= len(word) for p in positions):
            raise ValueError(f"positions {set(positions)} out of range "
                             f"for word of length {len(word)}")
        if one_param:
            letters = tuple(range(1, len(positions) + 1))
        else:
            letters = tuple(sorted(word[p - 1] for p in positions))
        return tuple.__new__(cls, (one_param, letters))

    def __getnewargs__(self):
        # rebuild (for pickle and copy) over the word of the letters
        return self[1], range(1, len(self[1]) + 1), self[0]

    @property
    def one_param(self) -> bool:
        return self[0]

    @property
    def letters(self) -> tuple:
        """Letters of the word at the chosen positions (sorted, with
        multiplicity)."""
        return self[1]

    def expand(self) -> Poly:
        """The factor as a polynomial 1 - prod_{a != b} q_{i_a i_b}."""
        return box_poly(self[1], self[0])

    def map_labels(self, f) -> "BoxFactor":
        if self[0]:
            return self
        return tuple.__new__(BoxFactor,
                             (self[0], tuple(sorted(map(f, self[1])))))

    def __str__(self):
        return "Box{%s}" % ",".join(str(ch) for ch in self[1])


def _den_poly(den: tuple) -> Poly:
    """The product of the factors of a denominator, expanded."""
    p = Poly.one()
    for f in den:
        p = p * f.expand()
    return p


def _den_plus(a: tuple, b: tuple) -> tuple:
    """Multiset sum of two sorted denominators, sorted: the denominator of
    a product.  Timsort merges the two sorted runs."""
    return tuple(sorted(a + b))


def _den_minus(a: tuple, b: tuple) -> tuple:
    """Multiset difference of two sorted denominators: every factor of a as
    often as it occurs more often in a than in b, sorted."""
    out = list(a)
    for x in b:
        if x in out:
            out.remove(x)
    return tuple(out)


def _den_lcm(a: tuple, b: tuple) -> tuple:
    """Least common multiple of two sorted denominator multisets: every
    factor as often as in the side that has it more often, sorted."""
    return _den_plus(a, _den_minus(b, a))


class BoxFraction:
    """Polynomial numerator over a multiset of box factors, kept reduced:
    no factor of the denominator exactly divides the numerator.

    ``den`` is a sorted tuple.  The constructor sorts the factors it is
    given; products and sums combine sorted tuples (``_den_plus``)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den=(), reduce: bool = True):
        den = tuple(sorted(den))
        if reduce:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den

    # -- constructors --------------------------------------------------------
    @staticmethod
    def zero() -> "BoxFraction":
        return _raw(Poly.zero(), ())

    @staticmethod
    def one() -> "BoxFraction":
        return _raw(Poly.one(), ())

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, o: "BoxFraction") -> "BoxFraction":
        (n, den), (m, den_o) = as_part(self), as_part(o)
        return _sum_once([(n, _ONE, den), (m, _ONE, den_o)])

    def __radd__(self, o) -> "BoxFraction":
        return self + o

    def __sub__(self, o: "BoxFraction") -> "BoxFraction":
        return self + (-o)

    def __rsub__(self, o) -> "BoxFraction":
        return (-self) + o

    def __neg__(self) -> "BoxFraction":
        return _raw(-self.num, self.den)

    def __mul__(self, o) -> "BoxFraction":
        n, den = as_part(o)
        return _raw(*_reduce(self.num * n, _den_plus(self.den, den)))

    def __rmul__(self, o) -> "BoxFraction":
        return self * o

    def __truediv__(self, o) -> "BoxFraction":
        """Divide by a BoxFactor, the only division the inverse needs;
        any other divisor raises TypeError."""
        if isinstance(o, BoxFactor):
            return _raw(*_reduce(self.num, _den_plus(self.den, (o,))))
        raise TypeError(f"cannot divide BoxFraction by {type(o).__name__}")

    def __eq__(self, o):
        """Equality of values, by cross multiplication after cancelling
        the factors both denominators share: each numerator is multiplied
        only by the factors its side lacks, and equal denominators compare
        numerators alone.  Exact in every mode, since Z[q] is an integral
        domain and no box is zero; neither side needs to be reduced."""
        if not isinstance(o, (BoxFraction, Poly)):
            return NotImplemented
        num, den = as_part(o)
        if self.den == den:
            return self.num == num
        return (self.num * _den_poly(_den_minus(den, self.den))
                == num * _den_poly(_den_minus(self.den, den)))

    def __hash__(self):
        """Hash of the value at the point of ``Poly.value_at_primes``,
        which sets every variable to its own prime: the numerator's value
        over the product of the boxes' values, as a Fraction.  No box
        vanishes there (its monomial is a product of primes), so equal
        values hash equally in every mode, also where reduced forms are not
        unique; with no denominator this is the hash of the equal Poly."""
        den = math.prod(f.expand().value_at_primes() for f in self.den)
        return hash(Fraction(self.num.value_at_primes(), den))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def scale(self, c: int) -> "BoxFraction":
        return _raw(self.num.scale(c), self.den) if c else BoxFraction.zero()

    def map_labels(self, f) -> "BoxFraction":
        return BoxFraction(self.num.map_labels(f),
                           tuple(b.map_labels(f) for b in self.den),
                           reduce=False)

    def renamed(self, r) -> "BoxFraction":
        """The value with its letters renamed by r, a ``ring.Renaming``:
        the numerator through ``Poly.renamed``, each box by the letter map
        of r.  A renaming is a ring automorphism, so a reduced fraction
        stays reduced.  Each distinct denominator is renamed once per
        renaming, in its ``memo``."""
        den = r.memo.get(self.den)
        if den is None:
            den = r.memo[self.den] = tuple(sorted(
                b.map_labels(r.letter) for b in self.den))
        return _raw(self.num.renamed(r), den)

    def conjugate(self) -> "BoxFraction":
        # every box factor is fixed by the involution
        return _raw(self.num.conjugate(), self.den)

    def evaluate(self, assignment, mode="free") -> GaussRat:
        """The exact value, at one ``ring.Point``."""
        return Point(assignment, mode).value(self.num, self.den)

    # -- presentation ----------------------------------------------------------
    def __str__(self):
        num = str(self.num)
        if not self.den:
            return num
        parts = []
        for f, run in groupby(self.den):
            m = len(tuple(run))
            parts.append(str(f) + (f"^{m}" if m > 1 else ""))
        den = " ".join(parts)
        if self.num.nterms() > 1:
            num = f"({num})"
        return f"{num} / {den}"

    def __repr__(self):
        return f"<BoxFraction {self}>"


def as_part(x):
    """Numerator and denominator multiset of a Poly or a BoxFraction."""
    return (x.num, x.den) if isinstance(x, BoxFraction) else (x, ())


def _raw(num: Poly, den: tuple) -> BoxFraction:
    """num / den as given: den sorted, nothing reduced or sorted."""
    r = _new(BoxFraction)
    r.num = num
    r.den = den
    return r


def _sum_once(products) -> BoxFraction:
    """Sum of x*y over (x, y, sorted denominator) products, reduced: the
    one rule by which box fractions are summed.  It is the grouping step
    ``_grouped`` of the pairs (x, y) by denominator, followed by the
    summation step ``_summed`` of the groups."""
    common, groups = _grouped((den, (x, y)) for x, y, den in products)
    return _summed([(missing, pairs) for _, missing, pairs in groups],
                   common)


def _grouped(items) -> tuple:
    """The grouping step of ``_sum_once``: the payloads of (sorted
    denominator, payload) items, listed per denominator in order of first
    appearance, as (common, [(den, missing, payloads)]).  ``common`` is the
    least common multiple of the denominators, the running ``_den_lcm`` of
    the distinct ones, and each group lacks the factors ``missing =
    _den_minus(common, den)``, a sorted tuple."""
    common = ()
    by_den: dict = {}
    for den, x in items:
        group = by_den.get(den)
        if group is None:
            common = _den_lcm(common, den)
            by_den[den] = [x]
        else:
            group.append(x)
    return common, [(den, _den_minus(common, den), group)
                    for den, group in by_den.items()]


def _summed(groups, common) -> BoxFraction:
    """The summation step of ``_sum_once``: the sum over (missing, pairs)
    groups of x*y over the pairs (x, y) of Polys, each group lifted by the
    factors it misses through ``_lifted``, one binomial at a time, as one
    numerator over ``common``, reduced once."""
    return _raw(*_reduce(_lifted(groups), common))


def _lifted(groups) -> Poly:
    """Sum over (missing, pairs) groups of the pairs' sum times the
    product of the factors in ``missing``, by

        sum_g s_g prod(M_g) = sum_{M_g = ()} s_g
                              + sum_f f * sum_{M_g[0] = f} s_g prod(M_g[1:])

    with each inner sum a branch, summed by the same rule on the rest of
    its tuples.  Groups sharing a prefix of missing factors share its
    lifts."""
    pairs = []
    branches: dict = {}
    for missing, group in groups:
        if missing:
            branches.setdefault(missing[0], []).append((missing[1:], group))
        else:
            pairs += group
    for f, branch in branches.items():
        s = _lifted(branch)
        if not s.is_zero():
            pairs.append((s, f.expand()))
    return Poly.sum_of_products(pairs)


def sum_parts(parts) -> BoxFraction:
    """Sum of (numerator, denominator multiset) pairs, reduced once over
    their common denominator by ``_sum_once``, in every mode.  Parts with a
    zero numerator are skipped, and a single part is reduced on its own.

    Over multiparameter boxes of distinct letters the reduced form is the
    one form of the value.  Over one-parameter boxes, or a repeated letter,
    a value can have several reduced forms, and the one reached depends on
    the multiset of the parts, not on their order.

    >>> b = BoxFactor((1, 2), frozenset({1, 2}))
    >>> print(sum_parts([(Poly.one(), (b,)), (Poly.parse("-q12*q21"), (b,))]))
    1
    """
    return _sum_once([(n, _ONE, tuple(sorted(den)))
                      for n, den in parts if not n.is_zero()])


def sum_products(pairs):
    """Sum of x*y over a list of pairs of Polys and BoxFractions, reduced,
    by the rule of ``sum_parts``: equal to ``sum_parts`` of the unreduced
    products, each over the merged denominators of its pair.

    A single pair is the product x*y, reduced by ``BoxFraction.__mul__``
    as ``sum_parts`` reduces a single part.  When every operand is a Poly,
    the sum is one ``Poly.sum_of_products``, a Poly.  Otherwise no product
    x*y is built on its own: the pairs are grouped by their denominator
    and accumulated by ``_sum_once``, in every mode.  Pairs with a zero
    side are skipped.

    >>> b = BoxFraction(Poly.one(), (BoxFactor((1, 2), frozenset({1, 2})),))
    >>> print(sum_products([(b, Poly.one()), (b, Poly.parse("-q12*q21"))]))
    1
    """
    if len(pairs) == 1:
        ((x, y),) = pairs
        return x * y
    if all(isinstance(x, Poly) and isinstance(y, Poly) for x, y in pairs):
        return Poly.sum_of_products(pairs)
    products = []
    for x, y in pairs:
        (nx, dx), (ny, dy) = as_part(x), as_part(y)
        if not (nx.is_zero() or ny.is_zero()):
            products.append((nx, ny, _den_plus(dx, dy)))
    return _sum_once(products)


def over_common(values) -> tuple:
    """The least common denominator of Polys and BoxFractions, and the
    values over it as unreduced BoxFractions; the values as they are when
    none has a denominator.  Zeros stay as they are.  Each distinct
    missing product of boxes is expanded once.

    Every nonzero value then has the same denominator, so the products of
    such values, say a column of a matrix product, with the values of a
    row are grouped by the row's denominators alone (``by_denominator``),
    and ``sum_row_column`` accumulates them without multiplying these
    values up, and reduces once.  The value of each sum is that of the sum
    of the values as they are.  Over multiparameter boxes of distinct
    letters so is its form, the one reduced form; over other boxes the
    larger common denominator can reduce to another form of the same
    value.
    """
    parts = [as_part(x) for x in values]
    common = ()
    for _, den in parts:
        common = _den_lcm(common, den)
    if not common:
        return common, list(values)
    lifts: dict = {}
    out = []
    for x, (n, den) in zip(values, parts):
        if n.is_zero():
            out.append(x)
            continue
        if den != common:
            lift = lifts.get(den)
            if lift is None:
                lift = lifts[den] = _den_poly(_den_minus(common, den))
            n = n * lift
        out.append(_raw(n, common))
    return common, out


def by_denominator(values) -> tuple:
    """The nonzero values among Polys and BoxFractions, grouped by the
    grouping step of ``_sum_once``: (common, [(den, missing, [(k,
    numerator)])]), k the index of the value."""
    parts = ((k, as_part(x)) for k, x in enumerate(values))
    return _grouped((den, (k, n)) for k, (n, den) in parts
                    if not n.is_zero())


def sum_row_column(row, nums, den) -> BoxFraction:
    """Sum of x*y over a row of values grouped by ``by_denominator`` and a
    column over one denominator den (``over_common``), with numerators
    nums, None at a zero: the ``sum_products`` of the pairs.

    A group of the row over D has its products over D + den, so the row's
    groups, common denominator and missing factors serve every column, and
    only the numerator pairs are handed to the summation step ``_summed``.
    A group that meets only zeros of the column has no product, and so no
    say in the common denominator: the rest are grouped afresh."""
    common, groups = row
    kept = []
    for d, missing, group in groups:
        pairs = [(n, nums[k]) for k, n in group if nums[k] is not None]
        if pairs:
            kept.append((d, missing, pairs))
    if len(kept) < len(groups):
        common, kept = _grouped((d, pair) for d, _, pairs in kept
                                for pair in pairs)
    return _summed([(missing, pairs) for _, missing, pairs in kept],
                   _den_plus(common, den))


def leftover(frac: BoxFraction, candidate) -> BoxFraction | None:
    """None if frac times the product of the candidate boxes is a
    polynomial, else that product, reduced, whose denominator is what the
    candidate leaves.

    A candidate holding every denominator factor as often clears the
    denominator with no product; any other entry builds it."""
    candidate = tuple(sorted(candidate))
    rem_den = _den_minus(frac.den, candidate)
    if not rem_den:
        return None
    num = frac.num
    for box in _den_minus(candidate, frac.den):
        num = num * box.expand()
    left = BoxFraction(num, rem_den)
    return left if left.den else None


def _reduce(num: Poly, den: tuple):
    """Cancel denominator factors that exactly divide the numerator.

    ``den`` is sorted, so equal factors are adjacent.  Each distinct factor
    is divided out until its first miss and never tried again: if f does
    not divide N, it does not divide N/g either.

    A numerator of one term c*u is returned as it is, with no division
    tried, since no box divides it.  A box 1 - m (m a monomial, never 1) has
    positive degree, so it is no unit of Z[q].  If it divided c*u, each of
    its irreducible factors would divide c*u and so, Z[q] being a unique
    factorization domain, be an integer prime or a variable up to sign.
    Neither divides 1 - m: its content is 1, as its constant term is 1, and
    a variable divides only polynomials whose every term contains it, which
    the term 1 does not.

    A box 1 - m with a variable that no term of the numerator has is not
    tried either.  If 1 - m divided N, the degree of N in that variable
    would be its degree in 1 - m plus that in the quotient, Z[q] being an
    integral domain, so at least one.  By the same count every variable of
    a quotient N/g occurs in N, so the variables of N serve every step.
    """
    if num.is_zero():
        return num, ()
    if not den or num.nterms() == 1:
        return num, den
    have = num.variable_flags()
    remaining = []
    for f, run in groupby(den):
        run = list(run)
        p = f.expand()
        if p.variable_flags() & ~have:
            remaining.extend(run)
            continue
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
