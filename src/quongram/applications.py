"""
Two specializations of the one generic Gram matrix A_n({q_kl}): the
quantum bilinear form of the discriminant hyperplane arrangement, and the
contravariant form on the lower-triangular part of a quantum group.

The discriminant arrangement in R^n consists of the hyperplanes x_i = x_j;
its domains are the n! orderings P_pi = {x_{pi(1)} < ... < x_{pi(n)}}.  With
a symmetric weight q_{ij} per hyperplane, the quantum bilinear form weighs a
pair of domains by the product of the weights of the separating hyperplanes.
Its matrix is A_n under q_{ij} = q_{ji}: ``gram.pair_rule`` with the
symmetric variable builds it.

The contravariant form S on the weight-(1,...,1) subspace of U_q(n_-) has
entries that are quarter-integer powers of q; writing u_{ij} = q^{b_ij/4}
makes every entry a monomial in the u_{ij}, and an integer b turns each
into a power of t = q^{1/4}.  S is u_all^{-1} * A_n under
q_{ij} = q_{ji} = u_{ij}^2, with u_all the product of all u_{ij}, so its
determinant is again the closed product of box factors.

A determinant commutes with specialization: the factor chain's
certificate of det A_n (``determinant.det_factor_chain``) certifies
``varchenko_det`` and ``contravariant_det`` at every n it reaches.

>>> print(varchenko_matrix(2).entries[0][1])
q12
>>> print(varchenko_det(3))
(1 - q12^2)^2 * (1 - q13^2)^2 * (1 - q23^2)^2 * (1 - q12^2*q13^2*q23^2)
"""

from __future__ import annotations

__all__ = [
    "symmetrize", "Edge", "VarchenkoDet",
    "varchenko_matrix", "varchenko_det",
    "UMonomial", "TLaurent", "t_laurent", "BilinearData",
    "contravariant_matrix_operators", "contravariant_matrix",
    "ContravariantDet", "contravariant_det", "elimination_det",
]

import itertools
import math
from collections import namedtuple

from .ring import Poly, pair_var
from .fock import Weight
from .gram import Basis, GramMatrix, pair_rule
from .determinant import (det_formula, det_univariate, _product,
                          _product_value, _product_str)


# ---------------------------------------------------------------------------
# the discriminant arrangement
# ---------------------------------------------------------------------------

def symmetrize(p: Poly) -> Poly:
    """Identify q_{ji} with q_{ij} (i < j): the symmetric-real parameter
    family of a weighted hyperplane arrangement."""
    return p.map_vars(lambda v: pair_var(v[2], v[1])
                      if v[0] == "q" and v[1] > v[2] else v)


class Edge(namedtuple("Edge", "subset multiplicity")):
    """A k-equal subspace x_{i_1} = ... = x_{i_k} with its weight monomial
    and determinant multiplicity; subset holds increasing labels, k >= 2."""

    __slots__ = ()

    def weight(self) -> Poly:
        return Poly.monomial(pair_var(i, j) for i, j in
                             itertools.combinations(self.subset, 2))

    def factor(self) -> Poly:
        """1 - a(L)^2, the determinant contribution of this edge."""
        a = self.weight()
        return Poly.one() - a * a


def varchenko_matrix(n: int) -> GramMatrix:
    """The quantum bilinear form of the discriminant arrangement, indexed by
    domains: entry (P_pi, P_tau) is the product of q_{ab} over the
    hyperplanes separating the two orderings, i.e. over the symmetric
    difference of the inversion sets of pi^-1 and tau^-1.

    Domain P_pi sits at the word pi(1)..pi(n) of the generic weight.  x_a =
    x_b separates two domains iff a and b stand in opposite orders in their
    words, so this is the pair rule of A_n under q_{ab} = q_{ba}.
    """
    return pair_rule(Weight.generic_n(n),
                     lambda x, y: pair_var(min(x, y), max(x, y)))


class VarchenkoDet(namedtuple("VarchenkoDet", "n edges")):
    """det B_n as a product over the edges of the k-equal arrangements."""

    __slots__ = ()

    def expand(self) -> Poly:
        return _product((e.factor(), e.multiplicity) for e in self.edges)

    def evaluate(self, assignment):
        """Exact value under a symmetric-real assignment."""
        return _product_value(((e.factor(), e.multiplicity)
                               for e in self.edges), assignment,
                              "symmetric-real")

    def __str__(self):
        return _product_str((e.factor(), e.multiplicity) for e in self.edges)


def varchenko_det(n: int) -> VarchenkoDet:
    """det B_n = prod over k-equal edges L of (1 - a(L)^2)^{l(L)} with
    l(L) = (k-2)!(n-k+1)!; every other edge of the arrangement carries
    multiplicity zero.

    >>> print(varchenko_det(2))
    (1 - q12^2)
    """
    return VarchenkoDet(n, tuple(
        Edge(subset, e)
        for subset, e in det_formula(Weight.generic_n(n)).factors))


# ---------------------------------------------------------------------------
# u-monomials and Laurent polynomials in t = q^{1/4}
# ---------------------------------------------------------------------------

class UMonomial(tuple):
    """A monomial prod u_kl^{e_kl} in u_kl = q^{b_kl/4}, exponents of any
    sign, kept as its sorted ((k, l), e) pairs with e != 0; equal
    monomials are equal tuples.

    >>> x = UMonomial.of({(1, 2): 2, (1, 3): -1})
    >>> print(x)
    u12^2*u13^-1
    >>> print(x * UMonomial.of({(1, 3): 1}))
    u12^2
    >>> x.t_exponent({(1, 2): -2, (1, 3): 3})
    -7
    """

    __slots__ = ()

    @staticmethod
    def of(exps: dict) -> "UMonomial":
        return UMonomial(sorted((v, e) for v, e in exps.items() if e))

    def __mul__(self, o: "UMonomial") -> "UMonomial":
        acc = dict(self)
        for v, e in o:
            acc[v] = acc.get(v, 0) + e
        return UMonomial.of(acc)

    def t_exponent(self, b: dict) -> int:
        """The exponent of t = q^{1/4} under u_kl -> t^{b_kl}."""
        return sum(e * b[v] for v, e in self)

    def __str__(self):
        return "*".join(f"u{k}{l}" + (f"^{e}" if e != 1 else "")
                        for (k, l), e in self) or "1"

    def __repr__(self):
        return f"<UMonomial {self}>"


def _signed_sum(terms) -> str:
    """'a - 2*b + 3' from (monomial text, coefficient) pairs in print
    order; the monomial 1 is the empty text."""
    out = ""
    for body, c in terms:
        frag = (str(abs(c)) if not body else body if abs(c) == 1
                else f"{abs(c)}*{body}")
        out += (" + " if c > 0 else " - ") + frag
    if not out:
        return "0"
    return out[3:] if out.startswith(" + ") else "-" + out[3:]


class TLaurent(namedtuple("TLaurent", "low coeffs")):
    """sum_i coeffs[i] t^(low + i), a Laurent polynomial in t = q^{1/4}.
    Build it with ``t_laurent``, which drops zero end coefficients, so
    equal values are equal tuples."""

    __slots__ = ()

    def __str__(self):
        return _signed_sum(
            ("" if e == 0 else "t" if e == 1 else f"t^{e}", c)
            for e, c in enumerate(self.coeffs, self.low) if c)


def t_laurent(low: int, coeffs) -> TLaurent:
    """The canonical TLaurent of t^low * sum_i coeffs[i] t^i; zero is
    (0, ())."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    k = 0
    while k < len(coeffs) and not coeffs[k]:
        k += 1
    return TLaurent(low + k if coeffs else 0, tuple(coeffs[k:]))


class BilinearData(namedtuple("BilinearData", "n b")):
    """A symmetric integer matrix b_{ij} = (alpha_i, alpha_j) of simple-root
    inner products; only the off-diagonal entries enter the weight-(1,...,1)
    form.  b maps each pair (i, j) with 1 <= i < j <= n to an int; a bool
    is not one."""

    __slots__ = ()

    def __new__(cls, n: int, b: dict):
        for (i, j), v in b.items():
            if not (1 <= i < j <= n):
                raise ValueError(f"bad pair {(i, j)}")
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"integer b matrix required, not {v!r} at "
                                 f"{(i, j)}")
        for pair in itertools.combinations(range(1, n + 1), 2):
            if pair not in b:
                raise ValueError(f"b matrix has no value for the pair {pair}")
        return super().__new__(cls, n, b)

    @staticmethod
    def constant(n: int, c: int) -> "BilinearData":
        return BilinearData(n, {(i, j): c for i, j in
                                itertools.combinations(range(1, n + 1), 2)})

    @staticmethod
    def random(n: int, rng, nondegenerate: bool = False) -> "BilinearData":
        """b_kl uniform in [-3, 3], drawn pair by pair in order; with
        ``nondegenerate``, redrawn until no subset sum is zero."""
        while True:
            b = BilinearData(n, {
                (i, j): rng.randint(-3, 3)
                for i, j in itertools.combinations(range(1, n + 1), 2)})
            if not (nondegenerate and b.degenerate()):
                return b

    def degenerate(self) -> bool:
        """Whether some subset of >= 2 letters has sum b = 0, which makes
        its factor of det S, and so det S, vanish."""
        letters = range(1, self.n + 1)
        return any(_subset_b(s, self.b) == 0
                   for m in range(2, self.n + 1)
                   for s in itertools.combinations(letters, m))

    def pairs(self):
        return sorted(self.b)


def _subset_b(subset, b: dict) -> int:
    """sum of b_kl over the pairs k < l of the subset."""
    return sum(b[p] for p in itertools.combinations(subset, 2))


# ---------------------------------------------------------------------------
# the contravariant form on the weight-(1,...,1) space
# ---------------------------------------------------------------------------

def _apply_g(i, word: tuple):
    """g_i on a single monomial f_word in a multiplicity-free weight: strip
    the unique f_i, collecting u_{i,j}^{+1} for letters j before it and
    u_{i,j}^{-1} for letters after it."""
    p = word.index(i)
    coeff = UMonomial.of({(min(i, j), max(i, j)): 1 if l < p else -1
                          for l, j in enumerate(word) if l != p})
    return coeff, word[:p] + word[p + 1:]


def contravariant_matrix_operators(n: int) -> GramMatrix:
    """The same matrix built from the defining recursion
    S(f_i x, y) = S(x, g_i y), S(1,1) = 1."""
    basis = Basis.of_weight(Weight.generic_n(n))
    ent = []
    for wi in basis.words:
        row = []
        for wj in basis.words:
            coeff = UMonomial()
            word = tuple(wj)
            for i in wi:
                c, word = _apply_g(i, word)
                coeff = coeff * c
            row.append(coeff)
        ent.append(row)
    return GramMatrix(basis, ent)


def contravariant_matrix(n: int) -> GramMatrix:
    """S on the weight-(1,...,1) space, entries as u-monomials.  S is
    u_all^{-1} * A_n under q_{xy} = q_{yx} = u_{xy}^2: each distinct entry
    of ``varchenko_matrix(n)`` gives exponent +1 to each u_kl whose q_kl it
    holds and -1 to the rest.  The g_i recursion is asserted to agree.
    """
    pairs = tuple(itertools.combinations(range(1, n + 1), 2))

    def specialize(p: Poly) -> UMonomial:
        (m,) = p.terms
        held = {v[1:] for v, _ in m}
        return UMonomial.of({kl: 1 if kl in held else -1 for kl in pairs})

    B = varchenko_matrix(n)
    mat = GramMatrix(B.basis, B.map_distinct(specialize))
    assert mat == contravariant_matrix_operators(n), \
        "specialized Gram matrix disagrees with the g_i recursion"
    return mat


class ContravariantDet(namedtuple("ContravariantDet", "n factors")):
    """det S, kept factored: one factor per letter subset of size >= 2,
    factors = ((subset, exponent), ...).

    With x_S = prod_{k<l in S} u_kl and u_all = x_{1..n},
    det S = u_all^{-n!} * P, P = prod_S (1 - x_S^4)^{e_S}.
    """

    __slots__ = ()

    def polynomial(self) -> Poly:
        """P, with the Poly variable x_kl = Poly.var(k, l) for u_kl."""
        return _product((Poly.one() - Edge(subset, e).weight() ** 4, e)
                        for subset, e in self.factors)

    def laurent_str(self) -> str:
        """u_all^{-n!} * P written out as a Laurent polynomial in the u_kl,
        terms by total degree, then by their (pair, exponent) tuples."""
        shift = math.factorial(self.n)
        pairs = tuple(itertools.combinations(range(1, self.n + 1), 2))
        terms = []
        for mono, c in self.polynomial().terms.items():
            exps = dict.fromkeys(pairs, -shift)
            for v, e in mono:
                exps[v[1:]] += e
            m = UMonomial.of(exps)
            terms.append((sum(e for _, e in m), m, c))
        terms.sort()
        return _signed_sum((str(m) if m else "", c) for _, m, c in terms)

    def symmetric_form_agrees(self) -> bool:
        """Whether the symmetric form prod_S (x_S^-2 - x_S^2)^{e_S} is
        det S too.  It is prod_S x_S^{-2 e_S} * P, so it is exactly when,
        for every pair k < l, the subsets S holding k and l have
        sum 2 e_S = n!."""
        n = self.n
        return all(sum(2 * e for s, e in self.factors if k in s and l in s)
                   == math.factorial(n)
                   for k, l in itertools.combinations(range(1, n + 1), 2))

    def specialized(self, b: BilinearData) -> TLaurent:
        """det S under u_kl -> t^{b_kl}, factor by factor in t alone,
        never expanding the multivariate product."""
        low = -math.factorial(self.n) * _subset_b(range(1, self.n + 1), b.b)
        coeffs = [1]
        for subset, e in self.factors:
            s = 4 * _subset_b(subset, b.b)
            if s == 0:
                return t_laurent(0, ())
            if s < 0:
                # 1 - t^s = -t^s (1 - t^-s)
                s = -s
                low -= s * e
                if e % 2:
                    coeffs = [-c for c in coeffs]
            for _ in range(e):
                coeffs = [a - c for a, c in
                          zip(coeffs + [0] * s, [0] * s + coeffs)]
        return t_laurent(low, coeffs)


def contravariant_det(n: int) -> ContravariantDet:
    """det S over the weight-(1,...,1) space: exponent (m-2)!(n-m+1)! for
    every subset of m >= 2 letters.

    >>> d = contravariant_det(2)
    >>> print(d.polynomial())
    1 - q12^4
    >>> print(d.laurent_str())
    u12^-2 - u12^2
    >>> d.symmetric_form_agrees()
    True
    """
    return ContravariantDet(n, det_formula(Weight.generic_n(n)).factors)


def elimination_det(S: GramMatrix, b: BilinearData) -> TLaurent:
    """det S under u_kl -> t^{b_kl} by elimination, independent of the
    factored formula: entry m becomes t^{m.t_exponent(b)}, each row is
    divided by its lowest power of t, ``det_univariate`` eliminates over
    Z[t], and the powers are multiplied back."""
    low = 0
    rows = []
    for row in S.entries:
        es = [m.t_exponent(b.b) for m in row]
        lo = min(es)
        low += lo
        rows.append([[0] * (e - lo) + [1] for e in es])
    return t_laurent(low, det_univariate(rows))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
