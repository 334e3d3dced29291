"""
Two faces of the same Gram matrix: the quantum bilinear form of the
discriminant hyperplane arrangement, and the contravariant form on the
lower-triangular part of a quantum group.

The discriminant arrangement in R^n consists of the hyperplanes x_i = x_j;
its domains are the n! orderings P_pi = {x_{pi(1)} < ... < x_{pi(n)}}.  With
a symmetric weight q_{ij} per hyperplane, the quantum bilinear form weighs a
pair of domains by the product of the weights of the separating hyperplanes,
and its matrix is exactly the generic-weight Gram matrix under the symmetric
specialization q_{ij} = q_{ji}.

The contravariant form S on the weight-(1,...,1) subspace of U_q(n_-) has
entries that are quarter-integer powers of q; writing u_{ij} = q^{b_ij/4}
keeps everything inside an exact Laurent ring.  Factoring a global monomial
out of S leaves the same generic Gram matrix at q_{ij} = q^{b_ij/2}, so its
determinant is again the closed product of box factors.

>>> print(varchenko_matrix(2).entries[0][1])
q12
>>> print(varchenko_det(3))
(1 - q12^2)^2 * (1 - q13^2)^2 * (1 - q23^2)^2 * (1 - q12^2*q13^2*q23^2)
"""

from __future__ import annotations

__all__ = [
    "symmetrize", "Arrangement", "Edge", "VarchenkoDet",
    "varchenko_matrix", "varchenko_det",
    "Laurent", "BilinearData",
    "contravariant_entry", "contravariant_matrix_operators",
    "contravariant_matrix", "ContravariantDet", "contravariant_det",
    "substituted_gram_det",
]

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .ring import Poly
from .fock import Word, Weight
from .perms import Perm
from .gram import Basis, GramMatrix
from .determinant import det_formula


# ---------------------------------------------------------------------------
# the discriminant arrangement
# ---------------------------------------------------------------------------

def symmetrize(p: Poly) -> Poly:
    """Identify q_{ji} with q_{ij} (i < j): the symmetric-real parameter
    family of a weighted hyperplane arrangement."""
    out = {}
    for m, c in p.terms.items():
        acc = {}
        for v, e in m:
            if v[0] == "q" and v[1] > v[2]:
                v = ("q", v[2], v[1])
            acc[v] = acc.get(v, 0) + e
        mm = tuple(sorted(acc.items()))
        out[mm] = out.get(mm, 0) + c
    return Poly({m: c for m, c in out.items() if c})


@dataclass(frozen=True)
class Arrangement:
    """The hyperplanes x_i = x_j (i < j) in R^n, weighted symmetrically."""

    n: int

    @property
    def hyperplanes(self) -> tuple:
        return tuple(itertools.combinations(range(1, self.n + 1), 2))

    def weight(self, i: int, j: int) -> Poly:
        if i == j:
            raise ValueError("no hyperplane x_i = x_i")
        return Poly.var(min(i, j), max(i, j))

    def domains(self) -> tuple:
        """One domain P_pi per ordering of the coordinates, as the word
        pi(1)..pi(n) (the coordinate indices read in increasing position)."""
        return tuple(Word(p) for p in
                     itertools.permutations(range(1, self.n + 1)))


@dataclass(frozen=True)
class Edge:
    """A k-equal subspace x_{i_1} = ... = x_{i_k} with its weight monomial
    and determinant multiplicity."""

    subset: tuple  # increasing labels, k >= 2
    n: int

    def weight(self) -> Poly:
        a = Poly.one()
        for i, j in itertools.combinations(self.subset, 2):
            a = a * Poly.var(i, j)
        return a

    @property
    def multiplicity(self) -> int:
        k = len(self.subset)
        return math.factorial(k - 2) * math.factorial(self.n - k + 1)

    def factor(self) -> Poly:
        """1 - a(L)^2, the determinant contribution of this edge."""
        a = self.weight()
        return Poly.one() - a * a


def varchenko_matrix(n: int) -> GramMatrix:
    """The quantum bilinear form of the discriminant arrangement, indexed by
    domains: entry (P_pi, P_tau) is the product of q_{ab} over the
    hyperplanes separating the two orderings, i.e. over the symmetric
    difference of the inversion sets of pi^-1 and tau^-1.

    Domain P_pi sits at the word pi(1)..pi(n) of the generic weight, which
    makes the matrix literally a Gram matrix.
    """
    basis = Basis.of_weight(Weight.generic_n(n))
    inv_sets = [Perm(tuple(w)).inverse().inversion_set()
                for w in basis.words]
    ent = []
    for si in inv_sets:
        row = []
        for sj in inv_sets:
            p = Poly.one()
            for a, b in si ^ sj:
                p = p * Poly.var(a, b)
            row.append(p)
        ent.append(row)
    return GramMatrix(basis, ent)


@dataclass(frozen=True)
class VarchenkoDet:
    """det B_n as a product over the edges of the k-equal arrangements."""

    n: int
    edges: tuple

    def expand(self) -> Poly:
        p = Poly.one()
        for e in self.edges:
            p = p * e.factor() ** e.multiplicity
        return p

    def evaluate(self, assignment):
        """Exact value under a symmetric-real assignment."""
        from .ring import GaussRat
        val = GaussRat.of(1)
        for e in self.edges:
            f = e.factor().evaluate(assignment, "symmetric-real")
            for _ in range(e.multiplicity):
                val = val * f
        return val

    def __str__(self):
        bits = []
        for e in self.edges:
            s = f"(1 - {'*'.join(f'q{i}{j}^2' for i, j in itertools.combinations(e.subset, 2))})"
            if e.multiplicity != 1:
                s += f"^{e.multiplicity}"
            bits.append(s)
        return " * ".join(bits)


def varchenko_det(n: int) -> VarchenkoDet:
    """det B_n = prod over k-equal edges L of (1 - a(L)^2)^{l(L)} with
    l(L) = (k-2)!(n-k+1)!; every other edge of the arrangement carries
    multiplicity zero.

    >>> print(varchenko_det(2))
    (1 - q12^2)
    """
    edges = []
    for k in range(2, n + 1):
        for subset in itertools.combinations(range(1, n + 1), k):
            edges.append(Edge(subset, n))
    return VarchenkoDet(n, tuple(edges))


# ---------------------------------------------------------------------------
# Laurent monomial ring for quarter-powers of q
# ---------------------------------------------------------------------------

class Laurent:
    """Laurent polynomial with integer coefficients over formal commuting
    variables keyed by hashable names; used with keys (i, j) for
    u_{ij} = q^{b_ij/4} and the key "t" for t = q^{1/4}.

    >>> x = Laurent.u(1, 2)
    >>> print(x ** -2 - x ** 2)
    u12^-2 - u12^2
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {m: c for m, c in terms.items() if c}

    @staticmethod
    def zero() -> "Laurent":
        return Laurent({})

    @staticmethod
    def one() -> "Laurent":
        return Laurent({(): 1})

    @staticmethod
    def const(c: int) -> "Laurent":
        return Laurent({(): c})

    @staticmethod
    def u(i, j, e: int = 1) -> "Laurent":
        if i == j:
            raise ValueError("pair variable needs distinct labels")
        return Laurent({(((min(i, j), max(i, j)), e),): 1})

    @staticmethod
    def t(e: int = 1) -> "Laurent":
        return Laurent({(("t", e),): 1})

    @staticmethod
    def monomial(exps: dict, coeff: int = 1) -> "Laurent":
        m = tuple(sorted((k, e) for k, e in exps.items() if e))
        return Laurent({m: coeff})

    def __add__(self, o: "Laurent") -> "Laurent":
        out = dict(self.terms)
        for m, c in o.terms.items():
            out[m] = out.get(m, 0) + c
        return Laurent(out)

    def __sub__(self, o: "Laurent") -> "Laurent":
        return self + (-o)

    def __neg__(self) -> "Laurent":
        return Laurent({m: -c for m, c in self.terms.items()})

    def __mul__(self, o: "Laurent") -> "Laurent":
        out = {}
        for ma, ca in self.terms.items():
            da = dict(ma)
            for mb, cb in o.terms.items():
                acc = dict(da)
                for v, e in mb:
                    r = acc.get(v, 0) + e
                    if r:
                        acc[v] = r
                    else:
                        del acc[v]
                mm = tuple(sorted(acc.items()))
                out[mm] = out.get(mm, 0) + ca * cb
        return Laurent(out)

    def __pow__(self, e: int) -> "Laurent":
        if e < 0:
            if len(self.terms) != 1:
                raise ValueError("can only invert monomials")
            ((m, c),) = self.terms.items()
            if c * c != 1:
                raise ValueError("can only invert unit monomials")
            inv = Laurent({tuple((v, -x) for v, x in m): c})
            return inv ** (-e)
        r = Laurent.one()
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def __eq__(self, o):
        if not isinstance(o, Laurent):
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def specialize(self, b: dict) -> "Laurent":
        """Substitute u_{ij} -> t^{b_ij} (b integer-valued, symmetric);
        the result lives in the single variable t = q^{1/4}."""
        out = {}
        for m, c in self.terms.items():
            e = 0
            for v, x in m:
                if v == "t":
                    e += x
                else:
                    e += x * b[v]
            mm = ((("t", e),) if e else ())
            out[mm] = out.get(mm, 0) + c
        return Laurent(out)

    def evaluate_t(self, tval: Fraction) -> Fraction:
        """Exact value of a univariate (t-only) Laurent polynomial."""
        total = Fraction(0)
        for m, c in self.terms.items():
            val = Fraction(c)
            for v, e in m:
                if v != "t":
                    raise ValueError("evaluate_t needs a t-only polynomial")
                val = val * Fraction(tval) ** e
            total += val
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        def vname(v):
            return "t" if v == "t" else f"u{v[0]}{v[1]}"
        def key(m):
            return (sum(e for _, e in m), m)
        parts = []
        for m in sorted(self.terms, key=key):
            c = self.terms[m]
            body = "*".join(vname(v) + (f"^{e}" if e != 1 else "")
                            for v, e in m)
            if not body:
                parts.append((" + " if c > 0 else " - ") + str(abs(c)))
            elif abs(c) == 1:
                parts.append((" + " if c > 0 else " - ") + body)
            else:
                parts.append((" + " if c > 0 else " - ") + f"{abs(c)}*{body}")
        s = "".join(parts)
        return s[3:] if s.startswith(" + ") else "-" + s[3:]

    def __repr__(self):
        return f"<Laurent {self}>"


@dataclass(frozen=True)
class BilinearData:
    """A symmetric integer matrix b_{ij} = (alpha_i, alpha_j) of simple-root
    inner products; only the off-diagonal entries enter the weight-(1,...,1)
    form."""

    n: int
    b: dict  # (i, j) with i < j -> int

    def __post_init__(self):
        for (i, j), v in self.b.items():
            if not (1 <= i < j <= self.n):
                raise ValueError(f"bad pair {(i, j)}")
            if not isinstance(v, int):
                raise ValueError("integer b matrix required")

    @staticmethod
    def constant(n: int, c: int) -> "BilinearData":
        return BilinearData(n, {(i, j): c for i, j in
                                itertools.combinations(range(1, n + 1), 2)})

    def pairs(self):
        return sorted(self.b)


# ---------------------------------------------------------------------------
# the contravariant form on the weight-(1,...,1) space
# ---------------------------------------------------------------------------

def contravariant_entry(I, J) -> Laurent:
    """S(f_I, f_J) = q^{(sum_{k<l} +- b_{i_k i_l})/4}: plus when the pairing
    permutation inverts the pair, minus otherwise."""
    I, J = tuple(I), tuple(J)
    if sorted(I) != sorted(J) or len(set(I)) != len(I):
        raise ValueError("entries need two words of one multiplicity-free "
                         "weight")
    # sigma(p) = position of i_p inside J; this is the indexing under which
    # the sign rule reproduces the defining g_i recursion (and makes the
    # matrix symmetric, as a bilinear form must be)
    place = {letter: p + 1 for p, letter in enumerate(J)}
    sigma = Perm(place[letter] for letter in I)
    out = Laurent.one()
    for k, l in itertools.combinations(range(1, len(I) + 1), 2):
        sign = 1 if sigma(k) > sigma(l) else -1
        out = out * Laurent.u(I[k - 1], I[l - 1], sign)
    return out


def _apply_g(i, word: tuple):
    """g_i on a single monomial f_word in a multiplicity-free weight: strip
    the unique f_i, collecting u_{i,j}^{+1} for letters j before it and
    u_{i,j}^{-1} for letters after it."""
    p = word.index(i)
    coeff = Laurent.one()
    for l, j in enumerate(word):
        if l < p:
            coeff = coeff * Laurent.u(i, j)
        elif l > p:
            coeff = coeff * Laurent.u(i, j, -1)
    return coeff, word[:p] + word[p + 1:]


def contravariant_matrix_operators(n: int) -> GramMatrix:
    """The same matrix built from the defining recursion
    S(f_i x, y) = S(x, g_i y), S(1,1) = 1."""
    basis = Basis.of_weight(Weight.generic_n(n))
    ent = []
    for wi in basis.words:
        row = []
        for wj in basis.words:
            coeff = Laurent.one()
            word = tuple(wj)
            for i in wi:
                c, word = _apply_g(i, word)
                coeff = coeff * c
            row.append(coeff)
        ent.append(row)
    return GramMatrix(basis, ent)


def contravariant_matrix(n: int, check: bool = True) -> GramMatrix:
    """S on the weight-(1,...,1) space, entries as Laurent monomials in the
    u_{ij}; built from the closed sign formula, with the operator recursion
    asserted to agree when ``check`` is set."""
    basis = Basis.of_weight(Weight.generic_n(n))
    ent = [[contravariant_entry(tuple(wi), tuple(wj))
            for wj in basis.words] for wi in basis.words]
    mat = GramMatrix(basis, ent)
    if check:
        assert mat == contravariant_matrix_operators(n), \
            "closed formula disagrees with the g_i recursion"
    return mat


def _subset_q(subset, power: int) -> Laurent:
    """q^{(power/4) sum_{k<l in subset} b_{kl}} as a u-monomial."""
    out = Laurent.one()
    for i, j in itertools.combinations(subset, 2):
        out = out * Laurent.u(i, j, power)
    return out


@dataclass(frozen=True)
class ContravariantDet:
    """det S, kept factored: one factor per letter subset of size >= 2."""

    n: int
    factors: tuple  # ((subset, exponent), ...)

    def prefactor_form(self) -> Laurent:
        """q^{-(n!/4) sum b_{kl}} . prod (1 - q^{sum_mu b})^{e_mu}."""
        out = _subset_q(tuple(range(1, self.n + 1)),
                        -math.factorial(self.n))
        for subset, e in self.factors:
            out = out * (Laurent.one() - _subset_q(subset, 4)) ** e
        return out

    def symmetric_form(self) -> Laurent:
        """prod (q^{-(1/2) sum_mu b} - q^{+(1/2) sum_mu b})^{e_mu}."""
        out = Laurent.one()
        for subset, e in self.factors:
            out = out * (_subset_q(subset, -2) - _subset_q(subset, 2)) ** e
        return out

    def specialized(self, b: BilinearData, form: str = "prefactor"
                    ) -> Laurent:
        """Either form under an integer b matrix, as a Laurent polynomial in
        t = q^{1/4} (computed factor by factor, never expanding the
        multivariate product)."""
        bb = b.b
        if form == "prefactor":
            out = _subset_q(tuple(range(1, self.n + 1)),
                            -math.factorial(self.n)).specialize(bb)
            for subset, e in self.factors:
                f = (Laurent.one() - _subset_q(subset, 4).specialize(bb))
                out = out * f ** e
            return out
        if form == "symmetric":
            out = Laurent.one()
            for subset, e in self.factors:
                f = (_subset_q(subset, -2).specialize(bb)
                     - _subset_q(subset, 2).specialize(bb))
                out = out * f ** e
            return out
        raise ValueError(f"unknown form {form!r}")


def contravariant_det(n: int) -> ContravariantDet:
    """det S over the weight-(1,...,1) space: exponent (m-2)!(n-m+1)! for
    every subset of m >= 2 letters.

    >>> d = contravariant_det(2)
    >>> print(d.prefactor_form())
    u12^-2 - u12^2
    >>> d.prefactor_form() == d.symmetric_form()
    True
    """
    factors = []
    for m in range(2, n + 1):
        e = math.factorial(m - 2) * math.factorial(n - m + 1)
        for subset in itertools.combinations(range(1, n + 1), m):
            factors.append((subset, e))
    return ContravariantDet(n, tuple(factors))


def substituted_gram_det(n: int, b: BilinearData) -> Laurent:
    """det S obtained the long way round: factor the monomial
    q^{-(1/4) sum b_{kl}} out of every row of S, leaving the generic Gram
    matrix at q_{ij} = q^{b_ij/2} = u_{ij}^2, then substitute into its
    factored determinant."""
    bb = b.b
    out = _subset_q(tuple(range(1, n + 1)),
                    -math.factorial(n)).specialize(bb)
    for letters, e in det_formula(Weight.generic_n(n)).factors:
        box = Laurent.one() - _subset_q(letters, 4).specialize(bb)
        out = out * box ** e
    return out


if __name__ == "__main__":
    import doctest

    doctest.testmod()
