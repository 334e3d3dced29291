"""
Closed-form Gram determinants and the elimination oracles that certify them.

The headline identity: for a multiplicity-free weight ν of size n,

    det A^(ν) = ∏_{μ ⊆ ν, |μ| ≥ 2} (□_μ)^{(|μ|−2)! (n−|μ|+1)!}

with □_μ = 1 − ∏_{i≠j∈μ} q_{ij}.  Under q_{ij} ↦ q this collapses to
∏_{k=2}^n (1−q^{k(k−1)})^{n!(n−k+1)/(k(k−1))}.

A factored record (``DetFormula``, ``OneParamDet`` and the arrangement
form ``applications.VarchenkoDet``) only lists its (polynomial, exponent)
pairs; the one product rule that expands, evaluates, measures and prints
them is their base ``Factored``.

Oracles, all by elimination, in two loops: one fraction-free (Bareiss)
engine, run over exact polynomials (the dense matrix, and the orbit
blocks of the cyclic factors I − R̂(t_{a,b})) and over the Gaussian
integers at rational evaluation points, scaled to integers row by row;
and, on single-variable slices over Z[q], one Gaussian elimination over
F_p at enough integer points, with p the least prime of a table of known
primes beyond twice the Hadamard bound on every coefficient, followed by
exact interpolation (``det_univariate``).

``det_factor_chain`` certifies the formula beyond the reach of dense
elimination, which runs for hours already at n = 4: each orbit block of
each cyclic factor is I minus a weighted cycle, read off as
1 − ∏ weights (Leibniz) and checked to be one box, so n = 6 takes about
0.15 s and n = 7 about 2 s.  ``det_univariate`` strips the lowest power
of q from every row and column first, and eliminates its points in
batches of 16 in lockstep, with one modular inverse per step for all of
their pivots (Montgomery's trick), reducing an entry mod p only when its
row becomes the pivot row.  The sweep reads only the upper triangle of a
matrix made symmetric by a diagonal scaling, which every Gram and
Varchenko slice is, and swaps rows past zero pivots in any other.  The
points are eliminated independently, so they are split into contiguous
runs of whole batches, one per CPU the process may run on: the process
eliminates the first run and a forked child each other one, which sends
its residues back through a pipe.  Separate processes share no
interpreter lock.  A process stays single on one CPU, without os.fork,
with fewer than two batches, or with another thread alive.

The Bareiss engine is lazy per entry.  With D_l the leading minor of size
l (D_0 = 1), an entry whose row or pivot-row factor is 0 at step k would
only be rescaled by D_{k+1}/D_k, and these factors telescope:
a^(k) = a^(m) D_k / D_m for an entry last updated at step m.  So such an
entry is left alone and lifted by that one exact division when it is next
read.  The Gram matrix factors into sparse levels A = A^1 ⋯ A^n (Zagier,
Comm. Math. Phys. 147, 1992), so most of its Schur complements' entries
are exact zeros, and the cost scales with the number of updates whose
product term is nonzero: at n = 5 about 50 000 of the eager sweep's
288 000 steps, plus about 32 000 lifts.

At a hermitian point (so also at a symmetric-real one) the Gram matrix is
hermitian.  Every Bareiss pivot is then a leading principal minor, which is
real, and every intermediate matrix stays hermitian (Sylvester's identity;
Bareiss, Math. Comp. 22, 1968).  ``det_point`` therefore sweeps only the
upper triangle of such a matrix and divides by integers, about 3.5 times
faster than the general sweep at n = 5.  It falls back to the general
sweep, with complex pivots and row swaps, for any other matrix and
whenever a leading principal minor vanishes.  The same sweep decides
``positivity_check`` exactly: the Gram matrix is positive definite when
every leading minor is positive (Sylvester's criterion).

``det_point`` eliminates the Gaussian integers t · S A S, S = diag(s).
At a point whose parameters have denominator D, entry (σ, τ) of the Gram
matrix has a denominator dividing D^ℓ(σ⁻¹τ).  So each word σ gets its own
scale s_σ, read off one reference row, where one common scale would be the
lcm L of every denominator, D^ℓmax.  Words are pivoted in ascending s_σ,
so the early leading minors carry the smallest scales.  The scale bits
summed over the leading minors never exceed those of the uniform scaling
t = L, s = 1 (∏_k ∏_{i≤k} s_i² ≤ L^{n(n+1)/2}); a matrix past that bound
is scaled uniformly.  At n = 5 this halves the time of the point
determinant.

>>> print(det_formula(Weight.generic_n(2)))
(1 - q12*q21)
>>> print(det_one_param(3))
(1 - q^2)^6 * (1 - q^6)
"""

from __future__ import annotations

__all__ = [
    "DetFormula", "OneParamDet", "det_formula", "det_cycle_factor",
    "det_one_param", "one_param_exponents", "positivity_check",
    "Factored", "Divisibility", "det_divides",
    "det_poly_bareiss", "det_single_cycle", "det_point", "det_elim",
    "peel_exponents", "det_factor_chain", "det_univariate",
    "poly_to_univariate", "is_inverse",
]

import bisect
import itertools
import math
import os
import random
import threading
from collections import namedtuple
from fractions import Fraction

from .ring import Poly, GaussRat, NotDivisible, Point, SINGLE_Q
from .boxes import box_poly
from .fock import Weight
from .perms import cycle
from .gram import (Basis, build_degenerate, pair_rule, q_mono,
                   embed_degenerate)


# ---------------------------------------------------------------------------
# factored formulas
# ---------------------------------------------------------------------------

class Factored:
    """A determinant kept factored, as the product of p^e over the (Poly p,
    exponent e) pairs of its ``pairs()``: the one rule that expands,
    evaluates, measures and prints such a product."""

    __slots__ = ()

    def expand(self) -> Poly:
        """∏ p^e, expanded, left to right."""
        return math.prod((p ** e for p, e in self.pairs()), start=Poly.one())

    def evaluate(self, assignment, mode="hermitian") -> GaussRat:
        """The exact value of ∏ p^e under the assignment, at one Point; the
        product runs on unreduced triples and is reduced once."""
        point = Point(assignment, mode)
        return GaussRat.sum_of_products([(1, [
            v for p, e in self.pairs() for v in [point.value(p)] * e])])

    def degree(self) -> int:
        """The total degree of the expanded product."""
        return sum(e * p.degree() for p, e in self.pairs())

    def __str__(self):
        """'(p)^e * ...' in order, '^1' left out; '1' for no pair."""
        return " * ".join(f"({p})" + (f"^{e}" if e != 1 else "")
                          for p, e in self.pairs()) or "1"


class DetFormula(Factored, namedtuple("DetFormula", "weight factors")):
    """Factored determinant: multiset of box factors with exponents.

    factors: tuple of (letters: sorted tuple of labels, exponent), kept in
    one canonical order, by size and then by letters, so that equal
    formulas compare and hash equal however they were assembled."""

    __slots__ = ()

    def __new__(cls, weight: Weight, factors):
        return super().__new__(cls, weight, tuple(
            sorted(factors, key=lambda t: (len(t[0]), t[0]))))

    def pairs(self) -> list:
        """(box polynomial, exponent) of each factor, in order."""
        return [(box_poly(tuple(m), False), e) for m, e in self.factors]


class OneParamDet(Factored, namedtuple("OneParamDet", "n factors")):
    """One-parameter factored determinant ∏_k (1−q^{k(k−1)})^{e_k},
    factors = ((k, exponent), ...) with k >= 2."""

    __slots__ = ()

    def pairs(self) -> list:
        """(1 − q^{k(k−1)}, exponent) of each factor, by k."""
        return [(box_poly(tuple(range(1, k + 1)), True), e)
                for k, e in sorted(self.factors)]


def det_formula(nu: Weight) -> DetFormula:
    """The factored determinant of the Gram matrix of a multiplicity-free
    weight: one box factor per subset of ≥ 2 letters, with exponent
    (|μ|−2)!(n−|μ|+1)!."""
    if not nu.generic:
        raise ValueError("determinant formula requires a multiplicity-free "
                         "weight; see det_divides for repeated letters")
    labels = nu.labels
    n = nu.size
    factors = []
    for k in range(2, n + 1):
        e = math.factorial(k - 2) * math.factorial(n - k + 1)
        for mu in itertools.combinations(labels, k):
            factors.append((tuple(mu), e))
    return DetFormula(nu, tuple(factors))


def det_cycle_factor(a: int, b: int, nu: Weight,
                     variant: str = "plain") -> DetFormula:
    """Factored determinant of a cyclic elimination factor.

    plain:  det(I − R̂(t_{a,b}))              = ∏_{|μ|=b−a+1} □_μ^{(b−a)!(n+a−b−1)!}
    boxed:  det(I − Q_{{b,b+1}} R̂(t_{a,b}))  = ∏_{|μ|=b−a+2} □_μ^{(b−a)!(b−a+2)(n+a−b−2)!}
    """
    if not nu.generic:
        raise ValueError("cycle-factor determinants require a "
                         "multiplicity-free weight")
    labels = nu.labels
    n = nu.size
    if variant == "plain":
        if not (1 <= a < b <= n):
            raise ValueError(f"need 1 <= a < b <= n, got a={a} b={b} n={n}")
        k = b - a + 1
        e = math.factorial(b - a) * math.factorial(n + a - b - 1)
    elif variant == "boxed":
        if not (1 <= a <= b < n):
            raise ValueError(f"need 1 <= a <= b < n, got a={a} b={b} n={n}")
        k = b - a + 2
        e = (math.factorial(b - a) * (b - a + 2)
             * math.factorial(n + a - b - 2))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    factors = tuple((tuple(mu), e)
                    for mu in itertools.combinations(labels, k))
    return DetFormula(nu, factors)


def one_param_exponents(f: DetFormula) -> OneParamDet:
    """Collapse a multiparameter factored determinant under q_{ij} ↦ q:
    each box on k letters becomes 1 − q^{k(k−1)}."""
    agg = {}
    for letters, e in f.factors:
        k = len(letters)
        agg[k] = agg.get(k, 0) + e
    return OneParamDet(f.weight.size, tuple(sorted(agg.items())))


def det_one_param(n: int) -> OneParamDet:
    """det A_n(q) = ∏_{k=2}^n (1−q^{k(k−1)})^{n!(n−k+1)/(k(k−1))}.

    >>> print(det_one_param(2))
    (1 - q^2)
    >>> print(det_one_param(4))
    (1 - q^2)^36 * (1 - q^6)^8 * (1 - q^12)^2
    """
    if n < 1:
        raise ValueError("need n >= 1")
    factors = []
    for k in range(2, n + 1):
        num = math.factorial(n) * (n - k + 1)
        den = k * (k - 1)
        if num % den:
            raise ArithmeticError(f"exponent of k={k} is not an integer")
        factors.append((k, num // den))
    return OneParamDet(n, tuple(factors))


# ---------------------------------------------------------------------------
# elimination oracles
# ---------------------------------------------------------------------------

def _bareiss(M, step, is_zero, zero, _upper=False):
    """Fraction-free (Bareiss) elimination of the square matrix M, in place,
    lazy per entry.

    Eager Bareiss replaces every entry a_ij (i, j > k) at step k by
    a^(k+1) = (D_{k+1} a^(k) − a_ik a_kj) / D_k, where D_l is the leading
    minor of size l (D_0 = 1, D_{k+1} the pivot of step k).  When a_ik = 0
    or a_kj = 0 this is only a^(k) D_{k+1} / D_k, and such factors
    telescope: a^(k) = a^(m) D_k / D_m.  So step k updates just the entries
    whose product term a_ik a_kj is nonzero; every other entry keeps its
    value and its level m (lev[i][j], the number of steps applied to it).
    An entry is lifted to level k, a ← a·D_k / D_m, only when it is read:
    as a pivot-row entry, as the a_ik or a_ij of an updated entry, or as
    the final pivot.  The lift is the step with a zero product term,
    step(D_k, a, zero, zero, D_m), and divides exactly, since eager Bareiss
    values are minors (Sylvester).  A zero needs no lift, and zero tests
    need none either, as every D_l ≠ 0.  The cost scales with the number
    of updates whose product term is nonzero, which for the sparse Gram
    matrices is a small share of the eager sweep's.

    step(akk, aij, aik, akj, prev) returns (akk·aij − aik·akj) / prev; the
    division is checked to be exact, and prev is None where the divisor is
    D_0 = 1.  Returns (sign, [D_1, ..., D_n]), the leading minors of M after
    its row swaps, the last one lifted, so det M = sign · D_n.  When M is
    singular the list stops at its first zero minor and sign is 1.  A row
    swap swaps the level rows too.

    With _upper set, M must be hermitian and only its upper triangle is
    swept: every intermediate matrix stays hermitian, so step receives
    a_ki = conj(a_ik) in place of a_ik, and no entry below the diagonal is
    read.  A zero pivot cannot be swapped away without breaking the
    symmetry, so that sweep returns None instead."""
    n = len(M)
    lev = [[0] * n for _ in range(n)]
    D = [None]
    sign = 1
    for k in range(n - 1):
        if is_zero(M[k][k]):
            if _upper:
                return None
            for i in range(k + 1, n):
                if not is_zero(M[i][k]):
                    M[k], M[i] = M[i], M[k]
                    lev[k], lev[i] = lev[i], lev[k]
                    sign = -sign
                    break
            else:
                return 1, D[1:] + [zero]
        rk, lk = M[k], lev[k]
        prev = D[k]
        cols = []       # the columns j > k with a_kj ≠ 0, lifted to level k
        for j in range(k, n):
            a = rk[j]
            if not is_zero(a):
                if lk[j] != k:
                    rk[j] = step(prev, a, zero, zero, D[lk[j]])
                if j > k:
                    cols.append(j)
        akk = rk[k]
        D.append(akk)
        for i in range(k + 1, n):
            ri, li = M[i], lev[i]
            if _upper:
                aik = rk[i]
                if is_zero(aik):
                    continue
                js = cols[bisect.bisect_left(cols, i):]
            else:
                aik = ri[k]
                if is_zero(aik):
                    continue
                if li[k] != k:
                    aik = step(prev, aik, zero, zero, D[li[k]])
                ri[k] = zero    # frees the eliminated entry as the sweep goes
                js = cols
            for j in js:
                a = ri[j]
                if li[j] != k and not is_zero(a):
                    a = step(prev, a, zero, zero, D[li[j]])
                ri[j] = step(akk, a, aik, rk[j], prev)
                li[j] = k + 1
    last, m = M[n - 1][n - 1], lev[n - 1][n - 1]
    if m != n - 1 and not is_zero(last):
        last = step(D[n - 1], last, zero, zero, D[m])
    D.append(last)
    return sign, D[1:]


def _poly_step(akk, aij, aik, akj, prev):
    x = akk * aij - aik * akj
    return x if prev is None else x.exact_div(prev)


def det_poly_bareiss(rows) -> Poly:
    """Fraction-free elimination over exact polynomials; all divisions are
    exact by the Sylvester minor identity."""
    if not rows:
        return Poly.one()
    sign, minors = _bareiss([list(r) for r in rows], _poly_step,
                            Poly.is_zero, Poly.zero())
    return minors[-1].scale(sign)


def det_elim(nu: Weight, one_param: bool = False) -> Poly:
    """Brute-force symbolic determinant of the built Gram matrix."""
    return det_poly_bareiss(build_degenerate(nu, one_param).entries)


def _orbit_weights(nu: Weight, a: int, b: int, variant: str):
    """Yield the weights [d(w_0), ..., d(w_{L−1})] of each t_{a,b}-orbit
    w_0, ..., w_{L−1}: I − R̂(t_{a,b}) (plain) or I − Q_{{b,b+1}}R̂(t_{a,b})
    (boxed) sends w_{r−1} to w_r (indices mod L) with coefficient d(w_r),
    so it is block-diagonal after grouping words by orbit.  Each orbit
    starts at its first word in basis order.

    d(w) is the monomial of w over the inversions of t_{a,b}⁻¹, the
    entry of R̂(t_{a,b}) at w, and for the boxed variant also over
    (b, b+1) and (b+1, b), the entry of Q_{{b,b+1}}."""
    basis = Basis.of_weight(nu)
    t = cycle(a, b, basis.n)
    pairs = list(t.inverse().inversion_set())
    if variant == "boxed":
        pairs += [(b, b + 1), (b + 1, b)]
    elif variant != "plain":
        raise ValueError(f"unknown variant {variant!r}")
    step = basis.act(t)
    seen = [False] * basis.size
    for start in range(basis.size):
        weights = []
        k = start
        while not seen[k]:
            seen[k] = True
            weights.append(q_mono(basis.words[k], pairs))
            k = step[k]
        if weights:
            yield weights


def _cycle_block(weights) -> list:
    """The block I − (the weighted cycle) of one orbit, whose entry
    (r, r − 1 mod L) is −weights[r]."""
    L = len(weights)
    zero, one = Poly.zero(), Poly.one()
    block = [[one if r == c else zero for c in range(L)] for r in range(L)]
    for r, w in enumerate(weights):
        block[r][r - 1] = block[r][r - 1] - w
    return block


def det_single_cycle(nu: Weight, a: int, b: int,
                     variant: str = "plain") -> Poly:
    """Determinant of I − R̂(t_{a,b}) (plain) or I − Q_{{b,b+1}}R̂(t_{a,b})
    (boxed), by det_poly_bareiss on each orbit block: the elimination
    oracle for the factor chain, which reads the blocks off by Leibniz."""
    det = Poly.one()
    for weights in _orbit_weights(nu, a, b, variant):
        det = det * det_poly_bareiss(_cycle_block(weights))
    return det


def peel_exponents(p: Poly, nu: Weight):
    """Greedy exact-division factorization of p into box factors over the
    letters of ν.  Returns {letters: exponent} if p is exactly such a
    product, else None.  Zero is no such product (every box divides it, so
    it could not be peeled to the end)."""
    if p.is_zero():
        return None
    labels = nu.labels
    out = {}
    for k in range(2, len(labels) + 1):
        for mu in itertools.combinations(labels, k):
            b = box_poly(tuple(mu), False)
            while True:
                try:
                    p = p.exact_div(b)
                except NotDivisible:
                    break
                out[tuple(mu)] = out.get(tuple(mu), 0) + 1
    return out if p.is_one() else None


def det_factor_chain(nu: Weight) -> DetFormula:
    """Exact determinant of A^(ν) assembled from the elimination chain:
    each cyclic factor I − R̂(t_{k,m}) / I − Q_{{m,m+1}}R̂(t_{k,m}) is the
    product of its orbit blocks, each certified as one box, and the
    operator identities A = ∏_m A^m and A^m C^m = D^{m−1} reduce the rest
    to integer exponent bookkeeping.

    An orbit block is I minus a weighted L-cycle.  By Leibniz only the
    identity and the full cycle pick a nonzero entry in every column, and
    the cycle's term is (−1)^{L−1} · (−1)^L x = −x, x the product of the
    weights: the block's determinant is exactly 1 − x.  Its letters μ are
    those of the variables of x, and it counts once towards □_μ if
    1 − x = □_μ and |μ| ≥ 2; any other block raises ArithmeticError (a
    product of two or more boxes has at least three terms, so a two-term
    block is a box product only if it is one box).  Nothing is eliminated
    or divided; det_single_cycle eliminates the same blocks as the oracle.

    (Dense symbolic elimination, used for n ≤ 3, takes hours already at
    n = 4 (24×24).  This chain certifies n = 5 in about 0.02 s, n = 6 in
    0.15-0.19 s and n = 7 in 1.7-2.1 s at 19 MB peak, on a 2-core x86
    machine (Python 3.11).)
    """
    if not nu.generic:
        raise ValueError("factor-chain determinant requires a "
                         "multiplicity-free weight")
    n = nu.size
    total = {}
    for m in range(2, n + 1):
        # det A^m = det D^{m-1} / det C^m, both products of certified
        # cyclic-factor determinants: the plain t_{k,m} give C^m, the
        # boxed t_{k,m-1} give D^{m-1}
        c_exps, d_exps = {}, {}
        for variant, level, acc in (("plain", m, c_exps),
                                    ("boxed", m - 1, d_exps)):
            for k in range(1, m):
                for weights in _orbit_weights(nu, k, level, variant):
                    x = math.prod(weights, start=Poly.one())
                    mu = tuple(sorted({i for v in x.variables()
                                       for i in v[1:]}))
                    if len(mu) < 2 or Poly.one() - x != box_poly(mu, False):
                        raise ArithmeticError(f"{variant} factor "
                                              f"t_{k},{level} is not a box "
                                              "product")
                    acc[mu] = acc.get(mu, 0) + 1
        for mu in set(c_exps) | set(d_exps):
            diff = d_exps.get(mu, 0) - c_exps.get(mu, 0)
            if diff < 0:
                raise ArithmeticError("telescoping produced a negative "
                                      f"exponent at {mu}")
            if diff:
                total[mu] = total.get(mu, 0) + diff
    return DetFormula(nu, tuple(total.items()))


# -- exact evaluation-point determinant -------------------------------------

def _gi_step(akk, aij, aik, akj, prev):
    """The Bareiss step over Gaussian integers (re, im), product and exact
    division inlined: this is the inner loop of det_point."""
    a, b = akk
    c, d = aij
    e, f = aik
    g, h = akj
    re = a * c - b * d - e * g + f * h
    im = a * d + b * c - e * h - f * g
    if prev is None:
        return re, im
    pr, pi = prev
    nrm = pr * pr + pi * pi
    qr, rr = divmod(re * pr + im * pi, nrm)
    qi, ri = divmod(im * pr - re * pi, nrm)
    if rr or ri:
        raise ArithmeticError("non-exact Gaussian-integer division")
    return qr, qi


def _gi_herm_step(akk, aij, aki, akj, prev):
    """The Bareiss step of the hermitian sweep over Gaussian integers:
    a_ik is conj(aki), and the pivots akk and prev are real (leading
    principal minors of a hermitian matrix), so their imaginary parts are
    not read.  Six products and two divisions by an integer."""
    a = akk[0]
    c, d = aij
    e, f = aki
    g, h = akj
    re = a * c - e * g - f * h
    im = a * d - e * h + f * g
    if prev is None:
        return re, im
    p = prev[0]
    qr, rr = divmod(re, p)
    qi, ri = divmod(im, p)
    if rr or ri:
        raise ArithmeticError("non-exact Gaussian-integer division")
    return qr, qi


def _hermitian_sweep(M):
    """The hermitian sweep of the square Gaussian-integer matrix M, as
    (re, im) pairs, over its upper triangle, in place: (1, [D_1, ..., D_n])
    as _bareiss returns it, or None if M is not hermitian (checked exactly,
    M[j][i] == conj(M[i][j])) or a leading principal minor of size < n
    vanishes."""
    for i, row in enumerate(M):
        for j in range(i, len(M)):
            re, im = row[j]
            if M[j][i] != (re, -im):
                return None
    return _bareiss(M, _gi_herm_step, (0, 0).__eq__, (0, 0), _upper=True)


def _gauss_ints(values) -> tuple:
    """(L, ints): L the lcm of the denominators of the GaussRat values, and
    ints the Gaussian integers L * v as (re, im) pairs, in order."""
    values = list(values)
    L = math.lcm(*(v.d for v in values))
    ints = []
    for v in values:
        s = L // v.d
        ints.append((v.a * s, v.b * s))
    return L, ints


def _scaled_gauss_rows(entries) -> tuple:
    """(order, s, t, rows) of det_point: M = t · S A S, S = diag(s), for
    the square GaussRat matrix A, rows and columns in pivot order.

    With d_ij the denominator of entry (i, j), r the row of least ∏_j d_rj
    and s_i = lcm(d_ir, d_rr), one pass over the pairs sets
    s_i ← lcm(s_i, d_ij / gcd(d_ij, s_j)).  Scales only grow, so afterwards
    d_ij | s_i s_j for every pair, and t = 1.  order lists the input rows
    ascending in s_i (ties by index).  If ∏_k ∏_{i≤k} s_i² (s in pivot
    order) exceeds L^{n(n+1)/2}, L the lcm of every d_ij, then t = L,
    s = 1 and order is the input order.  s is indexed by input row;
    rows[k][l] = t·s_i·s_j·A_ij for i = order[k], j = order[l], as an
    (re, im) pair, and every scaling division is checked to be exact."""
    n = len(entries)
    dens = [[v.d for v in row] for row in entries]
    r = min(range(n), key=lambda i: math.prod(dens[i]))
    s = [math.lcm(row[r], dens[r][r]) for row in dens]
    for i, row in enumerate(dens):
        for j, d in enumerate(row):
            s[i] = math.lcm(s[i], d // math.gcd(d, s[j]))
    order = sorted(range(n), key=s.__getitem__)
    L = math.lcm(*(d for row in dens for d in row))
    minor = swept = 1
    for i in order:
        minor *= s[i] * s[i]
        swept *= minor
    if swept > L ** (n * (n + 1) // 2):
        t, s, order = L, [1] * n, list(range(n))
    else:
        t = 1
    rows = []
    for i in order:
        ti, row, out = t * s[i], entries[i], []
        for j in order:
            v = row[j]
            m, rem = divmod(ti * s[j], v.d)
            if rem:
                raise ArithmeticError(f"scale {ti * s[j]} of entry ({i}, {j}) "
                                      f"is not a multiple of {v.d}")
            out.append((v.a * m, v.b * m))
        rows.append(out)
    return order, s, t, rows


def det_point(entries) -> GaussRat:
    """Exact determinant of a GaussRat matrix A by fraction-free elimination
    of the Gaussian integers M = t · S A S, S = diag(s), then
    det A = det M / (t^n ∏ s_i²).

    Each row i has its own scale s_i, read off the denominators of one
    reference row (see _scaled_gauss_rows), where the uniform scaling
    t = L, s = 1 takes the lcm L of every denominator.  Rows and columns
    are swept together in ascending s, a symmetric permutation, which
    keeps the determinant and the hermitian property and makes the early
    leading minors carry the smallest scales.  The scale bits summed over
    the leading minors are bounded by the uniform scaling's,
    ∏_k ∏_{i≤k} s_i² ≤ L^{n(n+1)/2}; a matrix past that bound (say, every
    denominator 7) is scaled uniformly.

    A hermitian matrix (checked exactly on the scaled integers) takes the
    hermitian sweep over the upper triangle.  Its pivots are leading
    principal minors in pivot order, hence real, so each step divides by
    an integer.  The imaginary part it computes is returned as is, not
    forced to 0.  If a leading principal minor vanishes, or the matrix is
    not hermitian, the general sweep runs on the scaled rows, dividing by
    complex pivots and swapping rows past zero pivots.

    Both sweeps are lazy (see _bareiss), so the cost follows the nonzero
    updates of the sparse Schur complements.  At the seed-1 hermitian
    eighths point of the n = 5 benchmark that is 50 539 steps and 31 682
    lifts instead of 287 980 steps, and about 0.5 s instead of 1.0 s on a
    2-core x86 machine (Python 3.11).

    >>> i = GaussRat.of(0, 1)
    >>> print(det_point([[GaussRat.of(2), i], [i.conj(), GaussRat.of(3)]]))
    5
    """
    n = len(entries)
    if n == 0:
        return GaussRat.of(1)
    _, s, t, rows = _scaled_gauss_rows(entries)
    sign, minors = (_hermitian_sweep([row[:] for row in rows])
                    or _bareiss(rows, _gi_step, (0, 0).__eq__, (0, 0)))
    re, im = minors[-1]
    return GaussRat.from_ints(sign * re, sign * im,
                              t ** n * math.prod(s) ** 2)


def is_inverse(a_rows, b_rows) -> bool:
    """Exact test of A . B == I for square GaussRat matrices, in integers.

    A is scaled to Gaussian integers by the lcm of all its denominators
    (L_A) and each column b_j of B by the lcm of that column's own (L_j);
    then (L_A A)(L_j b_j) must be L_A L_j e_j for every column j.  Each
    row of A meets only the nonzero entries of b_j: an inverse in the
    permutation expansion is zero wherever its coefficient is not
    tree-like.

    >>> h, one = GaussRat.of(1, 2), GaussRat.of(1)
    >>> is_inverse([[h]], [[one / h]]), is_inverse([[h]], [[h.conj()]])
    (True, False)
    """
    n = len(a_rows)
    if len(b_rows) != n or any(len(r) != n for r in (*a_rows, *b_rows)):
        return False
    la, ints = _gauss_ints(v for row in a_rows for v in row)
    rows = [ints[i * n:(i + 1) * n] for i in range(n)]
    for j, col in enumerate(zip(*b_rows)):
        lb, cb = _gauss_ints(col)
        target = la * lb
        nonzero = [(k, br, bi) for k, (br, bi) in enumerate(cb) if br or bi]
        for i, row in enumerate(rows):
            re = im = 0
            for k, br, bi in nonzero:
                ar, ai = row[k]
                re += ar * br - ai * bi
                im += ar * bi + ai * br
            if im or re != (target if i == j else 0):
                return False
    return True


# -- univariate determinants (single-variable slices) ------------------------

# Known primes, ascending: the Mersenne primes 2^e − 1 from e = 61 on, and
# between 2^127 − 1 and 2^521 − 1 the field primes of published MAC and
# elliptic-curve designs (Poly1305, NIST P-192, Curve25519, Curve41417,
# Ed448-Goldilocks and others), so that the modulus need not overshoot the
# bound by hundreds of bits, which every update would pay for.  None is
# tested at run time.
_PRIMES = tuple(sorted(
    [(1 << e) - 1 for e in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281,
                            3217, 4253, 4423, 9689, 9941, 11213, 19937)]
    + [(1 << 130) - 5, (1 << 192) - (1 << 64) - 1, (1 << 221) - 3,
       (1 << 255) - 19, (1 << 336) - 3, (1 << 383) - 187, (1 << 414) - 17,
       (1 << 448) - (1 << 224) - 1, (1 << 511) - 187]))

# Evaluation points eliminated in lockstep by one _sweep.
_BATCH = 16


def _modulus(terms, D) -> int:
    """The smallest prime p of _PRIMES with p > D and p > 2B, B the
    Hadamard bound on the unit circle of the rows terms (entries as
    {exponent: coefficient}): B² = ∏_i Σ_j ‖a_ij‖₁², compared exactly
    through squares.  Every coefficient of det A is at most B in absolute
    value, since it is a Fourier coefficient of det A(q) on |q| = 1, where
    |a_ij(q)| ≤ ‖a_ij‖₁."""
    B2 = math.prod(sum(sum(map(abs, a.values())) ** 2 for a in row)
                   for row in terms)
    for p in _PRIMES:
        if p > D and p * p > 4 * B2:
            return p
    raise OverflowError("determinant coefficients may exceed 2^19936; "
                        "no listed prime bounds them")


def _inverses(xs, p) -> list:
    """The inverses mod p of the nonzero residues xs, by one pow
    (Montgomery's trick, Math. Comp. 48, 1987): invert the product of all,
    then peel the factors off from the last, three products per value."""
    prefix = [1]
    for x in xs:
        prefix.append(prefix[-1] * x % p)
    inv = pow(prefix[-1], -1, p)
    out = [0] * len(xs)
    for m in range(len(xs) - 1, -1, -1):
        out[m] = inv * prefix[m] % p
        inv = inv * xs[m] % p
    return out


def _at_points(terms, xs, p) -> list:
    """The matrices of the rows terms (entries as {exponent: coefficient})
    at each point of xs, mod p, from a table of the powers of those points
    alone.  An empty entry is 0, so an upper triangle evaluates to a square
    matrix with zeros below the diagonal."""
    b = len(xs)
    top = max((max(a) for row in terms for a in row if a), default=0)
    powers = [[1] * b]
    for _ in range(top):
        powers.append([y * x % p for y, x in zip(powers[-1], xs)])
    zero = [0] * b
    vals = []
    for row in terms:
        vals.append([])
        for a in row:
            v = zero
            for e, c in a.items():
                v = [y + c * t for y, t in zip(v, powers[e])]
            vals[-1].append([y % p for y in v] if a else zero)
    return [[[v[m] for v in row] for row in vals] for m in range(b)]


def _sweep(mats, p, upper) -> list:
    """det M mod p for each square matrix M of mats (all of one size,
    entries in 0..p−1), by Gaussian elimination over F_p in lockstep; each
    M is consumed.  One pow per step inverts the pivots of every matrix
    still in the sweep (_inverses).  Updates are not reduced: an entry is
    reduced mod p when its row becomes the pivot row, and the general
    sweep also reduces a_ik when it reads it.

    With upper set every M is symmetric, and only its upper triangle is
    read.  Every Schur complement of a symmetric matrix is symmetric, so
    step k reads a_ik as a_ki and updates a_ij (k < i ≤ j) in place, only
    where a_ki and a_kj are both nonzero: the complements keep most
    structural zeros of the Gram matrices.  A zero pivot cannot be swapped
    away without breaking the symmetry, so a matrix whose pivot vanishes
    leaves the sweep, and its determinant is None.

    Otherwise step k updates each row i > k with a_ik ≠ 0, in place and
    only in the columns where the pivot row is nonzero.  A zero pivot is
    swapped with the first row below it that is nonzero in its column,
    which negates the determinant; if there is none, the determinant is 0
    and the matrix leaves the sweep."""
    n = len(mats[0])
    dets = [1] * len(mats)
    live = range(len(mats))
    for k in range(n):
        for m in live:
            M = mats[m]
            if not M[k][k] % p:
                i = None if upper else next(
                    (i for i in range(k + 1, n) if M[i][k] % p), None)
                if i is None:
                    dets[m] = None if upper else 0
                    continue
                M[k], M[i] = M[i], M[k]
                dets[m] = -dets[m]
            rk = M[k]
            rk[k:] = [a % p for a in rk[k:]]
        live = [m for m in live if dets[m]]
        pivots = [mats[m][k][k] for m in live]
        for m, akk in zip(live, pivots):
            dets[m] = dets[m] * akk % p
        if k == n - 1 or not live:
            break
        for m, inv in zip(live, _inverses(pivots, p)):
            M = mats[m]
            rk = M[k]
            cols = [j for j in range(k + 1, n) if rk[j]]
            if upper:
                for s, i in enumerate(cols):
                    f = rk[i] * inv % p
                    ri = M[i]
                    for j in cols[s:]:
                        ri[j] -= f * rk[j]
            else:
                for ri in M[k + 1:]:
                    aik = ri[k] % p
                    if aik:
                        f = aik * inv % p
                        for j in cols:
                            ri[j] -= f * rk[j]
    return dets


def _scaled(a: dict, c: int, d: int) -> dict:
    """c · q^d · a, for a as {exponent: coefficient}."""
    return {e + d: c * x for e, x in a.items()}


def _symmetrizer(terms):
    """[(c_i, d_i)], integers c_i ≠ 0 and d_i ≥ 0 with
    c_i q^{d_i} a_ij = c_j q^{d_j} a_ji for all i, j, or None if there are
    none; terms[i][j] is a_ij as {exponent: coefficient}.

    Along a spanning forest of the nonzero entries, E_j = E_i a_ij / a_ji
    is read off the lowest terms of a_ij and a_ji; every pair is then
    checked exactly.  The e_i are rational until scaled by the lcm of their
    denominators, and the d_i are shifted to make the least 0."""
    n = len(terms)
    E = [None] * n
    for root in range(n):
        if E[root] is not None:
            continue
        E[root], todo = (Fraction(1), 0), [root]
        while todo:
            i = todo.pop()
            e, d = E[i]
            for j, a in enumerate(terms[i]):
                if a and E[j] is None:
                    b = terms[j][i]
                    if not b:
                        return None
                    ka, kb = min(a), min(b)
                    E[j] = (e * Fraction(a[ka], b[kb]), d + ka - kb)
                    todo.append(j)
    L = math.lcm(*(e.denominator for e, _ in E))
    low = min(d for _, d in E)
    E = [(e.numerator * (L // e.denominator), d - low) for e, d in E]
    for i, (ci, di) in enumerate(E):
        for j in range(i + 1, n):
            cj, dj = E[j]
            if _scaled(terms[i][j], ci, di) != _scaled(terms[j][i], cj, dj):
                return None
    return E


def _grading(terms):
    """(g, r, col): offsets with r[i] + col[j] equal to the lowest exponent
    of each entry on a spanning forest of the nonzero entries of the rows
    terms (entries as {exponent: coefficient}), and g the gcd of
    e − r[i] − col[j] over every exponent e of every entry (i, j).  Any
    divisor of g grades the rows, and g is the largest grading (0 when
    every residue is 0)."""
    n = len(terms)
    r, col = [None] * n, [None] * n
    for root in range(n):
        if r[root] is not None:
            continue
        r[root], todo = 0, [root]
        while todo:
            i = todo.pop()
            for j, a in enumerate(terms[i]):
                if a and col[j] is None:
                    col[j] = min(a) - r[i]
                    for k in range(n):
                        b = terms[k][j]
                        if b and r[k] is None:
                            r[k] = min(b) - col[j]
                            todo.append(k)
    col = [x or 0 for x in col]
    g = 0
    for row, ri in zip(terms, r):
        for a, cj in zip(row, col):
            for e in a:
                g = math.gcd(g, e - ri - cj)
    return g, r, col


def _residues(terms, sym, unit, xs, p, parent=None) -> list:
    """det A(t) mod p at each point t of the run xs, in order, for A the
    rows terms (entries as {exponent: coefficient}).

    With sym, the upper triangle of E·A (see det_univariate), and unit =
    (∏e_i, Σd_i), the points t ≥ 1 take the upper sweep of E(t)·A(t) in
    batches of _BATCH, each determinant divided by ∏E_i(t), and t = 0, a
    point whose pivot vanishes and, once a whole batch has left, every
    later point take the general sweep of A(t).  Without sym every point
    takes the general sweep.  Given the pid parent, a forked child stops
    before its next batch once that process is gone."""
    def batches(points):
        for lo in range(0, len(points), _BATCH):
            if parent is not None and os.getppid() != parent:
                raise ChildProcessError("the parent process is gone")
            yield lo + _BATCH, points[lo:lo + _BATCH]

    c = {}
    general = list(xs)
    if sym is not None:
        scale, degree = unit
        upper = [x for x in xs if x]
        general = [x for x in xs if not x]
        for hi, batch in batches(upper):
            dets = _sweep(_at_points(sym, batch, p), p, True)
            units = _inverses([scale * pow(x, degree, p) % p for x in batch],
                              p)
            for x, d, u in zip(batch, dets, units):
                if d is None:
                    general.append(x)
                else:
                    c[x] = d * u % p
            if dets.count(None) == len(batch):
                # a leading minor vanishes at every point of the batch, so
                # likely everywhere: the rest of the points go general
                general += upper[hi:]
                break
    for _, batch in batches(general):
        for x, d in zip(batch, _sweep(_at_points(terms, batch, p), p, False)):
            c[x] = d
    return [c[x] for x in xs]


def _runs(D, first) -> list:
    """The points 0..D in contiguous runs of whole batches, the batches
    starting at t = first + k·_BATCH, one run per CPU this process may run
    on; the first run also takes the points below first.  One run when the
    process stays single: without os.fork or os.sched_getaffinity, on one
    CPU, with fewer than two batches, or with another thread alive, which
    a fork would not copy."""
    batches = -(-(D + 1 - first) // _BATCH)
    k = 1
    if (batches > 1 and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1):
        k = min(batches, len(os.sched_getaffinity(0)))
    cuts = [first + r * batches // k * _BATCH for r in range(1, k)]
    return [range(a, min(b, D + 1))
            for a, b in zip([0] + cuts, cuts + [D + 1])]


def _forked(runs, work) -> list:
    """work(xs, parent) for each run xs of runs, concatenated in order.

    This process computes the first run, with parent None, and a child
    forked for each other run computes it with parent this pid, sends the
    values back through a pipe as hexadecimal text and ends with os._exit,
    nonzero on any error.  Every child is reaped before this returns or
    raises, and killed first if this process's own run raises.  A child
    that fails raises ChildProcessError, naming its points."""
    parent = os.getpid()
    children, reads, statuses = [], None, []
    try:
        for xs in runs[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if not pid:
                status = 1
                try:
                    os.close(r)
                    with open(w, "w") as f:
                        f.write(" ".join(f"{x:x}" for x in work(xs, parent)))
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, open(r), xs))
        out = work(runs[0], None)
        reads = [f.read().split() for _, f, _ in children]
    finally:
        for pid, f, _ in children:
            f.close()
            if reads is None:
                from signal import SIGKILL     # loaded on this path only
                os.kill(pid, SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for (_, _, xs), got, status in zip(children, reads, statuses):
        if status or len(got) != len(xs):
            raise ChildProcessError(
                f"the determinants at t = {xs.start}..{xs.stop - 1} failed "
                f"in a forked child (wait status {status})")
        out += [int(x, 16) for x in got]
    return out


def det_univariate(rows) -> list:
    """Exact determinant over Z[q] of a square matrix whose entries are
    integer coefficient lists (lowest degree first), by evaluation and
    interpolation.

    The entries are read once into {exponent: coefficient} dicts.  Rows
    graded by g ≥ 2 (every exponent of entry (i, j) ≡ r_i + c_j mod g, as
    in the slices of the Gram and Varchenko matrices, where g = 2 and the
    degree of entry (σ, τ) is ℓ(σ⁻¹τ) ≡ ℓ(σ) + ℓ(τ)) are shifted by q^{s_i}
    on row i and q^{t_j} on column j, so that every exponent is a multiple
    of g, and solved in t = q^g with about D/g points; at the end the
    result is divided back by q^{Σs + Σt}, and the dropped low
    coefficients are checked to be 0.

    The lowest power of t is then divided out of each row, then out of
    each column, and multiplied back into the result; a zero row gives 0.
    On the stripped matrix D = min(Σ_i max_j deg a_ij, Σ_j max_i deg a_ij)
    bounds the degree, and B, the Hadamard bound on the unit circle with
    B² = Π_i Σ_j ‖a_ij‖₁², every coefficient's absolute value (at most
    H = Π_i Σ_j ‖a_ij‖₁, and 14–32 bits below it on the n = 4 slices of
    the benchmark at seeds 1–10).  The prime p is the least entry of
    _PRIMES, the Mersenne primes from 2^61 − 1 and the field primes of
    published standards between 2^127 and 2^521, with p > D and p² > 4B²,
    compared exactly.  The determinant is taken by Gaussian elimination
    over F_p at each of t = 0..D, interpolated, and lifted to the
    symmetric range, so the result is exact: it is still elimination,
    independent of any factored formula.

    Every point is eliminated by _sweep, in batches of _BATCH (16)
    matrices evaluated from the entries' terms over a table of the batch's
    powers.  Most matrices met here are symmetrizable: E·A is symmetric
    for some E = diag(e_i t^{d_i}), integers e_i ≠ 0 and d_i ≥ 0, found
    once by exact comparison of a_ij and a_ji.  The Varchenko slices are
    symmetric (E = I); a Gram slice q_ij = c_ij q takes e_σ a ratio of
    slope products.  The points t = x ≥ 1 then take the sweep over the
    upper triangle of E(x)·A(x), and each determinant is divided by
    ∏ E_i(x), a unit mod p: every prime factor of e_i divides a nonzero
    coefficient, whose absolute value is below p, and 1 ≤ x ≤ D < p.  The
    general sweep, with row swaps, takes A(x) at every other point: t = 0
    (where E may vanish), a point whose pivot vanishes in the upper sweep,
    and every point of a matrix with no symmetrizer.  If every point of a
    batch leaves the upper sweep, a leading minor vanishes identically,
    most likely, and the rest of the points of its run go straight to the
    general sweep (_residues).

    _runs splits the points into contiguous runs of whole batches, one per
    CPU in os.sched_getaffinity, and _forked eliminates the first run in
    this process and each other one in a forked child; every residue, and
    so the result, is the same however the points are split.  On the
    n = 4 Gram and Varchenko slices the valuations take D from 84 to 72 in
    t, all 72 points t ≥ 1 of each slice take the upper sweep modulo a
    336- or 383-bit prime, and each makes about 880 of the 2 300 updates
    of a dense sweep.  On a 2-core x86 machine (Python 3.11) this process
    takes t = 0..32 and one child t = 33..72, and a slice takes about
    0.025 s, against 0.036 s in one process.

    >>> det_univariate([[[1], [0, 1]], [[0, 1], [1]]])   # 1 - q^2
    [1, 0, -1]
    """
    if not rows:
        return [1]
    terms = [[{e: c for e, c in enumerate(a) if c} for a in row]
             for row in rows]
    g, r, col = _grading(terms)
    g = max(g, 1)
    s = [-x % g for x in r]
    t = [-x % g for x in col]
    for row, si in zip(terms, s):
        row[:] = [{(e + si + tj) // g: c for e, c in a.items()}
                  for a, tj in zip(row, t)]
    # divide out the lowest power of t in each row, then in each column
    # (the rows of the transpose), and count it in low
    low = 0
    for _ in range(2):
        for row in terms:
            v = min((min(a) for a in row if a), default=0)
            if v:
                row[:] = [{e - v: c for e, c in a.items()} for a in row]
                low += v
        terms = [list(column) for column in zip(*terms)]
    if not all(map(any, terms)):
        # a zero row: det A = 0.  Only without one does B below bound
        # every coefficient of every entry, which makes ∏ E_i(x) a unit
        return [0]
    degs = [[max(a, default=0) for a in row] for row in terms]
    D = min(sum(map(max, degs)), sum(map(max, zip(*degs))))
    p = _modulus(terms, D)
    E = _symmetrizer(terms)
    sym = unit = None
    if E is not None:
        # E·A is symmetric: its upper triangle, and det A = det(E·A) / ∏E_i
        sym = [[{}] * i + [_scaled(a, ci, di) for a in row[i:]]
               for i, (row, (ci, di)) in enumerate(zip(terms, E))]
        unit = math.prod(ci for ci, _ in E), sum(di for _, di in E)
    c = _forked(_runs(D, 0 if E is None else 1),
                lambda xs, parent: _residues(terms, sym, unit, xs, p, parent))
    # Newton divided differences on the equally spaced points 0..D:
    # f[0..j] = Δʲf(0) / j!, so the forward differences are taken by
    # subtraction alone, unreduced (|Δʲ| < 2ʲp), and c[j] is scaled once
    # by (j!)⁻¹ mod p
    for j in range(1, D + 1):
        c[j:] = [a - b for a, b in zip(c[j:], c[j - 1:])]
    inv_fact = 1
    for j, inv in enumerate(_inverses(range(1, D + 1), p), 1):
        inv_fact = inv_fact * inv % p
        c[j] = c[j] * inv_fact % p
    # c[0] + t(c[1] + (t − 1)(c[2] + ...)) in the monomial basis
    out = [c[D]]
    for j in range(D - 1, -1, -1):
        out = [(a - j * b) % p for a, b in zip([0] + out, out + [0])]
        out[0] = (out[0] + c[j]) % p
    half = p >> 1
    out = [x - p if x > half else x for x in out]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    if not any(out):
        return [0]
    # back from t = q^g, times t^low, to q, divided by q^{Σs + Σt}
    d = [0] * (g * (low + len(out) - 1) + 1)
    d[g * low::g] = out
    shift = sum(s) + sum(t)
    if any(d[:shift]):
        raise ArithmeticError("graded determinant is not divisible by "
                              f"q^{shift}")
    return d[shift:]


def poly_to_univariate(p: Poly, slope) -> list:
    """Slice a multiparameter polynomial along q_{ij} = slope(i,j)·q:
    returns integer coefficient lists in the single variable q."""
    return p.on_line(lambda v: slope(v[1], v[2]) if v[0] == "q" else 1)


# ---------------------------------------------------------------------------
# positivity and divisibility
# ---------------------------------------------------------------------------

def _positive_definite(entries) -> bool:
    """Whether the square GaussRat matrix A is positive definite, exactly.

    M = t · S A S in pivot order (see _scaled_gauss_rows) is congruent to A
    by a positive diagonal matrix and a symmetric permutation, so one is
    positive definite when the other is.  By Sylvester's criterion that
    holds when every leading principal minor of M is positive, and the
    hermitian sweep of det_point computes them all; it stops at the first
    zero one.  A matrix that is not hermitian is not positive definite."""
    res = _hermitian_sweep(_scaled_gauss_rows(entries)[3])
    return res is not None and all(re > 0 for re, _ in res[1])


def positivity_check(nu: Weight, assignment) -> bool:
    """Whether the Gram matrix is positive definite under a hermitian
    assignment with every |q_{ij}| < 1, decided exactly by Sylvester's
    criterion on the leading minors of det_point's hermitian sweep.

    Its callers stay at 4 letters (24 words), where a check takes
    milliseconds; at 120 words (n = 5) the sweep's integers grow and it
    takes 0.8–0.9 s at points with entries in sixteenths (seeds 1–3, on a
    2-core x86 machine, Python 3.11)."""
    point = Point(assignment, "hermitian")
    for v, val in assignment.items():
        if v[0] == "q" and val.abs2() >= 1:
            raise ValueError(f"|q| < 1 violated at {v}: |q|^2 = {val.abs2()}")
    return _positive_definite(build_degenerate(nu).map_distinct(point.value))


class Divisibility(namedtuple("Divisibility", "divides certified")):
    """The verdict of det_divides, truthy when it divides.

    certified says whether the verdict is proved.  It is False only for a
    dividing slice at |ν| ≥ 4: one slice that divides is evidence, not
    proof, while a slice that does not divide proves non-divisibility."""

    __slots__ = ()

    def __bool__(self):
        return self.divides


def det_divides(nu: Weight, seed: int = 0) -> Divisibility:
    """Does det A^(ν) divide the determinant of its generic model?

    Certified for |ν| ≤ 3 (full elimination and exact division) and for a
    generic ν (the two matrices are equal).  For |ν| ≥ 4 both determinants
    are computed by det_univariate on one seeded single-variable slice
    q_{ij} = c_{ij}·q with small integer slopes: a slice that does not
    divide certifies "no", and a slice that divides is evidence for "yes"
    (certified=False)."""
    if nu.generic:
        return Divisibility(True, True)
    emb = embed_degenerate(nu)
    mapped = pair_rule(emb.generic_weight, emb.var).entries
    A = build_degenerate(nu)
    if nu.size <= 3:
        det_t = det_poly_bareiss(mapped)
        det_a = det_poly_bareiss(A.entries)
        return Divisibility(det_a.divides(det_t), True)
    rng = random.Random(seed)
    slopes = {(i, j): rng.randint(2, 9) for i in nu.labels for j in nu.labels}
    slope = lambda i, j: slopes[(i, j)]
    tu = [[poly_to_univariate(e, slope) for e in row] for row in mapped]
    au = [[poly_to_univariate(e, slope) for e in row] for row in A.entries]
    det_t, det_a = (Poly({((SINGLE_Q, e),) if e else (): c
                          for e, c in enumerate(d)})
                    for d in (det_univariate(tu), det_univariate(au)))
    # A(0) = I, so det_a has constant term 1 and is primitive; by Gauss's
    # lemma exact division over Z[q] decides divisibility over Q[q].
    if det_a.divides(det_t):
        return Divisibility(True, False)
    return Divisibility(False, True)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
