"""
Inversion of the word-basis Gram matrices, in the permutation expansion.

The inverse of the Gram matrix of a multiplicity-free weight is carried as

    [A]^{-1} = sum_g  Lambda(g) . Rhat(g) = sum_g  x_g . R(g),
    x_g = Lambda(g) . Q(g),

with diagonal coefficients Lambda(g) whose entries are box fractions, and
Q(g) the monomial of Rhat(g).  Every operator here commutes with renaming
letters, so x_g at a word w is its value at the identity word e with the
letters renamed e_p -> w_p, and the table keeps that one value per
permutation.  The operator methods build x_g directly, multiplying in the
twisted group algebra (``gram.GenericOp``), where

    (XY)_g = sum_{g1 g2 = g} x_{g1} . g1(y_{g2}),  g1 renaming e_p -> e_{g1(p)}.

Five independent routes produce the same table:

* ``fast``   -- the two-step Young-factor reversal recursion.  The
  closed-form product (global sign, Q-factors on the odd reversal levels)
  is asserted against it only where ``lambda_scalar`` runs with its
  default ``check_closed``: ``zagier_check`` of one coefficient
  (``zagier-check --coeff``), the symbolic-det benchmark workload and the
  tests; ``inv_full`` and ``inverse_matrix_at`` skip it;
* ``long``   -- inclusion-exclusion over all interval subdivisions;
* ``short``  -- the leading-block recursion (n-1 terms per interval);
* ``chains`` -- the signed sum of Psi-products over subdivision chains;
* ``zagier`` -- the multiplicative elimination form C^n [D^{n-1}]^{-1} ...
  C^2 [D^1]^{-1} with each D-factor inverted by its descent-set expansion.

Lambda(g) vanishes exactly when the block-reversal sequence of g (reverse all
minimal Young factors, repeat) never reaches the identity; permutations where
it does are called tree-like here.

>>> print(lambda_scalar((1, 2), Perm((2, 1)))) # doctest: +NORMALIZE_WHITESPACE
-1 / Box{1,2}
"""

from __future__ import annotations

__all__ = [
    "LambdaTable", "Universe",
    "lambda_sigma", "lambda_scalar", "lambda_id",
    "tree_like", "random_tree_like",
    "psi_op", "e_op", "d_inverse_op", "c_unimodal_op",
    "inv_chains", "inv_long", "inv_short", "inv_zagier", "inv_full",
    "inv_brute", "inv_degenerate", "inverse_matrix_at",
    "ZagierReport", "zagier_check",
]

import itertools
from functools import lru_cache

from .ring import Poly, GaussRat, Point, Renaming, pair_var
from .boxes import (BoxFactor, BoxFraction, as_part, sum_parts, _den_minus,
                    _raw)
from .fock import Word, Weight
from .perms import (Perm, all_perms, longest_element, reversal_record,
                    children, thickened, unimodal_subset)
from .subdiv import enumerate_bracketings, enumerate_chains, _compositions
from .gram import (Basis, GramMatrix, GenericOp, q_of_perm, q_set,
                   build_generic, embed_degenerate)


# ---------------------------------------------------------------------------
# scalar universes: where the Lambda recursion computes
# ---------------------------------------------------------------------------

class Universe:
    """Arithmetic context and memos of one Lambda computation.

    Symbolic (box fractions over the pair parameters, or over the single
    parameter) or numeric (exact Gaussian-rational values at a
    ``ring.Point``).  The recursion itself is written once against this
    interface.

    Each public entry point builds one universe per call and threads it
    through the recursion, so its Lambda and sigma memos, and the point of
    a numeric universe with the values it caches, live exactly as long as
    that call; no two calls share them.  The memos key a word by its
    letters, or in one-parameter mode by its length, on which
    one-parameter values depend.  The Lambda memo holds only the values
    the recursion reads again, at shorter words.  A numeric universe looks
    a box up as called, by letters and positions; a miss builds the
    ``BoxFactor`` and reads its values from the point.
    """

    __slots__ = ("one_param", "point", "sigma_memo", "lambda_memo",
                 "_box_calls")

    def __init__(self, one_param: bool = False, point: Point | None = None):
        self.one_param = one_param
        self.point = point
        self.sigma_memo, self.lambda_memo = {}, {}
        self._box_calls = {}   # (letters, positions) -> point.box values

    def key(self, letters: tuple):
        return len(letters) if self.one_param else letters

    def const(self, c: int):
        if self.point is None:
            return BoxFraction(Poly.const(c))
        return GaussRat.of(c)

    def q_block(self, letters: tuple, positions):
        """The monomial Q_T at the word, T the positions (``gram.q_set``)."""
        if self.point is None:
            return BoxFraction(q_set(letters, positions, self.one_param))
        if len(positions) < 2:
            return GaussRat.of(1)
        # the same monomial as the q-part of the box over these positions
        return self._box_values(letters, positions)[0]

    def box_sum(self, letters: tuple, terms):
        """Sum of sign / prod_T Box_T over (sign, [T, ...]) terms, each T
        a range of 1-based positions of the letter tuple.

        Symbolically this is one ``boxes.sum_parts``: the terms summed
        over their common denominator and reduced once, in either mode (a
        unique form for a generic multiparameter word, one of the forms of
        the value in one-parameter mode).  Numerically it is one
        ``GaussRat.sum_of_products`` of the cached inverse box values,
        reduced once.
        """
        if self.point is None:
            return sum_parts([
                (Poly.const(sign),
                 tuple(BoxFactor(letters, T, self.one_param) for T in Ts))
                for sign, Ts in terms])
        return GaussRat.sum_of_products(
            (sign, [self._box_values(letters, T)[1] for T in Ts])
            for sign, Ts in terms)

    def product(self, sign: int, factors):
        """sign times the product of the factors.  Symbolically the factors
        multiply in order from the constant; numerically the product runs
        on unreduced triples and is reduced once
        (``GaussRat.sum_of_products``)."""
        if self.point is None:
            val = self.const(sign)
            for x in factors:
                val = val * x
            return val
        return GaussRat.sum_of_products([(sign, factors)])

    def mono(self, letters, pairs) -> GaussRat:
        """q_mono(letters, pairs) at the point of a numeric universe: the
        product of the point's pair values, with no Poly built, reduced
        once."""
        var = self.point.var
        return GaussRat.sum_of_products(
            [(1, [var(pair_var(letters[i - 1], letters[j - 1]))
                  for i, j in pairs])])

    def _box_values(self, letters: tuple, positions) -> tuple:
        # every caller passes a range, which hashes by value
        vals = self._box_calls.get((letters, positions))
        if vals is None:
            vals = self._box_calls[(letters, positions)] = self.point.box(
                BoxFactor(letters, positions, self.one_param))
        return vals


def _restrict(g: Perm, a: int, b: int) -> Perm:
    """g confined to an invariant interval [a..b], renumbered to S_{b-a+1}."""
    return Perm(g(x) - (a - 1) for x in range(a, b + 1))


# ---------------------------------------------------------------------------
# the Lambda recursion
# ---------------------------------------------------------------------------


def lambda_sigma(letters, blocks, one_param: bool = False):
    """Thickened identity coefficient of a subdivision of the positions.

    ``blocks`` is a tuple of intervals (a, b) partitioning 1..len(letters);
    the value is the identity coefficient of the inverse for a word of
    len(blocks) letters, with every box over a bracket [a..b] replaced by the
    box over the union of blocks a..b:

        sum over bracketings beta of 1..l with outer brackets of
        (-1)^(b(beta)+l-1) / prod_{[a..b] in beta} Box(J_a u ... u J_b)

    A single block gives 1.

    >>> print(lambda_sigma((1, 2, 3), ((1, 1), (2, 2), (3, 3))))
    (1 - q12*q21*q23*q32) / Box{1,2} Box{1,2,3} Box{2,3}
    """
    return _sigma(tuple(letters), tuple(blocks), Universe(one_param))


def _sigma(letters: tuple, blocks: tuple, u: Universe):
    """lambda_sigma computed in u, through its sigma memo."""
    key = (u.key(letters), blocks)
    cached = u.sigma_memo.get(key)
    if cached is not None:
        return cached
    l = len(blocks)
    if l == 1:
        val = u.const(1)
    else:
        val = u.box_sum(letters, [
            (1 if (len(beta) + l - 1) % 2 == 0 else -1,
             [range(blocks[a - 1][0], blocks[b - 1][1] + 1) for a, b in beta])
            for beta in enumerate_bracketings(l, True)])
    u.sigma_memo[key] = val
    return val


def _singletons(m: int) -> tuple:
    return tuple((k, k) for k in range(1, m + 1))


def tree_like(g: Perm) -> bool:
    """Whether the block-reversal sequence of g reaches the identity."""
    return reversal_record(g) is not None


def lambda_scalar(letters, g: Perm, one_param: bool = False,
                  check_closed: bool = True):
    """The inverse coefficient Lambda(g) for a single word (given by its
    letter tuple); the workhorse behind every per-permutation method.

    Computed by the literal two-step reversal recursion; when
    ``check_closed`` is set, the closed-form product over the whole reversal
    sequence is evaluated independently and asserted equal.
    """
    letters = tuple(letters)
    if g.n != len(letters):
        raise ValueError(f"permutation degree {g.n} != word length "
                         f"{len(letters)}")
    return _lambda(letters, g, Universe(one_param), check_closed)


def _scalar(letters: tuple, g: Perm, u: Universe):
    """Lambda(g) at a sub-word, computed in u, through its Lambda memo."""
    key = (u.key(letters), g)
    val = u.lambda_memo.get(key)
    if val is None:
        val = u.lambda_memo[key] = _lambda(letters, g, u, False)
    return val


def _lambda(letters: tuple, g: Perm, u: Universe, check_closed: bool):
    """Lambda(g) at the word with these letters, computed in u but not
    kept in its Lambda memo."""
    if g.is_identity():
        return _sigma(letters, _singletons(len(letters)), u)
    plan = _step_plan(g)
    if plan is None:
        return u.const(0)
    val = _fast_step(letters, plan, u)
    if check_closed:
        closed = _closed_form(letters, g, u)
        assert val == closed, (
            f"closed-form product disagrees with the recursion at {g}")
    return val


@lru_cache(maxsize=1024)   # holds all 873 permutations of degree <= 6
def _step_plan(g: Perm):
    """What _fast_step needs of a g other than the identity, for every
    word, from its reversal record: (sign, blocks, subs, q_ranges,
    restricted), or None when g is not tree-like and Lambda(g) = 0.
    blocks are J(g); subs are their ``children`` in sigma(g'); q_ranges
    are the ranges of the blocks of sigma(g') with more than one
    position; restricted pairs each such block (a, b) with g'' confined
    to it (``_restrict``); an identity g' has none."""
    levels = reversal_record(g)
    if levels is None:
        return None
    (_, blocks), (_, blocks_p) = levels[:2]
    sign = 1 if (len(blocks) + len(blocks_p)) % 2 == 0 else -1
    subs = tuple(children(blocks, blocks_p))
    q_ranges = tuple(range(a, b + 1) for a, b in blocks_p if b > a)
    restricted = tuple(((a, b), _restrict(levels[2][0], a, b))
                       for a, b in blocks_p if b > a)
    return sign, blocks, subs, q_ranges, restricted


def _fast_step(letters: tuple, plan: tuple, u: Universe):
    """One application of the combined two-step recursion, for the g of
    ``plan = _step_plan(g)``:

    Lambda(g) = (-1)^(n(g)+n(g')) . Lambda_{sigma(g)}
                . prod_k Lambda_{sigma(g'|J_k(g))}
                . Q_{sigma(g')} . prod_K Lambda_K(g''|K)

    with g' = g w_{J(g)} (reverse all minimal Young blocks), g'' = g' w_{J(g')},
    and K running over the blocks of sigma(g').
    """
    sign, blocks, subs, q_ranges, restricted = plan
    factors = [_sigma(letters, blocks, u)]
    factors += [_sigma(letters[a - 1:b], sub, u) for (a, b), sub in subs]
    factors += [u.q_block(letters, positions) for positions in q_ranges]
    factors += [_scalar(letters[a - 1:b], h, u) for (a, b), h in restricted]
    return u.product(sign, factors)


def _closed_form(letters: tuple, g: Perm, u: Universe):
    """The full reversal-sequence product for a tree-like permutation:
    global sign from the total excess of block sizes over block counts,
    relative thickened factors at every level (``perms.thickened``),
    Q-monomials on odd levels."""
    levels = reversal_record(g)
    subs = [blocks for _, blocks in levels]
    exponent = sum(b - a for blocks in subs for a, b in blocks)
    factors = [_sigma(letters[a - 1:b], sub, u)
               for (a, b), sub in thickened(levels)]
    for blocks in subs[1::2]:
        factors += [u.q_block(letters, range(a, b + 1))
                    for a, b in blocks if b > a]
    return u.product(1 if exponent % 2 == 0 else -1, factors)


def random_tree_like(n: int, rng) -> Perm:
    """Rejection-sample a tree-like permutation of S_n."""
    while True:
        img = list(range(1, n + 1))
        rng.shuffle(img)
        g = Perm(img)
        if tree_like(g):
            return g


def lambda_id(letters, one_param: bool = False) -> BoxFraction:
    """The identity coefficient of the inverse at the word with these
    letters, as (1/Box_full) . sum over bracketings without outer brackets
    of (Q_T of each bracket T)/(box of each bracket).

    This is summed independently of ``lambda_sigma`` of the singletons,
    which gives the same value as the signed sum of 1/box-products over
    the bracketings with outer brackets.
    """
    letters = tuple(letters)
    n = len(letters)
    if n == 1:
        return BoxFraction.one()
    outer = BoxFactor(letters, range(1, n + 1), one_param)
    parts = []
    for beta in enumerate_bracketings(n, False):
        num = Poly.one()
        den = [outer]
        for a, b in beta:
            T = range(a, b + 1)
            num = num * q_set(letters, T, one_param)
            den.append(BoxFactor(letters, T, one_param))
        parts.append((num, tuple(den)))
    return sum_parts(parts)


# ---------------------------------------------------------------------------
# the inverse table
# ---------------------------------------------------------------------------

def _coefficient(lam: BoxFraction, e, g: Perm, one_param: bool
                 ) -> BoxFraction:
    """x_g = Lambda(g) Q(g) at the identity word e, Q(g) the monomial of
    Rhat(g): the coefficient of the place permutation R(g).  Not reduced
    again: Lambda(g) is reduced, and a box, with constant term 1 and
    content 1, shares no factor with a monomial, so no box divides the
    product (see boxes._reduce)."""
    return _raw(lam.num * q_of_perm(e, g.inverse(), one_param), lam.den)


class LambdaTable:
    """[A]^{-1} = sum_g Lambda(g) Rhat(g) = sum_g x_g R(g): nonzero
    coefficients only, one value per permutation.

    ``coefficients[g]`` is x_g = Lambda(g) Q(g) at the identity word e,
    the first word of the basis, as the method gives it: a Poly or a
    BoxFraction, as on ``gram.GenericOp``.  At a word w it is that value
    renamed e_p -> w_p (``Basis.renaming``), the entry (w, g^-1.w) of the
    dense inverse.  A table is over a generic weight (``inv_full`` takes no
    other), so distinct g reach distinct words, and no entry is a sum.
    ``row`` is the one place this is done; ``to_matrix`` is built from its
    rows and ``evaluate`` is ``GramMatrix.evaluate`` of ``to_matrix``.
    ``value_at`` and ``diagonals`` give Lambda(g) itself, with Q(g)
    divided out once per g.
    """

    __slots__ = ("basis", "one_param", "coefficients")

    def __init__(self, basis: Basis, one_param: bool, coefficients: dict):
        self.basis = basis
        self.one_param = one_param
        self.coefficients = coefficients

    def _lambda_at_e(self, g: Perm) -> BoxFraction:
        """Lambda(g) at the identity word: x_g divided exactly by the
        monomial Q(g), which leaves a reduced fraction reduced."""
        num, den = as_part(self.coefficients[g])
        mono = q_of_perm(self.basis.words[0], g.inverse(), self.one_param)
        return _raw(num.exact_div(mono), den)

    def value_at(self, g: Perm, w) -> BoxFraction:
        """Lambda(g) at the word w; zero off the support."""
        if g not in self.coefficients:
            return BoxFraction.zero()
        return self._lambda_at_e(g).renamed(self.basis.renaming(w))

    def diagonals(self):
        """(g, [Lambda(g) at each word of the basis]) over the support, in
        ``support`` order: one renaming per word, built once."""
        renamings = [self.basis.renaming(w) for w in self.basis.words]
        for g in self.support():
            x = self._lambda_at_e(g)
            yield g, [x.renamed(r) for r in renamings]

    def support(self):
        return sorted(self.coefficients, key=lambda g: g.images)

    def row(self, w) -> dict:
        """Row w of ``to_matrix()``, computed alone, as a dict from word to
        entry over the words some coefficient reaches; the others are 0.
        The entry of g, at column g^-1.w, is x_g renamed e_p -> w_p."""
        r = self.basis.renaming(w)
        return {Word(w[k - 1] for k in g.images): x.renamed(r)
                for g, x in self.coefficients.items()}

    def to_matrix(self) -> GramMatrix:
        words = self.basis.words
        zero = Poly.zero()
        rows = [self.row(w) for w in words]
        return GramMatrix(self.basis,
                          [[r.get(v, zero) for v in words] for r in rows])

    def evaluate(self, assignment, mode: str = "free") -> list:
        """Dense inverse at an exact evaluation point (GaussRat entries)."""
        return self.to_matrix().evaluate(assignment, mode)

    def inverts_gram(self) -> bool:
        """Whether the table times the Gram matrix is the identity, in the
        twisted group algebra (``gram.GenericOp``).

        The Gram matrix is A = sum_g Rhat(g), whose value at the identity
        word is the monomial Q(g).  Coefficient g of [A]^{-1} A is
        sum_{g1 g2 = g} x_{g1} . g1(Q(g2)), and g1(Q(g2)) is an entry of
        A: only monomials are renamed, never a coefficient.  Over a field a
        one-sided inverse of a square matrix is two-sided, so this
        certifies the table as the inverse.  It runs on the product kernel
        the operator methods build their tables with, so it is not
        independent of that kernel; ``GramMatrix.matmul`` of
        ``to_matrix()`` is.
        """
        basis = self.basis
        e = basis.words[0]
        gram = GenericOp(basis, {g: q_of_perm(e, g.inverse(), self.one_param)
                                 for g in all_perms(basis.n)})
        return (GenericOp(basis, self.coefficients) * gram
                == GenericOp.identity(basis))

    def __eq__(self, o):
        return (isinstance(o, LambdaTable) and self.basis == o.basis
                and self.coefficients == o.coefficients)

    def to_json(self):
        words = [str(w) for w in self.basis.words]
        return {str(g): dict(zip(words, map(str, values)))
                for g, values in self.diagonals()}


# ---------------------------------------------------------------------------
# operator-product methods
# ---------------------------------------------------------------------------

def psi_op(basis: Basis, a: int, b: int, one_param: bool = False
           ) -> GenericOp:
    """Psi_[a..b] = [I + (-1)^(b-a+1) Rhat(w_[a..b])]^{-1}
                  = (1/Box_[a..b]) [I - (-1)^(b-a+1) Rhat(w_[a..b])]."""
    wI = longest_element(a, b, basis.n)
    op = GenericOp.identity(basis) - GenericOp.rhat(
        wI, basis, one_param).scale((-1) ** (b - a + 1))
    box = BoxFactor(basis.words[0], range(a, b + 1), one_param)
    return op.left_diag(BoxFraction(Poly.one(), (box,)))


def inv_chains(nu: Weight, one_param: bool = False) -> GenericOp:
    """Signed sum of Psi-products over all subdivision chains (finest member
    leftmost in each product)."""
    basis = Basis.of_weight(nu)
    n = basis.n
    if n == 1:
        return GenericOp.identity(basis)
    terms = []
    for chain in enumerate_chains(n):
        op = GenericOp.identity(basis)
        for sub in reversed(chain.members):
            for a, b in sub.nontrivial():
                op = op * psi_op(basis, a, b, one_param)
        sign = (-1) ** (chain.nondegenerate_count() + n - 1)
        terms.append(op.scale(sign))
    return GenericOp.sum(basis, terms)


def inv_long(nu: Weight, one_param: bool = False) -> GenericOp:
    """Interval recursion: the inverse over [a..b] is the signed sum over
    proper subdivisions of products of sub-interval inverses, times
    Psi_[a..b]."""
    basis = Basis.of_weight(nu)
    memo: dict = {}

    def interval(a: int, b: int) -> GenericOp:
        if a == b:
            return GenericOp.identity(basis)
        if (a, b) in memo:
            return memo[(a, b)]
        terms = []
        for pieces in _compositions(a, b):
            if len(pieces) == 1:
                continue
            term = GenericOp.identity(basis)
            for x, y in pieces:
                term = term * interval(x, y)
            terms.append(term.scale((-1) ** len(pieces)))
        res = GenericOp.sum(basis, terms) * psi_op(basis, a, b, one_param)
        memo[(a, b)] = res
        return res

    return interval(1, basis.n)


def inv_short(nu: Weight, one_param: bool = False) -> GenericOp:
    """Leading-block recursion: inverse over [a..b] as the alternating sum
    over the first cut k of (inverse over [a..k]) (inverse over [k+1..b])
    Rhat(w_[a..k]), times Psi_[a..b]."""
    basis = Basis.of_weight(nu)
    memo: dict = {}

    def interval(a: int, b: int) -> GenericOp:
        if a == b:
            return GenericOp.identity(basis)
        if (a, b) in memo:
            return memo[(a, b)]
        terms = []
        for k in range(a, b):
            term = interval(a, k) * interval(k + 1, b)
            if k > a:
                term = term * GenericOp.rhat(longest_element(a, k, basis.n),
                                             basis, one_param)
            terms.append(term.scale((-1) ** (k - a)))
        res = GenericOp.sum(basis, terms) * psi_op(basis, a, b, one_param)
        memo[(a, b)] = res
        return res

    return interval(1, basis.n)


def e_op(basis: Basis, m: int, one_param: bool = False) -> GenericOp:
    """E^m = sum over pi in S_m x 1^(n-m) of W_m(pi) Rhat(pi), with
    W_m(pi) = prod over descents i of pi^-1 of Q_[i+1..m+1]."""
    e = basis.words[0]
    fixed = tuple(range(m + 1, basis.n + 1))
    total = GenericOp(basis)
    for images in itertools.permutations(range(1, m + 1)):
        pi = Perm(images + fixed)
        W = Poly.one()
        for i in sorted(pi.inverse().descents()):
            W = W * q_set(e, range(i + 1, m + 2), one_param)
        total = total + GenericOp.rhat(pi, basis, one_param).left_diag(W)
    return total


def d_inverse_op(basis: Basis, m: int, one_param: bool = False
                 ) -> GenericOp:
    """[D^m]^{-1} = [Delta^m]^{-1} E^m with
    Delta^m = Box_[1..m+1] Box_[2..m+1] ... Box_[m..m+1]."""
    e = tuple(basis.words[0])
    den = tuple(BoxFactor(e, range(k, m + 2), one_param)
                for k in range(1, m + 1))
    return e_op(basis, m, one_param).left_diag(BoxFraction(Poly.one(), den))


def c_unimodal_op(basis: Basis, m: int, one_param: bool = False
                  ) -> GenericOp:
    """C^m as the signed sum of Rhat(pi^-1) over unimodal pi (peak at k)."""
    total = GenericOp(basis)
    for k in range(1, m + 1):
        for pi in unimodal_subset(m, k, basis.n):
            total = total + GenericOp.rhat(pi.inverse(), basis,
                                           one_param).scale((-1) ** (m - k))
    return total


def inv_zagier(nu: Weight, one_param: bool = False) -> GenericOp:
    """[A]^{-1} = C^n [D^{n-1}]^{-1} C^{n-1} [D^{n-2}]^{-1} ... C^2 [D^1]^{-1}.

    The product is associated from the right: starting from the identity,
    op = C^m ([D^{m-1}]^{-1} op) for m = 2..n.  C^m and [D^{m-1}]^{-1} are
    supported on S_m x 1^(n-m), so after step m the partial product is
    too, and every composition but the last pairs permutations of S_m
    alone.  Associated from the left, every product after the first has an
    operand spread over all of S_n.
    """
    basis = Basis.of_weight(nu)
    op = GenericOp.identity(basis)
    for m in range(2, basis.n + 1):
        op = c_unimodal_op(basis, m, one_param) * (
            d_inverse_op(basis, m - 1, one_param) * op)
    return op


def inv_brute(nu: Weight, one_param: bool = False) -> GramMatrix:
    """Cofactor inverse of the generic Gram matrix, denominators factored
    through the closed-form determinant (n <= 3: the cofactors are dense
    symbolic determinants)."""
    from .determinant import det_formula, det_poly_bareiss
    if nu.size > 3:
        raise ValueError("cofactor inversion is exponential; use another "
                         "method beyond 3 letters")
    A = build_generic(nu, one_param)
    size = A.basis.size
    det_boxes = []
    for letters, exp in det_formula(nu).factors:
        word = tuple(sorted(letters))
        det_boxes.extend(
            [BoxFactor(word, range(1, len(word) + 1), one_param)] * exp)
    ent = []
    for i in range(size):
        row = []
        for j in range(size):
            minor = [[A.entries[r][c] for c in range(size) if c != i]
                     for r in range(size) if r != j]
            cof = det_poly_bareiss(minor) if minor else Poly.one()
            if (i + j) % 2:
                cof = -cof
            row.append(BoxFraction(cof, tuple(det_boxes)))
        ent.append(row)
    return GramMatrix(A.basis, ent)


_METHODS = {
    "chains": inv_chains,
    "long": inv_long,
    "short": inv_short,
    "zagier": inv_zagier,
}


def inv_full(nu: Weight, method: str = "fast",
             one_param: bool = False) -> LambdaTable:
    """The full inverse table of a multiplicity-free weight by any method."""
    if not nu.generic:
        raise ValueError("weight has repeated letters; use inv_degenerate")
    if method == "fast":
        basis = Basis.of_weight(nu)
        u = Universe(one_param)
        e = tuple(basis.words[0])
        coefficients = {}
        for g in all_perms(basis.n):
            x = _lambda(e, g, u, False)
            if not x.is_zero():
                coefficients[g] = _coefficient(x, e, g, one_param)
        return LambdaTable(basis, one_param, coefficients)
    if method == "brute":
        mat = inv_brute(nu, one_param)
        return _table_from_matrix(mat, one_param)
    fn = _METHODS.get(method)
    if fn is None:
        raise ValueError(f"unknown method {method!r}")
    op = fn(nu, one_param)
    return LambdaTable(op.basis, one_param, op.coefficients)


def _table_from_matrix(mat: GramMatrix, one_param: bool) -> LambdaTable:
    """Read a dense inverse of a generic weight back into a table: row e,
    the identity word, holds every coefficient x_g once, at the column of
    its word g^-1.e.  The whole matrix is then checked against the table's
    expansion, so no entry off row e goes unread."""
    basis = mat.basis
    e = basis.words[0]
    pos = {ch: k + 1 for k, ch in enumerate(e)}
    table = LambdaTable(basis, one_param, {
        Perm(pos[ch] for ch in wj): x
        for wj, x in zip(basis.words, mat.entries[0]) if not x.is_zero()})
    if table.to_matrix() != mat:
        raise ArithmeticError("the dense inverse does not commute with "
                              "renaming letters")
    return table


def inverse_matrix_at(nu: Weight, assignment, mode: str = "free") -> list:
    """Dense numeric inverse at an exact point, via the per-permutation
    recursion run directly over Gaussian rationals (no symbolic tables) at
    one ``ring.Point``.  In mode 'one-param' every word takes the same
    values, so the recursion keys its memos by word length and computes
    one term per permutation for all the words."""
    basis = Basis.of_weight(nu)
    u = Universe(mode == "one-param", Point(assignment, mode))
    size = basis.size
    zero = GaussRat.of(0)
    ent = [[zero for _ in range(size)] for _ in range(size)]
    for g in all_perms(basis.n):
        # Lambda(g) is 0 off the tree-like g; the plan is cached for _lambda
        if not g.is_identity() and _step_plan(g) is None:
            continue
        inv = g.inverse().inversion_set()
        term = None
        for j, i in enumerate(basis.act(g)):
            gw = basis.words[i]
            # each full-length value is read here once, so it is not
            # memoized; in one-parameter mode one term serves every word
            if term is None or not u.one_param:
                term = _lambda(tuple(gw), g, u, False) * u.mono(gw, inv)
            if term.is_zero():
                continue
            old = ent[i][j]
            ent[i][j] = term if old is zero else old + term
    return ent


# ---------------------------------------------------------------------------
# degenerate weights
# ---------------------------------------------------------------------------

def inv_degenerate(nu: Weight, one_param: bool = False,
                   method: str = "fast") -> GramMatrix:
    """Inverse for a weight with repeated letters: the inverse of the
    generic model, computed by ``inv_full`` with the given method, pushed
    down along φ (``Embedding.push_down``),

        [A^(ν)]⁻¹_ij = Σ_{w̃ ∈ φ⁻¹(w_j)} φ([Ã]⁻¹_{ĩ, w̃}),  ĩ any lift of w_i.

    Only the rows of the lifts ĩ are read, one per word of ν, so only
    those are computed (``LambdaTable.row``).  Each fiber is summed once
    in generic labels, where every multiparameter box is prime, then
    mapped along φ and reduced.
    """
    if nu.generic:
        return inv_full(nu, method, one_param).to_matrix()
    emb = embed_degenerate(nu)
    table = inv_full(emb.generic_weight, method, one_param)
    zero = Poly.zero()

    def row(ti):
        entries = table.row(ti)
        return lambda w: entries.get(w, zero)

    def total(values):
        s = sum_parts([as_part(v) for v in values]).map_labels(
            emb.phi.__getitem__)
        return BoxFraction(s.num, s.den)

    return emb.push_down(row, total)


# ---------------------------------------------------------------------------
# denominator conjecture checks
# ---------------------------------------------------------------------------

class ZagierReport:
    """Polynomiality report for a claimed common denominator: ``checked``
    counts the matrix entries decided, n! per coefficient (one with
    ``coeff``), and ``failures`` lists each entry left with a denominator
    as (perm, word, leftover)."""

    __slots__ = ("mode", "n", "one_param", "checked", "failures", "notes")

    def __init__(self, mode: str, n: int, one_param: bool, checked: int = 0,
                 failures: list | None = None, notes: str = ""):
        self.mode = mode
        self.n = n
        self.one_param = one_param
        self.checked = checked
        self.failures = [] if failures is None else failures
        self.notes = notes

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self):
        return {"mode": self.mode, "n": self.n, "one_param": self.one_param,
                "checked": self.checked, "passed": self.passed,
                "failures": [{"perm": p, "word": w, "leftover": l}
                             for p, w, l in self.failures],
                "notes": self.notes}

    def __str__(self):
        head = (f"{self.mode}: n={self.n} entries={self.checked} "
                f"{'PASS' if self.passed else 'FAIL'}")
        lines = [head]
        for p, w, l in self.failures:
            lines.append(f"  entry g={p} word={w}: leftover denominator {l}")
        if self.notes:
            lines.append("  " + self.notes)
        return "\n".join(lines)


def _leftover(frac: BoxFraction, candidate) -> BoxFraction | None:
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


def _interval_boxes(letters: tuple, one_param: bool) -> list:
    n = len(letters)
    return [BoxFactor(letters, range(a, b + 1), one_param)
            for a in range(1, n) for b in range(a + 1, n + 1)]


def _subset_boxes(letters: tuple, one_param: bool) -> list:
    n = len(letters)
    out = []
    for k in range(2, n + 1):
        for T in itertools.combinations(range(1, n + 1), k):
            out.append(BoxFactor(letters, T, one_param))
    return out


def _one_param_boxes(n: int, multiplicities: bool) -> list:
    out = []
    for k in range(2, n + 1):
        box = BoxFactor(range(1, k + 1), range(1, k + 1), True)
        out.extend([box] * ((n - k + 1) if multiplicities else 1))
    return out


def zagier_check(n: int, mode: str = "multi", coeff: Perm | None = None
                 ) -> ZagierReport:
    """Check a claimed common denominator of the inverse, coefficient by
    coefficient.

    modes: ``multi`` (product of all interval boxes of the word),
    ``extended-multi`` (product of all letter-subset boxes),
    ``one-param`` (prod_k (1-q^(k(k-1)))^(n-k+1)),
    ``original-conjecture`` (prod_k (1-q^(k(k-1))), single copies -- the
    historical claim; fails at n=8).  ``coeff`` restricts the check to a
    single permutation's coefficient (used for the n=8 counterexample
    without touching the 8-letter basis).

    The entry of g at a word w is x_g = Lambda(g) Q(g) at w, and both it and
    every mode's candidate are their values at the identity word e with
    the letters renamed e_p -> w_p.  A renaming is a ring automorphism
    that permutes boxes, so the candidate clears the entry at w exactly
    when it clears it at e: each coefficient is decided once, at e.  It
    still counts as n! checked entries, and a failure is listed at every
    word with its leftover renamed there, in basis order.
    """
    one_param = mode in ("one-param", "original-conjecture")
    e = tuple(range(1, n + 1))
    if mode == "multi":
        candidate = _interval_boxes(e, False)
    elif mode == "extended-multi":
        candidate = _subset_boxes(e, False)
    elif one_param:
        candidate = _one_param_boxes(n, mode == "one-param")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    report = ZagierReport(mode=mode, n=n, one_param=one_param)
    if coeff is None:
        table = inv_full(Weight.generic_n(n), "fast", one_param)
        values = [(g, table.coefficients[g]) for g in table.support()]
        words = table.basis.words
    else:
        lam = lambda_scalar(e, coeff, one_param)
        values = [(coeff, _coefficient(lam, e, coeff, one_param))]
        words = (Word(e),)
    for g, entry in values:
        left = _leftover(entry, candidate)
        report.checked += len(words)
        if left is not None:
            report.failures += [
                (str(g), str(w), str(left.renamed(Renaming(dict(zip(e, w))))))
                for w in words]
    if coeff is not None and report.failures:
        report.notes = "claimed denominator does not clear this coefficient"
    return report


if __name__ == "__main__":
    import doctest

    doctest.testmod()
