"""
Gram matrices of word bases, and the operator calculus used to factor them.

For a weight ν the Gram matrix A^(ν) pairs all words of weight ν.  Everything
downstream (determinant factorization, inversion) is computed in the
"permutation expansion" representation: operators are stored as sums
Σ_g D(g)·R(g) where R(g) is the place permutation of words and D(g) a
diagonal.  Composition stays in this form via

    (D₁ R(g₁)) (D₂ R(g₂)) = D₁ · (R(g₁) D₂ R(g₁)⁻¹) · R(g₁ g₂),

and a dense matrix is only materialized for oracle comparisons and export.

On a multiplicity-free weight the operators that the inversions build
commute with renaming letters: the entry of D(g) at a word w is its entry
x_g at the identity word e (the first word, letters sorted) with every
letter renamed e_p ↦ w_p (``Basis.renaming``, ``ring.Renaming``).  They
form the twisted group algebra K(q) ⋊ S_n, and ``GenericOp`` keeps one
value x_g per permutation.  Read at e, the rule above is

    (XY)_g = Σ_{g₁g₂=g} x_{g₁} · g₁(y_{g₂}),

where g₁ renames letters e_p ↦ e_{g₁(p)}, the letters of the word g₁⁻¹·e.

>>> b = Basis.of_weight(Weight.generic_n(2))
>>> A = build_generic(b.weight)
>>> print(A.entries[0][1])
q12
"""

from __future__ import annotations

__all__ = [
    "Basis", "GramMatrix", "DiagOp", "OpExpansion", "GenericOp", "Embedding",
    "build_generic", "pair_rule", "build_degenerate", "rhat", "q_of_perm",
    "mult_factor", "factor_A_m", "factor_CD", "embed_degenerate",
    "q_set", "q_diag_pair", "q_diag_set", "box_diag",
]

import itertools
from collections import Counter, namedtuple
from functools import lru_cache

from .ring import Poly, Point, Renaming, SINGLE_Q, pair_var, var_key
from .boxes import (as_part, by_denominator, over_common, sum_products,
                    sum_row_column)
from .fock import Word, Weight
from .perms import Perm, cycle


class Basis(namedtuple("Basis", "weight words")):
    """All words of one weight, lexicographically sorted.

    A basis is derived from its weight: ``Basis.of_weight`` is the way to
    get one, and equal weights share one instance (and its index map), so
    no function needs a weight and its basis both.  ``act(g)`` is the place
    permutation R(g) on word indices.

    It declares no ``__slots__``: the index map is cached in the instance
    dict, outside the tuple, so equality and hashing see only the fields.
    """

    @staticmethod
    @lru_cache(maxsize=16)
    def of_weight(nu: Weight) -> "Basis":
        return Basis(nu, tuple(nu.words()))

    @property
    def size(self) -> int:
        return len(self.words)

    def index(self, w) -> int:
        return self._index_map()[Word(w)]

    def act(self, g: Perm) -> tuple:
        """R(g) on indices: entry j is the index of g·w_j, where
        (g·w)_p = w_{g⁻¹(p)}."""
        inv = g.inverse().images
        imap = self._index_map()
        return tuple(imap[tuple(w[k - 1] for k in inv)] for w in self.words)

    def renaming(self, w) -> Renaming:
        """The renaming e_p ↦ w_p of letters, e the first word: on a
        multiplicity-free weight it takes e to the word w."""
        return Renaming(dict(zip(self.words[0], w)))

    def _index_map(self):
        m = getattr(self, "_imap", None)
        if m is None:
            m = self._imap = {w: k for k, w in enumerate(self.words)}
        return m

    @property
    def n(self) -> int:
        return self.weight.size


class GramMatrix:
    """Dense square matrix over a word basis (Poly or BoxFraction entries)."""

    __slots__ = ("basis", "entries")

    def __init__(self, basis: Basis, entries: list):
        self.basis = basis
        self.entries = entries

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def entry(self, wi, wj):
        return self.entries[self.basis.index(wi)][self.basis.index(wj)]

    def __eq__(self, o):
        return (isinstance(o, GramMatrix) and self.basis == o.basis
                and self.entries == o.entries)

    def matmul(self, o: "GramMatrix") -> "GramMatrix":
        """Matrix product.  Each entry is the one ``boxes.sum_products``
        gives for its pairs, summed in one go, with no product built on its
        own, in either mode.

        The nonzero entries of each row of self are grouped by denominator
        once (``boxes.by_denominator``), keeping their numerators.  The
        product is then built column by column, holding one column at a
        time.  Each column of o is put over its common denominator C once
        (``boxes.over_common``), so the products of a row's group over D
        all lie over D + C: an entry's groups are those of its row, less
        any group that meets only zeros of the column.  Each entry hands
        its numerator pairs, so grouped, to the summation step of
        ``sum_products`` (``boxes.sum_row_column``), which lifts each group
        by the factors it misses and reduces once.  An entry of Polys alone
        is their ``Poly.sum_of_products``, a Poly, as in ``sum_products``.
        Multiparameter entries have one reduced form each; a one-parameter
        entry is one of the forms of its value."""
        rows = []
        for row in self.entries:
            live = [k for k, x in enumerate(row)
                    if not (isinstance(x, Poly) and x.is_zero())]
            if not all(isinstance(row[k], Poly) for k in live):
                live = None         # no entry of the row is Polys alone
            rows.append((row, live, by_denominator(row)))
        out = []
        for col in zip(*o.entries):
            den, col = over_common(col)
            nums = [None if y.is_zero() else as_part(y)[0] for y in col]
            fractions = {k for k, y in enumerate(col)
                         if not isinstance(y, Poly)}
            column = []
            for row, live, grouped in rows:
                if live is not None and fractions.isdisjoint(live):
                    column.append(Poly.sum_of_products(
                        [(row[k], col[k]) for k in live]))
                else:
                    column.append(sum_row_column(grouped, nums, den))
            out.append(column)
        return GramMatrix(self.basis, [list(r) for r in zip(*out)])

    def map_distinct(self, f) -> list:
        """The rows of f(entry), calling f once per distinct entry object.

        Entries may be shared objects (``build_generic`` gives all equal
        monomials one Poly), so f runs once per object, not per position.
        The results are keyed by ``id`` only during the call, while the
        matrix holds every entry.
        """
        firsts = {id(e): e for row in self.entries for e in row}
        values = {k: f(e) for k, e in firsts.items()}
        return [[values[id(e)] for e in row] for row in self.entries]

    def evaluate(self, assignment, mode: str = "free") -> list:
        """The entries at an exact point, as rows of GaussRat values: each
        distinct entry (``map_distinct``) valued once at one ``ring.Point``,
        a Poly as a fraction over no boxes (``boxes.as_part``)."""
        point = Point(assignment, mode)
        return self.map_distinct(lambda e: point.value(*as_part(e)))

    def to_json(self):
        return {"weight": str(self.basis.weight),
                "words": [str(w) for w in self.basis.words],
                "entries": self.map_distinct(str)}

    def to_csv(self):
        lines = ["," + ",".join(str(w) for w in self.basis.words)]
        for w, row in zip(self.basis.words, self.map_distinct(str)):
            lines.append(str(w) + "," + ",".join('"%s"' % e for e in row))
        return "\n".join(lines) + "\n"


class DiagOp:
    """Diagonal operator: one value per basis word, multiplied entrywise."""

    __slots__ = ("basis", "diagonal")

    def __init__(self, basis: Basis, diagonal: tuple):
        self.basis = basis
        self.diagonal = diagonal

    def __eq__(self, o):
        if o.__class__ is not DiagOp:
            return NotImplemented
        return (self.basis, self.diagonal) == (o.basis, o.diagonal)

    @staticmethod
    def identity(basis: Basis) -> "DiagOp":
        return DiagOp(basis, (Poly.one(),) * basis.size)

    @staticmethod
    def of_func(basis: Basis, f) -> "DiagOp":
        """Build from a function word -> value."""
        return DiagOp(basis, tuple(f(w) for w in basis.words))

    def __mul__(self, o: "DiagOp") -> "DiagOp":
        return DiagOp(self.basis, tuple(a * b for a, b in
                                        zip(self.diagonal, o.diagonal)))

    def __add__(self, o: "DiagOp") -> "DiagOp":
        return DiagOp(self.basis, tuple(a + b for a, b in
                                        zip(self.diagonal, o.diagonal)))

    def __sub__(self, o: "DiagOp") -> "DiagOp":
        return DiagOp(self.basis, tuple(a - b for a, b in
                                        zip(self.diagonal, o.diagonal)))

    def __neg__(self) -> "DiagOp":
        return DiagOp(self.basis, tuple(-a for a in self.diagonal))

    def shift(self, g: Perm) -> "DiagOp":
        """Conjugation by the place permutation: R(g) D R(g)⁻¹, whose entry
        at word i is D at word g⁻¹·i."""
        return DiagOp(self.basis, tuple(
            self.diagonal[i] for i in self.basis.act(g.inverse())))

    def value_at(self, w):
        return self.diagonal[self.basis.index(w)]

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.diagonal)


class _Expansion:
    """Σ_g c(g)·R(g) over a fixed basis, kept as a dict Perm -> c(g) with
    zero values dropped: the rules that read no coefficient's type.

    ``OpExpansion`` (c(g) a DiagOp) and ``GenericOp`` (c(g) a value at the
    identity word) share them, and each result keeps the caller's class.
    Expansions of different classes are never equal.
    """

    __slots__ = ("basis", "coefficients")

    def __init__(self, basis: Basis, coefficients=None):
        self.basis = basis
        self.coefficients = {g: x for g, x in (coefficients or {}).items()
                             if not x.is_zero()}

    def __add__(self, o):
        out = dict(self.coefficients)
        for g, x in o.coefficients.items():
            out[g] = out[g] + x if g in out else x
        return self.__class__(self.basis, out)

    def __sub__(self, o):
        return self + (-o)

    def __neg__(self):
        return self.__class__(self.basis,
                              {g: -x for g, x in self.coefficients.items()})

    def left_diag(self, d):
        """Multiply on the left by a diagonal: a DiagOp on an
        ``OpExpansion``, its entry at the identity word on a ``GenericOp``."""
        return self.__class__(self.basis, {g: d * x for g, x in
                                           self.coefficients.items()})

    def __eq__(self, o):
        if o.__class__ is not self.__class__:
            return NotImplemented
        return self.basis == o.basis and self.coefficients == o.coefficients


class OpExpansion(_Expansion):
    """Operator Σ_g D(g)·R(g): map Perm -> DiagOp over a fixed basis, with
    the sum, difference, negation, left diagonal factor and equality of
    ``_Expansion``.

    R(g) permutes the word basis by place permutation, θ_j -> θ_{g·j} with
    (g·j)_p = j_{g⁻¹(p)}; the convention is pinned by R(g)R(h) = R(gh).
    """

    __slots__ = ()

    @staticmethod
    def identity(basis: Basis) -> "OpExpansion":
        return OpExpansion(basis, {Perm.identity(basis.n):
                                   DiagOp.identity(basis)})

    @staticmethod
    def zero(basis: Basis) -> "OpExpansion":
        return OpExpansion(basis)

    @staticmethod
    def single(g: Perm, d: DiagOp) -> "OpExpansion":
        return OpExpansion(d.basis, {g: d})

    def __mul__(self, o: "OpExpansion") -> "OpExpansion":
        """Composition: D1 R(g1) D2 R(g2) = D1 (R(g1) D2 R(g1)^-1) R(g1 g2).

        The pairs (g1, g2) are grouped by g = g1 g2 first, and each word's
        entry of the coefficient of g is then summed in one go by
        ``boxes.sum_products``: the products are accumulated into one
        numerator over their common denominator and reduced once, in
        either mode.  For a generic multiparameter word every box is
        prime, so the reduced form is unique; a one-parameter form depends
        on the multiset of the products, not on their order.
        """
        groups: dict = {}
        for g1, d1 in self.coefficients.items():
            for g2, d2 in o.coefficients.items():
                groups.setdefault(g1 * g2, []).append(
                    (d1.diagonal, d2.shift(g1).diagonal))
        out = {}
        for g, pairs in groups.items():
            out[g] = DiagOp(self.basis, tuple(
                sum_products([(x[k], y[k]) for x, y in pairs])
                for k in range(self.basis.size)))
        return OpExpansion(self.basis, out)

    def to_matrix(self) -> GramMatrix:
        basis = self.basis
        m = basis.size
        zero = Poly.zero()
        ent = [[zero for _ in range(m)] for _ in range(m)]
        for g, d in self.coefficients.items():
            for j, i in enumerate(basis.act(g)):
                ent[i][j] = ent[i][j] + d.diagonal[i]
        return GramMatrix(basis, ent)


class GenericOp(_Expansion):
    """Operator Σ_g X(g)·R(g) on a multiplicity-free weight that commutes
    with renaming letters, kept as one value per permutation: x_g, the
    entry of X(g) at the identity word (see the module docstring).  Values
    are Polys and BoxFractions, and zero values are dropped.

    The sum, difference, negation, left diagonal factor and equality are
    those of ``_Expansion``, shared with ``OpExpansion``.  The product and
    ``sum`` are ``OpExpansion``'s product and sum read at the identity
    word: each value is summed once, by ``boxes.sum_products``, from the
    products the per-word operation sums there, so it has the form that
    operation gives there, also in one-parameter mode, where forms are not
    unique.
    """

    __slots__ = ()

    @staticmethod
    def identity(basis: Basis) -> "GenericOp":
        return GenericOp(basis, {Perm.identity(basis.n): Poly.one()})

    @staticmethod
    def rhat(g: Perm, basis: Basis, one_param: bool = False) -> "GenericOp":
        """R̂(g) = Q(g)·R(g), as ``rhat`` builds it per word."""
        return GenericOp(basis, {g: q_of_perm(basis.words[0], g.inverse(),
                                              one_param)})

    @staticmethod
    def sum(basis: Basis, ops) -> "GenericOp":
        """Sum of operators, each coefficient added in one go as the
        ``boxes.sum_products`` of its values times one: a Poly when every
        value is one, else a reduced BoxFraction."""
        one = Poly.one()
        groups: dict = {}
        for op in ops:
            for g, x in op.coefficients.items():
                groups.setdefault(g, []).append((x, one))
        return GenericOp(basis, {g: sum_products(pairs)
                                 for g, pairs in groups.items()})

    def __mul__(self, o: "GenericOp") -> "GenericOp":
        """(XY)_g = Σ_{g₁g₂=g} x_{g₁} · g₁(y_{g₂}), the pairs grouped by g
        as in ``OpExpansion.__mul__`` and each group summed once over its
        common denominator by ``boxes.sum_products``, in either mode.  One
        renaming is built per g₁, and each y_{g₂} is renamed by it once,
        within this call."""
        e = self.basis.words[0]
        groups: dict = {}
        for g1, x in self.coefficients.items():
            r = self.basis.renaming(tuple(e[k - 1] for k in g1.images))
            for g2, y in o.coefficients.items():
                groups.setdefault(g1 * g2, []).append((x, y.renamed(r)))
        return GenericOp(self.basis, {g: sum_products(pairs)
                                      for g, pairs in groups.items()})

    def scale(self, c: int) -> "GenericOp":
        # an integer multiple of a reduced box fraction is reduced: a box
        # has content 1, so it divides c*N only if it divides N
        return GenericOp(self.basis, {g: x.scale(c) for g, x in
                                      self.coefficients.items()})


def q_mono(word, pairs, one_param: bool = False) -> Poly:
    """∏_{(a,b) in pairs} q_{i_a i_b} for the given word (1-based positions)."""
    return Poly.monomial(SINGLE_Q if one_param
                         else pair_var(word[a - 1], word[b - 1])
                         for a, b in pairs)


def q_of_perm(word, g: Perm, one_param: bool = False) -> Poly:
    """q_{i,g} = ∏_{(a,b) inversion of g} q_{i_a i_b}."""
    return q_mono(word, g.inversion_set(), one_param)


def q_set(word, T, one_param: bool = False) -> Poly:
    """Q_T at a word: ∏_{a != b in T} q_{i_a i_b} over ordered pairs of
    1-based positions; for T = {a,b} it is q_{i_a i_b} q_{i_b i_a}, the
    |q|² entry.  The q-part of the box over T (``boxes.BoxFactor``)."""
    T = sorted(T)
    return q_mono(word, [(a, b) for a in T for b in T if a != b], one_param)


def q_diag_pair(basis: Basis, a: int, b: int, one_param: bool = False) -> DiagOp:
    """Q_{a,b}: diagonal with entry q_{i_a i_b} at word i."""
    return DiagOp.of_func(basis, lambda w: q_mono(w, ((a, b),), one_param))


def q_diag_set(basis: Basis, T, one_param: bool = False) -> DiagOp:
    """Q_T = ∏_{a != b in T} Q_{a,b}: diagonal with entry ``q_set`` at
    each word."""
    return DiagOp.of_func(basis, lambda w: q_set(w, T, one_param))


def box_diag(basis: Basis, T, one_param: bool = False) -> DiagOp:
    """□_T = I − Q_T."""
    return DiagOp.identity(basis) - q_diag_set(basis, T, one_param)


def rhat(g: Perm, nu: Weight, one_param: bool = False) -> OpExpansion:
    """R̂(g) = Q(g)·R(g) with Q(g)_{i,i} = q_{i,g⁻¹}.

    >>> nu = Weight.generic_n(2)
    >>> op = rhat(cycle(1, 2, 2), nu)
    >>> print(op.to_matrix().entries[0][1])
    q12
    """
    inv = g.inverse().inversion_set()
    return OpExpansion.single(g, DiagOp.of_func(
        Basis.of_weight(nu), lambda w: q_mono(w, inv, one_param)))


def mult_factor(g1: Perm, g2: Perm, nu: Weight,
                one_param: bool = False) -> DiagOp:
    """M(g₁,g₂) with R̂(g₁)R̂(g₂) = M(g₁,g₂)·R̂(g₁g₂):
    the product of Q_{{a,b}} over inversions of g₁⁻¹ not shared with
    (g₁g₂)⁻¹.  Identity exactly when lengths add."""
    basis = Basis.of_weight(nu)
    lost = g1.inverse().inversion_set() - (g2.inverse() *
                                           g1.inverse()).inversion_set()
    d = DiagOp.identity(basis)
    for a, b in lost:
        d = d * q_diag_set(basis, (a, b), one_param)
    return d


def build_generic(nu: Weight, one_param: bool = False) -> GramMatrix:
    """Gram matrix for a multiplicity-free weight: entry (i, j) is the
    monomial q_{i,σ} for the unique σ with σ·i = j, which is
    ``pair_rule(nu, pair_var)``; ``q_of_perm`` is the definition the tests
    compare against.  In one-parameter mode entry (i, j) is q^k for the k
    pairs of ``mask_i & ~mask_j``, one shared Poly per power.

    >>> A = build_generic(Weight.generic_n(2))
    >>> [str(e) for e in A.entries[1]]
    ['q21', '1']
    """
    if not one_param:
        return pair_rule(nu, pair_var)
    basis, pairs, masks = _pair_masks(nu)
    powers = [Poly.monomial([SINGLE_Q] * k)
              for k in range(len(pairs) // 2 + 1)]
    return GramMatrix(basis, [[powers[(mi & ~mj).bit_count()]
                               for mj in masks] for mi in masks])


def pair_rule(nu: Weight, var) -> GramMatrix:
    """The pair rule on a multiplicity-free weight: entry (i, j) is the
    product of ``var(x, y)`` over the letter pairs with x before y in w_i
    and y before x in w_j, that is over ``mask_i & ~mask_j``.  With
    ``var = pair_var`` it is A_n; any other ``var`` specializes A_n.

    A product's packed key is the sum of its variables' keys
    (``ring.var_key``), so each distinct mask's key is read from subset-sum
    tables of its pairs' keys (``_mask_keys``).  Each distinct mask's Poly
    is built once from its key (``Poly.monomials``) and shared by every
    entry with that mask; entries are shared by mask, not by Poly value, so
    no Poly is hashed.
    """
    basis, pairs, masks = _pair_masks(nu)
    key_of = _mask_keys([var_key(var(x, y)) for x, y in pairs])
    nots = [~m for m in masks]
    grid = [[mi & nj for nj in nots] for mi in masks]
    distinct = list(set().union(*grid))
    monos = dict(zip(distinct, Poly.monomials(map(key_of, distinct))))
    for row in grid:
        row[:] = map(monos.__getitem__, row)
    return GramMatrix(basis, grid)


def _mask_keys(keys):
    """The function taking a bitmask m to the sum of the keys at its set
    bits.  The keys are cut into three runs, each with a table of its sums
    over every subset of it, so a sum is three table reads."""
    width = max(1, -(-len(keys) // 3))
    low = (1 << width) - 1
    t0, t1, t2 = (_subset_sums(keys[k * width:(k + 1) * width])
                  for k in range(3))
    return lambda m: t0[m & low] + t1[m >> width & low] + t2[m >> 2 * width]


def _subset_sums(keys) -> list:
    """Entry s is the sum of the keys at the set bits of s."""
    sums = [0]
    for k in keys:
        sums += [x + k for x in sums]
    return sums


def _pair_masks(nu: Weight):
    """The basis of nu, its ordered letter pairs, and per word the bitmask
    of the pairs (x, y) with x before y."""
    if not nu.generic:
        raise ValueError("weight is degenerate; use build_degenerate")
    basis = Basis.of_weight(nu)
    pairs = list(itertools.permutations(nu.labels, 2))
    bit = {xy: 1 << k for k, xy in enumerate(pairs)}
    return basis, pairs, [sum(bit[xy] for xy in itertools.combinations(w, 2))
                          for w in basis.words]


# lifts per chunk of a fiber in build_degenerate: bounds its memory when a
# fiber is large (the weight 10 has one fiber of 3.6 M lifts)
_LIFTS = 1 << 15


def build_degenerate(nu: Weight, one_param: bool = False) -> GramMatrix:
    """Gram matrix for a weight with repeated letters: entry (i, j) sums
    q_{i,σ} over all σ with σ·i = j (``q_of_perm``, which the tests compare
    against).  It is the pair rule pushed down (see ``Embedding``): the sum
    over w̃ ∈ φ⁻¹(w_j) of the product of ``Embedding.var(x, y)``, or of q in
    one-parameter mode, over the fresh pairs with x before y in ĩ and y
    before x in w̃.

    A word's orientation has one bit per fresh pair {x < y}, set when y
    comes first, so the pairs that ĩ and w̃ order differently are the bits
    of the XOR of their orientations.  Each lift's orientation is computed
    once for all the rows, and each row reads the packed key of a XOR from
    its own subset-sum tables of the pairs' keys, each pair taken in ĩ's
    order (``_mask_keys``, as in ``pair_rule``).  A fiber is read in chunks
    of ``_LIFTS`` lifts, its keys counted into one Poly per entry
    (``Poly.from_keys``), and equal entries share one Poly.

    >>> A = build_degenerate(Weight({1: 2, 3: 1}))
    >>> print(A.entries[0][0])
    1 + q11
    """
    if nu.generic:
        return build_generic(nu, one_param)
    emb = embed_degenerate(nu)
    var = (lambda x, y: SINGLE_Q) if one_param else emb.var
    pairs = list(itertools.combinations(sorted(emb.phi), 2))
    flip = {}
    for k, (x, y) in enumerate(pairs):
        flip[x, y] = 0
        flip[y, x] = 1 << k

    def orientation(w):
        return sum(map(flip.__getitem__, itertools.combinations(w, 2)))

    basis = Basis.of_weight(nu)
    rows = []
    for w in basis.words:
        o = orientation(emb.lift(w))
        rows.append((o.__xor__, _mask_keys([
            var_key(var(y, x) if o >> k & 1 else var(x, y))
            for k, (x, y) in enumerate(pairs)])))
    shared = {}

    def total(counts):
        terms = tuple(sorted(counts.items()))
        if terms not in shared:
            shared[terms] = Poly.from_keys(counts)
        return shared[terms]

    columns = []
    for w in basis.words:
        counts = [Counter() for _ in rows]
        fiber = emb.fiber(w)
        while lifts := list(map(orientation, itertools.islice(fiber, _LIFTS))):
            for c, (xor, key_of) in zip(counts, rows):
                c.update(map(key_of, map(xor, lifts)))
        columns.append([total(c) for c in counts])
    return GramMatrix(basis, [list(row) for row in zip(*columns)])


def factor_A_m(nu: Weight, m: int, one_param: bool = False) -> OpExpansion:
    """A^{(ν),m} = Σ_{k=1..m} R̂(t_{k,m}); the Gram matrix factors as the
    ordered product A^{(ν),1} ⋯ A^{(ν),n}."""
    basis = Basis.of_weight(nu)
    n = basis.n
    if not (1 <= m <= n):
        raise ValueError(f"level m={m} out of range 1..{n}")
    out = OpExpansion.zero(basis)
    for k in range(1, m + 1):
        out = out + rhat(cycle(k, m, n), nu, one_param)
    return out


def factor_CD(nu: Weight, m: int, one_param: bool = False):
    """The elimination pair (C^{(ν),m}, D^{(ν),m}):

        C^{(ν),m} = ∏_{k=1..m-1} [I − R̂(t_{k,m})]
        D^{(ν),m} = ∏_{k=1..m}   [I − Q_{{m,m+1}} R̂(t_{k,m})]

    satisfying A^{(ν),m}·C^{(ν),m} = D^{(ν),m−1}.  D is only defined for
    m < n (it looks at position m+1); factor_CD returns (C, D) with D = None
    when m = n.
    """
    basis = Basis.of_weight(nu)
    n = basis.n
    if not (1 <= m <= n):
        raise ValueError(f"level m={m} out of range 1..{n}")
    ident = OpExpansion.identity(basis)
    C = ident
    for k in range(1, m):
        C = C * (ident - rhat(cycle(k, m, n), nu, one_param))
    D = None
    if m < n:
        D = ident
        qmm = q_diag_set(basis, (m, m + 1), one_param)
        for k in range(1, m + 1):
            D = D * (ident - rhat(cycle(k, m, n), nu,
                                  one_param).left_diag(qmm))
    return C, D


# ---------------------------------------------------------------------------
# degenerate -> generic embedding
# ---------------------------------------------------------------------------

class Embedding:
    """Generic model of a degenerate weight, and the push-down from it.

    The letters of ν are split into fresh labels 1..n, and phi maps each
    fresh label back to its letter.  A matrix over the words of ν is a
    matrix Ã of the generic model pushed down along φ (``push_down``):

        A^(ν)_ij = Σ_{w̃ ∈ φ⁻¹(w_j)} φ(Ã_{ĩ, w̃})

    where ĩ is any lift of w_i.  The sum does not depend on the lift
    chosen, because φ∘h = φ for every relabelling h within the fibers.
    """

    __slots__ = ("weight", "generic_weight", "phi", "fibers")

    def __init__(self, weight: Weight, generic_weight: Weight, phi: dict,
                 fibers: dict):
        self.weight = weight
        self.generic_weight = generic_weight
        self.phi = phi        # fresh label (1..n) -> original letter
        self.fibers = fibers  # original letter -> tuple of fresh labels

    def lift(self, w) -> Word:
        """Canonical preimage, the first word of the fiber: occurrences of
        each letter get that letter's fresh labels in left-to-right order."""
        return Word(next(self.fiber(w)))

    def fiber(self, w):
        """φ⁻¹(w), lazily: each letter's fresh labels permuted over that
        letter's places in w, one word (a tuple) per product of those
        permutations, the last letter's varying fastest.  Only the
        permutations of the letters before the last are listed."""
        *outer, (places, labels) = [
            ([p for p, ch in enumerate(w) if ch == a], labels)
            for a, labels in self.fibers.items()]
        out = [None] * len(w)
        for heads in itertools.product(*(itertools.permutations(labels)
                                         for _, labels in outer)):
            for (ps, _), perm in zip(outer, heads):
                for p, x in zip(ps, perm):
                    out[p] = x
            for perm in itertools.permutations(labels):
                for p, x in zip(places, perm):
                    out[p] = x
                yield tuple(out)

    def var(self, x, y):
        """The variable of the fresh pair (x, y) pushed down: q_{φx φy}."""
        return pair_var(self.phi[x], self.phi[y])

    def push_down(self, row, total) -> GramMatrix:
        """The matrix over the words of ν with entry (i, j) equal to
        ``total`` of the values of ``row(ĩ)`` on the fiber φ⁻¹(w_j), ĩ the
        lift of w_i.  ``row(ĩ)`` maps a generic word w̃ to Ã_{ĩ, w̃};
        ``total`` sums one fiber's values and maps them along φ."""
        basis = Basis.of_weight(self.weight)
        return GramMatrix(basis, [
            [total(map(f, self.fiber(wj))) for wj in basis.words]
            for f in map(row, map(self.lift, basis.words))])


def embed_degenerate(nu: Weight) -> Embedding:
    """Split repeated letters of ν into distinct fresh labels 1..n and return
    the generic model with the map φ back to the letters.

    >>> emb = embed_degenerate(Weight({1: 2, 3: 1}))
    >>> emb.fibers[1], emb.fibers[3]
    ((1, 2), (3,))
    >>> [str(Word(w)) for w in emb.fiber(Word.parse("131"))]
    ['132', '231']
    """
    phi = {k + 1: ch for k, ch in enumerate(nu.support_word())}
    fibers = {ch: tuple(x for x in phi if phi[x] == ch) for ch in nu.labels}
    return Embedding(nu, Weight.generic_n(nu.size), phi, fibers)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
