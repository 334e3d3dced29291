"""
Gram matrices of word bases, and the operator calculus used to factor them.

For a weight ν the Gram matrix A^(ν) pairs all words of weight ν.  Everything
downstream (determinant factorization, inversion) is computed in the
"permutation expansion" representation: operators are stored as sums
Σ_g D(g)·R(g) where R(g) is the place permutation of words and D(g) a
diagonal.  Composition stays in this form via

    (D₁ R(g₁)) (D₂ R(g₂)) = D₁ · (R(g₁) D₂ R(g₁)⁻¹) · R(g₁ g₂),

and a dense matrix is only materialized for oracle comparisons and export.

>>> b = Basis.of_weight(Weight.generic_n(2))
>>> A = build_generic(b.weight)
>>> print(A.entries[0][1])
q12
"""

from __future__ import annotations

__all__ = [
    "Basis", "GramMatrix", "DiagOp", "OpExpansion", "Embedding",
    "build_generic", "build_degenerate", "rhat", "q_of_perm", "mult_factor",
    "factor_A_m", "factor_CD", "embed_degenerate", "q_diag_pair",
    "q_diag_set", "box_diag",
]

import itertools
from dataclasses import dataclass

from .ring import Poly, conjugate
from .boxes import BoxFraction, dot
from .fock import Word, Weight
from .perms import Perm, all_perms, cycle


def _qvar(i, j, one_param: bool) -> Poly:
    return Poly.single_q() if one_param else Poly.var(i, j)


@dataclass(frozen=True)
class Basis:
    """All words of one weight, lexicographically sorted."""

    weight: Weight
    words: tuple

    @staticmethod
    def of_weight(nu: Weight) -> "Basis":
        return Basis(nu, tuple(nu.words()))

    @property
    def size(self) -> int:
        return len(self.words)

    def index(self, w) -> int:
        return self._index_map()[Word(w)]

    def _index_map(self):
        # cached lazily on the instance
        m = getattr(self, "_imap", None)
        if m is None:
            m = {w: k for k, w in enumerate(self.words)}
            object.__setattr__(self, "_imap", m)
        return m

    @property
    def n(self) -> int:
        return self.weight.size


@dataclass
class GramMatrix:
    """Dense square matrix over a word basis (Poly or BoxFraction entries)."""

    basis: Basis
    entries: list

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def entry(self, wi, wj):
        return self.entries[self.basis.index(wi)][self.basis.index(wj)]

    def __eq__(self, o):
        return (isinstance(o, GramMatrix) and self.basis == o.basis
                and self.entries == o.entries)

    def reordered(self, words):
        """The same matrix presented in a different word order."""
        idx = [self.basis.index(w) for w in words]
        return [[self.entries[a][b] for b in idx] for a in idx]

    def matmul(self, o: "GramMatrix") -> "GramMatrix":
        """Matrix product.  An entry with a BoxFraction among its operands
        is one ``dot``: summed over one common box denominator and reduced
        once, not after every addition."""
        cols = list(zip(*o.entries))
        out = []
        for row in self.entries:
            live = [k for k, x in enumerate(row)
                    if not (isinstance(x, Poly) and x.is_zero())]
            xs = [row[k] for k in live]
            out_row = []
            for col in cols:
                ys = [col[k] for k in live]
                if all(isinstance(v, Poly) for v in xs + ys):
                    out_row.append(sum((x * y for x, y in zip(xs, ys)),
                                       Poly.zero()))
                else:
                    out_row.append(dot(xs, ys))
            out.append(out_row)
        return GramMatrix(self.basis, out)

    def to_json(self):
        return {"weight": str(self.basis.weight),
                "words": [str(w) for w in self.basis.words],
                "entries": [[str(e) for e in row] for row in self.entries]}

    def to_csv(self):
        lines = ["," + ",".join(str(w) for w in self.basis.words)]
        for w, row in zip(self.basis.words, self.entries):
            lines.append(str(w) + "," + ",".join(
                '"%s"' % str(e) for e in row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DiagOp:
    """Diagonal operator: one value per basis word, multiplied entrywise."""

    basis: Basis
    diagonal: tuple

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
        basis = self.basis
        ginv = g.inverse()
        vals = []
        for w in basis.words:
            vals.append(self.diagonal[basis.index(ginv.act_word(w))])
        return DiagOp(basis, tuple(vals))

    def value_at(self, w):
        return self.diagonal[self.basis.index(w)]

    def is_zero(self) -> bool:
        return all(_val_is_zero(v) for v in self.diagonal)

    def to_json(self):
        return {str(w): str(v) for w, v in zip(self.basis.words,
                                               self.diagonal)}


def _val_is_zero(v) -> bool:
    return v.is_zero()


class OpExpansion:
    """Operator Σ_g D(g)·R(g): map Perm -> DiagOp over a fixed basis.

    R(g) permutes the word basis by place permutation, θ_j -> θ_{g·j} with
    (g·j)_p = j_{g⁻¹(p)}; the convention is pinned by R(g)R(h) = R(gh).
    """

    __slots__ = ("basis", "coefficients")

    def __init__(self, basis: Basis, coefficients=None):
        self.basis = basis
        self.coefficients = {}
        if coefficients:
            for g, d in coefficients.items():
                if not d.is_zero():
                    self.coefficients[g] = d

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

    def __add__(self, o: "OpExpansion") -> "OpExpansion":
        out = dict(self.coefficients)
        for g, d in o.coefficients.items():
            out[g] = out[g] + d if g in out else d
        return OpExpansion(self.basis, out)

    def __sub__(self, o: "OpExpansion") -> "OpExpansion":
        return self + (-o)

    def __neg__(self) -> "OpExpansion":
        return OpExpansion(self.basis,
                           {g: -d for g, d in self.coefficients.items()})

    def __mul__(self, o: "OpExpansion") -> "OpExpansion":
        out = {}
        for g1, d1 in self.coefficients.items():
            for g2, d2 in o.coefficients.items():
                g = g1 * g2
                d = d1 * d2.shift(g1)
                out[g] = out[g] + d if g in out else d
        return OpExpansion(self.basis, out)

    def left_diag(self, d: DiagOp) -> "OpExpansion":
        """Multiply by a diagonal operator on the left."""
        return OpExpansion(self.basis, {g: d * dg for g, dg in
                                        self.coefficients.items()})

    def scale(self, c: int) -> "OpExpansion":
        return OpExpansion(self.basis,
                           {g: DiagOp(self.basis,
                                      tuple(v.scale(c) if isinstance(v, Poly)
                                            else v * Poly.const(c)
                                            for v in d.diagonal))
                            for g, d in self.coefficients.items()})

    def __eq__(self, o):
        if not isinstance(o, OpExpansion):
            return NotImplemented
        return self.basis == o.basis and self.coefficients == o.coefficients

    def to_matrix(self) -> GramMatrix:
        basis = self.basis
        m = basis.size
        zero = Poly.zero()
        ent = [[zero for _ in range(m)] for _ in range(m)]
        for g, d in self.coefficients.items():
            for j, w in enumerate(basis.words):
                gw = g.act_word(w)
                i = basis.index(gw)
                ent[i][j] = ent[i][j] + d.value_at(gw)
        return GramMatrix(basis, ent)


def q_mono(word, pairs, one_param: bool = False) -> Poly:
    """∏_{(a,b) in pairs} q_{i_a i_b} for the given word (1-based positions)."""
    p = Poly.one()
    for a, b in pairs:
        p = p * _qvar(word[a - 1], word[b - 1], one_param)
    return p


def q_of_perm(word, g: Perm, one_param: bool = False) -> Poly:
    """q_{i,g} = ∏_{(a,b) inversion of g} q_{i_a i_b}."""
    return q_mono(word, g.inversion_set(), one_param)


def q_diag_pair(basis: Basis, a: int, b: int, one_param: bool = False) -> DiagOp:
    """Q_{a,b}: diagonal with entry q_{i_a i_b} at word i."""
    return DiagOp.of_func(basis, lambda w: _qvar(w[a - 1], w[b - 1], one_param))


def q_diag_set(basis: Basis, T, one_param: bool = False) -> DiagOp:
    """Q_T = ∏_{a != b in T} Q_{a,b} (ordered pairs; for T = {a,b} this is
    Q_{a,b}Q_{b,a}, the |q|² diagonal)."""
    T = sorted(T)
    pairs = [(a, b) for a in T for b in T if a != b]
    return DiagOp.of_func(basis, lambda w: q_mono(w, pairs, one_param))


def box_diag(basis: Basis, T, one_param: bool = False) -> DiagOp:
    """□_T = I − Q_T."""
    return DiagOp.identity(basis) - q_diag_set(basis, T, one_param)


def rhat(g: Perm, nu: Weight, one_param: bool = False,
         basis: Basis | None = None) -> OpExpansion:
    """R̂(g) = Q(g)·R(g) with Q(g)_{i,i} = q_{i,g⁻¹}.

    >>> nu = Weight.generic_n(2)
    >>> op = rhat(cycle(1, 2, 2), nu)
    >>> print(op.to_matrix().entries[0][1])
    q12
    """
    if basis is None:
        basis = Basis.of_weight(nu)
    inv = g.inverse().inversion_set()
    d = DiagOp.of_func(basis, lambda w: q_mono(w, inv, one_param))
    return OpExpansion.single(g, d)


def mult_factor(g1: Perm, g2: Perm, nu: Weight, one_param: bool = False,
                basis: Basis | None = None) -> DiagOp:
    """M(g₁,g₂) with R̂(g₁)R̂(g₂) = M(g₁,g₂)·R̂(g₁g₂):
    the product of Q_{{a,b}} over inversions of g₁⁻¹ not shared with
    (g₁g₂)⁻¹.  Identity exactly when lengths add."""
    if basis is None:
        basis = Basis.of_weight(nu)
    lost = g1.inverse().inversion_set() - (g2.inverse() *
                                           g1.inverse()).inversion_set()
    d = DiagOp.identity(basis)
    for a, b in lost:
        d = d * q_diag_pair(basis, a, b, one_param) \
              * q_diag_pair(basis, b, a, one_param)
    return d


def build_generic(nu: Weight, one_param: bool = False) -> GramMatrix:
    """Gram matrix for a multiplicity-free weight: entry (i, j) is the
    monomial q_{i,σ} for the unique σ with σ·i = j.

    >>> A = build_generic(Weight.generic_n(2))
    >>> [str(e) for e in A.entries[1]]
    ['q21', '1']
    """
    if not nu.generic:
        raise ValueError("weight is degenerate; use build_degenerate")
    basis = Basis.of_weight(nu)
    ent = []
    for wi in basis.words:
        row = []
        for wj in basis.words:
            # sigma with sigma . wi = wj, i.e. wi[sigma^{-1}(p)-1] = wj[p-1]
            pos = {ch: k + 1 for k, ch in enumerate(wi)}
            sigma = Perm(pos[ch] for ch in wj).inverse()
            row.append(q_of_perm(wi, sigma, one_param))
        ent.append(row)
    return GramMatrix(basis, ent)


def _fiber_perms(wi, wj):
    """All σ with σ·wi = wj, i.e. wi[σ⁻¹(p)] = wj[p] (words as 0-based)."""
    n = len(wi)
    positions = {}
    for k, ch in enumerate(wi):
        positions.setdefault(ch, []).append(k + 1)
    letters = sorted(positions)
    # assign each letter's occurrences in wj to its positions in wi
    targets = {ch: [p for p in range(1, n + 1) if wj[p - 1] == ch]
               for ch in letters}
    if any(len(targets.get(ch, ())) != len(ps)
           for ch, ps in positions.items()):
        return
    choices = [itertools.permutations(positions[ch]) for ch in letters]
    for combo in itertools.product(*choices):
        inv = [0] * n
        for ch, perm_of_pos in zip(letters, combo):
            for p, src in zip(targets[ch], perm_of_pos):
                inv[p - 1] = src
        yield Perm(inv).inverse()


def build_degenerate(nu: Weight, one_param: bool = False) -> GramMatrix:
    """Gram matrix for a weight with repeated letters: entry (i, j) sums
    q_{i,σ} over all σ with σ·i = j.

    >>> A = build_degenerate(Weight({1: 2, 3: 1}))
    >>> print(A.entries[0][0])
    1 + q11
    """
    if nu.generic:
        return build_generic(nu, one_param)
    basis = Basis.of_weight(nu)
    ent = []
    for wi in basis.words:
        row = []
        for wj in basis.words:
            s = Poly.zero()
            for sigma in _fiber_perms(wi, wj):
                s = s + q_of_perm(wi, sigma, one_param)
            row.append(s)
        ent.append(row)
    return GramMatrix(basis, ent)


def factor_A_m(nu: Weight, m: int, one_param: bool = False,
               basis: Basis | None = None) -> OpExpansion:
    """A^{(ν),m} = Σ_{k=1..m} R̂(t_{k,m}); the Gram matrix factors as the
    ordered product A^{(ν),1} ⋯ A^{(ν),n}."""
    if basis is None:
        basis = Basis.of_weight(nu)
    n = basis.n
    if not (1 <= m <= n):
        raise ValueError(f"level m={m} out of range 1..{n}")
    out = OpExpansion.zero(basis)
    for k in range(1, m + 1):
        out = out + rhat(cycle(k, m, n), nu, one_param, basis)
    return out


def factor_CD(nu: Weight, m: int, one_param: bool = False,
              basis: Basis | None = None):
    """The elimination pair (C^{(ν),m}, D^{(ν),m}):

        C^{(ν),m} = ∏_{k=1..m-1} [I − R̂(t_{k,m})]
        D^{(ν),m} = ∏_{k=1..m}   [I − Q_{{m,m+1}} R̂(t_{k,m})]

    satisfying A^{(ν),m}·C^{(ν),m} = D^{(ν),m−1}.  D is only defined for
    m < n (it looks at position m+1); factor_CD returns (C, D) with D = None
    when m = n.
    """
    if basis is None:
        basis = Basis.of_weight(nu)
    n = basis.n
    if not (1 <= m <= n):
        raise ValueError(f"level m={m} out of range 1..{n}")
    ident = OpExpansion.identity(basis)
    C = ident
    for k in range(1, m):
        C = C * (ident - rhat(cycle(k, m, n), nu, one_param, basis))
    D = None
    if m < n:
        D = ident
        qmm = q_diag_set(basis, (m, m + 1), one_param)
        for k in range(1, m + 1):
            D = D * (ident - rhat(cycle(k, m, n), nu, one_param,
                                  basis).left_diag(qmm))
    return C, D


# ---------------------------------------------------------------------------
# degenerate -> generic embedding
# ---------------------------------------------------------------------------

@dataclass
class Embedding:
    """Generic model of a degenerate weight.

    The letters of ν are split into fresh position-labels 1..n (phi maps each
    fresh label back to its letter); H is the group of relabelings that
    preserve the fibers of phi, so the degenerate Gram matrix is the generic
    one restricted to H-invariant vectors.
    """

    weight: Weight
    generic_weight: Weight
    phi: dict          # fresh label (1..n) -> original letter
    group: tuple       # H as Perm objects acting on positions of words
    fibers: dict       # original letter -> tuple of fresh labels

    def lift(self, w) -> Word:
        """Canonical preimage: occurrences of each letter get that letter's
        fresh labels in left-to-right order."""
        used = {ch: 0 for ch in self.fibers}
        out = []
        for ch in Word(w):
            out.append(self.fibers[ch][used[ch]])
            used[ch] += 1
        return Word(out)

    def project(self, w) -> Word:
        return Word(self.phi[ch] for ch in Word(w))

    def label_map(self):
        """Label renaming a -> phi(a) for Poly.map_labels (so q_{ab} becomes
        q_{phi(a) phi(b)})."""
        phi = self.phi
        return lambda i: phi[i]

    def transfer_entry(self, tilde_matrix: GramMatrix, wi, wj):
        """A^(ν)_{i,j} as the H-orbit sum Σ_{h∈H} Ã_{ĩ, h·j̃}.  The entries
        are summed as given; push them down along phi before or after."""
        ti, tj = self.lift(wi), self.lift(wj)
        total = None
        for h in self.group:
            # H acts by relabeling letters within fibers: (h.w)_p = h(w_p)
            val = tilde_matrix.entry(ti, Word(h(ch) for ch in tj))
            total = val if total is None else total + val
        return total


def embed_degenerate(nu: Weight) -> Embedding:
    """Split repeated letters of ν into distinct fresh labels 1..n and return
    the generic model together with the fiber-preserving symmetry group H.

    >>> emb = embed_degenerate(Weight({1: 2, 3: 1}))
    >>> emb.fibers[1], emb.fibers[3]
    ((1, 2), (3,))
    >>> len(emb.group)
    2
    """
    support = nu.support_word()
    n = nu.size
    phi = {k + 1: ch for k, ch in enumerate(support)}
    fibers = {}
    for fresh, ch in phi.items():
        fibers.setdefault(ch, []).append(fresh)
    fibers = {ch: tuple(v) for ch, v in fibers.items()}
    # H: all products of permutations within each fiber, acting on labels;
    # as a word action we permute the *labels*, realized by Perm on 1..n
    blocks = [v for v in fibers.values()]
    group = []
    for combo in itertools.product(*[itertools.permutations(b)
                                     for b in blocks]):
        img = list(range(1, n + 1))
        for orig, perm in zip(blocks, combo):
            for src, dst in zip(orig, perm):
                img[src - 1] = dst
        group.append(Perm(img))
    return Embedding(weight=nu, generic_weight=Weight.generic_n(n),
                     phi=phi, group=tuple(group), fibers=fibers)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
