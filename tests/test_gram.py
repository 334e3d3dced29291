import itertools
import random

import pytest

from quongram.ring import Poly, conjugate
from quongram.fock import Word, Weight, inner_product
from quongram.perms import Perm, all_perms, cycle, longest_element
from quongram.gram import (Basis, DiagOp, GramMatrix, OpExpansion,
                           build_generic, build_degenerate, rhat, mult_factor,
                           q_diag_pair, q_diag_set, box_diag, factor_A_m,
                           factor_CD, embed_degenerate)
from quongram.inverse import inv_full

from conftest import small_weights


def rand_perm(rng, n):
    img = list(range(1, n + 1))
    rng.shuffle(img)
    return Perm(img)


def sum_rhat(nu, one_param=False):
    basis = Basis.of_weight(nu)
    out = OpExpansion.zero(basis)
    for g in all_perms(basis.n):
        out = out + rhat(g, nu, one_param, basis)
    return out


# ---------------------------------------------------------------------------
# the matrix itself against the pairing oracle
# ---------------------------------------------------------------------------

def test_generic_matches_pairing():
    for n in (1, 2, 3):
        A = build_generic(Weight.generic_n(n))
        for wi in A.basis.words:
            for wj in A.basis.words:
                assert A.entry(wi, wj) == inner_product(wi, wj)


def test_degenerate_matches_pairing():
    for nu in small_weights(4):
        A = build_degenerate(nu)
        for wi in A.basis.words:
            for wj in A.basis.words:
                assert A.entry(wi, wj) == inner_product(wi, wj)


def test_generic_golden_entries():
    A = build_generic(Weight.generic_n(3))
    assert A.basis.size == 6
    assert str(A.entry(Word.parse("123"), Word.parse("123"))) == "1"
    assert A.entry(Word.parse("123"), Word.parse("321")) == \
        Poly.var(1, 2) * Poly.var(1, 3) * Poly.var(2, 3)
    assert A.entry(Word.parse("213"), Word.parse("231")) == Poly.var(1, 3)
    # conjugate-transpose symmetry
    for wi in A.basis.words:
        for wj in A.basis.words:
            assert A.entry(wj, wi) == conjugate(A.entry(wi, wj))


def test_degenerate_golden_entries():
    A = build_degenerate(Weight({1: 2, 3: 1}))
    assert [str(w) for w in A.basis.words] == ["113", "131", "311"]
    assert str(A.entry(Word.parse("113"), Word.parse("113"))) == "1 + q11"
    assert A.entry(Word.parse("113"), Word.parse("131")) == Poly.parse("q13 + q11*q13")
    assert A.entry(Word.parse("113"), Word.parse("311")) == \
        Poly.parse("q13^2 + q11*q13^2")


# ---------------------------------------------------------------------------
# the permutation expansion:  A = sum of projective shifts
# ---------------------------------------------------------------------------

def test_sum_of_shifts_is_gram():
    for nu in (Weight.generic_n(3), Weight({1: 2, 3: 1}),
               Weight({1: 2, 2: 2})):
        assert sum_rhat(nu).to_matrix() == build_degenerate(nu)


def test_sum_of_shifts_one_param():
    nu = Weight.generic_n(3)
    assert sum_rhat(nu, True).to_matrix() == build_generic(nu, True)


def test_multiplication_factor():
    # R̂(g1)R̂(g2) = M(g1,g2)·R̂(g1 g2) with M a product of |q|² diagonals
    nu = Weight.generic_n(3)
    basis = Basis.of_weight(nu)
    for g1 in all_perms(3):
        for g2 in all_perms(3):
            lhs = rhat(g1, nu, basis=basis) * rhat(g2, nu, basis=basis)
            m = mult_factor(g1, g2, nu, basis=basis)
            rhs = rhat(g1 * g2, nu, basis=basis).left_diag(m)
            assert lhs == rhs


def test_multiplication_factor_random_n4(rng):
    nu = Weight.generic_n(4)
    basis = Basis.of_weight(nu)
    for _ in range(12):
        g1, g2 = rand_perm(rng, 4), rand_perm(rng, 4)
        lhs = rhat(g1, nu, basis=basis) * rhat(g2, nu, basis=basis)
        m = mult_factor(g1, g2, nu, basis=basis)
        assert lhs == rhat(g1 * g2, nu, basis=basis).left_diag(m)


def test_quasimultiplicative_iff_lengths_add():
    nu = Weight.generic_n(3)
    basis = Basis.of_weight(nu)
    ident = DiagOp.identity(basis)
    for g1 in all_perms(3):
        for g2 in all_perms(3):
            adds = (g1 * g2).length() == g1.length() + g2.length()
            trivial = mult_factor(g1, g2, nu, basis=basis) == ident
            assert adds == trivial


def test_braid_relations():
    nu = Weight.generic_n(4)
    basis = Basis.of_weight(nu)

    def t(a):
        return rhat(cycle(a, a + 1, 4), nu, basis=basis)

    for a in (1, 2):
        assert t(a) * t(a + 1) * t(a) == t(a + 1) * t(a) * t(a + 1)
    assert t(1) * t(3) == t(3) * t(1)


def test_shift_by_cycle_factor(rng):
    # R̂(g)R̂(t_{a,b}) = ∏_{a<=i<b, g(i)>g(b)} Q_{{g(b),g(i)}} R̂(g t_{a,b})
    nu = Weight.generic_n(4)
    basis = Basis.of_weight(nu)
    for _ in range(8):
        g = rand_perm(rng, 4)
        for a in range(1, 5):
            for b in range(a + 1, 5):
                t = cycle(a, b, 4)
                lhs = rhat(g, nu, basis=basis) * rhat(t, nu, basis=basis)
                d = DiagOp.identity(basis)
                for i in range(a, b):
                    if g(i) > g(b):
                        d = d * q_diag_set(basis, (g(b), g(i)))
                rhs = rhat(g * t, nu, basis=basis).left_diag(d)
                assert lhs == rhs


def test_parabolic_shifts_multiply():
    # for g preserving {1..m-1} the factor with t_{k,m} is trivial
    nu = Weight.generic_n(4)
    basis = Basis.of_weight(nu)
    for m in (2, 3, 4):
        for g in all_perms(4):
            if set(g(x) for x in range(1, m)) != set(range(1, m)):
                continue
            for k in range(1, m + 1):
                t = cycle(k, m, 4)
                lhs = rhat(g, nu, basis=basis) * rhat(t, nu, basis=basis)
                assert lhs == rhat(g * t, nu, basis=basis)


def test_commutation_rule():
    # R̂(t_{a',m})R̂(t_{a,m}) = Q_{{m-1,m}} R̂(t_{a,m-1}) R̂(t_{a'+1,m})
    # for 1 <= a <= a' < m
    nu = Weight.generic_n(4)
    basis = Basis.of_weight(nu)
    for m in (2, 3, 4):
        for a in range(1, m):
            for ap in range(a, m):
                lhs = rhat(cycle(ap, m, 4), nu, basis=basis) * \
                    rhat(cycle(a, m, 4), nu, basis=basis)
                rhs = (rhat(cycle(a, m - 1, 4), nu, basis=basis) *
                       rhat(cycle(ap + 1, m, 4), nu, basis=basis)
                       ).left_diag(q_diag_set(basis, (m - 1, m)))
                assert lhs == rhs


def test_longest_element_rule():
    # R̂(g w_n)R̂(w_n) = (∏_{a<b, g^{-1}(a)<g^{-1}(b)} Q_{{a,b}}) R̂(g)
    n = 4
    nu = Weight.generic_n(n)
    basis = Basis.of_weight(nu)
    w = longest_element(1, n, n)
    for g in all_perms(n):
        lhs = rhat(g * w, nu, basis=basis) * rhat(w, nu, basis=basis)
        gi = g.inverse()
        d = DiagOp.identity(basis)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                if gi(a) < gi(b):
                    d = d * q_diag_set(basis, (a, b))
        assert lhs == rhat(g, nu, basis=basis).left_diag(d)
        # and the left-handed version through w_n g
        assert lhs == rhat(w, nu, basis=basis) * rhat(w * g, nu, basis=basis)


def test_increasing_cycles_multiply():
    # R̂(t_{a1,m})···R̂(t_{as,m}) = R̂(t_{a1,m}···t_{as,m}) for a1<...<as<m
    nu = Weight.generic_n(4)
    basis = Basis.of_weight(nu)
    for m in (2, 3, 4):
        for s in range(1, m):
            for avec in itertools.combinations(range(1, m), s):
                prod = OpExpansion.identity(basis)
                gprod = Perm.identity(4)
                for a in avec:
                    prod = prod * rhat(cycle(a, m, 4), nu, basis=basis)
                    gprod = gprod * cycle(a, m, 4)
                assert prod == rhat(gprod, nu, basis=basis)


# ---------------------------------------------------------------------------
# the two factorizations
# ---------------------------------------------------------------------------

def test_level_factorization():
    # A = A^1 A^2 ... A^n
    for nu in (Weight.generic_n(3), Weight.generic_n(4),
               Weight({1: 2, 3: 1}), Weight({1: 2, 2: 2})):
        basis = Basis.of_weight(nu)
        prod = OpExpansion.identity(basis)
        for m in range(1, basis.n + 1):
            prod = prod * factor_A_m(nu, m, basis=basis)
        assert prod == sum_rhat(nu)


def test_level_factorization_one_param():
    nu = Weight.generic_n(4)
    basis = Basis.of_weight(nu)
    prod = OpExpansion.identity(basis)
    for m in range(1, 5):
        prod = prod * factor_A_m(nu, m, True, basis)
    assert prod == sum_rhat(nu, True)


def test_elimination_pair():
    # A^m C^m = D^{m-1}
    for nu in (Weight.generic_n(4), Weight({1: 2, 3: 1})):
        basis = Basis.of_weight(nu)
        for m in range(2, basis.n + 1):
            C, _ = factor_CD(nu, m, basis=basis)
            _, D_prev = factor_CD(nu, m - 1, basis=basis)
            assert factor_A_m(nu, m, basis=basis) * C == D_prev


def test_elimination_pair_bottom_level():
    nu = Weight.generic_n(3)
    basis = Basis.of_weight(nu)
    C1, D1 = factor_CD(nu, 1, basis=basis)
    assert C1 == OpExpansion.identity(basis)
    assert factor_A_m(nu, 1, basis=basis) == OpExpansion.identity(basis)
    assert D1 is not None
    _, D_last = factor_CD(nu, 3, basis=basis)
    assert D_last is None


def test_factor_level_out_of_range():
    nu = Weight.generic_n(3)
    with pytest.raises(ValueError):
        factor_A_m(nu, 4)
    with pytest.raises(ValueError):
        factor_CD(nu, 0)


# ---------------------------------------------------------------------------
# degenerate weights through the generic model
# ---------------------------------------------------------------------------

def test_embedding_orbit_sums():
    for nu in (Weight({1: 2, 3: 1}), Weight({1: 2, 2: 2}), Weight({2: 3})):
        emb = embed_degenerate(nu)
        tilde = build_generic(emb.generic_weight)
        down = [[e.map_labels(emb.label_map()) for e in row]
                for row in tilde.entries]
        pushed = GramMatrix(tilde.basis, down)
        A = build_degenerate(nu)
        for wi in A.basis.words:
            for wj in A.basis.words:
                assert emb.transfer_entry(pushed, wi, wj) == A.entry(wi, wj)


def test_embedding_group_size():
    emb = embed_degenerate(Weight({1: 2, 2: 2}))
    assert len(emb.group) == 4
    assert emb.lift(Word.parse("1212")) == Word((1, 3, 2, 4))
    assert emb.project(Word((1, 3, 2, 4))) == Word((1, 2, 1, 2))


def test_box_diag_values():
    basis = Basis.of_weight(Weight.generic_n(2))
    d = box_diag(basis, (1, 2))
    assert d.value_at(Word((1, 2))) == \
        Poly.one() - Poly.var(1, 2) * Poly.var(2, 1)
    assert q_diag_pair(basis, 1, 2).value_at(Word((2, 1))) == Poly.var(2, 1)


# ---------------------------------------------------------------------------
# matrix product: one common-denominator sum per entry
# ---------------------------------------------------------------------------

def _matmul_by_additions(x, y):
    """Reference product: each entry is a left-to-right chain of +."""
    n = x.basis.size
    out = []
    for a in range(n):
        row = []
        for b in range(n):
            total = Poly.zero()
            for k in range(n):
                if isinstance(x.entries[a][k], Poly) and \
                        x.entries[a][k].is_zero():
                    continue
                total = total + x.entries[a][k] * y.entries[k][b]
            row.append(total)
        out.append(row)
    return GramMatrix(x.basis, out)


@pytest.mark.parametrize("one_param", [False, True])
def test_matmul_matches_entrywise_sums(one_param):
    nu = Weight.generic_n(3)
    A = build_generic(nu, one_param)
    inv = inv_full(nu, "fast", one_param).to_matrix()
    # both orders give the identity; inv * inv has real denominators
    for x, y in ((A, inv), (inv, A), (inv, inv)):
        prod = x.matmul(y)
        assert prod.to_json() == _matmul_by_additions(x, y).to_json()
        # every entry comes out reduced
        for e in itertools.chain.from_iterable(prod.entries):
            assert not any(f.expand().divides(e.num) for f in e.den)
