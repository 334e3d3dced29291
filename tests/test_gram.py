import itertools

import pytest

from quongram import gram
from quongram.ring import GaussRat, Poly, pair_var
from quongram.fock import Word, Weight, inner_product
from quongram.perms import Perm, all_perms, cycle, longest_element
from quongram.gram import (Basis, DiagOp, GenericOp, GramMatrix, OpExpansion,
                           build_generic, build_degenerate, rhat, mult_factor,
                           q_diag_pair, q_diag_set, q_set, box_diag,
                           factor_A_m, factor_CD, embed_degenerate, q_of_perm,
                           pair_rule)
from quongram.boxes import BoxFactor, BoxFraction, as_part, sum_products
from quongram.inverse import inv_degenerate, inv_full

from conftest import hermitian_assignment, small_weights


def rand_perm(rng, n):
    img = list(range(1, n + 1))
    rng.shuffle(img)
    return Perm(img)


def sum_rhat(nu, one_param=False):
    basis = Basis.of_weight(nu)
    out = OpExpansion.zero(basis)
    for g in all_perms(basis.n):
        out = out + rhat(g, nu, one_param)
    return out


# ---------------------------------------------------------------------------
# the matrix itself against the pairing oracle
# ---------------------------------------------------------------------------

def test_generic_matches_pairing():
    for n in (1, 2, 3, 4):
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
            assert A.entry(wj, wi) == A.entry(wi, wj).conjugate()


@pytest.mark.parametrize("n, one_param, distinct", [
    (4, False, 219), (5, False, 4231), (4, True, 7), (5, True, 11)])
def test_generic_entries_follow_the_pair_rule(n, one_param, distinct):
    A = build_generic(Weight.generic_n(n), one_param)
    words = A.basis.words
    for wi, row in zip(words, A.entries):
        pos = {ch: k + 1 for k, ch in enumerate(wi)}
        for wj, e in zip(words, row):
            sigma = Perm(pos[ch] for ch in wj).inverse()
            assert sigma.act_word(wi) == wj
            assert e == q_of_perm(wi, sigma, one_param)
    # each distinct monomial is one shared object
    entries = [e for row in A.entries for e in row]
    assert len({id(e) for e in entries}) == len(set(entries)) == distinct


# a degenerate weight of each size, whose fresh labels 1..n give the pair
# rule one variable for several fresh pairs: from n = 3 on, a product
# reaches exponent 2 or more in it
DEGENERATE_OF_SIZE = {2: {1: 2}, 3: {1: 2, 2: 1}, 4: {1: 2, 2: 2},
                      5: {1: 2, 2: 2, 3: 1}}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pair_rule_keys_match_monomials(n):
    # pair_rule adds packed keys; each distinct mask's entry must be the
    # product of its pairs' variables built by Poly.monomial, under A_n's
    # map, the symmetric Varchenko map and a degenerate model's map
    nu = Weight.generic_n(n)
    maps = {"pair_var": pair_var,
            "symmetric": lambda x, y: pair_var(min(x, y), max(x, y))}
    if n in DEGENERATE_OF_SIZE:
        maps["degenerate"] = embed_degenerate(
            Weight(DEGENERATE_OF_SIZE[n])).var
    before = [set(itertools.combinations(w, 2))
              for w in Basis.of_weight(nu).words]
    for name, var in maps.items():
        A = pair_rule(nu, var)
        want = {}
        for bi, row in zip(before, A.entries):
            for bj, e in zip(before, row):
                # x before y in w_i and y before x in w_j
                mask = frozenset(bi - bj)
                if mask not in want:
                    want[mask] = Poly.monomial(var(x, y) for x, y in mask)
                assert e == want[mask], (name, mask)
        # one shared Poly per distinct mask
        assert len({id(e) for row in A.entries for e in row}) == len(want)
        top = max((e for p in want.values() for m in p.terms for _, e in m),
                  default=0)
        assert top >= 2 if name == "degenerate" and n >= 3 else top <= 1


def test_evaluate_once_per_distinct_entry(rng):
    A = build_generic(Weight.generic_n(4))
    a = hermitian_assignment(A.basis.weight.labels, rng)
    assert A.evaluate(a, "hermitian") == [
        [e.evaluate(a, "hermitian") for e in row] for row in A.entries]
    seen = []
    rows = A.map_distinct(lambda e: seen.append(e) or str(e))
    assert rows == [[str(e) for e in row] for row in A.entries]
    assert len(seen) == 219
    bad = dict(a)
    bad[("q", 1, 2)] = a[("q", 1, 2)] + GaussRat.of(0, 1)
    with pytest.raises(ValueError):
        A.evaluate(bad, "hermitian")


def test_degenerate_golden_entries():
    A = build_degenerate(Weight({1: 2, 3: 1}))
    assert [str(w) for w in A.basis.words] == ["113", "131", "311"]
    assert str(A.entry(Word.parse("113"), Word.parse("113"))) == "1 + q11"
    assert A.entry(Word.parse("113"), Word.parse("131")) == Poly.parse("q13 + q11*q13")
    assert A.entry(Word.parse("113"), Word.parse("311")) == \
        Poly.parse("q13^2 + q11*q13^2")


@pytest.mark.parametrize("lifts", [1, 5])
def test_degenerate_reads_fibers_in_chunks(monkeypatch, lifts):
    # a fiber longer than a chunk of lifts is read in several chunks; the
    # entries do not depend on where the chunks end (2,2,1 has 4 lifts per
    # fiber, 2,2,2 has 8)
    for nu in (Weight({1: 2, 2: 2, 3: 1}), Weight({1: 2, 2: 2, 3: 2})):
        want = build_degenerate(nu)
        monkeypatch.setattr(gram, "_LIFTS", lifts)
        assert build_degenerate(nu) == want
        monkeypatch.undo()


def test_one_letter_entry_is_the_q_factorial():
    # the weight 8 has one word and one fiber of 8! = 40 320 lifts, more
    # than one chunk: its entry sums q11^inv(σ) over S_8, which is
    # [8]_q! = prod_m (1 + q11 + ... + q11^(m-1))
    want = Poly.one()
    for m in range(1, 9):
        want = want * Poly.parse(" + ".join(["1"] + [f"q11^{e}"
                                                     for e in range(1, m)]))
    assert build_degenerate(Weight({1: 8})).entries == [[want]]


@pytest.mark.parametrize("nu", [Weight.generic_n(4),
                                Weight({1: 2, 2: 1, 3: 1})])
def test_basis_act_is_the_place_permutation(nu):
    b = Basis.of_weight(nu)
    act = {g: b.act(g) for g in all_perms(4)}
    for g in all_perms(4):
        assert list(act[g]) == [b.index(g.act_word(w)) for w in b.words]
        for h in all_perms(4):
            # R(g)R(h) = R(gh)
            assert act[g * h] == tuple(act[g][i] for i in act[h])


def test_one_basis_per_weight():
    assert Basis.of_weight(Weight.generic_n(4)) is \
        Basis.of_weight(Weight({1: 1, 2: 1, 3: 1, 4: 1}))


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
    for g1 in all_perms(3):
        for g2 in all_perms(3):
            lhs = rhat(g1, nu) * rhat(g2, nu)
            m = mult_factor(g1, g2, nu)
            rhs = rhat(g1 * g2, nu).left_diag(m)
            assert lhs == rhs


def test_multiplication_factor_random_n4(rng):
    nu = Weight.generic_n(4)
    for _ in range(12):
        g1, g2 = rand_perm(rng, 4), rand_perm(rng, 4)
        lhs = rhat(g1, nu) * rhat(g2, nu)
        m = mult_factor(g1, g2, nu)
        assert lhs == rhat(g1 * g2, nu).left_diag(m)


def test_quasimultiplicative_iff_lengths_add():
    nu = Weight.generic_n(3)
    basis = Basis.of_weight(nu)
    ident = DiagOp.identity(basis)
    for g1 in all_perms(3):
        for g2 in all_perms(3):
            adds = (g1 * g2).length() == g1.length() + g2.length()
            trivial = mult_factor(g1, g2, nu) == ident
            assert adds == trivial


def test_braid_relations():
    nu = Weight.generic_n(4)

    def t(a):
        return rhat(cycle(a, a + 1, 4), nu)

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
                lhs = rhat(g, nu) * rhat(t, nu)
                d = DiagOp.identity(basis)
                for i in range(a, b):
                    if g(i) > g(b):
                        d = d * q_diag_set(basis, (g(b), g(i)))
                rhs = rhat(g * t, nu).left_diag(d)
                assert lhs == rhs


def test_parabolic_shifts_multiply():
    # for g preserving {1..m-1} the factor with t_{k,m} is trivial
    nu = Weight.generic_n(4)
    for m in (2, 3, 4):
        for g in all_perms(4):
            if set(g(x) for x in range(1, m)) != set(range(1, m)):
                continue
            for k in range(1, m + 1):
                t = cycle(k, m, 4)
                lhs = rhat(g, nu) * rhat(t, nu)
                assert lhs == rhat(g * t, nu)


def test_commutation_rule():
    # R̂(t_{a',m})R̂(t_{a,m}) = Q_{{m-1,m}} R̂(t_{a,m-1}) R̂(t_{a'+1,m})
    # for 1 <= a <= a' < m
    nu = Weight.generic_n(4)
    basis = Basis.of_weight(nu)
    for m in (2, 3, 4):
        for a in range(1, m):
            for ap in range(a, m):
                lhs = rhat(cycle(ap, m, 4), nu) * \
                    rhat(cycle(a, m, 4), nu)
                rhs = (rhat(cycle(a, m - 1, 4), nu) *
                       rhat(cycle(ap + 1, m, 4), nu)
                       ).left_diag(q_diag_set(basis, (m - 1, m)))
                assert lhs == rhs


def test_longest_element_rule():
    # R̂(g w_n)R̂(w_n) = (∏_{a<b, g^{-1}(a)<g^{-1}(b)} Q_{{a,b}}) R̂(g)
    n = 4
    nu = Weight.generic_n(n)
    basis = Basis.of_weight(nu)
    w = longest_element(1, n, n)
    for g in all_perms(n):
        lhs = rhat(g * w, nu) * rhat(w, nu)
        gi = g.inverse()
        d = DiagOp.identity(basis)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                if gi(a) < gi(b):
                    d = d * q_diag_set(basis, (a, b))
        assert lhs == rhat(g, nu).left_diag(d)
        # and the left-handed version through w_n g
        assert lhs == rhat(w, nu) * rhat(w * g, nu)


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
                    prod = prod * rhat(cycle(a, m, 4), nu)
                    gprod = gprod * cycle(a, m, 4)
                assert prod == rhat(gprod, nu)


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
            prod = prod * factor_A_m(nu, m)
        assert prod == sum_rhat(nu)


def test_level_factorization_one_param():
    nu = Weight.generic_n(4)
    basis = Basis.of_weight(nu)
    prod = OpExpansion.identity(basis)
    for m in range(1, 5):
        prod = prod * factor_A_m(nu, m, True)
    assert prod == sum_rhat(nu, True)


def test_elimination_pair():
    # A^m C^m = D^{m-1}
    for nu in (Weight.generic_n(4), Weight({1: 2, 3: 1}), Weight({1: 2, 2: 2}),
               Weight({1: 2, 2: 1, 3: 1})):
        basis = Basis.of_weight(nu)
        for m in range(2, basis.n + 1):
            C, _ = factor_CD(nu, m)
            _, D_prev = factor_CD(nu, m - 1)
            assert factor_A_m(nu, m) * C == D_prev


def test_elimination_pair_bottom_level():
    nu = Weight.generic_n(3)
    basis = Basis.of_weight(nu)
    C1, D1 = factor_CD(nu, 1)
    assert C1 == OpExpansion.identity(basis)
    assert factor_A_m(nu, 1) == OpExpansion.identity(basis)
    assert D1 is not None
    _, D_last = factor_CD(nu, 3)
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
    # the pushed-down generic matrix, summed over the fiber of w_j from
    # every lift of w_i, is the degenerate matrix
    for nu in (Weight({1: 2, 3: 1}), Weight({1: 2, 2: 2}), Weight({2: 3})):
        emb = embed_degenerate(nu)
        tilde = build_generic(emb.generic_weight)
        down = [[e.map_labels(emb.phi.__getitem__) for e in row]
                for row in tilde.entries]
        pushed = GramMatrix(tilde.basis, down)
        A = build_degenerate(nu)
        for wi in A.basis.words:
            for wj in A.basis.words:
                for ti in emb.fiber(wi):
                    assert sum((pushed.entry(ti, tw)
                                for tw in emb.fiber(wj)),
                               Poly.zero()) == A.entry(wi, wj)
        assert emb.push_down(
            lambda ti: lambda tw: pushed.entry(ti, tw),
            lambda vals: sum(vals, Poly.zero())) == A


def test_embedding_group_size():
    # each fiber holds prod m_i! distinct lifts, the canonical one first
    for nu, size in ((Weight({1: 2, 2: 2}), 4),
                     (Weight({1: 3, 2: 1, 3: 2}), 12)):
        emb = embed_degenerate(nu)
        for w in Basis.of_weight(nu).words:
            lifts = list(emb.fiber(w))
            assert len(set(lifts)) == len(lifts) == size
            assert lifts[0] == emb.lift(w)
            assert all(tuple(emb.phi[x] for x in t) == w for t in lifts)
    emb = embed_degenerate(Weight({1: 2, 2: 2}))
    assert emb.lift(Word.parse("1212")) == Word((1, 3, 2, 4))


@pytest.mark.parametrize("mults", [{1: 2, 2: 2, 3: 1}, {1: 3, 2: 2},
                                   {1: 2, 2: 1, 3: 1, 4: 1}])
@pytest.mark.parametrize("one_param", [False, True])
def test_degenerate_entries_are_sigma_sums(mults, one_param):
    # the definition at |nu| = 5: entry (i, j) sums q_{i,sigma} over every
    # sigma in S_5 with sigma.w_i = w_j
    nu = Weight(mults)
    A = build_degenerate(nu, one_param)
    for wi, row in zip(A.basis.words, A.entries):
        want = {}
        for sigma in all_perms(5):
            wj = sigma.act_word(wi)
            want[wj] = want.get(wj, Poly.zero()) + q_of_perm(wi, sigma,
                                                             one_param)
        assert dict(zip(A.basis.words, row)) == want


def test_box_diag_values():
    basis = Basis.of_weight(Weight.generic_n(2))
    d = box_diag(basis, (1, 2))
    assert d.value_at(Word((1, 2))) == \
        Poly.one() - Poly.var(1, 2) * Poly.var(2, 1)
    assert q_diag_pair(basis, 1, 2).value_at(Word((2, 1))) == Poly.var(2, 1)


@pytest.mark.parametrize("one_param", [False, True])
def test_q_set_is_the_q_part_of_a_box(one_param):
    for nu in (Weight.generic_n(4), Weight({1: 2, 2: 2})):
        basis = Basis.of_weight(nu)
        for T in ((1, 2), (4, 2), (1, 3, 4), (1, 2, 3, 4)):
            d = q_diag_set(basis, T, one_param)
            for w in basis.words:
                q = q_set(w, T, one_param)
                assert d.value_at(w) == q
                assert q == Poly.one() - BoxFactor(w, T, one_param).expand()


def test_expansion_rules_are_shared_and_keep_the_class():
    basis = Basis.of_weight(Weight.generic_n(3))
    g = cycle(1, 3, 3)
    two = Poly.const(2)
    op = OpExpansion.identity(basis) + rhat(g, basis.weight)
    gen = GenericOp.identity(basis) + GenericOp.rhat(g, basis)
    for x, d in ((op, DiagOp(basis, (two,) * basis.size)), (gen, two)):
        assert type(x) is type(x + x) is type(x.left_diag(d)) is type(-x)
        assert x + x == x.left_diag(d)
        assert (x - x).coefficients == {}
        assert len(x.coefficients) == 2
    # the same operator in the two representations is never equal
    assert op != gen and gen != op
    assert not (op == gen or gen == op)


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


def _matmul_by_entry_sums(x, y):
    """Reference product: one ``sum_products`` per entry over the columns
    of y as they are, with no column put over a common denominator."""
    n = x.basis.size
    return GramMatrix(x.basis, [
        [sum_products([(x.entries[a][k], y.entries[k][b]) for k in range(n)
                       if not (isinstance(x.entries[a][k], Poly)
                               and x.entries[a][k].is_zero())])
         for b in range(n)] for a in range(n)])


def _forms(m):
    """Each entry's class, numerator and denominator: equal forms print
    equally, and comparing them spares printing the n = 4 entries of
    inv * inv, which takes seconds."""
    return [[(type(e), *as_part(e)) for e in row] for row in m.entries]


def test_matmul_columns_over_one_denominator_n4():
    # in both modes every column of the right factor is lifted to its
    # common denominator, each row of the left factor is grouped by
    # denominator once, and each entry is summed once: every entry prints
    # as one sum_products of its pairs as they are, in all three operand
    # orders, and on a degenerate weight, whose inverse is pushed down
    for one_param in (False, True):
        nu = Weight.generic_n(4)
        A = build_generic(nu, one_param)
        inv = inv_full(nu, "fast", one_param).to_matrix()
        nu2 = Weight({1: 2, 2: 2})
        B = build_degenerate(nu2, one_param)
        inv2 = inv_degenerate(nu2, one_param)
        for x, y, identity in ((A, inv, True), (inv, A, True),
                               (inv, inv, False), (inv2, B, True)):
            prod = x.matmul(y)
            assert _forms(prod) == _forms(_matmul_by_entry_sums(x, y))
            if identity:
                size = x.basis.size
                assert prod.to_json()["entries"] == [
                    ["1" if i == j else "0" for j in range(size)]
                    for i in range(size)]


def test_matmul_group_meeting_only_zeros_has_no_say_in_the_denominator():
    # one-parameter boxes B2 = 1 - q^2 and B3 = 1 - q^6, and B2 divides B3:
    # row 0 has a group over B3 and one over B2, and column 0 is zero
    # against the first, so entry (0, 0) sums over B2 alone, as
    # sum_products does; over the row's common denominator B2*B3 it would
    # reduce to another form of the same value, (1 + q^2 + q^4) / B3;
    # entry (1, 1), of Polys alone, is a Poly
    basis = Basis.of_weight(Weight.generic_n(2))
    b2 = BoxFactor((1, 2), (1, 2), True)
    b3 = BoxFactor((1, 2, 3), (1, 2, 3), True)
    x = GramMatrix(basis, [[BoxFraction(Poly.one(), (b3,)),
                            BoxFraction(Poly.one(), (b2,))],
                           [Poly.one(), Poly.zero()]])
    y = GramMatrix(basis, [[Poly.zero(), Poly.one()],
                           [Poly.one(), Poly.one()]])
    prod = x.matmul(y)
    assert str(prod.entries[0][0]) == "1 / Box{1,2}"
    assert type(prod.entries[1][1]) is Poly
    assert _forms(prod) == _forms(_matmul_by_entry_sums(x, y))


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
