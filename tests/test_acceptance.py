"""
End-to-end acceptance gate.  One test per criterion; each prints a single
PASS/FAIL line with its elapsed time (run pytest with -s to see them live).
"""

import itertools
import random
import time
from fractions import Fraction

from quongram.ring import Poly, GaussRat, pair_var, random_hermitian
from quongram.boxes import BoxFactor, BoxFraction
from quongram.fock import Word, Weight, inner_product, check_ccr
from quongram.perms import Perm, all_perms, cycle, longest_element
from quongram.gram import (Basis, DiagOp, OpExpansion, build_generic,
                           build_degenerate, rhat, mult_factor, q_diag_set,
                           q_mono, factor_A_m, factor_CD)
from quongram import determinant as det_mod
from quongram import inverse as inv_mod
from quongram import subdiv
from quongram import applications as app_mod


SEED = 0x5eed


def report(num, desc, fn):
    t0 = time.time()
    try:
        fn()
    except AssertionError:
        print(f"criterion {num:2d}: FAIL ({time.time() - t0:6.1f}s)  {desc}")
        raise
    print(f"criterion {num:2d}: PASS ({time.time() - t0:6.1f}s)  {desc}")


def P(s):
    return Poly.parse(s)


# ---------------------------------------------------------------------------
# 1. golden matrices
# ---------------------------------------------------------------------------

def test_criterion_01_golden_matrices():
    def body():
        # 6x6 generic three-letter matrix in the documented basis order
        order = [Word.parse(s) for s in
                 ("123", "132", "312", "321", "231", "213")]
        A = build_generic(Weight.generic_n(3))
        got = [[A.entry(wi, wj) for wj in order] for wi in order]
        given = [
            ["1", "q23", "q23*q13", "q12*q13*q23", "q12*q13", "q12"],
            ["q32", "1", "q13", "q13*q12", "q12*q13*q32", "q12*q32"],
            ["q32*q31", "q31", "1", "q12", "q12*q32", "q12*q31*q32"],
            [None, None, None, "1", "q32", "q31*q32"],
            [None, None, None, "q23", "1", "q31"],
            [None, None, None, "q13*q23", "q13", "1"],
        ]
        want = [[P(e) if e is not None else None for e in row]
                for row in given]
        for i in range(6):            # elided block by hermitian symmetry
            for j in range(6):
                if want[i][j] is None:
                    want[i][j] = want[j][i].conjugate()
        assert got == want

        # 3x3 degenerate matrix on words 113, 131, 311
        D = build_degenerate(Weight({1: 2, 3: 1}))
        assert [str(w) for w in D.basis.words] == ["113", "131", "311"]
        assert D.entries == [
            [P("1 + q11"), P("q13 + q11*q13"), P("q13^2 + q11*q13^2")],
            [P("q31 + q31*q11"), P("1 + q11*q13*q31"), P("q13 + q11*q13")],
            [P("q31^2 + q31^2*q11"), P("q31 + q31*q11"), P("1 + q11")],
        ]

    report(1, "golden 6x6 generic and 3x3 degenerate matrices", body)


# ---------------------------------------------------------------------------
# 2. determinant theorem
# ---------------------------------------------------------------------------

def test_criterion_02_determinant():
    def body():
        # exact symbolic equality, n <= 4 (dense elimination to n = 3, the
        # certified factor-chain elimination at n = 4)
        for n in (1, 2, 3):
            nu = Weight.generic_n(n)
            assert det_mod.det_elim(nu) == det_mod.det_formula(nu).expand()
        nu4 = Weight.generic_n(4)
        assert dict(det_mod.det_factor_chain(nu4).factors) == \
            dict(det_mod.det_formula(nu4).factors)

        # n = 5 at three seeded hermitian rational points
        rng = random.Random(SEED)
        nu5 = Weight.generic_n(5)
        A5 = build_generic(nu5)
        f5 = det_mod.det_formula(nu5)
        for _ in range(3):
            a = random_hermitian(nu5.labels, rng, 16, 9, 12)
            ent = [[e.evaluate(a, "hermitian") for e in row]
                   for row in A5.entries]
            assert det_mod.det_point(ent) == f5.evaluate(a)

        # one-parameter closed form
        assert str(det_mod.det_one_param(3)) == "(1 - q^2)^6 * (1 - q^6)"
        for n in range(2, 7):
            assert dict(det_mod.one_param_exponents(
                det_mod.det_formula(Weight.generic_n(n))).factors) == \
                dict(det_mod.det_one_param(n).factors)
        for n in (2, 3):
            assert det_mod.det_elim(Weight.generic_n(n), True) == \
                det_mod.det_one_param(n).expand()

    report(2, "factored determinant vs elimination, one-param closed form",
           body)


# ---------------------------------------------------------------------------
# 3. factorization identities
# ---------------------------------------------------------------------------

def test_criterion_03_factorizations():
    def body():
        for n in (2, 3, 4):
            nu = Weight.generic_n(n)
            basis = Basis.of_weight(nu)
            full = OpExpansion.zero(basis)
            for g in all_perms(n):
                full = full + rhat(g, nu)
            # sum of projective shifts is the matrix
            assert full.to_matrix() == build_generic(nu)
            # multiplication factor, quasimultiplicativity included
            ident = DiagOp.identity(basis)
            for g1 in all_perms(n):
                for g2 in all_perms(n):
                    m = mult_factor(g1, g2, nu)
                    assert rhat(g1, nu) * rhat(g2, nu) == \
                        rhat(g1 * g2, nu).left_diag(m)
                    adds = (g1 * g2).length() == g1.length() + g2.length()
                    assert adds == (m == ident)
            # braid relations
            def t(a):
                return rhat(cycle(a, a + 1, n), nu)
            for a in range(1, n - 1):
                assert t(a) * t(a + 1) * t(a) == t(a + 1) * t(a) * t(a + 1)
            for a in range(1, n):
                for b in range(a + 2, n):
                    assert t(a) * t(b) == t(b) * t(a)
            # shift-by-cycle expansion and the parabolic special case
            for g in all_perms(n):
                for a in range(1, n + 1):
                    for b in range(a + 1, n + 1):
                        tc = cycle(a, b, n)
                        d = DiagOp.identity(basis)
                        for i in range(a, b):
                            if g(i) > g(b):
                                d = d * q_diag_set(basis, (g(b), g(i)))
                        assert rhat(g, nu) * rhat(tc, nu) == \
                            rhat(g * tc, nu).left_diag(d)
            # commutation rules
            for m in range(2, n + 1):
                for a in range(1, m):
                    for ap in range(a, m):
                        lhs = (rhat(cycle(ap, m, n), nu) *
                               rhat(cycle(a, m, n), nu))
                        rhs = (rhat(cycle(a, m - 1, n), nu) *
                               rhat(cycle(ap + 1, m, n), nu)
                               ).left_diag(q_diag_set(basis, (m - 1, m)))
                        assert lhs == rhs
            # longest element rule, both handednesses
            w = longest_element(1, n, n)
            for g in all_perms(n):
                gi = g.inverse()
                d = DiagOp.identity(basis)
                for a in range(1, n + 1):
                    for b in range(a + 1, n + 1):
                        if gi(a) < gi(b):
                            d = d * q_diag_set(basis, (a, b))
                lhs = rhat(g * w, nu) * rhat(w, nu)
                assert lhs == rhat(g, nu).left_diag(d)
                assert lhs == rhat(w, nu) * rhat(w * g, nu)
            # increasing-cycle products
            for m in range(2, n + 1):
                for s in range(1, m):
                    for avec in itertools.combinations(range(1, m), s):
                        prod = OpExpansion.identity(basis)
                        gprod = Perm.identity(n)
                        for a in avec:
                            prod = prod * rhat(cycle(a, m, n), nu)
                            gprod = gprod * cycle(a, m, n)
                        assert prod == rhat(gprod, nu)
            # telescoping level factorization
            prod = OpExpansion.identity(basis)
            for m in range(1, n + 1):
                prod = prod * factor_A_m(nu, m)
            assert prod == full
            # elimination pair
            for m in range(2, n + 1):
                C, _ = factor_CD(nu, m)
                _, D_prev = factor_CD(nu, m - 1)
                assert factor_A_m(nu, m) * C == D_prev

    report(3, "operator factorization identities, n <= 4", body)


# ---------------------------------------------------------------------------
# 4. inverse cross-agreement
# ---------------------------------------------------------------------------

def test_criterion_04_inverse_methods():
    def body():
        for n in (2, 3, 4):
            nu = Weight.generic_n(n)
            ref = inv_mod.inv_full(nu, "fast")
            methods = ["long", "short", "chains", "zagier"]
            if n <= 3:
                methods.append("brute")
            for m in methods:
                assert inv_mod.inv_full(nu, m) == ref, (n, m)
            prod = build_generic(nu).matmul(ref.to_matrix())
            for i in range(prod.basis.size):
                for j in range(prod.basis.size):
                    e = prod.entries[i][j]
                    if isinstance(e, Poly):
                        e = BoxFraction(e)
                    assert e == (BoxFraction.one() if i == j
                                 else BoxFraction.zero())

        # n = 5: seeded 50-permutation sample, recursion against the closed
        # form (lambda_scalar cross-asserts both internally)
        rng = random.Random(SEED)
        letters = tuple(range(1, 6))
        for _ in range(50):
            g = inv_mod.random_tree_like(5, rng)
            fast = inv_mod.lambda_scalar(letters, g, check_closed=True)
            assert not fast.is_zero()

        # n = 5 evaluation-point identity: the numeric inverse really
        # inverts the numeric matrix, exactly (over scaled Gaussian integers)
        nu5 = Weight.generic_n(5)
        a = random_hermitian(nu5.labels, rng, 32, 12, 15)
        inv = inv_mod.inverse_matrix_at(nu5, a, "hermitian")
        A = build_generic(nu5)
        Ap = [[e.evaluate(a, "hermitian") for e in row] for row in A.entries]
        assert det_mod.is_inverse(Ap, inv)

    report(4, "five inversion methods agree; A . A^-1 = I", body)


# ---------------------------------------------------------------------------
# 5. published inverse values
# ---------------------------------------------------------------------------

def B(letters, one_param=False):
    word = tuple(letters)
    return BoxFactor(word, frozenset(range(1, len(word) + 1)), one_param)


def test_criterion_05_inverse_values():
    def body():
        q = Poly.single_q()

        def qp(e):
            return q ** e

        # identity coefficients of the one-parameter inverses
        want3 = BoxFraction(Poly.one() + qp(2),
                            (B((1, 2), True), B((1, 2, 3), True)))
        assert all(inv_mod.lambda_id(w, one_param=True) == want3
                   for w in Basis.of_weight(Weight.generic_n(3)).words)

        want4 = BoxFraction(
            Poly.one() + qp(2).scale(2) + qp(4) + qp(6).scale(2) + qp(8),
            (B((1, 2), True), B((1, 2, 3), True), B((1, 2, 3, 4), True)))
        assert all(inv_mod.lambda_id(w, one_param=True) == want4
                   for w in Basis.of_weight(Weight.generic_n(4)).words)

        # the full three-letter inverse display, coefficient by coefficient
        nu = Weight.generic_n(3)
        table = inv_mod.inv_full(nu, "fast")
        basis = table.basis

        def boxes(w, *blocks):
            return tuple(BoxFactor(tuple(w), frozenset(t)) for t in blocks)

        def Q(w, block):
            pairs = [(x, y) for x in block for y in block if x != y]
            return q_mono(tuple(w), pairs)

        full = (1, 2, 3)
        for w in basis.words:
            lam = {g: table.value_at(g, w) for g in table.support()}
            d12, d23 = boxes(w, (1, 2)), boxes(w, (2, 3))
            d123 = boxes(w, full)
            idc = BoxFraction(Poly.one() - Q(w, (1, 2)) * Q(w, (2, 3)),
                              d12 + d23 + d123)
            assert lam[Perm((1, 2, 3))] == idc
            assert lam[Perm((3, 2, 1))] == idc
            assert lam[Perm((2, 1, 3))] == BoxFraction(-Poly.one(),
                                                       d12 + d123)
            assert lam[Perm((3, 1, 2))] == BoxFraction(-Q(w, (1, 2)),
                                                       d12 + d123)
            assert lam[Perm((1, 3, 2))] == BoxFraction(-Poly.one(),
                                                       d23 + d123)
            assert lam[Perm((2, 3, 1))] == BoxFraction(-Q(w, (2, 3)),
                                                       d23 + d123)

        # the degenerate 3x3 inverse: (1/Delta) . adjugate display
        inv113 = inv_mod.inv_degenerate(Weight({1: 2, 3: 1}))
        delta = P("1 + q11") * P("1 - q13*q31") * P("1 - q11*q13*q31")
        # bottom-left entry is the hermitian conjugate of the top-right one
        # (q31^2*q11): the matrix is hermitian, so its inverse must be too
        display = [
            ["1", "-q13 - q11*q13", "q11*q13^2"],
            ["-q31 - q11*q31", "1 + q11 + q13*q31 + q11*q13*q31",
             "-q13 - q11*q13"],
            ["q31^2*q11", "-q31 - q11*q31", "1"],
        ]
        for i in range(3):
            for j in range(3):
                got = inv113.entries[i][j]
                den = Poly.one()
                for f in got.den:
                    den = den * f.expand()
                # cross-multiplied equality against num/Delta
                assert got.num * delta == P(display[i][j]) * den

    report(5, "published inverse coefficients and displays", body)


# ---------------------------------------------------------------------------
# 6. the n = 8 counterexample
# ---------------------------------------------------------------------------

def test_criterion_06_counterexample():
    def body():
        q = Poly.single_q()
        g = Perm((4, 3, 2, 1, 8, 7, 6, 5))
        lam = inv_mod.lambda_scalar(tuple(range(1, 9)), g, one_param=True,
                                    check_closed=True)
        # (1 + 2q^2 + q^4 + 2q^6 + q^8)^2 /
        #     ((1-q^56)(1-q^2)^2(1-q^6)^2(1-q^12)^2)
        num = (Poly.one() + (q ** 2).scale(2) + q ** 4
               + (q ** 6).scale(2) + q ** 8) ** 2
        den = Poly.one() - q ** 56
        for k in (2, 6, 12):
            den = den * (Poly.one() - q ** k) ** 2
        got_den = Poly.one()
        for f in lam.den:
            got_den = got_den * f.expand()
        assert lam.num * den == num * got_den

        # the single-copy denominator does not clear it ...
        bad = inv_mod.zagier_check(8, "original-conjecture", coeff=g)
        assert not bad.passed
        # ... while the multiplicity version does
        assert inv_mod.zagier_check(8, "one-param", coeff=g).passed
        # and the failure is precisely one surviving degree-12 box
        (_, _, leftover), = bad.failures
        assert "Box{1,2,3,4}" in leftover

        # single copies do suffice on the diagonal up to n = 5
        for n in range(2, 6):
            rep = inv_mod.zagier_check(n, "original-conjecture",
                                       coeff=Perm.identity(n))
            assert rep.passed, n

    report(6, "single-copy denominator fails at n = 8, holds to n = 5", body)


# ---------------------------------------------------------------------------
# 7. counting
# ---------------------------------------------------------------------------

def test_criterion_07_counting():
    def body():
        cs = subdiv.schroeder_counts(8)
        assert cs == [1, 1, 3, 11, 45, 197, 903, 4279]
        for n in range(1, 8):
            assert len(subdiv.enumerate_chains(n)) == cs[n - 1]
        for n in range(1, 9):
            assert subdiv.schroeder_closed_form_a(n) == cs[n - 1]
            assert subdiv.schroeder_closed_form_b(n) == cs[n - 1]
            assert subdiv.schroeder_closed_form_c(n) == cs[n - 1]
        for n in range(2, 7):
            by_size = {}
            for fam in subdiv.enumerate_bracketings(n, True):
                by_size[len(fam)] = by_size.get(len(fam), 0) + 1
            for k in range(1, n):
                assert by_size.get(k, 0) == subdiv.chain_count_by_size(n, k)
        assert [subdiv.chain_count_by_size(4, k) for k in (1, 2, 3)] == \
            [1, 5, 5]
        for n in range(1, 9):
            assert sum(subdiv.catalan_schroeder_poly(n)) == cs[n - 1]

    report(7, "chain counts, bracketing table, closed forms", body)


# ---------------------------------------------------------------------------
# 8. oracle consistency
# ---------------------------------------------------------------------------

def test_criterion_08_oracles():
    def body():
        def partitions(n, largest=None):
            largest = largest or n
            if n == 0:
                yield ()
                return
            for k in range(min(n, largest), 0, -1):
                for rest in partitions(n - k, k):
                    yield (k,) + rest

        for n in range(1, 5):
            for part in partitions(n):
                nu = Weight({i + 1: m for i, m in enumerate(part)})
                mat = (build_generic(nu) if nu.generic
                       else build_degenerate(nu))
                for i, wi in enumerate(mat.basis.words):
                    for j, wj in enumerate(mat.basis.words):
                        assert mat.entries[i][j] == inner_product(wi, wj)

        labels = (1, 2, 3)
        for i in labels:
            for j in labels:
                for k in range(5):
                    for w in itertools.product(labels, repeat=k):
                        assert check_ccr(i, j, Word(w))

    report(8, "derivative oracle and commutation relations", body)


# ---------------------------------------------------------------------------
# 9. applications
# ---------------------------------------------------------------------------

def test_criterion_09_applications():
    def body():
        rng = random.Random(SEED)
        # the arrangement form is the symmetric specialization
        for n in (2, 3, 4):
            Bm = app_mod.varchenko_matrix(n)
            A = build_generic(Weight.generic_n(n))
            for i in range(Bm.basis.size):
                for j in range(Bm.basis.size):
                    assert Bm.entries[i][j] == \
                        app_mod.symmetrize(A.entries[i][j])
        # its factored determinant: dense symbolic to n = 3; at n = 4 the
        # entrywise identity above transports the certified factor-chain
        # determinant of the generic matrix (symmetrizing each box factor
        # gives exactly the edge factors), cross-checked by exact integer
        # elimination on seeded single-variable slices plus a rational point
        for n in (2, 3):
            assert det_mod.det_poly_bareiss(
                app_mod.varchenko_matrix(n).entries) == \
                app_mod.varchenko_det(n).expand()
        B4 = app_mod.varchenko_matrix(4)
        d4 = app_mod.varchenko_det(4)
        f4 = det_mod.det_factor_chain(Weight.generic_n(4))
        assert {e.subset: e.multiplicity for e in d4.edges} == \
            dict(f4.factors)
        for e in d4.edges:
            mono = Poly.one()
            for i in e.subset:
                for j in e.subset:
                    if i != j:
                        mono = mono * Poly.var(i, j)
            assert app_mod.symmetrize(Poly.one() - mono) == e.factor()
        def umul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for x, ca in enumerate(a):
                for y, cb in enumerate(b):
                    out[x + y] += ca * cb
            while len(out) > 1 and out[-1] == 0:
                out.pop()
            return out

        for _ in range(2):
            slopes = {(i, j): rng.randint(2, 9)
                      for i in range(1, 5) for j in range(1, 5)}
            slope = lambda i, j: slopes[(min(i, j), max(i, j))]
            rows = [[det_mod.poly_to_univariate(e, slope) for e in row]
                    for row in B4.entries]
            want = [1]
            for e in d4.edges:
                f = det_mod.poly_to_univariate(e.factor(), slope)
                for _ in range(e.multiplicity):
                    want = umul(want, f)
            got = det_mod.det_univariate(rows)
            while len(got) > 1 and got[-1] == 0:
                got.pop()
            assert got == want
        a = {}
        for i in range(1, 5):
            for j in range(i, 5):
                v = GaussRat(Fraction(rng.randint(-40, 40), 97))
                a[("q", i, j)] = v
                a[("q", j, i)] = v
        ent = [[e.evaluate(a, "symmetric-real") for e in row]
               for row in B4.entries]
        assert det_mod.det_point(ent) == d4.evaluate(a)

        # the contravariant determinant: symbolically through Bareiss over
        # Poly on u_all * S (entries u-monomials with exponents 0 and 2) to
        # n = 3; then the factored formula in t against elimination of the
        # specialized S, for the seeded draws of b and, drawn after them,
        # one b per n with every subset sum nonzero
        S, d = {}, {}
        for n in (2, 3, 4):
            S[n] = app_mod.contravariant_matrix(n)
            d[n] = app_mod.contravariant_det(n)
            assert d[n].symmetric_form_agrees()
        for n in (2, 3):
            rows = [[Poly.from_mono(tuple(
                (pair_var(*v), e + 1) for v, e in m if e != -1))
                for m in row] for row in S[n].entries]
            assert det_mod.det_poly_bareiss(rows) == d[n].polynomial()
        draws = [app_mod.BilinearData.random(n, rng) for n in (2, 3, 4)]
        draws += [app_mod.BilinearData.random(n, rng, nondegenerate=True)
                  for n in (2, 3, 4)]
        for b in draws:
            assert d[b.n].specialized(b) == \
                app_mod.elimination_det(S[b.n], b)
        assert all(d[b.n].specialized(b).coeffs for b in draws[3:])

    report(9, "arrangement determinant and contravariant translation", body)


# ---------------------------------------------------------------------------
# 10. positivity
# ---------------------------------------------------------------------------

def test_criterion_10_positivity():
    def body():
        rng = random.Random(SEED)
        weights = []
        for n in range(2, 5):
            weights.append(Weight.generic_n(n))
        weights += [Weight({1: 2}), Weight({1: 3}), Weight({1: 2, 3: 1}),
                    Weight({1: 2, 2: 2}), Weight({1: 4})]
        checks = 0
        while checks < 20:
            nu = weights[checks % len(weights)]
            a = random_hermitian(nu.labels, rng, 100, 67, 95)
            assert det_mod.positivity_check(nu, a)
            checks += 1
        assert checks == 20

    report(10, "positive definiteness inside the unit polydisc", body)
