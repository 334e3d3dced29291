import itertools
import math
from fractions import Fraction

import pytest

from quongram.ring import Poly, GaussRat, pair_var
from quongram.fock import Weight
from quongram.perms import Perm
from quongram.gram import build_generic
from quongram.determinant import det_point, det_poly_bareiss, det_one_param
from quongram.applications import (symmetrize, varchenko_matrix, varchenko_det,
                                   UMonomial, TLaurent, t_laurent,
                                   BilinearData, contravariant_matrix,
                                   contravariant_matrix_operators,
                                   ContravariantDet, contravariant_det,
                                   elimination_det)

from conftest import symmetric_assignment


def u(i, j, e=1):
    return UMonomial.of({(i, j): e})


def t_value(f: TLaurent, t: Fraction) -> Fraction:
    return sum(c * t ** e for e, c in enumerate(f.coeffs, f.low))


def binomial_product(factors) -> list:
    """Coefficients of prod (1 - t^s)^e over (s, e) pairs, s > 0."""
    out = [1]
    for s, e in factors:
        for _ in range(e):
            out = [a - c for a, c in zip(out + [0] * s, [0] * s + out)]
    return out


# ---------------------------------------------------------------------------
# the symmetric bilinear form of the braid arrangement
# ---------------------------------------------------------------------------

def test_symmetrize():
    assert symmetrize(Poly.var(2, 1)) == Poly.var(1, 2)
    p = Poly.var(1, 2) * Poly.var(2, 1)
    assert symmetrize(p) == Poly.var(1, 2) ** 2
    # cancelling terms collapse, leaving no zero coefficient behind
    assert symmetrize(Poly.var(1, 2) - Poly.var(2, 1)) == Poly.zero()
    p = Poly.var(1, 2) * Poly.var(3, 1) - Poly.var(2, 1) * Poly.var(1, 3)
    assert symmetrize(p + Poly.var(3, 2)) == Poly.var(2, 3)


def test_domain_form_is_symmetrized_gram():
    for n in (2, 3, 4):
        B = varchenko_matrix(n)
        A = build_generic(Weight.generic_n(n))
        for i in range(B.basis.size):
            for j in range(B.basis.size):
                assert B.entries[i][j] == symmetrize(A.entries[i][j])


def test_domain_form_is_separating_hyperplane_product():
    # the definition: entry (P_pi, P_tau) is the product of q_ab over the
    # hyperplanes separating the domains, the symmetric difference of the
    # inversion sets of pi^-1 and tau^-1
    for n in (2, 3, 4, 5):
        B = varchenko_matrix(n)
        inv = [Perm(tuple(w)).inverse().inversion_set()
               for w in B.basis.words]
        for si, row in zip(inv, B.entries):
            for sj, e in zip(inv, row):
                assert e == Poly.monomial(pair_var(a, b) for a, b in si ^ sj)


def test_domain_form_shares_one_entry_per_pair_mask():
    B = varchenko_matrix(5)
    assert len({id(e) for row in B.entries for e in row}) == 4231


def test_domain_form_symmetric_unital():
    B = varchenko_matrix(3)
    for i in range(6):
        assert str(B.entries[i][i]) == "1"
        for j in range(6):
            assert B.entries[i][j] == B.entries[j][i]


def test_domain_det_small():
    for n in (2, 3):
        got = det_poly_bareiss(varchenko_matrix(n).entries)
        assert got == varchenko_det(n).expand()
    assert str(varchenko_det(2)) == "(1 - q12^2)"


def test_domain_det_edge_count():
    d = varchenko_det(4)
    assert len(d.edges) == 11  # 6 pairs + 4 triples + 1 full
    assert {len(e.subset): e.multiplicity for e in d.edges} == \
        {2: 6, 3: 2, 4: 2}


def test_domain_det_prints_like_det():
    # no factor prints "1", and a label past 9 prints as q[i,j], which
    # Poly.parse reads back
    assert str(varchenko_det(1)) == "1"
    d = varchenko_det(11)
    factors = str(d).split(" * ")
    assert len(factors) == len(d.edges) == 2 ** 11 - 12
    for text, e in zip(factors, d.edges):
        body, _, exp = text.partition(")^")
        assert Poly.parse(body.strip("()")) == e.factor()
        assert int(exp or 1) == e.multiplicity


def test_domain_det_at_point(rng):
    n = 4
    a = symmetric_assignment(range(1, n + 1), rng)
    B = varchenko_matrix(n)
    ent = [[e.evaluate(a, "symmetric-real") for e in row]
           for row in B.entries]
    assert det_point(ent) == varchenko_det(n).evaluate(a)


# ---------------------------------------------------------------------------
# u-monomials and Laurent polynomials in t
# ---------------------------------------------------------------------------

def test_u_monomial_products():
    x = u(1, 2)
    assert x * u(1, 2, -1) == UMonomial() == UMonomial.of({(1, 2): 0})
    assert x * x == u(1, 2, 2)
    assert x * u(1, 3) == u(1, 3) * x == UMonomial.of({(1, 2): 1, (1, 3): 1})
    assert hash(x * u(1, 3)) == hash(u(1, 3) * x)
    assert x != u(1, 3)


def test_u_monomial_t_exponent():
    # u_kl = q^{b_kl/4} = t^{b_kl}
    assert u(1, 2, 4).t_exponent({(1, 2): -2}) == -8
    assert UMonomial().t_exponent({}) == 0
    with pytest.raises(KeyError):
        u(1, 3).t_exponent({(1, 2): 1})


def test_u_monomial_and_t_laurent_str():
    assert str(UMonomial.of({(1, 2): -1, (2, 3): 1, (1, 3): 2})) == \
        "u12^-1*u13^2*u23"
    assert str(UMonomial()) == "1"
    assert str(t_laurent(-2, [1, 0, -3, 0, 1, 5])) == \
        "t^-2 - 3 + t^2 + 5*t^3"
    assert str(t_laurent(0, [-1, 1])) == "-1 + t"
    assert str(t_laurent(4, [0, 0])) == "0"
    # canonical: zero end coefficients move into low or drop
    assert t_laurent(-3, [0, 2, 0]) == TLaurent(-2, (2,))
    assert t_laurent(5, []) == t_laurent(-1, [0]) == TLaurent(0, ())


# ---------------------------------------------------------------------------
# the contravariant form
# ---------------------------------------------------------------------------

def test_contravariant_two_letter_golden():
    S = contravariant_matrix(2)
    uinv = u(1, 2, -1)
    assert S.entries == [[uinv, u(1, 2)], [u(1, 2), uinv]]


def test_contravariant_closed_matches_recursion():
    for n in (2, 3, 4):
        assert contravariant_matrix(n) == contravariant_matrix_operators(n)


def test_contravariant_symmetric():
    S = contravariant_matrix(3)
    for i in range(6):
        for j in range(6):
            assert S.entries[i][j] == S.entries[j][i]


def test_contravariant_is_specialized_gram():
    # S = u_all^-1 * A_n under q_xy = q_yx = u_xy^2, entry by entry
    for n in (2, 3, 4, 5):
        pairs = itertools.combinations(range(1, n + 1), 2)
        u_all_inv = dict.fromkeys(pairs, -1)

        def specialize(p):
            ((m, c),) = p.terms.items()
            assert c == 1
            exps = dict(u_all_inv)
            for (_, x, y), e in m:
                exps[(min(x, y), max(x, y))] += 2 * e
            return UMonomial.of(exps)

        A = build_generic(Weight.generic_n(n))
        assert contravariant_matrix(n).entries == A.map_distinct(specialize)


def test_contravariant_det_small_symbolic():
    # u_all * S has the entries u-monomials with exponents 0 and 2, so it is
    # a Poly matrix in x_kl = u_kl; its Bareiss determinant is
    # u_all^{n!} det S = P
    for n in (2, 3):
        rows = [[Poly.from_mono(tuple((pair_var(*v), e + 1) for v, e in m
                                      if e != -1))
                 for m in row] for row in contravariant_matrix(n).entries]
        d = contravariant_det(n)
        assert det_poly_bareiss(rows) == d.polynomial()
        assert d.symmetric_form_agrees()
    assert contravariant_det(4).symmetric_form_agrees()
    # a wrong exponent breaks the symmetric identity
    d = contravariant_det(3)
    wrong = d.factors[:-1] + (((1, 2, 3), 2),)
    assert not ContravariantDet(3, wrong).symmetric_form_agrees()


def test_contravariant_det_specialized(rng):
    n = 4
    S = contravariant_matrix(n)
    d = contravariant_det(n)
    t = Fraction(3, 5)
    # the seeded draw, then one b with every subset sum nonzero
    for b in (BilinearData.random(n, rng),
              BilinearData.random(n, rng, nondegenerate=True)):
        ent = [[GaussRat(t ** m.t_exponent(b.b)) for m in row]
               for row in S.entries]
        want = d.specialized(b)
        assert det_point(ent) == GaussRat(t_value(want, t))
        assert want == elimination_det(S, b)
    assert not b.degenerate() and want.coeffs


def test_elimination_route():
    for n in (2, 3, 4):
        S = contravariant_matrix(n)
        b = BilinearData.constant(n, -1)
        assert elimination_det(S, b) == contravariant_det(n).specialized(b)


def test_zero_subset_sum_gives_zero():
    n = 3
    b = BilinearData(n, {(1, 2): 1, (1, 3): 1, (2, 3): -2})
    assert b.degenerate()
    assert contravariant_det(n).specialized(b) == TLaurent(0, ())
    assert elimination_det(contravariant_matrix(n), b) == TLaurent(0, ())


def test_one_param_bridge():
    # at b = -2 the contravariant determinant recovers the one-parameter
    # Gram determinant under q = t^4, up to the monomial prefactor and sign
    for n in (2, 3, 4):
        b = BilinearData.constant(n, -2)
        lhs = contravariant_det(n).specialized(b)
        f = det_one_param(n).factors
        rhs = binomial_product((4 * k * (k - 1), e) for k, e in f)
        if sum(e for _, e in f) % 2:
            rhs = [-c for c in rhs]
        assert lhs == t_laurent(-2 * math.factorial(n) * n * (n - 1) // 2,
                                rhs)


def test_bilinear_data_validation():
    with pytest.raises(ValueError):
        BilinearData(2, {(2, 1): 1})
    with pytest.raises(ValueError):
        BilinearData(3, {(1, 2): Fraction(1, 2)})
    assert BilinearData.constant(3, 2).pairs() == [(1, 2), (1, 3), (2, 3)]
    assert BilinearData.constant(3, 2).degenerate() is False
    assert BilinearData.constant(3, 0).degenerate() is True
