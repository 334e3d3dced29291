import collections
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quongram import determinant
from quongram.ring import Poly, GaussRat, random_hermitian
from quongram.fock import Weight
from quongram.gram import (Basis, build_generic, build_degenerate, rhat,
                           q_diag_set, embed_degenerate, pair_rule)
from quongram.perms import cycle
from quongram.determinant import (DetFormula, det_formula, det_cycle_factor,
                                  det_one_param, one_param_exponents,
                                  positivity_check, det_divides,
                                  det_poly_bareiss, det_single_cycle,
                                  det_point, det_elim,
                                  peel_exponents, det_factor_chain,
                                  det_univariate, poly_to_univariate,
                                  is_inverse)
from quongram.inverse import inverse_matrix_at
from quongram.applications import (varchenko_matrix, contravariant_matrix,
                                   BilinearData, elimination_det)

from conftest import hermitian_assignment, small_weights


def test_formula_matches_elimination_small():
    for n in (1, 2, 3):
        nu = Weight.generic_n(n)
        assert peel_exponents(det_elim(nu), nu) == \
            dict(det_formula(nu).factors)


def test_formula_golden_strings():
    assert str(det_formula(Weight.generic_n(2))) == "(1 - q12*q21)"
    assert str(det_one_param(3)) == "(1 - q^2)^6 * (1 - q^6)"
    assert str(det_one_param(4)) == \
        "(1 - q^2)^36 * (1 - q^6)^8 * (1 - q^12)^2"


def test_formula_exponents():
    nu = Weight.generic_n(4)
    f = det_formula(nu)
    by_size = {}
    for letters, e in f.factors:
        by_size.setdefault(len(letters), set()).add(e)
    # exponent (k-2)!(n-k+1)! is constant in each layer
    assert by_size == {2: {6}, 3: {2}, 4: {2}}
    assert len(f.factors) == 6 + 4 + 1


def test_factor_chain_reproduces_formula():
    for n in (2, 3, 4, 5, 6):
        nu = Weight.generic_n(n)
        assert dict(det_factor_chain(nu).factors) == \
            dict(det_formula(nu).factors)


def test_equal_formulas_compare_and_hash_equal():
    # the chain and the closed formula assemble their factors in different
    # orders; the formulas themselves are equal, not just their dicts
    nu = Weight.generic_n(4)
    chain, formula = det_factor_chain(nu), det_formula(nu)
    assert chain == formula and hash(chain) == hash(formula)
    assert str(chain) == str(formula)
    shuffled = DetFormula(nu, tuple(reversed(formula.factors)))
    assert shuffled == formula and hash(shuffled) == hash(formula)
    assert DetFormula(nu, formula.factors[1:]) != formula


@pytest.mark.parametrize("spoil", [("plain", 2, 3), ("boxed", 2, 2)])
def test_factor_chain_rejects_a_non_box_factor(monkeypatch, spoil):
    # spoil the weights of one orbit of one factor at n = 3: a doubled
    # weight reads 1 − 2x, a squared product 1 − x² = (1 − x)(1 + x), and
    # unit weights the singular block 1 − 1 = 0, which has no letters
    real = determinant._orbit_weights
    variant, k, m = spoil
    for spoiled_weights in (lambda ws: [ws[0] + ws[0]] + ws[1:],
                            lambda ws: ws + ws,
                            lambda ws: [Poly.one()] * len(ws)):
        def spoiled(nu, a, b, kind, spoil_fn=spoiled_weights):
            orbits = real(nu, a, b, kind)
            if (kind, a, b) == spoil:
                yield spoil_fn(next(orbits))
            yield from orbits

        monkeypatch.setattr(determinant, "_orbit_weights", spoiled)
        with pytest.raises(ArithmeticError,
                           match=f"{variant} factor t_{k},{m} "):
            det_factor_chain(Weight.generic_n(3))


def chain_factors(n):
    """(variant, a, b) of every plain and boxed cyclic factor at n."""
    return ([("plain", a, b) for b in range(2, n + 1) for a in range(1, b)]
            + [("boxed", a, b) for b in range(1, n) for a in range(1, b + 1)])


def test_factor_chain_read_off_matches_block_elimination():
    # every orbit block of every plain and boxed factor, read off as
    # 1 − ∏ weights, against det_poly_bareiss of the block itself
    for n in (2, 3, 4, 5):
        nu = Weight.generic_n(n)
        blocks = 0
        for variant, a, b in chain_factors(n):
            for weights in determinant._orbit_weights(nu, a, b, variant):
                read_off = Poly.one() - math.prod(weights, start=Poly.one())
                assert read_off.nterms() == 2
                assert read_off == det_poly_bareiss(
                    determinant._cycle_block(weights))
                blocks += 1
        if n == 5:
            assert blocks == 1214


def test_orbit_weights_are_the_per_word_operator_diagonals():
    # the monomial weights against the diagonal of R̂(t_{a,b}), times
    # Q_{{b,b+1}} when boxed, built word by word in the per-word algebra
    for n in (2, 3, 4, 5):
        nu = Weight.generic_n(n)
        basis = Basis.of_weight(nu)
        for variant, a, b in chain_factors(n):
            t = cycle(a, b, n)
            d = rhat(t, nu).coefficients[t]
            if variant == "boxed":
                d = q_diag_set(basis, (b, b + 1)) * d
            step, seen, want = basis.act(t), set(), []
            for start in range(basis.size):
                orbit, k = [], start
                while k not in seen:
                    seen.add(k)
                    orbit.append(d.diagonal[k])
                    k = step[k]
                if orbit:
                    want.append(orbit)
            assert list(determinant._orbit_weights(nu, a, b, variant)) == want


def test_factor_chain_neither_divides_nor_eliminates(monkeypatch):
    calls = collections.Counter()
    real_div, real_bareiss = Poly.exact_div, determinant.det_poly_bareiss

    def div_spy(self, d):
        calls["exact_div"] += 1
        return real_div(self, d)

    def bareiss_spy(rows):
        calls["det_poly_bareiss"] += 1
        return real_bareiss(rows)

    monkeypatch.setattr(Poly, "exact_div", div_spy)
    monkeypatch.setattr(determinant, "det_poly_bareiss", bareiss_spy)
    nu = Weight.generic_n(4)
    assert dict(det_factor_chain(nu).factors) == dict(det_formula(nu).factors)
    assert not calls
    # the spies see the elimination oracle on the same blocks
    det_single_cycle(nu, 1, 4, "plain")
    assert calls["det_poly_bareiss"] and calls["exact_div"]


def test_cycle_factor_formulas():
    # certified orbit-block determinants against the closed layer formulas
    nu = Weight.generic_n(4)
    for a in range(1, 5):
        for b in range(a + 1, 5):
            p = det_single_cycle(nu, a, b, "plain")
            assert peel_exponents(p, nu) == dict(
                det_cycle_factor(a, b, nu, "plain").factors)
    for a in range(1, 4):
        for b in range(a, 4):
            p = det_single_cycle(nu, a, b, "boxed")
            assert peel_exponents(p, nu) == dict(
                det_cycle_factor(a, b, nu, "boxed").factors)


def test_zero_is_no_box_product():
    nu = Weight.generic_n(3)
    assert peel_exponents(Poly.zero(), nu) is None
    assert peel_exponents(Poly.zero(), nu) != dict(det_formula(nu).factors)


def test_one_param_collapse():
    for n in (2, 3, 4, 5):
        assert dict(one_param_exponents(det_formula(
            Weight.generic_n(n))).factors) == dict(det_one_param(n).factors)


def test_one_param_elimination_small():
    for n in (2, 3):
        assert det_elim(Weight.generic_n(n), True) == \
            det_one_param(n).expand()


def test_degenerate_elimination_values():
    # det of the 3x3 matrix on words of weight (2,0,1)
    d = det_elim(Weight({1: 2, 3: 1}))
    expect = Poly.parse("1 + q11") ** 2 * \
        Poly.parse("1 - q13*q31") ** 2 * Poly.parse("1 - q11*q13*q31")
    assert d == expect


def test_point_determinant_matches_formula(rng):
    for n in (2, 3, 4):
        nu = Weight.generic_n(n)
        a = hermitian_assignment(nu.labels, rng)
        A = build_generic(nu)
        ent = [[e.evaluate(a, "hermitian") for e in row] for row in A.entries]
        assert det_point(ent) == det_formula(nu).evaluate(a)


def _product_is_identity(A, B):
    """A . B == I by GaussRat sums, the slow reference."""
    n = len(A)
    return all(
        sum((A[i][k] * B[k][j] for k in range(n)), GaussRat.of(0))
        == GaussRat.of(1 if i == j else 0)
        for i in range(n) for j in range(n))


def test_is_inverse_matches_gaussrat_sums(rng):
    nu = Weight.generic_n(3)
    a = hermitian_assignment(nu.labels, rng)
    A = [[e.evaluate(a, "hermitian") for e in row]
         for row in build_generic(nu).entries]
    B = inverse_matrix_at(nu, a, "hermitian")
    assert is_inverse(A, B) and _product_is_identity(A, B)
    tiny = GaussRat(Fraction(0), Fraction(1, 10 ** 9))
    for i, j, delta in ((0, 0, GaussRat.of(Fraction(1, 10 ** 9))),
                        (2, 5, tiny), (5, 1, tiny)):
        bad = [row[:] for row in B]
        bad[i][j] = bad[i][j] + delta
        assert not is_inverse(A, bad) and not _product_is_identity(A, bad)
    # column 3 times (1 + i/10^9): only the imaginary part of A . B is off
    turn = GaussRat.of(1) + tiny
    bad = [[v * turn if j == 3 else v for j, v in enumerate(row)]
           for row in B]
    assert not is_inverse(A, bad) and not _product_is_identity(A, bad)
    assert not is_inverse(A, B[:-1])
    assert not is_inverse(A, [row[:-1] for row in B])


def test_is_inverse_reads_the_zero_entries_of_b(rng):
    # at n = 4 two coefficients of 24 are not tree-like, so every column
    # of the inverse has two zeros; a value there must still be seen
    nu = Weight.generic_n(4)
    a = hermitian_assignment(nu.labels, rng)
    A = build_generic(nu).evaluate(a, "hermitian")
    B = inverse_matrix_at(nu, a, "hermitian")
    assert is_inverse(A, B)
    zero = GaussRat.of(0)
    for j, col in enumerate(zip(*B)):
        assert sum(v == zero for v in col) == 2
    i = next(i for i in range(24) if B[i][0] == zero)
    for value in (GaussRat(Fraction(0), Fraction(1, 10 ** 9)),
                  GaussRat.of(Fraction(1, 10 ** 9))):
        bad = [row[:] for row in B]
        bad[i][0] = value
        assert not is_inverse(A, bad)
    bad = [row[:] for row in B]
    bad[next(i for i in range(24) if B[i][0] != zero)][0] = zero
    assert not is_inverse(A, bad)


def test_point_determinant_basics():
    one = GaussRat.of(1)
    z = GaussRat.of(0)
    i = GaussRat(Fraction(0), Fraction(1))
    assert det_point([[one, i], [i, one]]) == GaussRat.of(2)
    assert det_point([[one, i], [i.conj(), one]]) == z
    assert det_point([[one, one], [one, one]]) == z
    assert det_point([]) == one


@pytest.mark.parametrize("template, want", [
    ([[0, 1], [1, 0]], -1),
    ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], 0),
    ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], -1),   # zero pivot at k = 1
])
def test_zero_pivot_row_swap(template, want):
    for det, lift in ((det_poly_bareiss, Poly.const),
                      (det_point, GaussRat.of),
                      (det_univariate, lambda c: [c])):
        rows = [[lift(c) for c in row] for row in template]
        assert det(rows) == lift(want)


def _leibniz(M, const=GaussRat.of):
    """det M by the permutation expansion, in GaussRat (or the ring whose
    integers const makes): the slow oracle."""
    total = const(0)
    for perm in itertools.permutations(range(len(M))):
        inversions = sum(perm[x] > perm[y] for x, y in
                         itertools.combinations(range(len(perm)), 2))
        t = const(-1 if inversions % 2 else 1)
        for r, c in enumerate(perm):
            t = t * M[r][c]
        total = total + t
    return total


def _spy_sweeps(monkeypatch):
    """Record the sweeps det_point runs: seen[step name] lists what each
    _bareiss call handed that step returned, None for a hermitian sweep
    stopped by a zero pivot.  A sweep is known by its step, not by step
    calls, since a lazy sweep may make none."""
    seen = collections.defaultdict(list)
    bareiss = determinant._bareiss

    def spy(M, step, *args, **kwargs):
        res = bareiss(M, step, *args, **kwargs)
        seen[step.__name__].append(res)
        return res
    monkeypatch.setattr(determinant, "_bareiss", spy)
    return seen


def _random_hermitian(n, rng, real):
    def part():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 8, 10)))
    M = [[None] * n for _ in range(n)]
    for i in range(n):
        M[i][i] = GaussRat(part())
        for j in range(i + 1, n):
            v = GaussRat(part(), Fraction(0) if real else part())
            M[i][j], M[j][i] = v, v.conj()
    return M


def _pivot_ordered(M):
    """M with rows and columns in det_point's pivot order."""
    order = determinant._scaled_gauss_rows(M)[0]
    return [[M[i][j] for j in order] for i in order]


def _leading_minor_vanishes(M):
    """Whether a leading principal minor of size < n of M is 0."""
    return any(_leibniz([r[:k] for r in M[:k]]).is_zero()
               for k in range(1, len(M)))


@pytest.mark.parametrize("real", [False, True])
def test_hermitian_sweep_matches_general_sweep(rng, monkeypatch, real):
    """Hermitian and symmetric-real matrices, n <= 6: the hermitian sweep
    runs unless a leading principal minor of size < n, in pivot order,
    vanishes, and its value equals the general sweep's on the same matrix
    and the oracle's."""
    mats = [_random_hermitian(n, rng, real)
            for n in range(1, 7) for _ in range(4)]
    seen = _spy_sweeps(monkeypatch)
    fast, fell_back = [], 0
    for M in mats:
        seen.clear()
        fast.append(det_point(M))
        assert fast[-1] == _leibniz(M)
        singular_minor = _leading_minor_vanishes(_pivot_ordered(M))
        herm = seen["_gi_herm_step"]
        assert len(herm) == 1 and (herm[0] is None) == singular_minor
        assert len(seen["_gi_step"]) == singular_minor
        fell_back += singular_minor
    assert fell_back < len(mats) // 4
    monkeypatch.setattr(determinant, "_hermitian_sweep", lambda M: None)
    seen.clear()
    assert [det_point(M) for M in mats] == fast
    assert not seen["_gi_herm_step"]
    assert len(seen["_gi_step"]) == len(mats)


def test_hermitian_sweep_falls_back_on_a_vanishing_minor(monkeypatch):
    i = GaussRat.of(0, 1)
    one, two, zero = GaussRat.of(1), GaussRat.of(2), GaussRat.of(0)
    cases = [
        [[zero, one], [one, zero]],
        [[one, one, zero], [one, one, one], [zero, one, one]],
        # complex: the leading 2 x 2 minor is 1 - i * (-i) = 0
        [[one, i, zero], [i.conj(), one, one + i], [zero, one - i, two]],
    ]
    seen = _spy_sweeps(monkeypatch)
    for M in cases:
        seen.clear()
        got = det_point(M)
        assert got == _leibniz(M) and got != zero
        assert seen["_gi_herm_step"] == [None] and len(seen["_gi_step"]) == 1
    assert det_point(cases[2]) == GaussRat.of(-2)


@pytest.mark.parametrize("where", [(0, 2), (1, 1)])
def test_nearly_hermitian_takes_the_general_sweep(rng, monkeypatch, where):
    """One entry off by i/10^9 (off-diagonal, or a non-real diagonal)."""
    M = _random_hermitian(4, rng, False)
    r, c = where
    M[r][c] = M[r][c] + GaussRat(Fraction(0), Fraction(1, 10 ** 9))
    seen = _spy_sweeps(monkeypatch)
    assert det_point(M) == _leibniz(M)
    assert not seen["_gi_herm_step"] and len(seen["_gi_step"]) == 1


def test_scales_repaired_past_the_reference_row(monkeypatch):
    """Row 0 has every denominator 1, so it gives s = 1 everywhere; entries
    (1, 2) and (2, 2) need the repair pass to raise s_1 and s_2."""
    i = GaussRat.of(0, 1)
    one = GaussRat.of(1)
    u = (one + i) / 4
    M = [[one, one + i, GaussRat.of(2)],
         [one - i, GaussRat.of(3), u],
         [GaussRat.of(2), u.conj(), GaussRat.of(Fraction(5, 2))]]
    order, s, t, rows = determinant._scaled_gauss_rows(M)
    assert (order, s, t) == ([0, 2, 1], [1, 4, 2], 1)
    assert rows[2][2] == (48, 0)      # 4 · 4 · 3
    seen = _spy_sweeps(monkeypatch)
    assert det_point(M) == _leibniz(M)
    assert len(seen["_gi_herm_step"]) == 1 and not seen["_gi_step"]
    assert seen["_gi_herm_step"][0] is not None


def test_uniform_scaling_when_row_scales_cost_more():
    """Every denominator 7: row scales would give s = 7 and 7^2 per entry,
    so the uniform t = L = 7, s = 1 is taken."""
    M = [[GaussRat.of(Fraction(k, 7)) for k in row]
         for row in ((1, 2, 3), (2, 5, 1), (3, 1, 4))]
    order, s, t, rows = determinant._scaled_gauss_rows(M)
    assert (order, s, t) == ([0, 1, 2], [1, 1, 1], 7)
    assert rows[0] == [(1, 0), (2, 0), (3, 0)]
    assert det_point(M) == _leibniz(M)


def test_mixed_denominators_general_sweep_on_scaled_rows(monkeypatch):
    """Not hermitian, denominators 1 to 8: the general sweep runs on the
    row-scaled integers (t = 1), in pivot order."""
    i = GaussRat.of(0, 1)
    f = lambda p, q: GaussRat.of(Fraction(p, q))
    M = [[f(1, 1), f(1, 2), i / 4],
         [f(3, 1), f(1, 3), f(2, 1)],
         [f(1, 8), f(5, 1), f(7, 2)]]
    order, s, t, rows = determinant._scaled_gauss_rows(M)
    assert (order, s, t) == ([1, 2, 0], [12, 3, 6], 1)
    seen = _spy_sweeps(monkeypatch)
    assert det_point(M) == _leibniz(M)
    assert not seen["_gi_herm_step"] and len(seen["_gi_step"]) == 1


def _sweep(M, upper=False):
    """det M of a GaussRat matrix with integer entries, by one _bareiss
    sweep: the hermitian one if upper, else the general one.  None when
    the hermitian sweep meets a zero pivot."""
    rows = [[(v.a, v.b) for v in row] for row in M]
    step = determinant._gi_herm_step if upper else determinant._gi_step
    res = determinant._bareiss(rows, step, (0, 0).__eq__, (0, 0),
                               _upper=upper)
    if res is None:
        return None
    sign, minors = res
    re, im = minors[-1]
    return GaussRat.of(sign * re, sign * im)


def _eager(M, k, i, j):
    """Entry (i, j) of M after k eager Bareiss steps without swaps: the
    minor on rows 0..k-1, i and columns 0..k-1, j (Sylvester)."""
    rows, cols = [*range(k), i], [*range(k), j]
    return _leibniz([[M[r][c] for c in cols] for r in rows])


def _sparse_entry(rng, zeros):
    if rng.random() < zeros:
        return GaussRat.of(0)
    return GaussRat.of(rng.randint(-4, 4), rng.randint(-4, 4))


def test_lazy_general_sweep_on_sparse_matrices():
    """About 60 % zeros, n <= 6: most updates are skipped, and rows swapped
    past zero pivots carry their levels with them."""
    rng = random.Random(1968)
    zero = GaussRat.of(0)
    swapped_first = swapped_later = singular = 0
    for n in range(1, 7):
        for _ in range(12):
            M = [[_sparse_entry(rng, 0.6) for _ in range(n)]
                 for _ in range(n)]
            want = _leibniz(M)
            assert _sweep(M) == want
            if want == zero:
                singular += 1
            elif M[0][0] == zero:
                swapped_first += 1
            elif _leading_minor_vanishes(M):
                swapped_later += 1
    assert swapped_first and swapped_later and singular


def test_lazy_hermitian_sweep_on_sparse_matrices():
    """Sparse hermitian Gaussian-integer matrices, n <= 6: the hermitian
    sweep stops exactly when a leading principal minor vanishes, and
    otherwise gives the oracle's value."""
    rng = random.Random(1992)
    finished = 0
    mats = []
    for n in range(1, 7):
        for _ in range(12):
            M = [[None] * n for _ in range(n)]
            for i in range(n):
                M[i][i] = GaussRat.of(rng.choice((0, *range(1, 6))))
                for j in range(i + 1, n):
                    M[i][j] = _sparse_entry(rng, 0.6)
                    M[j][i] = M[i][j].conj()
            mats.append(M)
    for M in mats:
        got = _sweep(M, upper=True)
        assert (got is None) == _leading_minor_vanishes(M)
        if got is not None:
            assert got == _leibniz(M)
            finished += 1
    assert finished > len(mats) // 2


# Row 4 has a_40 = a_41 = 0, so steps 0 and 1 skip it and step 2 reads it
# at level 0.  Entry (3, 2) is 0 after steps 0 and 1 and fills in at step 2.
_SKIPPED = [[2, 1, 0, 0, 0],
            [1, 3, 2, 1, 0],
            [0, 2, 1, 0, 3],
            [0, 1, 0, 2, 1],
            [0, 0, 3, 1, 2]]


@pytest.mark.parametrize("order", [
    (0, 1, 2, 3, 4),
    (4, 3, 2, 1, 0),      # zero pivots at steps 0 and 1: swaps
    (2, 4, 0, 1, 3),
])
def test_lazy_sweeps_lift_a_row_skipped_for_two_steps(order):
    M = [[GaussRat.of(c) for c in row] for row in _SKIPPED]
    zero = GaussRat.of(0)
    assert _eager(M, 0, 4, 0) == zero and _eager(M, 1, 4, 1) == zero
    assert _eager(M, 2, 4, 2) != zero
    assert _eager(M, 0, 3, 2) == zero and _eager(M, 1, 3, 2) == zero
    assert _eager(M, 2, 3, 2) != zero
    want = _leibniz(M)
    assert want != zero
    P = [M[i] for i in order]
    sign = _leibniz([[GaussRat.of(int(c == r)) for c in range(5)]
                     for r in order])
    assert _sweep(P) == sign * want
    assert det_poly_bareiss([[Poly.const(v.a) for v in row] for row in P]) \
        == Poly.const((sign * want).a)
    if order == (0, 1, 2, 3, 4):
        assert _sweep(M, upper=True) == want == det_point(M)


def test_lazy_poly_sweep_on_a_sparse_poly_matrix():
    """det_poly_bareiss on a sparse 5 x 5 Poly matrix, against the
    permutation expansion over Poly."""
    rng = random.Random(1986)
    def entry():
        if rng.random() < 0.6:
            return Poly.zero()
        p = Poly.const(rng.choice((-2, -1, 1, 2)))
        for _ in range(rng.randint(0, 2)):
            p = p * Poly.var(rng.randint(1, 2), rng.randint(1, 2))
        return p + Poly.const(rng.randint(0, 1))
    for n in (3, 4, 5):
        for _ in range(4):
            M = [[entry() for _ in range(n)] for _ in range(n)]
            assert det_poly_bareiss(M) == _leibniz(M, Poly.const)


def test_point_determinant_of_a_degenerate_weight(rng):
    nu = Weight({1: 2, 2: 2})
    a = hermitian_assignment(nu.labels, rng)
    ent = build_degenerate(nu).evaluate(a, "hermitian")
    assert len(ent) == 6
    assert det_point(ent) == det_elim(nu).evaluate(a, "hermitian")


def test_six_word_elimination_matches_a_modular_slice(rng):
    # det_elim divides every step by a general Bareiss pivot; det_univariate
    # of the same slice eliminates modulo a prime, with no such division
    nu = Weight({1: 5, 2: 1})
    slopes = {(i, j): rng.randint(2, 7)
              for i in nu.labels for j in nu.labels}
    slope = lambda i, j: slopes[(i, j)]
    A = build_degenerate(nu)
    assert len(A.entries) == 6
    rows = [[poly_to_univariate(e, slope) for e in row] for row in A.entries]
    assert poly_to_univariate(det_elim(nu), slope) == det_univariate(rows)


def test_univariate_slice(rng):
    nu = Weight.generic_n(3)
    slopes = {(i, j): rng.randint(2, 7)
              for i in nu.labels for j in nu.labels}
    slope = lambda i, j: slopes[(i, j)]
    A = build_generic(nu)
    rows = [[poly_to_univariate(e, slope) for e in row] for row in A.entries]
    got = det_univariate(rows)
    want = poly_to_univariate(det_formula(nu).expand(), slope)
    assert got == want


def _trim(a):
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _u_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _u_sub(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def _u_div(a, b):
    a, q = list(a), [0] * max(len(a) - len(b) + 1, 1)
    for d in range(len(a) - len(b), -1, -1):
        c, r = divmod(a[d + len(b) - 1], b[-1])
        assert r == 0
        q[d] = c
        for j, y in enumerate(b):
            a[d + j] -= c * y
    assert not any(a)
    return _trim(q)


def _general_sweep(rows):
    """det over Z[q] by a fraction-free (Bareiss) sweep with its own
    kernels, apart from determinant's: the reference for det_univariate,
    which evaluates and interpolates instead."""
    n = len(rows)
    M = [[_trim(e) for e in row] for row in rows]
    sign, prev = 1, [1]
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if any(M[i][k])), None)
        if piv is None:
            return [0]
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = _u_div(_u_sub(_u_mul(M[k][k], M[i][j]),
                                        _u_mul(M[i][k], M[k][j])), prev)
        prev = M[k][k]
    return [sign * c for c in M[-1][-1]] if n else [1]


def _symmetric_slice(rng, n):
    M = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = [rng.randint(-3, 3)
                                 for _ in range(rng.randint(1, 3))]
    return M


def test_univariate_symmetric_rows(rng):
    # a slice of the Varchenko form, and random symmetric rows
    V = varchenko_matrix(3)
    rows = [[poly_to_univariate(e, lambda i, j: i + j + 1) for e in row]
            for row in V.entries]
    for rows in [rows] + [_symmetric_slice(rng, n) for n in (2, 3, 4, 5)]:
        assert det_univariate(rows) == _general_sweep(rows)


def test_univariate_nonsymmetric_rows(rng):
    rows = _symmetric_slice(rng, 4)
    rows[0][3] = rows[0][3] + [1]
    assert det_univariate(rows) == _general_sweep(rows)


def test_univariate_newton_stage_at_large_degree(rng, monkeypatch):
    # a diagonal matrix of four dense polynomials of degree 80: D = 320,
    # so the unreduced forward differences of the Newton stage grow to
    # about 2^320 times the prime before each is scaled by (j!)^-1; the
    # determinant is the product of the diagonal
    digits = [c for c in range(-9, 10) if c]
    diagonal = [[rng.choice(digits) for _ in range(81)] for _ in range(4)]
    rows = [[a if i == j else [] for j in range(4)]
            for i, a in enumerate(diagonal)]
    points = []
    _spy_modular_sweep(monkeypatch, points)
    want = [1]
    for a in diagonal:
        want = _u_mul(want, a)
    assert det_univariate(rows) == want
    assert sorted(points) == list(range(321))


def _spy_modular_sweep(monkeypatch, points=None):
    """Record (upper, left) for every point det_univariate eliminates, one
    per matrix of each _sweep call: (True, whether a pivot vanished) in an
    upper sweep, (False, False) in a general one.  With a list points, also
    record each one's q, read off the batches _at_points evaluates, whose
    matrices the sweeps take in order."""
    seen, queue = [], collections.deque()
    at_points, sweep = determinant._at_points, determinant._sweep

    def spy_at_points(terms, xs, p):
        queue.extend(xs)
        return at_points(terms, xs, p)

    def spy_sweep(mats, p, upper):
        dets = sweep(mats, p, upper)
        seen.extend((upper, d is None) for d in dets)
        xs = [queue.popleft() for _ in dets]
        if points is not None:
            points.extend(xs)
        return dets
    monkeypatch.setattr(determinant, "_at_points", spy_at_points)
    monkeypatch.setattr(determinant, "_sweep", spy_sweep)
    return seen


def _sweeps(seen, points):
    """(the points of the symmetric sweeps, those that left them, the
    points of the general sweeps), each in the order eliminated."""
    sym = [x for x, (upper, _) in zip(points, seen) if upper]
    left = [x for x, (upper, out) in zip(points, seen) if upper and out]
    return sym, left, [x for x, (upper, _) in zip(points, seen) if not upper]


def _symmetrizable(S, w, u, v):
    """S·diag(w) with row i shifted by q^u_i and column j by q^v_j, for S
    symmetric and w nonzero integers: diag(q^(v_i - u_i) / w_i) makes it
    symmetric."""
    n = len(S)
    return [[_trim([0] * (u[i] + v[j]) + [x * w[j] for x in S[i][j]])
             for j in range(n)] for i in range(n)]


def test_univariate_vanishing_leading_minor(monkeypatch):
    # the leading 1x1 minor is 0 at every point, so elimination swaps rows;
    # the rows are symmetric, then made symmetrizable by S·diag(w) and
    # shifts, so each point q >= 1 leaves the symmetric sweep at its first
    # pivot and the general sweep runs in its place, as at q = 0
    rows = [[[0], [1, 1], [2]],
            [[1, 1], [0, 3], [1]],
            [[2], [1], [1, 0, 1]]]
    points = []
    seen = _spy_modular_sweep(monkeypatch, points)
    for rows in (rows, _symmetrizable(rows, [3, -2, 5], [0, 1, 0],
                                      [0, 0, 2])):
        seen.clear()
        points.clear()
        want = _general_sweep(rows)
        assert det_univariate(rows) == want
        assert want != [0]
        sym, left, general = _sweeps(seen, points)
        D = len(sym)
        assert D > 1 and sym == left == list(range(1, D + 1))
        assert sorted(general) == list(range(D + 1)) and general[0] == 0


def test_univariate_pivot_vanishing_at_one_point(monkeypatch):
    # entry (0, 0) is q - 3: only q = 3 leaves the symmetric sweep, and the
    # rest of its batch stays in it
    rows = [[[-3, 1], [1, 1], [2]],
            [[1, 1], [0, 3], [1]],
            [[2], [1], [1, 0, 1]]]
    points = []
    seen = _spy_modular_sweep(monkeypatch, points)
    for rows in (rows, _symmetrizable(rows, [3, -2, 5], [0, 1, 0],
                                      [0, 0, 2])):
        seen.clear()
        points.clear()
        assert det_univariate(rows) == _general_sweep(rows)
        sym, left, general = _sweeps(seen, points)
        assert sym == [1, 2, 3, 4] and left == [3] and general == [0, 3]


def _slice_of_degree(rng, n, top):
    """Symmetric rows whose entries have every degree up to top, so the
    rows are not graded and D = n * top."""
    M = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = [rng.choice([-3, -2, -1, 1, 2, 3])
                                 for _ in range(top + 1)]
    return M


def test_univariate_slice_beyond_one_batch(monkeypatch, rng):
    rows = _slice_of_degree(rng, 4, 12)
    points = []
    seen = _spy_modular_sweep(monkeypatch, points)
    assert det_univariate(rows) == _general_sweep(rows)
    sym, left, general = _sweeps(seen, points)
    # D = 48 spans three batches
    assert 2 * determinant._BATCH < 48 <= 3 * determinant._BATCH
    assert sym == list(range(1, 49)) and not left and general == [0]


def test_univariate_zero_pivots_across_a_batch_send_the_rest_general(
        monkeypatch, rng):
    # the leading 1x1 minor is 0 at every point: the first batch leaves the
    # symmetric sweep, and every later point goes straight to the general
    # sweep
    rows = _slice_of_degree(rng, 4, 12)
    rows[0][0] = [0]
    points = []
    seen = _spy_modular_sweep(monkeypatch, points)
    assert det_univariate(rows) == _general_sweep(rows)
    sym, left, general = _sweeps(seen, points)
    batch = list(range(1, determinant._BATCH + 1))
    assert sym == left == batch
    assert sorted(general) == list(range(49))


@pytest.mark.parametrize("matrix, slope, symmetric", [
    (varchenko_matrix(3), lambda i, j: i + j + 1, True),
    # q_ij and q_ji take different slopes: symmetrizable, not symmetric
    (build_generic(Weight.generic_n(3)), lambda i, j: 2 * i + j, False),
])
def test_univariate_slices_take_the_symmetric_sweep(monkeypatch, matrix,
                                                    slope, symmetric):
    rows = [[poly_to_univariate(e, slope) for e in row]
            for row in matrix.entries]
    assert (rows == [list(col) for col in zip(*rows)]) == symmetric
    points = []
    seen = _spy_modular_sweep(monkeypatch, points)
    assert det_univariate(rows) == _general_sweep(rows)
    # q = 0 by the general sweep, every other point by the symmetric one;
    # with the valuations stripped D is 9, not 12
    sym, left, general = _sweeps(seen, points)
    assert sym == list(range(1, 10)) and not left and general == [0]


def test_univariate_strips_row_and_column_valuations(monkeypatch):
    # q^3 divides column 1, then row 1 of the transpose: stripped, the
    # rows are constants, so D = 0 and q = 0 is the only point
    rows = [[[1], [0, 0, 0, 1]], [[1], [0, 0, 0, 2]]]
    seen = _spy_modular_sweep(monkeypatch)
    for rows in (rows, [list(col) for col in zip(*rows)]):
        seen.clear()
        assert det_univariate(rows) == [0, 0, 0, 1] == _general_sweep(rows)
        assert seen == [(False, False)]


@pytest.mark.parametrize("rows, want", [
    ([[[0, 1, 0, 1]]], [0, 1, 0, 1]),          # q + q^3: g = 2, shift 1
    ([[[0, 0, 1], [0, 1]], [[0, 1], [1]]], [0]),     # q^2 - q^2
    ([[[2], [3]], [[4], [5]]], [-2]),            # constants: g = 0
    ([[[0], [0]], [[1], [0, 1]]], [0]),          # zero first row
    ([[[0], [1]], [[0], [0, 1]]], [0]),          # zero first column
    # a zero row makes the bound B 0, and E_1 = 2^61 - 1 is no unit
    # modulo the least prime of the table
    ([[[1, 1], [2 * (2 ** 61 - 1)], [0]], [[2], [1, 1], [0]],
      [[0], [0], [0]]], [0]),
    ([[[1, 0, 0]]], [1]),                        # trailing zeros
    ([[[2 ** 300, 1], [1]], [[1], [1, 2 ** 300]]],
     [2 ** 300 - 1, 2 ** 600 + 1, 2 ** 300]),    # p = 2^607 - 1
])
def test_univariate_cases(rows, want):
    assert det_univariate(rows) == want == _general_sweep(rows)


def test_univariate_coefficients_beyond_every_listed_prime():
    with pytest.raises(OverflowError):
        det_univariate([[[2 ** 19936]]])


def _strong_probable_prime(n, a) -> bool:
    """Miller-Rabin to the base a."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    x = pow(a, d, n)
    for _ in range(s):
        if x in (1, n - 1):
            return True
        x = x * x % n
    return False


def test_prime_table_is_sorted_and_passes_miller_rabin():
    # evidence, not proof: the primes are the published Mersenne primes
    # and field primes of published standards; the entries past 2^1024 are
    # all Mersenne primes, only checked for their form
    primes = determinant._PRIMES
    assert list(primes) == sorted(set(primes))
    assert primes[0] == 2 ** 61 - 1 and primes[-1] == 2 ** 19937 - 1
    for p in primes:
        if p < 2 ** 1024:
            assert all(_strong_probable_prime(p, a)
                       for a in (2, 3, 5, 7, 11, 13)), p
        else:
            assert p & (p + 1) == 0, p
    # and the test tells composites apart
    assert not _strong_probable_prime(2 ** 11 - 1, 3)


@pytest.mark.parametrize("matrix, slope", [
    (varchenko_matrix(3), lambda i, j: i + j + 1),
    (build_generic(Weight.generic_n(3)), lambda i, j: 2 * i + j + 3),
])
def test_univariate_prime_is_the_smallest_above_the_bound(monkeypatch,
                                                          matrix, slope):
    real, seen = determinant._modulus, []

    def spy(terms, D):
        p = real(terms, D)
        seen.append((terms, D, p))
        return p
    monkeypatch.setattr(determinant, "_modulus", spy)
    rows = [[poly_to_univariate(e, slope) for e in row]
            for row in matrix.entries]
    assert det_univariate(rows) == _general_sweep(rows)
    (terms, D, p), = seen
    norms = [[sum(abs(c) for c in a.values()) for a in row] for row in terms]
    B2 = math.prod(sum(x * x for x in row) for row in norms)
    H = math.prod(sum(row) for row in norms)
    assert B2 <= H * H
    assert p == min(q for q in determinant._PRIMES
                    if q > D and q * q > 4 * B2)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.sampled_from([1, 2, 3]),
       st.sampled_from(["plain", "symmetric", "singular", "zero-row",
                        "zero-column", "constant", "symmetrizable",
                        "symmetrizable-singular"]),
       st.sampled_from([3, 2 ** 200]), st.integers(0, 10 ** 9))
def test_univariate_matches_reference(n, g, shape, bound, seed):
    """Random rows of size 0-6 graded by g (every exponent of entry (i, j)
    is r_i + c_j mod g), with coefficients up to bound: 2^200 needs a
    prime of the table beyond 2^61 - 1.  The symmetrizable shapes are
    _symmetrizable rows; the singular one repeats row and column 0 of S
    last."""
    rng = random.Random(seed)
    r = [rng.randint(0, 3) for _ in range(n)]
    c = [rng.randint(0, 3) for _ in range(n)]
    top = 0 if shape == "constant" else 6

    def entry(i, j):
        a = [0] * (top + 1)
        for _ in range(rng.randint(0, 2)):
            e = rng.randint(0, top)
            e -= (e - r[i] - c[j]) % g
            if e >= 0:
                a[e] = rng.randint(-bound, bound)
        return _trim(a)

    rows = [[entry(i, j) for j in range(n)] for i in range(n)]
    if shape == "symmetric":
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)]
                for i in range(n)]
    elif shape == "singular" and n > 1:
        rows[-1] = list(rows[0])
    elif shape == "zero-row" and n:
        rows[0] = [[0]] * n
    elif shape == "zero-column":
        for row in rows:
            row[0] = [0]
    elif shape.startswith("symmetrizable"):
        S = [[rows[min(i, j)][max(i, j)] for j in range(n)]
             for i in range(n)]
        if shape == "symmetrizable-singular" and n > 1:
            S[-1] = list(S[0])
            for row in S:
                row[-1] = row[0]
        rows = _symmetrizable(
            S, [rng.choice([-3, -2, -1, 1, 2, 5]) for _ in range(n)],
            [rng.randint(0, 3) for _ in range(n)],
            [rng.randint(0, 3) for _ in range(n)])
    want = _general_sweep(rows)
    assert det_univariate(rows) == want
    if shape in ("singular", "zero-row", "zero-column",
                 "symmetrizable-singular") and n > 1:
        assert want == [0]


def _univariate_corpus():
    """det_univariate on a seeded corpus: Gram and Varchenko slices for
    n <= 4, the slices of four degenerate weights and of their generic
    models, 40 random rows (symmetric, non-symmetric, zero leading entry,
    symmetrizable and graded), and elimination_det for n <= 4."""
    rng = random.Random(33)
    out = []

    def slice_det(matrix, slopes, key=lambda i, j: (i, j)):
        out.append(det_univariate(
            [[poly_to_univariate(e, lambda i, j: slopes[key(i, j)])
              for e in row] for row in matrix.entries]))
    for n in (2, 3, 4):
        G, V = build_generic(Weight.generic_n(n)), varchenko_matrix(n)
        for _ in range(2):
            s = {(i, j): rng.randint(2, 9) for i in range(1, n + 1)
                 for j in range(1, n + 1)}
            slice_det(G, s)
            slice_det(V, s, lambda i, j: (min(i, j), max(i, j)))
    for m in ({1: 2, 2: 1}, {1: 2, 2: 1, 3: 1}, {1: 2, 2: 2}, {1: 3, 2: 1}):
        nu = Weight(m)
        emb = embed_degenerate(nu)
        s = {(i, j): rng.randint(2, 9) for i in nu.labels for j in nu.labels}
        slice_det(pair_rule(emb.generic_weight, emb.var), s)
        slice_det(build_degenerate(nu), s)
    for k in range(40):
        n = 1 + k % 5
        M = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = [rng.randint(-3, 3)
                           for _ in range(rng.randint(1, 4))]
                M[j][i] = (list(M[i][j]) if k % 4 != 1 else
                           [rng.randint(-3, 3)
                            for _ in range(rng.randint(1, 4))])
        if k % 4 == 2:
            M[0][0] = [0]
        if k % 4 == 3:
            w = [rng.choice((-3, -2, 2, 5)) for _ in range(n)]
            M = [[[0] * (i % 2 + 2 * (j % 2)) + [x * w[j] for x in M[i][j]]
                  for j in range(n)] for i in range(n)]
        out.append(det_univariate(M))
    for n in (2, 3, 4):
        S = contravariant_matrix(n)
        for _ in range(2):
            out.append(repr(elimination_det(S, BilinearData.random(n, rng))))
    return out


def test_univariate_corpus_digest():
    # recorded before the modular sweeps were merged into one: any change
    # to det_univariate's results shows here
    out = _univariate_corpus()
    assert len(out) == 66
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "51349117fd8389702f6e290013418ab9656ce6babde50733ec14378607c74580")


def test_bareiss_matches_cofactor(rng):
    def rand_poly():
        p = Poly.const(rng.randint(-2, 2))
        for _ in range(rng.randint(0, 2)):
            p = p * Poly.var(rng.randint(1, 2), rng.randint(1, 2))
        return p + Poly.const(rng.randint(0, 1))

    for _ in range(5):
        M = [[rand_poly() for _ in range(3)] for _ in range(3)]
        cof = Poly.zero()
        for perm in itertools.permutations(range(3)):
            sgn = 1
            for x in range(3):
                for y in range(x + 1, 3):
                    if perm[x] > perm[y]:
                        sgn = -sgn
            t = Poly.const(sgn)
            for r, c in enumerate(perm):
                t = t * M[r][c]
            cof = cof + t
        assert det_poly_bareiss(M) == cof


def test_positivity_inside_disc(rng):
    for nu in (Weight.generic_n(3), Weight({1: 2, 3: 1})):
        for _ in range(3):
            a = hermitian_assignment(nu.labels, rng)
            assert positivity_check(nu, a)


def test_positivity_rejects_bad_points(rng):
    nu = Weight.generic_n(2)
    big = {("q", 1, 2): GaussRat.of(2), ("q", 2, 1): GaussRat.of(2),
           ("q", 1, 1): GaussRat.of(0), ("q", 2, 2): GaussRat.of(0)}
    with pytest.raises(ValueError):
        positivity_check(nu, big)
    v = GaussRat(Fraction(1, 3), Fraction(1, 4))
    skew = {("q", 1, 2): v, ("q", 2, 1): v,
            ("q", 1, 1): GaussRat.of(0), ("q", 2, 2): GaussRat.of(0)}
    with pytest.raises(ValueError):
        positivity_check(nu, skew)


@pytest.mark.parametrize("rows, want", [
    ([[1, 0], [0, 1]], True),
    ([[1, 2], [2, 1]], False),          # indefinite: D_2 = -3
    ([[1, 1], [1, 1]], False),          # singular: D_2 = 0
    ([[0, 1], [1, 0]], False),          # the first pivot is 0
    ([[-1, 0], [0, -1]], False),        # D_2 = 1 > 0, yet D_1 = -1
    ([[2, 1j], [-1j, 1]], True),        # D_2 = 2 - 1
    ([[1, 1 + 1j], [1 - 1j, 1]], False),   # D_2 = 1 - 2
    ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], False),
    ([[1, 1], [0, 1]], False),          # not hermitian
], ids=str)
def test_positive_definite_by_leading_minors(rows, want):
    M = [[GaussRat.of(int(v.real), int(v.imag)) for v in map(complex, row)]
         for row in rows]
    assert determinant._positive_definite(M) is want


def test_positive_definite_agrees_with_eigenvalues(rng):
    """The exact verdict against numpy's eigenvalues at seeded hermitian
    points, alternately inside the unit polydisc (every Gram matrix
    positive definite) and outside it, where |q| reaches 3 sqrt 2."""
    np = pytest.importorskip("numpy")
    weights = [Weight.generic_n(n) for n in (2, 3, 4)]
    weights += [Weight({1: 2}), Weight({1: 2, 3: 1}), Weight({1: 2, 2: 2})]
    verdicts = {True: [], False: []}
    for k in range(60):
        nu, inside = weights[k % len(weights)], k % 2 == 0
        a = (hermitian_assignment(nu.labels, rng) if inside
             else random_hermitian(nu.labels, rng, 100, 300, 300))
        A = build_degenerate(nu).evaluate(a, "hermitian")
        eigs = np.linalg.eigvalsh(np.array(
            [[complex(v.a / v.d, v.b / v.d) for v in row] for row in A]))
        assert np.abs(eigs).min() > 1e-6    # the float verdict is clear
        got = determinant._positive_definite(A)
        assert got is bool(eigs.min() > 0)
        verdicts[inside].append(got)
        if inside:
            assert positivity_check(nu, a)
    assert all(verdicts[True]) and verdicts[False].count(False) >= 20


def test_degenerate_det_divides_generic():
    for nu in small_weights(4):
        got = det_divides(nu)
        assert got and got.divides
        # a dividing slice at |nu| = 4 is evidence, not proof
        assert got.certified == (nu.generic or nu.size <= 3)


def test_det_divides_certifies_a_slice_that_does_not_divide(monkeypatch):
    real = determinant.det_univariate
    calls = []

    def skewed(rows):
        # the generic model's slice determinant d becomes q d - 1, which
        # the degenerate determinant (constant term 1, degree > 0) does
        # not divide
        d = real(rows)
        calls.append(d)
        return [-1] + d if len(calls) == 1 else d
    monkeypatch.setattr(determinant, "det_univariate", skewed)
    got = det_divides(Weight({1: 2, 2: 1, 3: 1}))
    assert not got and got.certified and len(calls) == 2


def test_one_param_degree():
    for n in (2, 3, 4):
        f = det_one_param(n)
        assert f.degree() == math.factorial(n) * n * (n - 1) // 2


def test_formula_requires_generic():
    with pytest.raises(ValueError):
        det_formula(Weight({1: 2}))
    with pytest.raises(ValueError):
        det_cycle_factor(2, 1, Weight.generic_n(3))
    with pytest.raises(ValueError):
        det_one_param(0)
