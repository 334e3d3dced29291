import gc
import hashlib
import json
import pathlib
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from quongram import inverse
from quongram.ring import Poly, GaussRat, Point, SINGLE_Q
from quongram.boxes import BoxFactor, BoxFraction
from quongram.fock import Word, Weight
from quongram.perms import (Perm, all_perms, longest_element, reversal_record,
                            thickened)
from quongram.determinant import is_inverse
from quongram.gram import (Basis, DiagOp, OpExpansion, build_generic,
                           build_degenerate, factor_CD, q_mono, q_of_perm,
                           rhat)
from quongram.inverse import (Universe, lambda_sigma, tree_like,
                              lambda_scalar, random_tree_like, lambda_id,
                              LambdaTable, psi_op,
                              d_inverse_op, c_unimodal_op,
                              inv_brute, inv_full, inverse_matrix_at,
                              inv_degenerate, zagier_check)

from conftest import hermitian_assignment, symmetric_assignment


def one_param_box(k):
    return BoxFactor(tuple(range(1, k + 1)), frozenset(range(1, k + 1)), True)


def expansion(op):
    """A GenericOp as an OpExpansion: each value renamed to every word."""
    basis = op.basis
    renamings = [basis.renaming(w) for w in basis.words]
    return OpExpansion(basis, {
        g: DiagOp(basis, tuple(x.renamed(r) for r in renamings))
        for g, x in op.coefficients.items()})


def assert_is_identity(mat):
    for i, row in enumerate(mat.entries):
        for j, e in enumerate(row):
            if isinstance(e, Poly):
                e = BoxFraction(e)
            assert e == (BoxFraction.one() if i == j else BoxFraction.zero())


# ---------------------------------------------------------------------------
# scalar coefficients
# ---------------------------------------------------------------------------

def test_lambda_scalar_smallest():
    f = lambda_scalar((1, 2), Perm((2, 1)))
    assert str(f) == "-1 / Box{1,2}"
    assert lambda_scalar((1,), Perm((1,))) == BoxFraction.one()


def test_lambda_vanishes_off_tree_like():
    for img in ((2, 4, 1, 3), (3, 1, 4, 2)):
        g = Perm(img)
        assert not tree_like(g)
        assert lambda_scalar((1, 2, 3, 4), g).is_zero()


def test_random_tree_like(rng):
    for n in (3, 4, 5):
        for _ in range(5):
            assert tree_like(random_tree_like(n, rng))


def test_closed_form_checked_on_all_of_s4():
    # lambda_scalar cross-checks the two-step recursion against the full
    # reversal-sequence product when check_closed is on
    for g in all_perms(4):
        lambda_scalar((1, 2, 3, 4), g, check_closed=True)


def test_closed_form_check_survives_python_o():
    # a certification check raises rather than asserts, so the check still
    # runs under python -O, which strips every assert
    src = str(pathlib.Path(inverse.__file__).parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "from quongram import inverse; from quongram.perms import Perm; "
            "inverse._closed_form = lambda *a: inverse.Universe().const(7); "
            "inverse.lambda_scalar((1, 2, 3), Perm((2, 1, 3)), "
            "check_closed=True)")
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stderr.strip().splitlines()[-1] == (
        "ArithmeticError: closed-form product disagrees with the recursion"
        " at 213")


def test_thickened_yields_the_subdivisions_of_the_closed_form(monkeypatch):
    g = Perm.parse("41325786")
    letters = tuple(range(1, 9))
    factors = list(thickened(reversal_record(g)))
    assert factors == [
        ((1, 8), ((1, 4), (5, 5), (6, 8))),
        ((1, 4), ((1, 3), (4, 4))), ((6, 8), ((1, 1), (2, 3))),
        ((1, 3), ((1, 1), (2, 3))), ((7, 8), ((1, 1), (2, 2))),
        ((2, 3), ((1, 1), (2, 2)))]
    seen = []
    sigma = inverse._sigma

    def spy(sub_letters, blocks, u):
        seen.append((sub_letters, blocks))
        return sigma(sub_letters, blocks, u)
    monkeypatch.setattr(inverse, "_sigma", spy)
    inverse._closed_form(letters, g, Universe())
    assert seen == [(letters[a - 1:b], sub) for (a, b), sub in factors]


def test_lambda_id_forms_agree():
    # the no-outer sum of lambda_id against the outer-bracket sum of
    # lambda_sigma over the singletons
    for n in (2, 3, 4):
        singletons = tuple((k, k) for k in range(1, n + 1))
        for w in Basis.of_weight(Weight.generic_n(n)).words:
            for one_param in (False, True):
                assert lambda_id(w, one_param) == \
                    lambda_sigma(w, singletons, one_param)


def test_lambda_id_one_param_golden():
    q = Poly.single_q()
    want = BoxFraction(Poly.one() + q * q,
                       (one_param_box(2), one_param_box(3)))
    assert lambda_id((1, 2, 3), one_param=True) == want


def test_lambda_matches_identity_coefficient():
    for n in (2, 3):
        e = Perm.identity(n)
        for w in Basis.of_weight(Weight.generic_n(n)).words:
            assert lambda_scalar(tuple(w), e) == lambda_id(w)


def test_longest_element_invariance():
    # Lambda(g) = (-1)^(n-1) |Q(g w_n)|^2 Lambda(g w_n)  when g(1) > g(n)
    for n in (3, 4):
        w = longest_element(1, n, n)
        letters = tuple(range(1, n + 1))
        for g in all_perms(n):
            gw = g * w
            if not (tree_like(g) and tree_like(gw)):
                continue
            lhs = lambda_scalar(letters, g)
            pairs = []
            for a, b in gw.inverse().inversion_set():
                pairs.extend([(a, b), (b, a)])
            rhs = lambda_scalar(letters, gw) * q_mono(letters, pairs)
            if n % 2 == 0:
                rhs = -rhs
            assert (lhs == rhs) == (g(1) > g(n))


def test_abs_q_sq_longest():
    # |Q(g)|^2, the monomial over the inversions (a, b) of g^-1 taken both
    # ways, is the product of every q_ij q_ji for the longest element
    pairs = []
    for a, b in longest_element(1, 3, 3).inverse().inversion_set():
        pairs.extend([(a, b), (b, a)])
    want = Poly.one()
    for i, j in ((1, 2), (1, 3), (2, 3)):
        want = want * Poly.var(i, j) * Poly.var(j, i)
    for w in Basis.of_weight(Weight.generic_n(3)).words:
        assert q_mono(w, pairs) == want


def test_lambda_sigma_blocks():
    f = lambda_sigma((1, 2, 3), ((1, 2), (3, 3)))
    # one nontrivial block of two letters over the full interval
    assert not f.is_zero()
    # singleton blocks give the identity coefficient, one coarse block is 1
    assert lambda_sigma((1, 2), ((1, 1), (2, 2))) == BoxFraction(
        Poly.one(), (BoxFactor((1, 2), frozenset({1, 2})),))
    assert lambda_sigma((1, 2), ((1, 2),)) == BoxFraction.one()


# ---------------------------------------------------------------------------
# full tables: the methods agree and invert the matrix
# ---------------------------------------------------------------------------

ALL_METHODS = ("fast", "long", "short", "chains", "zagier", "brute")


def test_methods_agree_small():
    for n in (2, 3):
        nu = Weight.generic_n(n)
        ref = inv_full(nu, "fast")
        for m in ALL_METHODS[1:]:
            assert inv_full(nu, m) == ref


def test_methods_agree_one_param():
    nu = Weight.generic_n(3)
    ref = inv_full(nu, "fast", True)
    for m in ALL_METHODS[1:]:
        assert inv_full(nu, m, True) == ref


# sha256 of the str of every entry of the inv_full tables for n = 1..4, as
# laid out by to_json (json.dumps with sorted keys, one line per n).  In
# multiparameter mode every reduced form is unique, so the five methods
# print alike; in one-parameter mode zagier reaches other reduced forms of
# the same values.
GOLDEN_TABLES = {False: "8aa5ef2005466dbd20af57d4370ea6af"
                        "e7e97a3de0131ff94940c7955f142d67",
                 True: "b3081f8bb55d219722337c629a5f3ba5"
                       "f935a6c5a53ae91fbf1e9b217a48c348"}
GOLDEN_ZAGIER_ONE_PARAM = ("4ec360a2d2d44b856818d9b3141a6fc7"
                           "1d6bd99b12e4cb1d5ceb020e6d7967ac")


@pytest.mark.parametrize("one_param", [False, True])
@pytest.mark.parametrize("method", ["fast", "long", "short", "chains",
                                    "zagier"])
def test_tables_print_as_before(method, one_param):
    text = "\n".join(
        json.dumps(inv_full(Weight.generic_n(n), method, one_param).to_json(),
                   sort_keys=True)
        for n in range(1, 5))
    want = (GOLDEN_ZAGIER_ONE_PARAM if (method, one_param) == ("zagier", True)
            else GOLDEN_TABLES[one_param])
    assert hashlib.sha256(text.encode()).hexdigest() == want


def test_zagier_one_param_forms_equal_fast_as_values():
    # the forms print differently (GOLDEN_ZAGIER_ONE_PARAM), the values agree
    nu = Weight.generic_n(4)
    assert inv_full(nu, "zagier", True) == inv_full(nu, "fast", True)


def test_inverse_times_matrix_is_identity():
    for n in (2, 3):
        nu = Weight.generic_n(n)
        inv = inv_full(nu, "fast").to_matrix()
        assert_is_identity(inv.matmul(build_generic(nu)))
        assert_is_identity(build_generic(nu).matmul(inv))


@pytest.mark.parametrize("one_param", [False, True])
def test_table_rows_are_the_rows_of_its_matrix(rng, one_param):
    # each row, placed alone, at a point against the numeric inverse,
    # which places its values through Basis.act
    nu = Weight.generic_n(3)
    a = _point(nu.labels, rng, "free")
    table = inv_full(nu, "fast", one_param)
    words = table.basis.words
    want = inverse_matrix_at(nu, a, "one-param" if one_param else "free")
    for w, want_row in zip(words, want):
        row = table.row(w)
        assert set(row) <= set(words)
        assert [row[v].evaluate(a, "free") if v in row else GaussRat.of(0)
                for v in words] == want_row


@pytest.mark.parametrize("one_param", [False, True])
@pytest.mark.parametrize("method",
                         ["fast", "long", "short", "chains", "zagier"])
def test_coefficients_are_row_e_of_the_dense_inverse(rng, method, one_param):
    # x_g is entry (e, g^-1.e) of the dense inverse: exactly against the
    # cofactor inverse up to n = 3, at a point against the numeric inverse
    # at n = 4; and Lambda(g) at e times Q(g) is x_g
    for n in (1, 2, 3, 4):
        nu = Weight.generic_n(n)
        table = inv_full(nu, method, one_param)
        e = table.basis.words[0]
        if n <= 3:
            dense, zero = inv_brute(nu, one_param).entries[0], Poly.zero()
        else:
            a = _point(nu.labels, rng, "free")
            dense = inverse_matrix_at(
                nu, a, "one-param" if one_param else "free")[0]
            zero = GaussRat.of(0)
        for g in all_perms(n):
            want = dense[table.basis.index(Word(e[k - 1] for k in g.images))]
            x = table.coefficients.get(g)
            if x is None:
                assert want == zero
                continue
            assert (x if n <= 3 else x.evaluate(a, "free")) == want
            mono = q_of_perm(e, g.inverse(), one_param)
            assert table.value_at(g, e) * mono == x


@pytest.mark.parametrize("one_param", [False, True])
@pytest.mark.parametrize("method",
                         ["fast", "long", "short", "chains", "zagier"])
def test_placing_a_table_tries_no_division(monkeypatch, method, one_param):
    # each coefficient is reduced, and a box shares no factor with the
    # monomial it is placed with, so neither form reduces it again
    table = inv_full(Weight.generic_n(3), method, one_param)
    real, calls = Poly.exact_div, []

    def spy(self, other):
        calls.append(other)
        return real(self, other)
    monkeypatch.setattr(Poly, "exact_div", spy)
    table.to_matrix()
    for w in table.basis.words:
        table.row(w)
    assert calls == []


@pytest.mark.parametrize("one_param", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_renamed_coefficients_are_the_per_word_coefficients(n, one_param):
    # the table keeps Lambda(g) at the identity word; renamed e_p -> w_p
    # it is the recursion run at w itself, as a value and as printed (one
    # universe shares the sub-word values across words, as
    # inverse_matrix_at shares them)
    nu = Weight.generic_n(n)
    table = inv_full(nu, "fast", one_param)
    u = Universe(one_param)
    want = {g for g in all_perms(n) if tree_like(g)}
    assert set(table.support()) == want
    for g, values in table.diagonals():
        for w, got in zip(table.basis.words, values):
            lam = inverse._lambda(tuple(w), g, u, False)
            assert got == lam and str(got) == str(lam)


@pytest.mark.parametrize("one_param", [False, True])
@pytest.mark.parametrize("method", ["fast", "long", "short", "chains",
                                    "zagier"])
def test_tables_invert_the_gram_matrix_in_the_group_algebra(method,
                                                            one_param):
    for n in (1, 2, 3, 4):
        assert inv_full(Weight.generic_n(n), method, one_param).inverts_gram()


def test_table_inverts_the_gram_matrix_at_n5():
    assert inv_full(Weight.generic_n(5), "fast").inverts_gram()


def test_a_wrong_table_does_not_invert_the_gram_matrix():
    # the certificate fails when any one coefficient is off by a factor
    table = inv_full(Weight.generic_n(4), "fast")
    for g in (Perm.identity(4), Perm((2, 1, 4, 3))):
        coefficients = dict(table.coefficients)
        coefficients[g] = coefficients[g].scale(2)
        wrong = LambdaTable(table.basis, table.one_param, coefficients)
        assert not wrong.inverts_gram()


def test_group_algebra_product_is_the_per_word_product():
    # the twisted product of two operators, expanded to every word, is the
    # OpExpansion product of their expansions
    nu = Weight.generic_n(4)
    basis = Basis.of_weight(nu)
    ops = [psi_op(basis, 1, 3), psi_op(basis, 2, 4), d_inverse_op(basis, 2),
           c_unimodal_op(basis, 3)]
    for x in ops:
        for y in ops:
            assert expansion(x * y) == expansion(x) * expansion(y)


def test_support_is_tree_like():
    nu = Weight.generic_n(4)
    table = inv_full(nu, "fast")
    assert len(table.support()) == 22
    assert all(tree_like(g) for g in table.support())
    # missing permutations read back as zero, at every word
    g = Perm((2, 4, 1, 3))
    assert all(table.value_at(g, w).is_zero() for w in table.basis.words)


def test_unknown_method_and_degenerate_rejected():
    with pytest.raises(ValueError):
        inv_full(Weight.generic_n(2), "sideways")
    with pytest.raises(ValueError):
        inv_full(Weight({1: 2}))
    with pytest.raises(ValueError):
        inv_brute(Weight.generic_n(4))


# ---------------------------------------------------------------------------
# elimination building blocks
# ---------------------------------------------------------------------------

def test_d_inverse_inverts_d():
    nu = Weight.generic_n(3)
    basis = Basis.of_weight(nu)
    ident = OpExpansion.identity(basis)
    for m in (1, 2):
        _, D = factor_CD(nu, m)
        Dinv = expansion(d_inverse_op(basis, m))
        assert D * Dinv == ident
        assert Dinv * D == ident


def test_c_unimodal_matches_elimination():
    for n in (3, 4):
        nu = Weight.generic_n(n)
        basis = Basis.of_weight(nu)
        for m in range(2, n + 1):
            C, _ = factor_CD(nu, m)
            assert expansion(c_unimodal_op(basis, m)) == C


def test_psi_inverts_sign_corrected_reversal():
    nu = Weight.generic_n(3)
    basis = Basis.of_weight(nu)
    for a, b in ((1, 2), (2, 3), (1, 3)):
        R = rhat(longest_element(a, b, 3), nu)
        # I + (-1)^(b-a+1) Rhat(w_[a..b])
        op = OpExpansion.identity(basis) + (R if (b - a) % 2 else -R)
        got = op * expansion(psi_op(basis, a, b))
        assert got == OpExpansion.identity(basis)


# ---------------------------------------------------------------------------
# numeric universe
# ---------------------------------------------------------------------------

def test_numeric_inverse_matches_symbolic(rng):
    nu = Weight.generic_n(3)
    a = hermitian_assignment(nu.labels, rng)
    table = inv_full(nu, "fast")
    want = table.evaluate(a, "hermitian")
    got = inverse_matrix_at(nu, a, "hermitian")
    assert got == want


def _point(labels, rng, mode):
    """A random point for the mode, with a value for the single q too."""
    def r():
        return Fraction(rng.randint(-60, 60), 100)

    if mode == "hermitian":
        a = hermitian_assignment(labels, rng)
    elif mode == "symmetric-real":
        a = symmetric_assignment(labels, rng)
    else:
        a = {("q", i, j): GaussRat(r(), r()) for i in labels for j in labels}
    a[SINGLE_Q] = GaussRat(r(), 0 if mode == "symmetric-real" else r())
    return a


@pytest.mark.parametrize("one_param", [False, True])
@pytest.mark.parametrize("mode", ["free", "symmetric-real", "one-param"])
def test_numeric_inverse_matches_symbolic_in_every_mode(rng, mode, one_param):
    nu = Weight.generic_n(3)
    a = _point(nu.labels, rng, mode)
    want = inv_full(nu, "fast", one_param).evaluate(a, mode)
    got = inverse_matrix_at(nu, a, "one-param" if one_param else mode)
    assert got == want


def test_numeric_inverse_rejects_non_hermitian_point(rng):
    nu = Weight.generic_n(3)
    a = hermitian_assignment(nu.labels, rng)
    a[("q", 2, 1)] = a[("q", 1, 2)]          # mirror not conjugated
    with pytest.raises(ValueError, match="not hermitian"):
        inverse_matrix_at(nu, a, "hermitian")


def test_numeric_inverse_names_a_box_that_vanishes():
    # q12 = q21 = 1 is hermitian, but Box{1,2} = 1 - q12 q21 is 0 there,
    # so A_2 is singular
    one = GaussRat.of(1)
    a = {("q", 1, 2): one, ("q", 2, 1): one}
    with pytest.raises(ZeroDivisionError, match=r"Box\{1,2\} vanishes"):
        inverse_matrix_at(Weight.generic_n(2), a, "hermitian")


def test_numeric_inverse_keeps_no_stale_values(rng):
    # two points in one process: each call computes from its own point
    nu = Weight.generic_n(3)
    table = inv_full(nu, "fast")
    a, b = (hermitian_assignment(nu.labels, rng) for _ in range(2))
    got_a = inverse_matrix_at(nu, a, "hermitian")
    got_b = inverse_matrix_at(nu, b, "hermitian")
    assert got_a == table.evaluate(a, "hermitian")
    assert got_b == table.evaluate(b, "hermitian")
    assert got_a != got_b


def test_numeric_inverse_steps_once_and_keeps_no_full_length_value(
        rng, monkeypatch):
    # one _fast_step per tree-like (word, g) and per shorter sub-word, none
    # twice; the full-length values are placed, not memoized.  Each g has
    # its own step plan, which the step is given
    nu = Weight.generic_n(4)
    steps, universes = [], set()
    real_step = inverse._fast_step

    def step_spy(letters, plan, u):
        steps.append((letters, plan))
        universes.add(u)
        return real_step(letters, plan, u)

    monkeypatch.setattr(inverse, "_fast_step", step_spy)
    inverse_matrix_at(nu, hermitian_assignment(nu.labels, rng), "hermitian")
    (u,) = universes
    full = [(w, g) for w, g in steps if len(w) == 4]
    moved = sum(tree_like(g) and not g.is_identity() for g in all_perms(4))
    assert len(steps) == len(set(steps))
    assert len(full) == moved * 24
    assert all(len(w) < 4 for w, _ in u.lambda_memo)


def test_no_universe_outlives_its_call(rng):
    # each call owns its universe, and with it every Lambda and sigma memo,
    # and each evaluation owns its point, and with it every cached value
    nu = Weight.generic_n(3)
    a = hermitian_assignment(nu.labels, rng)
    inv_full(nu, "fast").evaluate(a, "hermitian")
    lambda_scalar((1, 2, 3), Perm((3, 2, 1)), one_param=True)
    zagier_check(8, "one-param", coeff=Perm((4, 3, 2, 1, 8, 7, 6, 5)))
    inverse_matrix_at(nu, a, "hermitian")
    inverse_matrix_at(nu, {SINGLE_Q: GaussRat(Fraction(1, 3))}, "one-param")
    gc.collect()
    assert [o for o in gc.get_objects()
            if isinstance(o, (Universe, Point))] == []


def test_no_lift_outlives_its_call():
    # once the identity coefficient at n = 6 is dropped, nothing built for
    # it is still held: a module cache of the expanded box products its
    # sums lift by would keep tens of MB
    tracemalloc.start()
    try:
        lambda_scalar(tuple(range(1, 7)), Perm.identity(6))
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 8 * 2**20


def test_repeated_and_interleaved_calls_agree(rng):
    nu = Weight.generic_n(3)
    a = hermitian_assignment(nu.labels, rng)
    multi = inv_full(nu, "fast").to_json()
    one = inv_full(nu, "fast", one_param=True).to_json()
    point = inverse_matrix_at(nu, a, "hermitian")
    assert inv_full(nu, "fast").to_json() == multi
    assert inv_full(nu, "fast", one_param=True).to_json() == one
    assert inverse_matrix_at(nu, a, "hermitian") == point
    assert multi != one


def test_numeric_inverse_is_inverse(rng):
    nu = Weight.generic_n(3)
    a = hermitian_assignment(nu.labels, rng)
    A = build_generic(nu)
    Ap = [[e.evaluate(a, "hermitian") for e in row] for row in A.entries]
    inv = inverse_matrix_at(nu, a, "hermitian")
    size = len(Ap)
    for i in range(size):
        for j in range(size):
            s = GaussRat.of(0)
            for k in range(size):
                s = s + Ap[i][k] * inv[k][j]
            assert s == GaussRat.of(1 if i == j else 0)


# ---------------------------------------------------------------------------
# degenerate weights
# ---------------------------------------------------------------------------

def test_degenerate_inverse():
    for nu in (Weight({1: 2}), Weight({1: 3}), Weight({1: 2, 3: 1}),
               Weight({1: 2, 2: 2})):
        inv = inv_degenerate(nu)
        assert_is_identity(inv.matmul(build_degenerate(nu)))


@pytest.mark.parametrize("parts", [(2, 1), (2, 2), (2, 1, 1)])
def test_degenerate_inverse_at_a_point(rng, parts):
    # the box-fraction entries evaluate on the one path of
    # GramMatrix.evaluate, which checks the point once; evaluating each
    # distinct entry on its own gives the same values
    nu = Weight({k + 1: m for k, m in enumerate(parts)})
    a = hermitian_assignment(nu.labels, rng)
    inv = inv_degenerate(nu)
    got = inv.evaluate(a, "hermitian")
    assert got == inv.map_distinct(lambda e: e.evaluate(a, "hermitian"))
    assert is_inverse(build_degenerate(nu).evaluate(a, "hermitian"), got)


def test_degenerate_falls_back_to_generic():
    nu = Weight.generic_n(2)
    assert inv_degenerate(nu).entries == \
        inv_full(nu, "fast").to_matrix().entries


# ---------------------------------------------------------------------------
# denominator reports
# ---------------------------------------------------------------------------

def test_denominator_modes_small():
    assert zagier_check(3, "multi").passed
    assert zagier_check(3, "extended-multi").passed
    assert zagier_check(3, "original-conjecture").passed
    assert zagier_check(4, "one-param").passed
    with pytest.raises(ValueError):
        zagier_check(2, "sideways")


@pytest.mark.parametrize("one_param", [False, True])
def test_leftover_matches_the_product(one_param):
    # leftover skips the product when the candidate holds the whole
    # denominator; the reference always multiplies it in
    rng = random.Random(5)
    table = inv_full(Weight.generic_n(4), "fast", one_param)
    outcomes = set()
    for g in rng.sample(table.support(), 6):
        word = rng.choice(table.basis.words)
        frac = table.value_at(g, word) * q_mono(
            word, g.inverse().inversion_set(), one_param)
        boxes = inverse._subset_boxes(tuple(word), one_param)
        for cand in (boxes, boxes[:-1], rng.sample(boxes, 5), []):
            num = frac.num
            for b in cand:
                num = num * b.expand()
            full = BoxFraction(num, frac.den)
            left = inverse.leftover(frac, cand)
            if full.den:
                assert left == full and left.den
            else:
                assert left is None
            outcomes.add(left is None)
    assert outcomes == {True, False}


ZAGIER_MODES = ("multi", "extended-multi", "one-param", "original-conjecture")


def per_word_zagier(n, mode):
    """The report of zagier_check as computed at every (coefficient, word)
    pair: the candidate built at each word, each entry multiplied out and
    reduced there."""
    one_param = mode in ("one-param", "original-conjecture")
    report = inverse.ZagierReport(mode=mode, n=n, one_param=one_param)

    def candidate(letters):
        if mode == "multi":
            return inverse._interval_boxes(letters, False)
        if mode == "extended-multi":
            return inverse._subset_boxes(letters, False)
        return inverse._one_param_boxes(n, mode == "one-param")

    table = inv_full(Weight.generic_n(n), "fast", one_param)
    for g, values in table.diagonals():
        for w, lam in zip(table.basis.words, values):
            mono = q_mono(w, g.inverse().inversion_set(), one_param)
            left = inverse.leftover(lam * mono, candidate(tuple(w)))
            report.checked += 1
            if left is not None:
                report.failures.append((str(g), str(Word(w)), str(left)))
    return report


@pytest.mark.parametrize("mode", ZAGIER_MODES)
def test_zagier_check_decides_each_coefficient_once(monkeypatch, mode):
    calls = []
    real = inverse.leftover
    monkeypatch.setattr(inverse, "leftover",
                        lambda *a: calls.append(a) or real(*a))
    rep = zagier_check(5, mode)
    assert rep.passed and rep.checked == 120 * 90
    assert len(calls) == 90 == len(
        inv_full(Weight.generic_n(5)).coefficients)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("mode", ZAGIER_MODES)
def test_zagier_failures_are_the_per_word_failures(monkeypatch, mode, n):
    # every candidate builder loses a box, so some coefficients fail; each
    # failure is listed at every word, with the leftover found there
    for name in ("_interval_boxes", "_subset_boxes", "_one_param_boxes"):
        real = getattr(inverse, name)
        monkeypatch.setattr(inverse, name,
                            lambda *a, real=real: real(*a)[:-1])
    rep, want = zagier_check(n, mode), per_word_zagier(n, mode)
    assert len(rep.failures) >= 24
    assert rep.to_json() == want.to_json()
    assert str(rep) == str(want)


def test_single_coefficient_counterexample():
    g = Perm((4, 3, 2, 1, 8, 7, 6, 5))
    bad = zagier_check(8, "original-conjecture", coeff=g)
    assert not bad.passed
    assert bad.checked == 1
    good = zagier_check(8, "one-param", coeff=g)
    assert good.passed


def test_report_serialization():
    rep = zagier_check(3, "multi")
    j = rep.to_json()
    assert j["passed"] and j["checked"] == rep.checked
    assert "PASS" in str(rep)


def test_table_json_keys():
    nu = Weight.generic_n(2)
    j = inv_full(nu, "fast").to_json()
    assert set(j) == {"12", "21"}
