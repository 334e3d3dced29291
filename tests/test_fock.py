import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from quongram.ring import Poly
from quongram.fock import (Word, Weight, FockVector, partial_left,
                           partial_right, inner_product, check_ccr,
                           coproduct)

from conftest import small_weights


def test_word_basics():
    w = Word.parse("1213")
    assert w.weight() == Weight({1: 2, 2: 1, 3: 1})
    assert w.reverse() == Word((3, 1, 2, 1))
    assert w.drop(1) == Word((1, 1, 3))
    assert str(w) == "1213"


def test_weight_words_sorted():
    nu = Weight({1: 2, 3: 1})
    assert [str(w) for w in nu.words()] == ["113", "131", "311"]
    assert Weight.generic_n(3).generic
    assert not nu.generic


@pytest.mark.parametrize("mult", [{1: 3, 2: 2}, {1: 2, 2: 1, 3: 1}, {1: 10},
                                  {1: 1, 2: 1, 3: 1, 4: 1}, {}])
def test_weight_words_are_the_distinct_permutations(mult):
    nu = Weight(mult)
    old = sorted(set(Word(p) for p in
                     itertools.permutations(nu.support_word())))
    words = nu.words()
    assert words == old
    assert all(type(w) is Word for w in words)


def test_left_derivative_prefix_rule():
    # removing the second 1 of 1·2·1 jumps over 1 and 2
    v = partial_left(1, FockVector.word(Word((1, 2, 1))))
    assert v.terms[Word((2, 1))] == Poly.one()
    assert v.terms[Word((1, 2))] == Poly.var(1, 1) * Poly.var(1, 2)


def test_right_derivative_suffix_rule():
    v = partial_right(1, FockVector.word(Word((1, 2, 1))))
    assert v.terms[Word((1, 2))] == Poly.one()
    assert v.terms[Word((2, 1))] == Poly.var(2, 1) * Poly.var(1, 1)


def test_left_right_derivatives_commute():
    w = Word((1, 2, 1, 3))
    a = partial_right(3, partial_left(1, FockVector.word(w)))
    b = partial_left(1, partial_right(3, FockVector.word(w)))
    assert a == b


def test_inner_product_values():
    assert inner_product(Word((1, 1, 3)), Word((1, 3, 1))) == \
        Poly.parse("q13 + q11*q13")
    assert inner_product(Word((1, 2)), Word((2, 1))) == Poly.var(1, 2)
    # distinct weights pair to zero
    assert inner_product(Word((1,)), Word((2,))).is_zero()


def test_inner_product_hermitian():
    for nu in small_weights(3):
        for x in nu.words():
            for y in nu.words():
                assert inner_product(x, y) == inner_product(y, x).conjugate()


def test_reversal_invariance_conjugate_form():
    # pairing of reversed words equals the conjugated pairing
    for nu in small_weights(3):
        for x in nu.words():
            for y in nu.words():
                assert inner_product(x.reverse(), y.reverse()) == \
                    inner_product(x, y).conjugate()


def test_ccr_all_small_words():
    labels = (1, 2, 3)
    for i in labels:
        for j in labels:
            for k in range(4):
                for w in itertools.product(labels, repeat=k):
                    assert check_ccr(i, j, Word(w))


def test_coproduct_term_count_and_id():
    w = Word((1, 2, 3))
    terms = coproduct(w)
    assert len(terms) == 8
    # the two trivial splittings carry coefficient 1
    assert (Word(()), w, Poly.one()) in terms
    assert (w, Word(()), Poly.one()) in terms


def test_coproduct_coassociative():
    w = Word((1, 2, 1))

    def split3_left_first(w):
        out = {}
        for l, r, c in coproduct(w):
            for ll, lr, c2 in coproduct(l):
                key = (ll, lr, r)
                out[key] = out.get(key, Poly.zero()) + c * c2
        return {k: v for k, v in out.items() if not v.is_zero()}

    def split3_right_first(w):
        out = {}
        for l, r, c in coproduct(w):
            for rl, rr, c2 in coproduct(r):
                key = (l, rl, rr)
                out[key] = out.get(key, Poly.zero()) + c * c2
        return {k: v for k, v in out.items() if not v.is_zero()}

    assert split3_left_first(w) == split3_right_first(w)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_pairing_respects_coproduct(seed):
    # (x, y·z) = sum over splittings x -> (l, r) of coeff-weighted
    # (l, y)(r, z): the defining compatibility of the pairing
    rng = random.Random(seed)
    letters = [rng.randint(1, 3) for _ in range(rng.randint(0, 4))]
    x = Word(letters)
    cut = rng.randint(0, len(letters))
    perm = letters[:]
    rng.shuffle(perm)
    y, z = Word(perm[:cut]), Word(perm[cut:])
    lhs = inner_product(x, Word(tuple(y) + tuple(z)))
    rhs = Poly.zero()
    for l, r, c in coproduct(x):
        rhs = rhs + c * inner_product(l, y) * inner_product(r, z)
    assert lhs == rhs
