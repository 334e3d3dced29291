import random

from hypothesis import given, settings, strategies as st

from quongram.perms import (Perm, all_perms, cycle, longest_element,
                            young_data, young_sequence, unimodal_subset,
                            shuffles, block_reversal)
from quongram.inverse import _restrict


def rand_perm(rng, n):
    img = list(range(1, n + 1))
    rng.shuffle(img)
    return Perm(img)


def test_composition_convention():
    g = Perm((2, 3, 1))
    h = Perm((2, 1, 3))
    # (g*h)(x) = g(h(x))
    assert (g * h).images == tuple(g(h(x)) for x in (1, 2, 3))


def test_inverse_and_length():
    for g in all_perms(4):
        assert (g * g.inverse()).is_identity()
        assert g.length() == len(g.inversion_set())
        assert g.inverse().length() == g.length()


def test_act_word_is_left_action():
    g, h = Perm((3, 1, 2)), Perm((2, 3, 1))
    w = (10, 20, 30)
    assert (g * h).act_word(w) == g.act_word(h.act_word(w))
    # result[p] = word[g^{-1}(p)]
    assert g.act_word(w) == tuple(w[g.inverse()(p) - 1] for p in (1, 2, 3))


def test_cycle_inversions():
    # t_{a,b} sends b -> b-1 -> ... -> a -> b, so its inversions are
    # {(a, j) : a < j <= b}
    for n in (4, 5):
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                t = cycle(a, b, n)
                assert t(b) if a == b else True
                assert t.inversion_set() == frozenset(
                    (a, j) for j in range(a + 1, b + 1))


def test_longest_element():
    w = longest_element(2, 4, 5)
    assert w.images == (1, 4, 3, 2, 5)
    assert longest_element(1, 4, 4).length() == 6


def test_young_data_blocks():
    g = Perm((2, 1, 3, 5, 4))
    yd = young_data(g)
    assert yd.blocks == ((1, 2), (3, 3), (4, 5))
    assert yd.cuts == frozenset({2, 3})
    # the restrictions of g to its blocks, renumbered from 1
    assert [_restrict(g, a, b).images for a, b in yd.blocks] == \
        [(2, 1), (1,), (2, 1)]


def test_young_sequence_worked_example():
    g = Perm((4, 1, 3, 2, 5, 7, 8, 6))
    steps, tree, depth = young_sequence(g)
    assert tree
    gp = g * block_reversal(young_data(g).blocks, 8)
    assert gp.images == (2, 3, 1, 4, 5, 6, 8, 7)
    # block subdivisions refine monotonically along the sequence
    cuts = None
    for h in steps:
        c = frozenset(b for _, b in young_data(h).blocks)
        if cuts is not None:
            assert cuts <= c
        cuts = c


def test_not_tree_like_detected():
    # exactly two permutations of S_4 cycle without reaching the identity
    bad = [g.images for g in all_perms(4) if not young_sequence(g)[1]]
    assert bad == [(2, 4, 1, 3), (3, 1, 4, 2)]


def test_unimodal_counts():
    from math import comb
    for m in (3, 4, 5):
        for k in range(1, m + 1):
            got = list(unimodal_subset(m, k, m + 1))
            assert len(got) == comb(m - 1, k - 1)
            for pi in got:
                img = pi.images[:m]
                assert pi(k) == m  # peak value at the peak position
                assert list(img[:k]) == sorted(img[:k])
                assert list(img[k - 1:]) == sorted(img[k - 1:], reverse=True)
                assert pi.images[m:] == tuple(range(m + 1, m + 2))


def test_shuffles_partition_group():
    n = 4
    J = {2}
    got = list(shuffles(J, n))
    # coset representatives: |S_4| / (|S_2| * |S_2|) = 6
    assert len(got) == 6


def test_block_reversal():
    w = block_reversal(((1, 2), (3, 3), (4, 5)), 5)
    assert w.images == (2, 1, 3, 5, 4)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_length_subadditive(seed):
    rng = random.Random(seed)
    g, h = rand_perm(rng, 5), rand_perm(rng, 5)
    assert (g * h).length() <= g.length() + h.length()
