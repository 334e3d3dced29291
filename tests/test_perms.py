import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from quongram import perms
from quongram.perms import (Perm, YoungData, all_perms, cycle,
                            longest_element, young_data, reversal_record,
                            children, unimodal_subset, shuffles,
                            block_reversal)
from quongram.inverse import _restrict
from quongram.subdiv import schroeder_counts


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


def test_reversal_record_worked_example():
    g = Perm((4, 1, 3, 2, 5, 7, 8, 6))
    singletons = tuple((k, k) for k in range(1, 9))
    assert reversal_record(g) == (
        (g, ((1, 4), (5, 5), (6, 8))),
        (Perm.parse("23145687"), ((1, 3), (4, 4), (5, 5), (6, 6), (7, 8))),
        (Perm.parse("13245678"), ((1, 1), (2, 3)) + singletons[3:]),
        (Perm.identity(8), singletons))
    gp = g * block_reversal(young_data(g).blocks, 8)
    assert reversal_record(g)[1][0] == gp
    assert list(children(((1, 4), (5, 5), (6, 8)),
                         ((1, 3), (4, 4), (5, 5), (6, 6), (7, 8)))) == [
        ((1, 4), ((1, 3), (4, 4))), ((6, 8), ((1, 1), (2, 3)))]


def test_not_tree_like_detected():
    # exactly two permutations of S_4 cycle without reaching the identity
    bad = [g.images for g in all_perms(4) if reversal_record(g) is None]
    assert bad == [(2, 4, 1, 3), (3, 1, 4, 2)]


def _separable(g):
    """Whether g avoids the patterns 2413 and 3142 (West 1995), checked on
    every four positions, with no reversal walked."""
    for quad in itertools.combinations(g.images, 4):
        pattern = tuple(sorted(quad).index(v) + 1 for v in quad)
        if pattern in ((2, 4, 1, 3), (3, 1, 4, 2)):
            return False
    return True


def test_tree_like_is_separable_up_to_n_7():
    for n in range(1, 8):
        for g in all_perms(n):
            assert (reversal_record(g) is not None) == _separable(g), g


def test_tree_like_counts_are_twice_the_chain_counts():
    # the large Schroeder numbers 2, 6, 22, 90, 394, 1 806
    counts = [sum(reversal_record(g) is not None for g in all_perms(n))
              for n in range(2, 8)]
    assert counts == [2 * c for c in schroeder_counts(7)[1:]]
    assert counts == [2, 6, 22, 90, 394, 1806]


def test_every_level_refines_the_one_before_down_to_the_identity():
    for n in range(1, 8):
        for g in all_perms(n):
            levels = reversal_record(g)
            if levels is None:
                continue
            assert levels[0][0] == g
            assert levels[-1] == (Perm.identity(n),
                                  tuple((k, k) for k in range(1, n + 1)))
            for (h, outer), (nxt, inner) in zip(levels, levels[1:]):
                assert outer == young_data(h).blocks
                assert nxt == h * block_reversal(outer, n)
                # each block lies inside one block of the level before
                assert all(any(a <= x and y <= b for a, b in outer)
                           for x, y in inner)


def test_a_level_that_does_not_refine_raises(monkeypatch):
    # the identity given one block: level 1 merges the two blocks of
    # g = 213, which children() would then read wrongly
    real = perms.young_data

    def merged(h):
        if h.is_identity():
            return YoungData(frozenset(), ((1, h.n),))
        return real(h)

    monkeypatch.setattr(perms, "young_data", merged)
    with pytest.raises(ArithmeticError, match="does not refine"):
        reversal_record(Perm((2, 1, 3)))


def test_no_reversal_record_outlives_a_count():
    # counting the tree-like permutations reads each of the n! records
    # once; a cache of them would keep the last thousand, 1.5 MB at n = 7
    tracemalloc.start()
    try:
        count = sum(reversal_record(g) is not None for g in all_perms(7))
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 1806
    assert held < 2**18


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
