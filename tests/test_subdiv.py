from math import comb

from quongram.subdiv import (Subdivision, bottom, discrete,
                             enumerate_subdivisions, less_than,
                             enumerate_chains, chain_to_bracketing,
                             bracketing_to_chain,
                             enumerate_bracketings, schroeder_counts,
                             schroeder_closed_form_a, schroeder_closed_form_b,
                             schroeder_closed_form_c, chain_count_by_size,
                             catalan_schroeder_poly)

SCHROEDER = [1, 1, 3, 11, 45, 197, 903, 4279]


def test_subdivision_count():
    for n in (1, 2, 3, 4, 5):
        assert len(enumerate_subdivisions(n)) == 2 ** (n - 1)


def test_order_is_reverse_refinement():
    s = Subdivision(((1, 3), (4, 4)))
    t = Subdivision(((1, 1), (2, 3), (4, 4)))
    assert less_than(s, t)
    assert not less_than(t, s)
    assert not less_than(discrete(4), bottom(4))


def test_chain_counts_match_recurrence():
    cs = schroeder_counts(7)
    for n in range(1, 8):
        assert len(enumerate_chains(n)) == cs[n - 1] == SCHROEDER[n - 1]


def test_closed_forms_agree():
    cs = schroeder_counts(8)
    for n in range(1, 9):
        assert schroeder_closed_form_a(n) == cs[n - 1]
        assert schroeder_closed_form_b(n) == cs[n - 1]
        assert schroeder_closed_form_c(n) == cs[n - 1]


def test_chain_bracketing_bijection():
    for n in (2, 3, 4, 5):
        chains = enumerate_chains(n)
        brs = set()
        for c in chains:
            br = chain_to_bracketing(c)
            assert bracketing_to_chain(br) == c
            brs.add(br.brackets)
        assert len(brs) == len(chains)
        assert brs == set(enumerate_bracketings(n, True))


def test_bracketing_counts_by_size():
    # c_{n,k} closed form against exhaustive enumeration
    for n in range(2, 7):
        by_size = {}
        for fam in enumerate_bracketings(n, True):
            by_size[len(fam)] = by_size.get(len(fam), 0) + 1
        for k in range(1, n):
            assert by_size.get(k, 0) == chain_count_by_size(n, k)


def test_counting_table_values():
    assert chain_count_by_size(3, 1) == 1
    assert chain_count_by_size(3, 2) == 2
    assert chain_count_by_size(4, 1) == 1
    assert chain_count_by_size(4, 2) == 5
    assert chain_count_by_size(4, 3) == 5
    # k = n-1 column is Catalan
    for n in range(2, 9):
        cat = comb(2 * (n - 1), n - 1) // n
        assert chain_count_by_size(n, n - 1) == cat


def test_poly_sums_to_schroeder():
    for n in range(1, 9):
        assert sum(catalan_schroeder_poly(n)) == SCHROEDER[n - 1]


def test_no_outer_bracketings():
    # without the outer bracket: (1, n) is excluded, the empty family is in;
    # n = 3 leaves the empty family, {[12]} and {[23]}
    fams = enumerate_bracketings(3, False)
    assert frozenset() in fams
    assert len(fams) == 3
    assert all((1, 3) not in fam for fam in fams)


def test_chain_signs_data():
    # nondegenerate interval count drives the sign of each chain term
    for c in enumerate_chains(3):
        assert c.nondegenerate_count() >= 1
    counts = sorted(c.nondegenerate_count() for c in enumerate_chains(3))
    assert counts == [1, 2, 2]
