import hashlib
from math import comb

import pytest

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


# sha256 of repr(enumerate_bracketings(n, outer)) for n = 1..8, pinned:
# the families and their (len, sorted) order, which lambda_sigma sums in,
# must not move
BRACKETING_DIGESTS = {
    False: [
        "67cd5e88eddf75639341a503b345f9bab1e33b102918475e2de8fadffe856212",
        "67cd5e88eddf75639341a503b345f9bab1e33b102918475e2de8fadffe856212",
        "e541f6b7e4bc86cd84252f57bb3a3fdf9389d4d82d0d9035558227e2da27c1c7",
        "abd0420aade2d77e721266674f3f777a747576aa4bd99cb9a5207445f93fedcc",
        "f08a5520126e2f2c1057a3fc216cc71613295c8270da61055e663cfa345b0dd6",
        "77f28a5707043e41ad136b31fdcb9cb6a290ba01b05c9889189f391ddfd30877",
        "88319b8fbb55c90483ad8b5546d6a8255225d2e7780d1ccbc49a5f1cae050790",
        "0b3e1d8cacd2f24f4c88b8d4fa56c51d68245b239f0299f7b0d00c51e43e1b41",
    ],
    True: [
        "67cd5e88eddf75639341a503b345f9bab1e33b102918475e2de8fadffe856212",
        "c12b6ae237e7b67ea7028872d29b026437f066f40f3a8d0d36fe9abf36ae7a44",
        "75e80ac9422cc4e4c4df8d12b370c22466f7f3924097614a7de8c391866d49ca",
        "a292f6c381673e548106c10897030b2530fceb76ce13af6b1f56cc9f9e82108b",
        "1ab96ee8717954370c2799e1820ccebf37aa78c5dc465a90ff33cc5523f1b650",
        "9f49f1d675ca8dcc81ac17033311a0b2bd479368c0d018db679e305840f60dfc",
        "f3169c069518d3921241ae0c3a817dd65270426eaadac2fae7d754a542af6bc4",
        "7813277e98898b8c5f7a7078f54a02d9214dd466611441cb76026cab2c6a8f71",
    ],
}


@pytest.mark.parametrize("outer", [False, True])
def test_bracketings_match_their_recorded_digests(outer):
    got = [hashlib.sha256(repr(enumerate_bracketings(n, outer)).encode())
           .hexdigest() for n in range(1, 9)]
    assert got == BRACKETING_DIGESTS[outer]
