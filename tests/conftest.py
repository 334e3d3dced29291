import random
from fractions import Fraction

import pytest

from quongram.ring import GaussRat, random_hermitian
from quongram.fock import Weight


def hermitian_assignment(labels, rng):
    """Random hermitian parameter point with |q_ij| well inside the unit
    disc (diagonals real)."""
    return random_hermitian(labels, rng, 100, 60, 90)


def symmetric_assignment(labels, rng, scale=97, bound=50):
    a = {}
    for i in labels:
        for j in labels:
            if j < i:
                continue
            v = GaussRat(Fraction(rng.randint(-bound, bound), scale))
            a[("q", i, j)] = v
            a[("q", j, i)] = v
    return a


def small_weights(max_size):
    """All weights up to relabeling with |nu| <= max_size."""
    def parts(n, largest=None):
        largest = largest or n
        if n == 0:
            yield ()
            return
        for k in range(min(n, largest), 0, -1):
            for rest in parts(n - k, k):
                yield (k,) + rest

    out = []
    for n in range(1, max_size + 1):
        for p in parts(n):
            out.append(Weight({i + 1: m for i, m in enumerate(p)}))
    return out


@pytest.fixture
def rng():
    return random.Random(20230817)
