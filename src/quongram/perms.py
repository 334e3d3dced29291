"""
Symmetric-group combinatorics used throughout the Gram-matrix algorithms:
inversion sets, the cycles t_{a,b}, interval-reversals w_[a..b], descent-set
shuffles, minimal Young subgroups and the iterated block-reversal ("Young
sequence") that classifies which permutations carry a nonzero inverse
coefficient.

Permutations are 1-based tuples in one-line notation; composition is
(g*h)(x) = g(h(x)).

>>> g = Perm.parse("41325786")
>>> sorted(young_data(g).cuts)
[4, 5]
>>> reversal_record(g)[1][0]
Perm.parse('23145687')
"""

from __future__ import annotations

__all__ = [
    "Perm", "YoungData", "cycle", "longest_element", "young_data",
    "reversal_record", "children", "thickened", "unimodal_subset",
    "shuffles",
    "all_perms",
]

import itertools
from collections import namedtuple
from functools import lru_cache


class Perm:
    """A permutation of {1..n} in one-line notation (images of 1..n)."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..n: {images}")
        self.images = images

    # -- group structure ---------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, o: "Perm") -> "Perm":
        """(g*h)(x) = g(h(x))."""
        p = Perm.__new__(Perm)
        p.images = tuple(self.images[o.images[x] - 1] for x in range(self.n))
        return p

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        p = Perm.__new__(Perm)
        p.images = tuple(inv)
        return p

    @staticmethod
    def identity(n: int) -> "Perm":
        p = Perm.__new__(Perm)
        p.images = tuple(range(1, n + 1))
        return p

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.n + 1))

    def __eq__(self, o):
        return isinstance(o, Perm) and self.images == o.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, o):
        return self.images < o.images

    # -- combinatorics -----------------------------------------------------
    def inversion_set(self) -> frozenset:
        """{(a,b) | a<b, g(a)>g(b)}."""
        im = self.images
        return frozenset(
            (a, b)
            for a in range(1, self.n + 1)
            for b in range(a + 1, self.n + 1)
            if im[a - 1] > im[b - 1]
        )

    def length(self) -> int:
        return len(self.inversion_set())

    def descents(self) -> frozenset:
        """{a | g(a) > g(a+1)} as positions 1..n-1."""
        im = self.images
        return frozenset(a for a in range(1, self.n) if im[a - 1] > im[a])

    def act_word(self, word):
        """Place permutation on a sequence: result[p] = word[g^{-1}(p)]."""
        inv = self.inverse().images
        return tuple(word[inv[p] - 1] for p in range(self.n))

    # -- presentation ------------------------------------------------------
    def __str__(self):
        if self.n <= 9:
            return "".join(str(x) for x in self.images)
        return ",".join(str(x) for x in self.images)

    def __repr__(self):
        return f"Perm.parse({str(self)!r})"

    @staticmethod
    def parse(s: str) -> "Perm":
        s = s.strip()
        if "," in s:
            return Perm(int(x) for x in s.split(","))
        return Perm(int(ch) for ch in s)


def all_perms(n: int):
    """All of S_n as Perm objects, in lexicographic one-line order."""
    out = []
    for images in itertools.permutations(range(1, n + 1)):
        p = Perm.__new__(Perm)
        p.images = images
        out.append(p)
    return out


def cycle(a: int, b: int, n: int) -> Perm:
    """t_{a,b}: sends b to b-1 to ... to a, and a to b; fixes the rest.

    >>> str(cycle(1, 3, 3))
    '312'
    """
    if not (1 <= a <= b <= n):
        raise ValueError(f"need 1 <= a <= b <= n, got a={a} b={b} n={n}")
    img = list(range(1, n + 1))
    for x in range(a + 1, b + 1):
        img[x - 1] = x - 1
    img[a - 1] = b
    return Perm(img)


def longest_element(a: int, b: int, n: int) -> Perm:
    """w_[a..b]: reverses the interval [a..b], fixes everything else.

    >>> str(longest_element(1, 4, 8))
    '43215678'
    """
    if not (1 <= a <= b <= n):
        raise ValueError(f"need 1 <= a <= b <= n, got a={a} b={b} n={n}")
    img = list(range(1, n + 1))
    img[a - 1:b] = reversed(img[a - 1:b])
    return Perm(img)


class YoungData(namedtuple("YoungData", "cuts blocks")):
    """Minimal Young subgroup containing g.

    cuts: the set J(g) = {j < n : g({1..j}) = {1..j}}, a frozenset;
    blocks: intervals (a, b) of the subdivision carved out by the cuts.
    """

    __slots__ = ()


def young_data(g: Perm) -> YoungData:
    """J(g) and its interval subdivision."""
    cuts = []
    total = target = 0
    for j, x in enumerate(g.images[:-1], start=1):
        total += x
        target += j
        if total == target:
            cuts.append(j)
    blocks = []
    prev = 0
    for j in cuts + [g.n]:
        blocks.append((prev + 1, j))
        prev = j
    return YoungData(frozenset(cuts), tuple(blocks))


def reversal_record(g: Perm):
    """The block-reversal sequence g_0 = g, g_{k+1} = g_k w_{J(g_k)} as
    levels (g_k, blocks of J(g_k)) down to the identity, or None if the
    walk revisits a permutation: g is tree-like when it is not None.

    w_{J(g_k)} keeps each {1..j}, j in J(g_k), so each level refines the
    one before; readers pick a block's ``children`` by containment, so
    the walk raises ArithmeticError on a level that does not.  Not
    cached: a count reads each of n! records once, and the Lambda
    recursion reads its plans from ``inverse._step_plan``, which is."""
    levels, seen, cuts, cur = [], set(), frozenset(), g
    while True:
        data = young_data(cur)
        if not cuts <= data.cuts:
            raise ArithmeticError(f"reversal level {len(levels)} of {g} "
                                  f"does not refine the one before")
        levels.append((cur, data.blocks))
        if cur.is_identity():
            return tuple(levels)
        seen.add(cur)
        cur = cur * block_reversal(data.blocks, g.n)
        if cur in seen:
            return None
        cuts = data.cuts


def children(outer, inner):
    """((a, b), the blocks of the refinement ``inner`` inside (a, b),
    renumbered from 1) for each block (a, b) of ``outer`` with b > a."""
    for a, b in outer:
        if b > a:
            yield (a, b), tuple((x - (a - 1), y - (a - 1))
                                for x, y in inner if a <= x and y <= b)


def thickened(levels):
    """((a, b), subdivision) for each thickened identity coefficient of the
    closed form of Lambda(g), read off its reversal record ``levels``: the
    blocks of g over the whole word, then the ``children`` of each block
    of each level in the level after it.

    >>> [sub for _, sub in thickened(reversal_record(Perm.parse("2143")))]
    [((1, 2), (3, 4)), ((1, 1), (2, 2)), ((1, 1), (2, 2))]
    """
    subs = [blocks for _, blocks in levels]
    yield (1, subs[0][-1][1]), subs[0]
    for outer, inner in zip(subs, subs[1:]):
        yield from children(outer, inner)


def unimodal_subset(m: int, k: int, n: int):
    """All pi in S_m x S_1^{n-m} with pi(1)<...<pi(k)>pi(k+1)>...>pi(m).

    >>> [str(p) for p in unimodal_subset(3, 2, 3)]
    ['132', '231']
    """
    if not (1 <= k <= m <= n):
        raise ValueError(f"need 1 <= k <= m <= n, got k={k} m={m} n={n}")
    out = []
    fixed = tuple(range(m + 1, n + 1))
    for rising in itertools.combinations(range(1, m + 1), k):
        if rising[-1] != m:
            continue  # pi(k) must be the maximum m
        falling = tuple(sorted(set(range(1, m + 1)) - set(rising), reverse=True))
        out.append(Perm(rising + falling + fixed))
    return out


def shuffles(J, n: int):
    """gamma_J: all g in S_n whose descent set is contained in J.

    These are the minimal coset representatives of the Young subgroup S_J:
    every g factors uniquely as a_J * g_J with a_J in gamma_J, g_J in S_J and
    lengths adding.

    >>> [str(p) for p in shuffles({1}, 3)]
    ['123', '213', '312']
    """
    J = frozenset(J)
    return [g for g in all_perms(n) if g.descents() <= J]


# a full pass of any benchmark workload (seed 1) leaves at most 26 entries;
# 1024 holds every subdivision of every degree <= 10
@lru_cache(maxsize=1024)
def block_reversal(blocks: tuple, n: int) -> Perm:
    """w_sigma: simultaneous reversal of each interval of a subdivision."""
    w = Perm.identity(n)
    for a, b in blocks:
        w = w * longest_element(a, b, n)
    return w


if __name__ == "__main__":
    import doctest

    doctest.testmod()
