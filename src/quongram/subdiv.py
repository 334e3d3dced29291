"""
The lattice of interval subdivisions of {1..n}, its chains and their
bracketing encodings, and the super-Schroeder counting machinery.

A subdivision is an ordered tuple of contiguous intervals (a, b) covering
{1..n}. The partial order used for chains is *reverse refinement*: sigma <
sigma' iff sigma' is obtained from sigma by properly subdividing **every**
nontrivial (length >= 2) interval of sigma. Chains from the one-block bottom
element are in bijection with generalized bracketings of the word 1..n, and
are counted by the super-Schroeder numbers 1, 1, 3, 11, 45, 197, ...

>>> [str(s) for s in enumerate_subdivisions(3)]
['[1][2][3]', '[1][23]', '[12][3]', '[123]']
>>> len(enumerate_chains(4))
11
"""

from __future__ import annotations

__all__ = [
    "Subdivision", "Chain", "Bracketing", "enumerate_subdivisions",
    "covers", "less_than", "enumerate_chains", "chain_to_bracketing",
    "bracketing_to_chain", "enumerate_bracketings", "schroeder_counts",
    "schroeder_closed_form_a", "schroeder_closed_form_b",
    "schroeder_closed_form_c", "chain_count_by_size",
    "catalan_schroeder_poly",
]

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


def _word(a: int, b: int) -> str:
    return "".join(str(x) for x in range(a, b + 1))


class Subdivision:
    """Ordered interval partition of {1..n}.

    Its order ``<`` is partial (``less_than``), so it is not a tuple: a tuple
    would compare lexicographically under ``<=``."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: tuple):
        # ((a1,b1),(a2,b2),...) with b_k + 1 = a_{k+1}
        prev = 0
        for a, b in intervals:
            if a != prev + 1 or b < a:
                raise ValueError(f"not an interval partition: {intervals}")
            prev = b
        self.intervals = intervals

    def __eq__(self, o):
        if o.__class__ is not Subdivision:
            return NotImplemented
        return self.intervals == o.intervals

    def __hash__(self):
        return hash((self.intervals,))

    @property
    def n(self) -> int:
        return self.intervals[-1][1]

    def nontrivial(self) -> tuple:
        return tuple((a, b) for a, b in self.intervals if b > a)

    def is_discrete(self) -> bool:
        return not self.nontrivial()

    def __str__(self):
        return "".join(f"[{_word(a, b)}]" for a, b in self.intervals)

    def __lt__(self, other: "Subdivision") -> bool:
        return less_than(self, other)


def bottom(n: int) -> Subdivision:
    return Subdivision(((1, n),))


def discrete(n: int) -> Subdivision:
    return Subdivision(tuple((k, k) for k in range(1, n + 1)))


def _compositions(a: int, b: int):
    """All ways to cut [a..b] into consecutive intervals (including no cut)."""
    inner = range(a, b)
    for cuts in itertools.chain.from_iterable(
            itertools.combinations(inner, r) for r in range(b - a + 1)):
        pieces = []
        prev = a
        for c in cuts:
            pieces.append((prev, c))
            prev = c + 1
        pieces.append((prev, b))
        yield tuple(pieces)


def enumerate_subdivisions(n: int):
    """All 2^(n-1) subdivisions, ordered lexicographically by endpoints."""
    return [Subdivision(p) for p in sorted(_compositions(1, n))]


def less_than(s: Subdivision, t: Subdivision) -> bool:
    """Reverse refinement: t properly subdivides every nontrivial interval
    of s (and leaves singletons alone)."""
    if s.is_discrete():
        return False
    # walk t's intervals inside each s-interval
    ti = 0
    tv = t.intervals
    for a, b in s.intervals:
        pieces = []
        while ti < len(tv) and tv[ti][1] <= b:
            if tv[ti][0] < a:
                return False
            pieces.append(tv[ti])
            ti += 1
        if not pieces or pieces[0][0] != a or pieces[-1][1] != b:
            return False
        if b > a and len(pieces) == 1:
            return False  # nontrivial interval must be properly subdivided
    return ti == len(tv)


def covers(s: Subdivision):
    """All t with s < t in one step (t arbitrary proper subdivision of each
    nontrivial interval -- the order relation is one-step by definition)."""
    choices = []
    for a, b in s.intervals:
        if b == a:
            choices.append([((a, a),)])
        else:
            choices.append([p for p in _compositions(a, b) if len(p) > 1])
    out = []
    for combo in itertools.product(*choices):
        out.append(Subdivision(tuple(itertools.chain.from_iterable(combo))))
    return out


class Chain(namedtuple("Chain", "members")):
    """A maximal-interval chain bottom = sigma0 < sigma1 < ... < sigmam,
    excluding the discrete top element: members is a tuple of
    Subdivisions, members[0] == bottom(n)."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return self.members[0].n

    def nondegenerate_count(self) -> int:
        """b_+(C): total number of nontrivial intervals over all members."""
        return sum(len(m.nontrivial()) for m in self.members)

    def __str__(self):
        return " < ".join(str(m) for m in self.members)


def enumerate_chains(n: int):
    """All chains from [1..n] toward (but excluding) the discrete element.

    The empty-extension chain {[1..n]} itself is included (for n = 1 the
    single chain is just the bottom).

    >>> len(enumerate_chains(3))
    3
    """
    start = bottom(n)
    out = []

    def extend(prefix):
        out.append(Chain(tuple(prefix)))
        for t in covers(prefix[-1]):
            if not t.is_discrete():
                extend(prefix + [t])

    if n == 1:
        return [Chain((start,))]
    extend([start])
    return out


class Bracketing(namedtuple("Bracketing", "n brackets")):
    """A laminar family of nondegenerate intervals of {1..n} (the bracket
    pairs), always containing the outer interval (1, n) for chains;
    brackets is a frozenset of (a, b) with b > a."""

    __slots__ = ()

    def __str__(self):
        closes: dict = {}
        for a, b in self.brackets:
            closes[b] = closes.get(b, 0) + 1
        # wider brackets open first / close last automatically for laminar
        # families once we sort the opens by decreasing end
        by_start: dict = {}
        for a, b in self.brackets:
            by_start.setdefault(a, []).append(b)
        parts = []
        for x in range(1, self.n + 1):
            for b in sorted(by_start.get(x, []), reverse=True):
                parts.append("[")
            parts.append(str(x))
            for _ in range(closes.get(x, 0)):
                parts.append("]")
        return "".join(parts)


def chain_to_bracketing(c: Chain) -> Bracketing:
    """Collect all nontrivial intervals across members (they are distinct
    and laminar)."""
    seen = []
    for m in c.members:
        for iv in m.nontrivial():
            assert iv not in seen, "chain members repeat an interval"
            seen.append(iv)
    return Bracketing(c.n, frozenset(seen))


def bracketing_to_chain(br: Bracketing) -> Chain:
    """Invert chain_to_bracketing: peel the laminar family level by level."""
    n = br.n
    if (1, n) not in br.brackets and n > 1:
        raise ValueError("chain bracketings contain the outer bracket")
    remaining = set(br.brackets)
    members = [bottom(n)]
    if n == 1:
        return Chain((bottom(1),))
    remaining.discard((1, n))
    cur = bottom(n)
    while True:
        # subdivide every nontrivial interval of cur into its maximal
        # remaining sub-brackets and singletons
        pieces = []
        used = []
        for a, b in cur.intervals:
            if a == b:
                pieces.append((a, a))
                continue
            inside = [iv for iv in remaining if a <= iv[0] and iv[1] <= b]
            maximal = [iv for iv in inside
                       if not any(o != iv and o[0] <= iv[0] and iv[1] <= o[1]
                                  for o in inside)]
            maximal.sort()
            x = a
            sub = []
            for p, q in maximal:
                for y in range(x, p):
                    sub.append((y, y))
                sub.append((p, q))
                x = q + 1
            for y in range(x, b + 1):
                sub.append((y, y))
            if len(sub) == 1:
                raise ValueError(f"interval [{a}..{b}] never subdivided")
            pieces.extend(sub)
            used.extend(maximal)
        nxt = Subdivision(tuple(pieces))
        if nxt.is_discrete() and not used:
            break
        members.append(nxt)
        remaining.difference_update(used)
        if nxt.is_discrete():
            break
        cur = nxt
    if remaining:
        raise ValueError(f"brackets left over: {remaining}")
    if members[-1].is_discrete():
        members.pop()
    return Chain(tuple(members))


# a full pass of any benchmark workload (seed 1) leaves at most 4 entries;
# 32 holds both forms for every n <= 16
@lru_cache(maxsize=32)
def enumerate_bracketings(n: int, outer: bool):
    """All laminar families of nondegenerate intervals of a word of length n;
    with outer=True the family must contain the full interval.

    Returned as frozensets of (a, b) pairs, 1-based.
    """
    if n == 1:
        return (frozenset(),)
    # a family without (1, n) comes from one composition: its maximal
    # brackets, each piece longer than one letter carrying one of them, and
    # the letters they leave out as single pieces
    families = []
    for pieces in _compositions(1, n):
        if len(pieces) == 1:
            continue
        piecechoices = [
            [frozenset((p + a - 1, q + a - 1) for p, q in sub)
             for sub in enumerate_bracketings(b - a + 1, True)]
            if b > a else [frozenset()]
            for a, b in pieces]
        families.extend(frozenset().union(*combo)
                        for combo in itertools.product(*piecechoices))
    if outer:
        families = [f | {(1, n)} for f in families]
    return tuple(sorted(families, key=lambda f: (len(f), sorted(f))))


def schroeder_counts(n_max: int):
    """c_1..c_{n_max} via (n+1)c_{n+1} = 3(2n-1)c_n - (n-2)c_{n-1}.

    >>> schroeder_counts(6)
    [1, 1, 3, 11, 45, 197]
    """
    cs = [1, 1]
    for n in range(2, n_max):
        nxt = (3 * (2 * n - 1) * cs[-1] - (n - 2) * cs[-2])
        assert nxt % (n + 1) == 0
        cs.append(nxt // (n + 1))
    return cs[:n_max]


def _double_factorial(k: int) -> int:
    if k <= 0:
        return 1
    out = 1
    while k > 0:
        out *= k
        k -= 2
    return out


def schroeder_closed_form_a(n: int) -> int:
    """c_n as an alternating double-factorial sum (square-root expansion of
    the algebraic generating function); valid for n >= 2."""
    if n == 1:
        return 1
    total = Fraction(0)
    for v in range(0, n // 2 + 1):
        term = Fraction((-1) ** v * _double_factorial(2 * n - 2 * v - 3)
                        * 3 ** (n - 2 * v),
                        factorial(v) * factorial(n - 2 * v) * 2 ** (v + 2))
        total += term
    assert total.denominator == 1
    return int(total)


def schroeder_closed_form_b(n: int) -> int:
    """c_n via the lattice-path trinomial sum.

    The trinomial sum itself counts the underdiagonal king-paths, which is
    2*c_n for n >= 2 (and 1 for n = 1); we halve accordingly.
    """
    total = Fraction(0)
    for r in range(0, n):
        m = 2 * n - 1 - r
        total += Fraction(factorial(m),
                          factorial(r) * factorial(n - r) * factorial(n - r - 1)
                          ) / m
    if n >= 2:
        total /= 2
    assert total.denominator == 1
    return int(total)


def schroeder_closed_form_c(n: int) -> int:
    """c_n by Lagrange inversion (signed Catalan convolution)."""
    total = Fraction(0)
    for v in range(0, n):
        total += Fraction((-1) ** (n - 1 - v) * 2 ** v
                          * comb(2 * v + 1, v) * comb(n + v - 1, n - v - 1),
                          2 * v + 1)
    assert total.denominator == 1
    return int(total)


def chain_count_by_size(n: int, k: int) -> int:
    """c_{n,k}: chains whose bracketing has k bracket pairs.

    c_{n,k} = (1/n) C(n+k-1, k) C(n-2, k-1) for n >= 2, and c_{1,0} = 1.
    """
    if n == 1:
        return 1 if k == 0 else 0
    if not 1 <= k <= n - 1:
        return 0
    val = Fraction(comb(n + k - 1, k) * comb(n - 2, k - 1), n)
    assert val.denominator == 1
    return int(val)


def catalan_schroeder_poly(n: int):
    """Coefficient list [c_{n,0}, c_{n,1}, ...] of P_n(z)."""
    if n == 1:
        return [1]
    return [0] + [chain_count_by_size(n, k) for k in range(1, n)]


if __name__ == "__main__":
    import doctest

    doctest.testmod()
