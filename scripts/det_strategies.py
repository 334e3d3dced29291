#!/usr/bin/env python3
"""Time the determinant strategies against each other.

Three exact routes to det A_n for generic weights:
  formula   -- the closed box-product formula (instant, any n)
  chain     -- each orbit block of each cyclic factor along the level
               factorization read off as 1 - prod(weights) (Leibniz),
               checked to be one box and telescoped to the closed formula
               (the exact certificate for n = 4..7: about 0.15 s at n = 6,
               about 2 s at n = 7; dense elimination runs hours already at
               n = 4)
  dense     -- fraction-free elimination of the full n! x n! matrix
               (only attempted for n <= 3)
and, for n <= 4, the elimination kernel on one slice:
  slice     -- det_univariate (elimination mod p at enough points, then
               interpolation) on the slice q_ij = c_ij q of A_n, slopes
               c_ij drawn from 2..9 by a seeded generator, checked against
               the formula sliced box by box (0.02 s at n = 4; n = 5 is
               left out, as it takes about 50 s with its points split
               over two cores: 601 points of a 120 x 120 matrix modulo
               2^3217 - 1)

Usage:  python scripts/det_strategies.py [--max-n 6]
"""

import argparse
import random
import time

from quongram.fock import Weight
from quongram.gram import build_generic
from quongram.determinant import (det_formula, det_factor_chain, det_elim,
                                  det_univariate, peel_exponents,
                                  poly_to_univariate)
from quongram.boxes import BoxFactor


def timed(label, fn):
    t0 = time.time()
    out = fn()
    print(f"  {label:8s} {time.time() - t0:8.2f}s")
    return out


def sliced_formula(formula, slope) -> list:
    """The factored determinant on the slice: the product of the sliced
    boxes, each to its exponent, as a coefficient list."""
    out = [1]
    for letters, e in formula.factors:
        box = BoxFactor(letters, range(1, len(letters) + 1)).expand()
        box = poly_to_univariate(box, slope)
        for _ in range(e):
            nxt = [0] * (len(out) + len(box) - 1)
            for i, x in enumerate(out):
                for j, y in enumerate(box):
                    nxt[i + j] += x * y
            out = nxt
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=6)
    args = ap.parse_args()

    for n in range(2, args.max_n + 1):
        nu = Weight.generic_n(n)
        print(f"n={n}:")
        formula = timed("formula", lambda: det_formula(nu))
        chain = timed("chain", lambda: det_factor_chain(nu))
        assert chain == formula
        if n <= 3:
            dense = timed("dense", lambda: det_elim(nu))
            assert peel_exponents(dense, nu) == dict(formula.factors)
        if n <= 4:
            rng = random.Random(1)
            slopes = {(i, j): rng.randint(2, 9)
                      for i in nu.labels for j in nu.labels}
            slope = lambda i, j: slopes[(i, j)]
            rows = [[poly_to_univariate(e, slope) for e in row]
                    for row in build_generic(nu).entries]
            got = timed("slice", lambda: det_univariate(rows))
            assert got == sliced_formula(formula, slope)
        print(f"  agree: {formula}")


if __name__ == "__main__":
    main()
