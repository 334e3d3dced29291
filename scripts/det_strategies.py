#!/usr/bin/env python3
"""Time the determinant strategies against each other.

Three exact routes to det A_n for generic weights:
  formula   -- the closed box-product formula (instant, any n)
  chain     -- each orbit block of each cyclic factor along the level
               factorization read off as 1 - prod(weights) (Leibniz),
               checked to be one box and telescoped to the closed formula
               (the exact certificate for n = 4..7: 0.3 s at n = 6, about
               3 s at n = 7; dense elimination runs hours already at n = 4)
  dense     -- fraction-free elimination of the full n! x n! matrix
               (only attempted for n <= 3)

Usage:  python scripts/det_strategies.py [--max-n 6]
"""

import argparse
import time

from quongram.fock import Weight
from quongram.determinant import (det_formula, det_factor_chain, det_elim,
                                  peel_check)


def timed(label, fn):
    t0 = time.time()
    out = fn()
    print(f"  {label:8s} {time.time() - t0:8.2f}s")
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
        assert dict(chain.factors) == dict(formula.factors)
        if n <= 3:
            dense = timed("dense", lambda: det_elim(nu))
            assert peel_check(dense, formula)
        print(f"  agree: {formula}")


if __name__ == "__main__":
    main()
