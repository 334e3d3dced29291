#!/usr/bin/env python3
"""Survey claimed common denominators of the inverse Gram matrix.

For each n, check coefficient by coefficient whether a candidate product of
box factors clears every denominator of [A_n]^-1.  The inverse and each
candidate commute with renaming letters, so a coefficient's verdict at the
identity word is its verdict at every word, and each is decided there
(n = 5 in about 0.1 s per mode on a 2-core x86 machine).  The single-copy
one-parameter product prod_k (1 - q^{k(k-1)}) works for small n but fails
at n = 8 -- the failing coefficient (the double-reversal permutation
43218765) is checked directly without building the 8-letter basis.

Usage:  python scripts/denominator_survey.py [--max-n 5] [--mode one-param]
"""

import argparse

from quongram.perms import Perm
from quongram.inverse import zagier_check


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--mode", default="original-conjecture",
                    choices=["multi", "extended-multi", "one-param",
                             "original-conjecture"])
    ap.add_argument("--skip-counterexample", action="store_true")
    args = ap.parse_args()

    for n in range(2, args.max_n + 1):
        print(zagier_check(n, args.mode))

    if args.skip_counterexample:
        return
    print()
    g = Perm((4, 3, 2, 1, 8, 7, 6, 5))
    print("n=8 double reversal, single copies:")
    print(zagier_check(8, "original-conjecture", coeff=g))
    print("n=8 double reversal, with multiplicities:")
    print(zagier_check(8, "one-param", coeff=g))


if __name__ == "__main__":
    main()
