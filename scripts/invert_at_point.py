#!/usr/bin/env python3
"""Invert a generic n-letter Gram matrix at a random hermitian rational
point, then verify A . A^-1 = I exactly, over Gaussian integers after
scaling A and each column of A^-1 by their common denominators, and
det A = the factored determinant formula at the same point.

The symbolic inverse table is built for n <= 6 (``quongram invert --n 5``
prints all of it in about 1.3 s), but from n = 6 on its dense n! x n! form is
out of reach: at n = 6 that is 283 680 printed values, over the CLI's limit
(``cli.INVERT_MAX_WORDS``).  The per-permutation coefficient recursion
evaluates happily at a point, with no symbolic table; this is the go-to
sanity experiment before trusting any n >= 5 coefficient value.

Each stage line ends with the process's peak resident memory so far
(``resource.getrusage``), in MB.

Usage:  python scripts/invert_at_point.py [-n 5] [--seed 0] [--skip-verify]
"""

import argparse
import random
import resource
import time

from quongram.ring import random_hermitian
from quongram.determinant import det_formula, det_point, is_inverse
from quongram.fock import Weight
from quongram.gram import build_generic
from quongram.inverse import inverse_matrix_at


def peak_mb() -> str:
    """The peak resident set size of this process so far (Linux: KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return f"peak {kib / 1024:.0f} MB"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-n", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--skip-verify", action="store_true",
                    help="only time the inverse, skip both checks")
    args = ap.parse_args()

    nu = Weight.generic_n(args.n)
    rng = random.Random(args.seed)
    a = random_hermitian(nu.labels, rng, 32, 12, 12)

    t0 = time.time()
    inv = inverse_matrix_at(nu, a, "hermitian")
    size = len(inv)
    print(f"n={args.n}: {size}x{size} inverse in {time.time() - t0:.1f}s,"
          f" {peak_mb()}")

    if args.skip_verify:
        return
    t0 = time.time()
    A = build_generic(nu)
    Ap = A.evaluate(a, "hermitian")
    ok = is_inverse(Ap, inv)
    print(f"verify A.A^-1 = I: {'OK' if ok else 'FAILED'}"
          f" in {time.time() - t0:.1f}s, {peak_mb()}")
    t0 = time.time()
    ok = det_point(Ap) == det_formula(nu).evaluate(a)
    print(f"verify det A = formula: {'OK' if ok else 'FAILED'}"
          f" in {time.time() - t0:.1f}s, {peak_mb()}")


if __name__ == "__main__":
    main()
