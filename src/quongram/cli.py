"""
Command-line front end: build and invert Gram matrices, print factored
determinants, count chains and bracketings, run the arrangement /
quantum-group translations, and execute the verification suites.

Exit status: 0 on success, 1 when a verification fails, 2 on usage errors.
All randomized checks are driven by ``--seed`` and produce byte-identical
output for identical invocations.
"""

from __future__ import annotations

__all__ = ["main", "build_parser", "parse_weight"]

import argparse
import itertools
import json
import math
import random
import sys

from .ring import random_hermitian
from .fock import Word, Weight, inner_product, check_ccr
from .perms import Perm, all_perms, reversal_record, thickened
from .gram import build_generic, build_degenerate
from .boxes import BoxFraction
from . import determinant as det_mod
from . import inverse as inv_mod
from . import subdiv
from . import applications as app_mod


class Usage(Exception):
    pass


class VerifyFailure(Exception):
    pass


def parse_weight(args) -> Weight:
    """--weight takes comma-separated multiplicities aligned to labels
    1, 2, ...; --n k is shorthand for the generic weight on k letters."""
    if getattr(args, "n", None) is not None and getattr(args, "weight", None):
        raise Usage("give either --weight or --n, not both")
    if getattr(args, "n", None) is not None:
        _check_n("--n", args.n)
        return Weight.generic_n(args.n)
    if not getattr(args, "weight", None):
        raise Usage("a weight is required (--weight m1,m2,... or --n k)")
    try:
        mults = [int(x) for x in args.weight.split(",")]
    except ValueError:
        raise Usage(f"malformed weight {args.weight!r}")
    if any(m < 0 for m in mults) or sum(mults) == 0:
        raise Usage(f"malformed weight {args.weight!r}")
    return Weight({i + 1: m for i, m in enumerate(mults) if m})


def _print_matrix(mat, fmt: str, out):
    if fmt == "json":
        json.dump(mat.to_json(), out, indent=2, sort_keys=True)
        out.write("\n")
    elif fmt == "csv":
        out.write(mat.to_csv())
    else:
        for w, row in zip(mat.basis.words, mat.map_distinct(str)):
            out.write(f"{w}: " + " | ".join(row) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _words(nu: Weight) -> int:
    """|ν|! / ∏ m_i!, the number of words of weight ν, without listing them."""
    return math.factorial(nu.size) // math.prod(
        math.factorial(m) for _, m in nu.multiplicities)


def _check_n(flag: str, n: int):
    if n < 1:
        raise Usage(f"{flag} must be at least 1, got {n}")


def _check_size(what: str, size: int, unit: str, limit: int,
                hint: str = ""):
    if size > limit:
        raise Usage(f"{what} works on {size} {unit}, over the limit of "
                    f"{limit}{hint}")


def _check_fiber_terms(what: str, nu: Weight):
    if not nu.generic:
        _check_size(what, _words(nu) * math.factorial(nu.size),
                    "fiber terms", DEGENERATE_MAX_TERMS)


# Limits measured on a 2-core VM (Python 3.11), one fresh process each.
# build: n = 6 (720 words) takes 1.9-2.0 s and 95 MB, 2,2,2,1 (630 words)
# 12 s and 241 MB (3.1 s and 33 MB with --one-param); n = 7 has 5 040 words.
BUILD_MAX_WORDS = 720
# A degenerate Gram matrix (build, det) sums words * |nu|! terms, one per
# lift (gram.build_degenerate): 2,2,2,1 has 3.2 M (12 s), 4,4 2.8 M
# (2.4 s), 10 3.6 M (18 s, one word, so one row reads every lift); 3,3,2
# has 560 words but 22.6 M terms.
DEGENERATE_MAX_TERMS = 4_000_000
# det of a degenerate weight eliminates its dense Gram matrix (det_elim).
# Multiparameter: 6 words take up to 0.6 s (5,1; 2,2 0.2 s), 10 words
# (3,2) 69 s and 12 words (2,1,1) 71 s.  One-parameter: 20 words (3,1,1)
# take 1.4-2.6 s, 30 words (2,2,1) 18 s.
DET_ELIM_MAX_WORDS = 6
DET_ELIM_ONE_PARAM_MAX_WORDS = 20
# det --n N of a generic weight prints its 2^N - N - 1 box factors: N = 12,
# 13, 14 take 0.8 s / 33 MB, 2.0 s / 53 MB, 4.2 s / 101 MB, and N = 16
# 10 s / 452 MB.  varchenko --det prints as many edge factors, more cheaply
# (N = 16: 1.0 s, 61 MB).
FACTORED_DET_MAX_LETTERS = 14
# varchenko builds the n! x n! arrangement form like build: n = 6 (720
# words) takes 2.4 s and 92 MB.  contravariant builds S twice, by
# specializing A_n and by the g_i recursion: n = 5 (120 words) takes 0.8 s
# and 42 MB, n = 6 48 s and 1.28 GB, nearly all in the recursion.  Under
# --b-matrix its determinant is expanded in t factor by factor: n = 6
# (b = -2) takes 2.4 s and 29 MB, n = 7 over 200 s.
CONTRAVARIANT_MAX_WORDS = 120
CONTRAVARIANT_DET_MAX_LETTERS = 6
# Every verify suite caps its own sizes at 4, 5 or 6, so a larger --max-n
# checks nothing more; --max-n 6 takes 1.3-1.7 s and 34 MB, about 0.3 s of
# it the n = 6 factor chain of check_det and 0.3 s the n = 5 certificate
# of check_methods.  (check_counting
# used to compute the Schröder numbers up to --max-n: 100 000 took 13.6 s
# and 1.6 GB.)
VERIFY_MAX_N = 6


def cmd_build(args, out) -> int:
    nu = parse_weight(args)
    _check_size(f"building the Gram matrix of weight {nu}", _words(nu),
                "words", BUILD_MAX_WORDS)
    _check_fiber_terms(f"building the Gram matrix of weight {nu}", nu)
    _print_matrix(build_degenerate(nu, args.one_param), args.format, out)
    return 0


def _compact(s: str) -> str:
    # golden output style: no spaces inside the box factors
    return s.replace(" - ", "-")


def cmd_det(args, out) -> int:
    nu = parse_weight(args)
    if not nu.generic:
        limit = (DET_ELIM_ONE_PARAM_MAX_WORDS if args.one_param
                 else DET_ELIM_MAX_WORDS)
        _check_size(f"elimination for the determinant of weight {nu}",
                    _words(nu), "words", limit)
        _check_fiber_terms(f"the Gram matrix of weight {nu}", nu)
    elif not args.one_param:
        _check_size("the factored determinant", nu.size, "letters",
                    FACTORED_DET_MAX_LETTERS)
    if not nu.generic:
        out.write(str(det_mod.det_elim(nu, args.one_param)) + "\n")
    elif args.one_param:
        out.write(_compact(str(det_mod.det_one_param(nu.size))) + "\n")
    else:
        out.write(str(det_mod.det_formula(nu)) + "\n")
    return 0


# symbolic inversion runs on the generic model of the weight: the |nu|!
# words of the generic weight on |nu| letters.  n = 5 (120 words) takes
# 1.2-1.4 s at 27 MB with the fast method, 1.4-2.1 s at 26 MB with the
# operator methods, and 1.6-2.3 s at 44 MB with --format matrix (2-core
# VM, three runs each), most of it printing the 10 800 values.  At n = 6
# (720 words) every method builds its 394 coefficients in under 4 s, but
# they print as 283 680 values: the json form is 1.1 GB of text, which
# took 328 s and 3.4 GB in one process.
INVERT_MAX_WORDS = 120


def cmd_invert(args, out) -> int:
    nu = parse_weight(args)
    _check_size(f"symbolic inversion of a weight of size {nu.size}",
                math.factorial(nu.size), "words", INVERT_MAX_WORDS,
                "; for an exact inverse at a point use "
                "scripts/invert_at_point.py")
    if not nu.generic:
        mat = inv_mod.inv_degenerate(nu, args.one_param, args.method)
        _print_matrix(mat, "json" if args.format == "json" else "text", out)
        return 0
    table = inv_mod.inv_full(nu, args.method, args.one_param)
    if args.format == "matrix":
        _print_matrix(table.to_matrix(), "text", out)
    elif args.format == "json":
        json.dump(table.to_json(), out, indent=2, sort_keys=True)
        out.write("\n")
    else:  # expansion
        for g, values in table.diagonals():
            out.write(f"Rhat({g}):\n")
            for w, v in zip(table.basis.words, values):
                out.write(f"  {w}: {v}\n")
    return 0


# count tree-like walks the reversal sequence of each of the n!
# permutations, all held in one list: n = 8 takes 0.8-1.1 s and 24 MB, n = 9
# 8.0-9.7 s and 76 MB (peak RSS of the process, three runs each on a 2-core
# VM), and n = 11 passed 2 GB.  count bracketings lists every
# bracketing: n = 10 takes 1.7-1.8 s and 164 MB; n = 11 lists five times
# as many.
TREE_LIKE_MAX_N = 8
BRACKETINGS_MAX_N = 10
# count chains and count table print integers, which Python converts to
# decimal only up to 4 300 digits (sys.get_int_max_str_digits()): c_5625
# has 4 300 digits and c_5626 4 301, and the largest c_{n,k} first passes
# 4 300 digits at n = 5629.  At the limits chains takes 0.2 s and 21 MB;
# table takes 9.7-11.1 s and 24 MB, most of it the binomials, and writes
# 19 MB.
CHAINS_MAX_N = 5625
TABLE_MAX_N = 5628


def cmd_count(args, out) -> int:
    n = args.n
    _check_n("--n", n)
    if args.what == "chains":
        _check_size("count chains", n, "letters", CHAINS_MAX_N)
        out.write(f"{subdiv.schroeder_counts(n)[-1]}\n")
    elif args.what == "bracketings":
        _check_size("count bracketings", n, "letters", BRACKETINGS_MAX_N)
        outer = not args.no_outer
        out.write(f"{len(subdiv.enumerate_bracketings(n, outer))}\n")
    elif args.what == "tree-like":
        _check_size("count tree-like", n, "letters", TREE_LIKE_MAX_N)
        c = sum(1 for g in all_perms(n) if inv_mod.tree_like(g))
        out.write(f"{c}\n")
    elif args.what == "table":
        _check_size("count table", n, "letters", TABLE_MAX_N)
        for k, c in enumerate(subdiv.catalan_schroeder_poly(n)):
            if c:
                out.write(f"c_{n},{k} = {c}\n")
    else:
        raise Usage(f"unknown counting target {args.what!r}")
    return 0


def cmd_varchenko(args, out) -> int:
    n = args.n
    _check_n("--n", n)
    if args.det:
        _check_size("the factored arrangement determinant", n, "letters",
                    FACTORED_DET_MAX_LETTERS)
        out.write(str(app_mod.varchenko_det(n)) + "\n")
    else:
        _check_size(f"the arrangement form on {n} letters",
                    math.factorial(n), "words", BUILD_MAX_WORDS)
        _print_matrix(app_mod.varchenko_matrix(n), args.format, out)
    return 0


def _load_bdata(path: str, n: int) -> app_mod.BilinearData:
    """JSON schema: {"n": 3, "b": {"1,2": -2, "1,3": 0, "2,3": 1}}, each
    pair given once, in either order."""
    with open(path) as fh:
        data = json.load(fh)
    if not (isinstance(data, dict) and isinstance(data.get("b"), dict)):
        raise Usage('b-matrix must be a JSON object with an object "b"')
    if data.get("n", n) != n:
        raise Usage("b-matrix size disagrees with --n")
    b = {}
    for key, v in data["b"].items():
        i, j = (int(x) for x in key.split(","))
        pair = (min(i, j), max(i, j))
        if pair in b:
            raise Usage(f"b-matrix gives the pair {pair} twice")
        b[pair] = v
    return app_mod.BilinearData(n, b)


def cmd_contravariant(args, out) -> int:
    n = args.n
    _check_n("--n", n)
    if args.b_matrix and not args.det:
        raise Usage("--b-matrix specializes the determinant; give --det")
    if not args.det:
        _check_size(f"the contravariant form on {n} letters",
                    math.factorial(n), "words", CONTRAVARIANT_MAX_WORDS)
        _print_matrix(app_mod.contravariant_matrix(n), args.format, out)
    elif args.b_matrix:
        _check_size("the specialized contravariant determinant", n,
                    "letters", CONTRAVARIANT_DET_MAX_LETTERS)
        b = _load_bdata(args.b_matrix, n)
        out.write(str(app_mod.contravariant_det(n).specialized(b)) + "\n")
    elif n <= 3:
        out.write(app_mod.contravariant_det(n).laurent_str() + "\n")
    else:
        raise Usage("full symbolic expansion is practical only for "
                    "n <= 3; give --b-matrix for larger n")
    return 0


# A multiparameter coefficient sums lambda_sigma over the bracketings of
# each subdivision of its reversal sequence, so the widest one sets the
# cost: at n = 8, 4 blocks (43218765) take 0.1 s, 7 blocks (21345678)
# 46 s and 310 MB, and the identity, with 8 blocks, runs out of memory
# under a 1.5 GB cap.  One-parameter coefficients stay cheap (0.16-0.17 s
# and 29 MB for the identity at n = 8, three runs on a 2-core x86 box).
COEFF_MAX_BLOCKS = 7
# Without --coeff every coefficient of the inverse is built, as invert
# builds it, and decided at the identity word.  n = 6 (720 words) takes
# 0.25-0.30 s and 21 MB in the one-parameter modes and 0.39-0.54 s and
# 23 MB in multi and extended-multi (fresh process, three runs each); at
# n = 7 (5 040 words) multi takes 20 s and 205 MB.
ZAGIER_MAX_WORDS = 720


def _widest_subdivision(g: Perm) -> int:
    """The most blocks of a subdivision that Lambda(g) sums over, read off
    the reversal record of g by ``perms.thickened``, as
    ``inverse._closed_form`` reads it.  0 when g is not tree-like, and
    Lambda(g) is 0."""
    levels = reversal_record(g)
    if levels is None:
        return 0
    return max(len(sub) for _, sub in thickened(levels))


def cmd_zagier_check(args, out) -> int:
    mode = args.mode
    _check_n("--n", args.n)
    coeff = Perm.parse(args.coeff) if args.coeff else None
    if coeff is None:
        _check_size(f"zagier-check of every coefficient at n = {args.n}",
                    math.factorial(args.n), "words", ZAGIER_MAX_WORDS,
                    "; give --coeff to check one coefficient")
    elif mode in ("multi", "extended-multi"):
        _check_size(f"zagier-check of the coefficient {coeff}",
                    _widest_subdivision(coeff), "blocks", COEFF_MAX_BLOCKS,
                    "; --mode one-param checks it in one parameter")
    report = inv_mod.zagier_check(args.n, mode, coeff)
    if args.format == "json":
        json.dump(report.to_json(), out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write(str(report) + "\n")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _weights_up_to(max_n: int):
    """All weights (generic and degenerate) with |nu| <= max_n, labels
    drawn from 1..max_n, up to relabeling."""
    out = []
    for n in range(1, max_n + 1):
        for part in _partitions(n):
            out.append(Weight({i + 1: m for i, m in enumerate(part)}))
    return out


def _partitions(n: int, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def check_oracle(max_n: int, rng) -> str:
    """Every built Gram entry equals the derivative-oracle inner product."""
    for nu in _weights_up_to(min(max_n, 4)):
        mat = build_degenerate(nu)
        for i, wi in enumerate(mat.basis.words):
            for j, wj in enumerate(mat.basis.words):
                want = inner_product(wi, wj)
                if mat.entries[i][j] != want:
                    raise VerifyFailure(f"gram oracle {nu} ({wi},{wj})")
    return "gram entries match the derivative oracle"


def check_det(max_n: int, rng) -> str:
    """Factored determinant equals elimination for small generic weights."""
    for n in range(2, min(max_n, 3) + 1):
        nu = Weight.generic_n(n)
        if det_mod.det_formula(nu).expand() != det_mod.det_elim(nu):
            raise VerifyFailure(f"det formula n={n}")
    # from n = 4 (24x24) on symbolically via the factor-chain elimination
    for n in range(4, max_n + 1):
        nu = Weight.generic_n(n)
        if det_mod.det_factor_chain(nu) != det_mod.det_formula(nu):
            raise VerifyFailure(f"det factor chain n={n}")
    return "determinant formula matches elimination"


def check_methods(max_n: int, rng) -> str:
    """The five inversion routes agree and invert the matrix: densely
    (``GramMatrix.matmul``) up to n = 4, and at n = 5 in the twisted group
    algebra (``LambdaTable.inverts_gram``)."""
    for n in range(2, min(max_n, 4) + 1):
        nu = Weight.generic_n(n)
        ref = inv_mod.inv_full(nu, "fast")
        methods = ["long", "short", "chains", "zagier"]
        if n <= 3:
            methods.append("brute")
        for m in methods:
            if inv_mod.inv_full(nu, m) != ref:
                raise VerifyFailure(f"method {m} n={n}")
        A = build_generic(nu)
        prod = A.matmul(ref.to_matrix())
        for i in range(A.basis.size):
            for j in range(A.basis.size):
                want = BoxFraction.one() if i == j else BoxFraction.zero()
                if prod.entries[i][j] != want:
                    raise VerifyFailure(f"A*inv(A) != I at n={n}")
    if max_n >= 5 and not inv_mod.inv_full(Weight.generic_n(5),
                                           "fast").inverts_gram():
        raise VerifyFailure("inv(A)*A != I at n=5")
    return "inversion methods agree"


def check_counting(max_n: int, rng) -> str:
    cs = subdiv.schroeder_counts(6)
    for n in range(1, min(max_n, 6) + 1):
        if len(subdiv.enumerate_chains(n)) != cs[n - 1]:
            raise VerifyFailure(f"chain count n={n}")
        forms = {subdiv.schroeder_closed_form_a(n),
                 subdiv.schroeder_closed_form_b(n),
                 subdiv.schroeder_closed_form_c(n)}
        if forms != {cs[n - 1]}:
            raise VerifyFailure(f"closed forms n={n}")
    return "chain counts match the recurrence and closed forms"


def check_ccr_suite(max_n: int, rng) -> str:
    labels = (1, 2, 3)
    words = [w for k in range(min(max_n, 4) + 1)
             for w in itertools.product(labels, repeat=k)]
    for i in labels:
        for j in labels:
            for w in words:
                if not check_ccr(i, j, Word(w)):
                    raise VerifyFailure(f"ccr ({i},{j}) on {w}")
    return "commutation relations hold on the derivative representation"


def check_applications(max_n: int, rng) -> str:
    ns = range(2, min(max_n, 4) + 1)
    for n in ns:
        B = app_mod.varchenko_matrix(n)
        A = build_generic(Weight.generic_n(n))
        for i in range(B.basis.size):
            for j in range(B.basis.size):
                if app_mod.symmetrize(A.entries[i][j]) != B.entries[i][j]:
                    raise VerifyFailure(f"varchenko n={n}")
    # the seeded draws of b, then one b per n with det S != 0
    draws = [app_mod.BilinearData.random(n, rng) for n in ns]
    draws += [app_mod.BilinearData.random(n, rng, nondegenerate=True)
              for n in ns]
    for n in ns:
        S = app_mod.contravariant_matrix(n)
        d = app_mod.contravariant_det(n)
        if not d.symmetric_form_agrees():
            raise VerifyFailure(f"contravariant symmetric form n={n}")
        for b in draws:
            if b.n == n and d.specialized(b) != app_mod.elimination_det(S, b):
                raise VerifyFailure(f"contravariant det n={n} b={b.b}")
    return "arrangement and contravariant translations verified"


def check_positivity(max_n: int, rng) -> str:
    for nu in _weights_up_to(min(max_n, 4)):
        if nu.size < 2:
            continue
        assignment = random_hermitian(nu.labels, rng, 100, 60, 90)
        if not det_mod.positivity_check(nu, assignment):
            raise VerifyFailure(f"positivity {nu}")
    return "Gram matrices positive definite inside the unit polydisc"


SUITES = {
    "oracle": check_oracle,
    "det": check_det,
    "methods": check_methods,
    "counting": check_counting,
    "ccr": check_ccr_suite,
    "applications": check_applications,
    "positivity": check_positivity,
}


def cmd_verify(args, out) -> int:
    names = (sorted(SUITES) if args.suite == "all"
             else [s.strip() for s in args.suite.split(",")])
    for s in names:
        if s not in SUITES:
            raise Usage(f"unknown suite {s!r}; have {', '.join(sorted(SUITES))}")
    _check_n("--max-n", args.max_n)
    _check_size("verify --max-n", args.max_n, "letters", VERIFY_MAX_N,
                "; no suite checks more")
    rng = random.Random(args.seed)
    # one pre-seeded generator per suite, so what a suite samples does not
    # depend on how many draws the suites before it make
    rngs = {s: random.Random(rng.randrange(2 ** 62)) for s in names}
    failed = False
    for name in names:
        try:
            ok, msg = True, SUITES[name](args.max_n, rngs[name])
        except VerifyFailure as e:
            ok, msg = False, str(e)
        out.write(f"{'ok  ' if ok else 'FAIL'} {name}: {msg}\n")
        failed = failed or not ok
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="quongram",
        description="Gram matrices of multiparametric quon Fock space")
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    def add_weight(sp):
        sp.add_argument("--weight", help="comma-separated multiplicities")
        sp.add_argument("--n", type=int, help="generic weight on n letters")
        sp.add_argument("--one-param", action="store_true")

    sp = sub.add_parser("build", help="print a Gram matrix")
    add_weight(sp)
    sp.add_argument("--format", choices=("text", "json", "csv"),
                    default="text")
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("det", help="factored determinant")
    add_weight(sp)
    sp.set_defaults(func=cmd_det)

    sp = sub.add_parser("invert", help="inverse in the permutation expansion")
    add_weight(sp)
    sp.add_argument("--method", default="fast",
                    choices=("fast", "long", "short", "zagier", "chains",
                             "brute"))
    sp.add_argument("--format", choices=("expansion", "matrix", "json"),
                    default="expansion")
    sp.set_defaults(func=cmd_invert)

    sp = sub.add_parser("verify", help="run cross-check suites")
    sp.add_argument("--suite", default="all")
    sp.add_argument("--max-n", type=int, default=4)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("count", help="counting identities")
    sp.add_argument("what", choices=("chains", "bracketings", "tree-like",
                                     "table"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--no-outer", action="store_true",
                    help="bracketings without the outer bracket")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("varchenko", help="quantum bilinear form of the "
                        "discriminant arrangement")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--det", action="store_true")
    sp.add_argument("--format", choices=("text", "json", "csv"),
                    default="text")
    sp.set_defaults(func=cmd_varchenko)

    sp = sub.add_parser("contravariant", help="contravariant form on the "
                        "weight-(1,...,1) space")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--det", action="store_true")
    sp.add_argument("--b-matrix", help="JSON file with the symmetric "
                    "integer matrix b")
    sp.add_argument("--format", choices=("text", "json", "csv"),
                    default="text")
    sp.set_defaults(func=cmd_contravariant)

    sp = sub.add_parser("zagier-check", help="common-denominator checks")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mode", default="multi",
                    choices=("multi", "extended-multi", "one-param",
                             "original-conjecture"))
    sp.add_argument("--coeff", help="restrict to one permutation "
                    "(one-line notation)")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_zagier_check)

    return p


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, out)
    except Usage as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
