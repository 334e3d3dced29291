"""The three benchmark workloads.

Each workload has a ``setup(seed)`` that builds its inputs and a
``run(inputs, p)`` that makes its calls into quongram in a fixed order.
Calls that produce answers go through ``p.solve``; the independent
cross-checks go through ``p.check``, and each check is one attempted
operation of the correctness gate.

quongram functions are reached through their modules (``gram.build_generic``
rather than an imported name), so that the tracer's patched module
attributes see every call made from here.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from quongram import applications, determinant, gram, inverse
from quongram.boxes import BoxFactor, BoxFraction
from quongram.fock import Weight
from quongram.perms import Perm
from quongram.ring import GaussRat, Poly


class Pass:
    """One cold pass: time spent solving, time spent certifying, and the
    verdict of every check."""

    def __init__(self):
        self.solve_s = 0.0
        self.certify_s = 0.0
        self.checks = []      # [name, ok, error or None]
        self.errors = []      # solve steps that raised

    def solve(self, fn, *args, **kwargs):
        """Call fn and time it as solve work.  If it raises, record the
        error and return None; every check that needs the answer then
        fails."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.errors.append(f"{getattr(fn, '__name__', fn)}: "
                               f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.solve_s += time.perf_counter() - t0

    def check(self, name, fn, needs=()):
        """Run one cross-check and time it as certify work.  A wrong answer,
        a missing input or an exception marks the check failed."""
        t0 = time.perf_counter()
        error = None
        try:
            if any(x is None for x in needs):
                ok, error = False, "an answer it checks was not produced"
            else:
                ok = bool(fn())
        except Exception as exc:
            ok, error = False, f"{type(exc).__name__}: {exc}"
        self.certify_s += time.perf_counter() - t0
        self.checks.append([name, ok, error])


# ---------------------------------------------------------------------------
# symbolic-inverse: the generic n = 4 weight, five inversion methods
# ---------------------------------------------------------------------------

METHODS = ("fast", "long", "short", "chains", "zagier")


def setup_symbolic_inverse(seed):
    """The seed changes nothing: the generic n = 4 weight is the whole
    input, as it is for ``quongram invert --n 4``."""
    nu = Weight.generic_n(4)
    return {"nu": nu, "A": gram.build_generic(nu)}


def _is_identity(prod):
    n = prod.basis.size
    one, zero = BoxFraction.one(), BoxFraction.zero()
    for i in range(n):
        for j in range(n):
            e = prod.entries[i][j]
            if isinstance(e, Poly):
                e = BoxFraction(e)
            if not e == (one if i == j else zero):
                return False
    return True


def run_symbolic_inverse(inp, p):
    nu, A = inp["nu"], inp["A"]
    tables = {m: p.solve(inverse.inv_full, nu, m) for m in METHODS}
    ref = tables["fast"]
    matrix = p.solve(ref.to_matrix) if ref is not None else None
    for m in METHODS[1:]:
        p.check(f"inv_full {m} == fast", lambda m=m: tables[m] == ref,
                needs=(tables[m], ref))
    p.check("A . A^-1 == I at n = 4",
            lambda: _is_identity(A.matmul(matrix)), needs=(matrix,))


# ---------------------------------------------------------------------------
# symbolic-det: factor chain, dense elimination, Varchenko slices, n = 8
# ---------------------------------------------------------------------------

VARCHENKO_N = 4
SLICES = 4
COUNTEREXAMPLE = Perm((4, 3, 2, 1, 8, 7, 6, 5))


def setup_symbolic_det(seed):
    """The seed draws the integer slopes c_ij in q_ij = c_ij q of the
    univariate slices: SLICES of the n = 4 Gram matrix, which certify the
    factor chain, and SLICES of the Varchenko matrix.  Everything else is
    fixed by n."""
    rng = random.Random(seed)
    ordered = [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
    gram_slopes = [{ij: rng.randint(2, 9) for ij in ordered}
                   for _ in range(SLICES)]
    pairs = list(itertools.combinations(range(1, VARCHENKO_N + 1), 2))
    slopes = [{ij: rng.randint(2, 9) for ij in pairs} for _ in range(SLICES)]
    weights = {n: Weight.generic_n(n) for n in (1, 2, 3, 4)}
    return {"weights": weights,
            "gram": gram.build_generic(weights[4]),
            "gram_slopes": gram_slopes,
            "varchenko": applications.varchenko_matrix(VARCHENKO_N),
            "edges": applications.varchenko_det(VARCHENKO_N).edges,
            "slopes": slopes}


def _gram_slope(slopes):
    return lambda i, j: slopes[(i, j)]


def _varchenko_slope(slopes):
    # the Varchenko form is symmetric: q_ij and q_ji share one slope
    return lambda i, j: slopes[(min(i, j), max(i, j))]


def _slice_det(matrix, slope):
    rows = [[determinant.poly_to_univariate(e, slope) for e in row]
            for row in matrix.entries]
    return determinant.det_univariate(rows)


def _u_product(factors):
    """Product of integer coefficient lists (lowest degree first); kept
    apart from ``determinant._u_mul`` so the checks do not reuse the
    arithmetic of ``det_univariate``, which they check."""
    out = [1]
    for f in factors:
        nxt = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            if x:
                for j, y in enumerate(f):
                    nxt[i + j] += x * y
        out = nxt
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _chain_slice(chain, slope):
    """The factored determinant restricted to a slice: each box
    1 - prod q_ij over the letters mu, with its exponent."""
    factors = []
    for mu, e in chain.factors:
        box = BoxFactor(tuple(mu), frozenset(range(1, len(mu) + 1)))
        factors.extend([determinant.poly_to_univariate(box.expand(), slope)]
                       * e)
    return _u_product(factors)


def _edge_slice(edges, slope):
    factors = []
    for e in edges:
        f = determinant.poly_to_univariate(e.factor(), slope)
        factors.extend([f] * e.multiplicity)
    return _u_product(factors)


def _counterexample_value(lam):
    """Is lam the published n = 8 coefficient?  Cross-multiplied against
    (1 + 2q^2 + q^4 + 2q^6 + q^8)^2
    / ((1-q^56) (1-q^2)^2 (1-q^6)^2 (1-q^12)^2)."""
    q = Poly.single_q()
    num = (Poly.one() + (q ** 2).scale(2) + q ** 4
           + (q ** 6).scale(2) + q ** 8) ** 2
    den = Poly.one() - q ** 56
    for k in (2, 6, 12):
        den = den * (Poly.one() - q ** k) ** 2
    got_den = Poly.one()
    for f in lam.den:
        got_den = got_den * f.expand()
    return lam.num * den == num * got_den


def run_symbolic_det(inp, p):
    weights = inp["weights"]
    nu4 = weights[4]
    chain = p.solve(determinant.det_factor_chain, nu4)
    slices = []
    for slopes in inp["slopes"]:
        slope = _varchenko_slope(slopes)
        slices.append((slope, p.solve(_slice_det, inp["varchenko"], slope)))
    letters = tuple(range(1, 9))
    lam = p.solve(inverse.lambda_scalar, letters, COUNTEREXAMPLE,
                  one_param=True, check_closed=True)
    bad = p.solve(inverse.zagier_check, 8, "original-conjecture",
                  coeff=COUNTEREXAMPLE)
    good = p.solve(inverse.zagier_check, 8, "one-param",
                   coeff=COUNTEREXAMPLE)

    p.check("factor chain == formula at n = 4",
            lambda: dict(chain.factors)
            == dict(determinant.det_formula(nu4).factors), needs=(chain,))
    for k, slopes in enumerate(inp["gram_slopes"]):
        slope = _gram_slope(slopes)
        p.check(f"factor chain == elimination on slice {k} at n = 4",
                lambda slope=slope: _slice_det(inp["gram"], slope)
                == _chain_slice(chain, slope), needs=(chain,))
    for n in (1, 2, 3):
        p.check(f"det_elim == formula at n = {n}",
                lambda n=n: determinant.det_elim(weights[n])
                == determinant.det_formula(weights[n]).expand())
    for k, (slope, det) in enumerate(slices):
        p.check(f"Varchenko slice {k} == edge product",
                lambda slope=slope, det=det:
                det == _edge_slice(inp["edges"], slope), needs=(det,))
    p.check("n = 8 coefficient == published value",
            lambda: _counterexample_value(lam), needs=(lam,))
    p.check("single-copy denominator fails at n = 8 on Box{1,2,3,4}",
            lambda: not bad.passed and len(bad.failures) == 1
            and "Box{1,2,3,4}" in bad.failures[0][2], needs=(bad,))
    p.check("multiplicity denominator clears n = 8",
            lambda: good.passed, needs=(good,))


# ---------------------------------------------------------------------------
# point-n5: the 120 x 120 matrix at a seeded hermitian rational point
# ---------------------------------------------------------------------------

def hermitian_point(labels, rng, scale=8, bound=5):
    """A hermitian Gaussian-rational assignment: q_ji = conj(q_ij) with
    numerators in [-bound, bound] over ``scale`` and real diagonal values
    in [-bound - 3, bound + 3] over ``scale``.  Acceptance criterion 2 uses
    16 and 9; eighths keep one n = 5 pass near 45 s, inside the run
    budget (det_point takes about 20 s instead of 30 s on a 2-core VM)."""
    a = {}
    for i in labels:
        for j in labels:
            if j < i:
                continue
            if i == j:
                v = GaussRat(Fraction(rng.randint(-bound - 3, bound + 3),
                                      scale))
            else:
                v = GaussRat(Fraction(rng.randint(-bound, bound), scale),
                             Fraction(rng.randint(-bound, bound), scale))
            a[("q", i, j)] = v
            a[("q", j, i)] = v.conj()
    return a


def setup_point_n5(seed):
    """The seed draws the hermitian point; the matrix is fixed by n = 5."""
    nu = Weight.generic_n(5)
    A = gram.build_generic(nu)
    return {"nu": nu, "A": A,
            "point": hermitian_point(nu.labels, random.Random(seed))}


def _evaluate(A, a):
    return [[e.evaluate(a, "hermitian") for e in row] for row in A.entries]


def _gauss_ints(values):
    """(L, ints): ints = L * values as Gaussian-integer pairs, L the lcm of
    the denominators."""
    L = 1
    for v in values:
        L = math.lcm(L, v.re.denominator, v.im.denominator)
    return L, [(v.re.numerator * (L // v.re.denominator),
                v.im.numerator * (L // v.im.denominator)) for v in values]


def _is_inverse(a_rows, inv_rows):
    """Exact A . B == I over Gaussian integers: A is scaled by the lcm of
    all its denominators, each column of B by the lcm of its own."""
    la, sa = _gauss_ints([v for row in a_rows for v in row])
    n = len(a_rows)
    rows = [sa[i * n:(i + 1) * n] for i in range(n)]
    for j, col in enumerate(zip(*inv_rows)):
        lb, sb = _gauss_ints(col)
        target = la * lb
        for i, row in enumerate(rows):
            re = im = 0
            for (ar, ai), (br, bi) in zip(row, sb):
                re += ar * br - ai * bi
                im += ar * bi + ai * br
            if im or re != (target if i == j else 0):
                return False
    return True


def run_point_n5(inp, p):
    nu, A, a = inp["nu"], inp["A"], inp["point"]
    values = p.solve(_evaluate, A, a)
    det = (p.solve(determinant.det_point, values)
           if values is not None else None)
    inv = p.solve(inverse.inverse_matrix_at, nu, a, "hermitian")
    p.check("det_point == formula value at n = 5",
            lambda: det == determinant.det_formula(nu).evaluate(a),
            needs=(det,))
    p.check("A . A^-1 == I at n = 5", lambda: _is_inverse(values, inv),
            needs=(values, inv))


WORKLOADS = {
    "symbolic-inverse": (setup_symbolic_inverse, run_symbolic_inverse),
    "symbolic-det": (setup_symbolic_det, run_symbolic_det),
    "point-n5": (setup_point_n5, run_point_n5),
}
