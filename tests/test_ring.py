import math
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quongram import ring
from quongram.ring import (Poly, GaussRat, NotDivisible, pair_var, SINGLE_Q,
                           check_assignment, mono_key, var_key)
from quongram.boxes import BoxFactor, as_part
from quongram.fock import Weight
from quongram.gram import build_generic
from quongram.determinant import det_formula, positivity_check
from quongram.applications import varchenko_det
from quongram.inverse import inv_full, inverse_matrix_at
from conftest import hermitian_assignment, symmetric_assignment


def rand_poly(rng, nvars=3, nterms=4, deg=3):
    p = Poly.zero()
    for _ in range(nterms):
        t = Poly.const(rng.randint(-4, 4))
        for _ in range(rng.randint(0, deg)):
            i, j = rng.randint(1, nvars), rng.randint(1, nvars)
            t = t * Poly.var(i, j)
        p = p + t
    return p


polys = st.integers(0, 10 ** 9).map(
    lambda s: rand_poly(random.Random(s)))


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a - a == Poly.zero()
    assert a * Poly.one() == a


def _product_by_monos(x, y):
    """x*y from the decoded terms, not through the packed kernel."""
    out = {}
    for m, c in x.terms.items():
        for n, d in y.terms.items():
            mono = tuple(sorted((Counter(dict(m)) + Counter(dict(n))).items()))
            out[mono] = out.get(mono, 0) + c * d
    return Poly(out)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(polys, polys), max_size=5))
def test_sum_of_products_is_the_sum_of_the_products(pairs):
    total = Poly.zero()
    for x, y in pairs:
        total = total + _product_by_monos(x, y)
    assert Poly.sum_of_products(pairs) == total
    assert Poly.sum_of_products(iter(pairs)) == total
    # with every product cancelled, no zero coefficient is left behind
    cancelled = pairs + [(-x, y) for x, y in reversed(pairs)]
    assert Poly.sum_of_products(cancelled) == Poly.zero()
    assert Poly.sum_of_products(cancelled).nterms() == 0


def test_sum_of_products_of_nothing_and_its_degree_guard():
    assert Poly.sum_of_products([]) == Poly.zero()
    x = Poly.var(1, 2)
    with pytest.raises(OverflowError):
        Poly.sum_of_products([(Poly.one(), x), (x ** (2 ** 15 - 1), x)])


@settings(max_examples=60, deadline=None)
@given(polys)
def test_conjugation_involution(p):
    assert p.conjugate().conjugate() == p


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_exact_division_roundtrip(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_variable_flags_compare_variable_sets(a, b):
    # a high exponent fills its field without carrying into the next
    high = Poly.var(1, 2) ** 5000 - Poly.var(2, 1)
    for p, q in ((a, b), (b, a), (a, a * b), (high, a), (a, high)):
        assert ((p.variable_flags() & ~q.variable_flags()) == 0) == \
            (p.variables() <= q.variables())


def test_not_divisible():
    p = Poly.one() + Poly.var(1, 2)
    with pytest.raises(NotDivisible):
        p.exact_div(Poly.var(1, 2))


def oracle_div(p, d):
    """p / d by the general heap division, or None if it is not exact."""
    try:
        return ring._div_general(p._t, d._t)
    except NotDivisible:
        return None


def exact_div_or_none(p, d):
    try:
        return p.exact_div(d)
    except NotDivisible:
        return None


@st.composite
def divisions(draw):
    """(dividend, divisor) over the multi-parameter variables or the single
    q.  Divisors: a box binomial 1 - m or a monomial c*m, exponents up to 3.
    Dividends: random (possibly zero), a multiple of the divisor, or a
    multiple of 2 - u - v, whose coefficients sum to zero while its
    m-chains, long ones included, mostly do not."""
    if draw(st.booleans()):
        names = [SINGLE_Q]
    else:
        names = [pair_var(i, j) for i in (1, 2, 3) for j in (1, 2, 3)
                 if i != j] + [pair_var(1, 1)]
    monos = st.dictionaries(st.sampled_from(names), st.integers(1, 3),
                            max_size=3).map(
        lambda e: Poly.from_mono(tuple(sorted(e.items()))))
    m = draw(monos.filter(lambda x: not x.is_one()))
    if draw(st.integers(0, 3)):
        d = Poly.one() - m
    else:
        d = m.scale(draw(st.sampled_from([1, -1, 2, -3])))
    p = Poly.zero()
    for mono, c in draw(st.lists(st.tuples(monos, st.integers(-3, 3)),
                                 max_size=5)):
        p = p + mono.scale(c)
    kind = draw(st.sampled_from(["random", "multiple", "sum zero"]))
    if kind == "multiple":
        p = p * d
    elif kind == "sum zero":
        p = p * (Poly.const(2) - draw(monos) - draw(monos))
    return p, d


@settings(max_examples=400, deadline=None)
@given(divisions())
def test_exact_div_agrees_with_general_division(case):
    p, d = case
    assert exact_div_or_none(p, d) == oracle_div(p, d)


def test_exact_div_by_binomial_edge_cases():
    box = Poly.parse("1 - q12*q21")
    assert Poly.zero().exact_div(box) == Poly.zero()
    assert Poly.zero().exact_div(Poly.parse("2*q12")) == Poly.zero()
    # coefficient sum zero, but the chains {1} and {q12} each sum to +-1
    with pytest.raises(NotDivisible):
        Poly.parse("1 - q12").exact_div(box)
    assert oracle_div(Poly.parse("1 - q12"), box) is None
    # (1 - q12)(1 + q12*q21): chains of two terms summing to 2 and -2
    with pytest.raises(NotDivisible):
        Poly.parse("1 - q12 + q12*q21 - q12^2*q21").exact_div(box)
    # 1 - q^6 = (1 - q^2)(1 + q^2 + q^4); chains with gaps
    q6 = Poly.parse("1 - q^6")
    assert q6.exact_div(Poly.parse("1 - q^2")) == Poly.parse("1 + q^2 + q^4")
    with pytest.raises(NotDivisible):
        q6.exact_div(Poly.parse("1 - q^4"))
    # monomial divisors: exponents shift, coefficients must divide
    assert Poly.parse("4*q12^3*q21 - 2*q12^2").exact_div(
        Poly.parse("2*q12^2")) == Poly.parse("2*q12*q21 - 1")
    with pytest.raises(NotDivisible):
        Poly.parse("3*q12^2").exact_div(Poly.parse("2*q12"))
    with pytest.raises(ZeroDivisionError):
        box.exact_div(Poly.zero())


def test_parse_and_str_roundtrip():
    p = Poly.parse("1 - q12*q21 + 3*q11^2")
    assert Poly.parse(str(p)) == p
    assert str(Poly.zero()) == "0"


def test_mixed_operand_returns_notimplemented():
    p = Poly.one()
    assert p.__add__(42) is NotImplemented
    assert p.__eq__("x") is NotImplemented


def test_gauss_rat_field():
    a = GaussRat(Fraction(1, 2), Fraction(3))
    b = GaussRat(Fraction(-2, 5), Fraction(1, 7))
    assert (a * b) / b == a
    assert a.conj().conj() == a
    assert (a * a.conj()).im == 0
    assert a.abs2() == a.re ** 2 + a.im ** 2


def test_evaluate_modes(rng):
    p = Poly.var(1, 2) * Poly.var(2, 1) + Poly.one()
    v = GaussRat(Fraction(1, 3), Fraction(1, 4))
    a = {("q", 1, 2): v, ("q", 2, 1): v.conj()}
    got = p.evaluate(a, "hermitian")
    assert got == v * v.conj() + GaussRat.of(1)
    # hermitian mode rejects a non-hermitian assignment
    bad = {("q", 1, 2): v, ("q", 2, 1): v}
    with pytest.raises(ValueError):
        p.evaluate(bad, "hermitian")


def test_evaluate_reads_every_exponent_and_needs_every_variable():
    # exponents above 1, and variables whose fields are not in sorted order
    p = (Poly.var(3, 1) ** 2 * Poly.var(1, 2) * Poly.var(2, 3) ** 3
         - Poly.var(1, 2).scale(5))
    x, y, z = GaussRat.of(2, 1), GaussRat.of(0, -1), GaussRat(Fraction(1, 3))
    a = {("q", 3, 1): x, ("q", 1, 2): y, ("q", 2, 3): z}
    assert p.evaluate(a) == x * x * y * z * z * z - GaussRat.of(5) * y
    assert (p.evaluate({SINGLE_Q: x}, "one-param")
            == x * x * x * x * x * x - GaussRat.of(5) * x)
    del a[("q", 2, 3)]
    with pytest.raises(KeyError, match="q23"):
        p.evaluate(a)


def test_a_missing_single_q_fails_by_name():
    with pytest.raises(KeyError) as err:
        Poly.var(1, 2).evaluate({pair_var(1, 2): GaussRat.of(1)}, "one-param")
    assert err.value.args == ("no value for q",)


@pytest.mark.parametrize("mode", ["free", "hermitian", "symmetric-real",
                                  "one-param"])
def test_a_value_that_is_not_a_gauss_rat_fails_by_name(mode):
    # one-param reads q for every variable; the other modes read q12
    a = {pair_var(1, 2): 3, pair_var(2, 1): 3, SINGLE_Q: Fraction(1, 2)}
    name = "q" if mode == "one-param" else "q12"
    with pytest.raises(ValueError, match=f"value of {name} is not a GaussRat"):
        Poly.var(1, 2).evaluate(a, mode)
    # no mode checks the single q before it is read
    b = {pair_var(1, 2): GaussRat.of(1), pair_var(2, 1): GaussRat.of(1),
         SINGLE_Q: 3}
    with pytest.raises(ValueError, match="value of q is not a GaussRat"):
        Poly.single_q().evaluate(b, mode)


def test_each_evaluator_checks_its_point_once(monkeypatch, rng):
    # one Point per call: the check runs once, and each distinct box factor
    # of the values is valued once
    real, checks = ring.check_assignment, []

    def spy(assignment, mode):
        checks.append(mode)
        return real(assignment, mode)
    monkeypatch.setattr(ring, "check_assignment", spy)
    nu = Weight.generic_n(4)
    a = hermitian_assignment(nu.labels, rng)
    table = inv_full(nu, "fast")
    x = max(table.coefficients.values(), key=lambda x: len(x.den))
    assert len(x.den) == 6
    nu5 = Weight.generic_n(5)
    a5 = hermitian_assignment(nu5.labels, rng)
    s = symmetric_assignment(nu.labels, rng)
    calls = [lambda: build_generic(nu).evaluate(a, "hermitian"),
             lambda: x.evaluate(a, "hermitian"),
             lambda: det_formula(nu5).evaluate(a5),
             lambda: varchenko_det(4).evaluate(s),
             lambda: inverse_matrix_at(nu, a, "hermitian"),
             lambda: positivity_check(nu, a)]
    for call in calls:
        checks.clear()
        call()
        assert len(checks) == 1
    boxes = {f for row in table.to_matrix().entries for e in row
             for f in as_part(e)[1]}
    valued = Counter()
    expand = BoxFactor.expand

    def count(f):
        valued[f] += 1
        return expand(f)
    monkeypatch.setattr(BoxFactor, "expand", count)
    table.evaluate(a, "hermitian")
    assert valued == Counter(boxes)


def _hermitian_by_conj(a):
    """The hermitian rule written with conj() and GaussRat equality."""
    for v, val in a.items():
        if v[0] == "q":
            w = ("q", v[2], v[1])
            if w not in a or a[w] != val.conj():
                return False
    return True


def _edge_point(case):
    v = GaussRat(Fraction(1, 3), Fraction(1, 4))
    d = GaussRat(Fraction(1, 2))
    a = {("q", 1, 1): d, ("q", 1, 2): v, ("q", 2, 1): v.conj()}
    if case == "imaginary sign":
        a[("q", 2, 1)] = v
    elif case == "missing mirror":
        del a[("q", 2, 1)]
    elif case == "complex diagonal":
        a[("q", 1, 1)] = GaussRat(Fraction(1, 2), Fraction(1, 5))
    # the mirror's part has the right numerator over another denominator
    elif case == "real denominator":
        a[("q", 2, 1)] = GaussRat(Fraction(1, 2), -v.im)
    elif case == "imaginary denominator":
        a[("q", 2, 1)] = GaussRat(v.re, Fraction(-1, 5))
    elif case == "mirror not GaussRat":
        a[("q", 2, 1)] = (v.re, -v.im)
    return a


@pytest.mark.parametrize("case", ["imaginary sign", "missing mirror",
                                  "complex diagonal", "real denominator",
                                  "imaginary denominator",
                                  "mirror not GaussRat"])
def test_hermitian_check_edge_cases(case):
    a = _edge_point(case)
    assert not _hermitian_by_conj(a)
    p = Poly.var(1, 1) + Poly.var(1, 2)
    with pytest.raises(ValueError, match="not hermitian"):
        p.evaluate(a, "hermitian")
    with pytest.raises(ValueError, match="not hermitian"):
        check_assignment(a, "hermitian")
    # the intact point passes
    check_assignment(_edge_point("none"), "hermitian")


third = GaussRat(Fraction(1, 3))


@pytest.mark.parametrize("value, mirror, message", [
    (third, third, None),
    (third, None, "not symmetric"),
    (third, GaussRat(Fraction(1, 2)), "not symmetric"),  # same numerator
    (third, GaussRat(Fraction(-1, 3)), "not symmetric"),  # same denominator
    (third, GaussRat(Fraction(1, 3), Fraction(1, 7)), "not symmetric"),
    (GaussRat(Fraction(1, 3), Fraction(1, 7)), third, "real values"),
    (third, Fraction(1, 3), "not symmetric"),
])
def test_symmetric_check_edge_cases(value, mirror, message):
    a = {("q", 1, 2): value}      # checked first: dicts keep their order
    if mirror is not None:
        a[("q", 2, 1)] = mirror
    if message is None:
        check_assignment(a, "symmetric-real")
        return
    with pytest.raises(ValueError, match=message):
        check_assignment(a, "symmetric-real")


parts = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-1, 3)])
points = st.dictionaries(st.tuples(st.just("q"), st.integers(1, 2),
                                   st.integers(1, 2)),
                         st.builds(GaussRat, parts, parts), max_size=4)


def _check_passes(a, mode):
    try:
        check_assignment(a, mode)
        return True
    except ValueError:
        return False


@settings(max_examples=300, deadline=None)
@given(points)
def test_hermitian_check_matches_conj_rule(a):
    assert _check_passes(a, "hermitian") == _hermitian_by_conj(a)


@settings(max_examples=300, deadline=None)
@given(points)
def test_symmetric_check_matches_equality_rule(a):
    """The symmetric-real rule written with GaussRat equality."""
    want = all(val.im == 0 and a.get(("q", v[2], v[1])) == val
               for v, val in a.items())
    assert _check_passes(a, "symmetric-real") == want


def test_map_labels():
    p = Poly.var(1, 2) + Poly.var(2, 3)
    assert p.map_labels(lambda x: x + 10) == Poly.var(11, 12) + Poly.var(12, 13)
    # merged labels merge variables, and cancelling terms drop
    merge = {3: 1}.get
    p = Poly.var(1, 2) * Poly.var(3, 2) + Poly.var(3, 2) - Poly.var(1, 2)
    assert p.map_labels(lambda x: merge(x, x)) == Poly.var(1, 2) ** 2
    assert (Poly.var(1, 2) - Poly.var(3, 2)).map_labels(
        lambda x: merge(x, x)) == Poly.zero()


@settings(max_examples=100, deadline=None)
@given(polys, st.permutations([1, 2, 3, 4]))
def test_renaming_packed_keys_matches_map_labels(p, images):
    # the letter 4 may name variables no term has, registered on the way
    p = p * Poly.single_q() + Poly.var(3, 1)
    f = dict(zip([1, 2, 3, 4], images))
    assert p.renamed(ring.Renaming(f)) == p.map_labels(f.__getitem__)


def test_renaming_keeps_what_it_does_not_move():
    p = Poly.var(3, 4) * Poly.var(4, 3) + Poly.var(1, 9) * Poly.single_q()
    r = ring.Renaming({1: 2, 2: 1})
    q = Poly.var(3, 4) + Poly.single_q()
    assert q.renamed(r) is q
    assert p.renamed(r) == Poly.var(3, 4) * Poly.var(4, 3) \
        + Poly.var(2, 9) * Poly.single_q()
    assert r.letter(1) == 2 and r.letter(9) == 9


def test_renaming_covers_variables_registered_after_it():
    r = ring.Renaming({1: 2, 2: 1})
    # every variable here is new to the registry, so past r's fields
    p = Poly.var(1, 2345) * Poly.var(2345, 2)
    assert p.renamed(r) == Poly.var(2, 2345) * Poly.var(2345, 1)
    q = Poly.var(2346, 2347)
    assert q.renamed(r) is q


def test_conjugate_helper():
    assert Poly.var(1, 2).conjugate() == Poly.var(2, 1)
    p = Poly.parse("2 - q12*q21^2 + q11^3*q")
    assert p.conjugate() == Poly.parse("2 - q12^2*q21 + q11^3*q")
    # conjugation is one case of map_vars; a map that is not one to one
    # merges the images, and terms that cancel drop
    p = Poly.var(2, 1) * Poly.var(1, 3) - Poly.var(1, 2) ** 2 + Poly.single_q()
    to_q12 = {SINGLE_Q: SINGLE_Q}.get
    assert p.map_vars(lambda v: to_q12(v, pair_var(1, 2))).nterms() == 1
    assert p.map_vars(lambda v: to_q12(v, pair_var(1, 2))) == Poly.single_q()


def test_var_takes_both_labels():
    # a one-label Poly.var would be the variable q[1,None], which does not
    # parse back; the one-parameter variable is Poly.single_q()
    with pytest.raises(TypeError):
        Poly.var(1)


# -- GaussRat against a (Fraction, Fraction) reference -------------------------

fracs = st.fractions(min_value=-20, max_value=20, max_denominator=36)
gauss = st.builds(GaussRat, fracs, fracs)
operands = st.one_of(gauss, st.integers(-20, 20), fracs)


def _ref(x):
    """x as a (re, im) pair of Fractions."""
    if isinstance(x, GaussRat):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def _ref_op(name, x, y):
    (a, b), (c, d) = x, y
    if name == "add":
        return a + c, b + d
    if name == "sub":
        return a - c, b - d
    if name == "mul":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    if not n:
        raise ZeroDivisionError
    return (a * c + b * d) / n, (b * c - a * d) / n


OPS = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
       "mul": lambda x, y: x * y, "div": lambda x, y: x / y}


def _canonical(z):
    assert isinstance(z, GaussRat)
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
    assert (z.re, z.im) == (Fraction(z.a, z.d), Fraction(z.b, z.d))
    return z.re, z.im


@settings(max_examples=400, deadline=None)
@given(gauss, operands)
def test_gauss_rat_matches_fraction_pairs(x, y):
    _canonical(x)
    for name, op in OPS.items():
        try:
            want = _ref_op(name, _ref(x), _ref(y))
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                op(x, y)
            continue
        assert _canonical(op(x, y)) == want
    assert _canonical(y * x) == _ref_op("mul", _ref(y), _ref(x))
    re, im = _ref(x)
    assert _canonical(-x) == (-re, -im)
    assert _canonical(x.conj()) == (re, -im)
    assert x.abs2() == re * re + im * im
    assert x.is_zero() == (re == 0 and im == 0)


@settings(max_examples=200, deadline=None)
@given(gauss, gauss)
def test_gauss_rat_equal_values_hash_equally(x, y):
    same = GaussRat(x.re, x.im)
    assert same == x and hash(same) == hash(x)
    if not y.is_zero():
        back = (x * y) / y
        assert back == x and hash(back) == hash(x)
    assert (x == y) == (_ref(x) == _ref(y))


def test_gauss_rat_canonical_examples():
    half = GaussRat(Fraction(2, 4))
    assert half == GaussRat.of(1) / 2
    assert hash(half) == hash(GaussRat.of(1) / 2)
    assert len({half, GaussRat.of(Fraction(1, 2)), GaussRat.of(3, 0) / 6}) == 1
    z = GaussRat.from_ints(4, -6, 8)
    assert (z.a, z.b, z.d) == (2, -3, 4)
    with pytest.raises(ValueError):
        GaussRat.from_ints(1, 0, -2)
    assert GaussRat.of(1) != 1 and GaussRat.of(1) != Fraction(1)


def test_gauss_rat_holds_only_its_triple():
    # the parts are built on every read and never cached on the value
    assert GaussRat.__slots__ == ("a", "b", "d")
    z = GaussRat.from_ints(6, -4, 8)
    for _ in range(2):
        assert z.re == Fraction(z.a, z.d) == Fraction(3, 4)
        assert z.im == Fraction(z.b, z.d) == Fraction(-1, 2)
    assert not hasattr(z, "__dict__")


def test_evaluation_leaves_the_decode_cache_alone(rng):
    # the matrix evaluation agrees with the entries' own, and no decode
    # cache is left for it to fill
    A = build_generic(Weight.generic_n(3))
    a = hermitian_assignment(A.basis.weight.labels, rng)
    values = A.evaluate(a, "hermitian")
    assert [[e.evaluate(a, "hermitian") for e in row]
            for row in A.entries] == values
    assert not hasattr(ring._decode, "cache_info")


@pytest.mark.parametrize("value, text, rep", [
    (GaussRat.of(1, 2), "(1+2i)",
     "GaussRat(re=Fraction(1, 1), im=Fraction(2, 1))"),
    (GaussRat(Fraction(1, 2), Fraction(-1, 3)), "(1/2+-1/3i)",
     "GaussRat(re=Fraction(1, 2), im=Fraction(-1, 3))"),
    (GaussRat(Fraction(-3, 4)), "-3/4",
     "GaussRat(re=Fraction(-3, 4), im=Fraction(0, 1))"),
    (GaussRat.of(0), "0", "GaussRat(re=Fraction(0, 1), im=Fraction(0, 1))"),
    (GaussRat.of(Fraction(5, 10), 0), "1/2",
     "GaussRat(re=Fraction(1, 2), im=Fraction(0, 1))"),
    (GaussRat.of(0, 1) * GaussRat.of(0, 1), "-1",
     "GaussRat(re=Fraction(-1, 1), im=Fraction(0, 1))"),
])
def test_gauss_rat_str_repr(value, text, rep):
    assert str(value) == text
    assert repr(value) == rep


@pytest.mark.parametrize("zero", [GaussRat.of(0), 0, Fraction(0)])
def test_gauss_rat_division_by_zero(zero):
    with pytest.raises(ZeroDivisionError):
        GaussRat.of(1, 1) / zero


def test_distinct_monomials_hash_distinctly():
    # every variable takes its own prime in the hash, so the 4 231
    # distinct monomials among the entries of A_5 hash apart
    entries = {e for row in build_generic(Weight.generic_n(5)).entries
               for e in row}
    assert len(entries) == 4231 and all(e.nterms() == 1 for e in entries)
    assert len({hash(e) for e in entries}) == 4231


def test_gram_matrix_evaluate_matches_entries(rng):
    nu = Weight.generic_n(3)
    A = build_generic(nu)
    a = hermitian_assignment(nu.labels, rng)
    want = [[e.evaluate(a, "hermitian") for e in row] for row in A.entries]
    assert A.evaluate(a, "hermitian") == want
    bad = dict(a)
    bad[("q", 2, 1)] = a[("q", 2, 1)] + GaussRat.of(1)
    with pytest.raises(ValueError, match="not hermitian"):
        A.evaluate(bad, "hermitian")


# -- packed monomials --------------------------------------------------------
# A tuple-based reference: Mono-keyed dicts, monomials multiplied by
# merging exponents, division by the leading term of the divisor.

REF_VARS = [pair_var(i, j) for i in (1, 2, 3) for j in (1, 2, 3)] + [SINGLE_Q]
ref_monos = st.dictionaries(st.sampled_from(REF_VARS), st.integers(1, 4),
                            max_size=4).map(lambda e: tuple(sorted(e.items())))
ref_polys = st.dictionaries(ref_monos, st.integers(-5, 5).filter(bool),
                            max_size=5)


def ref_mono_mul(a, b):
    e = dict(a)
    for v, k in b:
        e[v] = e.get(v, 0) + k
    return tuple(sorted(e.items()))


def ref_mono_div(a, b):
    e = dict(a)
    for v, k in b:
        if e.get(v, 0) < k:
            return None
        e[v] -= k
    return tuple(sorted((v, k) for v, k in e.items() if k))


def ref_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(p, q):
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = ref_mono_mul(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def ref_div(p, d):
    """p / d, or None if not exact.  If p = q*d, the lex-leading term of
    every remainder is lead(q') * lead(d) for what is left q' of q, so
    dividing leading terms decides exactness."""
    dm = min(d, key=mono_key)
    r, q = dict(p), {}
    while r:
        m = min(r, key=mono_key)
        quo = ref_mono_div(m, dm)
        if quo is None or r[m] % d[dm]:
            return None
        c = r[m] // d[dm]
        q[quo] = c
        r = ref_add(r, ref_mul({quo: -c}, d))
    return q


@settings(max_examples=200, deadline=None)
@given(ref_polys, ref_monos)
def test_packed_terms_round_trip(p, m):
    assert ring._decode(ring._encode(m)) == m
    assert ring._encode(m) & 0xFFFF == sum(e for _, e in m)
    assert dict(Poly(p).terms) == p
    assert Poly(p) == Poly(dict(reversed(list(p.items()))))
    assert Poly(p).degree() == max((sum(e for _, e in m) for m in p),
                                   default=0)


@settings(max_examples=200, deadline=None)
@given(ref_polys, ref_polys)
def test_packed_ring_ops_match_reference(p, q):
    assert dict((Poly(p) * Poly(q)).terms) == ref_mul(p, q)
    assert dict((Poly(p) + Poly(q)).terms) == ref_add(p, q)
    assert dict((Poly(p) - Poly(q)).terms) == ref_add(
        p, {m: -c for m, c in q.items()})


@st.composite
def ref_divisions(draw):
    """(dividend, divisor): the divisor is a monomial c*m, a box
    binomial 1 - m, or any other nonzero polynomial; the dividend is
    random or a multiple of the divisor."""
    route = draw(st.sampled_from(["monomial", "binomial", "general"]))
    m = draw(ref_monos.filter(bool))
    if route == "monomial":
        d = {m: draw(st.sampled_from([1, -1, 2, -3]))}
    elif route == "binomial":
        d = {(): 1, m: -1}
    else:
        # two terms or more, and a constant term other than 1
        d = dict(draw(ref_polys))
        d[m] = draw(st.sampled_from([1, -1, 2]))
        d[()] = draw(st.sampled_from([-1, 2, 3]))
    p = draw(ref_polys)
    if draw(st.booleans()):
        p = ref_mul(p, d)
    return p, d


@settings(max_examples=400, deadline=None)
@given(ref_divisions())
def test_packed_exact_div_matches_reference(case):
    p, d = case
    got = exact_div_or_none(Poly(p), Poly(d))
    want = ref_div(p, d)
    assert (None if got is None else dict(got.terms)) == want


def _ref_eval(p, value):
    """sum c * prod value(v)^e over the Mono-keyed terms of p."""
    return [(c, [value(v) for v, e in m for _ in range(e)])
            for m, c in p.items()]


def _ref_map(p, g):
    out = {}
    for m, c in p.items():
        e = {}
        for v, k in m:
            e[g(v)] = e.get(g(v), 0) + k
        image = tuple(sorted(e.items()))
        out[image] = out.get(image, 0) + c
    return {m: c for m, c in out.items() if c}


def _merge(v):
    # q_ij and q_ji go to one variable, and q to q11
    return pair_var(min(v[1:]), max(v[1:])) if v[0] == "q" else pair_var(1, 1)


@settings(max_examples=200, deadline=None)
@given(ref_polys)
def test_key_readers_match_reference(p):
    # every reader of packed keys agrees with the same reading of the
    # Mono-keyed terms
    P = Poly(p)
    assert P.variables() == {v for m in p for v, _ in m}
    prime = dict(zip(ring._VARS, ring._FIELD_PRIMES))
    assert P.value_at_primes() == sum(
        c * math.prod(f) for c, f in _ref_eval(p, prime.__getitem__))
    slope = {v: k - 4 for k, v in enumerate(REF_VARS)}
    line = [0] * (P.degree() + 1)
    for m, c in p.items():
        line[sum(e for _, e in m)] += c * math.prod(
            slope[v] ** e for v, e in m)
    while len(line) > 1 and not line[-1]:
        line.pop()
    assert P.on_line(slope.__getitem__) == line
    point = {v: GaussRat.of(k - 5, 2 * k - 9) for k, v in enumerate(REF_VARS)}
    want = GaussRat.of(0)
    for c, factors in _ref_eval(p, point.__getitem__):
        for x in factors:
            c = x * c
        want = want + c
    assert ring.Point(point).value(P) == want
    for g in (_merge, lambda v: pair_var(v[2], v[1]) if v[0] == "q" else v):
        asked = Counter()

        def counted(v):
            asked[v] += 1
            return g(v)
        assert dict(P.map_vars(counted).terms) == _ref_map(p, g)
        # each variable's image is asked for once per call
        assert asked == Counter(P.variables())


def _print_poly(order):
    """str, to_json and leading of one Poly in a fresh interpreter that
    registers the variables q_ij for (i, j) in order first, and exact
    quotients of it: by a general divisor whose leading packed key depends
    on that order, by a monomial, and the verdict on a pair that does not
    divide."""
    code = (
        "import json\n"
        "from quongram.ring import Poly, NotDivisible\n"
        f"for i, j in {order!r}:\n"
        "    Poly.var(i, j)\n"
        "p = Poly.parse('3*q31^2*q12 - q23*q12 + 5 - q[11,2]^3 + q^2*q23')\n"
        "print(p)\n"
        "print(json.dumps(p.to_json()))\n"
        "print(p.leading(), dict(p.terms) == dict(sorted(p.terms.items())))\n"
        "d = Poly.parse('2*q12 + 3 - q31*q23')\n"
        "print((p * d).exact_div(d))\n"
        "m = Poly.parse('-2*q31^2*q23')\n"
        "print((p * m).exact_div(m))\n"
        "try:\n"
        "    print((p * d + Poly.one()).exact_div(d))\n"
        "except NotDivisible:\n"
        "    print('NotDivisible')\n")
    src = os.path.dirname(os.path.dirname(ring.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_output_does_not_depend_on_registration_order():
    pairs = [(1, 2), (3, 1), (2, 3), (11, 2)]
    first = _print_poly(pairs)
    assert first == _print_poly(pairs[::-1])
    lines = first.splitlines()
    assert lines[0] == lines[3] == lines[4] == \
        "5 - q12*q23 + 3*q12*q31^2 + q23*q^2 - q[11,2]^3"
    assert lines[5] == "NotDivisible"


def test_general_division_needs_an_integer_quotient():
    # 2 + 2*q12 = 2*(1 + q12), but (1 + q12)/(2 + 2*q12) = 1/2 is not in Z
    two = Poly.parse("2 + 2*q12")
    assert two.exact_div(Poly.parse("1 + q12")) == Poly.const(2)
    with pytest.raises(NotDivisible):
        Poly.parse("1 + q12").exact_div(two)


def test_exponent_limit_raises_overflow():
    x = Poly.var(1, 2)
    big = x ** (2 ** 15 - 1)
    assert big.degree() == 2 ** 15 - 1
    with pytest.raises(OverflowError):
        big * x
    with pytest.raises(OverflowError):
        x ** (2 ** 15)
    with pytest.raises(OverflowError):
        Poly.from_mono(((pair_var(1, 2), 2 ** 15),))
    # each exponent fits, but the total degree does not
    with pytest.raises(OverflowError):
        Poly.from_mono(((pair_var(1, 2), 2 ** 14), (pair_var(2, 1), 2 ** 14)))
    with pytest.raises(OverflowError):
        (x ** 2 ** 14) * (Poly.var(2, 1) ** 2 ** 14)
    with pytest.raises(OverflowError):
        Poly.monomial([pair_var(1, 2), pair_var(2, 1)] * 2 ** 14)
    assert Poly.monomial([pair_var(1, 2)] * (2 ** 15 - 1)) == big
    # the general division multiplies the quotient by the divisor's tail;
    # of a + b^3, a leads when its field is the later registered one,
    # valued at the larger prime
    a, b = Poly.var(1, 1), x
    if a.value_at_primes() < b.value_at_primes():
        a, b = b, a
    with pytest.raises(OverflowError):
        (a * b ** (2 ** 15 - 2)).exact_div(a + b ** 3)


def test_key_sums_build_monomials_and_bad_keys_are_refused():
    k12, k21 = var_key(pair_var(1, 2)), var_key(pair_var(2, 1))
    # a product's key is the sum of its factors' keys; zero counts drop
    p = Poly.from_keys({2 * k12 + k21: 3, 0: -1, k21: 0})
    assert p == Poly.parse("3*q12^2*q21 - 1")
    assert Poly.from_keys({(2 ** 15 - 1) * k12: 1}) == Poly.var(1, 2) ** (
        2 ** 15 - 1)
    assert Poly.from_keys({}) == Poly.zero()
    assert Poly.monomials([k12, 0, 2 * k12]) == [
        Poly.var(1, 2), Poly.one(), Poly.var(1, 2) ** 2]
    with pytest.raises(ValueError):
        Poly.monomials([k12, -k12])
    with pytest.raises(OverflowError):
        Poly.monomials([k12, 2 ** 15 * k21])
    with pytest.raises(ValueError):
        Poly.from_keys({-k12: 1})
    # a field no variable has
    with pytest.raises(ValueError):
        Poly.from_keys({1 << 16 * 10_000: 1})
    # a guard bit: the exponent, or the degree, has reached 2**15
    with pytest.raises(OverflowError):
        Poly.from_keys({2 ** 15 * k12: 1})
    with pytest.raises(OverflowError):
        Poly.from_keys({2 ** 14 * (k12 + k21): 1})


def test_terms_view_is_read_only_and_pickles_as_monos():
    p = Poly.parse("2 - q12*q21")
    with pytest.raises(TypeError):
        p.terms[()] = 3
    assert pickle.loads(pickle.dumps(p)) == p
    assert p.__reduce__() == (Poly, (dict(p.terms),))


_REGISTER_RACE = """
import threading, time
from quongram import ring
from quongram.ring import Poly

class SlowList(list):
    def append(self, v):
        time.sleep(0.001)   # give the other threads the interpreter here
        super().append(v)

ring._VARS = SlowList(ring._VARS)
labels = [(k, k) for k in range(50)]
start = threading.Barrier(4, timeout=30)
keys = []
def work():
    start.wait()
    keys.append([next(iter(Poly.var(i, j)._t)) for i, j in labels])
threads = [threading.Thread(target=work) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads) and len(keys) == 4
assert len(ring._VARS) == len(set(ring._VARS)) == len(labels)
assert len(ring._FIELD_PRIMES) == len(set(ring._FIELD_PRIMES)) == len(labels)
assert all(k == keys[0] for k in keys)
"""


def test_registry_gives_each_variable_one_field_across_threads():
    # four threads register the same fresh variables at once, each pausing
    # inside the registration; in a fresh interpreter, which the patched
    # registry list cannot outlive
    src = os.path.dirname(os.path.dirname(ring.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", _REGISTER_RACE], env=env,
                   check=True, capture_output=True, timeout=120)
