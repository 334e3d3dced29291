import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quongram.ring import (Poly, GaussRat, NotDivisible, pair_var, SINGLE_Q,
                           conjugate)


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


def test_not_divisible():
    p = Poly.one() + Poly.var(1, 2)
    with pytest.raises(NotDivisible):
        p.exact_div(Poly.var(1, 2))


def oracle_div(p, d):
    """p / d by the general heap division, or None if it is not exact."""
    q, rem = p.divmod_single(d)
    if rem or any(Fraction(c).denominator != 1 for c in q.values()):
        return None
    return Poly({m: int(c) for m, c in q.items()})


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


def test_one_param_specialization():
    p = Poly.var(1, 2) * Poly.var(2, 1)
    q = Poly.single_q()
    assert p.specialize_one_param() == q * q


def test_map_labels():
    p = Poly.var(1, 2) + Poly.var(2, 3)
    assert p.map_labels(lambda x: x + 10) == Poly.var(11, 12) + Poly.var(12, 13)


def test_conjugate_helper():
    assert conjugate(Poly.var(1, 2)) == Poly.var(2, 1)
