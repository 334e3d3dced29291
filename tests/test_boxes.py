import copy
import pickle
import random
from collections import Counter
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from quongram.ring import Poly, NotDivisible
from quongram.boxes import (BoxFactor, BoxFraction, as_part, sum_parts,
                            sum_products, _den_lcm, _den_minus, _den_plus)
from quongram.fock import Weight
from quongram.gram import Basis, build_generic
from quongram.inverse import inv_full


def B(word, *positions):
    return BoxFactor(tuple(word), frozenset(positions))


def P(word, *positions):
    return BoxFactor(tuple(word), frozenset(positions), True)


@pytest.mark.parametrize("seed", range(5))
def test_renamed_fraction_matches_map_labels(seed):
    rng = random.Random(seed)
    table = inv_full(Weight.generic_n(4), "fast")
    images = [1, 2, 3, 4]
    rng.shuffle(images)
    f = dict(zip([1, 2, 3, 4], images))
    r = Basis.of_weight(Weight.generic_n(4)).renaming(images)
    for x in table.coefficients.values():
        got = x.renamed(r)
        want = x.map_labels(f.__getitem__)
        assert (got.num, got.den) == (want.num, want.den)
        # a reduced fraction stays reduced, so its form is unique
        assert (got.num, got.den) == as_part(BoxFraction(got.num, got.den))


def test_renaming_leaves_one_parameter_boxes():
    x = BoxFraction(Poly.one(), (P((1, 2, 3), 1, 2), P((1, 2, 3), 1, 2, 3)))
    r = Basis.of_weight(Weight.generic_n(3)).renaming((3, 1, 2))
    assert x.renamed(r).den == x.den


def test_one_parameter_boxes_are_keyed_by_size():
    # 1 - q^(k(k-1)) depends on k alone, so the letters of the word do not
    # show, and renaming them leaves the box as it is
    a, b = P((1, 2), 1, 2), P((2, 3), 1, 2)
    assert a == b and hash(a) == hash(b) and str(a) == "Box{1,2}"
    assert P((5, 1, 5), 1, 3) == a != P((1, 2, 3), 1, 2, 3)
    assert a.map_labels({1: 7, 2: 7}.__getitem__) is a


def test_expansion():
    assert B((1, 2), 1, 2).expand() == Poly.one() - Poly.var(1, 2) * Poly.var(2, 1)
    # identical letters square the variable
    assert B((1, 1), 1, 2).expand() == Poly.one() - Poly.var(1, 1) ** 2


def test_identity_is_by_letters():
    # boxes over different words with the same selected letters cancel
    a = B((1, 2, 3), 1, 2)
    b = B((2, 1, 9), 1, 2)
    assert a == b and hash(a) == hash(b)
    assert a != B((1, 2, 3), 1, 3)


def test_factor_is_its_key():
    a, b, c = B((3, 1, 2), 1, 2), B((1, 2, 3), 1, 2, 3), P((2, 1), 1, 2)
    for f in (a, b, c):
        key = (f.one_param, f.letters)
        assert f == key and hash(f) == hash(key)
    assert a.letters == (1, 3) and not a.one_param and c.one_param
    assert sorted([c, b, a]) == [b, a, c]
    assert (a < b) == ((False, (1, 3)) < (False, (1, 2, 3)))
    for f in (pickle.loads(pickle.dumps(b)), copy.deepcopy(c)):
        assert type(f) is BoxFactor and f in (b, c)


@pytest.mark.parametrize("positions", [(), (1,), (0, 1), (1, 4)])
def test_factor_rejects_bad_positions(positions):
    with pytest.raises(ValueError):
        B((1, 2, 3), *positions)


def test_map_labels_can_merge_letters():
    merge = {1: 1, 2: 1, 3: 3}.get
    f = B((1, 2, 3), 1, 2).map_labels(merge)
    assert f == B((1, 1), 1, 2)
    assert f.expand() == Poly.one() - Poly.var(1, 1) ** 2
    # the mapped letters are sorted again
    g = B((3, 2, 1), 1, 2, 3).map_labels({1: 3, 2: 3, 3: 1}.get)
    assert g == B((3, 3, 1), 1, 2, 3) and str(g) == "Box{1,3,3}"


def test_one_param_box():
    f = BoxFactor((1, 2, 3), frozenset({1, 2, 3}), True)
    assert f.expand() == Poly.one() - Poly.single_q() ** 6


def _spy_divs(monkeypatch):
    seen = []
    div = Poly.exact_div

    def spy(self, d):
        seen.append(d)
        return div(self, d)
    monkeypatch.setattr(Poly, "exact_div", spy)
    return seen


def test_reduction_cancels(monkeypatch):
    seen = _spy_divs(monkeypatch)
    f = BoxFraction(B((1, 2), 1, 2).expand(), (B((1, 2), 1, 2),))
    assert seen
    assert f == BoxFraction.one()
    assert f.den == ()
    # one of two factors cancels, the other stays
    b12, b123 = B((1, 2), 1, 2), B((1, 2, 3), 1, 2, 3)
    x = Poly.parse("q12 - q13")
    g = BoxFraction(x * b12.expand(), (b123, b12))
    assert (g.num, g.den) == (x, (b123,))


@pytest.mark.parametrize("num", ["1", "-3", "q12*q21", "2*q12^2*q21*q13",
                                 "-q^6"])
@pytest.mark.parametrize("den", [
    (B((1, 2), 1, 2),),
    (B((1, 2, 3), 1, 2, 3), B((1, 2), 1, 2), B((1, 2), 1, 2)),
    (B((1, 1), 1, 2), B((1, 1, 2), 1, 2, 3)),
    (P((1, 2, 3), 1, 2, 3), P((1, 2), 1, 2))])
def test_monomial_numerators_try_no_division(monkeypatch, num, den):
    num = Poly.parse(num)
    seen = _spy_divs(monkeypatch)
    f = BoxFraction(num, den)
    assert not seen
    assert (f.num, f.den) == (num, tuple(sorted(den)))
    # division would have missed on every factor
    for b in den:
        with pytest.raises(NotDivisible):
            num.exact_div(b.expand())


def test_boxes_with_a_variable_the_numerator_lacks_are_not_tried(
        monkeypatch):
    b12, b123 = B((1, 2), 1, 2), B((1, 2, 3), 1, 2, 3)
    rest = Poly.parse("q12 - 2*q21")
    # the numerator has no q13, so Box{1,2,3} cannot divide it
    seen = _spy_divs(monkeypatch)
    f = BoxFraction(rest * b12.expand(), (b123, b12, b12))
    assert seen == [b12.expand()] * 2
    assert (f.num, f.den) == (rest, (b12, b123))


def rand_fraction(rng):
    num = Poly.const(rng.randint(-3, 3))
    for _ in range(rng.randint(0, 2)):
        num = num * Poly.var(rng.randint(1, 3), rng.randint(1, 3))
    num = num + Poly.const(rng.randint(0, 2))
    boxes = [B((1, 2), 1, 2), B((1, 2, 3), 1, 2, 3), B((2, 3), 1, 2)]
    den = tuple(rng.choice(boxes) for _ in range(rng.randint(0, 2)))
    return BoxFraction(num, den)


fracs = st.integers(0, 10 ** 9).map(lambda s: rand_fraction(random.Random(s)))


@settings(max_examples=50, deadline=None)
@given(fracs, fracs, fracs)
def test_field_axioms_cross_multiplied(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a
    assert a - a == BoxFraction.zero()


@settings(max_examples=30, deadline=None)
@given(fracs)
def test_division_roundtrip(f):
    box = B((1, 2, 3), 1, 2, 3)
    assert (f / box) * BoxFraction(box.expand()) == f


def test_reflected_poly_arithmetic():
    f = BoxFraction(Poly.one(), (B((1, 2), 1, 2),))
    p = Poly.var(1, 2)
    assert p * f == f * p
    assert p + f == f + p
    assert (p - f) == -(f - p)


def test_conjugate_fixes_boxes():
    f = BoxFraction(Poly.var(1, 2), (B((1, 2), 1, 2),))
    g = f.conjugate()
    assert g.num == Poly.var(2, 1)
    assert g.den == f.den


def test_str_layout():
    f = BoxFraction(Poly.one(), (B((1, 2), 1, 2),))
    assert str(f) == "1 / Box{1,2}"
    assert str(f * f) == "1 / Box{1,2}^2"


# -- equality, hashing and the summation rule ---------------------------------

def test_one_param_forms_of_one_value_are_equal_and_hash_equally():
    # 1 - q^6 = (1 - q^2)(1 + q^2 + q^4): two reduced forms of one value
    a = BoxFraction(Poly.one(), (P((1, 2), 1, 2),))
    b = BoxFraction(Poly.parse("1 + q^2 + q^4"), (P((1, 2, 3), 1, 2, 3),))
    assert a.den != b.den
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def _poly_hash_cases():
    rng = random.Random(8)
    return [Poly.var(1, 2), Poly.const(3), Poly.zero(),
            rand_fraction(rng).num * Poly.parse("q21 - 2*q13^2 + q")]


@pytest.mark.parametrize("p", _poly_hash_cases())
def test_poly_and_equal_box_fraction_hash_equally(p):
    f = BoxFraction(p)
    assert f == p and p == f
    assert hash(p) == hash(f)
    assert len({p, f}) == 1
    # the same value over a box it cancels against
    b = B((1, 2), 1, 2)
    g = BoxFraction(p * b.expand(), (b,), reduce=False)
    assert g == p and hash(g) == hash(p)


@settings(max_examples=60, deadline=None)
@given(fracs)
def test_numerators_hash_like_their_fractions(a):
    assert hash(a.num) == hash(BoxFraction(a.num))


def test_eq_cancels_shared_factors():
    b12, b123, b23 = B((1, 2), 1, 2), B((1, 2, 3), 1, 2, 3), B((2, 3), 1, 2)
    x = Poly.parse("q12 - q13")
    # equal denominators compare numerators
    assert BoxFraction(x, (b12,)) == BoxFraction(x, (b12,))
    assert BoxFraction(x, (b12,)) != BoxFraction(-x, (b12,))
    # disjoint denominators
    f = BoxFraction(x * b12.expand(), (b12,), reduce=False)
    g = BoxFraction(x * b23.expand(), (b23,), reduce=False)
    assert f == g and g == f
    assert BoxFraction(x, (b12,)) != BoxFraction(x, (b23,))
    # overlapping denominators: b123 shared, b12 and b23 on one side each
    f = BoxFraction(x * b23.expand(), (b123, b23), reduce=False)
    g = BoxFraction(x * b12.expand(), (b12, b123), reduce=False)
    assert f == g and g == f
    assert f != BoxFraction(x, (b12, b123))
    # one denominator inside the other
    assert BoxFraction(x, (b12, b123)) == BoxFraction(
        x * b23.expand(), (b123, b12, b23), reduce=False)
    # Poly operands, both ways round, and zero
    p = BoxFraction(b12.expand() * x, (b12,), reduce=False)
    assert p == x and x == p and p != x + Poly.one()
    assert BoxFraction(Poly.zero(), (b12,), reduce=False) == Poly.zero()
    assert BoxFraction.zero() == BoxFraction(Poly.zero(), (b123,),
                                             reduce=False)
    assert BoxFraction.zero() != BoxFraction(Poly.one(), (b123,))
    assert (BoxFraction.one() == "1") is False


def _equal_other_form(a, f):
    """a written over one more factor f, unreduced; and in one-parameter
    mode a second form with a smaller box replaced by a larger one."""
    forms = [BoxFraction(a.num * f.expand(), a.den + (f,), reduce=False)]
    small = [b for b in a.den if len(b.letters) == 2]
    if a.den and small and small[0].one_param:
        big = P((1, 2, 3), 1, 2, 3)
        rest = list(a.den)
        rest.remove(small[0])
        num = a.num * Poly.parse("1 + q^2 + q^4")
        forms.append(BoxFraction(num, tuple(rest) + (big,)))
    return forms


def rand_one_param(rng):
    num = Poly.const(rng.randint(-3, 3))
    for _ in range(rng.randint(0, 2)):
        num = num * Poly.single_q() + Poly.const(rng.randint(-2, 2))
    boxes = [P((1, 2), 1, 2), P((1, 2, 3), 1, 2, 3),
             P((1, 2, 3, 4), 1, 2, 3, 4)]
    den = tuple(rng.choice(boxes) for _ in range(rng.randint(0, 3)))
    return BoxFraction(num, den)


one_param_fracs = st.integers(0, 10 ** 9).map(
    lambda s: rand_one_param(random.Random(s)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(fracs, one_param_fracs), st.one_of(fracs, one_param_fracs),
       st.sampled_from([B((1, 2, 3), 1, 2, 3), P((1, 2), 1, 2)]))
def test_equal_values_hash_equally(a, b, f):
    for x, y in [(a, b)] + [(a, g) for g in _equal_other_form(a, f)]:
        if x == y:
            assert hash(x) == hash(y)
    for g in _equal_other_form(a, f):
        assert a == g


def _fold(parts):
    """Reference: each part reduced and added with + in the given order."""
    total = BoxFraction.zero()
    for n, den in parts:
        total = total + BoxFraction(n, den)
    return total


def _rand_parts(rng, boxes, k):
    parts = []
    for _ in range(k):
        num = Poly.const(rng.randint(-3, 3))
        for _ in range(rng.randint(0, 2)):
            num = num * Poly.var(rng.randint(1, 4), rng.randint(1, 4))
        num = num + Poly.const(rng.randint(-1, 1))
        den = tuple(rng.choice(boxes) for _ in range(rng.randint(0, 3)))
        parts.append((num, den))
    return parts


def _spy_adds(monkeypatch):
    seen = []
    add = BoxFraction.__add__

    def spy(self, o):
        seen.append(o)
        return add(self, o)
    monkeypatch.setattr(BoxFraction, "__add__", spy)
    return seen


# boxes over distinct letters of one or another word of the same letters
GENERIC = [B(w, *T) for w in ((1, 2, 3, 4), (2, 1, 4, 3))
           for T in ((1, 2), (2, 3), (1, 2, 3), (2, 3, 4), (1, 2, 3, 4))]
ONE_PARAM = [P((1, 2), 1, 2), P((1, 2, 3), 1, 2, 3),
             P((1, 2, 3, 4), 1, 2, 3, 4)]
# boxes over a repeated letter, which are not prime: 1 - q11^2 is
# (1 - q11)(1 + q11)
REPEATED = [B((1, 1, 2), 1, 2), B((1, 2, 1), 1, 2, 3),
            B((1, 2, 2, 1), 1, 2, 3, 4), B((1, 2, 2), 2, 3)]
BOX_SETS = {"generic": GENERIC, "one-param": ONE_PARAM,
            "repeated": GENERIC + REPEATED}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BOX_SETS)), st.integers(0, 10 ** 9))
def test_generic_parts_are_summed_once(kind, seed):
    rng = random.Random(seed)
    parts = _rand_parts(rng, BOX_SETS[kind], rng.randint(1, 6))
    folded = _fold(parts)
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy_adds(mp)
        once = sum_parts(parts)
    assert not seen
    assert once == folded
    assert not any(f.expand().divides(once.num) for f in once.den)
    # over distinct primes a value has one reduced form; over other boxes
    # the sum and the running sum may reach different forms of it
    if kind == "generic":
        assert str(once) == str(folded)


@pytest.mark.parametrize("odd", [P((1, 2), 1, 2), B((1, 1, 2), 1, 2),
                                 B((1, 2, 1), 1, 2, 3)])
def test_other_parts_are_summed_once_to_the_folded_form(odd):
    # one box that is not prime among generic ones: no part is added on
    # its own, and on these parts the sum reaches the running sum's form
    rng = random.Random(7)
    for _ in range(20):
        parts = _rand_parts(rng, GENERIC, 4) + [(Poly.const(3), (odd,))]
        rng.shuffle(parts)
        folded = _fold(parts)
        with pytest.MonkeyPatch.context() as mp:
            seen = _spy_adds(mp)
            total = sum_parts(parts)
        assert not seen
        assert (total.num, total.den) == (folded.num, folded.den)
        assert str(total) == str(folded)


# -- sorted denominator tuples ------------------------------------------------

dens = st.lists(st.sampled_from(GENERIC + ONE_PARAM), max_size=7).map(
    lambda fs: tuple(sorted(fs)))


@settings(max_examples=200, deadline=None)
@given(dens, dens)
def test_den_merges_agree_with_counter(a, b):
    ca, cb = Counter(a), Counter(b)
    assert _den_lcm(a, b) == tuple(sorted((ca | cb).elements()))
    assert _den_plus(a, b) == tuple(sorted((ca + cb).elements()))
    assert _den_minus(a, b) == tuple(sorted((ca - cb).elements()))


def test_product_denominator_is_sorted_for_outside_callers():
    a, b = GENERIC[3], GENERIC[0]
    assert b < a
    f = BoxFraction(Poly.const(2), (a, b))
    assert f.den == (b, a)
    assert (f * BoxFraction(Poly.const(3), (b,))).den == (b, b, a)
    assert (f / b).den == (b, b, a)


# -- sums of products ---------------------------------------------------------

def _product_part(x, y):
    """x*y as an unreduced (numerator, denominator) part: the reference
    that sum_products must match through sum_parts."""
    (nx, dx), (ny, dy) = as_part(x), as_part(y)
    return nx * ny, dx + dy


def _a3_values(one_param):
    """The entries of A_3 and of its inverse, and a zero."""
    nu = Weight.generic_n(3)
    rows = (build_generic(nu, one_param).entries
            + inv_full(nu, "fast", one_param).to_matrix().entries)
    return [v for row in rows for v in row] + [Poly.zero()]


A3_VALUES = {mode: _a3_values(mode) for mode in (False, True)}


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.integers(0, 10 ** 9))
def test_sum_products_is_sum_parts_of_the_products(one_param, seed):
    rng = random.Random(seed)
    values = A3_VALUES[one_param]
    pairs = [(rng.choice(values), rng.choice(values))
             for _ in range(rng.randint(0, 8))]
    got = sum_products(pairs)
    ref = sum_parts([_product_part(x, y) for x, y in pairs])
    # a sum of Poly products is a Poly
    assert as_part(got) == (ref.num, ref.den)
    assert str(got) == str(ref)
    # a single pair is the product x*y
    for x, y in pairs[:1]:
        assert as_part(sum_products([(x, y)])) == as_part(x * y)


@pytest.mark.parametrize("one_param", [False, True])
def test_sum_products_keeps_the_pair_order_of_one_parameter_forms(one_param):
    # a row of A_3 times a column of its inverse, the pairs reversed: in
    # either mode the products are summed once, with no + between them
    nu = Weight.generic_n(3)
    row = build_generic(nu, one_param).entries[0]
    col = [r[0] for r in inv_full(nu, "fast", one_param).to_matrix().entries]
    pairs = list(zip(row, col))[::-1]
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy_adds(mp)
        total = sum_products(pairs)
    assert not seen
    assert (total.num, total.den) == (Poly.one(), ())


summed = st.integers(0, 10 ** 9).map(lambda s: sum_parts(
    _rand_parts(random.Random(s), GENERIC + ONE_PARAM, 3)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(fracs, one_param_fracs, summed))
def test_reduction_is_idempotent(f):
    g = BoxFraction(f.num, f.den)
    assert (g.num, g.den) == (f.num, f.den)


def _reduce_trying_every_box(num, den):
    """Reference reduction: each factor is divided out until its first
    miss, whatever the variables of the numerator."""
    remaining = []
    for f, run in groupby(den):
        run = list(run)
        k = 0
        while k < len(run):
            try:
                num = num.exact_div(f.expand())
            except NotDivisible:
                break
            k += 1
        remaining.extend(run[k:])
    return num, tuple(remaining)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_skipped_divisions_leave_reductions_unchanged(seed):
    rng = random.Random(seed)
    boxes = GENERIC + [B((1, 1, 2), 1, 2, 3), B((3, 3), 1, 2)]
    (num, den), = _rand_parts(rng, boxes, 1)
    for b in rng.sample(boxes, rng.randint(0, 3)):
        num = num * b.expand()
    den = tuple(sorted(den + tuple(rng.sample(boxes, rng.randint(0, 3)))))
    want = _reduce_trying_every_box(num, den)
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy_divs(mp)
        f = BoxFraction(num, den)
    assert (f.num, f.den) == want
    # no division ran by a box with a variable the numerator lacks
    assert all(d.variables() <= num.variables() for d in seen)
