"""
Exact arithmetic for the deformation parameters.

Values live in three layers, and are read at a point through a fourth:

* ``GaussRat`` -- Gaussian rationals, the exact scalar field used whenever a
  polynomial identity is checked by evaluation.  A value is one Gaussian
  integer over one positive denominator, ``(a + b*i) / d`` with
  ``gcd(a, b, d) = 1``: a canonical triple costs one gcd per operation,
  where a pair of ``Fraction`` parts would normalize each part on its own.
* ``Poly`` -- multivariate polynomials with integer coefficients in the
  formal parameters ``x[i,j]`` (one commuting indeterminate per ordered
  pair of generator labels, plus a dedicated one-parameter variable ``q``).
  The conjugation swapping ``x[i,j] <-> x[j,i]`` models the hermitian
  constraint on the parameter family.
* box fractions (see :mod:`quongram.boxes`) -- quotients whose denominators
  stay factored.
* ``Point`` -- an exact evaluation point: an assignment checked once
  against its mode, and the values of the variables and box factors read
  from it, cached for the life of the point, one evaluator call.  Every
  value of a ``Poly`` or a box fraction at a point is read through one.

A ``Poly`` keeps each monomial as one packed exponent vector, a Python
``int`` of 16-bit fields (Monagan and Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  Field 0
holds the total degree; field ``k >= 1`` holds the exponent of the k-th
variable of a module registry, which variables join on first use and
never leave, so a packed key means the same monomial for the life of the
process.  The top bit of every field is a guard, which limits every
exponent and every total degree to below ``2**15``; a product that would
reach it raises ``OverflowError`` instead of wrapping.  On packed keys a
product of monomials is ``a + b``, and ``b`` divides ``a`` exactly when
``((a | G) - b) & G == G``, with ``G`` the guard bits.  No sum carries
between fields, so the integer order of the keys is a monomial order,
and exact division by a general divisor walks its terms in it
(``_div_general``).  One loop, ``_fields``, reads a key's variables: the
decode to a ``Mono``, the prime hash, the value at a point, the slice on a
line, ``variables`` and ``map_vars`` all go through it.

Everything a caller sees is decoded to ``Mono`` tuples, sorted by
``mono_key``: ``str``, ``to_json``, ``leading`` and the ``terms`` view do
not depend on the order in which variables were registered.  Nor does a
quotient, though the key order does: the quotient of an exact division
is unique.  Other modules build monomials from keys in one way only:
``var_key`` gives the key of a variable, a product's key is the sum of
its factors' keys, and ``Poly.from_keys`` (``Poly.monomials`` for one
monomial per key) checks such sums and builds Polys from them.

>>> p = Poly.var(1, 2) * Poly.var(2, 1)
>>> print(Poly.one() - p)
1 - q12*q21
>>> (Poly.var(1, 2) + Poly.var(1, 1)).conjugate()
Poly.parse('q11 + q21')
"""

from __future__ import annotations

__all__ = [
    "ParamVar", "Mono", "Poly", "GaussRat", "NotDivisible",
    "pair_var", "var_key", "SINGLE_Q", "mono_key", "Renaming",
    "check_assignment", "Point", "random_hermitian",
]

import threading
from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod
from operator import itemgetter
from types import MappingProxyType

# A variable is a tuple: ('q', i, j) for the pair parameter attached to the
# ordered label pair (i, j), or ('s',) for the single one-parameter variable.
# Tuples give a total order with all pair variables before the single one.
ParamVar = tuple

# A monomial, as callers see it, is a tuple of (variable, positive
# exponent) pairs sorted by variable; the empty tuple is 1.
Mono = tuple

SINGLE_Q: ParamVar = ("s",)

_TERMINATOR = (("~",), 0)  # sorts after every real variable


def pair_var(i, j) -> ParamVar:
    """The formal parameter attached to the ordered label pair (i, j)."""
    return ("q", i, j)


def mono_key(m: Mono):
    """Sort key realizing lexicographic order: the *leading* monomial of a
    polynomial is the minimum under this key.

    >>> x, y = (("q", 1, 2), 1), (("q", 1, 3), 1)
    >>> min([(x,), (y,)], key=mono_key)  # q12 beats q13 in lex order
    ((('q', 1, 2), 1),)
    """
    return tuple((v, -e) for v, e in m) + (_TERMINATOR,)


# -- packed monomials --------------------------------------------------------

_FIELD = 16                       # bits per field
_DEGREE = (1 << _FIELD) - 1       # mask of field 0, the total degree
_LIMIT = 1 << (_FIELD - 1)        # guard bit: exponents stay below 2**15
_VARS: list = []                  # field k >= 1 holds _VARS[k - 1]
_UNIT: dict = {}                  # variable -> its packed key, degree 1
_GUARD = _LIMIT                   # the guard bit of every registered field
_FIELD_PRIMES: list = []          # field k >= 1 hashes as _FIELD_PRIMES[k - 1]
_PRIME: dict = {}                 # variable -> the prime of its field
_REGISTER = threading.Lock()      # one field per variable, whatever the thread


def var_key(v: ParamVar) -> int:
    """The packed key of the variable v, registering it on first use.  The
    key of a product of variables, repeats allowed, is the sum of their
    keys, which ``Poly.from_keys`` turns into a Poly.  A key means its
    monomial only within this process: fields follow registration order.

    >>> k = var_key(pair_var(1, 2))
    >>> print(Poly.from_keys({2 * k + var_key(SINGLE_Q): 3}))
    3*q12^2*q
    """
    u = _UNIT.get(v)
    if u is None:
        global _GUARD
        with _REGISTER:
            u = _UNIT.get(v)
            if u is None:
                _VARS.append(v)
                p = _next_prime(_FIELD_PRIMES[-1] if _FIELD_PRIMES else 1)
                _FIELD_PRIMES.append(p)
                _PRIME[v] = p
                shift = _FIELD * len(_VARS)
                # the guard bit is in place before any key can use the field
                _GUARD |= _LIMIT << shift
                u = _UNIT[v] = (1 << shift) | 1
    return u


def _next_prime(p: int) -> int:
    """The least prime above p, by trial division."""
    while True:
        p += 1
        if all(p % d for d in range(2, isqrt(p) + 1)):
            return p


def _fields(key: int) -> list:
    """The (variable, exponent) pairs of the nonzero fields of a packed
    key, in field order: past the degree field, each 16-bit field in turn
    until none is left.  The one loop that reads a key's variables."""
    out = []
    for v in _VARS:
        key >>= _FIELD
        if not key:
            break
        e = key & _DEGREE
        if e:
            out.append((v, e))
    return out


def _encode(m: Mono) -> int:
    """The packed key of a Mono; its pairs may come in any order."""
    key = deg = 0
    for v, e in m:
        if e < 0:
            raise ValueError(f"negative exponent {e} of {_var_str(v)}")
        key += e * var_key(v)
        deg += e
    if deg >= _LIMIT:
        raise OverflowError(f"total degree {deg} reaches 2**15")
    return key


def _decode(key: int) -> Mono:
    """The Mono of a packed key, pairs sorted by variable."""
    out = _fields(key)
    out.sort()
    return tuple(out)


def _lex(key: int):
    """mono_key of a packed key."""
    return mono_key(_decode(key))


class Renaming:
    """A renaming of letters, q_ij -> q_{f(i) f(j)} for a bijection f of
    the keys of ``images`` onto themselves; other letters and the single
    q stay.

    On packed keys it is a permutation of fields: the exponent in the
    field of q_ij moves to the field of q_{f(i) f(j)}, and the degree field
    stays.  A key is renamed through its bytes, each target field's two
    bytes picked from the field that moves there by one ``itemgetter``, so
    no term is decoded.  The map covers every registered variable, and
    their images, which it registers, so it is a permutation of the
    registered fields.  A variable registered after the renaming was built
    is covered when a key with it is first renamed.

    ``memo`` is for callers that rename one value many times, such as the
    denominators of ``BoxFraction.renamed``; it lives as long as the
    renaming.
    """

    __slots__ = ("images", "memo", "_moved", "_size", "_pick")

    def __init__(self, images: Mapping):
        self.images = dict(images)
        self.memo = {}
        self._cover()

    def _cover(self):
        """The field permutation over the variables registered now."""
        source = {}       # target field -> the field that moves there
        moved = 0
        k = 0
        while k < len(_VARS):     # an image registered here is met too
            v = _VARS[k]
            k += 1
            if v[0] == "q":
                image = pair_var(self.letter(v[1]), self.letter(v[2]))
                if image != v:
                    t = (var_key(image).bit_length() - 1) // _FIELD
                    source[t] = k
                    moved |= _LIMIT << (_FIELD * k)
        fields = len(_VARS) + 1
        self._moved = moved
        self._size = 2 * fields
        self._pick = itemgetter(*(2 * source.get(t, t) + b
                                  for t in range(fields) for b in (0, 1)))

    def letter(self, x):
        """The image of the letter x."""
        return self.images.get(x, x)


class NotDivisible(ArithmeticError):
    """Raised by Poly.exact_div when the divisor does not divide the
    dividend in Z[q_ij]: the quotient is not a polynomial, or not one with
    integer coefficients."""


class GaussRat:
    """Exact Gaussian rational (a + b*i) / d, stored as the three integers.

    The triple is canonical: ``d > 0`` and ``gcd(a, b, d) = 1``, so equal
    values have equal triples, and ``==`` and ``hash`` compare them
    directly.  Each operation is a few integer products and one
    ``math.gcd(a, b, d)``; two ``Fraction`` parts would each pay their own
    gcds on every operation.  An instance holds only the triple; ``re``
    and ``im`` build their ``Fraction`` on each read, so no value carries
    a second copy of itself.  Treat an instance as immutable.

    >>> z = GaussRat(Fraction(1, 2), Fraction(-1, 3))
    >>> z.a, z.b, z.d
    (3, -2, 6)
    >>> print(z * 2)
    (1+-2/3i)
    >>> z.re
    Fraction(1, 2)
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re, im=0):
        re, im = Fraction(re), Fraction(im)
        rd, jd = re.denominator, im.denominator
        d = rd * jd // gcd(rd, jd)
        # both parts are in lowest terms, so the triple over their lcm is
        # already canonical
        self.a = re.numerator * (d // rd)
        self.b = im.numerator * (d // jd)
        self.d = d

    @staticmethod
    def of(re, im=0) -> "GaussRat":
        if re.__class__ is int and im.__class__ is int:
            return _raw(re, im, 1)
        return GaussRat(re, im)

    @staticmethod
    def from_ints(a: int, b: int, d: int) -> "GaussRat":
        """(a + b*i) / d for integers a, b and d > 0."""
        if d <= 0:
            raise ValueError(f"denominator {d} is not positive")
        return _reduced(a, b, d)

    @staticmethod
    def sum_of_products(terms) -> "GaussRat":
        """The sum over (c, factors) of the int c times the product of the
        GaussRat factors.  Products and sum run on unreduced triples, the
        sum over the lcm of the denominators, and only the value is
        reduced."""
        ta, tb, td = 0, 0, 1
        for c, factors in terms:
            a, b, d = c, 0, 1
            for x in factors:
                xa, xb = x.a, x.b
                a, b, d = a * xa - b * xb, a * xb + b * xa, d * x.d
            if d != td:
                g = gcd(d, td)
                f, d = td // g, d // g
                ta, tb, td = ta * d + a * f, tb * d + b * f, td * d
            else:
                ta, tb = ta + a, tb + b
        return _reduced(ta, tb, td)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, o):
        if o.__class__ is not GaussRat:
            o = _lift(o)
            if o is None:
                return NotImplemented
        d, e = self.d, o.d
        if d == e:
            return _reduced(self.a + o.a, self.b + o.b, d)
        return _reduced(self.a * e + o.a * d, self.b * e + o.b * d, d * e)

    def __sub__(self, o):
        if o.__class__ is not GaussRat:
            o = _lift(o)
            if o is None:
                return NotImplemented
        d, e = self.d, o.d
        if d == e:
            return _reduced(self.a - o.a, self.b - o.b, d)
        return _reduced(self.a * e - o.a * d, self.b * e - o.b * d, d * e)

    def __neg__(self):
        return _raw(-self.a, -self.b, self.d)

    def __mul__(self, o):
        if o.__class__ is not GaussRat:
            o = _lift(o)
            if o is None:
                return NotImplemented
        a, b, c, e = self.a, self.b, o.a, o.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if o.__class__ is not GaussRat:
            o = _lift(o)
            if o is None:
                return NotImplemented
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        a, b, c, e, f = self.a, self.b, o.a, o.b, o.d
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero GaussRat")
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f,
                        self.d * n)

    def __eq__(self, o):
        if not isinstance(o, GaussRat):
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def conj(self) -> "GaussRat":
        return _raw(self.a, -self.b, self.d)

    def abs2(self) -> Fraction:
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __str__(self):
        if not self.b:
            return str(self.re)
        return f"({self.re}+{self.im}i)"

    def __repr__(self):
        return f"GaussRat(re={self.re!r}, im={self.im!r})"


_new = object.__new__


def _raw(a: int, b: int, d: int) -> GaussRat:
    """The GaussRat of a triple that is already canonical."""
    r = _new(GaussRat)
    r.a, r.b, r.d = a, b, d
    return r


def _reduced(a: int, b: int, d: int) -> GaussRat:
    """The GaussRat (a + b*i) / d for d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _raw(a, b, d)


def _lift(o):
    """An int or Fraction operand as a GaussRat, anything else as None."""
    if isinstance(o, int):
        return _raw(o, 0, 1)
    if isinstance(o, Fraction):
        return _raw(o.numerator, 0, o.denominator)
    return None


@lru_cache(maxsize=1 << 10)
def _var_str(v: ParamVar) -> str:
    if v == SINGLE_Q:
        return "q"
    _, i, j = v
    if isinstance(i, int) and isinstance(j, int) and 0 <= i <= 9 and 0 <= j <= 9:
        return f"q{i}{j}"
    return f"q[{i},{j}]"


class Poly:
    """Multivariate polynomial with integer coefficients, canonical form.

    The terms are a dict from packed monomial keys (see the module
    docstring) to nonzero integer coefficients, so equality is structural
    and a product or a box division works on integers, not tuples.  Every
    exponent and total degree stays below ``2**15``; an operation that
    would reach it raises ``OverflowError``.

    ``terms`` is a read-only ``Mono``-keyed view, decoded on each access;
    ``Poly(terms)`` and ``from_mono`` take ``Mono`` keys.  Treat an
    instance as immutable.

    >>> p = Poly({(): 2, ((("q", 1, 2), 1),): 3})
    >>> dict(p.terms)
    {(): 2, ((('q', 1, 2), 1),): 3}
    """

    __slots__ = ("_t",)

    def __init__(self, terms: Mapping[Mono, int] | None = None):
        t: dict = {}
        for m, c in (terms or {}).items():
            k = _encode(m)
            c += t.get(k, 0)
            if c:
                t[k] = c
            else:
                t.pop(k, None)
        self._t = t

    @property
    def terms(self) -> Mapping[Mono, int]:
        """The terms as a read-only mapping Mono -> coefficient."""
        return MappingProxyType({_decode(m): c for m, c in self._t.items()})

    def __reduce__(self):
        # pickle Mono keys: a packed key means nothing in another process
        return Poly, (dict(self.terms),)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "Poly":
        return _poly({})

    @staticmethod
    def one() -> "Poly":
        return _poly({0: 1})

    @staticmethod
    def const(c: int) -> "Poly":
        return _poly({0: c} if c else {})

    @staticmethod
    def var(i, j) -> "Poly":
        """The pair parameter q_ij; ``Poly.single_q()`` is the single q."""
        return _poly({var_key(pair_var(i, j)): 1})

    @staticmethod
    def single_q() -> "Poly":
        return _poly({var_key(SINGLE_Q): 1})

    @staticmethod
    def from_mono(m: Mono, c: int = 1) -> "Poly":
        return Poly({m: c})

    @staticmethod
    def monomial(variables) -> "Poly":
        """The product of the variables, repeats allowed, as one packed key:
        the sum of their keys (``var_key``).

        >>> print(Poly.monomial([pair_var(1, 2), pair_var(2, 1), SINGLE_Q]))
        q12*q21*q
        """
        return _poly({_encode([(v, 1) for v in variables]): 1})

    @staticmethod
    def from_keys(counts: Mapping[int, int]) -> "Poly":
        """The sum of c times the monomial of k over counts k -> c, each key
        a sum of ``var_key`` values; zero counts drop.  A negative key, or
        one with a field of no registered variable, raises ValueError, and
        one with a field that has reached 2**15 OverflowError.

        >>> Poly.from_keys({-1: 1})
        Traceback (most recent call last):
        ...
        ValueError: a key is negative or has an unregistered field
        """
        t = dict(counts)
        _check_keys(t)
        if 0 in t.values():
            t = {k: c for k, c in t.items() if c}
        return _poly(t)

    @staticmethod
    def monomials(keys) -> list:
        """The monomial of each key, one Poly per key: ``from_keys`` of
        ``{k: 1}`` for each, with the keys checked together."""
        keys = list(keys)
        _check_keys(keys)
        return [_poly({k: 1}) for k in keys]

    # -- ring operations ---------------------------------------------------
    def __add__(self, o: "Poly") -> "Poly":
        if not isinstance(o, Poly):
            return NotImplemented
        out = dict(self._t)
        for m, c in o._t.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                del out[m]
        return _poly(out)

    def __sub__(self, o: "Poly") -> "Poly":
        if not isinstance(o, Poly):
            return NotImplemented
        out = dict(self._t)
        for m, c in o._t.items():
            v = out.get(m, 0) - c
            if v:
                out[m] = v
            else:
                del out[m]
        return _poly(out)

    def __neg__(self) -> "Poly":
        return _poly({m: -c for m, c in self._t.items()})

    def __mul__(self, o: "Poly") -> "Poly":
        if not isinstance(o, Poly):
            return NotImplemented
        return Poly.sum_of_products(((self, o),))

    @staticmethod
    def sum_of_products(pairs) -> "Poly":
        """The sum of x*y over pairs of Polys, the one multiply-accumulate
        kernel: every product term goes into one packed-term dict, and
        zero coefficients are dropped once, at the end, so no product and
        no partial sum is built as a Poly of its own.  A product that
        would reach degree 2**15 raises ``OverflowError``.

        >>> x, y = Poly.var(1, 2), Poly.var(2, 1)
        >>> print(Poly.sum_of_products([(x, y), (Poly.one() - x, y)]))
        q21
        """
        out: dict = {}
        get = out.get
        guard = _LIMIT
        for x, y in pairs:
            a, b = x._t, y._t
            if len(a) > len(b):
                a, b = b, a
            for ma, ca in a.items():
                for mb, cb in b.items():
                    m = ma + mb
                    # every exponent is at most the degree, so the
                    # degree's guard bit is set first
                    if m & guard:
                        raise OverflowError("a product reaches degree 2**15")
                    out[m] = get(m, 0) + ca * cb
        return _poly({m: c for m, c in out.items() if c})

    def scale(self, c: int) -> "Poly":
        if c == 0:
            return Poly.zero()
        return _poly({m: c * v for m, v in self._t.items()})

    def __pow__(self, n: int) -> "Poly":
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, o):
        if not isinstance(o, Poly):
            return NotImplemented
        return self._t == o._t

    def __hash__(self):
        """The hash of ``value_at_primes``, the integer ``BoxFraction``
        hashes for a value with no denominator, so a Poly and the equal
        BoxFraction hash equally."""
        return hash(self.value_at_primes())

    def value_at_primes(self) -> int:
        """The value with the variable of field k of the packed keys set to
        the k-th prime: distinct monomials take distinct values."""
        return sum(c * prod([_PRIME[v] ** e for v, e in _fields(m)])
                   for m, c in self._t.items())

    def on_line(self, scale) -> list:
        """The integer coefficients, lowest degree first, of p with every
        variable v set to scale(v)·t: a term c·∏v^e adds c·∏scale(v)^e to
        the coefficient of t^{Σe}.  Each packed key's total degree is read
        in place and its variables through ``_fields``, and scale is asked
        once per variable.  Trailing zeros are dropped; 0 is [0]."""
        scales = {}
        out = [0] * (self.degree() + 1)
        for m, c in self._t.items():
            for v, e in _fields(m):
                x = scales.get(v)
                if x is None:
                    x = scales[v] = scale(v)
                c *= x ** e
            out[m & _DEGREE] += c
        while len(out) > 1 and not out[-1]:
            out.pop()
        return out

    def is_zero(self) -> bool:
        return not self._t

    def nterms(self) -> int:
        """The number of nonzero terms."""
        return len(self._t)

    def is_one(self) -> bool:
        t = self._t
        return len(t) == 1 and t.get(0) == 1

    def degree(self) -> int:
        if not self._t:
            return 0
        return max(map(_DEGREE.__and__, self._t))

    def variables(self) -> set:
        return {v for m in self._t for v, _ in _fields(m)}

    def variable_flags(self) -> int:
        """The variables of the terms as flags, the guard bit of each
        variable's packed field (and of the degree field for a term that is
        not constant): every variable of p occurs in q iff
        ``p.variable_flags() & ~q.variable_flags()`` is 0.  Each field of
        the OR of the keys is below 2**15, so adding 2**15 - 1 to it sets
        its guard bit iff it is nonzero, and carries nothing further."""
        key = 0
        for m in self._t:
            key |= m
        g = _GUARD
        return (key + g - (g >> (_FIELD - 1))) & g

    def leading(self):
        """(mono, coeff) of the lex-leading term."""
        if not self._t:
            raise ValueError("zero polynomial has no leading term")
        m = min(self._t, key=_lex)
        return _decode(m), self._t[m]

    # -- division ----------------------------------------------------------
    def exact_div(self, d: "Poly") -> "Poly":
        """Return q with self = d*q in Z[q_ij], or raise NotDivisible.

        Two routes, chosen by the divisor's shape, both on integers and
        packed keys only:

        * a box binomial ``1 - m``: sum the coefficients along each chain
          ``u, u*m, u*m^2, ...`` (see ``_div_one_minus``);
        * anything else, monomials included: heap division in packed-key
          order (see ``_div_general``).

        >>> p = Poly.parse("q12 - q12^2*q21")
        >>> print(p.exact_div(Poly.parse("q12")))
        1 - q12*q21
        >>> print(p.exact_div(Poly.parse("1 - q12*q21")))
        q12
        >>> print(Poly.parse("1 + 2*q12 + q12^2").exact_div(Poly.parse("1 + q12")))
        1 + q12
        """
        t = d._t
        if not t:
            raise ZeroDivisionError("polynomial division by zero")
        if len(t) == 2 and t.get(0) == 1:
            dm = next(m for m in t if m)
            if t[dm] == -1:
                return _div_one_minus(self._t, dm)
        return _div_general(self._t, t)

    def divides(self, other: "Poly") -> bool:
        try:
            other.exact_div(self)
            return True
        except NotDivisible:
            return False

    # -- structure maps ----------------------------------------------------
    def map_vars(self, g: Callable) -> "Poly":
        """Substitute the variable g(v) for every variable v; terms whose
        images coincide merge, and a coefficient that cancels drops.  g and
        ``var_key`` are asked once per variable."""
        images: dict = {}
        out: dict = {}
        for m, c in self._t.items():
            key = 0
            for v, e in _fields(m):
                k = images.get(v)
                if k is None:
                    k = images[v] = var_key(g(v))
                key += e * k
            c += out.get(key, 0)
            if c:
                out[key] = c
            else:
                del out[key]
        return _poly(out)

    def renamed(self, r: Renaming) -> "Poly":
        """The polynomial with its letters renamed by r, key by key (see
        ``Renaming``); itself when r moves none of its variables.  The map
        on keys is injective, so no terms merge."""
        flags = self.variable_flags()
        if flags >> (8 * r._size):     # registered after r was built
            r._cover()
        if not flags & r._moved:
            return self
        size, pick, from_bytes = r._size, r._pick, int.from_bytes
        return _poly({from_bytes(bytes(pick(m.to_bytes(size, "little"))),
                                 "little"): c for m, c in self._t.items()})

    def conjugate(self) -> "Poly":
        return self.map_vars(
            lambda v: pair_var(v[2], v[1]) if v[0] == "q" else v)

    def map_labels(self, f: Callable) -> "Poly":
        """Rename labels: x[i,j] -> x[f(i),f(j)] (may merge variables)."""
        return self.map_vars(
            lambda v: pair_var(f(v[1]), f(v[2])) if v[0] == "q" else v)

    def evaluate(self, assignment: Mapping[ParamVar, GaussRat],
                 mode: str = "free") -> GaussRat:
        """Exact value under a variable assignment.

        mode 'hermitian' and 'symmetric-real' constrain the assignment, which
        ``check_assignment`` checks on every call; 'one-param' maps every
        pair variable to the single-q value; 'free' imposes nothing.  The
        value is that of a ``Point`` built for this call; to evaluate many
        polynomials at one point, build the Point once and call its
        ``value``, as ``GramMatrix.evaluate`` does.
        """
        return Point(assignment, mode).value(self)

    # -- presentation ------------------------------------------------------
    def __str__(self):
        if not self._t:
            return "0"
        terms = [(m & _DEGREE, _decode(m), c)
                 for m, c in self._t.items()]
        if len(terms) > 1:
            terms.sort(key=lambda dmc: (dmc[0], mono_key(dmc[1])))
        parts = []
        for _, m, c in terms:
            factors = []
            for v, e in m:
                s = _var_str(v)
                factors.append(s if e == 1 else f"{s}^{e}")
            body = "*".join(factors)
            if not body:
                frag = str(abs(c))
            elif abs(c) == 1:
                frag = body
            else:
                frag = f"{abs(c)}*{body}"
            if not parts:
                parts.append(frag if c > 0 else f"-{frag}")
            else:
                parts.append(f"+ {frag}" if c > 0 else f"- {frag}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly.parse({str(self)!r})"

    @staticmethod
    def parse(s: str) -> "Poly":
        """Inverse of str for the grammar used by __str__.

        >>> Poly.parse("1 - q12*q21") == Poly.one() - Poly.var(1,2)*Poly.var(2,1)
        True
        """
        s = s.strip().replace(" ", "")
        if s in ("", "0"):
            return Poly.zero()
        s = s.replace("-", "+-")
        if s.startswith("+"):
            s = s[1:]
        out = Poly.zero()
        for term in s.split("+"):
            if not term:
                continue
            sign = 1
            if term.startswith("-"):
                sign = -1
                term = term[1:]
            coeff = 1
            mono: dict = {}
            for piece in term.split("*"):
                if not piece:
                    raise ValueError(f"empty factor in term {term!r}")
                if piece.isdigit():
                    coeff *= int(piece)
                    continue
                exp = 1
                if "^" in piece:
                    piece, e = piece.split("^")
                    exp = int(e)
                if piece == "q":
                    v = SINGLE_Q
                elif piece.startswith("q[") and piece.endswith("]"):
                    i, j = piece[2:-1].split(",")
                    v = pair_var(int(i), int(j))
                elif piece.startswith("q") and len(piece) == 3:
                    v = pair_var(int(piece[1]), int(piece[2]))
                else:
                    raise ValueError(f"cannot parse factor {piece!r}")
                mono[v] = mono.get(v, 0) + exp
            m = tuple(sorted(mono.items()))
            out = out + Poly({m: sign * coeff})
        return out

    def to_json(self):
        return [{"coeff": self._t[m], "mono": [[list(v), e]
                                               for v, e in _decode(m)]}
                for m in sorted(self._t, key=_lex)]


def _poly(t: dict) -> Poly:
    """The Poly of packed terms with no zero coefficient."""
    p = _new(Poly)
    p._t = t
    return p


def _check_keys(keys) -> None:
    """Raise unless every key is a sum of ``var_key`` values (see
    ``Poly.from_keys``), by one test of the OR of the keys."""
    bits = 0
    for k in keys:
        bits |= k
    if bits < 0 or bits >> (_FIELD * (len(_VARS) + 1)):
        raise ValueError("a key is negative or has an unregistered field")
    if bits & _GUARD:
        raise OverflowError("a key reaches 2**15 in a field")


def _div_general(t: dict, d: dict) -> Poly:
    """Exact quotient by any nonzero d, by heap division on packed keys.

    The integer order of packed keys is itself a monomial order: a
    product adds keys with no carry between fields (the guard bits stay
    clear), so ``a < b`` gives ``a + c < b + c``, and the constant key 0
    is least.  So the largest key ``dm`` of d leads, and while anything is
    left of t, its largest key is lead(q) * dm for the quotient q that is
    left, with coefficient lc(q) * d[dm].  The quotient of an exact
    division is unique and its terms come out largest first, so a leading
    term that dm does not divide, or whose coefficient is not a multiple
    of d[dm], could never cancel: the division is not exact, and it stops
    there.  Every new term is below the one taken, so a key is taken at
    most once; keys that cancel stay in the heap and are skipped.
    """
    # heapq is imported here, its one use: most runs never divide by a
    # general divisor, and the import costs about 1 ms of every start
    from heapq import heapify, heappop, heappush

    g = _GUARD
    dm = max(d)
    dc = d[dm]
    rest = [(m, c) for m, c in d.items() if m != dm]
    r = dict(t)
    q = {}
    heap = [-m for m in r]
    heapify(heap)
    while heap:
        m = -heappop(heap)
        c = r.pop(m, 0)
        if not c:
            continue
        if ((m | g) - dm) & g != g:
            raise NotDivisible("a leading term is not a multiple of the "
                               "divisor's leading monomial")
        qc, rc = divmod(c, dc)
        if rc:
            raise NotDivisible("non-integer quotient coefficient")
        quo = m - dm
        q[quo] = qc
        for m2, c2 in rest:
            mm = quo + m2
            if mm & _LIMIT:
                raise OverflowError("a product reaches degree 2**15")
            v = r.get(mm, 0) - qc * c2
            if v:
                if mm not in r:
                    heappush(heap, -mm)
                r[mm] = v
            elif mm in r:
                del r[mm]
    return _poly(q)


def _div_one_minus(t: dict, m: int) -> Poly:
    """Exact quotient by 1 - m for a monomial m != 1.

    Every monomial is u*m^k for one base u that m does not divide, found
    by dividing by m while it divides; the monomials sharing a base form a
    chain.  With self = (1 - m)*q, the coefficient of u*m^k in self is
    q_k - q_(k-1), so q_k is the partial sum of the chain's coefficients up
    to k, and the division is exact iff every chain sums to zero.  Setting
    every variable to 1 sends 1 - m to 0, so a nonzero total coefficient
    sum is a quick miss.
    """
    if sum(t.values()):
        raise NotDivisible("coefficients do not sum to zero")
    g = _GUARD
    chains: dict = {}
    for u, c in t.items():
        k = 0
        while ((u | g) - m) & g == g:
            u -= m
            k += 1
        chain = chains.get(u)
        if chain is None:
            chains[u] = {k: c}
        else:
            chain[k] = c
    out = {}
    for u, chain in chains.items():
        if len(chain) == 1:
            raise NotDivisible("a chain of one term")
        top = max(chain)
        s = 0
        for k in range(min(chain), top):
            s += chain.get(k, 0)
            if s:
                out[u + k * m] = s
        if s + chain[top]:
            raise NotDivisible("a chain's coefficients do not sum to zero")
    return _poly(out)


def check_assignment(assignment: Mapping[ParamVar, GaussRat],
                     mode: str) -> None:
    """Raise ValueError unless the assignment meets the mode's constraint.

    'hermitian': every pair value has its mirror and x[j,i] = conj(x[i,j]);
    for i = j that makes x[i,i] real.  'symmetric-real': every pair value is
    real and x[j,i] = x[i,j]; in both, every pair value is a GaussRat.
    'one-param' and 'free' impose nothing here (see ``Point.var``).

    >>> v = GaussRat.of(1, 2)
    >>> check_assignment({pair_var(1, 2): v, pair_var(2, 1): v}, "hermitian")
    Traceback (most recent call last):
    ...
    ValueError: assignment not hermitian at ('q', 1, 2)
    """
    # GaussRat triples are canonical, so a value equals the mirror's
    # conjugate exactly when the triples agree up to the sign of b
    if mode not in ("hermitian", "symmetric-real"):
        return
    real = mode == "symmetric-real"
    for v, val in assignment.items():
        if v[0] == "q":
            if val.__class__ is not GaussRat:
                raise _not_exact(v, val)
            if real and val.b:
                raise ValueError("symmetric-real needs real values")
            w = assignment.get(("q", v[2], v[1]))
            if (not isinstance(w, GaussRat) or w.a != val.a or w.d != val.d
                    or w.b != (val.b if real else -val.b)):
                kind = "symmetric" if real else "hermitian"
                raise ValueError(f"assignment not {kind} at {v}")


def _not_exact(v: ParamVar, val) -> ValueError:
    return ValueError(f"value of {_var_str(v)} is not a GaussRat: {val!r}")


_ONE = _raw(1, 0, 1)


class Point:
    """An exact evaluation point: an assignment checked once against its
    mode (``check_assignment``), and the values read from it, each cached
    on first read for the life of the point, one evaluator call.  ``var``
    is the value of a variable, in mode 'one-param' that of the single q;
    ``box`` that of a box factor of :mod:`quongram.boxes`.  A missing value
    raises KeyError, and one that is not a GaussRat ValueError, naming the
    variable when it is first read."""

    __slots__ = ("assignment", "mode", "_vars", "_boxes")

    def __init__(self, assignment: Mapping[ParamVar, GaussRat],
                 mode: str = "free"):
        check_assignment(assignment, mode)
        self.assignment = assignment
        self.mode = mode
        self._vars = {}
        self._boxes = {}

    def var(self, v: ParamVar) -> GaussRat:
        """The value of the variable v."""
        x = self._vars.get(v)
        if x is None:
            w = SINGLE_Q if self.mode == "one-param" else v
            x = self.assignment.get(w)
            if x.__class__ is not GaussRat:
                raise (KeyError(f"no value for {_var_str(w)}") if x is None
                       else _not_exact(w, x))
            self._vars[v] = x
        return x

    def value(self, p: Poly, den=()) -> GaussRat:
        """The value of p over the product of the box factors in den, each
        sum of products reduced once (``GaussRat.sum_of_products``).  Each
        packed key's variables are read by ``_fields``, unsorted: the
        product is exact, so the order of its factors does not matter."""
        var = self.var
        val = GaussRat.sum_of_products(
            (c, [x for v, e in _fields(m) for x in (var(v),) * e])
            for m, c in p._t.items())
        if den:
            val = GaussRat.sum_of_products(
                [(1, [val] + [self.box(f)[1] for f in den])])
        return val

    def box(self, f) -> tuple:
        """(q_T, 1 / Box_T) for the box factor f = Box_T = 1 - q_T; a box
        that vanishes at the point raises ZeroDivisionError naming it."""
        vals = self._boxes.get(f)
        if vals is None:
            b = self.value(f.expand())
            if b.is_zero():
                raise ZeroDivisionError(f"{f} vanishes at the point")
            vals = self._boxes[f] = (_ONE - b, _ONE / b)
        return vals


def random_hermitian(labels, rng, scale: int, bound: int,
                     diag_bound: int) -> dict:
    """A seeded hermitian point on the given labels.

    For each pair i <= j in label order, q_ii = x / scale with x drawn from
    [-diag_bound, diag_bound], and q_ij = (x + y*i) / scale with x then y
    drawn from [-bound, bound]; q_ji = conj(q_ij).  The draws are made in
    that order, so one generator state gives one point.

    >>> import random
    >>> a = random_hermitian((1, 2), random.Random(0), 100, 60, 90)
    >>> check_assignment(a, "hermitian")
    >>> len(a)
    4
    """
    a = {}
    for i in labels:
        for j in labels:
            if j < i:
                continue
            if i == j:
                v = GaussRat(Fraction(rng.randint(-diag_bound, diag_bound),
                                      scale))
            else:
                v = GaussRat(Fraction(rng.randint(-bound, bound), scale),
                             Fraction(rng.randint(-bound, bound), scale))
            a[("q", i, j)] = v
            a[("q", j, i)] = v.conj()
    return a


if __name__ == "__main__":
    import doctest

    doctest.testmod()
