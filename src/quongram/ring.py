"""
Exact arithmetic for the deformation parameters.

Values live in three layers:

* ``GaussRat`` -- Gaussian rationals, the exact scalar field used whenever a
  polynomial identity is checked by evaluation.
* ``Mono`` / ``Poly`` -- multivariate polynomials with integer coefficients in
  the formal parameters ``x[i,j]`` (one commuting indeterminate per ordered
  pair of generator labels, plus a dedicated one-parameter variable ``q``).
  The conjugation swapping ``x[i,j] <-> x[j,i]`` models the hermitian
  constraint on the parameter family.
* box fractions (see :mod:`quongram.boxes`) -- quotients whose denominators
  stay factored.

>>> p = Poly.var(1, 2) * Poly.var(2, 1)
>>> print(Poly.one() - p)
1 - q12*q21
>>> conjugate(Poly.var(1, 2) + Poly.var(1, 1))
Poly.parse('q11 + q21')
"""

from __future__ import annotations

__all__ = [
    "ParamVar", "Mono", "Poly", "GaussRat", "NotDivisible",
    "pair_var", "SINGLE_Q", "mono_mul", "mono_key", "conjugate",
]

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

# A variable is a tuple: ('q', i, j) for the pair parameter attached to the
# ordered label pair (i, j), or ('s',) for the single one-parameter variable.
# Tuples give a total order with all pair variables before the single one.
ParamVar = tuple

# A monomial is a tuple of (variable, positive exponent) pairs sorted by
# variable; the empty tuple is 1.
Mono = tuple

SINGLE_Q: ParamVar = ("s",)

_TERMINATOR = (("~",), 0)  # sorts after every real variable


def pair_var(i, j) -> ParamVar:
    """The formal parameter attached to the ordered label pair (i, j)."""
    return ("q", i, j)


def mono_mul(a: Mono, b: Mono) -> Mono:
    """Merge two sorted exponent tuples (commutative product)."""
    if not a:
        return b
    if not b:
        return a
    out = []
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        va, ea = a[ia]
        vb, eb = b[ib]
        if va == vb:
            out.append((va, ea + eb))
            ia += 1
            ib += 1
        elif va < vb:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def mono_div(a: Mono, b: Mono):
    """a / b as a Mono, or None if some exponent would go negative."""
    quo = dict(a)
    for v, e in b:
        r = quo.get(v, 0) - e
        if r < 0:
            return None
        if r:
            quo[v] = r
        else:
            del quo[v]
    return tuple(sorted(quo.items()))


def mono_key(m: Mono):
    """Sort key realizing lexicographic order: the *leading* monomial of a
    polynomial is the minimum under this key.

    >>> x, y = (("q", 1, 2), 1), (("q", 1, 3), 1)
    >>> min([(x,), (y,)], key=mono_key)  # q12 beats q13 in lex order
    ((('q', 1, 2), 1),)
    """
    return tuple((v, -e) for v, e in m) + (_TERMINATOR,)


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _mono_conj(m: Mono) -> Mono:
    out = []
    for v, e in m:
        if v[0] == "q":
            out.append((("q", v[2], v[1]), e))
        else:
            out.append((v, e))
    return tuple(sorted(out))


class NotDivisible(Exception):
    """Raised by Poly.exact_div when an exact polynomial division has a
    nonzero remainder or a non-integer quotient."""


@dataclass(frozen=True)
class GaussRat:
    """Exact Gaussian rational re + im*i."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "GaussRat":
        return GaussRat(Fraction(re), Fraction(im))

    def __add__(self, o):
        return GaussRat(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return GaussRat(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, o):
        if isinstance(o, (int, Fraction)):
            return GaussRat(self.re * o, self.im * o)
        return GaussRat(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, (int, Fraction)):
            return GaussRat(self.re / o, self.im / o)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return self * o.conj() / n

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re}+{self.im}i)"


def _var_str(v: ParamVar) -> str:
    if v == SINGLE_Q:
        return "q"
    _, i, j = v
    if isinstance(i, int) and isinstance(j, int) and 0 <= i <= 9 and 0 <= j <= 9:
        return f"q{i}{j}"
    return f"q[{i},{j}]"


class Poly:
    """Multivariate polynomial with integer coefficients, canonical form.

    Terms are stored as a dict Mono -> int with no zero coefficients, so
    equality is structural.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, int] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly({(): 1})

    @staticmethod
    def const(c: int) -> "Poly":
        return Poly({(): c})

    @staticmethod
    def var(i, j=None) -> "Poly":
        """Poly.var(i, j) is the pair parameter; Poly.var() the single q."""
        if i is None and j is None:
            return Poly({((SINGLE_Q, 1),): 1})
        return Poly({((pair_var(i, j), 1),): 1})

    @staticmethod
    def single_q() -> "Poly":
        return Poly({((SINGLE_Q, 1),): 1})

    @staticmethod
    def from_mono(m: Mono, c: int = 1) -> "Poly":
        return Poly({m: c})

    # -- ring operations ---------------------------------------------------
    def __add__(self, o: "Poly") -> "Poly":
        if not isinstance(o, Poly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in o.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    def __sub__(self, o: "Poly") -> "Poly":
        if not isinstance(o, Poly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in o.terms.items():
            v = out.get(m, 0) - c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    def __neg__(self) -> "Poly":
        p = Poly.__new__(Poly)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __mul__(self, o: "Poly") -> "Poly":
        if not isinstance(o, Poly):
            return NotImplemented
        a, b = self.terms, o.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = mono_mul(ma, mb)
                v = out.get(m, 0) + ca * cb
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    def scale(self, c: int) -> "Poly":
        if c == 0:
            return Poly.zero()
        p = Poly.__new__(Poly)
        p.terms = {m: c * v for m, v in self.terms.items()}
        return p

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
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(): 1}

    def constant_term(self) -> int:
        return self.terms.get((), 0)

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(mono_degree(m) for m in self.terms)

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def leading(self):
        """(mono, coeff) of the lex-leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = min(self.terms, key=mono_key)
        return m, self.terms[m]

    # -- division ----------------------------------------------------------
    def divmod_single(self, d: "Poly"):
        """Multivariate division by a single divisor: self = q*d + r where no
        monomial of r is divisible by lm(d).  Coefficients may become
        Fractions in intermediate steps.

        This is the general route; exact_div only takes it for divisors
        that are neither a monomial nor a binomial 1 - m, which in practice
        are the Bareiss pivots of det_poly_bareiss."""
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        dm, dc = d.leading()
        rest = [(m, c) for m, c in d.terms.items() if m != dm]
        r = {m: Fraction(c) for m, c in self.terms.items()}
        q: dict = {}
        rem: dict = {}
        import heapq

        heap = [mono_key(m) for m in r]
        heapq.heapify(heap)
        while heap:
            key = heapq.heappop(heap)
            m = tuple((v, -e) for v, e in key[:-1])
            if m not in r:
                continue
            c = r.pop(m)
            quo = mono_div(m, dm)
            if quo is None:
                rem[m] = rem.get(m, 0) + c
                continue
            qc = c / dc
            q[quo] = q.get(quo, 0) + qc
            for m2, c2 in rest:
                mm = mono_mul(quo, m2)
                v = r.get(mm, 0) - qc * c2
                if v:
                    if mm not in r:
                        heapq.heappush(heap, mono_key(mm))
                    r[mm] = v
                elif mm in r:
                    del r[mm]
        return q, rem

    def exact_div(self, d: "Poly") -> "Poly":
        """Return q with self = d*q, or raise NotDivisible.

        The divisor's shape picks the method, all with integers only except
        the last:

        * a monomial ``c*m``: shift every exponent down by ``m`` and divide
          every coefficient by ``c``;
        * a binomial ``1 - m`` (every box factor): sum the coefficients
          along each chain ``u, u*m, u*m^2, ...`` (see ``_div_one_minus``);
        * anything else: ``divmod_single``, insisting on an integer
          quotient and no remainder.

        >>> p = Poly.parse("q12 - q12^2*q21")
        >>> print(p.exact_div(Poly.parse("q12")))
        1 - q12*q21
        >>> print(p.exact_div(Poly.parse("1 - q12*q21")))
        q12
        >>> print(Poly.parse("1 + 2*q12 + q12^2").exact_div(Poly.parse("1 + q12")))
        1 + q12
        """
        t = d.terms
        if not t:
            raise ZeroDivisionError("polynomial division by zero")
        if len(t) == 1:
            ((dm, dc),) = t.items()
            return _div_monomial(self.terms, dm, dc)
        if len(t) == 2 and t.get(()) == 1:
            dm = next(m for m in t if m)
            if t[dm] == -1:
                return _div_one_minus(self.terms, dm)
        q, rem = self.divmod_single(d)
        if rem:
            raise NotDivisible(f"remainder with {len(rem)} terms")
        out = {}
        for m, c in q.items():
            if c:
                if isinstance(c, Fraction):
                    if c.denominator != 1:
                        raise NotDivisible("non-integer quotient coefficient")
                    c = c.numerator
                out[m] = c
        return Poly(out)

    def divides(self, other: "Poly") -> bool:
        try:
            other.exact_div(self)
            return True
        except NotDivisible:
            return False

    # -- structure maps ----------------------------------------------------
    def conjugate(self) -> "Poly":
        out: dict = {}
        for m, c in self.terms.items():
            mm = _mono_conj(m)
            out[mm] = out.get(mm, 0) + c
        return Poly(out)

    def map_labels(self, f: Callable) -> "Poly":
        """Rename labels: x[i,j] -> x[f(i),f(j)] (may merge variables)."""
        out: dict = {}
        for m, c in self.terms.items():
            acc: dict = {}
            for v, e in m:
                vv = ("q", f(v[1]), f(v[2])) if v[0] == "q" else v
                acc[vv] = acc.get(vv, 0) + e
            mm = tuple(sorted(acc.items()))
            out[mm] = out.get(mm, 0) + c
        return Poly(out)

    def specialize_one_param(self) -> "Poly":
        """Send every pair variable to the single parameter q."""
        out: dict = {}
        for m, c in self.terms.items():
            deg = sum(e for v, e in m)
            mm = ((SINGLE_Q, deg),) if deg else ()
            out[mm] = out.get(mm, 0) + c
        return Poly(out)

    def evaluate(self, assignment: Mapping[ParamVar, GaussRat],
                 mode: str = "free") -> GaussRat:
        """Exact value under a variable assignment.

        mode 'hermitian' checks x[j,i] = conj(x[i,j]) and x[i,i] real;
        'symmetric-real' checks x[j,i] = x[i,j] real; 'one-param' maps every
        pair variable to the single-q value; 'free' imposes nothing.
        """
        if mode == "hermitian":
            for v, val in assignment.items():
                if v[0] == "q":
                    w = ("q", v[2], v[1])
                    if w not in assignment or assignment[w] != val.conj():
                        raise ValueError(f"assignment not hermitian at {v}")
        elif mode == "symmetric-real":
            for v, val in assignment.items():
                if v[0] == "q":
                    if val.im != 0:
                        raise ValueError("symmetric-real needs real values")
                    w = ("q", v[2], v[1])
                    if w not in assignment or assignment[w] != val:
                        raise ValueError(f"assignment not symmetric at {v}")
        total = GaussRat.of(0)
        for m, c in self.terms.items():
            val = GaussRat.of(c)
            for v, e in m:
                if mode == "one-param":
                    x = assignment[SINGLE_Q]
                else:
                    if v not in assignment:
                        raise KeyError(f"no value for {_var_str(v)}")
                    x = assignment[v]
                for _ in range(e):
                    val = val * x
            total = total + val
        return total

    # -- presentation ------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (mono_degree(m), mono_key(m))):
            c = self.terms[m]
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
        return [
            {"coeff": c, "mono": [[list(v), e] for v, e in m]}
            for m, c in sorted(self.terms.items(), key=lambda kv: mono_key(kv[0]))
        ]

    @staticmethod
    def from_json(data) -> "Poly":
        terms = {}
        for rec in data:
            m = tuple((tuple(v), e) for v, e in rec["mono"])
            terms[m] = rec["coeff"]
        return Poly(terms)


def _div_monomial(terms: Mapping[Mono, int], dm: Mono, dc: int) -> Poly:
    """Exact quotient by the term dc*dm: exponents shift, coefficients
    divide."""
    out = {}
    for m, c in terms.items():
        quo = mono_div(m, dm)
        if quo is None:
            raise NotDivisible("a monomial is not a multiple of the divisor")
        c, r = divmod(c, dc)
        if r:
            raise NotDivisible("non-integer quotient coefficient")
        out[quo] = c
    return Poly(out)


def _div_one_minus(terms: Mapping[Mono, int], m: Mono) -> Poly:
    """Exact quotient by 1 - m for a monomial m != 1.

    Every monomial is u*m^k for one base u that m does not divide; the
    monomials sharing a base form a chain.  With self = (1 - m)*q, the
    coefficient of u*m^k in self is q_k - q_(k-1), so q_k is the partial
    sum of the chain's coefficients up to k, and the division is exact iff
    every chain sums to zero.  Setting every variable to 1 sends 1 - m to
    0, so a nonzero total coefficient sum is a quick miss.
    """
    if sum(terms.values()):
        raise NotDivisible("coefficients do not sum to zero")
    md = dict(m)
    chains: dict = {}
    for u, c in terms.items():
        eu = dict(u)
        k = min([eu.get(v, 0) // e for v, e in m])
        if k:
            u = tuple((v, e) for v, e in ((v, e - k * md.get(v, 0))
                                          for v, e in u) if e)
        chain = chains.get(u)
        if chain is None:
            chains[u] = {k: c}
        else:
            chain[k] = c
    out = {}
    powers = {}
    for u, chain in chains.items():
        if len(chain) == 1:
            raise NotDivisible("a chain of one term")
        top = max(chain)
        s = 0
        for k in range(min(chain), top):
            s += chain.get(k, 0)
            if s and k:
                mk = powers.get(k)
                if mk is None:
                    mk = powers[k] = tuple((v, e * k) for v, e in m)
                out[mono_mul(u, mk)] = s
            elif s:
                out[u] = s
        if s + chain[top]:
            raise NotDivisible("a chain's coefficients do not sum to zero")
    return Poly(out)


def conjugate(p: Poly) -> Poly:
    """The involution x[i,j] -> x[j,i], fixing x[i,i] and the single q."""
    return p.conjugate()


if __name__ == "__main__":
    import doctest

    doctest.testmod()
