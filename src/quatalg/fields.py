"""Exact arithmetic over the coefficient fields used throughout the library.

Four field kinds are supported: the rationals Q, finite fields GF(p^k),
rational function fields GF(p^k)(t), and Laurent-series fields GF(p^k)((t))
whose elements are rational functions carried with t-adic valuation access
(no infinite series are ever stored).

Elements are lightweight hashable payloads, not wrapper objects: Fraction
for Q, int for GF(p), tuple of ints for GF(p^k), and (numerator, denominator)
polynomial pairs for the function fields.  All operations go through the
field object, e.g. ``F.mul(a, b)``.  Payloads are canonical, so ``==`` on
payloads of the same field is structural equality.

GF(p^k) multiplies and inverts through log/antilog tables when its order
is at most ``EXT_TABLE_MAX_ORDER``: ``mul`` is two dict lookups and one
list index, in place of a polynomial product and a polynomial division.
The tables are built by that polynomial arithmetic on the first ``mul``
or ``inv`` of a field and kept per (p, k) for the life of the process,
since every parse of a field descriptor makes a new ``ExtensionField``.
Larger fields multiply polynomials.  The structure-constant layer and
``linalg.rref`` skip the field methods over GF(p) and work on the int
payloads directly (see ``algebras`` and ``linalg``).
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from . import polynomials as P


class FieldError(ValueError):
    pass


#: largest order of a GF(p^k), k >= 2, that multiplies through
#: log/antilog tables; larger fields multiply polynomials
EXT_TABLE_MAX_ORDER = 1 << 10

# (p, k) -> (log, exp): exp[i] = g^i for 0 <= i < 2(q - 1), for a fixed
# primitive element g, and log[a] = the least i with exp[i] = a
_EXT_TABLES = {}


_TERM_RE = re.compile(r"^([+-]?\d*)\s*(?:\*?\s*([A-Za-z])\s*(?:\^\s*(\d+))?)?$")


def _parse_int_poly(s, var=None):
    """Parse e.g. '-t^2+2*t-1' into {exponent: int coefficient}."""
    s = s.strip()
    if not s:
        raise FieldError("empty polynomial string")
    # split into signed terms
    terms = re.findall(r"[+-]?[^+-]+", s.replace(" ", ""))
    coeffs = {}
    for term in terms:
        m = _TERM_RE.match(term)
        if not m:
            raise FieldError("cannot parse term %r" % term)
        cstr, v, estr = m.groups()
        if v is not None and var is not None and v != var:
            raise FieldError("unexpected variable %r (expected %r)" % (v, var))
        if cstr in ("", "+"):
            c = 1
        elif cstr == "-":
            c = -1
        else:
            c = int(cstr)
        e = 0 if v is None else (1 if estr is None else int(estr))
        coeffs[e] = coeffs.get(e, 0) + c
    return coeffs


class Field:
    """Common interface; subclasses implement the arithmetic kernel."""

    char = 0
    kind = None
    finite = False

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == self.zero()

    def is_one(self, a):
        return a == self.one()

    def eq(self, a, b):
        return a == b

    def pow_(self, a, n):
        if n < 0:
            return self.pow_(self.inv(a), -n)
        result = self.one()
        base = a
        while n > 0:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def sum_(self, items):
        acc = self.zero()
        for x in items:
            acc = self.add(acc, x)
        return acc

    def artin_schreier_solve(self, c):
        if self.char != 2:
            raise FieldError("Artin-Schreier solve requires characteristic 2")
        raise NotImplementedError

    def nonzero_elements(self):
        for x in self.elements():
            if not self.is_zero(x):
                yield x

    def __eq__(self, other):
        return isinstance(other, Field) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return self.name


class Rationals(Field):
    kind = "Q"
    char = 0
    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def is_square(self, c):
        if c < 0:
            return False, None
        if c == 0:
            return True, Fraction(0)
        n, d = c.numerator, c.denominator
        rn, rd = _isqrt_exact(n), _isqrt_exact(d)
        if rn is None or rd is None:
            return False, None
        return True, Fraction(rn, rd)

    def parse(self, s):
        return Fraction(s.strip())

    def fmt(self, a):
        return str(a)

    def random_element(self, rng, bound=20):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))

    def descriptor_json(self):
        return {"kind": "Q"}

    def _key(self):
        return ("Q",)


def _isqrt_exact(n):
    import math

    r = math.isqrt(n)
    return r if r * r == n else None


class PrimeField(Field):
    """GF(p) with int payloads in [0, p)."""

    kind = "GF"
    finite = True

    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise FieldError("p must be prime, got %d" % p)
        self.p = p
        self.k = 1
        self.order = p
        self.char = p
        self.name = "GF(%d)" % p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def pow_(self, a, n):
        if n < 0:
            return pow(self.inv(a), -n, self.p)
        return pow(a, n, self.p)

    def elements(self):
        return iter(range(self.p))

    def is_square(self, c):
        if c == 0:
            return True, 0
        if self.p == 2:
            return True, c
        if pow(c, (self.p - 1) // 2, self.p) != 1:
            return False, None
        return True, _tonelli_generic(self, c)

    def artin_schreier_solve(self, c):
        if self.p != 2:
            raise FieldError("Artin-Schreier solve requires characteristic 2")
        # GF(2): image of x^2+x is {0}
        if c == 0:
            return True, 0
        return False, None

    def parse(self, s):
        return int(s) % self.p

    def fmt(self, a):
        return str(a)

    def random_element(self, rng, bound=None):
        return rng.randrange(self.p)

    def descriptor_json(self):
        return {"kind": "GF", "p": self.p, "k": 1}

    def _key(self):
        return ("GF", self.p, 1)


class ExtensionField(Field):
    """GF(p^k), k >= 2, relative to the lexicographically least monic
    irreducible defining polynomial of degree k over GF(p).

    Payloads are length-k tuples of ints (power-basis coordinates of the
    class of the generator ``w``), so canonical forms are reproducible.
    """

    kind = "GF"
    finite = True
    var = "w"

    def __init__(self, p, k):
        self.base = PrimeField(p)
        self.p = p
        self.k = k
        self.char = p
        self.order = p**k
        self.modulus = _least_irreducible(self.base, k)
        self.name = "GF(%d^%d)" % (p, k)
        self._log = self._exp = None  # loaded on the first mul or inv

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def generator(self):
        return tuple(1 if i == 1 else 0 for i in range(self.k))

    def from_int(self, n):
        return (n % self.p,) + (0,) * (self.k - 1)

    def _lift(self, a):
        return P.normalize(self.base, a)

    def _pad(self, poly):
        return tuple(poly) + (0,) * (self.k - len(poly))

    def add(self, a, b):
        p = self.p
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def sub(self, a, b):
        p = self.p
        return tuple([(x - y) % p for x, y in zip(a, b)])

    def neg(self, a):
        p = self.p
        return tuple([-x % p for x in a])

    def _load_tables(self):
        """Fetch or build this field's log/antilog tables; above
        EXT_TABLE_MAX_ORDER the log table is empty."""
        key = (self.p, self.k)
        if key not in _EXT_TABLES:
            _EXT_TABLES[key] = (_log_tables(self)
                                if self.order <= EXT_TABLE_MAX_ORDER
                                else ({}, []))
        self._log, self._exp = _EXT_TABLES[key]

    def _poly_mul(self, a, b):
        prod = P.mul(self.base, self._lift(a), self._lift(b))
        return self._pad(P.mod(self.base, prod, self.modulus))

    def mul(self, a, b):
        if self._log is None:
            self._load_tables()
        log = self._log
        if not log:
            return self._poly_mul(a, b)
        i, j = log.get(a), log.get(b)  # 0 has no logarithm
        if i is None or j is None:
            return self.zero()
        return self._exp[i + j]

    def inv(self, a):
        if self._log is None:
            self._load_tables()
        if self._log:
            i = self._log.get(a)
            if i is None:
                raise ZeroDivisionError("inverse of 0")
            return self._exp[self.order - 1 - i]
        pa = self._lift(a)
        if not pa:
            raise ZeroDivisionError("inverse of 0")
        return self._pad(P.inv_mod(self.base, pa, self.modulus))

    def elements(self):
        return itertools.product(range(self.p), repeat=self.k)

    def is_square(self, c):
        if self.is_zero(c):
            return True, self.zero()
        if self.p == 2:
            # Frobenius is bijective: sqrt = c^(2^(k-1)... order/2)
            return True, self.pow_(c, self.order // 2)
        if self.pow_(c, (self.order - 1) // 2) != self.one():
            return False, None
        return True, _tonelli_generic(self, c)

    def artin_schreier_solve(self, c):
        if self.p != 2:
            raise FieldError("Artin-Schreier solve requires characteristic 2")
        for u in self.elements():
            if self.add(self.mul(u, u), u) == c:
                return True, u
        return False, None

    def parse(self, s):
        coeffs = _parse_int_poly(s, self.var)
        if max(coeffs, default=0) >= self.k:
            raise FieldError("degree too large for %s" % self.name)
        out = [0] * self.k
        for e, c in coeffs.items():
            out[e] = c % self.p
        return tuple(out)

    def fmt(self, a):
        terms = []
        for e in range(self.k - 1, -1, -1):
            c = a[e]
            if c == 0:
                continue
            if e == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else "%d*" % c
                terms.append("%s%s" % (head, self.var if e == 1 else "%s^%d" % (self.var, e)))
        return "+".join(terms) if terms else "0"

    def random_element(self, rng, bound=None):
        return tuple(rng.randrange(self.p) for _ in range(self.k))

    def descriptor_json(self):
        return {"kind": "GF", "p": self.p, "k": self.k}

    def _key(self):
        return ("GF", self.p, self.k)


def _log_tables(F):
    """(log, exp) of GF(p^k) for its first primitive element in the order
    of ``elements()``, built by polynomial multiplication."""
    B, q = F.base, F.order
    primes, n, r = [], q - 1, 2
    while r * r <= n:
        if n % r == 0:
            primes.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        primes.append(n)
    one = (B.one(),)
    for g in F.nonzero_elements():
        pg = F._lift(g)
        if all(P.pow_mod(B, pg, (q - 1) // r, F.modulus) != one
               for r in primes):
            break
    exp = [F.one()]
    for _ in range(q - 2):
        exp.append(F._poly_mul(exp[-1], g))
    log = {x: i for i, x in enumerate(exp)}
    return log, exp + exp


def _least_irreducible(base, k):
    """Lexicographically least monic irreducible of degree k over GF(p)."""
    for lower in itertools.product(range(base.p), repeat=k):
        poly = P.normalize(base, lower + (1,))
        if P.is_irreducible(base, poly):
            return poly
    raise FieldError("no irreducible polynomial found")  # unreachable


def _tonelli_generic(F, c):
    """Square root of a residue in a finite field of odd order."""
    q = F.order
    if q % 4 == 3:
        return F.pow_(c, (q + 1) // 4)
    # Tonelli-Shanks with a deterministically found nonsquare
    z = None
    for cand in F.elements():
        if F.is_zero(cand):
            continue
        if F.pow_(cand, (q - 1) // 2) != F.one():
            z = cand
            break
    qq, s = q - 1, 0
    while qq % 2 == 0:
        qq //= 2
        s += 1
    m, cc, t, r = s, F.pow_(z, qq), F.pow_(c, qq), F.pow_(c, (qq + 1) // 2)
    while t != F.one():
        i, t2 = 0, t
        while t2 != F.one():
            t2 = F.mul(t2, t2)
            i += 1
        b = F.pow_(cc, 1 << (m - i - 1))
        m, cc = i, F.mul(b, b)
        t, r = F.mul(t, cc), F.mul(r, b)
    return r


def FiniteField(p, k=1):
    return PrimeField(p) if k == 1 else ExtensionField(p, k)


class FunctionField(Field):
    """GF(p^k)(t): reduced rational functions with monic denominators.

    Payloads are pairs (num, den) of polynomial tuples over the base field,
    gcd(num, den) = 1 and den monic, so equality is structural.
    """

    kind = "RatFunc"

    def __init__(self, base, var="t"):
        if not base.finite:
            raise FieldError("function field base must be finite")
        self.base = base
        self.var = var
        self.char = base.char
        self.name = "%s(%s)" % (base.name, var)

    def _make(self, num, den):
        B = self.base
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return ((), (B.one(),))
        # a constant numerator or denominator is prime to the other side
        if len(num) > 1 and len(den) > 1:
            g = P.gcd(B, num, den)
            if P.deg(g) > 0:
                num = P.divmod_(B, num, g)[0]
                den = P.divmod_(B, den, g)[0]
        if B.is_one(den[-1]):
            return (num, den)
        lead_inv = B.inv(den[-1])
        return (P.scale(B, lead_inv, num), P.scale(B, lead_inv, den))

    def from_poly(self, poly):
        return self._make(P.normalize(self.base, poly), (self.base.one(),))

    def zero(self):
        return ((), (self.base.one(),))

    def one(self):
        return ((self.base.one(),), (self.base.one(),))

    def t(self):
        return self.from_poly(P.x_poly(self.base))

    def from_int(self, n):
        return self.from_poly(P.constant(self.base, self.base.from_int(n)))

    def from_base(self, c):
        return self.from_poly(P.constant(self.base, c))

    def add(self, a, b):
        B = self.base
        if a[1] == b[1]:
            return self._make(P.add(B, a[0], b[0]), a[1])
        n = P.add(B, P.mul(B, a[0], b[1]), P.mul(B, b[0], a[1]))
        return self._make(n, P.mul(B, a[1], b[1]))

    def neg(self, a):
        return (P.neg(self.base, a[0]), a[1])

    def mul(self, a, b):
        B = self.base
        if len(a[1]) == 1 and len(b[1]) == 1:
            # both denominators are 1: the product of the numerators is
            # already canonical
            return (P.mul(B, a[0], b[0]), a[1])
        return self._make(P.mul(B, a[0], b[0]), P.mul(B, a[1], b[1]))

    def inv(self, a):
        if not a[0]:
            raise ZeroDivisionError("inverse of 0")
        return self._make(a[1], a[0])

    def is_zero(self, a):
        return not a[0]

    def valuation(self, a):
        """t-adic valuation; raises on 0."""
        if not a[0]:
            raise FieldError("valuation of 0 is +infinity")
        return P.low_valuation(self.base, a[0]) - P.low_valuation(self.base, a[1])

    def residue_at_zero(self, a):
        """Value at t=0 of the unit part a / t^v(a), in the base field."""
        B = self.base
        if not a[0]:
            return B.zero()
        num = P.shift(B, a[0], -P.low_valuation(B, a[0]))
        den = P.shift(B, a[1], -P.low_valuation(B, a[1]))
        return B.div(num[0], den[0])

    def is_square(self, c):
        B = self.base
        if not c[0]:
            return True, self.zero()
        prod = P.mul(B, c[0], c[1])
        root = P.sqrt(B, prod)
        if root is None:
            return False, None
        return True, self._make(root, c[1])

    def artin_schreier_solve(self, c):
        """Decide c in {u^2+u : u in GF(q)(t)}, q even, with witness.

        Pole reduction at each finite place, then degree reduction of the
        polynomial part, then the constant case over the base field.
        """
        if self.char != 2:
            raise FieldError("Artin-Schreier solve requires characteristic 2")
        B = self.base
        u_acc = self.zero()
        cur = c
        # clear finite poles
        _, factors = P.factor_monic(B, cur[1]) if P.deg(cur[1]) > 0 else (None, [])
        for pi, _ in factors:
            while True:
                if self.is_zero(cur):
                    break
                v = P.split_at(B, cur[0], pi)[0] - P.split_at(B, cur[1], pi)[0]
                if v >= 0:
                    break
                if v % 2 != 0:
                    return False, None
                m = -v // 2
                # leading Laurent coefficient a = (cur * pi^2m) mod pi
                pi_2m = pi
                for _ in range(2 * m - 1):
                    pi_2m = P.mul(B, pi_2m, pi)
                shifted = self.mul(cur, self.from_poly(pi_2m))
                num, den = shifted
                dbar = P.mod(B, den, pi)
                nbar = P.mod(B, num, pi)
                a_res = P.mod(B, P.mul(B, nbar, P.inv_mod(B, dbar, pi)), pi)
                h = P.pow_mod(B, a_res, (B.order ** P.deg(pi)) // 2, pi)
                pim = pi
                for _ in range(m - 1):
                    pim = P.mul(B, pim, pi)
                s = self._make(h, pim)
                cur = self.add(cur, self.add(self.mul(s, s), s))
                u_acc = self.add(u_acc, s)
        if P.deg(cur[1]) > 0:
            return False, None  # odd pole left no reduction possible
        # polynomial part
        poly = P.scale(B, B.inv(cur[1][0]), cur[0]) if cur[0] else ()
        while P.deg(poly) > 0:
            d = P.deg(poly)
            if d % 2 != 0:
                return False, None
            _, w = B.is_square(poly[-1])
            s = self.from_poly(P.monomial(B, w, d // 2))
            cur2 = self.add(self.from_poly(poly), self.add(self.mul(s, s), s))
            u_acc = self.add(u_acc, s)
            if P.deg(cur2[1]) > 0:
                return False, None  # cannot happen
            poly = P.scale(B, B.inv(cur2[1][0]), cur2[0]) if cur2[0] else ()
        c0 = poly[0] if poly else B.zero()
        ok, u0 = B.artin_schreier_solve(c0)
        if not ok:
            return False, None
        return True, self.add(u_acc, self.from_base(u0))

    def parse(self, s):
        s = s.strip()
        num_s, den_s = _split_fraction(s)
        num = self._poly_from_string(num_s)
        den = self._poly_from_string(den_s) if den_s is not None else (self.base.one(),)
        return self._make(num, den)

    def _poly_from_string(self, s):
        s = s.strip()
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1]
        coeffs = _parse_int_poly(s, self.var)
        out = [self.base.zero()] * (max(coeffs, default=0) + 1)
        for e, c in coeffs.items():
            out[e] = self.base.from_int(c)
        return P.normalize(self.base, out)

    def fmt(self, a):
        num = self._fmt_poly(a[0])
        if P.deg(a[1]) == 0 and self.base.is_one(a[1][0]):
            return num
        return "(%s)/(%s)" % (num, self._fmt_poly(a[1]))

    def _fmt_poly(self, p):
        if not p:
            return "0"
        B = self.base
        terms = []
        for e in range(len(p) - 1, -1, -1):
            c = p[e]
            if B.is_zero(c):
                continue
            cs = B.fmt(c)
            if e == 0:
                terms.append(cs)
            else:
                v = self.var if e == 1 else "%s^%d" % (self.var, e)
                terms.append(v if B.is_one(c) else "%s*%s" % (cs, v))
        return "+".join(terms)

    def random_element(self, rng, bound=3):
        B = self.base
        num = P.normalize(B, [B.random_element(rng) for _ in range(rng.randint(1, bound + 1))])
        den = ()
        while not den:
            den = P.normalize(B, [B.random_element(rng) for _ in range(rng.randint(1, bound + 1))])
        return self._make(num, den)

    def random_poly_element(self, rng, bound=3):
        B = self.base
        num = P.normalize(B, [B.random_element(rng) for _ in range(rng.randint(1, bound + 1))])
        return self.from_poly(num)

    def descriptor_json(self):
        return {"kind": self.kind, "p": self.base.p, "k": self.base.k, "var": self.var}

    def _key(self):
        return (self.kind, self.base._key(), self.var)


def _split_fraction(s):
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            return s[:i], s[i + 1:]
    return s, None


class LaurentField(FunctionField):
    """GF(p^k)((t)) represented by rational-function data with valuation
    access.  Squareness and Artin-Schreier solvability are decided in the
    complete field; witnesses are returned only when they are themselves
    rational functions.
    """

    kind = "Laurent"

    def __init__(self, base, var="t"):
        super().__init__(base, var)
        self.name = "%s((%s))" % (base.name, var)

    def is_square(self, c):
        if self.char == 2:
            # squares of GF(q)((t)) are exactly GF(q)((t^2)); for rational c
            # this holds iff num*den has only even exponents, and then the
            # square root is rational too, so F_q(t)'s test decides
            return FunctionField.is_square(self, c)
        if not c[0]:
            return True, self.zero()
        v = self.valuation(c)
        if v % 2 != 0:
            return False, None
        ok, _ = self.base.is_square(self.residue_at_zero(c))
        if not ok:
            return False, None
        _, w = FunctionField.is_square(self, c)
        return True, w  # w may be None: square in the complete field only

    def artin_schreier_solve(self, c):
        if self.char != 2:
            raise FieldError("Artin-Schreier solve requires characteristic 2")
        B = self.base
        u_acc = self.zero()
        cur = c
        while not self.is_zero(cur) and self.valuation(cur) < 0:
            v = self.valuation(cur)
            if v % 2 != 0:
                return False, None
            m = -v // 2
            a0 = self.residue_at_zero(cur)
            _, h = B.is_square(a0)
            s = self._make(P.constant(B, h), P.monomial(B, B.one(), m))
            cur = self.add(cur, self.add(self.mul(s, s), s))
            u_acc = self.add(u_acc, s)
        c0 = B.zero() if self.is_zero(cur) else (
            self.residue_at_zero(cur) if self.valuation(cur) == 0 else B.zero())
        ok, u0 = B.artin_schreier_solve(c0)
        if not ok:
            return False, None
        # residual solvable in the complete field; witness is rational only
        # when the residual is an exact constant
        residual = self.sub(cur, self.from_base(c0))
        if self.is_zero(residual):
            return True, self.add(u_acc, self.from_base(u0))
        return True, None

    def descriptor_json(self):
        return {"kind": "Laurent", "p": self.base.p, "k": self.base.k, "var": self.var}


def t_adic_valuation(F, c):
    """Exact t-adic valuation for function-field and Laurent elements."""
    if not isinstance(F, FunctionField):
        raise FieldError("t-adic valuation needs a RatFunc or Laurent field")
    return F.valuation(c)


def field_from_json(d):
    kind = d["kind"]
    if kind == "Q":
        return Rationals()
    if kind == "GF":
        return FiniteField(d["p"], d.get("k", 1))
    if kind == "RatFunc":
        return FunctionField(FiniteField(d["p"], d.get("k", 1)), d.get("var", "t"))
    if kind == "Laurent":
        return LaurentField(FiniteField(d["p"], d.get("k", 1)), d.get("var", "t"))
    raise FieldError("unknown field kind %r" % kind)
