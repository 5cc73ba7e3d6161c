"""Field and polynomial arithmetic of the benchmark's own.

The checkers recompute every claim with these routines, so nothing here
imports quatalg.  Element representations:

* GF(p): int in range(p);
* GF(p^k), k >= 2: tuple of k ints, power-basis coordinates of ``w``
  modulo the lexicographically least monic irreducible of degree k (the
  convention quatalg documents for its field descriptors);
* Q: fractions.Fraction;
* GF(p)[t]: list of ints, lowest degree first, no trailing zeros.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction


# -- GF(p)[t] ----------------------------------------------------------------


def pnorm(a, p):
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a, b, p):
    n = max(len(a), len(b))
    return pnorm([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)], p)


def pneg(a, p):
    return [(-c) % p for c in a]


def pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return pnorm(out, p)


def pscale(c, a, p):
    return pnorm([c * x for x in a], p)


def pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        q[shift] = c
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
        a = pnorm(a, p)
    return pnorm(q, p), a


def pmod(a, b, p):
    return pdivmod(a, b, p)[1]


def pmonic(a, p):
    return pscale(pow(a[-1], p - 2, p), a, p) if a else []


def ppowmod(a, n, m, p):
    result, base = [1], pmod(a, m, p)
    while n:
        if n & 1:
            result = pmod(pmul(result, base, p), m, p)
        base = pmod(pmul(base, base, p), m, p)
        n >>= 1
    return result


def monic_polys(p, d):
    for tail in itertools.product(range(p), repeat=d):
        yield list(tail) + [1]


def pis_irreducible(a, p):
    d = len(a) - 1
    if d <= 0:
        return False
    for e in range(1, d // 2 + 1):
        for g in monic_polys(p, e):
            if not pmod(a, g, p):
                return False
    return True


def pfactor(a, p):
    """Monic irreducible factors of a nonzero polynomial with
    multiplicities, by trial division (inputs here have degree <= 8)."""
    a = pmonic(a, p)
    out = []
    d = 1
    while len(a) > 1:
        if 2 * d > len(a) - 1:
            out.append((a, 1))
            break
        for g in monic_polys(p, d):
            e = 0
            while True:
                q, r = pdivmod(a, g, p)
                if r:
                    break
                a, e = q, e + 1
            if e:
                out.append((g, e))
        d += 1
    return out


def pval(a, pi, p):
    """pi-adic valuation of a nonzero polynomial and its pi-free part."""
    v = 0
    while True:
        q, r = pdivmod(a, pi, p)
        if r:
            return v, a
        a, v = q, v + 1


# -- finite fields -------------------------------------------------------------


def least_irreducible(p, k):
    for lower in itertools.product(range(p), repeat=k):
        if pis_irreducible(list(lower) + [1], p):
            return list(lower) + [1]
    raise ValueError("no irreducible of degree %d over GF(%d)" % (k, p))


class GF:
    """GF(p^k).  Elements are ints for k = 1 and k-tuples otherwise."""

    def __init__(self, p, k=1):
        self.p, self.k, self.q = p, k, p ** k
        self.modulus = least_irreducible(p, k) if k > 1 else None

    def zero(self):
        return 0 if self.k == 1 else (0,) * self.k

    def one(self):
        return 1 if self.k == 1 else (1,) + (0,) * (self.k - 1)

    def _pad(self, poly):
        return tuple(poly) + (0,) * (self.k - len(poly))

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        return tuple((-x) % self.p for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.k == 1:
            return a * b % self.p
        prod = pmul(pnorm(list(a), self.p), pnorm(list(b), self.p), self.p)
        return self._pad(pmod(prod, self.modulus, self.p))

    def is_zero(self, a):
        return a == self.zero()

    def elements(self):
        if self.k == 1:
            return list(range(self.p))
        return [tuple(c) for c in itertools.product(range(self.p),
                                                     repeat=self.k)]

    def is_square(self, a):
        return any(self.mul(x, x) == a for x in self.elements())

    def parse(self, s):
        coeffs = parse_int_poly(s, "w")
        if self.k == 1:
            if set(coeffs) - {0}:
                raise ValueError("unexpected variable in %r" % s)
            return coeffs.get(0, 0) % self.p
        out = [0] * self.k
        for e, c in coeffs.items():
            if e >= self.k:
                raise ValueError("degree too large in %r" % s)
            out[e] = c % self.p
        return tuple(out)

    def fmt(self, a):
        if self.k == 1:
            return str(a)
        terms = []
        for e in range(self.k - 1, -1, -1):
            c = a[e]
            if c == 0:
                continue
            if e == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else "%d*" % c
                terms.append(head + ("w" if e == 1 else "w^%d" % e))
        return "+".join(terms) if terms else "0"


class QQ:
    """The rationals with the GF interface used by the checkers."""

    p = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def parse(self, s):
        return Fraction(s.strip())

    def fmt(self, a):
        return str(a)


def field_of(desc):
    """A checker field for a quatalg field descriptor."""
    if desc["kind"] == "Q":
        return QQ()
    if desc["kind"] == "GF":
        return GF(desc["p"], desc.get("k", 1))
    raise ValueError("no checker field for %r" % desc)


_TERM = re.compile(r"^([+-]?\d*)\*?([A-Za-z])?(?:\^(\d+))?$")


def parse_int_poly(s, var):
    s = s.replace(" ", "")
    coeffs = {}
    for term in re.findall(r"[+-]?[^+-]+", s):
        m = _TERM.match(term)
        if not m or (m.group(2) and m.group(2) != var):
            raise ValueError("cannot parse %r" % s)
        cs, v, es = m.groups()
        c = 1 if cs in ("", "+") else -1 if cs == "-" else int(cs)
        e = 0 if v is None else int(es or 1)
        coeffs[e] = coeffs.get(e, 0) + c
    return coeffs
