"""Dense univariate polynomial arithmetic over an exact coefficient field.

Polynomials are immutable tuples of field payloads in little-endian order
(coefficient of X^i at index i), normalized so the last entry is nonzero.
The empty tuple () is the zero polynomial.  All functions take the
coefficient field as first argument and never mutate their inputs.

Over a prime field GF(p), whose payloads are ints in [0, p), ``normalize``,
``add``, ``neg``, ``mul``, ``scale`` and ``divmod_`` work on the ints
directly and reduce each output coefficient once with ``% p``; every other
routine reaches that kernel through them.  Other coefficient fields go
through the field's methods, one call per coefficient operation.  The
kernel builds its tuples from lists: ``tuple()`` of a generator starts
from a guessed size and resizes, and built that way the kernel's tuples
raised the peak memory of an F_3(t) Clifford computation by a fifth.
"""

from __future__ import annotations

import itertools


def _prime(F):
    """p when F is the prime field GF(p), else None."""
    return F.p if F.kind == "GF" and F.k == 1 else None


def _strip(cs):
    """Drop trailing zero ints of the list cs and return it as a tuple."""
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def normalize(F, coeffs):
    cs = list(coeffs)
    if _prime(F):
        return _strip(cs)
    while cs and F.is_zero(cs[-1]):
        cs.pop()
    return tuple(cs)


def deg(p):
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def is_zero(p):
    return not p


def constant(F, c):
    return () if F.is_zero(c) else (c,)


def monomial(F, c, n):
    if F.is_zero(c):
        return ()
    return (F.zero(),) * n + (c,)


def add(F, p, q):
    if len(p) < len(q):
        p, q = q, p
    m = _prime(F)
    if m:
        out = [(a + b) % m for a, b in zip(p, q)]
        out.extend(p[len(q):])
        return _strip(out)
    out = list(p)
    for i, c in enumerate(q):
        out[i] = F.add(out[i], c)
    return normalize(F, out)


def neg(F, p):
    m = _prime(F)
    if m:
        return tuple([-c % m for c in p])
    return tuple(F.neg(c) for c in p)


def sub(F, p, q):
    return add(F, p, neg(F, q))


def mul(F, p, q):
    if not p or not q:
        return ()
    m = _prime(F)
    if m:
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(q, i):
                    out[j] += a * b
        return _strip([c % m for c in out])
    out = [F.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if F.is_zero(a):
            continue
        for j, b in enumerate(q):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return normalize(F, out)


def scale(F, c, p):
    m = _prime(F)
    if m:
        return _strip([c * a % m for a in p]) if c else ()
    if F.is_zero(c):
        return ()
    return normalize(F, [F.mul(c, a) for a in p])


def divmod_(F, p, q):
    """Quotient and remainder; q must be nonzero."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = deg(q)
    m = _prime(F)
    if m:
        # rem holds unreduced ints; a coefficient is reduced when it becomes
        # the next leading term, and the remainder once at the end
        lead_inv = pow(q[-1], m - 2, m)
        quot = [0] * max(0, len(p) - dq)
        for i in range(len(p) - 1, dq - 1, -1):
            c = rem[i] % m * lead_inv % m
            if c:
                quot[i - dq] = c
                for j in range(dq):
                    rem[i - dq + j] -= c * q[j]
        return _strip(quot), _strip([c % m for c in rem[:dq]])
    lead_inv = F.inv(q[-1])
    quot = [F.zero()] * max(0, len(p) - dq)
    for i in range(len(p) - 1, dq - 1, -1):
        if F.is_zero(rem[i]):
            continue
        c = F.mul(rem[i], lead_inv)
        quot[i - dq] = c
        for j in range(dq + 1):
            rem[i - dq + j] = F.sub(rem[i - dq + j], F.mul(c, q[j]))
    return normalize(F, quot), normalize(F, rem)


def mod(F, p, q):
    return divmod_(F, p, q)[1]


def gcd(F, p, q):
    while q:
        p, q = q, mod(F, p, q)
    return monic(F, p)


def monic(F, p):
    if not p or F.eq(p[-1], F.one()):
        return p
    return scale(F, F.inv(p[-1]), p)


def evaluate(F, p, x):
    acc = F.zero()
    for c in reversed(p):
        acc = F.add(F.mul(acc, x), c)
    return acc


def inv_mod(F, a, m):
    """Inverse of a modulo m by extended Euclid; a is reduced, nonzero and
    prime to m."""
    r0, r1 = m, a
    s0, s1 = (), (F.one(),)
    while deg(r1) > 0:
        q, r = divmod_(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(F, s0, mul(F, q, s1))
    return scale(F, F.inv(r1[0]), s1)


def split_at(F, p, pi):
    """(v, r) with p = pi^v q, q prime to pi and r = q mod pi; p nonzero."""
    v = 0
    while True:
        quo, rem = divmod_(F, p, pi)
        if rem:
            return v, rem
        p, v = quo, v + 1


def pow_mod(F, p, n, m):
    """p^n mod m by square-and-multiply."""
    result = (F.one(),)
    base = mod(F, p, m)
    while n > 0:
        if n & 1:
            result = mod(F, mul(F, result, base), m)
        base = mod(F, mul(F, base, base), m)
        n >>= 1
    return result


def x_poly(F):
    return (F.zero(), F.one())


def shift(F, p, n):
    """Multiply by X^n (n >= 0) or divide exactly by X^-n (n < 0)."""
    if not p:
        return ()
    if n >= 0:
        return (F.zero(),) * n + p
    if any(not F.is_zero(c) for c in p[:-n]):
        raise ValueError("not divisible by X^%d" % (-n))
    return p[-n:]


def low_valuation(F, p):
    """Largest n with X^n dividing p; p must be nonzero."""
    for i, c in enumerate(p):
        if not F.is_zero(c):
            return i
    raise ValueError("zero polynomial")


def monic_polys(F, d):
    """All monic polynomials of degree exactly d over a finite field."""
    els = list(F.elements())
    for lower in itertools.product(els, repeat=d):
        yield normalize(F, lower + (F.one(),))


def is_irreducible(F, p):
    """Irreducibility over a finite field by trial division."""
    d = deg(p)
    if d <= 0:
        return False
    if d == 1:
        return True
    for e in range(1, d // 2 + 1):
        for q in monic_polys(F, e):
            if deg(q) >= 1 and is_zero(mod(F, p, q)):
                return False
    return True


def factor_monic(F, p):
    """Factor a nonzero polynomial over a finite field by trial division.

    Returns (lead_coeff, [(irreducible_monic, multiplicity), ...]).
    Fine for the small degrees that show up in place computations.
    """
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    lead = p[-1]
    p = monic(F, p)
    factors = []
    d = 1
    while deg(p) > 0:
        if d > deg(p) // 2:
            factors.append((p, 1))
            break
        found = False
        for q in monic_polys(F, d):
            if deg(q) < 1:
                continue
            if is_zero(mod(F, p, q)):
                mult = 0
                while is_zero(mod(F, p, q)):
                    p = divmod_(F, p, q)[0]
                    mult += 1
                factors.append((q, mult))
                found = True
                if deg(p) == 0:
                    break
        if not found:
            d += 1
    return lead, factors


def sqrt(F, p):
    """Exact square root of a polynomial, or None.

    Char != 2: leading-coefficient root plus top-down coefficient recovery.
    Char 2: termwise Frobenius inverse (only even exponents can appear).
    """
    if not p:
        return ()
    d = deg(p)
    if d % 2 != 0:
        return None
    if F.char == 2:
        out = [F.zero()] * (d // 2 + 1)
        for i, c in enumerate(p):
            if F.is_zero(c):
                continue
            if i % 2 != 0:
                return None
            ok, w = F.is_square(c)
            if not ok:
                return None
            out[i // 2] = w
        q = normalize(F, out)
        return q if mul(F, q, q) == p else None
    ok, lead_root = F.is_square(p[-1])
    if not ok:
        return None
    h = d // 2
    q = [F.zero()] * (h + 1)
    q[h] = lead_root
    two = F.add(F.one(), F.one())
    inv_2lead = F.inv(F.mul(two, lead_root))
    # coefficient of X^(h+i) in q^2 must match p for i = h-1 .. 0
    for i in range(h - 1, -1, -1):
        s = F.zero()
        for j in range(i + 1, h):
            if i + h - j <= h:
                s = F.add(s, F.mul(q[j], q[i + h - j]))
        target = p[i + h] if i + h < len(p) else F.zero()
        q[i] = F.mul(F.sub(target, s), inv_2lead)
    q = normalize(F, q)
    return q if mul(F, q, q) == p else None
