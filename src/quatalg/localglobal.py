"""Hilbert symbols and local-global isotropy decisions.

Places over Q are primes or the real place; over GF(q)(t) they are monic
irreducible polynomials or the degree (1/t) place.  GF(q)((t)) is the
completion of GF(q)(t) at t, so its one place is the polynomial place t.
No completion is ever materialized: every local computation is a valuation
formula on the global data, and at every odd place the same tame formula.
Diagonal forms are passed around as coefficient lists.
"""

from __future__ import annotations

import itertools
import math

from . import polynomials as P
from .fields import FieldError, FunctionField, LaurentField, Rationals


class Place:
    """A place of Q or of GF(q)(t) (and t, that of GF(q)((t)))."""

    __slots__ = ("kind", "data")

    def __init__(self, kind, data=None):
        # kind in {"prime", "real", "poly", "deg"}
        self.kind = kind
        self.data = data

    @classmethod
    def prime(cls, p):
        return cls("prime", p)

    @classmethod
    def real(cls):
        return cls("real")

    @classmethod
    def poly(cls, pi):
        return cls("poly", pi)

    @classmethod
    def degree(cls):
        return cls("deg")

    def __eq__(self, other):
        return isinstance(other, Place) and (self.kind, self.data) == (other.kind, other.data)

    def __hash__(self):
        return hash((self.kind, self.data))

    def __repr__(self):
        if self.kind == "prime":
            return "Place(p=%d)" % self.data
        if self.kind == "real":
            return "Place(real)"
        if self.kind == "deg":
            return "Place(deg)"
        return "Place(pi=%r)" % (self.data,)

    def to_json(self, F=None):
        if self.kind == "prime":
            return {"prime": str(self.data)}
        if self.kind == "real":
            return {"real": True}
        if self.kind == "deg":
            return {"deg": True}
        return {"poly": F._fmt_poly(self.data) if F else list(self.data)}

    @classmethod
    def from_json(cls, d, F=None):
        if "prime" in d:
            return cls.prime(int(d["prime"]))
        if d.get("real"):
            return cls.real()
        if d.get("deg"):
            return cls.degree()
        s = d["poly"]
        if F is None:
            raise FieldError("polynomial place needs a function field")
        return cls.poly(F._poly_from_string(s) if isinstance(s, str) else tuple(s))


# ----------------------------------------------------------------------
# integer factoring for the places of Q

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _factor_int(n):
    """{p: e} for |n|: trial division by d < 1000, then Miller-Rabin and
    Pollard-Brent rho on the cofactor."""
    n = abs(n)
    out = {}
    d = 2
    while d < 1000 and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho(m)
            stack += [f, m // f]
    return out


def _is_prime(n):
    """Miller-Rabin to the prime bases up to 41: a proof below 3.3e24, a
    strong probable-prime test above."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n):
    """A proper factor of an odd composite n without small factors
    (Pollard rho with Brent's cycle finding, gcds batched by 128)."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


# ----------------------------------------------------------------------
# the tame symbol at odd places


def _split(F, a, place):
    """(v, r) with a = pi^v n/d at a finite place, n and d prime to the
    uniformizer pi, and r = n*d mod pi, the class of the unit n/d up to
    squares (no modular inverse).  At p = 2 over Q, r = n*d mod 8 is the
    unit mod 8."""
    if isinstance(F, Rationals):
        p, n, d, v = place.data, a.numerator, a.denominator, 0
        while n % p == 0:
            n, v = n // p, v + 1
        while d % p == 0:
            d, v = d // p, v - 1
        return v, n * d % (8 if p == 2 else p)
    if isinstance(F, LaurentField) and place != _t_place(F):
        raise FieldError("the only place of %s is t" % F.name)
    (num, den), B = a, F.base
    if place.kind == "deg":  # uniformizer 1/t: residues of leading terms
        return P.deg(den) - P.deg(num), (B.mul(num[-1], den[-1]),)
    vn, rn = P.split_at(B, num, place.data)
    vd, rd = P.split_at(B, den, place.data)
    return vn - vd, P.mod(B, P.mul(B, rn, rd), place.data)


def _t_place(F):
    return Place.poly(P.x_poly(F.base))


def _chi(F, place, rs, negate=False):
    """chi((-1)^negate * prod(rs)) in {1, -1}, for the quadratic character
    chi of the residue field at an odd place and a nonempty list rs of
    residues from `_split` (at the degree place, constants taken mod t)."""
    if isinstance(F, Rationals):
        pi = order = place.data
    else:
        pi = P.x_poly(F.base) if place.kind == "deg" else place.data
        order = F.base.order ** P.deg(pi)
    s = -1 if negate and order % 4 == 3 else 1  # chi(-1) = (-1)^((order-1)/2)
    if isinstance(F, Rationals):
        return s if pow(math.prod(rs) % pi, (order - 1) // 2, pi) == 1 else -s
    B, r = F.base, rs[0]
    for x in rs[1:]:
        r = P.mod(B, P.mul(B, r, x), pi)
    return s if P.pow_mod(B, r, (order - 1) // 2, pi) == (B.one(),) else -s


def hilbert_symbol(F, a, b, place: Place) -> int:
    """(a, b)_v in {1, -1}.  At an odd place, with a = pi^alpha u and
    b = pi^beta w, it is chi(-1)^(alpha beta) chi(u)^beta chi(w)^alpha
    (Serre, A Course in Arithmetic, III.1.2)."""
    if F.is_zero(a) or F.is_zero(b):
        raise FieldError("Hilbert symbol needs nonzero arguments")
    if not isinstance(F, (Rationals, FunctionField)):
        raise FieldError("no Hilbert symbol over %s" % F.name)
    if F.char == 2:
        raise FieldError("characteristic-2 function fields are not supported")
    if place.kind == "real":
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _split(F, a, place)
    beta, w = _split(F, b, place)
    if place == Place.prime(2):
        eps_u, eps_w = (u - 1) // 2 % 2, (w - 1) // 2 % 2
        om_u, om_w = (u * u - 1) // 8 % 2, (w * w - 1) // 8 % 2
        e = eps_u * eps_w + alpha * om_w + beta * om_u
        return -1 if e % 2 else 1
    rs = [u] * (beta % 2) + [w] * (alpha % 2)
    return _chi(F, place, rs, alpha * beta % 2) if rs else 1


# ----------------------------------------------------------------------
# local squares and local isotropy (odd places, Q_2 and R)


def is_local_square(F, a, place: Place) -> bool:
    if F.is_zero(a):
        return True
    if place.kind == "real":
        return a > 0
    v, u = _split(F, a, place)
    if v % 2:
        return False
    return u == 1 if place == Place.prime(2) else _chi(F, place, [u]) == 1


def hasse_invariant(F, diag, place: Place) -> int:
    s = 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            s *= hilbert_symbol(F, diag[i], diag[j], place)
    return s


def is_isotropic_local(F, diag, place: Place) -> bool:
    n = len(diag)
    rationals = isinstance(F, Rationals)
    if rationals and place.kind == "real":
        return any(a > 0 for a in diag) and any(a < 0 for a in diag)
    if n <= 1:
        return False
    if n == 2:
        return is_local_square(F, F.neg(F.mul(diag[0], diag[1])), place)
    if n == 3:
        m = F.neg(F.mul(diag[0], diag[1]))
        c = F.neg(F.mul(diag[0], diag[2]))
        return hilbert_symbol(F, m, c, place) == 1
    if n == 4:
        d = diag[0]
        for a in diag[1:]:
            d = F.mul(d, a)
        if not is_local_square(F, d, place):
            return True
        minus_one = F.neg(F.one())
        return hasse_invariant(F, diag, place) == hilbert_symbol(F, minus_one, minus_one, place)
    # n >= 5: every form is isotropic over a nondyadic local field and Q_2
    return True


def bad_places(F, diag):
    """A finite over-approximation of the places where local data can be
    nontrivial, plus the real / degree place; over GF(q)((t)), the place t."""
    if isinstance(F, Rationals):
        primes = {2}
        for a in diag:
            primes.update(_factor_int(a.numerator))
            primes.update(_factor_int(a.denominator))
        places = [Place.prime(p) for p in sorted(primes)]
        places.append(Place.real())
        return places
    if isinstance(F, LaurentField):
        return [_t_place(F)]
    B = F.base
    polys = set()
    for a in diag:
        for part in (a[0], a[1]):
            if P.deg(part) > 0:
                _, factors = P.factor_monic(B, part)
                polys.update(pi for pi, _ in factors)
    places = [Place.poly(pi) for pi in sorted(polys)]
    places.append(Place.degree())
    return places


def is_isotropic_global(F, diag) -> bool:
    """Hasse-Minkowski over Q or GF(q)(t), and the local decision at t over
    GF(q)((t)); q odd."""
    if isinstance(F, FunctionField):
        if F.char == 2:
            raise FieldError("characteristic-2 function fields are not supported")
    elif not isinstance(F, Rationals):
        raise FieldError("unsupported field %s" % F.name)
    if any(F.is_zero(a) for a in diag):
        raise FieldError("singular diagonal form")
    n = len(diag)
    if n <= 1:
        return False
    if n == 2:
        return F.is_square(F.neg(F.mul(diag[0], diag[1])))[0]
    if n >= 5:
        if isinstance(F, Rationals):
            return is_isotropic_local(F, diag, Place.real())
        return True
    return all(is_isotropic_local(F, diag, v) for v in bad_places(F, diag))


# ----------------------------------------------------------------------
# characteristic 2: residue forms over GF(2^k)((t))


def char2_laurent_isotropic(L, pairs):
    """Three-valued isotropy over GF(2^k)((t)) for [a,b]-block forms.

    Returns True / False / None (unknown).  Supported inputs are those
    whose blocks normalize to unit or t-shifted integral blocks; the
    decision then reduces to the two residue forms over GF(2^k).
    """
    B = L.base
    unit_blocks, odd_blocks = [], []
    for a, b in pairs:
        if L.is_zero(a) or L.is_zero(b):
            # f(1,0) = a or f(0,1) = b vanishes
            return True
        va = L.valuation(a)
        # [a, b] ~ [a t^(-2s), b t^(2s)]: shift v(a) into {0, 1}
        s = va // 2 if va >= 0 else -((-va + 1) // 2)
        t2s = L.pow_(L.t(), 2 * s)
        a = L.div(a, t2s)
        b = L.mul(b, t2s)
        va = L.valuation(a)
        vb = L.valuation(b)
        if va == 0 and vb >= 0:
            unit_blocks.append((L.residue_at_zero(a) if va == 0 else B.zero(),
                                L.residue_at_zero(b) if vb == 0 else B.zero()))
        elif va == 1 and vb >= -1:
            a1, b1 = L.div(a, L.t()), L.mul(b, L.t())
            unit = (L.residue_at_zero(a1),
                    L.residue_at_zero(b1) if not L.is_zero(b1) and L.valuation(b1) == 0 else B.zero())
            odd_blocks.append(unit)
        else:
            return None
    if _char2_finite_blocks_isotropic(B, unit_blocks) or \
            _char2_finite_blocks_isotropic(B, odd_blocks):
        return True
    return False


def _char2_finite_blocks_isotropic(B, blocks):
    if not blocks:
        return False
    if len(blocks) > 1:
        # dim >= 4 nonsingular over a finite field is always isotropic
        return True
    (a, b), = blocks
    for u, v in itertools.product(list(B.elements()), repeat=2):
        if B.is_zero(u) and B.is_zero(v):
            continue
        value = B.add(B.add(B.mul(a, B.mul(u, u)), B.mul(u, v)), B.mul(b, B.mul(v, v)))
        if B.is_zero(value):
            return True
    return False
