"""Hilbert symbols and local-global isotropy decisions.

Places over Q are primes or the real place; over GF(q)(t) they are monic
irreducible polynomials or the degree (1/t) place.  No completion is ever
materialized: every local computation is a valuation formula on the global
data.  Diagonal forms are passed around as coefficient lists.
"""

from __future__ import annotations

from fractions import Fraction

from . import polynomials as P
from .fields import FieldError, FunctionField, LaurentField, Rationals


class Place:
    """A place of Q or of GF(q)(t)."""

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
# integer helpers for Q


def _factor_int(n):
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _vp(x: Fraction, p: int) -> int:
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _unit_mod(x: Fraction, p: int, modulus: int) -> int:
    """The p-unit part of x reduced mod `modulus` (a power of p times stuff)."""
    v = _vp(x, p)
    n, d = x.numerator, x.denominator
    for _ in range(max(v, 0)):
        n //= p
    for _ in range(max(-v, 0)):
        d //= p
    return n * pow(d, -1, modulus) % modulus


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("Legendre of 0")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# ----------------------------------------------------------------------
# function-field helpers (q odd unless stated)


def _poly_val(F, a, pi):
    """pi-adic valuation of a rational function a = (num, den)."""
    B = F.base

    def v(q):
        n = 0
        while q and P.is_zero(P.mod(B, q, pi)):
            q = P.divmod_(B, q, pi)[0]
            n += 1
        return n

    return v(a[0]) - v(a[1])


def _poly_unit_residue(F, a, pi):
    """Residue in GF(q)[t]/(pi) of the pi-unit part of a."""
    B = F.base
    v = _poly_val(F, a, pi)
    num, den = a

    def strip(q, k):
        for _ in range(k):
            q = P.divmod_(B, q, pi)[0]
        return q

    vn = max(v, 0)
    num = strip(num, vn) if vn else num
    den = strip(den, -v) if v < 0 else den
    nbar, dbar = P.mod(B, num, pi), P.mod(B, den, pi)
    from .fields import _residue_div

    return _residue_div(B, nbar, dbar, pi)


def _residue_is_square(F, r, pi):
    """Is r a square in the residue field GF(q)[t]/(pi)?"""
    B = F.base
    if P.is_zero(r):
        return True
    order = B.order ** P.deg(pi)
    power = P.pow_mod(B, r, (order - 1) // 2, pi)
    return power == (B.one(),)


def _deg_val(F, a):
    """Valuation at the degree place (uniformizer 1/t)."""
    return P.deg(a[1]) - P.deg(a[0])


def _deg_unit_residue(F, a):
    """Residue in GF(q) of the unit part at the degree place."""
    B = F.base
    return B.div(a[0][-1], a[1][-1])


# ----------------------------------------------------------------------
# Hilbert symbols


def hilbert_symbol(F, a, b, place: Place) -> int:
    """(a, b)_v in {1, -1}."""
    if F.is_zero(a) or F.is_zero(b):
        raise FieldError("Hilbert symbol needs nonzero arguments")
    if isinstance(F, Rationals):
        return _hilbert_q(a, b, place)
    if isinstance(F, FunctionField) and not isinstance(F, LaurentField):
        if F.char == 2:
            raise FieldError("characteristic-2 function fields are not supported")
        return _hilbert_fqt(F, a, b, place)
    if isinstance(F, LaurentField):
        if F.char == 2:
            raise FieldError("characteristic-2 Laurent symbols are not supported")
        return _hilbert_laurent(F, a, b)
    raise FieldError("no Hilbert symbol over %s" % F.name)


def _hilbert_q(a, b, place):
    if place.kind == "real":
        return -1 if a < 0 and b < 0 else 1
    p = place.data
    alpha, beta = _vp(a, p), _vp(b, p)
    if p != 2:
        u, v = _unit_mod(a, p, p), _unit_mod(b, p, p)
        s = 1
        if alpha % 2 and beta % 2:
            s *= _legendre(-1, p)
        if beta % 2:
            s *= _legendre(u, p)
        if alpha % 2:
            s *= _legendre(v, p)
        return s
    u, v = _unit_mod(a, 2, 8), _unit_mod(b, 2, 8)
    eps_u, eps_v = (u - 1) // 2 % 2, (v - 1) // 2 % 2
    om_u, om_v = (u * u - 1) // 8 % 2, (v * v - 1) // 8 % 2
    e = eps_u * eps_v + alpha * om_v + beta * om_u
    return -1 if e % 2 else 1


def _hilbert_fqt(F, a, b, place):
    B = F.base
    if place.kind == "deg":
        alpha, beta = _deg_val(F, a), _deg_val(F, b)
        u, v = _deg_unit_residue(F, a), _deg_unit_residue(F, b)
        c = B.one()
        if alpha % 2 and beta % 2:
            c = B.mul(c, B.neg(B.one()))
        if beta % 2:
            c = B.mul(c, u)
        if alpha % 2:
            c = B.mul(c, v)
        return 1 if B.pow_(c, (B.order - 1) // 2) == B.one() else -1
    pi = place.data
    alpha, beta = _poly_val(F, a, pi), _poly_val(F, b, pi)
    u, v = _poly_unit_residue(F, a, pi), _poly_unit_residue(F, b, pi)
    # ((-1)^(alpha beta) u^beta v^(-alpha)) as residue, then the square test
    c = (B.one(),)
    if alpha % 2 and beta % 2:
        c = P.neg(B, c)
    if beta % 2:
        c = P.mod(B, P.mul(B, c, u), pi)
    if alpha % 2:
        c = P.mod(B, P.mul(B, c, v), pi)
    return 1 if _residue_is_square(F, c, pi) else -1


def _hilbert_laurent(L, a, b):
    B = L.base
    alpha, beta = L.valuation(a), L.valuation(b)
    u, v = L.residue_at_zero(a), L.residue_at_zero(b)
    c = B.one()
    if alpha % 2 and beta % 2:
        c = B.mul(c, B.neg(B.one()))
    if beta % 2:
        c = B.mul(c, u)
    if alpha % 2:
        c = B.mul(c, v)
    return 1 if B.is_square(c)[0] else -1


# ----------------------------------------------------------------------
# local squares and local isotropy (nondyadic formulas + Q_2 + R)


def is_local_square(F, a, place: Place) -> bool:
    if isinstance(F, Rationals):
        if place.kind == "real":
            return a > 0
        p = place.data
        if _vp(a, p) % 2:
            return False
        if p != 2:
            return _legendre(_unit_mod(a, p, p), p) == 1
        return _unit_mod(a, 2, 8) == 1
    if place.kind == "deg":
        if _deg_val(F, a) % 2:
            return False
        return F.base.is_square(_deg_unit_residue(F, a))[0]
    pi = place.data
    if _poly_val(F, a, pi) % 2:
        return False
    return _residue_is_square(F, _poly_unit_residue(F, a, pi), pi)


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
    nontrivial, plus the real / degree place."""
    if isinstance(F, Rationals):
        primes = {2}
        for a in diag:
            primes.update(_factor_int(a.numerator))
            primes.update(_factor_int(a.denominator))
        places = [Place.prime(p) for p in sorted(primes)]
        places.append(Place.real())
        return places
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
    """Hasse-Minkowski decision over Q or GF(q)(t), q odd, char != 2."""
    if isinstance(F, FunctionField):
        if F.char == 2:
            raise FieldError("characteristic-2 function fields are not supported")
        if isinstance(F, LaurentField):
            raise FieldError("use the Springer decision for Laurent fields")
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
# Springer residue recursion over GF(q)((t))


def springer_isotropic_local(L, diag) -> bool:
    """Isotropy of a diagonal form over GF(q)((t)), q odd, via the two
    residue forms of the even- and odd-valuation parts."""
    if L.char == 2:
        raise FieldError("use char2_laurent_isotropic for characteristic 2")
    B = L.base
    unit_res, odd_res = [], []
    for a in diag:
        if L.is_zero(a):
            raise FieldError("singular diagonal form")
        v = L.valuation(a)
        r = L.residue_at_zero(a)
        (unit_res if v % 2 == 0 else odd_res).append(r)
    return _finite_diag_isotropic(B, unit_res) or _finite_diag_isotropic(B, odd_res)


def _finite_diag_isotropic(B, diag):
    n = len(diag)
    if n <= 1:
        return False
    if n == 2:
        return B.is_square(B.neg(B.mul(diag[0], diag[1])))[0]
    return True  # Chevalley: >= 3 variables over a finite field


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
    import itertools

    (a, b), = blocks
    for u, v in itertools.product(list(B.elements()), repeat=2):
        if B.is_zero(u) and B.is_zero(v):
            continue
        value = B.add(B.add(B.mul(a, B.mul(u, u)), B.mul(u, v)), B.mul(b, B.mul(v, v)))
        if B.is_zero(value):
            return True
    return False
