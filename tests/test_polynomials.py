"""GF(p)[t] arithmetic against sympy's galoistools, and the canonical form
of F_q(t) and F_q((t)) payloads after every field operation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatalg import polynomials as P
from quatalg.fields import FiniteField, FunctionField, LaurentField

PRIMES = [2, 3, 5, 7]


@pytest.fixture(scope="module")
def gf():
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    return galoistools, ZZ


def _to_gf(p):
    """Little-endian tuple -> sympy's big-endian coefficient list."""
    return list(reversed(p))


def _from_gf(f):
    return tuple(int(c) for c in reversed(f))


@st.composite
def prime_and_polys(draw, count, nonzero=()):
    """A prime from PRIMES and ``count`` polynomials over GF(p); the ones
    whose index is in ``nonzero`` have positive degree."""
    p = draw(st.sampled_from(PRIMES))
    F = FiniteField(p)
    out = []
    for i in range(count):
        lo = 2 if i in nonzero else 0
        cs = draw(st.lists(st.integers(0, p - 1), min_size=lo, max_size=9))
        poly = P.normalize(F, cs)
        if i in nonzero and P.deg(poly) < 1:
            poly = tuple(cs[:-1]) + (1,)
        out.append(poly)
    return F, out


@settings(deadline=None)
@given(prime_and_polys(2))
def test_mul_matches_galoistools(gf, case):
    galoistools, ZZ = gf
    F, (a, b) = case
    want = galoistools.gf_mul(_to_gf(a), _to_gf(b), F.p, ZZ)
    assert P.mul(F, a, b) == _from_gf(want)


@settings(deadline=None)
@given(prime_and_polys(2, nonzero={1}))
def test_divmod_matches_galoistools(gf, case):
    galoistools, ZZ = gf
    F, (a, b) = case
    q, r = galoistools.gf_div(_to_gf(a), _to_gf(b), F.p, ZZ)
    assert P.divmod_(F, a, b) == (_from_gf(q), _from_gf(r))
    assert P.mod(F, a, b) == _from_gf(r)


@settings(deadline=None)
@given(prime_and_polys(2))
def test_gcd_matches_galoistools(gf, case):
    galoistools, ZZ = gf
    F, (a, b) = case
    want = galoistools.gf_gcd(_to_gf(a), _to_gf(b), F.p, ZZ)
    assert P.gcd(F, a, b) == _from_gf(want)


@settings(deadline=None)
@given(prime_and_polys(2, nonzero={1}))
def test_inv_mod_matches_galoistools(gf, case):
    galoistools, ZZ = gf
    F, (a, m) = case
    a = P.mod(F, a, m)
    if not a or P.deg(P.gcd(F, a, m)) > 0:
        return
    s, _, h = galoistools.gf_gcdex(_to_gf(a), _to_gf(m), F.p, ZZ)
    assert _from_gf(h) == (1,)
    assert P.inv_mod(F, a, m) == _from_gf(s)


FIELDS = [FunctionField(FiniteField(2)), FunctionField(FiniteField(3)),
          FunctionField(FiniteField(5)), FunctionField(FiniteField(3, 2)),
          LaurentField(FiniteField(3))]


def _coeff_ok(B, c):
    if B.k == 1:
        return isinstance(c, int) and 0 <= c < B.p
    return len(c) == B.k and all(isinstance(x, int) and 0 <= x < B.p
                                 for x in c)


def _assert_canonical(F, x):
    B = F.base
    num, den = x
    assert den and B.is_one(den[-1])
    assert not num or not B.is_zero(num[-1])
    assert all(_coeff_ok(B, c) for c in num + den)
    assert P.gcd(B, num, den) == (B.one(),)
    if not num:
        assert den == (B.one(),)


@st.composite
def field_elements(draw):
    """A field from FIELDS and two of its elements, each built as a
    quotient of polynomials that need not be reduced or monic; about half
    of them are polynomials."""
    F = draw(st.sampled_from(FIELDS))
    B = F.base
    els = list(B.elements())

    def poly(min_size):
        cs = draw(st.lists(st.integers(0, len(els) - 1), min_size=min_size,
                           max_size=5))
        return P.normalize(B, [els[i] for i in cs])

    def element():
        num = poly(0)
        den = poly(1) if draw(st.booleans()) else P.constant(B, els[1])
        if not den:
            den = (B.one(),)
        return F.div(F.from_poly(num), F.from_poly(den))

    return F, element(), element()


@settings(deadline=None)
@given(field_elements())
def test_field_ops_keep_payloads_canonical(case):
    F, a, b = case
    B = F.base
    _assert_canonical(F, a)
    _assert_canonical(F, b)
    s, d, m = F.add(a, b), F.sub(a, b), F.mul(a, b)
    for x in (s, d, m, F.neg(a)):
        _assert_canonical(F, x)
    # cross-multiplied: s = (na db + nb da) / (da db), m = na nb / (da db)
    dd = P.mul(B, a[1], b[1])
    cross = P.add(B, P.mul(B, a[0], b[1]), P.mul(B, b[0], a[1]))
    assert P.mul(B, s[0], dd) == P.mul(B, cross, s[1])
    assert P.mul(B, m[0], dd) == P.mul(B, P.mul(B, a[0], b[0]), m[1])
    assert F.add(d, b) == a
    if not F.is_zero(b):
        q, i = F.div(a, b), F.inv(b)
        _assert_canonical(F, q)
        _assert_canonical(F, i)
        assert F.mul(i, b) == F.one()
        assert F.mul(q, b) == a


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.name)
def test_from_poly_strips_trailing_zeros(F):
    # callers such as quaternions.ascending_elements pass coefficient
    # tuples straight from itertools.product
    z, o = F.base.zero(), F.base.one()
    assert F.from_poly((z,)) == F.zero()
    assert F.is_zero(F.from_poly((z, z)))
    assert F.from_poly((o, z)) == F.one()
    assert F.mul(F.from_poly((z, o, z)), F.t()) == F.from_poly((z, z, o))
