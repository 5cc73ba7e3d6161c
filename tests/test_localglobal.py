import functools
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatalg import forms
from quatalg import polynomials as P
from quatalg.fields import FieldError, FiniteField, FunctionField, LaurentField, Rationals
from quatalg.localglobal import (
    Place,
    bad_places,
    char2_laurent_isotropic,
    hilbert_symbol,
    is_isotropic_global,
    is_local_square,
)

Q = Rationals()
F3 = FiniteField(3)
F3t = FunctionField(F3)
L3 = LaurentField(F3)


def q(n, d=1):
    return Fraction(n, d)


def test_hilbert_q_examples():
    assert hilbert_symbol(Q, q(-1), q(-1), Place.prime(2)) == -1
    assert hilbert_symbol(Q, q(-1), q(-1), Place.real()) == -1
    assert hilbert_symbol(Q, q(-1), q(-1), Place.prime(3)) == 1
    assert hilbert_symbol(Q, q(2), q(3), Place.prime(3)) == -1


def test_hilbert_norm_identity():
    rng = random.Random(1)
    for _ in range(100):
        a = Q.random_element(rng, 20)
        if a == 0:
            continue
        for v in bad_places(Q, [a, -a]):
            assert hilbert_symbol(Q, a, -a, v) == 1


def test_hilbert_fqt_example():
    # (2, t) at pi = t over F_3(t): 2^((3-1)/2) = -1 mod 3
    t = F3t.t()
    two = F3t.from_int(2)
    assert hilbert_symbol(F3t, two, t, Place.poly((0, 1))) == -1
    # norm identity over F_3(t)
    rng = random.Random(2)
    for _ in range(50):
        a = F3t.random_element(rng, 2)
        if F3t.is_zero(a):
            continue
        for v in bad_places(F3t, [a, F3t.neg(a)]):
            assert hilbert_symbol(F3t, a, F3t.neg(a), v) == 1


@pytest.mark.parametrize("F,bound", [(Q, 20), (F3t, 2)], ids=["Q", "F3(t)"])
def test_hilbert_symmetric_bimultiplicative(F, bound):
    rng = random.Random(42)
    for _ in range(500):
        a, b, c = (F.random_element(rng, bound) for _ in range(3))
        if any(F.is_zero(x) for x in (a, b, c)):
            continue
        places = bad_places(F, [a, b, c])
        v = places[rng.randrange(len(places))]
        assert hilbert_symbol(F, a, b, v) == hilbert_symbol(F, b, a, v)
        assert (hilbert_symbol(F, F.mul(a, b), c, v)
                == hilbert_symbol(F, a, c, v) * hilbert_symbol(F, b, c, v))


@pytest.mark.parametrize("F,bound", [(Q, 20), (F3t, 2)], ids=["Q", "F3(t)"])
def test_product_formula(F, bound):
    rng = random.Random(7)
    for _ in range(200):
        a, b = F.random_element(rng, bound), F.random_element(rng, bound)
        if F.is_zero(a) or F.is_zero(b):
            continue
        prod = 1
        for v in bad_places(F, [a, b]):
            prod *= hilbert_symbol(F, a, b, v)
        assert prod == 1


def test_factor_int():
    from quatalg.localglobal import _factor_int

    # three prime factors past trial division: 2867933 is found by rho
    n = 2867933 * 2721844676609 * 12810546594780635018281
    assert _factor_int(-n) == {2867933: 1, 2721844676609: 1,
                               12810546594780635018281: 1}
    assert _factor_int(2**5 * 9 * 1009**2 * 1000003 * 1000033) == \
        {2: 5, 3: 2, 1009: 2, 1000003: 1, 1000033: 1}
    assert _factor_int(1) == {}
    for m in range(2, 3000):
        f = _factor_int(m)
        assert math.prod(p**e for p, e in f.items()) == m
        assert all(all(p % d for d in range(2, math.isqrt(p) + 1)) for p in f)


def test_global_isotropy_examples():
    assert is_isotropic_global(Q, [q(1)] * 4) is False
    assert is_isotropic_global(Q, [q(1), q(-1), q(7), q(-13)]) is True
    t = F3t.t()
    one, two = F3t.one(), F3t.from_int(2)
    diag = [one, F3t.neg(two), F3t.neg(t), F3t.mul(two, t)]
    assert is_isotropic_global(F3t, diag) is False


def test_global_isotropy_matches_brute_force():
    """Bounded brute force (integer vectors) vs Hasse-Minkowski, dim <= 4."""
    rng = random.Random(99)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        diag = []
        while len(diag) < n:
            a = q(rng.randint(-10, 10))
            if a != 0:
                diag.append(a)
        flag = is_isotropic_global(Q, diag)
        found = None
        import itertools

        for vec in itertools.product(range(-8, 9), repeat=n):
            if all(x == 0 for x in vec):
                continue
            if sum(a * x * x for a, x in zip(diag, vec)) == 0:
                found = vec
                break
        if found is not None:
            assert flag is True, (diag, found)
        if flag is False:
            assert found is None


def test_springer_examples():
    t = L3.t()
    one, two = L3.one(), L3.from_int(2)
    # t*<1,-1> = <t,-t> isotropic
    assert is_isotropic_global(L3, [t, L3.neg(t)]) is True
    # <1,-c>, c a nonsquare unit
    assert is_isotropic_global(L3, [one, L3.neg(two)]) is False
    # <1,-2,-t,2t>: both residue parts anisotropic over F_3
    diag = [one, L3.neg(two), L3.neg(t), L3.mul(two, t)]
    assert is_isotropic_global(L3, diag) is False


def test_char2_laurent_blocks():
    L2 = LaurentField(FiniteField(2))
    one, t = L2.one(), L2.t()
    # [1,1] is anisotropic over F_2, hence over F_2((t))
    assert char2_laurent_isotropic(L2, [(one, one)]) is False
    # [1,1] _|_ t[1,1] = [1,1] _|_ [t, 1/t]: residue parts both [1,1]
    assert char2_laurent_isotropic(L2, [(one, one), (t, L2.inv(t))]) is False
    # [0,b] has the obvious zero
    assert char2_laurent_isotropic(L2, [(L2.zero(), one)]) is True
    # dim 4 with both residue parts [1,1]: still anisotropic, but
    # [1,1] _|_ [1,1] over the residue field is isotropic
    assert char2_laurent_isotropic(L2, [(one, one), (one, one)]) is True


def test_place_json_roundtrip():
    for v in (Place.prime(2), Place.real(), Place.degree()):
        assert Place.from_json(v.to_json()) == v
    v = Place.poly((0, 1))
    assert Place.from_json(v.to_json(F3t), F3t) == v


def test_zero_is_a_local_square():
    assert is_local_square(Q, q(0), Place.prime(3))
    assert is_local_square(F3t, F3t.zero(), Place.poly((0, 1)))


def test_laurent_field_has_only_the_place_t():
    t = L3.t()
    assert hilbert_symbol(L3, t, t, Place.poly((0, 1))) == -1
    with pytest.raises(FieldError):
        hilbert_symbol(L3, t, t, Place.degree())


def test_char2_function_field_rejected():
    F2t = FunctionField(FiniteField(2))
    with pytest.raises(FieldError):
        hilbert_symbol(F2t, F2t.one(), F2t.one(), Place.degree())


# ----------------------------------------------------------------------
# the tame symbol at the odd places of Q, F_q(t) and F_q((t))

F5, F9 = FiniteField(5), FiniteField(3, 2)
FUNCTION_FIELDS = [FunctionField(B) for B in (F3, F5, F9)]
LAURENT_FIELDS = [LaurentField(B) for B in (F3, F5, F9)]


def test_chi_minus_one_is_taken_in_the_residue_field():
    # (pi, pi)_pi = chi(-1) of GF(3)[t]/(pi): -1 at pi = t, 1 at pi = t^2+1
    for pi, expected in (((0, 1), -1), ((1, 0, 1), 1)):
        x = F3t.from_poly(pi)
        assert hilbert_symbol(F3t, x, x, Place.poly(pi)) == expected


@functools.lru_cache(maxsize=None)
def _irreducibles(B):
    """Monic irreducibles of degree 1 to 3 (to 2 over GF(9))."""
    top = 2 if B.order == 9 else 3
    return [pi for d in range(1, top + 1) for pi in P.monic_polys(B, d)
            if P.is_irreducible(B, pi)]


@st.composite
def _nonzero(draw, F):
    if isinstance(F, Rationals):
        n = draw(st.integers(-2000, 2000).filter(bool))
        return Fraction(n, draw(st.integers(1, 2000)))
    B = F.base
    coeffs = st.lists(st.sampled_from(list(B.elements())), min_size=1, max_size=4)
    num = draw(coeffs.map(lambda c: P.normalize(B, c)).filter(bool))
    den = draw(coeffs.map(lambda c: P.normalize(B, c[:3])).filter(bool))
    return F.div(F.from_poly(num), F.from_poly(den))


def _elements(F, data, k):
    """k nonzero elements; over F_q(t) and F_q((t)) each is multiplied by a
    drawn place (degree up to 3 over F_q(t), t over F_q((t))) or not, so
    that places of degree >= 2 and odd valuations come up."""
    elems = [data.draw(_nonzero(F)) for _ in range(k)]
    if isinstance(F, FunctionField):
        pi = (P.x_poly(F.base) if isinstance(F, LaurentField)
              else data.draw(st.sampled_from(_irreducibles(F.base))))
        elems = [F.mul(x, F.from_poly(pi)) if data.draw(st.booleans()) else x
                 for x in elems]
    return elems


def _odd_place(F, data, elems):
    if isinstance(F, LaurentField):
        return Place.poly(P.x_poly(F.base))
    places = [v for v in bad_places(F, elems)
              if v.kind != "real" and v != Place.prime(2)]
    if isinstance(F, Rationals):
        places += [Place.prime(3), Place.prime(7)]
    return data.draw(st.sampled_from(places))


@pytest.mark.parametrize("F", [Q] + FUNCTION_FIELDS + LAURENT_FIELDS,
                         ids=lambda F: F.name)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_tame_symbol_laws(F, data):
    """Symmetry, bimultiplicativity, (a, -a) = 1 and the Steinberg relation
    (a, 1 - a) = 1 at odd places."""
    a, b, c = _elements(F, data, 3)
    v = _odd_place(F, data, [a, b, c])

    def h(x, y):
        return hilbert_symbol(F, x, y, v)

    assert h(a, b) == h(b, a)
    assert h(F.mul(a, b), c) == h(a, c) * h(b, c)
    assert h(a, F.neg(a)) == 1
    if not F.eq(a, F.one()):
        assert h(a, F.sub(F.one(), a)) == 1


@pytest.mark.parametrize("F", [Q] + FUNCTION_FIELDS, ids=lambda F: F.name)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_product_formula_property(F, data):
    a, b = _elements(F, data, 2)
    prod = 1
    for v in bad_places(F, [a, b]):
        prod *= hilbert_symbol(F, a, b, v)
    assert prod == 1


def _springer_oracle(L, diag):
    """Springer: <a_i> is isotropic over F_q((t)) iff the residue form of the
    even-valuation entries or that of the odd-valuation entries is, each
    decided by enumeration over F_q.  Valuation and residue are read off
    the coefficient tuples."""
    B = L.base
    parts = ([], [])
    for num, den in diag:
        i = next(k for k, x in enumerate(num) if not B.is_zero(x))
        j = next(k for k, x in enumerate(den) if not B.is_zero(x))
        parts[(i - j) % 2].append(B.div(num[i], den[j]))
    for part in parts:
        for vec in itertools.product(list(B.elements()), repeat=len(part)):
            value = B.sum_(B.mul(a, B.mul(x, x)) for a, x in zip(part, vec))
            if B.is_zero(value) and not all(B.is_zero(x) for x in vec):
                return True
    return False


@pytest.mark.parametrize("L", LAURENT_FIELDS, ids=lambda F: F.name)
@given(n=st.integers(1, 4), data=st.data())
@settings(max_examples=40, deadline=None)
def test_laurent_isotropy_matches_springer_oracle(L, n, data):
    """The verdict of forms.is_isotropic; the witness search is stubbed out,
    since over F_9((t)) one search can take tens of seconds and the
    verdict does not depend on it."""
    diag = _elements(L, data, n)
    with mock.patch.object(forms, "_search_poly", lambda *args: None):
        status = forms.is_isotropic(forms.QuadraticForm(L, diag)).status
    assert status is _springer_oracle(L, diag)
