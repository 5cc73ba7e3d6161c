import random
from fractions import Fraction

import pytest

from quatalg.fields import (
    FieldError,
    FiniteField,
    FunctionField,
    LaurentField,
    Rationals,
    field_from_json,
    t_adic_valuation,
)

Q = Rationals()
F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)
F5 = FiniteField(5)
F9 = FiniteField(3, 2)
F3t = FunctionField(F3)
F2t = FunctionField(F2)
L3 = LaurentField(F3)
L2 = LaurentField(F2)

ALL_FIELDS = [Q, F2, F3, F4, F5, F9, F3t, F2t, L3, L2]


def _sample(F, rng):
    return F.random_element(rng, 20) if F.kind == "Q" else F.random_element(rng, 3)


@pytest.mark.parametrize("F", ALL_FIELDS, ids=lambda f: f.name)
def test_field_axioms_random(F):
    rng = random.Random(12345)
    for _ in range(1000):
        a, b, c = _sample(F, rng), _sample(F, rng), _sample(F, rng)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == F.zero()
        if not F.is_zero(a):
            assert F.mul(a, F.inv(a)) == F.one()


@pytest.mark.parametrize("F", ALL_FIELDS, ids=lambda f: f.name)
def test_square_of_square_detected(F):
    rng = random.Random(999)
    for _ in range(50):
        c = _sample(F, rng)
        flag, w = F.is_square(F.mul(c, c))
        assert flag
        if w is not None:
            assert F.mul(w, w) == F.mul(c, c)


@pytest.mark.parametrize("F", [F2, F4, F2t, L2], ids=lambda f: f.name)
def test_artin_schreier_image_detected(F):
    rng = random.Random(777)
    for _ in range(50):
        u = _sample(F, rng)
        c = F.add(F.mul(u, u), u)
        flag, w = F.artin_schreier_solve(c)
        assert flag
        if w is not None:
            assert F.add(F.mul(w, w), w) == c


def test_finite_enumeration_counts():
    for F in (F2, F3, F4, F5, F9):
        els = list(F.elements())
        assert len(els) == F.order
        assert len(set(els)) == F.order


def test_is_square_examples():
    # 1 in Q
    assert Q.is_square(Fraction(1)) == (True, Fraction(1))
    # 2 in F_3: squares of F_3 are {0, 1} by enumeration
    squares = {F3.mul(x, x) for x in F3.elements()}
    assert squares == {0, 1}
    assert F3.is_square(2) == (False, None)
    # t in F_3(t): odd valuation obstructs; cross-check by bounded search
    t = F3t.t()
    flag, _ = F3t.is_square(t)
    assert not flag
    rng = random.Random(5)
    for _ in range(300):
        u = _sample(F3t, rng)
        assert F3t.mul(u, u) != t


def test_prime_field_square_roots_pinned():
    # p = 1 mod 4 runs the Tonelli-Shanks loop; the least nonresidue is 3
    # for 17 and 41 and 5 for 73 and 97.  p = 3 mod 4 takes the one-power
    # shortcut.
    pinned = {
        17: {2: 6, 8: 12, 13: 8},
        41: {2: 17, 5: 28, 8: 34},
        73: {2: 32, 3: 21, 6: 15},
        97: {2: 83, 3: 87, 6: 54},
        19: {5: 9, 6: 5, 7: 11},
        43: {6: 36, 10: 15, 11: 21},
    }
    for p, roots in pinned.items():
        F = FiniteField(p)
        for c, r in roots.items():
            assert F.is_square(c) == (True, r)
        for c in range(1, p):
            flag, r = F.is_square(c)
            assert flag == (pow(c, (p - 1) // 2, p) == 1)
            if flag:
                assert r * r % p == c


def test_artin_schreier_examples():
    assert F2.artin_schreier_solve(0) == (True, 0)
    assert F2.artin_schreier_solve(1) == (False, None)
    # 1 in F_4 has a root: enumerate
    flag, w = F4.artin_schreier_solve(F4.one())
    assert flag
    assert F4.add(F4.mul(w, w), w) == F4.one()
    with pytest.raises(FieldError):
        F3.artin_schreier_solve(1)


def test_artin_schreier_function_field_poles():
    # 1/t has an odd-order pole: not in the image
    t = F2t.t()
    flag, _ = F2t.artin_schreier_solve(F2t.inv(t))
    assert not flag
    # 1/t^2 : u = 1/t gives u^2+u = 1/t^2 + 1/t, so solve for that value
    inv_t = F2t.inv(t)
    c = F2t.add(F2t.mul(inv_t, inv_t), inv_t)
    flag, w = F2t.artin_schreier_solve(c)
    assert flag
    assert F2t.add(F2t.mul(w, w), w) == c


def test_t_adic_valuation_examples():
    t = F3t.t()
    t2_plus_t = F3t.add(F3t.mul(t, t), t)
    assert t_adic_valuation(F3t, t2_plus_t) == 1
    assert t_adic_valuation(F3t, F3t.inv(t)) == -1
    with pytest.raises(FieldError):
        t_adic_valuation(Q, Fraction(5, 7))
    with pytest.raises(FieldError):
        t_adic_valuation(F3t, F3t.zero())


def test_laurent_square_decision():
    # 1 + t is a unit with square residue: square in F_3((t)) but the
    # witness is not rational
    one_plus_t = L3.add(L3.one(), L3.t())
    flag, w = L3.is_square(one_plus_t)
    assert flag and w is None
    # 2 + t has nonsquare residue 2 in F_3
    two_plus_t = L3.add(L3.from_int(2), L3.t())
    assert L3.is_square(two_plus_t) == (False, None)
    # t itself: odd valuation
    assert L3.is_square(L3.t())[0] is False


def test_parse_and_format_roundtrip():
    rng = random.Random(31)
    for F in ALL_FIELDS:
        for _ in range(20):
            a = _sample(F, rng)
            assert F.parse(F.fmt(a)) == a


def test_descriptor_json_roundtrip():
    for F in ALL_FIELDS:
        assert field_from_json(F.descriptor_json()) == F


def test_extension_field_modulus_reproducible():
    # least irreducible of degree 2 over F_2 is w^2+w+1
    assert F4.modulus == (1, 1, 1)
    # least irreducible of degree 2 over F_3 is w^2+1
    assert F9.modulus == (1, 0, 1)
