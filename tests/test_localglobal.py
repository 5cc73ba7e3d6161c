import random
from fractions import Fraction

import pytest

from quatalg.fields import FieldError, FiniteField, FunctionField, LaurentField, Rationals
from quatalg.localglobal import (
    Place,
    bad_places,
    char2_laurent_isotropic,
    hilbert_symbol,
    is_isotropic_global,
    springer_isotropic_local,
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
    assert springer_isotropic_local(L3, [t, L3.neg(t)]) is True
    # <1,-c>, c a nonsquare unit
    assert springer_isotropic_local(L3, [one, L3.neg(two)]) is False
    # <1,-2,-t,2t>: both residue parts anisotropic over F_3
    diag = [one, L3.neg(two), L3.neg(t), L3.mul(two, t)]
    assert springer_isotropic_local(L3, diag) is False


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


def test_char2_function_field_rejected():
    F2t = FunctionField(FiniteField(2))
    with pytest.raises(FieldError):
        hilbert_symbol(F2t, F2t.one(), F2t.one(), Place.degree())
