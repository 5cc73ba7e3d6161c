import itertools
from fractions import Fraction

import pytest

from quatalg.algebras import find_isomorphism, verify_isomorphism
from quatalg.fields import FiniteField, FunctionField, Rationals
from quatalg.quaternions import (
    CommonSlotChain,
    QuaternionError,
    QuaternionSymbol,
    SlotChain,
    TensorPresentation,
    are_isomorphic,
    common_slot_chain,
    common_slot_chain_tensor,
    is_division_symbol,
    isomorphism_between_realizations,
    realize,
)

Q = Rationals()
F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)
F5 = FiniteField(5)
F3t = FunctionField(F3)


def sym(F, a, b, char2=False):
    return QuaternionSymbol(F, a, b, char2)


HAM = sym(Q, Fraction(-1), Fraction(-1))


def test_realize_relations():
    A = realize(HAM)
    x, y = A.symbol_generators
    k = x * y
    assert x * x == -A.one()
    assert k * k == -A.one()
    assert y * x == -k

    B = realize(sym(F2, F2.one(), F2.one(), char2=True))
    x, y = B.symbol_generators
    assert x * x + x == B.one()
    assert y * x == x * y + y


def test_realize_split_examples():
    # [0,1) over F_2: x is idempotent
    A = realize(sym(F2, F2.zero(), F2.one(), char2=True))
    x = A.symbol_generators[0]
    assert x * x == x
    assert (x * (x + A.one())).is_zero()
    # (1, b): (x+1)(x-1) = 0
    B = realize(sym(Q, Fraction(1), Fraction(7)))
    x = B.symbol_generators[0]
    assert ((x + B.one()) * (x - B.one())).is_zero()


def test_division_examples():
    assert is_division_symbol(HAM).status is True
    res = is_division_symbol(sym(Q, Fraction(1), Fraction(1)))
    assert res.status is False
    u, v = res.witness
    assert (u * v).is_zero() and not u.is_zero() and not v.is_zero()
    # (2, t) over F_3(t) is division by the local-field criterion
    t = F3t.t()
    assert is_division_symbol(sym(F3t, F3t.from_int(2), t)).status is True
    # every quaternion algebra over a finite field splits
    for a in F3.nonzero_elements():
        for b in F3.nonzero_elements():
            assert is_division_symbol(sym(F3, a, b)).status is False


def test_are_isomorphic_examples():
    assert are_isomorphic(HAM, HAM) is True
    m2 = sym(Q, Fraction(-2), Fraction(-2))
    assert are_isomorphic(HAM, m2) is True
    assert are_isomorphic(HAM, sym(Q, Fraction(1), Fraction(1))) is False
    # char != 2 symbols are symmetric in their slots
    for F in (F3, F5):
        for a in F.nonzero_elements():
            for b in F.nonzero_elements():
                assert are_isomorphic(sym(F, a, b), sym(F, b, a)) is True


def test_symbol_swap_isomorphism_explicit():
    for F in (F3, F5):
        a, b = F.from_int(2), F.from_int(1 if F.char == 3 else 3)
        phi = find_isomorphism(realize(sym(F, a, b)),
                               realize(sym(F, b, a)))
        assert phi is not None


def test_explicit_isomorphism_division_over_q():
    A = realize(HAM)
    B = realize(sym(Q, Fraction(-2), Fraction(-2)))
    phi = isomorphism_between_realizations(A, B)
    assert phi is not None
    assert verify_isomorphism(A, B, phi)


def test_find_isomorphism_routes_through_symbols():
    A = realize(HAM)
    B = realize(sym(Q, Fraction(-1), Fraction(-2)))
    phi = find_isomorphism(A, B)
    assert phi is not None
    assert verify_isomorphism(A, B, phi)


def test_common_slot_chain_trivial():
    s = sym(F5, F5.from_int(2), F5.from_int(3))
    chain = common_slot_chain(s, s)
    assert chain.verify()
    assert chain.symbols[0] == s and chain.symbols[-1] == s


def test_common_slot_chain_over_q():
    s = HAM
    sp = sym(Q, Fraction(-2), Fraction(-2))
    chain = common_slot_chain(s, sp)
    assert chain.verify()
    assert len(chain.symbols) == 4
    assert chain.symbols[0] == s and chain.symbols[-1] == sp
    F = Q
    assert F.eq(chain.symbols[1].a, s.a)
    assert F.eq(chain.symbols[2].a, sp.a)
    assert F.eq(chain.symbols[1].b, chain.symbols[2].b)


def test_common_slot_chain_char2_finite():
    one = F4.one()
    w = F4.generator()
    s = sym(F4, one, one, char2=True)
    sp = sym(F4, w, w, char2=True)
    if are_isomorphic(s, sp) is True:
        chain = common_slot_chain(s, sp)
        assert chain.verify()


def test_common_slot_chain_requires_isomorphic():
    with pytest.raises(QuaternionError):
        common_slot_chain(HAM, sym(Q, Fraction(1), Fraction(1)))


def test_tampered_chain_fails_verification():
    s = HAM
    sp = sym(Q, Fraction(-2), Fraction(-2))
    chain = common_slot_chain(s, sp)
    bad = CommonSlotChain(
        [s, sym(Q, Fraction(-1), Fraction(1)),
         chain.symbols[2], sp], chain.beta)
    assert not bad.verify()


def test_tensor_presentation():
    P = TensorPresentation([HAM, HAM])
    assert P.algebra.dim == 16
    (x1, y1), (x2, y2) = P.generators
    assert x1 * x2 == x2 * x1
    assert x1 * y1 == -(y1 * x1)
    assert P.verify()


def test_tensor_slot_chain_split_case():
    one = F5.one()
    a, b = F5.from_int(2), F5.from_int(3)
    P = TensorPresentation([sym(F5, one, one), sym(F5, a, b)])
    Pp = TensorPresentation([sym(F5, one, F5.from_int(2)), sym(F5, a, b)])
    chain = common_slot_chain_tensor(P, Pp)
    assert chain.verify()
    assert len(chain.nodes) <= 4


def test_tensor_slot_chain_identity():
    P = TensorPresentation([HAM, HAM])
    chain = common_slot_chain_tensor(P, P)
    assert chain.verify()
    assert len(chain.nodes) == 1


def test_tensor_slot_chain_char2():
    one = F2.one()
    P = TensorPresentation([sym(F2, one, one, char2=True),
                            sym(F2, one, one, char2=True)])
    Pp = TensorPresentation([sym(F2, F2.zero(), one, char2=True),
                             sym(F2, one, one, char2=True)])
    chain = common_slot_chain_tensor(P, Pp)
    assert chain.verify()
    assert len(chain.nodes) <= 4


def test_symbol_json_roundtrip():
    for s in (HAM, sym(F2, F2.one(), F2.one(), char2=True)):
        d = s.to_json()
        assert QuaternionSymbol.from_json(d, s.field) == s
