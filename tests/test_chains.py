import json
import random
from fractions import Fraction

import pytest

from quatalg.certificates import CertificateError, check_chain_certificate
from quatalg.chains import (
    Chain,
    ChainError,
    ElementClass,
    chain,
    classify,
    decompose_with_marked_elements,
    decompose_wrt,
    find_anticommuting_link,
    find_commuting_link,
    mixed_link,
)
from quatalg.fields import FiniteField, Rationals
from quatalg.quaternions import (
    QuaternionSymbol,
    TensorPresentation,
    common_slot_chain_tensor,
    realize,
)

Q = Rationals()
F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)
F5 = FiniteField(5)

HAM = QuaternionSymbol(Q, Fraction(-1), Fraction(-1))


def ham_gens():
    A = realize(HAM)
    x, y = A.symbol_generators
    return A, x, y, x * y


def test_classify_examples():
    A, i, j, k = ham_gens()
    assert classify(A.scalar(Fraction(5))).kind == ElementClass.CENTRAL
    ci = classify(i)
    assert ci.kind == ElementClass.SQUARE_CENTRAL
    assert Q.eq(ci.value, Fraction(-1))
    assert classify(A.one() + i).kind == ElementClass.OTHER

    B = realize(QuaternionSymbol(F2, F2.one(), F2.one(), char2=True))
    x, y = B.symbol_generators
    cx = classify(x)
    assert cx.kind == ElementClass.ARTIN_SCHREIER
    assert F2.eq(cx.value, F2.one())
    assert classify(y).kind == ElementClass.SQUARE_CENTRAL


def test_decompose_wrt_hamilton():
    A, i, j, k = ham_gens()
    t0, t1 = decompose_wrt(i + j, i)
    assert t0 == i and t1 == j
    # a commuting element has no twisted part
    t0, t1 = decompose_wrt(A.one() + i.scale(Fraction(3)), i)
    assert t1.is_zero()
    with pytest.raises(ChainError):
        decompose_wrt(j, A.one() + i)  # pivot not square-central


def test_decompose_wrt_property():
    A = realize(QuaternionSymbol(F5, F5.from_int(2), F5.from_int(3)))
    x = A.symbol_generators[0]
    rng = random.Random(0)
    for _ in range(500):
        t = A.random_element(rng)
        t0, t1 = decompose_wrt(t, x)
        assert t0 + t1 == t
        assert x * t0 == t0 * x
        assert x * t1 == -(t1 * x)


def test_decompose_wrt_char2_property():
    A = realize(QuaternionSymbol(F4, F4.generator(), F4.one(), char2=True))
    x = A.symbol_generators[0]
    rng = random.Random(1)
    for _ in range(200):
        t = A.random_element(rng)
        t0, t1 = decompose_wrt(t, x)
        assert t0 + t1 == t
        assert x * t0 == t0 * x
        assert x * t1 + t1 * x == t1


def biquaternion(sym1=HAM, sym2=HAM):
    return TensorPresentation([sym1, sym2])


def test_find_commuting_link_second_factor():
    P = biquaternion()
    x = P.generators[0][0]   # i (x) 1
    t = P.generators[1][0]   # 1 (x) i
    z = find_commuting_link(x, t)
    assert z.commutes_with(x) and z.commutes_with(t)
    assert classify(z).kind == ElementClass.SQUARE_CENTRAL


def test_find_commuting_link_noncommuting_endpoints():
    A, i, j, k = ham_gens()
    P = biquaternion()
    x = P.generators[0][0]
    t = P.generators[0][0] + P.generators[0][1]  # i+j in the first factor
    assert not x.commutes_with(t)
    z = find_commuting_link(x, t)
    assert z.commutes_with(x) and z.commutes_with(t)
    assert classify(z).kind == ElementClass.SQUARE_CENTRAL


def test_decompose_with_marked_elements():
    P = biquaternion()
    A = P.algebra
    x = P.generators[0][0]
    xp = P.generators[1][1]  # 1 (x) j
    D = decompose_with_marked_elements(A, x, xp)
    assert D.verify()
    assert D.algebra is A
    assert Q.eq(D.symbols[0].a, Fraction(-1))
    assert Q.eq(D.symbols[1].a, Fraction(-1))
    assert D.generators[0][0] == x and D.generators[1][0] == xp


def test_decompose_with_marked_elements_rejects_bad_input():
    P = biquaternion()
    A = P.algebra
    x = P.generators[0][0]
    with pytest.raises(ChainError):
        decompose_with_marked_elements(A, x, x.scale(Fraction(2)))
    with pytest.raises(ChainError):
        decompose_with_marked_elements(A, x, P.generators[0][1])


def test_find_anticommuting_link():
    P = biquaternion()
    x = P.generators[0][0]
    xp = P.generators[1][0]
    z = find_anticommuting_link(P, x, xp)
    assert x * z == -(z * x)
    assert xp * z == -(z * xp)
    assert classify(z).kind == ElementClass.SQUARE_CENTRAL


def test_chain_trivial_and_direct():
    A, i, j, k = ham_gens()
    c = chain(i, i)
    assert c.verify() and len(c.nodes) == 1
    c = chain(i, j)
    assert c.verify() and len(c.nodes) == 2


def test_chain_general_over_q():
    P = biquaternion()
    x = P.generators[0][0]
    xp = P.generators[0][0] + P.generators[0][1]
    c = chain(x, xp)
    assert c.verify()
    assert c.nodes[0] == x and c.nodes[-1] == xp
    assert len(c.nodes) <= 5


def test_chain_conjugated_endpoint_over_q():
    P = biquaternion()
    A = P.algebra
    x = P.generators[0][0]
    u = A.one().scale(Fraction(2)) + P.generators[0][1] * P.generators[1][0]
    uu = u.inverse()
    assert uu is not None
    xp = u * P.generators[1][0] * uu
    c = chain(x, xp)
    assert c.verify()
    assert c.nodes[0] == x and c.nodes[-1] == xp


def test_chain_char2_direct_link():
    s = QuaternionSymbol(F2, F2.one(), F2.one(), char2=True)
    P = TensorPresentation([s, s])
    x = P.generators[0][0]
    xp = x + P.generators[0][1]
    c = chain(x, xp)
    assert c.verify()
    assert len(c.links) <= 3


def test_chain_char2_across_factors():
    s = QuaternionSymbol(F4, F4.generator(), F4.one(), char2=True)
    sp = QuaternionSymbol(F4, F4.one(), F4.generator(), char2=True)
    P = TensorPresentation([s, sp])
    x = P.generators[0][0]
    xp = P.generators[1][0]
    c = chain(x, xp)
    assert c.verify()
    assert c.nodes[0] == x and c.nodes[-1] == xp


def test_chain_char2_conjugated_endpoint():
    s = QuaternionSymbol(F4, F4.generator(), F4.one(), char2=True)
    P = TensorPresentation([s, s])
    A = P.algebra
    x = P.generators[0][0]
    u = A.one() + P.generators[0][1] * P.generators[1][0]
    uu = u.inverse()
    if uu is None:
        pytest.skip("conjugator not invertible in this presentation")
    xp = u * P.generators[1][0] * uu
    c = chain(x, xp)
    assert c.verify()
    assert c.nodes[0] == x and c.nodes[-1] == xp


def test_mixed_link():
    s = QuaternionSymbol(F4, F4.generator(), F4.one(), char2=True)
    P = TensorPresentation([s, s])
    x_sc = P.generators[0][1]   # square-central, first factor
    xp = P.generators[1][0]     # Artin-Schreier, second factor
    z, w = mixed_link(P, x_sc, xp)
    assert classify(w).kind == ElementClass.ARTIN_SCHREIER
    assert w * x_sc + x_sc * w == x_sc
    assert classify(z).kind == ElementClass.SQUARE_CENTRAL
    assert w * z + z * w == z
    assert xp * z + z * xp == z


def _conjugated(P, seed):
    """P with every generator conjugated by one seeded invertible element."""
    A = P.algebra
    rng = random.Random(seed)
    while True:
        u = A.random_element(rng, 4)
        uinv = u.inverse()
        if uinv is not None:
            break
    gens = [(u * x * uinv, u * y * uinv) for x, y in P.generators]
    return TensorPresentation(P.symbols, algebra=A, generators=gens)


def test_links_pinned_char3():
    """The link found for a marked element that is not a generator."""
    P = _conjugated(TensorPresentation([
        QuaternionSymbol(F3, F3.one(), F3.one()),
        QuaternionSymbol(F3, F3.from_int(2), F3.from_int(2))]), 3)
    (x1, y1), (x2, _) = P.generators
    z = find_anticommuting_link(P, x1 + y1, x2)
    assert list(z.fmt()) == ["0", "2", "0", "0", "2", "0", "0", "0",
                             "0", "0", "1", "1", "0", "0", "0", "1"]


def test_links_pinned_char2():
    w = F4.generator()
    P = _conjugated(TensorPresentation([
        QuaternionSymbol(F4, w, F4.one(), char2=True),
        QuaternionSymbol(F4, F4.one(), w, char2=True)]), 3)
    (x1, y1), (x2, y2) = P.generators
    z = find_anticommuting_link(P, x1 + y1, x2 + y2)
    assert list(z.fmt()) == ["1", "1", "w", "w+1", "w", "0", "0", "1",
                             "w", "1", "1", "w", "w+1", "w+1", "w+1", "0"]
    z, v = mixed_link(P, y1.scale(w), x2 + y2)
    assert list(z.fmt()) == ["w", "w+1", "w", "0", "1", "0", "w", "w+1",
                             "w+1", "w", "1", "1", "w+1", "w", "w", "0"]
    assert list(v.fmt()) == ["0", "w+1", "w+1", "0", "0", "0", "w+1", "w",
                             "1", "1", "w+1", "w+1", "1", "w+1", "w+1", "1"]


def test_tensor_chain_via_common_element():
    P = biquaternion()
    A = P.algebra
    (i1, j1), (i2, j2) = P.generators
    # same algebra, different first-factor symbol (-2, -1)
    xp = i1 + j1
    yp = i1 * j1
    Pp = TensorPresentation(
        [QuaternionSymbol(Q, Fraction(-2), Fraction(-1)), HAM],
        algebra=A, generators=[(xp, yp), (i2, j2)])
    sc = common_slot_chain_tensor(P, Pp)
    assert sc.verify()
    assert len(sc.nodes) == 4
    assert sc.nodes[0] is P and sc.nodes[-1] is Pp


def test_chain_certificate_roundtrip_and_tamper():
    P = biquaternion()
    x = P.generators[0][0]
    xp = P.generators[0][0] + P.generators[0][1]
    c = chain(x, xp)
    cert = json.loads(json.dumps(c.to_json()))
    ok, reason = check_chain_certificate(cert)
    assert ok, reason
    # corrupt one node by mixing in a unit component
    bad = json.loads(json.dumps(cert))
    bad["nodes"][1][0] = str(Fraction(bad["nodes"][1][0]) + 1)
    ok, reason = check_chain_certificate(bad)
    assert not ok
    assert reason


def test_chain_certificate_char2_tamper():
    s = QuaternionSymbol(F2, F2.one(), F2.one(), char2=True)
    P = TensorPresentation([s, s])
    x = P.generators[0][0]
    xp = x + P.generators[0][1]
    c = chain(x, xp)
    cert = c.to_json()
    ok, reason = check_chain_certificate(cert)
    assert ok, reason
    bad = json.loads(json.dumps(cert))
    bad["links"][0][0] = "1" if bad["links"][0][0] == "0" else "0"
    ok, reason = check_chain_certificate(bad)
    assert not ok


def test_chain_certificate_malformed():
    with pytest.raises(CertificateError):
        check_chain_certificate({"kind": "something-else"})
