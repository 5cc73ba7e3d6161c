import itertools
import random
from fractions import Fraction

import pytest

from quatalg.algebras import (
    AlgebraError,
    StructureConstantAlgebra,
    algebra_from_json,
    center,
    centralizer,
    find_isomorphism,
    find_zero_divisor,
    is_commutative,
    is_division,
    matrix_algebra_m2,
    minimal_polynomial,
    split_as_m2,
    subalgebra_closure,
    tensor_element,
    tensor_product,
    verify_isomorphism,
)
from quatalg.fields import FiniteField, Rationals

Q = Rationals()
F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)


def hamilton(F):
    """The quaternion table on basis 1, i, j, k with i^2 = j^2 = -1."""
    one, m1 = F.one(), F.neg(F.one())
    t = [[{} for _ in range(4)] for _ in range(4)]
    # indices 0=1, 1=i, 2=j, 3=k
    rules = {
        (0, 0): (0, one), (0, 1): (1, one), (0, 2): (2, one), (0, 3): (3, one),
        (1, 0): (1, one), (2, 0): (2, one), (3, 0): (3, one),
        (1, 1): (0, m1), (2, 2): (0, m1), (3, 3): (0, m1),
        (1, 2): (3, one), (2, 1): (3, m1),
        (2, 3): (1, one), (3, 2): (1, m1),
        (3, 1): (2, one), (1, 3): (2, m1),
    }
    for (i, j), (k, c) in rules.items():
        t[i][j][k] = c
    return StructureConstantAlgebra(
        F, t, ("1", "i", "j", "k"), (one, F.zero(), F.zero(), F.zero()))


H = hamilton(Q)
M2Q = matrix_algebra_m2(Q)


def test_construction_checks():
    # breaking one structure constant must break associativity
    bad = [[dict(c) for c in row] for row in H.table]
    bad[1][2] = {3: Fraction(2)}
    with pytest.raises(AlgebraError):
        StructureConstantAlgebra(Q, bad, unit=H.unit_coords)


def test_unit_discovery():
    A = StructureConstantAlgebra(Q, H.table)
    assert A.unit_coords == H.unit_coords


def test_element_arithmetic():
    i, j, k = H.basis_element(1), H.basis_element(2), H.basis_element(3)
    assert i * j == k
    assert j * i == -k
    assert i * i == -H.one()
    assert (i + j) * (i - j) == i * i - i * j + j * i - j * j
    assert (i * j * k) == -H.one()
    assert i ** 4 == H.one()
    assert i.inverse() == -i
    assert i.inverse() * i == H.one()


def test_centralizer_examples():
    # centralizer of {1} in M2(Q) is everything
    assert len(centralizer(M2Q, [M2Q.one()])) == 4
    # centralizer of diag(1,-1) is the diagonal matrices
    d = M2Q.element([Fraction(1), Fraction(0), Fraction(0), Fraction(-1)])
    cen = centralizer(M2Q, [d])
    assert len(cen) == 2
    # centralizer of i in Hamilton is span{1, i}
    cen = centralizer(H, [H.basis_element(1)])
    assert len(cen) == 2
    for z in cen:
        assert z.coords[2] == 0 and z.coords[3] == 0


def test_center_examples():
    assert len(center(M2Q)) == 1
    assert len(center(H)) == 1
    HH = tensor_product(H, H)
    assert HH.dim == 16
    assert len(center(HH)) == 1
    assert not is_commutative(H)


def test_tensor_product_structure():
    HH = tensor_product(H, H)
    i1 = tensor_element(HH, H.basis_element(1), H.one())
    i2 = tensor_element(HH, H.one(), H.basis_element(1))
    assert i1 * i2 == i2 * i1
    assert i1 * i1 == -HH.one()
    # one-dimensional factor acts as identity
    one_dim = StructureConstantAlgebra(Q, [[{0: Fraction(1)}]], ("1",),
                                       (Fraction(1),))
    T = tensor_product(H, one_dim)
    assert T.dim == 4
    iso = find_isomorphism(T, T)
    assert iso is not None


def test_minimal_polynomial_examples():
    assert minimal_polynomial(H.one()) == (Fraction(-1), Fraction(1))
    assert minimal_polynomial(H.basis_element(1)) == (
        Fraction(1), Fraction(0), Fraction(1))  # X^2 + 1
    e12 = M2Q.basis_element(1)
    assert minimal_polynomial(e12) == (Fraction(0), Fraction(0), Fraction(1))


def test_zero_divisors_and_division():
    assert find_zero_divisor(H) is None
    pair = find_zero_divisor(M2Q)
    assert pair is not None
    u, v = pair
    assert not u.is_zero() and not v.is_zero() and (u * v).is_zero()

    res = is_division(matrix_algebra_m2(F3))
    assert res.status is False
    u, v = res.witness
    assert (u * v).is_zero()

    # (1,1) tensor (1,1) over Q contains a zero divisor
    def symbol_11(F):
        one = F.one()
        t = [[{} for _ in range(4)] for _ in range(4)]
        rules = {
            (0, 0): (0, one), (0, 1): (1, one), (0, 2): (2, one),
            (0, 3): (3, one),
            (1, 0): (1, one), (2, 0): (2, one), (3, 0): (3, one),
            (1, 1): (0, one), (2, 2): (0, one), (3, 3): (0, F.neg(one)),
            (1, 2): (3, one), (2, 1): (3, F.neg(one)),
            (2, 3): (1, F.neg(one)), (3, 2): (1, one),
            (3, 1): (2, F.neg(one)), (1, 3): (2, one),
        }
        for (i, j), (k, c) in rules.items():
            t[i][j][k] = c
        return StructureConstantAlgebra(F, t)

    S = symbol_11(Q)
    T = tensor_product(S, S)
    pair = find_zero_divisor(T)
    assert pair is not None
    u, v = pair
    assert (u * v).is_zero() and not u.is_zero() and not v.is_zero()

    # finite commutative: F_9 presented as F_3[X]/(X^2+1) is a division algebra
    one, zero = F3.one(), F3.zero()
    ext = StructureConstantAlgebra(
        F3,
        [[{0: one}, {1: one}], [{1: one}, {0: F3.neg(one)}]],
        ("1", "x"), (one, zero))
    assert is_division(ext).status is True
    # but F_3[X]/(X^2-1) is not
    spl = StructureConstantAlgebra(
        F3, [[{0: one}, {1: one}], [{1: one}, {0: one}]],
        ("1", "x"), (one, zero))
    res = is_division(spl)
    assert res.status is False


def test_is_division_unknown_over_q_without_symbol():
    assert is_division(H, budget=100).status is None


def test_split_as_m2():
    for F in (Q, F3, F5):
        M = matrix_algebra_m2(F)
        phi = split_as_m2(M)
        assert phi is not None
        assert verify_isomorphism(M, matrix_algebra_m2(F), phi)


def test_find_isomorphism_identity_and_split():
    assert find_isomorphism(H, H) is not None
    # M2(F3) under a permuted basis is still found isomorphic to M2(F3)
    M = matrix_algebra_m2(F3)
    perm = [2, 3, 0, 1]
    table = [[{perm.index(k): c for k, c in M.table[perm[i]][perm[j]].items()}
              for j in range(4)] for i in range(4)]
    unit = [M.unit_coords[perm[i]] for i in range(4)]
    N = StructureConstantAlgebra(F3, table, unit=unit)
    phi = find_isomorphism(N, M)
    assert phi is not None
    assert verify_isomorphism(N, M, phi)


def test_find_isomorphism_single_generator():
    one, zero = F3.one(), F3.zero()
    ext = StructureConstantAlgebra(
        F3, [[{0: one}, {1: one}], [{1: one}, {0: F3.neg(one)}]],
        ("1", "x"), (one, zero))
    # same field presented with generator x+1: (x+1)^2 = x^2+2x+1 = 2x
    # i.e. y^2 = 2y - 2 with y = x+1:  y^2 = 2y+1
    ext2 = StructureConstantAlgebra(
        F3, [[{0: one}, {1: one}], [{1: one}, {0: one, 1: F3.from_int(2)}]],
        ("1", "y"), (one, zero))
    phi = find_isomorphism(ext, ext2)
    assert phi is not None
    assert verify_isomorphism(ext, ext2, phi)


def test_subalgebra_closure():
    i = H.basis_element(1)
    assert len(subalgebra_closure(H, [i])) == 2
    j = H.basis_element(2)
    assert len(subalgebra_closure(H, [i, j])) == 4


def test_json_roundtrip():
    d = H.to_json()
    A = algebra_from_json(d)
    assert A == H and A.basis_labels == H.basis_labels
    assert A.unit_coords == H.unit_coords


def test_associativity_sweep_catches_every_changed_coefficient():
    """Adding 1 to any one coefficient of a 4-dim quaternion table, over
    Q, F_5, F_3(t) and (characteristic 2) F_2(t), breaks associativity,
    and the sweep must say so."""
    from quatalg.fields import FunctionField
    from quatalg.quaternions import QuaternionSymbol, realize

    F3t, F2t = FunctionField(F3), FunctionField(F2)
    t3, t2 = F3t.t(), F2t.t()
    algebras = [
        H, hamilton(F5),
        realize(QuaternionSymbol(F3t, t3, F3t.add(t3, F3t.one()))),
        realize(QuaternionSymbol(F2t, t2, F2t.add(t2, F2t.one()),
                                 char2=True)),
    ]
    for A in algebras:
        F = A.field
        A._check_associativity()
        for i, j, k in itertools.product(range(4), repeat=3):
            table = [[dict(cell) for cell in row] for row in A.table]
            cell = table[i][j]
            value = F.add(cell.get(k, F.zero()), F.one())
            if F.is_zero(value):
                del cell[k]
            else:
                cell[k] = value
            bad = StructureConstantAlgebra(F, table, A.basis_labels,
                                           A.unit_coords, check=False)
            with pytest.raises(AlgebraError, match=r"basis triple \("):
                bad._check_associativity()


def test_symbol_generators_are_stored_as_coordinates():
    from quatalg.quaternions import QuaternionSymbol, realize

    A = realize(QuaternionSymbol(F5, 2, 3))
    x, y = A.symbol_generators
    assert (x, y) == (A.basis_element(1), A.basis_element(2))
    assert x.algebra is A
    assert matrix_algebra_m2(F5).symbol_generators is None
    with pytest.raises(AlgebraError):
        A.symbol_generators = (hamilton(F5).basis_element(1), y)
    A.symbol_generators = None
    assert A.symbol_generators is None
