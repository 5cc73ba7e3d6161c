import gc
import random
import weakref
from fractions import Fraction

import pytest

from quatalg.algebras import (
    StructureConstantAlgebra,
    center,
    find_isomorphism,
    find_zero_divisor,
)
from quatalg.clifford import (
    CliffordError,
    clifford_algebra,
    even_part,
    extract_E,
)
from quatalg.fields import FiniteField, FunctionField, Rationals
from quatalg.forms import QuadraticForm, is_isotropic, quaternion_norm_form
from quatalg.quaternions import are_isomorphic, realize

Q = Rationals()
F2 = FiniteField(2)
F3 = FiniteField(3)


def qform(*entries):
    return QuadraticForm(Q, tuple(Fraction(e) for e in entries), False)


def test_dimension_and_relations():
    C = clifford_algebra(qform(1, -1))
    assert C.algebra.dim == 4
    x1, x2 = C.generators
    assert x1 * x1 == C.algebra.one()
    assert x2 * x2 == -C.algebra.one()
    assert x1 * x2 == -(x2 * x1)
    # (x1 + x2)^2 = 0: an isotropic vector gives a nilpotent
    n = C.vector_element([Fraction(1), Fraction(1)])
    assert (n * n).is_zero() and not n.is_zero()


def test_char2_block_relations():
    f = QuadraticForm(F2, ((0, 0),), True)
    C = clifford_algebra(f)
    x1, x2 = C.generators
    assert (x1 * x1).is_zero()  # x1^2 = f(e1) = 0
    assert x1 * x2 + x2 * x1 == C.algebra.one()  # polar value 1


def test_dim16_product_square():
    C = clifford_algebra(qform(1, 1, 1, 1))
    assert C.algebra.dim == 16
    x1, x2 = C.generators[0], C.generators[1]
    assert (x1 * x2) ** 2 == -C.algebra.one()


def test_dimension_ceiling():
    with pytest.raises(CliffordError):
        clifford_algebra(qform(*([1] * 10)))


def test_even_part_dimensions_and_center():
    C = clifford_algebra(qform(1, -1))
    E = even_part(C)
    assert E.dim == 2

    C = clifford_algebra(qform(1, 1, 1, 1))
    E = even_part(C)
    assert E.dim == 8
    assert len(center(E)) == 2

    f = quaternion_norm_form(F2, F2.one(), F2.one())
    E = even_part(clifford_algebra(f))
    assert E.dim == 8

    # nontrivial discriminant over F_3: center of the even part is a field
    f = QuadraticForm(F3, (1, 1, 1, 2), False)
    E = even_part(clifford_algebra(f))
    assert len(center(E)) == 2


def test_isotropy_gives_zero_divisor():
    rng = random.Random(5)
    for _ in range(10):
        coeffs = []
        while len(coeffs) < 4:
            c = Fraction(rng.randint(-5, 5))
            if c:
                coeffs.append(c)
        f = qform(*coeffs)
        res = is_isotropic(f)
        if res.status is True and res.witness is not None:
            C = clifford_algebra(f)
            n = C.vector_element(res.witness)
            assert (n * n).is_zero() and not n.is_zero()


def test_extract_E_m1():
    E = extract_E(qform(1, -1))
    assert E.dim == 1


def test_extract_E_requires_trivial_discriminant():
    with pytest.raises(CliffordError):
        extract_E(qform(1, 1))  # disc -1, nontrivial over Q
    with pytest.raises(CliffordError):
        extract_E(QuadraticForm(F3, (1, 1, 1, 2), False))


def test_extract_E_m2_over_q():
    E = extract_E(qform(1, 1, 1, 1))
    assert E.dim == 4
    # E(<1,1,1,1>) is the (-1,-1) quaternion algebra
    s = E.symbol
    assert s is not None
    from quatalg.quaternions import QuaternionSymbol

    hamilton = QuaternionSymbol(Q, Fraction(-1), Fraction(-1))
    assert are_isomorphic(s, hamilton) is True
    # so E has no zero divisors in easy reach
    assert find_zero_divisor(E) is None


def test_extract_E_norm_form_char2():
    one = F2.one()
    f = quaternion_norm_form(F2, one, one)
    E = extract_E(f)
    assert E.dim == 4
    from quatalg.quaternions import QuaternionSymbol

    target = realize(QuaternionSymbol(F2, one, one, char2=True))
    phi = find_isomorphism(E, target)
    assert phi is not None


def test_extract_E_norm_form_matches_symbol_finite():
    from quatalg.quaternions import QuaternionSymbol

    for F in (FiniteField(3), FiniteField(5)):
        for a in F.nonzero_elements():
            for b in F.nonzero_elements():
                s = QuaternionSymbol(F, a, b)
                E = extract_E(quaternion_norm_form(F, a, b))
                assert E.symbol is not None
                assert are_isomorphic(E.symbol, s) is True


# -- the exact defining-identity check ---------------------------------------

F3T = FunctionField(F3)


def golden_f3t_form():
    """The F_3(t) form of the clifford extract-e golden request."""
    return QuadraticForm(F3T, tuple(F3T.parse(s) for s in (
        "t+1", "2*t^2+1", "t", "2*t^4+2*t^3+t^2+t")), False)


def char2_pair_form():
    return QuadraticForm(F2, ((1, 1), (0, 1)), True)


def _with_cell_changed(C, i, j):
    """Add 1 to the unit coefficient of the table cell x_i * x_j, and
    rebind C to the changed (unchecked) algebra."""
    A = C.algebra
    F = A.field
    table = [[dict(cell) for cell in row] for row in A.table]
    cell = table[C.index[(i,)]][C.index[(j,)]]
    value = F.add(cell.get(0, F.zero()), F.one())
    if F.is_zero(value):
        del cell[0]
    else:
        cell[0] = value
    C.algebra = StructureConstantAlgebra(F, table, A.basis_labels,
                                         A.unit_coords, check=False)
    C.generators = [C.algebra.basis_element(C.index[(k,)])
                    for k in range(C.form.dim)]


@pytest.mark.parametrize("make_form", [golden_f3t_form, char2_pair_form])
def test_defining_identity_check_catches_each_changed_cell(make_form):
    n = make_form().dim
    for i in range(n):
        for j in range(n):
            C = clifford_algebra(make_form())
            assert C.algebra.dim == 16
            C._check_defining_identity()
            _with_cell_changed(C, i, j)
            with pytest.raises(CliffordError):
                C._check_defining_identity()


def _sampled_identity_holds(C, rng, count=100):
    """The sampled check the exact one replaced: v^2 = f(v) on random v."""
    F = C.form.field
    for _ in range(count):
        u = [F.random_element(rng, 5) for _ in range(C.form.dim)]
        v = C.vector_element(u)
        if v * v != C.algebra.scalar(C.form.evaluate(u)):
            return False
    return True


F4 = FiniteField(2, 2)
F5 = FiniteField(5)


@pytest.mark.parametrize("form", [
    qform(1, -2, 3, Fraction(5, 7)),
    QuadraticForm(F5, (1, 2, 3, 4), False),
    golden_f3t_form(),
    QuadraticForm(F4, ((F4.generator(), F4.one()),
                       (F4.one(), F4.generator())), True),
], ids=["Q", "F5", "F3(t)", "F4-char2"])
def test_sampled_identity_oracle(form):
    C = clifford_algebra(form)
    assert _sampled_identity_holds(C, random.Random(0))


def test_extract_E_is_freed_without_the_cyclic_collector():
    """E keeps the coordinates of its marked generators, not elements of
    itself, so it holds no reference cycle."""
    f = golden_f3t_form()
    gc.collect()
    gc.disable()
    try:
        E = extract_E(f)
        x, y = E.symbol_generators
        assert x.algebra is E and y.algebra is E
        ref = weakref.ref(E)
        del E, x, y
        assert ref() is None
    finally:
        gc.enable()
