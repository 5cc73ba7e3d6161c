import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatalg.fields import FiniteField, FunctionField, LaurentField, Rationals
from quatalg.forms import (
    FormError,
    QuadraticForm,
    adjoin_root,
    discriminant,
    form_from_json,
    hyperbolic_plane,
    is_isometric,
    is_isotropic,
    quaternion_norm_form,
    represents,
    trivialize_discriminant,
    witt_decompose,
)

Q = Rationals()
F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)
F5 = FiniteField(5)
L3 = LaurentField(F3)


def qform(*entries):
    return QuadraticForm(Q, tuple(Fraction(e) for e in entries), False)


def test_evaluate_block_definition():
    # [a,b](u,v) = a u^2 + u v + b v^2
    f = QuadraticForm(F2, ((1, 1),), True)
    assert f.evaluate([1, 0]) == 1
    assert f.evaluate([0, 1]) == 1
    assert f.evaluate([1, 1]) == 1  # 1 + 1 + 1


def test_discriminant_examples():
    f = QuadraticForm(F2, ((1, 1), (1, 0)), True)
    d = discriminant(f)
    assert d.representative == 1 and not d.trivial  # P(F_2) = {0}

    d = discriminant(qform(1, -1))
    assert d.representative == 1 and d.trivial

    d = discriminant(QuadraticForm(F3, (1, 1), False))
    assert d.representative == 2 and not d.trivial


def test_discriminant_additive_under_sum():
    rng = random.Random(11)
    for F in (F2, F3, F4, F5):
        for _ in range(100):
            if F.char == 2:
                f = QuadraticForm(F, tuple((F.random_element(rng), F.random_element(rng))
                                           for _ in range(rng.randint(1, 3))), True)
                g = QuadraticForm(F, tuple((F.random_element(rng), F.random_element(rng))
                                           for _ in range(rng.randint(1, 3))), True)
                s = discriminant(f.orthogonal_sum(g)).representative
                assert s == F.add(discriminant(f).representative,
                                  discriminant(g).representative)
            else:
                def rand_diag(k):
                    out = []
                    while len(out) < k:
                        a = F.random_element(rng)
                        if not F.is_zero(a):
                            out.append(a)
                    return tuple(out)

                f = QuadraticForm(F, rand_diag(2 * rng.randint(1, 2)), False)
                g = QuadraticForm(F, rand_diag(2 * rng.randint(1, 2)), False)
                s = discriminant(f.orthogonal_sum(g)).representative
                prod = F.mul(discriminant(f).representative,
                             discriminant(g).representative)
                # equal in F^x / squares
                assert F.is_square(F.mul(s, prod))[0]


def test_isotropy_examples():
    res = is_isotropic(qform(1, -1))
    assert res.status is True
    assert qform(1, -1).evaluate(res.witness) == 0

    assert is_isotropic(qform(1, 1, 1, 1)).status is False

    assert is_isotropic(QuadraticForm(F2, ((1, 1),), True)).status is False

    t = L3.t()
    one, two = L3.one(), L3.from_int(2)
    f = QuadraticForm(L3, (one, L3.neg(two), L3.neg(t), L3.mul(two, t)), False)
    assert is_isotropic(f).status is False


def test_witt_decompose_examples():
    d = witt_decompose(qform(1, -1))
    assert d.index == 1 and d.anisotropic.dim == 0
    assert d.verify()

    d = witt_decompose(qform(1, 1, -1, -1))
    assert d.index == 2 and d.anisotropic.dim == 0
    assert d.verify()

    d = witt_decompose(qform(1, 1, 1, 1))
    assert d.index == 0 and d.anisotropic == qform(1, 1, 1, 1)
    assert d.verify()


def test_witt_decompose_finite_char2():
    f = QuadraticForm(F2, ((0, 0), (1, 1)), True)
    d = witt_decompose(f)
    assert d.index == 1 and d.anisotropic.dim == 2
    assert d.verify()


def test_isometric_examples():
    f = QuadraticForm(F5, (1, 1), False)
    assert is_isometric(f, f)
    g = QuadraticForm(F5, (2, 2), False)
    assert is_isometric(f, g)
    assert not is_isometric(QuadraticForm(F3, (1, 1), False),
                            QuadraticForm(F3, (1, 2), False))


def _zero_count(f):
    F = f.field
    n = 0
    for vec in itertools.product(list(F.elements()), repeat=f.dim):
        if F.is_zero(f.evaluate(list(vec))):
            n += 1
    return n


def _all_forms(F, dim):
    if F.char == 2:
        blocks = list(itertools.product(F.elements(), repeat=2))
        for combo in itertools.product(blocks, repeat=dim // 2):
            yield QuadraticForm(F, combo, True)
    else:
        nz = [a for a in F.elements() if not F.is_zero(a)]
        for combo in itertools.product(nz, repeat=dim):
            yield QuadraticForm(F, combo, False)


@pytest.mark.parametrize("F", [F2, F3, F4, F5], ids=lambda f: f.name)
def test_isometry_matches_zero_count_oracle(F):
    # over a finite field, dim + number of zeros is a complete invariant
    # of nonsingular even-dimensional forms (two classes per dimension)
    rng = random.Random(3)
    for dim in (2, 4):
        forms = list(_all_forms(F, dim))
        if len(forms) > 12:
            forms = rng.sample(forms, 12)
        for f, g in itertools.combinations(forms, 2):
            assert is_isometric(f, g) == (_zero_count(f) == _zero_count(g)), (f, g)


def test_isometry_matches_exhaustive_change_of_basis_dim2():
    # full GL_2 search over F_3 as an independent oracle
    F = F3
    mats = [m for m in itertools.product(F.elements(), repeat=4)
            if (m[0] * m[3] - m[1] * m[2]) % 3 != 0]

    def oracle(f, g):
        for m in mats:
            a = g.evaluate([m[0], m[2]])
            b = g.evaluate([m[1], m[3]])
            c = g.polar([m[0], m[2]], [m[1], m[3]])
            if (a == f.coeffs[0] and b == f.coeffs[1]
                    and c == f.polar([1, 0], [0, 1])):
                return True
        return False

    for f in _all_forms(F, 2):
        for g in _all_forms(F, 2):
            assert is_isometric(f, g) == oracle(f, g), (f, g)


def test_trivialize_char2_example():
    f = QuadraticForm(F2, ((1, 1),), True)
    delta = discriminant(f).representative
    ext = adjoin_root(F2, delta)
    fp, hyp = trivialize_discriminant(f, ext)
    assert not hyp
    assert fp.coeffs == ((1, 0),)
    assert discriminant(fp).trivial
    # both extensions to F_4 are isometric (here: both hyperbolic)
    K, embed = ext.ext, ext.embed
    fK = f.extend(K, embed)
    fpK = fp.extend(K, embed)
    assert is_isometric(fK, fpK)


def test_trivialize_charne2_example():
    f = QuadraticForm(F5, (2, 1), False)
    delta = discriminant(f).representative
    assert delta == 3  # -2 mod 5
    ext = adjoin_root(F5, delta)
    fp, hyp = trivialize_discriminant(f, ext)
    assert not hyp
    assert fp.coeffs == (F5.mul(F5.inv(3), 2), 1)
    assert discriminant(fp).trivial
    K, embed = ext.ext, ext.embed
    assert is_isometric(f.extend(K, embed), fp.extend(K, embed))


def test_trivialize_already_trivial():
    f = qform(1, -1)
    ext = adjoin_root(Q, discriminant(f).representative)
    fp, hyp = trivialize_discriminant(f, ext)
    assert not hyp
    assert is_isometric(f, fp)


def test_represents_examples():
    res = represents(qform(1, 1), Fraction(2))
    assert res.status is True
    assert qform(1, 1).evaluate(res.witness) == 2

    assert represents(qform(1, 1), Fraction(-1)).status is False

    f = QuadraticForm(F4, ((F4.one(), F4.one()),), True)
    omega = F4.generator()
    res = represents(f, omega)
    assert res.status is True
    assert f.evaluate(res.witness) == omega

    with pytest.raises(FormError):
        represents(qform(1, 1), Fraction(0))


def test_quaternion_norm_form_examples():
    f = quaternion_norm_form(Q, Fraction(-1), Fraction(-1))
    assert f.coeffs == (1, 1, 1, 1)
    g = quaternion_norm_form(Q, Fraction(1), Fraction(7))
    assert is_isotropic(g).status is True
    h = quaternion_norm_form(F2, F2.one(), F2.one())
    assert h.coeffs == ((1, 1), (1, 1))
    # norm forms always have trivial discriminant
    rng = random.Random(8)
    for F in (F3, F5, F4, F2):
        for _ in range(30):
            a = F.random_element(rng)
            b = F.random_element(rng)
            if F.is_zero(b) or (F.char != 2 and F.is_zero(a)):
                continue
            assert discriminant(quaternion_norm_form(F, a, b)).trivial


def test_hyperbolic_plane_canonical():
    assert hyperbolic_plane(Q).coeffs == (1, -1)
    assert hyperbolic_plane(F2).coeffs == ((0, 0),)


def test_form_json_roundtrip():
    for f in (qform(1, -1), QuadraticForm(F2, ((1, 1), (0, 1)), True)):
        assert form_from_json(f.to_json()) == f


def test_universality_of_trivial_disc_forms_over_f3t():
    """Dim-4 trivial-discriminant forms over F_3(t) represent everything
    the local-global machinery can decide (never 'false')."""
    F3t = FunctionField(F3)
    rng = random.Random(21)
    tried = 0
    while tried < 50:
        a, b, c = (F3t.random_poly_element(rng, 1) for _ in range(3))
        if any(F3t.is_zero(x) for x in (a, b, c)):
            continue
        d = F3t.mul(F3t.mul(a, b), c)  # abcd = (abc)^2 is a square
        f = QuadraticForm(F3t, (a, b, c, d), False)
        assert discriminant(f).trivial
        target = F3t.random_poly_element(rng, 1)
        if F3t.is_zero(target):
            continue
        res = represents(f, target, search_bound=1)
        assert res.status is not False, (f, target)
        tried += 1


def test_represents_witness_pinned_over_f3t():
    """The polynomial witness search returns its first hit in candidate
    order: <1, t+1> represents t^3 + 2t + 1 as (t, 2t+1)."""
    F3t = FunctionField(F3)
    t = F3t.t()
    f = QuadraticForm(F3t, (F3t.one(), F3t.add(t, F3t.one())), False)
    c = F3t.add(F3t.mul(t, F3t.mul(t, t)),
                F3t.add(F3t.mul(F3t.from_int(2), t), F3t.one()))
    res = represents(f, c)
    assert res.status is True and res.method == "hasse-minkowski"
    assert [F3t.fmt(x) for x in res.witness] == ["t", "2*t+1"]


F9 = FiniteField(3, 2)


def _zero_by_enumeration(F, diag, target):
    """Some nonzero x with sum a_i x_i^2 = target, by full enumeration."""
    for x in itertools.product(list(F.elements()), repeat=len(diag)):
        if all(F.is_zero(c) for c in x):
            continue
        value = F.zero()
        for a, c in zip(diag, x):
            value = F.add(value, F.mul(a, F.mul(c, c)))
        if F.eq(value, target):
            return x
    return None


@given(st.sampled_from([F3, F5, F9]), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_any_rank_isotropy_and_representation_match_enumeration(F, n, data):
    units = list(F.nonzero_elements())
    diag = tuple(data.draw(st.sampled_from(units)) for _ in range(n))
    c = data.draw(st.sampled_from(units))
    f = QuadraticForm(F, diag, False)

    res = is_isotropic(f)
    assert res.status is (_zero_by_enumeration(F, diag, F.zero()) is not None)
    if res.status:
        assert not all(F.is_zero(x) for x in res.witness)
        assert F.is_zero(f.evaluate(res.witness))

    rep = represents(f, c)
    assert rep.status is (_zero_by_enumeration(F, diag, c) is not None)
    if rep.status:
        assert F.eq(f.evaluate(rep.witness), c)

    dec = witt_decompose(f)
    assert dec.verify() and 2 * dec.index + dec.anisotropic.dim == n
