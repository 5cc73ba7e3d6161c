"""The arithmetic kernels under the algebra layer.

* Field axioms as Hypothesis properties over all five field kinds (Q,
  GF(p), GF(p^k), F_q(t), F_q((t))), with canonical payloads for every
  result.
* GF(p^k) ``mul`` and ``inv`` against the polynomial definition (product
  modulo the defining polynomial, inverse by the extended Euclidean
  algorithm) on every pair of elements.
* Pinned outputs of ``multiply``, left and right multiplication matrices,
  ``rref``, ``inverse`` and ``centralizer`` on seeded inputs over GF(2),
  GF(3), GF(5), GF(4), GF(9) and Q at dimensions 4, 16 and 64.  Each case
  is a SHA-256 digest of the ``repr`` of the outputs, so a change of
  payload type, an unreduced residue or a different pivot order fails.
  ``python tests/test_kernels.py --record`` rewrites
  ``kernel_golden.json`` from the code it runs; only do that at a commit
  whose outputs are known to be right.
"""

import hashlib
import json
import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatalg import linalg
from quatalg import polynomials as P
from quatalg.algebras import centralizer
from quatalg.fields import FiniteField, FunctionField, LaurentField, Rationals
from quatalg.quaternions import QuaternionSymbol, TensorPresentation

GOLDEN = os.path.join(os.path.dirname(__file__), "kernel_golden.json")

# -- field axioms ----------------------------------------------------------

AXIOM_FIELDS = [
    Rationals(),
    FiniteField(2), FiniteField(3), FiniteField(7),
    FiniteField(2, 2), FiniteField(2, 3), FiniteField(3, 2),
    FunctionField(FiniteField(3)), FunctionField(FiniteField(2, 2)),
    FunctionField(FiniteField(3, 2)),
    LaurentField(FiniteField(5)), LaurentField(FiniteField(2)),
]


def _base_elements(B):
    if B.k == 1:
        return st.integers(0, B.p - 1)
    return st.tuples(*[st.integers(0, B.p - 1)] * B.k)


def _elements(F):
    if F.kind == "Q":
        return st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60))
    if F.kind == "GF":
        return _base_elements(F)
    B = F.base
    coeffs = st.lists(_base_elements(B), max_size=4)
    den = coeffs.map(lambda cs: P.normalize(B, cs)).filter(bool)
    return st.builds(lambda n, d: F._make(P.normalize(B, n), d), coeffs, den)


def _canonical(F, a):
    if F.kind == "Q":
        return type(a) is Fraction
    if F.kind == "GF":
        if F.k == 1:
            return type(a) is int and 0 <= a < F.p
        return (type(a) is tuple and len(a) == F.k
                and all(type(c) is int and 0 <= c < F.p for c in a))
    B = F.base
    num, den = a
    if not all(type(p) is tuple and all(_canonical(B, c) for c in p)
               for p in (num, den)):
        return False
    if not den or not B.is_one(den[-1]) or (num and B.is_zero(num[-1])):
        return False
    if not num:
        return den == (B.one(),)
    return P.deg(P.gcd(B, num, den)) == 0


@pytest.mark.parametrize("F", AXIOM_FIELDS, ids=lambda f: f.name)
def test_field_axioms_hypothesis(F):
    elems = _elements(F)

    @settings(max_examples=40, deadline=None)
    @given(elems, elems, elems)
    def check(a, b, c):
        for x in (a, b, c):
            assert _canonical(F, x)
        results = [F.add(a, b), F.sub(a, b), F.mul(a, b), F.neg(a)]
        for x in results:
            assert _canonical(F, x)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == F.zero()
        assert F.add(F.sub(a, b), b) == a
        assert F.mul(a, F.one()) == a
        assert F.is_zero(F.mul(a, F.zero()))
        if not F.is_zero(a):
            ia = F.inv(a)
            assert _canonical(F, ia)
            assert F.mul(a, ia) == F.one()
            assert _canonical(F, F.div(b, a))
            assert F.mul(F.div(b, a), a) == b

    check()


# -- GF(p^k) against the polynomial definition ----------------------------

EXTENSIONS = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]


@pytest.mark.parametrize("p,k", EXTENSIONS, ids=lambda v: str(v))
def test_extension_mul_inv_match_polynomial_path(p, k):
    F = FiniteField(p, k)
    B, mod = F.base, F.modulus

    def pad(poly):
        return tuple(poly) + (0,) * (k - len(poly))

    elems = list(F.elements())
    assert len(elems) == p ** k
    for a in elems:
        pa = P.normalize(B, a)
        for b in elems:
            want = pad(P.mod(B, P.mul(B, pa, P.normalize(B, b)), mod))
            assert F.mul(a, b) == want, (a, b)
        if pa:
            assert F.inv(a) == pad(P.inv_mod(B, pa, mod)), a
    # a second instance of the same field agrees with the first
    G = FiniteField(p, k)
    for a in elems[:20]:
        for b in elems:
            assert G.mul(a, b) == F.mul(a, b)


def test_extension_inverse_of_zero_raises():
    F = FiniteField(3, 2)
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero())


# -- pinned outputs of the structure-constant layer ------------------------

KERNEL_FIELDS = [("GF2", FiniteField(2)), ("GF3", FiniteField(3)),
                 ("GF5", FiniteField(5)), ("GF4", FiniteField(2, 2)),
                 ("GF9", FiniteField(3, 2)), ("Q", Rationals())]
FACTORS = [1, 2, 3]  # dimension 4, 16, 64


def _nonzero(F, rng):
    while True:
        c = F.random_element(rng, 4)
        if not F.is_zero(c):
            return c


def _algebra(F, n, rng):
    char2 = F.char == 2
    symbols = [QuaternionSymbol(F, F.random_element(rng, 4) if char2
                                else _nonzero(F, rng), _nonzero(F, rng),
                                char2)
               for _ in range(n)]
    return TensorPresentation(symbols).algebra


def _sparse(A, rng, nonzero):
    F = A.field
    coords = [F.zero()] * A.dim
    for i in rng.sample(range(A.dim), nonzero):
        coords[i] = F.random_element(rng, 3)
    return A.element(coords)


def _random_matrix(F, rng, rows, cols, rank):
    """A rows x cols matrix of rank at most ``rank``."""
    left = [[F.random_element(rng, 3) for _ in range(rank)]
            for _ in range(rows)]
    right = [[F.random_element(rng, 3) for _ in range(cols)]
             for _ in range(rank)]
    return linalg.mat_mul(F, left, right)


def kernel_cases(fields=KERNEL_FIELDS):
    """(name, outputs) for every pinned case, in a fixed order."""
    for fname, F in fields:
        for n in FACTORS:
            rng = random.Random(1000 * n + len(fname) + F.char)
            A = _algebra(F, n, rng)
            d = A.dim
            name = "%s-dim%d" % (fname, d)
            # dense 64 x 64 eliminations over GF(4), GF(9) and Q take
            # seconds each, so dimension 64 gets fewer dense inputs
            dense = [A.random_element(rng, 3)
                     for _ in range(4 if d < 64 else 2)]
            sparse = [_sparse(A, rng, 3) for _ in range(4)]
            side = min(d, 16)
            elems = dense + sparse
            yield name + "-multiply", [
                A.multiply(u.coords, v.coords)
                for u, v in zip(elems, elems[1:] + elems[:1])]
            yield name + "-multmatrix", [
                (A.left_mult_matrix(u), A.right_mult_matrix(u))
                for u in (dense[0], sparse[0])]
            mats = [A.left_mult_matrix(dense[1]),
                    A.left_mult_matrix(sparse[1]),
                    _random_matrix(F, rng, side, side + 3, side // 2 + 1),
                    _random_matrix(F, rng, side + 2, side, side - 1)]
            yield name + "-rref", [linalg.rref(F, mat) for mat in mats]
            inverses = []
            for u in elems + [A.one(), A.zero()]:
                inv = u.inverse()
                inverses.append(None if inv is None else inv.coords)
            yield name + "-inverse", inverses
            gens = [u.coords for u in (sparse[2], sparse[3])]
            yield name + "-centralizer", [
                [z.coords for z in centralizer(A, [A.element(g)])]
                for g in gens] + [
                [z.coords for z in centralizer(A, [A.element(g)
                                                   for g in gens])]]


def _digest(outputs):
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_kernel_golden_covers_every_field_and_dimension():
    golden = _golden()
    for fname, _ in KERNEL_FIELDS:
        for d in (4, 16, 64):
            for what in ("multiply", "multmatrix", "rref", "inverse",
                         "centralizer"):
                assert "%s-dim%d-%s" % (fname, d, what) in golden


@pytest.mark.parametrize("fname", [f for f, _ in KERNEL_FIELDS])
def test_kernel_outputs_pinned(fname):
    golden = _golden()
    field = dict(KERNEL_FIELDS)[fname]
    seen = 0
    for name, outputs in kernel_cases([(fname, field)]):
        assert _digest(outputs) == golden[name], name
        seen += 1
    assert seen == 5 * len(FACTORS)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    with open(GOLDEN, "w") as fh:
        json.dump({name: _digest(out) for name, out in kernel_cases()},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
