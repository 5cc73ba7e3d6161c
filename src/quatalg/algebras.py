"""Finite-dimensional associative algebras given by structure constants.

An algebra is a field, a basis, and a multiplication tensor stored
sparsely as ``table[i][j] = {k: c}`` meaning e_i e_j = sum c e_k.
Elements are coordinate vectors over the field.  Everything is exact.
"""

from __future__ import annotations

import random

from . import linalg, polynomials as P
from .fields import FieldError


class AlgebraError(ValueError):
    pass


#: full associativity sweep is cubic in the dimension; above this we
#: verify a deterministic sample of triples instead
_FULL_CHECK_DIM = 64


class StructureConstantAlgebra:
    def __init__(self, field, table, basis_labels=None, unit=None, check=True):
        self.field = field
        self.dim = len(table)
        self.table = tuple(
            tuple(dict(cell) for cell in row) for row in table
        )
        if basis_labels is None:
            basis_labels = tuple("e%d" % i for i in range(self.dim))
        self.basis_labels = tuple(basis_labels)
        if unit is None:
            unit = self._find_unit()
        self.unit_coords = tuple(unit)
        self.symbol = None  # set by quaternion realizations
        self._symbol_coords = None
        if check:
            self._check_unit()
            self._check_associativity()

    @property
    def symbol_generators(self):
        """The marked generators (x, y) of a quaternion realization, or
        None.  Only their coordinates are stored: an algebra that held
        elements of itself would sit in a reference cycle and be freed
        only by the cyclic garbage collector."""
        if self._symbol_coords is None:
            return None
        return tuple(self.element(c) for c in self._symbol_coords)

    @symbol_generators.setter
    def symbol_generators(self, gens):
        if gens is not None and any(g.algebra != self for g in gens):
            raise AlgebraError("symbol generators lie in another algebra")
        self._symbol_coords = None if gens is None else tuple(
            g.coords for g in gens)

    # -- construction-time checks -------------------------------------

    def _find_unit(self):
        F = self.field
        n = self.dim
        # solve u with u e_j = e_j for all j
        rows, rhs = [], []
        for j in range(n):
            for k in range(n):
                row = [self.table[i][j].get(k, F.zero()) for i in range(n)]
                rows.append(row)
                rhs.append(F.one() if k == j else F.zero())
        u = linalg.solve(F, rows, rhs)
        if u is None:
            raise AlgebraError("algebra has no unit element")
        return u

    def _check_unit(self):
        one = self.element(self.unit_coords)
        for i in range(self.dim):
            e = self.basis_element(i)
            if one * e != e or e * one != e:
                raise AlgebraError("unit axiom fails on basis element %d" % i)

    def _check_associativity(self):
        n = self.dim
        if n <= _FULL_CHECK_DIM:
            triples = ((i, j, k) for i in range(n) for j in range(n)
                       for k in range(n))
        else:
            rng = random.Random(0)
            triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                       for _ in range(5000))
        F, T = self.field, self.table
        columns = [tuple(row[k] for row in T) for k in range(n)]
        products = {}  # c * t for table entries c, t, for this sweep only

        def combine(terms, cells):
            # sum over m of terms[m] * cells[m], straight from the table
            out = {}
            for m, c in terms.items():
                for k, t in cells[m].items():
                    p = products.get((c, t))
                    if p is None:
                        p = products[(c, t)] = F.mul(c, t)
                    out[k] = F.add(out[k], p) if k in out else p
            return out

        for i, j, k in triples:
            # (e_i e_j) e_k: T[i][j] against column k of the table;
            # e_i (e_j e_k): T[j][k] against row i
            left = combine(T[i][j], columns[k])
            right = combine(T[j][k], T[i])
            if not self._sparse_eq(left, right):
                raise AlgebraError(
                    "associativity fails at basis triple (%d,%d,%d)" % (i, j, k))

    # -- raw coordinate arithmetic ------------------------------------

    def _mul_sparse(self, a, b):
        F = self.field
        out = {}
        for i, ca in a.items():
            if F.is_zero(ca):
                continue
            for j, cb in b.items():
                if F.is_zero(cb):
                    continue
                c = F.mul(ca, cb)
                for k, t in self.table[i][j].items():
                    v = F.add(out.get(k, F.zero()), F.mul(c, t))
                    if F.is_zero(v):
                        out.pop(k, None)
                    else:
                        out[k] = v
        return out

    def _sparse_eq(self, a, b):
        F = self.field
        for k in set(a) | set(b):
            if not F.eq(a.get(k, F.zero()), b.get(k, F.zero())):
                return False
        return True

    def multiply(self, u, v):
        """Product of two coordinate vectors, as a coordinate vector."""
        F = self.field
        a = {i: c for i, c in enumerate(u) if not F.is_zero(c)}
        b = {i: c for i, c in enumerate(v) if not F.is_zero(c)}
        out = self._mul_sparse(a, b)
        return tuple(out.get(k, F.zero()) for k in range(self.dim))

    # -- element constructors -----------------------------------------

    def element(self, coords):
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise AlgebraError("coordinate length mismatch")
        return AlgebraElement(self, coords)

    def zero(self):
        return self.element([self.field.zero()] * self.dim)

    def one(self):
        return self.element(self.unit_coords)

    def scalar(self, c):
        F = self.field
        return self.element([F.mul(c, u) for u in self.unit_coords])

    def basis_element(self, i):
        F = self.field
        coords = [F.zero()] * self.dim
        coords[i] = F.one()
        return self.element(coords)

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def random_element(self, rng, bound=5):
        return self.element(
            [self.field.random_element(rng, bound) for _ in range(self.dim)])

    # -- multiplication operators --------------------------------------

    def left_mult_matrix(self, a):
        """Matrix of z -> a*z acting on coordinate columns."""
        F = self.field
        n = self.dim
        cols = [self.multiply(a.coords, self.basis_element(j).coords)
                for j in range(n)]
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def right_mult_matrix(self, a):
        """Matrix of z -> z*a acting on coordinate columns."""
        F = self.field
        n = self.dim
        cols = [self.multiply(self.basis_element(j).coords, a.coords)
                for j in range(n)]
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    # -- serialization ---------------------------------------------------

    def to_json(self):
        F = self.field
        table = [[[F.fmt(self.table[i][j].get(k, F.zero()))
                   for k in range(self.dim)]
                  for j in range(self.dim)]
                 for i in range(self.dim)]
        return {
            "field": F.descriptor_json(),
            "dim": self.dim,
            "basis": list(self.basis_labels),
            "table": table,
            "unit": [F.fmt(c) for c in self.unit_coords],
        }

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, StructureConstantAlgebra)
                and self.field == other.field
                and self.dim == other.dim
                and all(self._sparse_eq(self.table[i][j], other.table[i][j])
                        for i in range(self.dim) for j in range(self.dim)))

    def __repr__(self):
        return "StructureConstantAlgebra(dim=%d over %s)" % (
            self.dim, self.field)


def algebra_from_json(d, field=None):
    from .fields import field_from_json

    F = field_from_json(d["field"]) if field is None else field
    n = d["dim"]
    table = [[{k: F.parse(s) for k, s in enumerate(cell)
               if not F.is_zero(F.parse(s))}
              for cell in row] for row in d["table"]]
    unit = [F.parse(s) for s in d["unit"]] if "unit" in d else None
    return StructureConstantAlgebra(F, table, d.get("basis"), unit)


class AlgebraElement:
    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = tuple(coords)

    def _check_same(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraError("elements of different algebras")

    def __add__(self, other):
        self._check_same(other)
        F = self.algebra.field
        return AlgebraElement(
            self.algebra,
            tuple(F.add(a, b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check_same(other)
        F = self.algebra.field
        return AlgebraElement(
            self.algebra,
            tuple(F.sub(a, b) for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        F = self.algebra.field
        return AlgebraElement(self.algebra,
                              tuple(F.neg(a) for a in self.coords))

    def __mul__(self, other):
        self._check_same(other)
        return AlgebraElement(self.algebra,
                              self.algebra.multiply(self.coords, other.coords))

    def scale(self, c):
        F = self.algebra.field
        return AlgebraElement(self.algebra,
                              tuple(F.mul(c, a) for a in self.coords))

    def __pow__(self, n):
        if n < 0:
            raise AlgebraError("negative power; use inverse()")
        out = self.algebra.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        F = self.algebra.field
        return (self.algebra == other.algebra
                and all(F.eq(a, b)
                        for a, b in zip(self.coords, other.coords)))

    def __hash__(self):
        return hash(self.coords)

    def is_zero(self):
        F = self.algebra.field
        return all(F.is_zero(a) for a in self.coords)

    def is_central(self):
        for e in self.algebra.basis():
            if self * e != e * self:
                return False
        return True

    def central_value(self):
        """If self = c*1, return c, else None."""
        A, F = self.algebra, self.algebra.field
        # unit coords have some nonzero entry
        for i, u in enumerate(A.unit_coords):
            if not F.is_zero(u):
                c = F.div(self.coords[i], u)
                if self == A.scalar(c):
                    return c
                return None
        return None

    def inverse(self):
        A = self.algebra
        m = A.left_mult_matrix(self)
        x = linalg.solve(A.field, m, list(A.unit_coords))
        if x is None:
            return None
        return A.element(x)

    def commutes_with(self, other):
        return self * other == other * self

    def fmt(self):
        F = self.algebra.field
        return [F.fmt(c) for c in self.coords]

    def __repr__(self):
        F = self.algebra.field
        parts = []
        for c, lab in zip(self.coords, self.algebra.basis_labels):
            if not F.is_zero(c):
                parts.append("%s*%s" % (F.fmt(c), lab))
        return " + ".join(parts) if parts else "0"


# -- subspace utilities -------------------------------------------------


def centralizer(A, elements):
    """Basis of {z : zs = sz for all s}, with a commutation re-check."""
    F = A.field
    rows = []
    for s in elements:
        diff = [
            [F.sub(r, l) for r, l in zip(rrow, lrow)]
            for rrow, lrow in zip(A.right_mult_matrix(s),
                                  A.left_mult_matrix(s))
        ]
        rows.extend(diff)
    if not rows:
        basis = [list(b.coords) for b in A.basis()]
    else:
        basis = linalg.kernel_basis(F, rows)
    out = [A.element(v) for v in basis]
    for z in out:
        for s in elements:
            if not z.commutes_with(s):
                raise AlgebraError("centralizer certificate failed")
    return out


def center(A):
    return centralizer(A, A.basis())


def is_commutative(A):
    return len(center(A)) == A.dim


def subalgebra_closure(A, elements):
    """Basis of the unital subalgebra generated by the given elements."""
    F = A.field
    span = linalg.row_space_basis(F, [list(A.unit_coords)]
                                  + [list(e.coords) for e in elements])
    while True:
        extra = []
        for u in span:
            for v in span:
                w = A.multiply(u, v)
                if linalg.in_span(F, span, list(w)) is None:
                    extra.append(list(w))
        if not extra:
            return [A.element(v) for v in span]
        span = linalg.row_space_basis(F, span + extra)


def tensor_product(A, B):
    if A.field != B.field:
        raise AlgebraError("tensor factors over different fields")
    F = A.field
    nA, nB = A.dim, B.dim
    n = nA * nB
    table = [[None] * n for _ in range(n)]
    for i in range(nA):
        for j in range(nB):
            for k in range(nA):
                for l in range(nB):
                    cell = {}
                    for p, ca in A.table[i][k].items():
                        for q, cb in B.table[j][l].items():
                            c = F.mul(ca, cb)
                            if not F.is_zero(c):
                                cell[p * nB + q] = c
                    table[i * nB + j][k * nB + l] = cell
    labels = ["%s(x)%s" % (a, b)
              for a in A.basis_labels for b in B.basis_labels]
    unit = [F.zero()] * n
    for p, ca in enumerate(A.unit_coords):
        for q, cb in enumerate(B.unit_coords):
            unit[p * nB + q] = F.mul(ca, cb)
    T = StructureConstantAlgebra(F, table, labels, unit, check=False)
    T._check_unit()
    return T


def tensor_element(T, u, v):
    """The element u (x) v of a tensor product built by tensor_product."""
    F = T.field
    nB = T.dim // len(u.coords)
    coords = [F.zero()] * T.dim
    for p, ca in enumerate(u.coords):
        for q, cb in enumerate(v.coords):
            coords[p * nB + q] = F.mul(ca, cb)
    return T.element(coords)


def minimal_polynomial(a):
    """Least-degree monic annihilating polynomial, little-endian tuple."""
    A, F = a.algebra, a.algebra.field
    powers = [list(A.one().coords)]
    cur = A.one()
    while True:
        cur = cur * a
        dep = linalg.in_span(F, linalg.row_space_basis(F, powers),
                             list(cur.coords))
        if dep is not None:
            # express cur in the original power basis
            cols = [[powers[j][i] for j in range(len(powers))]
                    for i in range(A.dim)]
            sol = linalg.solve(F, cols, list(cur.coords))
            poly = [F.neg(c) for c in sol] + [F.one()]
            return P.normalize(F, poly)
        powers.append(list(cur.coords))


# -- zero divisors and division testing ---------------------------------


def _factor_once(F, poly):
    """One nontrivial monic factorization (g, h) of a monic poly, or None."""
    d = P.deg(poly)
    if d <= 1:
        return None
    if hasattr(F, "elements"):
        _, facs = P.factor_monic(F, poly)
        if len(facs) == 1 and facs[0][1] == 1:
            return None
        g = facs[0][0]
        h = P.divmod_(F, poly, g)[0]
        return g, h
    # infinite field: look for roots, and for quadratics use the square test
    if d == 2:
        # X^2 + bX + c
        c, b = poly[0], poly[1]
        if F.char == 2:
            return None
        two = F.add(F.one(), F.one())
        disc = F.sub(F.mul(b, b), F.mul(F.add(two, two), c))
        sq = F.is_square(disc)
        if not sq[0] or sq[1] is None:
            return None
        r = F.div(F.sub(sq[1], b), two)
        g = P.normalize(F, [F.neg(r), F.one()])
        return g, P.divmod_(F, poly, g)[0]
    # rational root search for small numerators/denominators
    for num in range(-30, 31):
        for den in range(1, 8):
            try:
                r = F.div(F.mul(F.from_int(num), F.one()), F.from_int(den))
            except FieldError:
                continue
            if F.is_zero(P.evaluate(F, poly, r)):
                g = P.normalize(F, [F.neg(r), F.one()])
                return g, P.divmod_(F, poly, g)[0]
    return None


def _poly_at_element(poly, a):
    A = a.algebra
    F = A.field
    out = A.zero()
    cur = A.one()
    for c in poly:
        out = out + cur.scale(c)
        cur = cur * a
    return out


def _zero_divisor_from(a):
    """Zero-divisor pair from an element with reducible minimal polynomial."""
    F = a.algebra.field
    m = minimal_polynomial(a)
    fac = _factor_once(F, m)
    if fac is None:
        return None
    g, h = fac
    u = _poly_at_element(g, a)
    v = _poly_at_element(h, a)
    if u.is_zero() or v.is_zero() or not (u * v).is_zero():
        return None
    return u, v


def find_zero_divisor(A, budget=2000):
    """A pair (u, v) of nonzero elements with u*v = 0, or None."""
    if A.dim == 1:
        return None
    candidates = list(A.basis())
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            candidates.append(A.basis_element(i) + A.basis_element(j))
    rng = random.Random(0)
    tried = 0
    for a in candidates:
        pair = _zero_divisor_from(a)
        if pair is not None:
            return pair
        tried += 1
        if tried >= budget:
            return None
    while tried < budget:
        a = A.random_element(rng)
        pair = _zero_divisor_from(a)
        if pair is not None:
            return pair
        tried += 1
    return None


class DivisionResult:
    """Three-valued division-algebra decision with optional witness."""

    def __init__(self, status, witness=None, method=""):
        self.status = status  # True / False / None
        self.witness = witness  # (u, v) zero-divisor pair when False
        self.method = method

    def __repr__(self):
        return "DivisionResult(%r, method=%r)" % (self.status, self.method)


def is_division(A, budget=2000):
    if A.dim == 1:
        return DivisionResult(True, method="trivial")
    F = A.field
    if A.symbol is not None:
        from .quaternions import division_via_norm_form

        return division_via_norm_form(A)
    pair = find_zero_divisor(A, budget)
    if pair is not None:
        return DivisionResult(False, pair, "zero-divisor")
    if hasattr(F, "elements"):
        size = len(list(F.elements())) ** A.dim
        if size <= 1 << 16:
            elems = _all_elements(A)
            for a in elems:
                if a.is_zero():
                    continue
                if a.inverse() is None:
                    m = A.left_mult_matrix(a)
                    v = linalg.kernel_basis(F, m)[0]
                    return DivisionResult(False, (a, A.element(v)),
                                          "exhaustive")
            return DivisionResult(True, method="exhaustive")
        if not is_commutative(A):
            # a finite division ring is commutative, so keep searching
            rng = random.Random(1)
            for _ in range(50 * budget):
                pair = _zero_divisor_from(A.random_element(rng))
                if pair is not None:
                    return DivisionResult(False, pair, "zero-divisor")
    return DivisionResult(None, method="budget-exhausted")


def _all_elements(A):
    import itertools

    F = A.field
    for coords in itertools.product(list(F.elements()), repeat=A.dim):
        yield A.element(coords)


# -- isomorphisms --------------------------------------------------------


def apply_matrix(B, phi, a):
    """Image in B of element a under the coordinate matrix phi."""
    return B.element(linalg.mat_vec(B.field, phi, list(a.coords)))


def verify_isomorphism(A, B, phi):
    """Check that phi is a unital multiplicative bijection A -> B."""
    F = A.field
    if linalg.invert(F, phi) is None:
        return False
    one = B.element(linalg.mat_vec(F, phi, list(A.unit_coords)))
    if one != B.one():
        return False
    for i in range(A.dim):
        fi = apply_matrix(B, phi, A.basis_element(i))
        for j in range(A.dim):
            fj = apply_matrix(B, phi, A.basis_element(j))
            prod = apply_matrix(B, phi, A.basis_element(i)
                                * A.basis_element(j))
            if fi * fj != prod:
                return False
    return True


def matrix_algebra_m2(F):
    """M_2(F) on the basis e11, e12, e21, e22."""
    def unit_pair(i):
        return divmod(i, 2)

    table = [[{} for _ in range(4)] for _ in range(4)]
    for i in range(4):
        a, b = unit_pair(i)
        for j in range(4):
            c, d = unit_pair(j)
            if b == c:
                table[i][j][2 * a + d] = F.one()
    return StructureConstantAlgebra(
        F, table, ("e11", "e12", "e21", "e22"),
        (F.one(), F.zero(), F.zero(), F.one()))


def split_as_m2(A, budget=2000):
    """For a split 4-dim central simple algebra, an isomorphism matrix
    A -> M_2(F) (acting on coordinates); None if no zero divisor found."""
    if A.dim != 4:
        raise AlgebraError("split_as_m2 expects a 4-dimensional algebra")
    F = A.field
    pair = find_zero_divisor(A, budget)
    if pair is None:
        return None
    u = pair[1]  # u*v = 0 with v != 0, so left ideal A*u is proper
    ideal = _left_ideal(A, u)
    guard = 0
    rng = random.Random(2)
    while len(ideal) != 2 and guard < 200:
        w = A.element([F.sum_([F.mul(F.random_element(rng, 3), row[i])
                               for row in ideal])
                       for i in range(A.dim)])
        if w.is_zero():
            guard += 1
            continue
        sub = _left_ideal(A, w)
        if 0 < len(sub) < len(ideal):
            ideal = sub
        guard += 1
    if len(ideal) != 2:
        return None
    w1, w2 = ideal
    # rho(a) = matrix of left multiplication by a on (w1, w2)
    phi = []
    cols = [[ideal[j][i] for j in range(2)] for i in range(A.dim)]
    rows_out = []
    for i in range(A.dim):
        a = A.basis_element(i)
        m = []
        for w in ideal:
            img = A.multiply(a.coords, tuple(w))
            sol = linalg.solve(F, cols, list(img))
            if sol is None:
                return None
            m.append(sol)
        # a*wj = m[j][0]*w1 + m[j][1]*w2; matrix entry (i,j) of rho is
        # coefficient of w_i in a*w_j
        rows_out.append((m[0][0], m[1][0], m[0][1], m[1][1]))
    # phi maps coords of a to (m11, m12, m21, m22)
    phi = [[rows_out[j][i] for j in range(A.dim)] for i in range(4)]
    M2 = matrix_algebra_m2(F)
    if not verify_isomorphism(A, M2, phi):
        return None
    return phi


def _left_ideal(A, u):
    F = A.field
    rows = [list(A.multiply(b.coords, u.coords)) for b in A.basis()]
    return linalg.row_space_basis(F, rows)


def _single_generator_iso(A, B):
    """Isomorphism search for algebras generated by one element (finite F)."""
    F = A.field
    if not hasattr(F, "elements"):
        return None
    gen = None
    for a in A.basis():
        if len(subalgebra_closure(A, [a])) == A.dim:
            gen = a
            break
    if gen is None:
        return None
    m = minimal_polynomial(gen)
    if len(list(F.elements())) ** B.dim > 1 << 14:
        return None
    for h in _all_elements(B):
        if minimal_polynomial(h) != m:
            continue
        # phi(gen^k) = h^k, extended linearly
        pa, pb = A.one(), B.one()
        src, dst = [list(pa.coords)], [list(pb.coords)]
        for _ in range(A.dim - 1):
            pa, pb = pa * gen, pb * h
            src.append(list(pa.coords))
            dst.append(list(pb.coords))
        if linalg.rank(F, src) != A.dim:
            continue
        inv = linalg.invert(F, [[src[j][i] for j in range(A.dim)]
                                for i in range(A.dim)])
        if inv is None:
            continue
        dmat = [[dst[j][i] for j in range(A.dim)] for i in range(A.dim)]
        phi = linalg.mat_mul(F, dmat, inv)
        if verify_isomorphism(A, B, phi):
            return phi
    return None


def find_isomorphism(A, B, budget=2000):
    """A coordinate matrix of a unital algebra isomorphism, or None."""
    if A.field != B.field or A.dim != B.dim:
        return None
    F = A.field
    if A == B:
        return linalg.identity(F, A.dim)
    if A.dim == 1:
        u = A.unit_coords[0]
        v = B.unit_coords[0]
        return [[F.div(v, u)]]
    if A.dim == 4:
        pa = split_as_m2(A, budget)
        pb = split_as_m2(B, budget)
        if pa is not None and pb is not None:
            phi = linalg.mat_mul(F, linalg.invert(F, pb), pa)
            if verify_isomorphism(A, B, phi):
                return phi
        if (pa is None) != (pb is None):
            da = is_division(A, budget)
            db = is_division(B, budget)
            if da.status is not None and db.status is not None \
                    and da.status != db.status:
                return None
        if A.symbol is not None and B.symbol is not None:
            from .quaternions import isomorphism_between_realizations

            return isomorphism_between_realizations(A, B, budget=budget)
    return _single_generator_iso(A, B)
