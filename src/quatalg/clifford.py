"""Clifford algebras of even-dimensional quadratic forms.

The Clifford algebra of a form f on generators x_1, ..., x_2m is built
on the monomial basis indexed by subsets of {1, ..., 2m}, ordered by
(size, lexicographic).  Products are computed by moving generators into
increasing position with the two rewriting rules

    x_i^2 = f(e_i) * 1,
    x_i x_j = b(e_i, e_j) * 1 - x_j x_i   (i > j),

where b is the polar form of f; the second rule is valid verbatim in
both characteristics.  The even part and the idempotent splitting of
trivial-discriminant forms live here too.
"""

from __future__ import annotations

from . import linalg
from .algebras import AlgebraError, StructureConstantAlgebra
from .forms import FormError, discriminant

MAX_FORM_DIM = 8


class CliffordError(ValueError):
    pass


class CliffordAlgebra:
    """Clifford algebra of an even-dimensional quadratic form."""

    def __init__(self, form):
        if form.dim % 2 != 0 or form.dim == 0:
            raise CliffordError("form dimension must be even and positive")
        if form.dim > MAX_FORM_DIM:
            raise CliffordError(
                "form dimension %d exceeds the supported ceiling %d"
                % (form.dim, MAX_FORM_DIM))
        self.form = form
        F = form.field
        n = form.dim
        self.subsets = sorted(
            (tuple(i for i in range(n) if mask >> i & 1)
             for mask in range(1 << n)),
            key=lambda s: (len(s), s))
        self.index = {s: i for i, s in enumerate(self.subsets)}
        self._q = [form.evaluate(form.basis_vector(i)) for i in range(n)]
        self._b = [[form.polar(form.basis_vector(i), form.basis_vector(j))
                    for j in range(n)] for i in range(n)]
        self._pair_cache = {}
        dim = 1 << n
        table = [[None] * dim for _ in range(dim)]
        for i, s in enumerate(self.subsets):
            for j, t in enumerate(self.subsets):
                prod = self._word_product(s + t)
                table[i][j] = {self.index[w]: c for w, c in prod.items()}
        labels = ["1"] + ["".join("x%d" % (i + 1) for i in s)
                          for s in self.subsets[1:]]
        unit = [F.zero()] * dim
        unit[0] = F.one()
        self.algebra = StructureConstantAlgebra(F, table, labels, unit)
        self.generators = [self.algebra.basis_element(self.index[(i,)])
                           for i in range(n)]
        self._check_defining_identity()

    def _word_product(self, word):
        """Sparse expansion {sorted_subset: coeff} of a generator word."""
        word = tuple(word)
        cached = self._pair_cache.get(word)
        if cached is not None:
            return cached
        F = self.form.field
        out = {}
        stack = [(word, F.one())]
        while stack:
            w, c = stack.pop()
            pos = None
            for p in range(len(w) - 1):
                if w[p] >= w[p + 1]:
                    pos = p
                    break
            if pos is None:
                v = F.add(out.get(w, F.zero()), c)
                if F.is_zero(v):
                    out.pop(w, None)
                else:
                    out[w] = v
                continue
            i, j = w[pos], w[pos + 1]
            rest = w[:pos] + w[pos + 2:]
            if i == j:
                stack.append((rest, F.mul(c, self._q[i])))
            else:
                if not F.is_zero(self._b[i][j]):
                    stack.append((rest, F.mul(c, self._b[i][j])))
                swapped = w[:pos] + (j, i) + w[pos + 2:]
                stack.append((swapped, F.neg(c)))
        self._pair_cache[word] = out
        return out

    def _check_defining_identity(self):
        # the table comes from the rewriting rules, so re-derive x^2 = f(x)
        # against form.evaluate; v -> v*v - f(v)*1 is quadratic in v, so by
        # polarization it vanishes iff it vanishes on every e_i and
        # e_i + e_j (i < j), in every characteristic: the check is exact
        F = self.form.field
        n = self.form.dim
        vectors = [self.form.basis_vector(i) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                u = self.form.basis_vector(i)
                u[j] = F.one()
                vectors.append(u)
        for u in vectors:
            elt = self.vector_element(u)
            if elt * elt != self.algebra.scalar(self.form.evaluate(u)):
                raise CliffordError("defining identity fails")

    def vector_element(self, u):
        """The element sum u_i x_i of the Clifford algebra."""
        elt = self.algebra.zero()
        for c, x in zip(u, self.generators):
            elt = elt + x.scale(c)
        return elt

    def monomial(self, subset):
        return self.algebra.basis_element(self.index[tuple(subset)])


def clifford_algebra(form):
    return CliffordAlgebra(form)


def even_part(C):
    """The even subalgebra, re-based on the even-subset monomials."""
    F = C.form.field
    even_ids = [i for i, s in enumerate(C.subsets) if len(s) % 2 == 0]
    pos = {gi: li for li, gi in enumerate(even_ids)}
    A = C.algebra
    table = [[{pos[k]: c for k, c in A.table[gi][gj].items()}
              for gj in even_ids] for gi in even_ids]
    labels = [A.basis_labels[gi] for gi in even_ids]
    unit = [A.unit_coords[gi] for gi in even_ids]
    return StructureConstantAlgebra(F, table, labels, unit)


def _corner(A, e, markers=()):
    """The unital algebra e*A*e re-based, plus corner coordinates of any
    marker elements (which must lie in the corner)."""
    F = A.field
    rows = [list((e * b * e).coords) for b in A.basis()]
    basis = linalg.row_space_basis(F, rows)
    d = len(basis)
    elems = [A.element(v) for v in basis]
    table = []
    for u in elems:
        row = []
        for v in elems:
            w = u * v
            coords = linalg.in_span(F, basis, list(w.coords))
            if coords is None:
                raise AlgebraError("corner is not multiplicatively closed")
            row.append({k: c for k, c in enumerate(coords)
                        if not F.is_zero(c)})
        table.append(row)
    unit = linalg.in_span(F, basis, list(e.coords))
    if unit is None:
        raise AlgebraError("idempotent does not lie in its own corner")
    out = StructureConstantAlgebra(F, table, None, unit)
    marker_coords = []
    for m in markers:
        mc = linalg.in_span(F, basis, list(m.coords))
        if mc is None:
            raise AlgebraError("marker element is outside the corner")
        marker_coords.append(out.element(mc))
    return out, marker_coords


def extract_E(form):
    """Split the even Clifford algebra of a trivial-discriminant form at
    its canonical central idempotent and return the corner factor.

    For a form of dimension 2m the result has dimension 4^(m-1).  For
    m = 2 the corner carries a marked quaternion presentation
    (``symbol`` / ``symbol_generators`` attributes).
    """
    if form.dim % 2:
        raise FormError("dimension must be even")
    d = discriminant(form)
    if not d.trivial:
        raise CliffordError(
            "discriminant is nontrivial; the center of the even part is a "
            "quadratic field and the algebra does not split")
    F = form.field
    C = clifford_algebra(form)
    A = C.algebra
    m = form.dim // 2
    if F.char != 2:
        z = A.one()
        for x in C.generators:
            z = z * x
        gamma = (z * z).central_value()
        if gamma is None:
            raise CliffordError("product monomial is not square-central")
        ok, c = F.is_square(gamma)
        if not ok or c is None:
            raise CliffordError("no square root available for the splitting")
        two = F.add(F.one(), F.one())
        inv2c = F.inv(F.mul(two, c))
        e = (z + A.scalar(c)).scale(inv2c)
    else:
        z = A.zero()
        for i in range(m):
            z = z + C.generators[2 * i] * C.generators[2 * i + 1]
        delta = (z * z + z).central_value()
        if delta is None:
            raise CliffordError("block-sum element is not Artin-Schreier")
        ok, s = F.artin_schreier_solve(delta)
        if not ok or s is None:
            raise CliffordError("no Artin-Schreier root for the splitting")
        e = z + A.scalar(s)
    even_monomials = [A.basis_element(i) for i, s in enumerate(C.subsets)
                      if len(s) % 2 == 0]
    if e * e != e or not all(e.commutes_with(u) for u in even_monomials):
        raise CliffordError("splitting idempotent check failed")

    markers = []
    if m == 2:
        x1, x2, x3 = C.generators[0], C.generators[1], C.generators[2]
        markers = [x1 * x2 * e, x1 * x3 * e]
    E, marker_out = _corner(A, e, markers)
    if E.dim != 4 ** (m - 1):
        raise CliffordError("corner has unexpected dimension %d" % E.dim)
    if m == 2:
        from .quaternions import QuaternionSymbol

        u, v = marker_out
        if F.char != 2:
            a = (u * u).central_value()
            b = (v * v).central_value()
            E.symbol = QuaternionSymbol(F, a, b)
        else:
            a = (u * u + u).central_value()
            b = (v * v).central_value()
            E.symbol = QuaternionSymbol(F, a, b, char2=True)
        if a is None or b is None:
            raise CliffordError("marked generators are not symbol generators")
        E.symbol_generators = (u, v)
    return E
