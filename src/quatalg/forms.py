"""Nonsingular quadratic forms in both characteristics.

Characteristic 2 forms are orthogonal sums of binary blocks [a, b] meaning
a u^2 + u v + b v^2, so they have even dimension; other characteristics use
diagonal forms <a_1, ..., a_n> of any dimension.
Forms are never auto-normalized: invariants are computed on demand so that
user-entered presentations survive into chain and slot certificates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from . import linalg, localglobal
from .fields import (
    FiniteField,
    FunctionField,
    LaurentField,
    PrimeField,
    Rationals,
)

# Search bounds, each read where its loop runs.
#: polynomial vectors _search_poly tries (F_q(t), F_q((t)))
POLY_CANDIDATES = 200000
#: integer vectors _search_representation tries over Q
RATIONAL_CANDIDATES = 500000


class FormError(ValueError):
    pass


class UndecidableError(RuntimeError):
    """Raised when a decision procedure can only answer 'unknown'."""


class QuadraticForm:
    """coeffs: tuple of diagonal entries (char != 2) or of (a, b) pairs."""

    def __init__(self, field, coeffs, char2=None):
        if char2 is None:
            char2 = field.char == 2
        if char2 != (field.char == 2):
            raise FormError("characteristic tag does not match the field")
        coeffs = tuple(coeffs)
        self.field = field
        self.char2 = char2
        self.coeffs = coeffs
        if char2:
            for pair in coeffs:
                if len(pair) != 2:
                    raise FormError("char-2 forms need (a, b) pairs")
            self.dim = 2 * len(coeffs)
        else:
            if any(field.is_zero(a) for a in coeffs):
                raise FormError("diagonal entries must be nonzero")
            self.dim = len(coeffs)

    def __eq__(self, other):
        return (isinstance(other, QuadraticForm) and self.field == other.field
                and self.char2 == other.char2 and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.char2, self.coeffs))

    def __repr__(self):
        F = self.field
        if self.char2:
            blocks = " _|_ ".join("[%s,%s]" % (F.fmt(a), F.fmt(b)) for a, b in self.coeffs)
            return "QForm(%s over %s)" % (blocks, F.name)
        return "QForm(<%s> over %s)" % (",".join(F.fmt(a) for a in self.coeffs), F.name)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, v):
        F = self.field
        if len(v) != self.dim:
            raise FormError("vector length mismatch")
        total = F.zero()
        if self.char2:
            for i, (a, b) in enumerate(self.coeffs):
                u, w = v[2 * i], v[2 * i + 1]
                term = F.add(F.add(F.mul(a, F.mul(u, u)), F.mul(u, w)),
                             F.mul(b, F.mul(w, w)))
                total = F.add(total, term)
        else:
            for a, x in zip(self.coeffs, v):
                total = F.add(total, F.mul(a, F.mul(x, x)))
        return total

    def polar(self, u, v):
        """b_f(u, v) = f(u+v) - f(u) - f(v); valid in both characteristics."""
        F = self.field
        s = [F.add(a, b) for a, b in zip(u, v)]
        return F.sub(F.sub(self.evaluate(s), self.evaluate(u)), self.evaluate(v))

    def basis_vector(self, i):
        F = self.field
        return [F.one() if j == i else F.zero() for j in range(self.dim)]

    # -- builders ------------------------------------------------------

    def orthogonal_sum(self, other):
        if self.field != other.field or self.char2 != other.char2:
            raise FormError("mismatched forms")
        return QuadraticForm(self.field, self.coeffs + other.coeffs, self.char2)

    def scaled(self, c):
        F = self.field
        if F.is_zero(c):
            raise FormError("scaling by zero")
        if self.char2:
            # c*[a, b] = [c a, b / c]
            return QuadraticForm(F, tuple((F.mul(c, a), F.div(b, c)) for a, b in self.coeffs), True)
        return QuadraticForm(F, tuple(F.mul(c, a) for a in self.coeffs), False)

    def negated(self):
        if self.char2:
            return self
        return self.scaled(self.field.neg(self.field.one()))

    def extend(self, K, embed):
        """Coefficientwise scalar extension along an embedding F -> K."""
        if self.char2:
            return QuadraticForm(K, tuple((embed(a), embed(b)) for a, b in self.coeffs), True)
        return QuadraticForm(K, tuple(embed(a) for a in self.coeffs), False)

    def to_json(self):
        F = self.field
        out = {"field": F.descriptor_json(), "char2": self.char2}
        if self.char2:
            out["pairs"] = [[F.fmt(a), F.fmt(b)] for a, b in self.coeffs]
        else:
            out["diag"] = [F.fmt(a) for a in self.coeffs]
        return out


def form_from_json(d, field=None):
    from .fields import field_from_json

    F = field if field is not None else field_from_json(d["field"])
    if d.get("char2", F.char == 2):
        pairs = tuple((F.parse(a), F.parse(b)) for a, b in d["pairs"])
        return QuadraticForm(F, pairs, True)
    return QuadraticForm(F, tuple(F.parse(a) for a in d["diag"]), False)


def hyperbolic_plane(F):
    """<1, -1> in characteristic != 2, [0, 0] in characteristic 2."""
    if F.char == 2:
        return QuadraticForm(F, ((F.zero(), F.zero()),), True)
    return QuadraticForm(F, (F.one(), F.neg(F.one())), False)


# ----------------------------------------------------------------------
# invariants


@dataclass
class DiscriminantClass:
    char2: bool
    representative: object
    trivial: bool


def discriminant(f: QuadraticForm) -> DiscriminantClass:
    F = f.field
    if f.char2:
        rep = F.sum_(F.mul(a, b) for a, b in f.coeffs)
        trivial = F.artin_schreier_solve(rep)[0]
        return DiscriminantClass(True, rep, trivial)
    m = f.dim // 2  # n(n-1)/2 has the parity of n // 2
    rep = F.one()
    for a in f.coeffs:
        rep = F.mul(rep, a)
    if m % 2:
        rep = F.neg(rep)
    trivial = F.is_square(rep)[0]
    return DiscriminantClass(False, rep, trivial)


# ----------------------------------------------------------------------
# isotropy


@dataclass
class IsotropyResult:
    status: object  # True / False / None (unknown up to bound)
    witness: object = None
    method: str = ""

    def __bool__(self):
        if self.status is None:
            raise UndecidableError("isotropy unknown up to the search bound")
        return self.status


def is_isotropic(f: QuadraticForm, search_bound=None) -> IsotropyResult:
    F = f.field
    if f.dim == 0:
        return IsotropyResult(False, None, "empty")
    if F.finite:
        return _isotropic_finite(f)
    status, method = _decide(f)
    if status is False:
        return IsotropyResult(False, None, method)
    if isinstance(F, Rationals):
        w = _search_zero_integer(f, search_bound or 30)
    else:
        w = _search_poly(f, F.zero(), search_bound or 3)
    if status is True:
        return IsotropyResult(True, w, _witnessed(method, w))
    if w is not None:
        return IsotropyResult(True, w, "bounded-search")
    return IsotropyResult(None, None, "unknown-up-to-bound")


def _witnessed(method, w):
    return method if w else method + "; witness budget exhausted"


def _decide(f):
    """Local-global verdict on the isotropy of f over an infinite field:
    (True / False / None, method)."""
    F = f.field
    coeffs = list(f.coeffs)
    if isinstance(F, Rationals) or (isinstance(F, FunctionField) and F.char != 2):
        # over GF(q)((t)): the local test at t, equivalent to Springer's
        method = "springer" if isinstance(F, LaurentField) else "hasse-minkowski"
        return localglobal.is_isotropic_global(F, coeffs), method
    if isinstance(F, LaurentField):
        return localglobal.char2_laurent_isotropic(F, coeffs), "springer"
    if isinstance(F, FunctionField):
        # char 2: anisotropy over GF(q)((t)) implies anisotropy over GF(q)(t)
        local = localglobal.char2_laurent_isotropic(LaurentField(F.base, F.var), coeffs)
        return (False if local is False else None), "springer-laurent"
    raise FormError("no isotropy decision over %s" % F.name)


def _isotropic_finite(f):
    """Exhaustive decision over a finite field.

    For dim >= 3 a zero supported on the first three coordinates always
    exists (Chevalley-Warning), so enumeration stays cubic in q.
    """
    F = f.field
    els = list(F.elements())
    n = f.dim
    coords = min(n, 3)
    zero = F.zero()
    for vals in itertools.product(els, repeat=coords):
        if all(F.is_zero(x) for x in vals):
            continue
        v = list(vals) + [zero] * (n - coords)
        if F.is_zero(f.evaluate(v)):
            return IsotropyResult(True, v, "enumeration")
    return IsotropyResult(False, None, "enumeration")


def _search_zero_integer(f, height):
    """Meet-in-the-middle integer-vector search for a rational zero."""
    F = f.field
    n = f.dim
    half = n // 2
    cands = [F.from_int(k) for k in range(-height, height + 1)]

    def part_value(idx, vec):
        total = F.zero()
        for i, x in zip(idx, vec):
            total = F.add(total, F.mul(f.coeffs[i], F.mul(x, x)))
        return total

    left_idx = list(range(half))
    right_idx = list(range(half, n))
    table = {}
    for vec in itertools.product(cands, repeat=len(right_idx)):
        table.setdefault(F.neg(part_value(right_idx, vec)), vec)
    for vec in itertools.product(cands, repeat=len(left_idx)):
        val = part_value(left_idx, vec)
        if val in table:
            full = list(vec) + list(table[val])
            if not all(F.is_zero(x) for x in full):
                return full
    return None


def _search_poly(f, c, degree_bound):
    """Bounded search over nonzero polynomial vectors v with f(v) = c, in
    candidate order, for function-field zeros (c = 0) and
    representations."""
    F = f.field
    cands = _poly_candidates(F, degree_bound)
    # f is the sum of its blocks (one diagonal entry, or one char-2 pair);
    # a block's value on its candidate indices is computed on first use and
    # reused.  sums[b] holds the value of the first b blocks of the last
    # candidate, so only the blocks from the first changed one on are added
    width = 2 if f.char2 else 1
    blocks = [QuadraticForm(F, (a,), f.char2) for a in f.coeffs]
    values = [{} for _ in blocks]
    sums = [F.zero()] * (len(blocks) + 1)
    last = None
    count = 0
    for vec in itertools.product(range(len(cands)), repeat=f.dim):
        count += 1
        if count > POLY_CANDIDATES:
            return None
        p = 0
        if last is not None:
            while vec[p] == last[p]:
                p += 1
        last = vec
        for b in range(p // width, len(blocks)):
            key = vec[width * b:width * (b + 1)]
            val = values[b].get(key)
            if val is None:
                val = values[b][key] = blocks[b].evaluate(
                    [cands[i] for i in key])
            sums[b + 1] = F.add(sums[b], val)
        if F.eq(sums[-1], c) and any(vec):
            return [cands[i] for i in vec]
    return None


def _poly_candidates(F, degree_bound):
    """0, then the polynomials of degree <= degree_bound over F's base."""
    from . import polynomials as P

    B = F.base
    cands = [F.zero()]
    for d in range(degree_bound + 1):
        for tail in itertools.product(B.elements(), repeat=d):
            for lead in B.nonzero_elements():
                cands.append(F.from_poly(P.normalize(B, tail + (lead,))))
    return cands


# ----------------------------------------------------------------------
# Witt decomposition


@dataclass
class WittDecomposition:
    index: int
    anisotropic: QuadraticForm
    basis: list  # vectors in the original coordinates
    form: QuadraticForm

    def composed_form(self):
        out = QuadraticForm(self.form.field, (), self.form.char2)
        H = hyperbolic_plane(self.form.field)
        for _ in range(self.index):
            out = out.orthogonal_sum(H)
        return out.orthogonal_sum(self.anisotropic)

    def verify(self):
        """Re-evaluate the form through the basis witness: values on basis
        vectors and all polar pairs must match the composed target exactly."""
        target = self.composed_form()
        f = self.form
        F = f.field
        n = f.dim
        if len(self.basis) != n:
            return False
        for i in range(n):
            if not F.eq(f.evaluate(self.basis[i]), target.evaluate(target.basis_vector(i))):
                return False
            for j in range(i + 1, n):
                lhs = f.polar(self.basis[i], self.basis[j])
                rhs = target.polar(target.basis_vector(i), target.basis_vector(j))
                if not F.eq(lhs, rhs):
                    return False
        # basis must be invertible
        mat = [[self.basis[j][i] for j in range(n)] for i in range(n)]
        return linalg.invert(F, mat) is not None


def witt_decompose(f: QuadraticForm, search_bound=None) -> WittDecomposition:
    F = f.field
    n = f.dim
    current_basis = [f.basis_vector(i) for i in range(n)]  # spans current part
    hyper_vectors = []
    index = 0
    while current_basis:
        g, g_basis = _restrict(f, current_basis)
        res = is_isotropic(g, search_bound)
        if res.status is None:
            raise UndecidableError("isotropy unknown; cannot Witt-decompose")
        if res.status is False:
            break
        if res.witness is None:
            raise UndecidableError("isotropic but no witness within the budget")
        # lift the witness of g into original coordinates
        v = _combine(F, g_basis, res.witness)
        u = _hyperbolic_partner(f, v, current_basis)
        if F.char == 2:
            hyper_vectors.extend([v, u])
        else:
            hyper_vectors.extend([linalg.vec_add(F, v, u), linalg.vec_sub(F, v, u)])
        index += 1
        current_basis = _polar_complement(f, [v, u], current_basis)
    if current_basis:
        aniso, aniso_basis = _restrict(f, current_basis)
    else:
        aniso, aniso_basis = QuadraticForm(F, (), f.char2), []
    return WittDecomposition(index, aniso, hyper_vectors + aniso_basis, f)


def _combine(F, basis, coords):
    n = len(basis[0])
    out = [F.zero()] * n
    for c, vec in zip(coords, basis):
        if F.is_zero(c):
            continue
        out = [F.add(o, F.mul(c, x)) for o, x in zip(out, vec)]
    return out


def _hyperbolic_partner(f, v, space_basis):
    """Complete isotropic v to a hyperbolic pair inside the given subspace."""
    F = f.field
    w = None
    for b in space_basis:
        if not F.is_zero(f.polar(v, b)):
            w = b
            break
    if w is None:
        raise FormError("singular restriction: no polar partner")
    w = linalg.vec_scale(F, F.inv(f.polar(v, w)), w)
    lam = f.evaluate(w)
    return linalg.vec_sub(F, w, linalg.vec_scale(F, lam, v))


def _polar_complement(f, pair, space_basis):
    """Basis of {w in span(space_basis) : b(pair[i], w) = 0}."""
    F = f.field
    rows = []
    for p in pair:
        rows.append([f.polar(p, b) for b in space_basis])
    ker = linalg.kernel_basis(F, rows)
    return [_combine(F, space_basis, coords) for coords in ker]


def _restrict(f, basis):
    """The restriction of f to span(basis) in standard representation.

    Returns (form, vectors) with vectors[i] realizing the i-th standard
    coordinate of the returned form inside the original space.
    """
    F = f.field
    if not basis:
        return QuadraticForm(F, (), f.char2), []
    if f.char2:
        return _restrict_char2(f, basis)
    return _restrict_diag(f, basis)


def _restrict_diag(f, basis):
    F = f.field
    entries, vectors = [], []
    remaining = [b[:] for b in basis]
    while remaining:
        v = None
        for b in remaining:
            if not F.is_zero(f.evaluate(b)):
                v = b
                break
        if v is None:
            for b1, b2 in itertools.combinations(remaining, 2):
                s = linalg.vec_add(F, b1, b2)
                if not F.is_zero(f.evaluate(s)):
                    v = s
                    break
        if v is None:
            raise FormError("degenerate restriction")
        entries.append(f.evaluate(v))
        vectors.append(v)
        remaining = _polar_complement(f, [v], remaining)
    return QuadraticForm(F, tuple(entries), False), vectors


def _restrict_char2(f, basis):
    F = f.field
    pairs, vectors = [], []
    remaining = [b[:] for b in basis]
    while remaining:
        v1 = remaining[0]
        v2 = None
        for b in remaining[1:]:
            if not F.is_zero(f.polar(v1, b)):
                v2 = b
                break
        if v2 is None:
            raise FormError("degenerate restriction")
        v2 = linalg.vec_scale(F, F.inv(f.polar(v1, v2)), v2)
        pairs.append((f.evaluate(v1), f.evaluate(v2)))
        vectors.extend([v1, v2])
        remaining = _polar_complement(f, [v1, v2], remaining)
    return QuadraticForm(F, tuple(pairs), True), vectors


# ----------------------------------------------------------------------
# isometry


def is_isometric(f: QuadraticForm, g: QuadraticForm) -> bool:
    if f.field != g.field:
        raise FormError("forms over different fields")
    if f.dim != g.dim:
        return False
    F = f.field
    if F.finite:
        s = f.orthogonal_sum(g if f.char2 else g.negated())
        dec = witt_decompose(s)
        return dec.index * 2 == s.dim
    if isinstance(F, Rationals) or (isinstance(F, FunctionField) and F.char != 2):
        return _isometric_invariants_global(f, g)
    # fall back to the Witt route; may raise UndecidableError
    s = f.orthogonal_sum(g if f.char2 else g.negated())
    dec = witt_decompose(s)
    return dec.index * 2 == s.dim


def _disc_ratio_square(F, f, g):
    df, dg = discriminant(f).representative, discriminant(g).representative
    return F.is_square(F.mul(df, dg))[0]  # d_f/d_g square iff d_f*d_g square


def _isometric_invariants_global(f, g):
    """Classification over Q, GF(q)(t) and GF(q)((t)): dimension,
    discriminant, the Hasse invariant at every (bad) finite place and, over
    Q, the signature."""
    F = f.field
    if not _disc_ratio_square(F, f, g):
        return False
    if isinstance(F, Rationals) and \
            sum(a > 0 for a in f.coeffs) != sum(a > 0 for a in g.coeffs):
        return False
    places = set(localglobal.bad_places(F, list(f.coeffs)))
    places.update(localglobal.bad_places(F, list(g.coeffs)))
    for v in places:
        if v.kind == "real":
            continue
        if localglobal.hasse_invariant(F, list(f.coeffs), v) != \
                localglobal.hasse_invariant(F, list(g.coeffs), v):
            return False
    return True


# ----------------------------------------------------------------------
# Lemma-style discriminant trivialization


@dataclass
class QuadraticExtension:
    """K = F[u] with u^2 = delta (char != 2) or u^2 + u = delta (char 2)."""

    base: object
    ext: object
    embed: object  # callable F -> K
    root: object  # u in K
    delta: object  # in F
    trivial_in_base: bool = False

    def check(self):
        K = self.ext
        d = self.embed(self.delta)
        if self.base.char == 2:
            return K.add(K.mul(self.root, self.root), self.root) == d
        return K.mul(self.root, self.root) == d


def adjoin_root(F, delta, char2=None):
    """Construct F[u : u^2 = delta] (resp. u^2+u = delta) as a field datum.

    Supported bases: finite prime fields (extension realized inside
    GF(p^2)) and the trivial case where delta is already split in F.
    """
    if char2 is None:
        char2 = F.char == 2
    if char2:
        ok, w = F.artin_schreier_solve(delta)
    else:
        ok, w = F.is_square(delta)
    if ok:
        return QuadraticExtension(F, F, lambda a: a, w, delta, trivial_in_base=True)
    if isinstance(F, PrimeField):
        K = FiniteField(F.p, 2)
        embed = K.from_int
        target = embed(delta)
        for u in K.elements():
            val = K.add(K.mul(u, u), u) if char2 else K.mul(u, u)
            if val == target:
                return QuadraticExtension(F, K, embed, u, delta)
        raise FormError("no root found in the quadratic extension")
    raise FormError("quadratic extension of %s is not constructible here" % F.name)


def trivialize_discriminant(f: QuadraticForm, ext: QuadraticExtension):
    """Produce f' with trivial discriminant whose extension to K is
    isometric to f's.  Returns (f', already_hyperbolic_flag)."""
    F = f.field
    disc = discriminant(f)
    delta = disc.representative
    if not F.eq(ext.delta, delta):
        raise FormError("extension datum inconsistent with the discriminant")
    if not ext.check():
        raise FormError("extension root does not satisfy its equation")
    if f.char2:
        j = next((i for i, (a, _) in enumerate(f.coeffs) if not F.is_zero(a)), None)
        if j is None:
            return f, True  # all a_i = 0: f is already hyperbolic
        pairs = list(f.coeffs)
        a, b = pairs[j]
        pairs[j] = (a, F.add(b, F.mul(F.inv(a), delta)))
        return QuadraticForm(F, tuple(pairs), True), False
    entries = list(f.coeffs)
    entries[0] = F.mul(F.inv(delta), entries[0])
    return QuadraticForm(F, tuple(entries), False), False


# ----------------------------------------------------------------------
# representation


def represents(f: QuadraticForm, c, search_bound=None):
    """Does f represent c != 0?  Returns IsotropyResult-style triple."""
    F = f.field
    if F.is_zero(c):
        raise FormError("c must be nonzero")
    if not f.char2:
        res = is_isotropic(f, search_bound)
        if res.status is True:
            if res.witness is not None:
                v = res.witness
                u = _hyperbolic_partner(f, v, [f.basis_vector(i) for i in range(f.dim)])
                # f(c v + u) = c * b(v, u) = c
                w = linalg.vec_add(F, linalg.vec_scale(F, c, v), u)
                assert F.eq(f.evaluate(w), c)
                return IsotropyResult(True, w, "universal-isotropic")
            return IsotropyResult(True, None, "universal-isotropic; no witness")
        if res.status is False:
            return _represents_by_isotropy(f, c, search_bound)
        return IsotropyResult(None, None, res.method)
    return _represents_search(f, c, search_bound)


def _represents_by_isotropy(f, c, search_bound):
    """f anisotropic, char != 2: f represents c iff <-c> _|_ f is isotropic,
    and every zero (x_0, x) of <-c> _|_ f has x_0 != 0, giving f(x / x_0) = c."""
    F = f.field
    g = QuadraticForm(F, (F.neg(c),) + f.coeffs, False)
    if F.finite:
        res = _isotropic_finite(g)
        if res.status:
            v = res.witness
            res.witness = [F.div(x, v[0]) for x in v[1:]]
        return res
    status, method = _decide(g)
    if status is False:
        return IsotropyResult(False, None, method)
    w = _search_representation(f, c, search_bound)
    return IsotropyResult(True, w, _witnessed(method, w))


def _represents_search(f, c, search_bound):
    F = f.field
    if F.finite:
        els = list(F.elements())
        for vec in itertools.product(els, repeat=f.dim):
            if all(F.is_zero(x) for x in vec):
                continue
            if F.eq(f.evaluate(list(vec)), c):
                return IsotropyResult(True, list(vec), "enumeration")
        return IsotropyResult(False, None, "enumeration")
    w = _search_representation(f, c, search_bound)
    if w is not None:
        return IsotropyResult(True, w, "bounded-search")
    return IsotropyResult(None, None, "unknown-up-to-bound")


def _search_representation(f, c, search_bound):
    F = f.field
    if isinstance(F, Rationals):
        height = search_bound or 30
        spent = 0
        for d in range(1, 9):
            den = F.from_int(d)
            num_bound = height if d == 1 else min(height, 10)
            cands = [F.from_int(k) for k in range(-num_bound, num_bound + 1)]
            target = F.mul(c, F.mul(den, den))
            for vec in itertools.product(cands, repeat=f.dim):
                spent += 1
                if spent > RATIONAL_CANDIDATES:
                    return None
                if F.eq(f.evaluate(list(vec)), target):
                    return [F.div(x, den) for x in vec]
        return None
    return _search_poly(f, c, search_bound or 2)


# ----------------------------------------------------------------------
# quaternion norm forms


def quaternion_norm_form(field, a, b, char2=None) -> QuadraticForm:
    """Norm form of the symbol (a,b) resp. [a,b)."""
    F = field
    if char2 is None:
        char2 = F.char == 2
    if char2:
        if F.is_zero(b):
            raise FormError("b must be a unit")
        # [1, a] _|_ b*[1, a]
        return QuadraticForm(F, ((F.one(), a), (b, F.mul(a, F.inv(b)))), True)
    if F.is_zero(a) or F.is_zero(b):
        raise FormError("symbol entries must be units")
    return QuadraticForm(F, (F.one(), F.neg(a), F.neg(b), F.mul(a, b)), False)
