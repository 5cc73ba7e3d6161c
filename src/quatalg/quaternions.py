"""Quaternion algebras as symbols, their realizations, and slot chains.

A symbol (a, b) in characteristic != 2 is the algebra generated by x, y
with x^2 = a, y^2 = b, yx = -xy.  A symbol [a, b) in characteristic 2
is generated by x, y with x^2 + x = a, y^2 = b, yx = xy + y.  Two
quaternion algebras are isomorphic exactly when their norm forms are
isometric, which reduces all decision questions to the quadratic-form
machinery.
"""

from __future__ import annotations

import itertools

from . import linalg
from .algebras import (
    DivisionResult,
    StructureConstantAlgebra,
    find_isomorphism,
    tensor_element,
    tensor_product,
    verify_isomorphism,
)
from .fields import FieldError
from .forms import is_isometric, is_isotropic, quaternion_norm_form, represents


# Search bounds, each read where its loop runs.
#: elements tried for X with X^2 + X = a in a char-2 realization
AS_ELEMENT_CANDIDATES = 20000
#: slot values common_slot_chain tries, at most
SLOT_CANDIDATES = 100000


class QuaternionError(ValueError):
    pass


class SlotSearchExhausted(QuaternionError):
    """Raised when a budgeted slot search ends without a verified hit."""


class QuaternionSymbol:
    def __init__(self, field, a, b, char2=None):
        if char2 is None:
            char2 = field.char == 2
        if char2 and field.char != 2:
            raise QuaternionError("char-2 symbol over a field of odd "
                                  "characteristic")
        if not char2 and field.char == 2:
            raise QuaternionError("(a,b) symbols require characteristic != 2")
        if field.is_zero(b) or (not char2 and field.is_zero(a)):
            raise QuaternionError("symbol entries must be units")
        self.field = field
        self.a = a
        self.b = b
        self.char2 = char2

    def norm_form(self):
        return quaternion_norm_form(self.field, self.a, self.b)

    def to_json(self):
        F = self.field
        return {"char2": self.char2, "a": F.fmt(self.a), "b": F.fmt(self.b)}

    @classmethod
    def from_json(cls, d, field):
        return cls(field, field.parse(d["a"]), field.parse(d["b"]),
                   d.get("char2", field.char == 2))

    def __eq__(self, other):
        return (isinstance(other, QuaternionSymbol)
                and self.field == other.field
                and self.char2 == other.char2
                and self.field.eq(self.a, other.a)
                and self.field.eq(self.b, other.b))

    def __repr__(self):
        F = self.field
        shape = "[%s,%s)" if self.char2 else "(%s,%s)"
        return shape % (F.fmt(self.a), F.fmt(self.b))


def realize(symbol):
    """The 4-dimensional algebra of a symbol on the basis 1, x, y, xy."""
    F = symbol.field
    a, b = symbol.a, symbol.b
    one, zero = F.one(), F.zero()
    ab = F.mul(a, b)
    t = [[{} for _ in range(4)] for _ in range(4)]

    def put(i, j, pairs):
        for k, c in pairs:
            if not F.is_zero(c):
                t[i][j][k] = c

    # 0 = 1, 1 = x, 2 = y, 3 = xy
    for i in range(4):
        put(0, i, [(i, one)])
        if i:
            put(i, 0, [(i, one)])
    if not symbol.char2:
        put(1, 1, [(0, a)])
        put(2, 2, [(0, b)])
        put(1, 2, [(3, one)])
        put(2, 1, [(3, F.neg(one))])
        put(1, 3, [(2, a)])
        put(3, 1, [(2, F.neg(a))])
        put(2, 3, [(1, F.neg(b))])
        put(3, 2, [(1, b)])
        put(3, 3, [(0, F.neg(ab))])
    else:
        put(1, 1, [(0, a), (1, one)])          # x^2 = a + x
        put(2, 2, [(0, b)])
        put(1, 2, [(3, one)])
        put(2, 1, [(3, one), (2, one)])        # yx = xy + y
        put(1, 3, [(2, a), (3, one)])          # x(xy) = ay + xy
        put(3, 1, [(2, a)])                    # (xy)x = ay
        put(2, 3, [(1, b), (0, b)])            # y(xy) = bx + b
        put(3, 2, [(1, b)])                    # (xy)y = bx
        put(3, 3, [(0, ab)])
    A = StructureConstantAlgebra(F, t, ("1", "x", "y", "xy"),
                                 (one, zero, zero, zero))
    A.symbol = symbol
    A.symbol_generators = (A.basis_element(1), A.basis_element(2))
    if not _relations_hold(A, symbol, *A.symbol_generators):
        raise QuaternionError("realization fails its defining relations")
    return A


def _relations_hold(A, s, x, y):
    """The defining relations of the symbol s on x, y in A: x^2 = a,
    y^2 = b, yx = -xy (char != 2) resp. x^2 + x = a, y^2 = b, yx = xy + y
    (char 2)."""
    if s.char2:
        return (x * x + x == A.scalar(s.a) and y * y == A.scalar(s.b)
                and y * x == x * y + y)
    return (x * x == A.scalar(s.a) and y * y == A.scalar(s.b)
            and y * x == -(x * y))


def _symbol_basis(A):
    """Elements 1, x, y, xy of a marked realization (any ambient basis)."""
    x, y = A.symbol_generators
    return [A.one(), x, y, x * y]


def _element_from_norm_coords(A, coords):
    basis = _symbol_basis(A)
    out = A.zero()
    for c, e in zip(coords, basis):
        out = out + e.scale(c)
    return out


def _conjugate_coords(F, char2, coords):
    c0, c1, c2, c3 = coords
    if char2:
        return (F.add(c0, c1), c1, c2, c3)
    return (c0, F.neg(c1), F.neg(c2), F.neg(c3))


def division_via_norm_form(A):
    """Division test of a marked quaternion realization via its norm form."""
    s = A.symbol
    res = is_isotropic(s.norm_form())
    how = "norm-form/" + res.method
    if res.status is False:
        return DivisionResult(True, method=how + " anisotropic")
    if res.status is None:
        return DivisionResult(None, method=how + " undecided")
    if res.witness is None:
        return DivisionResult(False, None, how + " isotropic")
    u = _element_from_norm_coords(A, res.witness)
    v = _element_from_norm_coords(
        A, _conjugate_coords(A.field, s.char2, res.witness))
    if u.is_zero() or v.is_zero() or not (u * v).is_zero():
        raise QuaternionError("norm-form witness failed to produce a "
                              "zero divisor")
    return DivisionResult(False, (u, v), how + " isotropic")


def is_division_symbol(symbol):
    return division_via_norm_form(realize(symbol))


def are_isomorphic(s, sp):
    """True/False/None: norm forms isometric?"""
    if s.field != sp.field:
        raise QuaternionError("symbols over different fields")
    try:
        return is_isometric(s.norm_form(), sp.norm_form())
    except (FieldError, NotImplementedError):
        return None


# -- explicit isomorphisms between realizations --------------------------


def _find_square_root_element(B, a):
    """Element X of a char != 2 realization B with X^2 = a, noncentral.

    The squaring form on the pure part span{x, y, xy} is <a', b', -a'b'>;
    it represents a exactly when <a', b', -a'b', -a> is isotropic with a
    witness whose last coordinate is nonzero.
    """
    from .forms import QuadraticForm

    s = B.symbol
    F = B.field
    diag = (s.a, s.b, F.neg(F.mul(s.a, s.b)), F.neg(a))
    res = is_isotropic(QuadraticForm(F, diag, False))
    if res.status is not True or res.witness is None:
        return None
    c1, c2, c3, lam = res.witness
    if F.is_zero(lam):
        return None  # the pure part is itself isotropic: split algebra
    c1, c2, c3 = (F.div(c, lam) for c in (c1, c2, c3))
    x, y = B.symbol_generators
    return x.scale(c1) + y.scale(c2) + (x * y).scale(c3)


def _find_artin_schreier_element(B, a):
    """Element X of a char-2 realization B with X^2 + X = a, noncentral."""
    F = B.field
    x, y = B.symbol_generators
    k = x * y
    if not F.finite:
        return None
    count = 0
    for c0, c2, c3 in itertools.product(F.elements(), repeat=3):
        if F.is_zero(c2) and F.is_zero(c3):
            continue
        X = B.scalar(c0) + x + y.scale(c2) + k.scale(c3)
        if (X * X + X) == B.scalar(a):
            return X
        count += 1
        if count > AS_ELEMENT_CANDIDATES:
            break
    return None


def _twisting_partner(B, X, b):
    """Y with Y^2 = b and YX = -XY (char != 2) resp. XY + YX = Y (char 2)."""
    from .chains import _twist_rows

    F = B.field
    space = [B.element(v) for v in linalg.kernel_basis(F, _twist_rows(B, X))]
    if not space:
        return None
    target = B.scalar(b)
    if F.finite:
        for coeffs in itertools.product(F.elements(), repeat=len(space)):
            Y = B.zero()
            for c, v in zip(coeffs, space):
                Y = Y + v.scale(c)
            if Y.is_zero():
                continue
            if Y * Y == target:
                return Y
        return None
    # infinite field, char != 2: the squares form a binary quadratic form
    if len(space) < 2:
        v = space[0]
        sq = (v * v).central_value()
        if sq is None:
            return None
        ok, r = F.is_square(F.div(b, sq))
        return v.scale(r) if ok and r is not None else None
    v1, v2 = space[0], space[1]
    d1 = (v1 * v1).central_value()
    cross = (v1 * v2 + v2 * v1).central_value()
    if d1 is None or cross is None:
        return None
    if not F.is_zero(cross) and not F.is_zero(d1):
        # orthogonalize: v2 <- v2 - (cross / 2 d1) v1
        two = F.add(F.one(), F.one())
        v2 = v2 - v1.scale(F.div(cross, F.mul(two, d1)))
    d2 = (v2 * v2).central_value()
    if d2 is None:
        return None
    for v, d in ((v1, d1), (v2, d2)):
        if F.is_zero(d):
            continue
        ok, r = F.is_square(F.div(b, d))
        if ok and r is not None:
            return v.scale(r)
    if F.is_zero(d1) or F.is_zero(d2):
        return None
    from .forms import QuadraticForm

    res = represents(QuadraticForm(F, (d1, d2), False), b)
    if res.status is not True or res.witness is None:
        return None
    w = list(res.witness)
    Y = v1.scale(w[0]) + v2.scale(w[1])
    return Y if Y * Y == target else None


def _matrix_from_generator_images(A, B, X, Y):
    """Matrix of the map sending the symbol basis of A to (1, X, Y, XY)."""
    F = A.field
    src = [list(e.coords) for e in _symbol_basis(A)]
    dst = [list(e.coords) for e in (B.one(), X, Y, X * Y)]
    src_mat = [[src[j][i] for j in range(4)] for i in range(A.dim)]
    inv = linalg.invert(F, src_mat)
    if inv is None:
        return None
    dst_mat = [[dst[j][i] for j in range(4)] for i in range(B.dim)]
    return linalg.mat_mul(F, dst_mat, inv)


def isomorphism_between_realizations(A, B):
    """Explicit isomorphism matrix between two marked realizations."""
    sa, sb = A.symbol, B.symbol
    if sa is None or sb is None:
        raise QuaternionError("both algebras must carry marked symbols")
    if are_isomorphic(sa, sb) is not True:
        return None
    F = A.field
    if sa.char2:
        X = _find_artin_schreier_element(B, sa.a)
    else:
        X = _find_square_root_element(B, sa.a)
    if X is None:
        return None
    Y = _twisting_partner(B, X, sa.b)
    if Y is None:
        return None
    phi = _matrix_from_generator_images(A, B, X, Y)
    if phi is not None and verify_isomorphism(A, B, phi):
        return phi
    return None


# -- candidate enumeration for slot searches ------------------------------


def ascending_elements(F, max_height):
    """Nonzero field elements in a deterministic small-to-large order."""
    if F.finite:
        yield from F.nonzero_elements()
        return
    if F.char == 0:
        from fractions import Fraction
        from math import gcd

        for h in range(1, max_height + 1):
            for num in range(-h, h + 1):
                for den in range(1, h + 1):
                    if max(abs(num), den) != h or num == 0:
                        continue
                    if gcd(abs(num), den) != 1:
                        continue
                    yield Fraction(num, den)
        return
    # rational function field: polynomials by ascending degree, then
    # monic-denominator ratios of smaller degree
    base = list(F.base.elements())
    for d in range(0, max_height + 1):
        for coeffs in itertools.product(base, repeat=d + 1):
            if F.base.is_zero(coeffs[-1]) and d > 0:
                continue
            c = F.from_poly(tuple(coeffs))
            if not F.is_zero(c):
                yield c
    for d in range(1, max_height + 1):
        for ncoeffs in itertools.product(base, repeat=d + 1):
            num = F.from_poly(tuple(ncoeffs))
            if F.is_zero(num):
                continue
            for dcoeffs in itertools.product(base, repeat=d):
                den = F.from_poly(tuple(dcoeffs) + (F.base.one(),))
                c = F.div(num, den)
                if not F.is_zero(c):
                    yield c


class CommonSlotChain:
    """A 4-symbol chain s, (a, b''), (a', b''), s' with pairwise shared
    slots, each adjacent isomorphism re-verified."""

    def __init__(self, symbols, beta):
        self.symbols = symbols
        self.beta = beta

    def verify(self):
        syms = self.symbols
        if len(syms) != 4:
            return False
        F = syms[0].field
        if not (F.eq(syms[0].a, syms[1].a) and F.eq(syms[2].a, syms[3].a)
                and F.eq(syms[1].b, syms[2].b)
                and F.eq(syms[1].b, self.beta)):
            return False
        for left, right in zip(syms, syms[1:]):
            if are_isomorphic(left, right) is not True:
                return False
        return True

    def to_json(self):
        return {"symbols": [s.to_json() for s in self.symbols],
                "beta": self.symbols[0].field.fmt(self.beta)}


def common_slot_chain(s, sp, max_height=6):
    """A common-slot chain between isomorphic symbols s and s'."""
    if are_isomorphic(s, sp) is not True:
        raise QuaternionError("symbols are not (provably) isomorphic")
    F = s.field

    def attempt(beta):
        if F.is_zero(beta):
            return None
        try:
            mid1 = QuaternionSymbol(F, s.a, beta, s.char2)
            mid2 = QuaternionSymbol(F, sp.a, beta, sp.char2)
        except QuaternionError:
            return None
        chain = CommonSlotChain([s, mid1, mid2, sp], beta)
        return chain if chain.verify() else None

    seen = []
    for beta in itertools.chain([s.b, sp.b, F.one()],
                                ascending_elements(F, max_height)):
        if any(F.eq(beta, c) for c in seen):
            continue
        seen.append(beta)
        chain = attempt(beta)
        if chain is not None:
            return chain
        if len(seen) > SLOT_CANDIDATES:
            break
    raise SlotSearchExhausted(
        "no shared slot value found within height %d" % max_height)


# -- tensor presentations and slot chains ---------------------------------


class TensorPresentation:
    """An ordered tensor product of realized symbols with marked
    per-factor generators living in the realized tensor algebra."""

    def __init__(self, symbols, algebra=None, generators=None):
        self.symbols = list(symbols)
        if algebra is None:
            algebra, generators = _build_tensor(self.symbols)
        self.algebra = algebra
        self.generators = list(generators)
        if not self.verify():
            raise QuaternionError("tensor presentation fails its relations")

    def verify(self):
        A = self.algebra
        for s, (x, y) in zip(self.symbols, self.generators):
            if not _relations_hold(A, s, x, y):
                return False
        for i, (xi, yi) in enumerate(self.generators):
            for j, (xj, yj) in enumerate(self.generators):
                if i < j:
                    for u in (xi, yi):
                        for v in (xj, yj):
                            if not u.commutes_with(v):
                                return False
        # the factors must span: products of factor monomials have rank
        # 4^n; each product extends a product of the earlier factors, in
        # the order of itertools.product
        words = [A.one()]
        for x, y in self.generators:
            monomials = [A.one(), x, y, x * y]
            words = [w * e for w in words for e in monomials]
        return linalg.rank(A.field, [list(w.coords) for w in words]) == A.dim

    def to_json(self):
        return {
            "symbols": [s.to_json() for s in self.symbols],
            "generators": [[list(x.fmt()), list(y.fmt())]
                           for (x, y) in self.generators],
        }


def _build_tensor(symbols):
    algebras = [realize(s) for s in symbols]
    A = algebras[0]
    gens = [list(A.symbol_generators)]
    for B in algebras[1:]:
        T = tensor_product(A, B)
        gens = [[tensor_element(T, g, B.one()) for g in pair]
                for pair in gens]
        gens.append([tensor_element(T, A.one(), g)
                     for g in B.symbol_generators])
        A = T
    return A, [tuple(pair) for pair in gens]


class SlotChain:
    """Chain of tensor presentations; adjacent nodes share a literal slot."""

    def __init__(self, nodes, links, evidence):
        self.nodes = nodes
        self.links = links  # [{"left_factor","right_factor","slot"}...]
        self.evidence = evidence

    def verify(self):
        if len(self.nodes) > 4 or len(self.links) != len(self.nodes) - 1:
            return False
        for node in self.nodes:
            if not node.verify():
                return False
        F = self.nodes[0].algebra.field
        for (left, right), link in zip(zip(self.nodes, self.nodes[1:]),
                                       self.links):
            ls = left.symbols[link["left_factor"]]
            rs = right.symbols[link["right_factor"]]
            slot = link["slot"]
            lv = ls.a if slot == "a" else ls.b
            rv = rs.a if slot == "a" else rs.b
            if not F.eq(lv, rv):
                return False
        for ev, (left, right) in zip(self.evidence,
                                     zip(self.nodes, self.nodes[1:])):
            if not _check_evidence(ev, left, right):
                return False
        return True

    def to_json(self):
        return {"nodes": [n.to_json() for n in self.nodes],
                "links": self.links,
                "evidence": [ev.get("kind") for ev in self.evidence]}


def _check_evidence(ev, left, right):
    kind = ev.get("kind")
    if kind == "factorwise":
        for iso, ls, rs in zip(ev["isos"], left.symbols, right.symbols):
            if iso == "identity":
                if ls != rs:
                    return False
                continue
            LA, RA = realize(ls), realize(rs)
            if not verify_isomorphism(LA, RA, iso):
                return False
        return True
    if kind == "ambient":
        return left.algebra == right.algebra
    return False


def _factorwise_evidence(left, right):
    isos = []
    for ls, rs in zip(left.symbols, right.symbols):
        if ls == rs:
            isos.append("identity")
            continue
        phi = find_isomorphism(realize(ls), realize(rs))
        if phi is None:
            return None
        isos.append(phi)
    return {"kind": "factorwise", "isos": isos}


def common_slot_chain_tensor(P, Pp):
    """A slot chain (at most 4 nodes) between isomorphic tensor products."""
    F = P.algebra.field
    if len(P.symbols) != len(Pp.symbols):
        raise QuaternionError("presentations have different lengths")
    if P.symbols == Pp.symbols:
        return SlotChain([P], [], [])

    # non-division route: reslot the first factor through the split algebra
    s1, s1p = P.symbols[0], Pp.symbols[0]
    div1 = is_division_symbol(s1)
    div1p = is_division_symbol(s1p)
    if div1.status is False and div1p.status is False:
        one = F.one()
        mid1_syms = [QuaternionSymbol(F, s1.a, one, s1.char2)] \
            + P.symbols[1:]
        mid2_syms = [QuaternionSymbol(F, s1p.a, one, s1p.char2)] \
            + P.symbols[1:]
        mid1 = TensorPresentation(mid1_syms)
        mid2 = TensorPresentation(mid2_syms)
        nodes = [P, mid1, mid2, Pp]
        links = [
            {"left_factor": 0, "right_factor": 0, "slot": "a"},
            {"left_factor": 0, "right_factor": 0, "slot": "b"},
            {"left_factor": 0, "right_factor": 0, "slot": "a"},
        ]
        evidence = []
        for left, right in zip(nodes, nodes[1:]):
            ev = _factorwise_evidence(left, right)
            if ev is None:
                raise SlotSearchExhausted(
                    "failed to certify a factorwise isomorphism along the "
                    "reslotting chain")
            evidence.append(ev)
        chain = SlotChain(nodes, links, evidence)
        if not chain.verify():
            raise QuaternionError("reslotting chain failed verification")
        return chain

    # shared-algebra route: both presentations realized in one algebra
    if P.algebra == Pp.algebra:
        from .chains import tensor_chain_via_common_element

        return tensor_chain_via_common_element(P, Pp)
    raise SlotSearchExhausted(
        "unsupported instance: factors are not provably split and the "
        "presentations do not share an ambient algebra")
