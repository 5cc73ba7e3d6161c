"""Square-central / Artin-Schreier elements and chains between them.

An element v of a central algebra is square-central when it is not
central but v^2 is a central unit; in characteristic 2 it is
Artin-Schreier when it is not central but v^2 + v is central.  This
module classifies elements, splits any element into commuting and
twisted parts with respect to such an element, finds commuting and
anticommuting links, decomposes degree-4 algebras around two commuting
marked elements, and assembles the chains connecting two such elements.
All constructions re-verify every identity they claim.
"""

from __future__ import annotations

import itertools
import random

from . import linalg
from .algebras import (
    AlgebraError,
    centralizer,
    minimal_polynomial,
    subalgebra_closure,
)

# Search bounds, each read where its loop runs.
#: candidates per search for a commuting link or a twisted partner
SEARCH_BUDGET = 5000
#: candidates per partner search of the char-2 one-link and bridge shapes
DIRECT_TWIST_BUDGET = 500
#: elements of F[w] that _quadratic_inside sweeps
QUADRATIC_SWEEP = 400
#: random partners the char != 2 bridge draws per endpoint
PARTNER_TRIES = 40
#: partners the char != 2 bridge keeps per endpoint
PARTNER_LIMIT = 12
#: random middle nodes the char-2 bridge draws
BRIDGE_DRAWS = 200


class ChainError(ValueError):
    pass


class SearchExhausted(ChainError):
    """A bounded search ended without a verified hit."""


class ElementClass:
    CENTRAL = "central"
    SQUARE_CENTRAL = "square-central"
    ARTIN_SCHREIER = "artin-schreier"
    OTHER = "other"

    def __init__(self, kind, value=None):
        self.kind = kind
        self.value = value  # v^2 resp. v^2 + v for the two special kinds

    def __eq__(self, other):
        return (isinstance(other, ElementClass) and self.kind == other.kind)

    def __repr__(self):
        return "ElementClass(%s)" % self.kind


def classify(v):
    """Central / SquareCentral(v^2) / ArtinSchreier(v^2+v) / Other."""
    A = v.algebra
    F = A.field
    if v.is_central():
        return ElementClass(ElementClass.CENTRAL, v.central_value())
    sq = (v * v).central_value()
    if sq is not None and not F.is_zero(sq):
        return ElementClass(ElementClass.SQUARE_CENTRAL, sq)
    if F.char == 2:
        asv = (v * v + v).central_value()
        if asv is not None:
            return ElementClass(ElementClass.ARTIN_SCHREIER, asv)
    return ElementClass(ElementClass.OTHER)


def decompose_wrt(t, x):
    """Split t = t0 + t1 with x t0 = t0 x and x t1 = -t1 x (char != 2)
    resp. x t1 + t1 x = t1 (char 2), where x is square-central resp.
    Artin-Schreier.  All identities are re-verified."""
    A = t.algebra
    F = A.field
    cls = classify(x)
    if F.char != 2:
        if cls.kind != ElementClass.SQUARE_CENTRAL:
            raise ChainError("pivot must be square-central")
        xinv = x.scale(F.inv(cls.value))
        half = F.inv(F.add(F.one(), F.one()))
        t0 = (t + x * t * xinv).scale(half)
        t1 = t - t0
        ok = (x * t0 == t0 * x) and (x * t1 == -(t1 * x))
    else:
        if cls.kind != ElementClass.ARTIN_SCHREIER:
            raise ChainError("pivot must be Artin-Schreier")
        t0 = x * t + t * x + t
        t1 = t + t0
        ok = (x * t0 == t0 * x) and (x * t1 + t1 * x == t1)
    if not (ok and t0 + t1 == t):
        raise ChainError("decomposition identities failed")
    return t0, t1


def in_quadratic_span(x, v):
    """Is v in the span of 1 and x?"""
    A = x.algebra
    basis = [list(A.one().coords), list(x.coords)]
    return linalg.in_span(A.field, linalg.row_space_basis(A.field, basis),
                          list(v.coords)) is not None


def _normalize_quadratic(w):
    """From an element with a degree-2 minimal polynomial, produce a
    square-central or Artin-Schreier element in F[w], or None."""
    A = w.algebra
    F = A.field
    if w.is_central():
        return None
    m = minimal_polynomial(w)
    if len(m) != 3:
        return None
    c, b = m[0], m[1]  # X^2 + bX + c
    if F.char != 2:
        two = F.add(F.one(), F.one())
        v = w + A.scalar(F.div(b, two))
        cls = classify(v)
        return v if cls.kind == ElementClass.SQUARE_CENTRAL else None
    if not F.is_zero(b):
        v = w.scale(F.inv(b))
        cls = classify(v)
        return v if cls.kind == ElementClass.ARTIN_SCHREIER else None
    cls = classify(w)
    return w if cls.kind == ElementClass.SQUARE_CENTRAL else None


def _quadratic_inside(w):
    """A square-central / Artin-Schreier element of F[w], if any."""
    v = _normalize_quadratic(w)
    if v is not None:
        return v
    A = w.algebra
    F = A.field
    if not F.finite:
        return None
    m = minimal_polynomial(w)
    d = len(m) - 1
    if d % 2 == 0:
        # in a field F_{q^d}, the (q^d-1)/(q^2-1) power lies in F_{q^2}
        q = F.order
        u = w ** ((q ** d - 1) // (q * q - 1))
        v = _normalize_quadratic(u)
        if v is not None:
            return v
    # small exhaustive sweep through F[w]
    powers = [A.one()]
    for _ in range(d - 1):
        powers.append(powers[-1] * w)
    count = 0
    for coeffs in itertools.product(F.elements(), repeat=len(powers)):
        count += 1
        if count > QUADRATIC_SWEEP:
            return None
        u = A.zero()
        for c, p in zip(coeffs, powers):
            u = u + p.scale(c)
        v = _normalize_quadratic(u)
        if v is not None:
            return v
    return None


def _candidate_stream(A, pool, rng):
    """Deterministic candidate elements: the pool, pairwise sums and
    products, then seeded random combinations of the pool."""
    for v in pool:
        yield v
    for u, v in itertools.combinations(pool, 2):
        yield u + v
        yield u * v
    count = 0
    while count < SEARCH_BUDGET:
        w = A.zero()
        for v in pool:
            w = w + v.scale(A.field.random_element(rng, 3))
        yield w
        count += 1


def find_commuting_link(x, t, avoid=()):
    """A square-central (or, in char 2, possibly Artin-Schreier) element
    commuting with both x and t, found constructively.

    ``avoid``: elements v such that the result must not lie in F[v].
    """
    A = x.algebra
    F = A.field
    char2 = F.char == 2
    want = (ElementClass.ARTIN_SCHREIER if char2
            else ElementClass.SQUARE_CENTRAL)
    for v in (x, t):
        if classify(v).kind != want:
            raise ChainError("endpoints must both be %s elements" % want)

    def acceptable(z):
        if z is None or z.is_central():
            return False
        kind = classify(z).kind
        if kind not in (ElementClass.SQUARE_CENTRAL,
                        ElementClass.ARTIN_SCHREIER):
            return False
        if not (z.commutes_with(x) and z.commutes_with(t)):
            return False
        return not any(in_quadratic_span(v, z) for v in avoid)

    pool = []
    if x.commutes_with(t):
        if acceptable(t):
            return t
    else:
        t0, t1 = decompose_wrt(t, x)
        # candidate elements suggested by the structure of the split;
        # only used when they do commute with both endpoints
        k1 = t1 * t1
        k2 = (x + t0) if char2 else (x * t0)
        if all(k.commutes_with(x) and k.commutes_with(t) for k in (k1, k2)):
            pool.extend(subalgebra_closure(A, [k1, k2]))
    cen = centralizer(A, [x, t])
    pool.extend(cen)
    rng = random.Random(7)
    seen = 0
    for w in _candidate_stream(A, pool, rng):
        seen += 1
        if seen > SEARCH_BUDGET:
            break
        z = _quadratic_inside(w)
        if acceptable(z):
            return z
    raise SearchExhausted(
        "no commuting square-central/Artin-Schreier element found within "
        "budget %d" % SEARCH_BUDGET)


# -- solving for twisted partners inside subspaces ------------------------


def _solve_in_span(A, rows, rhs=None, span=None):
    """Solve rows * w = rhs (rhs None: rows * w = 0) for w in the row span
    of span (None: all of A).  Returns (particular, homogeneous_basis) as
    elements; particular is None when rhs is None or there is no
    solution."""
    F = A.field
    if span is not None:
        cols = [[row[i] for row in span] for i in range(A.dim)]
        rows = linalg.mat_mul(F, rows, cols)

    def lift(coeffs):
        if span is not None:
            coeffs = linalg.mat_mul(F, [coeffs], span)[0]
        return A.element(coeffs)

    hom = [lift(v) for v in linalg.kernel_basis(F, rows)]
    part = None if rhs is None else linalg.solve(F, rows, rhs)
    return (None if part is None else lift(part)), hom


def _sum_rows(A, x):
    """Matrix of w -> xw + wx."""
    F = A.field
    return [[F.add(l, r) for l, r in zip(lrow, rrow)]
            for lrow, rrow in zip(A.left_mult_matrix(x),
                                  A.right_mult_matrix(x))]


def _twist_rows(A, x):
    """Matrix of w -> xw + wx, minus w in characteristic 2.  Its kernel is
    the space of twisted partners of x: wx = -xw (char != 2) resp.
    xw + wx = w (char 2), the one relation in which the two cases
    differ."""
    F = A.field
    rows = _sum_rows(A, x)
    if F.char == 2:
        for i, row in enumerate(rows):
            row[i] = F.sub(row[i], F.one())
    return rows


def _commute_rows(A, x):
    F = A.field
    return [[F.sub(l, r) for l, r in zip(lrow, rrow)]
            for lrow, rrow in zip(A.left_mult_matrix(x),
                                  A.right_mult_matrix(x))]


def _search_square_unit(A, particular, homogeneous, budget=SEARCH_BUDGET,
                        artin_schreier=False):
    """Element w = particular + combo(homogeneous) with w^2 a central
    unit (or w^2 + w central, when artin_schreier)."""
    F = A.field

    def good(w):
        if w is None or w.is_zero() or w.is_central():
            return None
        if artin_schreier:
            val = (w * w + w).central_value()
            return w if val is not None else None
        val = (w * w).central_value()
        if val is not None and not F.is_zero(val):
            return w
        return None

    base = particular if particular is not None else A.zero()
    if F.finite and len(homogeneous) <= 4:
        els = list(F.elements())
        count = 0
        for coeffs in itertools.product(els, repeat=len(homogeneous)):
            count += 1
            if count > budget:
                break
            w = base
            for c, h in zip(coeffs, homogeneous):
                w = w + h.scale(c)
            hit = good(w)
            if hit is not None:
                return hit
        return None
    rng = random.Random(11)
    for v in homogeneous:
        hit = good(base + v)
        if hit is not None:
            return hit
    for _ in range(budget):
        w = base
        for h in homogeneous:
            w = w + h.scale(F.random_element(rng, 4))
        hit = good(w)
        if hit is not None:
            return hit
    return None


def decompose_with_marked_elements(A, x, xp):
    """Present a 16-dimensional algebra as Q1 (x) Q2 with x a symbol
    generator of Q1 and xp a symbol generator of Q2.

    x and xp must commute with F[x] != F[xp]; classes as required:
    both square-central (char != 2), or x square-central or
    Artin-Schreier with xp Artin-Schreier (char 2).
    """
    from .quaternions import QuaternionSymbol, TensorPresentation

    F = A.field
    if A.dim != 16:
        raise ChainError("marked decomposition implemented for degree-4 "
                         "algebras (dimension 16)")
    if not x.commutes_with(xp):
        raise ChainError("marked elements must commute")
    if in_quadratic_span(x, xp):
        raise ChainError("marked elements generate the same quadratic "
                         "algebra")
    cx, cxp = classify(x), classify(xp)
    char2 = F.char == 2
    if char2:
        if cxp.kind != ElementClass.ARTIN_SCHREIER:
            raise ChainError("second marked element must be Artin-Schreier")
        if cx.kind not in (ElementClass.ARTIN_SCHREIER,
                           ElementClass.SQUARE_CENTRAL):
            raise ChainError("first marked element has the wrong class")
    else:
        if (cx.kind != ElementClass.SQUARE_CENTRAL
                or cxp.kind != ElementClass.SQUARE_CENTRAL):
            raise ChainError("marked elements must be square-central")

    # find the partner of x inside what will become Q1
    if char2 and cx.kind == ElementClass.SQUARE_CENTRAL:
        # x square-central: find Artin-Schreier w with wx + xw = x,
        # commuting with xp; then Q1 = F[w, x] with x in the y-slot
        rows = _sum_rows(A, x) + _commute_rows(A, xp)
        rhs = list(x.coords) + [F.zero()] * A.dim
        part, hom = _solve_in_span(A, rows, rhs)
        if part is None:
            raise ChainError("the twist equation w*x + x*w = x has no "
                             "solution")
        w1 = _search_square_unit(A, part, hom, artin_schreier=True)
        if w1 is None:
            raise SearchExhausted("no Artin-Schreier partner for the "
                                  "square-central marked element")
        q1_gens = (w1, x)
        s1 = QuaternionSymbol(F, (w1 * w1 + w1).central_value(), cx.value)
    else:
        _, hom = _solve_in_span(A, _twist_rows(A, x) + _commute_rows(A, xp))
        y1 = _search_square_unit(A, None, hom)
        if y1 is None:
            raise SearchExhausted("no twisted partner for the first marked "
                                  "element within budget")
        q1_gens = (x, y1)
        s1 = QuaternionSymbol(F, cx.value, (y1 * y1).central_value())

    # Q2 = centralizer of Q1; xp lies in it by construction
    c2 = centralizer(A, list(q1_gens))
    if len(c2) != 4:
        raise ChainError("centralizer of the first factor has dimension %d"
                         % len(c2))
    span2 = linalg.row_space_basis(F, [list(v.coords) for v in c2])
    if linalg.in_span(F, span2, list(xp.coords)) is None:
        raise ChainError("second marked element escaped its factor")
    y2 = _twisted_sc(A, [xp], span=span2)
    if y2 is None:
        raise SearchExhausted("no twisted partner for the second marked "
                              "element within budget")
    s2 = QuaternionSymbol(F, cxp.value, (y2 * y2).central_value())
    return TensorPresentation([s1, s2], algebra=A,
                              generators=[q1_gens, (xp, y2)])


def _twisted_sc(A, elems, budget=SEARCH_BUDGET, span=None):
    """A square-central y, in the row span of span if given, twisted by
    every v in elems: v y = -y v (char != 2) resp. v y + y v = y
    (char 2)."""
    rows = []
    for v in elems:
        rows.extend(_twist_rows(A, v))
    _, hom = _solve_in_span(A, rows, span=span)
    return _search_square_unit(A, None, hom, budget)


def find_anticommuting_link(P, x, xp):
    """For a tensor presentation with x a marked generator of one factor
    and xp of another, the product z of their twisted partners: z
    anticommutes with both (char != 2) or satisfies the twist relation
    with both (char 2)."""
    iy = _locate_factor(P, x)
    jy = _locate_factor(P, xp)
    if iy is None or jy is None or iy == jy:
        raise ChainError("marked elements must be generators of distinct "
                         "factors")
    y = _factor_partner(P, iy, x)
    yp = _factor_partner(P, jy, xp)
    z = y * yp
    _check_link(z, x, xp)
    return z


def _check_link(z, x, xp):
    cls = classify(z)
    if cls.kind != ElementClass.SQUARE_CENTRAL:
        raise ChainError("link element is not square-central")
    if z.algebra.field.char == 2:
        if not (x * z + z * x == z and xp * z + z * xp == z):
            raise ChainError("twist relations fail for the link element")
    else:
        if not (x * z == -(z * x) and xp * z == -(z * xp)):
            raise ChainError("anticommutation fails for the link element")


def _factor_span(P, i):
    """Row basis of the span of 1, x, y, xy for factor i."""
    A = P.algebra
    gx, gy = P.generators[i]
    return linalg.row_space_basis(A.field, [
        list(A.one().coords), list(gx.coords), list(gy.coords),
        list((gx * gy).coords)])


def _locate_factor(P, v):
    """Index of the factor whose 4-dimensional span contains v."""
    F = P.algebra.field
    for i in range(len(P.generators)):
        if linalg.in_span(F, _factor_span(P, i), list(v.coords)) is not None:
            return i
    return None


def _factor_partner(P, i, x):
    """Twisted partner of x inside factor i of the presentation."""
    gx, gy = P.generators[i]
    if x == gx:
        return gy
    y = _twisted_sc(P.algebra, [x], span=_factor_span(P, i))
    if y is None:
        raise SearchExhausted("no twisted partner inside the factor")
    return y


def mixed_link(P, x, xp):
    """char 2, x square-central in one factor, xp Artin-Schreier in
    another: (z, w) with w Artin-Schreier, w x + x w = x, and z
    square-central with w z + z w = z = xp z + z xp."""
    A = P.algebra
    F = A.field
    if F.char != 2:
        raise ChainError("mixed links exist only in characteristic 2")
    if classify(x).kind != ElementClass.SQUARE_CENTRAL:
        raise ChainError("first element must be square-central")
    if classify(xp).kind != ElementClass.ARTIN_SCHREIER:
        raise ChainError("second element must be Artin-Schreier")
    i = _locate_factor(P, x)
    j = _locate_factor(P, xp)
    if i is None or j is None or i == j:
        raise ChainError("marked elements must lie in distinct factors")
    gx, gy = P.generators[i]
    if x == gy:
        w = gx
    else:
        part, hom = _solve_in_span(A, _sum_rows(A, x), list(x.coords),
                                   _factor_span(P, i))
        if part is None:
            raise ChainError("no solution to the twist equation in the "
                             "factor")
        w = _search_square_unit(A, part, hom, artin_schreier=True)
        if w is None:
            raise SearchExhausted("no Artin-Schreier element twisting the "
                                  "square-central marker")
    if w * x + x * w != x:
        raise ChainError("twist relation w x + x w = x fails")
    y = _factor_partner(P, i, w)
    yp = _factor_partner(P, j, xp)
    z = y * yp
    _check_link(z, w, xp)
    return z, w


# -- chains ----------------------------------------------------------------


class Chain:
    """Alternating chain between two square-central (char != 2) or
    Artin-Schreier (char 2) elements.

    char != 2: nodes x = x_0, ..., x_k = x' all square-central, adjacent
    nodes anticommute, k <= 4; links is empty.
    char 2: nodes are Artin-Schreier, links[i] is a square-central
    element y with nodes[i] y + y nodes[i] = y = nodes[i+1] y + y
    nodes[i+1]; at most 3 links (6 steps).
    """

    def __init__(self, nodes, links=None):
        self.nodes = list(nodes)
        self.links = list(links or [])

    @property
    def char2(self):
        return self.nodes[0].algebra.field.char == 2

    def verify(self):
        nodes, links = self.nodes, self.links
        if not nodes:
            return False
        A = nodes[0].algebra
        if self.char2:
            if len(links) != len(nodes) - 1 or len(links) > 3:
                return False
            for v in nodes:
                if classify(v).kind != ElementClass.ARTIN_SCHREIER:
                    return False
            for y, (u, v) in zip(links, zip(nodes, nodes[1:])):
                if classify(y).kind != ElementClass.SQUARE_CENTRAL:
                    return False
                if u * y + y * u != y or v * y + y * v != y:
                    return False
            return True
        if links or len(nodes) > 5:
            return False
        for v in nodes:
            if classify(v).kind != ElementClass.SQUARE_CENTRAL:
                return False
        for u, v in zip(nodes, nodes[1:]):
            if u * v != -(v * u):
                return False
        return True

    def to_json(self):
        A = self.nodes[0].algebra
        return {
            "kind": "element-chain",
            "char2": self.char2,
            "algebra": A.to_json(),
            "nodes": [v.fmt() for v in self.nodes],
            "links": [v.fmt() for v in self.links],
        }


def _anticommuting_sc_candidates(A, elems, rng):
    """Up to PARTNER_LIMIT distinct square-central elements anticommuting
    with every element of elems."""
    F = A.field
    rows = []
    for e in elems:
        rows.extend(_twist_rows(A, e))
    _, hom = _solve_in_span(A, rows)

    out = []

    def consider(w):
        if w.is_zero() or w.is_central():
            return
        val = (w * w).central_value()
        if val is None or F.is_zero(val):
            return
        if all(w != seen and w != -seen for seen in out):
            out.append(w)

    for h in hom:
        consider(h)
    for u, v in itertools.combinations(hom, 2):
        consider(u + v)
        if len(out) >= PARTNER_LIMIT:
            return out
    for _ in range(PARTNER_TRIES):
        w = A.zero()
        for h in hom:
            w = w + h.scale(F.random_element(rng, 3))
        consider(w)
        if len(out) >= PARTNER_LIMIT:
            break
    return out


def _link_between(x, z):
    """Square-central link twisted by both of the commuting marked
    elements x, z (square-central, char != 2; Artin-Schreier, char 2)."""
    A = x.algebra
    if in_quadratic_span(x, z):
        y = _twisted_sc(A, [x, z])
        if y is None:
            raise SearchExhausted(
                "no %s square-central element"
                % ("twisting" if A.field.char == 2 else "anticommuting"))
        return y
    P = decompose_with_marked_elements(A, x, z)
    return find_anticommuting_link(P, x, z)


def chain(x, xp):
    """A chain between two square-central (char != 2) or Artin-Schreier
    (char 2) elements of a degree-4 algebra, per-link verified."""
    A = x.algebra
    char2 = A.field.char == 2
    kind, name = ((ElementClass.ARTIN_SCHREIER, "Artin-Schreier") if char2
                  else (ElementClass.SQUARE_CENTRAL, "square-central"))
    for v in (x, xp):
        if classify(v).kind != kind:
            raise ChainError("endpoints must be %s" % name)
    if x == xp:
        c = Chain([x])
        if not c.verify():
            raise ChainError("trivial chain failed verification")
        return c
    if char2:
        return _chain_char2(A, x, xp)
    return _chain_charne2(A, x, xp)


def _chain_charne2(A, x, xp):
    if x * xp == -(xp * x):
        c = Chain([x, xp])
        if not c.verify():
            raise ChainError("direct chain failed verification")
        return c
    if x.commutes_with(xp) and not in_quadratic_span(x, xp):
        x2 = xp
        x1 = _link_between(x, x2)
        c = Chain([x, x1, xp])
        if c.verify():
            return c
    try:
        x2 = find_commuting_link(x, xp)
        x1 = _link_between(x, x2)
        x3 = _link_between(x2, xp)
        c = Chain([x, x1, x2, x3, xp])
        if not c.verify():
            raise ChainError("assembled chain failed verification")
        return c
    except ChainError:
        pass
    # no commuting middle element is available; bridge anticommuting
    # partners of the two endpoints directly
    rng = random.Random(23)
    lefts = _anticommuting_sc_candidates(A, [x], rng)
    rights = _anticommuting_sc_candidates(A, [xp], rng)
    for x1 in lefts:
        if x1 * xp == -(xp * x1):
            c = Chain([x, x1, xp])
            if c.verify():
                return c
    for x1 in lefts:
        for x3 in rights:
            if x1 * x3 == -(x3 * x1):
                c = Chain([x, x1, x3, xp])
                if c.verify():
                    return c
    for x1 in lefts:
        for x3 in rights:
            x2 = _twisted_sc(A, [x1, x3])
            if x2 is None:
                continue
            c = Chain([x, x1, x2, x3, xp])
            if c.verify():
                return c
    raise SearchExhausted("no chain found within budget")


def _chain_char2(A, x, xp):
    y_direct = _twisted_sc(A, [x, xp], DIRECT_TWIST_BUDGET)
    if y_direct is not None:
        c = Chain([x, xp], [y_direct])
        if c.verify():
            return c
    # short shape: x, y1, x1, y2, x'  with x1 Artin-Schreier
    try:
        z = find_commuting_link(x, xp)
    except SearchExhausted:
        z = None
    if z is not None and classify(z).kind == ElementClass.ARTIN_SCHREIER:
        try:
            y1 = _link_between(x, z)
            y2 = _link_between(z, xp)
            c = Chain([x, z, xp], [y1, y2])
            if c.verify():
                return c
        except ChainError:
            pass
    if z is not None and classify(z).kind == ElementClass.SQUARE_CENTRAL:
        try:
            # long shape via the mixed construction on (z, x) and (z, x')
            P1 = decompose_with_marked_elements(A, z, x)
            z1, w1 = mixed_link(P1, z, x)
            P2 = decompose_with_marked_elements(A, z, xp)
            z2, w2 = mixed_link(P2, z, xp)
            # chain x, z1, w1, z, w2, z2, x'
            c = Chain([x, w1, w2, xp], [z1, z, z2])
            if c.verify():
                return c
        except ChainError:
            pass
    # bridge through a random Artin-Schreier middle node
    rng = random.Random(29)
    for _ in range(BRIDGE_DRAWS):
        w = A.random_element(rng, 3)
        x1 = _quadratic_inside(w)
        if x1 is None or classify(x1).kind != ElementClass.ARTIN_SCHREIER:
            continue
        y1 = _twisted_sc(A, [x, x1], DIRECT_TWIST_BUDGET)
        if y1 is None:
            continue
        y2 = _twisted_sc(A, [x1, xp], DIRECT_TWIST_BUDGET)
        if y2 is None:
            continue
        c = Chain([x, x1, xp], [y1, y2])
        if c.verify():
            return c
    raise SearchExhausted("no chain found within budget")


def tensor_chain_via_common_element(P, Pp):
    """Slot chain between two presentations of the same biquaternion
    algebra, through an element commuting with both first generators."""
    from .quaternions import QuaternionError, SlotChain

    A = P.algebra
    F = A.field
    if A != Pp.algebra:
        raise ChainError("presentations must share an ambient algebra")
    if len(P.symbols) != 2 or len(Pp.symbols) != 2:
        raise ChainError("the common-element route is implemented for "
                         "biquaternion presentations")
    x = P.generators[0][0]
    xp = Pp.generators[0][0]
    char2 = F.char == 2
    z = find_commuting_link(x, xp, avoid=(x, xp))
    zc = classify(z)
    ambient = {"kind": "ambient"}
    if not char2 or zc.kind == ElementClass.ARTIN_SCHREIER:
        node2 = decompose_with_marked_elements(A, x, z)
        node3 = decompose_with_marked_elements(A, xp, z)
        links = [
            {"left_factor": 0, "right_factor": 0, "slot": "a"},
            {"left_factor": 1, "right_factor": 1, "slot": "a"},
            {"left_factor": 0, "right_factor": 0, "slot": "a"},
        ]
    else:
        node2 = decompose_with_marked_elements(A, z, x)
        node3 = decompose_with_marked_elements(A, z, xp)
        links = [
            {"left_factor": 0, "right_factor": 1, "slot": "a"},
            {"left_factor": 0, "right_factor": 0, "slot": "b"},
            {"left_factor": 1, "right_factor": 0, "slot": "a"},
        ]
    chain_out = SlotChain([P, node2, node3, Pp], links,
                          [ambient, ambient, ambient])
    if not chain_out.verify():
        raise QuaternionError("common-element slot chain failed "
                              "verification")
    return chain_out
