"""Independent decisions and identity checks used to judge quatalg's output.

Nothing here imports quatalg.  The F_q(t) oracle uses tame Hilbert
symbols computed with the GF(p)[t] routines of ``arith``; the Q oracle
is Hasse-Minkowski with sympy's ``factorint`` and ``legendre_symbol``
(imported on first use, so that workers that never decide over Q do not
load sympy); finite fields are decided by exhaustive enumeration;
algebra identities are re-multiplied from structure constants.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from arith import (QQ, field_of, padd, pfactor, pmod, pmul, pneg, ppowmod,
                   pval)


def factorint(n):
    from sympy import factorint as f
    return f(n)


def legendre_symbol(a, p):
    from sympy import legendre_symbol as f
    return f(a, p)


# -- quaternion splitting over GF(p)(t), p odd ---------------------------------


def _legendre_residue(r, pi, p):
    """+1 / -1: whether the pi-unit r is a square modulo pi."""
    d = len(pi) - 1
    e = ppowmod(r, (p ** d - 1) // 2, pi, p)
    if e == [1]:
        return 1
    if e == [p - 1]:
        return -1
    raise ValueError("residue is not a pi-unit")


def _legendre_const(c, p):
    return 1 if pow(c % p, (p - 1) // 2, p) == 1 else -1


def fqt_hilbert_symbols(u, v, p):
    """Tame Hilbert symbols (u, v)_P of nonzero u, v in GF(p)[t] at every
    place P where they can be nontrivial: the monic irreducible factors of
    u v, and infinity (keyed "inf")."""
    primes = {tuple(pi) for x in (u, v) for pi, _ in pfactor(x, p)}
    out = {}
    for key in sorted(primes):
        pi = list(key)
        al, u0 = pval(u, pi, p)
        be, v0 = pval(v, pi, p)
        s = 1
        if al * be % 2:
            s = _legendre_residue([p - 1], pi, p)
        if be % 2:
            s *= _legendre_residue(pmod(u0, pi, p), pi, p)
        if al % 2:
            s *= _legendre_residue(pmod(v0, pi, p), pi, p)
        out[key] = s
    al, be = -(len(u) - 1), -(len(v) - 1)
    s = _legendre_const(-1, p) ** (al * be % 2)
    if be % 2:
        s *= _legendre_const(u[-1], p)
    if al % 2:
        s *= _legendre_const(v[-1], p)
    out["inf"] = s
    return out


def fqt_splits(u, v, p):
    """Whether the quaternion algebra (u, v) over GF(p)(t) is split."""
    return all(s == 1 for s in fqt_hilbert_symbols(u, v, p).values())


def fqt_form_isotropic(a, b, c, p):
    """Isotropy of <a, b, c, abc>: it is a <<-ab, -ac>>, isotropic iff the
    quaternion algebra (-ab, -ac) splits."""
    return fqt_splits(pneg(pmul(a, b, p), p), pneg(pmul(a, c, p), p), p)


def fqt_is_zero(coeffs, vec, p):
    """Whether sum coeffs[i] * vec[i]^2 = 0 for polynomial coefficients and
    rational-function coordinates given as (num, den) pairs."""
    dens = [d for _, d in vec]
    total = []
    for i, (a, (n, _)) in enumerate(zip(coeffs, vec)):
        term = pmul(a, pmul(n, n, p), p)
        for j, d in enumerate(dens):
            if j != i:
                term = pmul(term, pmul(d, d, p), p)
        total = padd(total, term, p)
    return not total


# -- Hasse-Minkowski over Q -------------------------------------------------------


def squarefree_int(x):
    """The squarefree integer in the square class of a nonzero rational."""
    x = Fraction(x)
    n = x.numerator * x.denominator
    out = -1 if n < 0 else 1
    for q, e in factorint(abs(n)).items():
        if e % 2:
            out *= q
    return out


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert_q(a, b, p):
    """(a, b)_p for nonzero integers; p = 0 means the real place."""
    if p == 0:
        return -1 if a < 0 and b < 0 else 1
    al, u = _vp(a, p)
    be, v = _vp(b, p)
    if p == 2:
        eps = lambda x: (x - 1) // 2 % 2
        omg = lambda x: (x * x - 1) // 8 % 2
        e = eps(u) * eps(v) + al * omg(v) + be * omg(u)
        return -1 if e % 2 else 1
    s = (-1) ** (al * be * ((p - 1) // 2) % 2)
    if be % 2:
        s *= legendre_symbol(u % p, p)
    if al % 2:
        s *= legendre_symbol(v % p, p)
    return s


def _is_local_square(d, p):
    """Whether the nonzero integer d is a square in Q_p (p = 0: R)."""
    if p == 0:
        return d > 0
    v, u = _vp(d, p)
    if v % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return legendre_symbol(u % p, p) == 1


def q_places(diag):
    primes = {2}
    for a in diag:
        primes.update(factorint(abs(a)))
    return sorted(primes) + [0]


def q_local_isotropic(diag, p):
    """Serre, A Course in Arithmetic, IV.2.2, on squarefree integers."""
    n = len(diag)
    d = 1
    for a in diag:
        d *= a
    eps = 1
    for i in range(n):
        for j in range(i + 1, n):
            eps *= hilbert_q(diag[i], diag[j], p)
    if n == 2:
        return _is_local_square(-d, p)
    if n == 3:
        return hilbert_q(-1, -d, p) == eps
    if n == 4:
        return (not _is_local_square(d, p)) or eps == hilbert_q(-1, -1, p)
    return True


def q_isotropic(diag):
    """Hasse-Minkowski decision for a diagonal form over Q."""
    if len(diag) < 2:
        return False
    sq = [squarefree_int(a) for a in diag]
    return all(q_local_isotropic(sq, p) for p in q_places(sq))


# -- finite fields ------------------------------------------------------------------


def form_value(F, coeffs, vec, char2):
    total = F.zero()
    if char2:
        for i, (a, b) in enumerate(coeffs):
            x, y = vec[2 * i], vec[2 * i + 1]
            term = F.add(F.add(F.mul(a, F.mul(x, x)), F.mul(x, y)),
                         F.mul(b, F.mul(y, y)))
            total = F.add(total, term)
    else:
        for a, x in zip(coeffs, vec):
            total = F.add(total, F.mul(a, F.mul(x, x)))
    return total


def finite_isotropic(F, coeffs, char2):
    """Exhaustive isotropy decision over a finite field."""
    dim = 2 * len(coeffs) if char2 else len(coeffs)
    zero = F.zero()
    for vec in itertools.product(F.elements(), repeat=dim):
        if any(x != zero for x in vec) and \
                F.is_zero(form_value(F, coeffs, vec, char2)):
            return True
    return False


def artin_schreier_trivial(F, c):
    """Whether c = x^2 + x for some x of the finite field F."""
    return any(F.add(F.mul(x, x), x) == c for x in F.elements())


# -- structure-constant algebras ---------------------------------------------------


class Table:
    """A structure-constant algebra rebuilt from a JSON table."""

    def __init__(self, F, dim, cells, unit):
        self.F, self.dim, self.cells, self.unit = F, dim, cells, unit

    @classmethod
    def from_json(cls, d):
        F = field_of(d["field"])
        dim = d["dim"]
        cells = [[[(k, F.parse(s)) for k, s in enumerate(cell)
                   if not F.is_zero(F.parse(s))] for cell in row]
                 for row in d["table"]]
        return cls(F, dim, cells, [F.parse(s) for s in d["unit"]])

    def mul(self, u, v):
        F = self.F
        out = [F.zero()] * self.dim
        for i, a in enumerate(u):
            if F.is_zero(a):
                continue
            row = self.cells[i]
            for j, b in enumerate(v):
                if F.is_zero(b):
                    continue
                c = F.mul(a, b)
                for k, t in row[j]:
                    out[k] = F.add(out[k], F.mul(c, t))
        return out

    def add(self, u, v):
        return [self.F.add(a, b) for a, b in zip(u, v)]

    def neg(self, u):
        return [self.F.neg(a) for a in u]

    def basis(self, i):
        F = self.F
        return [F.one() if j == i else F.zero() for j in range(self.dim)]

    def is_central(self, u):
        for i in range(self.dim):
            e = self.basis(i)
            if self.mul(u, e) != self.mul(e, u):
                return False
        return True

    def scalar_part(self, u):
        """c with u = c * 1, or None."""
        F = self.F
        for i, x in enumerate(self.unit):
            if not F.is_zero(x):
                if isinstance(F, QQ):
                    c = u[i] / x
                else:
                    c = next(c for c in F.elements() if F.mul(c, x) == u[i])
                if [F.mul(c, y) for y in self.unit] == list(u):
                    return c
                return None
        return None

    def is_square_central(self, u):
        if self.is_central(u):
            return False
        c = self.scalar_part(self.mul(u, u))
        return c is not None and not self.F.is_zero(c)

    def is_artin_schreier(self, u):
        if self.is_central(u):
            return False
        return self.scalar_part(self.add(self.mul(u, u), u)) is not None

    def twists(self, x, y):
        """x y + y x = y (characteristic 2)."""
        return self.add(self.mul(x, y), self.mul(y, x)) == list(y)

    def anticommute(self, x, y):
        return self.mul(x, y) == self.neg(self.mul(y, x))


def check_presentation(T, symbols, gens):
    """(ok, reason): the generator pairs (x_i, y_i) satisfy the relations
    of their symbols (a_i, b_i) in T, pairs of different factors commute,
    and the monomials x_1^e y_1^f ... x_n^e y_n^f span T.  Then T is the
    tensor product of the quaternion algebras of the symbols (a tensor
    product of central simple algebras maps injectively), with these
    generators.  The relations are x^2 = a, y^2 = b, yx = -xy, or in
    characteristic 2 x^2 = x + a, y^2 = b, yx = xy + y."""
    F = T.F
    char2 = F.p == 2
    if len(gens) != len(symbols):
        return False, "%d generator pairs for %d symbols" % (len(gens),
                                                              len(symbols))

    def scalar(c):
        return [F.mul(c, u) for u in T.unit]

    for i, ((a, b), (x, y)) in enumerate(zip(symbols, gens)):
        xy = T.mul(x, y)
        if char2:
            ok = (T.mul(x, x) == T.add(x, scalar(a))
                  and T.mul(y, x) == T.add(xy, y))
        else:
            ok = T.mul(x, x) == scalar(a) and T.mul(y, x) == T.neg(xy)
        if not (ok and T.mul(y, y) == scalar(b)):
            return False, "factor %d fails its symbol's relations" % i
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            for u in gens[i]:
                for v in gens[j]:
                    if T.mul(u, v) != T.mul(v, u):
                        return False, "factors %d and %d do not commute" \
                            % (i, j)
    monomials = [list(T.unit)]
    for x, y in gens:
        factor = [x, y, T.mul(x, y)]
        monomials += [T.mul(m, f) for m in monomials for f in factor]
    if len(monomials) != T.dim or rank(F, monomials) != T.dim:
        return False, "the generators' monomials do not span the algebra"
    return True, None


def check_chain_cert(cert, x=None, xp=None):
    """(ok, reason) for an element-chain certificate, recomputed from its
    embedded table; x, xp are the marked endpoints when known."""
    try:
        T = Table.from_json(cert["algebra"])
        F = T.F
        nodes = [[F.parse(s) for s in v] for v in cert["nodes"]]
        links = [[F.parse(s) for s in v] for v in cert["links"]]
    except (KeyError, TypeError, ValueError) as exc:
        return False, "malformed certificate: %s" % exc
    char2 = F.p == 2
    if bool(cert.get("char2")) != char2:
        return False, "characteristic flag"
    if not nodes:
        return False, "empty chain"
    if x is not None and (nodes[0] != list(x) or nodes[-1] != list(xp)):
        return False, "endpoints are not the marked pair"
    if char2:
        if len(links) != len(nodes) - 1 or 2 * len(links) > 6:
            return False, "more than six steps"
        for i, v in enumerate(nodes):
            if not T.is_artin_schreier(v):
                return False, "node %d not Artin-Schreier" % i
        for i, y in enumerate(links):
            if not T.is_square_central(y):
                return False, "link %d not square-central" % i
            if not (T.twists(nodes[i], y) and T.twists(nodes[i + 1], y)):
                return False, "link %d twist relation" % i
        return True, None
    if links or len(nodes) - 1 > 4:
        return False, "more than four links"
    for i, v in enumerate(nodes):
        if not T.is_square_central(v):
            return False, "node %d not square-central" % i
    for i in range(len(nodes) - 1):
        if not T.anticommute(nodes[i], nodes[i + 1]):
            return False, "nodes %d, %d do not anticommute" % (i, i + 1)
    return True, None


# -- quaternion symbols ---------------------------------------------------------------


def quaternion_cells(F, a, b, char2):
    """Structure constants of (a, b) resp. [a, b) on 1, x, y, xy, derived
    from x^2 = a, y^2 = b, yx = -xy resp. x^2 = x + a, y^2 = b,
    yx = xy + y."""
    one = F.one()
    ab = F.mul(a, b)
    c = [[[] for _ in range(4)] for _ in range(4)]
    for i in range(4):
        c[0][i] = [(i, one)]
        c[i][0] = [(i, one)]
    c[1][2] = [(3, one)]
    c[2][2] = [(0, b)]
    c[3][2] = [(1, b)]
    if char2:
        c[1][1] = [(0, a), (1, one)]
        c[2][1] = [(2, one), (3, one)]
        c[1][3] = [(2, a), (3, one)]
        c[3][1] = [(2, a)]
        c[2][3] = [(0, b), (1, b)]
        c[3][3] = [(0, ab)]
    else:
        c[1][1] = [(0, a)]
        c[2][1] = [(3, F.neg(one))]
        c[1][3] = [(2, a)]
        c[3][1] = [(2, F.neg(a))]
        c[2][3] = [(1, F.neg(b))]
        c[3][3] = [(0, F.neg(ab))]
    return c


def quaternion_table(F, a, b, char2):
    return Table(F, 4, quaternion_cells(F, a, b, char2),
                 [F.one(), F.zero(), F.zero(), F.zero()])


def rank(F, rows):
    """Rank over a field of the checker interface."""
    rows = [list(r) for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows))
                    if not F.is_zero(rows[i][col])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = _inverse(F, rows[r][col])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not F.is_zero(rows[i][col]):
                c = rows[i][col]
                rows[i] = [F.sub(x, F.mul(c, y))
                           for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _inverse(F, a):
    if isinstance(F, QQ):
        return 1 / a
    return next(x for x in F.elements() if F.mul(a, x) == F.one())


def is_algebra_isomorphism(F, left, right, phi):
    """phi (image coordinates = phi . coordinates) is a unital,
    multiplicative bijection between two 4-dimensional tables."""
    n = left.dim
    if rank(F, phi) != n:
        return False

    def image(u):
        return [sum_(F, [F.mul(phi[i][j], u[j]) for j in range(n)])
                for i in range(n)]

    if image(left.unit) != list(right.unit):
        return False
    imgs = [image(left.basis(i)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = image(left.mul(left.basis(i), left.basis(j)))
            if lhs != right.mul(imgs[i], imgs[j]):
                return False
    return True


def sum_(F, items):
    total = F.zero()
    for x in items:
        total = F.add(total, x)
    return total


def quaternion_division_q(a, b):
    """(a, b) over Q is division iff its norm form <1, -a, -b, ab> is
    anisotropic."""
    return not q_isotropic([Fraction(1), -a, -b, a * b])


def q_symbols_equal(s, sp):
    """(a, b) and (a', b') over Q are isomorphic iff their Hilbert symbols
    agree at every place."""
    ints = [squarefree_int(x) for x in (s[0], s[1], sp[0], sp[1])]
    for p in q_places(ints):
        if hilbert_q(ints[0], ints[1], p) != hilbert_q(ints[2], ints[3], p):
            return False
    return True
