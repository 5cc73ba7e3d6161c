"""Dense exact linear algebra over a field object.

Matrices are lists of row lists of field payloads.  Everything here is
plain Gaussian elimination; exactness makes pivoting trivial.

Over a prime field GF(p) (``polynomials._prime``), ``rref`` works on the
int payloads: it scales the pivot row with ``inv * x % p`` and eliminates
with ``(x - f * y) % p``, with no field method call per entry.  The pivot
order is the same on every path, so the echelon form is the same.
"""

from __future__ import annotations

from .polynomials import _prime


def zeros(F, rows, cols):
    return [[F.zero() for _ in range(cols)] for _ in range(rows)]


def identity(F, n):
    m = zeros(F, n, n)
    for i in range(n):
        m[i][i] = F.one()
    return m


def mat_mul(F, a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros(F, rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if F.is_zero(c):
                continue
            bk = b[k]
            for j in range(cols):
                if not F.is_zero(bk[j]):
                    oi[j] = F.add(oi[j], F.mul(c, bk[j]))
    return out


def mat_vec(F, a, v):
    out = []
    for row in a:
        s = F.zero()
        for c, x in zip(row, v):
            if not F.is_zero(c) and not F.is_zero(x):
                s = F.add(s, F.mul(c, x))
        out.append(s)
    return out


def vec_add(F, u, v):
    return [F.add(a, b) for a, b in zip(u, v)]


def vec_sub(F, u, v):
    return [F.sub(a, b) for a, b in zip(u, v)]


def vec_scale(F, c, v):
    return [F.mul(c, a) for a in v]


def vec_is_zero(F, v):
    return all(F.is_zero(a) for a in v)


def rref(F, mat):
    """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    p = _prime(F)
    is_zero = (0).__eq__ if p else F.is_zero
    inv_, mul, sub = F.inv, F.mul, F.sub
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if not is_zero(m[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        if p:
            inv = pow(m[r][c], p - 2, p)
            top = m[r] = [inv * x % p for x in m[r]]
            for i in range(rows):
                f = m[i][c]
                if f and i != r:
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], top)]
        else:
            inv = inv_(m[r][c])
            top = m[r] = [mul(inv, x) for x in m[r]]
            for i in range(rows):
                if i != r and not is_zero(m[i][c]):
                    f = m[i][c]
                    m[i] = [sub(x, mul(f, y)) for x, y in zip(m[i], top)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(F, mat):
    return len(rref(F, mat)[1])


def kernel_basis(F, mat):
    """Basis of the right kernel {v : mat v = 0}."""
    if not mat:
        return []
    cols = len(mat[0])
    red, pivots = rref(F, mat)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [F.zero()] * cols
        v[fc] = F.one()
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(red[r][fc])
        basis.append(v)
    return basis


def solve(F, mat, rhs):
    """One solution of mat x = rhs, or None if inconsistent."""
    if not mat:
        return None
    cols = len(mat[0])
    aug = [row[:] + [b] for row, b in zip(mat, rhs)]
    red, pivots = rref(F, aug)
    if cols in pivots:
        return None
    x = [F.zero()] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def invert(F, mat):
    """Matrix inverse, or None if singular."""
    n = len(mat)
    aug = [row[:] + identity(F, n)[i] for i, row in enumerate(mat)]
    red, pivots = rref(F, aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def row_space_basis(F, mat):
    red, pivots = rref(F, mat)
    return [red[i] for i in range(len(pivots))]


def in_span(F, basis, v):
    """Is v in the row span of basis?  Returns coordinates or None."""
    if not basis:
        return [] if vec_is_zero(F, v) else None
    cols = [[basis[j][i] for j in range(len(basis))] for i in range(len(v))]
    return solve(F, cols, v)

