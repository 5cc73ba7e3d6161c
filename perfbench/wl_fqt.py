"""fqt-division: E(f) division versus isotropy of f over F_3(t).

Inputs are f = <a, b, c, abc> with a, b, c nonzero polynomials of degree
at most 2 over F_3.  One op runs ``extract_E(f)``, ``is_division(E)`` and
``is_isotropic(f)`` and compares the two verdicts.  The check decides f
apart from quatalg: f is a * <<-ab, -ac>>, so it is isotropic iff the
quaternion algebra (-ab, -ac) splits, which the tame Hilbert symbols at
the factors of a, b, c and at infinity decide.

A round is three anisotropic and two isotropic forms, classified by that
oracle.  The isotropic ones are "shallow": <b, c, abc> has a zero (y, z, w)
with y in F_3 and z, w of degree at most 3.  Each round has one with a
zero at y = 0 (that is, -ab is a square) and one whose zeros all need
y != 0, so that the witness search, which tries y = 0 first, does a
comparable amount of work in every round.  Deeper isotropic forms are
left out because quatalg's bounded witness search spends 10 to 100 s on
each of them (see README.md).
"""

from __future__ import annotations

import itertools
import random

from arith import padd, pmul, pneg, pnorm
from oracles import fqt_form_isotropic, fqt_is_zero

P = 3
ROUNDS = 16
PATTERN = ("aniso", "iso0", "aniso", "iso1", "aniso")
ROUND_SIZE = len(PATTERN)

_DEG3 = [pnorm(list(c), P) for c in itertools.product(range(P), repeat=4)]


def random_poly(rng):
    while True:
        c = pnorm([rng.randrange(P) for _ in range(3)], P)
        if c:
            return c


def shallow_zero(a, b, c):
    """A zero (y, z, w) != 0 of <b, c, abc> with y in F_3 and z, w of
    degree <= 3, or None."""
    abc = pmul(pmul(a, b, P), c, P)
    values = {}
    for w in _DEG3:
        values.setdefault(tuple(pmul(abc, pmul(w, w, P), P)), w)
    for y in ([], [1]):
        target = pneg(pmul(b, pmul(y, y, P), P), P)
        for z in _DEG3:
            rest = padd(target, pneg(pmul(c, pmul(z, z, P), P), P), P)
            w = values.get(tuple(rest))
            if w is not None and (y or z or w):
                return y, z, w
    return None


def make_rounds(seed, rounds=ROUNDS):
    rng = random.Random(seed)
    queues = {kind: [] for kind in PATTERN}
    out = []
    for _ in range(rounds):
        rnd = []
        for kind in PATTERN:
            while not queues[kind]:
                a, b, c = random_poly(rng), random_poly(rng), random_poly(rng)
                if not fqt_form_isotropic(a, b, c, P):
                    queues["aniso"].append((a, b, c))
                    continue
                zero = shallow_zero(a, b, c)
                if zero is not None:
                    queues["iso1" if zero[0] else "iso0"].append((a, b, c))
            a, b, c = queues[kind].pop(0)
            rnd.append({"kind": kind, "a": a, "b": b, "c": c})
        out.append(rnd)
    return out


# -- worker side -------------------------------------------------------------


def prepare(spec):
    from quatalg import fields, forms

    F = fields.FunctionField(fields.FiniteField(P))
    a, b, c = (F.from_poly(tuple(spec[k])) for k in "abc")
    d = F.mul(F.mul(a, b), c)
    return forms.QuadraticForm(F, (a, b, c, d), False)


def run(f, state):
    from quatalg import algebras, clifford, forms

    E = clifford.extract_E(f)
    division = algebras.is_division(E)
    iso = forms.is_isotropic(f)
    return division, iso, division.status == (iso.status is False)


def serialize(f, raw, state):
    division, iso, agree = raw
    witness = None
    if iso.witness is not None:
        witness = [[list(n), list(d)] for n, d in iso.witness]
    return {"division": division.status, "isotropic": iso.status,
            "agree": agree, "witness": witness, "method": iso.method}


# -- checker side ------------------------------------------------------------


def check(spec, out, state):
    """("ok" | "failed" | "wrong", reason)."""
    a, b, c = spec["a"], spec["b"], spec["c"]
    iso = fqt_form_isotropic(a, b, c, P)
    if out["isotropic"] is not iso:
        return "wrong", "isotropy verdict %r, oracle %r" % (out["isotropic"], iso)
    if out["division"] is not (not iso):
        return "wrong", "division verdict %r, oracle %r" % (out["division"],
                                                          not iso)
    if out["agree"] is not True:
        return "wrong", "quatalg's two verdicts disagree"
    if iso:
        w = out["witness"]
        if w is None:
            return "failed", "isotropic verdict without a witness"
        vec = [(pnorm(n, P), pnorm(d, P)) for n, d in w]
        if not any(n for n, _ in vec):
            return "wrong", "zero witness"
        coeffs = [a, b, c, pmul(pmul(a, b, P), c, P)]
        if not fqt_is_zero(coeffs, vec, P):
            return "wrong", "witness does not evaluate to zero"
    return "ok", None
