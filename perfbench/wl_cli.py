"""cli-forms: small requests through ``quatalg.cli.main(argv)``, in process.

One round is the fixed list ``PLAN`` of request kinds with seeded
contents, followed by the two ``FAILING`` requests.  Those two ask about
the isotropic form <-11/13, -17/3, 7/2, 3/19> over Q, whose zeros all lie
above the integer height 30 that ``forms._search_zero_integer`` searches:
``form isotropic`` answers "isotropic" without a witness and ``form witt``
dies with an uncaught ``UndecidableError``.  Both are counted as failed
ops, the same two in every round.

Seeded isotropic forms and split symbols over Q are built with a zero of
small height, so that the witness search reaches it; anisotropic ones
are drawn at random and kept when the Hasse-Minkowski oracle agrees.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

from arith import GF, QQ
from oracles import (artin_schreier_trivial, finite_isotropic, form_value,
                     q_isotropic, q_symbols_equal, quaternion_division_q,
                     quaternion_table, rank, squarefree_int)

ROUNDS = 64
HEIGHT = 12  # numerators and denominators of random rationals
SMALL = 4    # coordinates of the planted zeros

FIELDS = {"Q": None, "GF5": (5, 1), "GF7": (7, 1), "GF9": (3, 2),
          "F2": (2, 1), "F4": (2, 2)}

# (command, field, dimension or None, flavour)
PLAN = [
    ("form invariants", "Q", 2, "any"),
    ("form invariants", "Q", 4, "any"),
    ("form invariants", "GF9", 4, "any"),
    ("form invariants", "F4", 4, "any"),
    ("form isotropic", "Q", 2, "iso"),
    ("form isotropic", "Q", 2, "aniso"),
    ("form isotropic", "Q", 4, "iso"),
    ("form isotropic", "Q", 4, "aniso"),
    ("form isotropic", "GF5", 2, "any"),
    ("form isotropic", "GF9", 4, "any"),
    ("form isotropic", "F2", 2, "any"),
    ("form isotropic", "F4", 4, "any"),
    ("form witt", "Q", 2, "iso"),
    ("form witt", "Q", 4, "index1"),
    ("form witt", "Q", 4, "aniso"),
    ("form witt", "GF7", 4, "any"),
    ("form witt", "F4", 4, "any"),
    ("quat division", "Q", None, "division"),
    ("quat division", "Q", None, "split"),
    ("quat division", "GF5", None, "any"),
    ("quat division", "F4", None, "any"),
    ("quat iso", "Q", None, "iso"),
    ("quat iso", "Q", None, "any"),
    ("quat iso", "GF7", None, "any"),
]

FAILING_FORM = ["-11/13", "-17/3", "7/2", "3/19"]
FAILING = [
    {"cmd": "form isotropic", "field": "Q", "diag": FAILING_FORM,
     "known_fault": True},
    {"cmd": "form witt", "field": "Q", "diag": FAILING_FORM,
     "known_fault": True},
]
ROUND_SIZE = len(PLAN) + len(FAILING)


CHECK_FIELDS = {name: QQ() if spec is None else GF(*spec)
                for name, spec in FIELDS.items()}


def checker_field(name):
    return CHECK_FIELDS[name]


def _descriptor(name):
    spec = FIELDS[name]
    if spec is None:
        return {"kind": "Q"}
    return {"kind": "GF", "p": spec[0], "k": spec[1]}


def _rational(rng, bound=HEIGHT):
    while True:
        x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if x:
            return x


def _elem(F, rng, nonzero=True):
    if isinstance(F, QQ):
        return _rational(rng)
    els = F.elements()[1:] if nonzero else F.elements()
    return rng.choice(els)


def _small_vector(rng, n):
    return [rng.choice([-1, 1]) * rng.randint(1, SMALL) for _ in range(n)]


def _planted_q_form(rng, n):
    """A diagonal form over Q with an integer zero of height <= SMALL."""
    while True:
        x = _small_vector(rng, n)
        diag = [_rational(rng) for _ in range(n - 1)]
        rest = -sum(a * xi * xi for a, xi in zip(diag, x)) / (x[-1] ** 2)
        if rest:
            return diag + [rest]


def _q_form(rng, n, flavour):
    if flavour == "iso":
        return _planted_q_form(rng, n)
    if flavour == "index1":
        # isotropic with a non-square determinant: Witt index exactly 1
        while True:
            diag = _planted_q_form(rng, n)
            prod = Fraction(1)
            for a in diag:
                prod *= a
            if squarefree_int(prod) != 1:
                return diag
    while True:
        diag = [_rational(rng) for _ in range(n)]
        if flavour == "any" or not q_isotropic(diag):
            return diag


def _request(rng, cmd, name, dim, flavour):
    F = checker_field(name)
    spec = {"cmd": cmd, "field": name}
    if cmd.startswith("form"):
        if name in ("F2", "F4"):
            spec["pairs"] = [[F.fmt(_elem(F, rng, False)),
                              F.fmt(_elem(F, rng, False))]
                             for _ in range(dim // 2)]
        elif name == "Q":
            spec["diag"] = [str(a) for a in _q_form(rng, dim, flavour)]
        else:
            spec["diag"] = [F.fmt(_elem(F, rng)) for _ in range(dim)]
        return spec
    if name == "Q":
        a, b = _rational(rng), _rational(rng)
        if cmd == "quat division" and flavour == "division":
            while not quaternion_division_q(a, b):
                a, b = _rational(rng), _rational(rng)
        elif cmd == "quat division":
            # b = s^2 - a r^2 is a norm from Q(sqrt a), so the norm form
            # <1, -a, -b, ab> has the zero (s, r, 1, 0)
            b = Fraction(0)
            while not b:
                s, r = _small_vector(rng, 2)
                b = s * s - a * r * r
        spec["a"], spec["b"] = str(a), str(b)
        if cmd == "quat iso":
            if flavour == "iso":
                c = Fraction(rng.randint(1, SMALL), rng.randint(1, SMALL))
                a2, b2 = rng.choice([(b, a), (a, -a * b), (a * c * c, b)])
            else:
                a2, b2 = _rational(rng), _rational(rng)
            spec["a2"], spec["b2"] = str(a2), str(b2)
        return spec
    char2 = name in ("F2", "F4")
    for key in ("a", "b") + (("a2", "b2") if cmd == "quat iso" else ()):
        spec[key] = F.fmt(_elem(F, rng, nonzero=not (char2 and key == "a")))
    return spec


def make_rounds(seed, rounds=ROUNDS):
    rng = random.Random(seed)
    return [[_request(rng, *kind) for kind in PLAN] + [dict(f) for f in FAILING]
            for _ in range(rounds)]


# -- worker side --------------------------------------------------------------


def argv_of(spec):
    field = _descriptor(spec["field"])
    char2 = spec["field"] in ("F2", "F4")
    group, sub = spec["cmd"].split()
    if group == "form":
        body = {"field": field, "char2": char2}
        if char2:
            body["pairs"] = spec["pairs"]
        else:
            body["diag"] = spec["diag"]
        return [group, sub, "--json", json.dumps(body)]

    def symbol(a, b):
        return json.dumps({"field": field, "char2": char2, "a": spec[a],
                           "b": spec[b]})

    if sub == "division":
        return [group, sub, "--symbol", symbol("a", "b")]
    return [group, sub, "--left", symbol("a", "b"), "--right",
            symbol("a2", "b2")]


def prepare(spec):
    return argv_of(spec)


def run(argv, state):
    from quatalg import cli

    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as e:  # an uncaught error is this op's outcome
            code, exc = None, "%s: %s" % (type(e).__name__, e)
    return code, out.getvalue(), exc


def serialize(argv, raw, state):
    code, text, exc = raw
    return {"exit": code, "stdout": text, "exception": exc}


# -- checker side -------------------------------------------------------------


def _coeffs(F, spec):
    if "pairs" in spec:
        return [(F.parse(a), F.parse(b)) for a, b in spec["pairs"]], True
    return [F.parse(a) for a in spec["diag"]], False


def _isotropic(F, coeffs, char2):
    if isinstance(F, QQ):
        return q_isotropic(coeffs)
    return finite_isotropic(F, coeffs, char2)


def _square_class_equal(F, x, y):
    if isinstance(F, QQ):
        return squarefree_int(x) == squarefree_int(y)
    return F.is_square(F.mul(x, y))


def check(spec, out, state):
    """("ok" | "failed" | "wrong", reason)."""
    if out["exception"] is not None:
        return "failed", out["exception"]
    try:
        payload = json.loads(out["stdout"])
    except ValueError:
        return "wrong", "stdout is not JSON (exit %r)" % out["exit"]
    F = checker_field(spec["field"])
    code = out["exit"]
    group, sub = spec["cmd"].split()
    if group == "form":
        coeffs, char2 = _coeffs(F, spec)
        return {"invariants": _check_invariants, "isotropic": _check_isotropic,
                "witt": _check_witt}[sub](F, coeffs, char2, payload, code)
    a, b = F.parse(spec["a"]), F.parse(spec["b"])
    char2 = spec["field"] in ("F2", "F4")
    if sub == "division":
        return _check_division(F, a, b, char2, payload, code)
    if isinstance(F, QQ):
        want = q_symbols_equal((a, b), (F.parse(spec["a2"]),
                                        F.parse(spec["b2"])))
    else:
        want = True  # every quaternion algebra over a finite field splits
    if payload.get("isomorphic") is not want:
        return "wrong", "isomorphic %r, oracle %r" % (payload.get("isomorphic"),
                                                      want)
    return _exit_matches(code, want)


def _exit_matches(code, verdict):
    want = {True: 0, False: 1, None: 2}[verdict]
    if code != want:
        return "wrong", "exit code %r for verdict %r" % (code, verdict)
    return "ok", None


def _check_invariants(F, coeffs, char2, payload, code):
    disc = payload["discriminant"]
    rep = F.parse(disc["representative"])
    dim = 2 * len(coeffs) if char2 else len(coeffs)
    if payload["dim"] != dim:
        return "wrong", "dimension %r" % payload["dim"]
    if char2:
        arf = F.zero()
        for a, b in coeffs:
            arf = F.add(arf, F.mul(a, b))
        if not artin_schreier_trivial(F, F.add(rep, arf)):
            return "wrong", "Arf invariant differs from sum a_i b_i"
        trivial = artin_schreier_trivial(F, rep)
    else:
        prod = F.one()
        for a in coeffs:
            prod = F.mul(prod, a)
        if (dim // 2) % 2:
            prod = F.neg(prod)
        if not _square_class_equal(F, rep, prod):
            return "wrong", "discriminant is not the signed product"
        trivial = _square_class_equal(F, rep, F.one())
    if disc["trivial"] is not trivial:
        return "wrong", "trivial flag %r" % disc["trivial"]
    return _exit_matches(code, True)


def _check_isotropic(F, coeffs, char2, payload, code):
    want = _isotropic(F, coeffs, char2)
    got = payload.get("isotropic")
    if got is not want:
        return "wrong", "isotropic %r, oracle %r" % (got, want)
    verdict = _exit_matches(code, got)
    if verdict[0] != "ok":
        return verdict
    if want:
        if "witness" not in payload:
            return "failed", "isotropic without a witness (%s)" % \
                payload.get("method")
        vec = [F.parse(x) for x in payload["witness"]]
        if all(F.is_zero(x) for x in vec) or \
                not F.is_zero(form_value(F, coeffs, vec, char2)):
            return "wrong", "witness is not a nonzero zero of the form"
    return "ok", None


def _gram(F, coeffs, char2, basis):
    """Values and polar values of the form on the given vectors."""
    vals = [form_value(F, coeffs, v, char2) for v in basis]
    polar = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = [F.add(x, y) for x, y in zip(basis[i], basis[j])]
            polar[i, j] = F.sub(F.sub(form_value(F, coeffs, s, char2),
                                      vals[i]), vals[j])
    return vals, polar


def _check_witt(F, coeffs, char2, payload, code):
    if code != 0 or payload.get("verified") is not True:
        return "wrong", "witt exit %r" % code
    dim = 2 * len(coeffs) if char2 else len(coeffs)
    index = payload["index"]
    aniso = payload["anisotropic"]
    acoeffs, _ = _coeffs(F, aniso)
    adim = 2 * len(acoeffs) if char2 else len(acoeffs)
    if 2 * index + adim != dim:
        return "wrong", "index and anisotropic part do not add up"
    if adim and _isotropic(F, acoeffs, char2):
        return "wrong", "the anisotropic part has a zero"
    basis = [[F.parse(x) for x in v] for v in payload["basis"]]
    if len(basis) != dim or rank(F, basis) != dim:
        return "wrong", "basis is not a basis"
    zero, one = F.zero(), F.one()
    if char2:
        target = [(zero, zero)] * index + acoeffs
    else:
        target = [one, F.neg(one)] * index + acoeffs
    std = [[one if i == j else zero for j in range(dim)] for i in range(dim)]
    if _gram(F, coeffs, char2, basis) != _gram(F, target, char2, std):
        return "wrong", "basis does not carry f to index*H + anisotropic part"
    return "ok", None


def _check_division(F, a, b, char2, payload, code):
    if isinstance(F, QQ):
        want = quaternion_division_q(a, b)
    else:
        want = False  # every quaternion algebra over a finite field splits
    got = payload.get("division")
    if got is not want:
        return "wrong", "division %r, oracle %r" % (got, want)
    verdict = _exit_matches(code, got)
    if verdict[0] != "ok" or want:
        return verdict
    if "witness" not in payload:
        return "failed", "split without a zero-divisor pair"
    T = quaternion_table(F, a, b, char2)
    u, v = ([F.parse(x) for x in w] for w in payload["witness"])
    zero = [F.zero()] * 4
    if u == zero or v == zero or T.mul(u, v) != zero:
        return "wrong", "witness pair is not a pair of zero divisors"
    return "ok", None
