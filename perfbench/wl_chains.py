"""biquaternion-chains: links, element chains, certificates and tensor
common-slot chains in seeded tensor presentations of quaternion symbols.

One round is the fixed list ``PLAN`` of ops; each op draws its symbols,
conjugating element and marked pair from the round's seeded stream.
Every output is re-checked in ``check`` with the structure constants and
the field arithmetic of ``arith`` and ``oracles``, never with quatalg.
"""

from __future__ import annotations

import random
from fractions import Fraction

from arith import GF, QQ
from oracles import (Table, check_chain_cert, check_presentation,
                     is_algebra_isomorphism, quaternion_table)

ROUNDS = 32

# (op, field, factors, conjugated)
PLAN = [
    ("link", "F3", 2, False), ("link", "F3", 2, True),
    ("link", "F3", 3, True), ("link", "F2", 2, True),
    ("link", "F4", 2, True), ("link", "F5", 2, False),
    ("link", "F5", 2, True), ("link", "F5", 3, False),
    ("link", "Q", 2, True),
    ("chain", "F2", 2, True), ("cert", "F2", 2, True),
    ("chain", "F3", 2, True), ("cert", "F3", 2, True),
    ("chain", "F4", 2, True), ("cert", "F4", 2, True),
    ("chain", "F5", 2, True), ("cert", "F5", 2, True),
    ("slot", "F3", 2, False), ("slot", "F5", 2, False),
]
# No chains over Q: chains.chain raises SearchExhausted after about 45 s
# on roughly one marked pair in 150 over Q (its square-unit searches draw
# random rational combinations), which would fail runs at random.
ROUND_SIZE = len(PLAN)

FIELDS = {"F2": (2, 1), "F3": (3, 1), "F4": (2, 2), "F5": (5, 1), "Q": (0, 0)}
SYMBOL_BOUND = 4
CONJ_BOUND = 2
CONJ_TRIES = 40


CHECK_FIELDS = {name: QQ() if p == 0 else GF(p, k)
                for name, (p, k) in FIELDS.items()}


def _checker_field(name):
    return CHECK_FIELDS[name]


def _random_elem(name, rng, nonzero=False, bound=SYMBOL_BOUND):
    F = _checker_field(name)
    while True:
        if isinstance(F, QQ):
            x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        else:
            x = rng.choice(F.elements())
        if not (nonzero and F.is_zero(x)):
            return x


def _random_symbol(name, rng):
    char2 = FIELDS[name][0] == 2
    a = _random_elem(name, rng, nonzero=not char2)
    return (a, _random_elem(name, rng, nonzero=True))


def _marked_menu(name, syms):
    """Pairs of marked special elements, as recipes over the generators
    (x_i, y_i) of the two factors.  Each recipe is special for the given
    symbols: square-central for char != 2, Artin-Schreier for char 2."""
    F = _checker_field(name)
    (a1, b1), (a2, b2) = syms
    if FIELDS[name][0] == 2:
        # x + c and x + y are Artin-Schreier: (x+y)^2 + (x+y) = a + b
        return [(("x", 0), ("x", 1)), (("x", 0), ("x+1", 1)),
                (("x+y", 0), ("x", 1)), (("x", 0), ("x+y", 1))]
    menu = [(("x", 0), ("x", 1)), (("x", 0), ("xy", 1)),
            (("2x", 0), ("x", 1))]
    # (x+y)^2 = a + b, square-central when a + b != 0
    if not F.is_zero(F.add(a1, b1)):
        menu.append((("x+y", 0), ("x", 1)))
    if not F.is_zero(F.add(a2, b2)):
        menu.append((("x", 0), ("x+y", 1)))
    return menu


def make_rounds(seed, rounds=ROUNDS):
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        rnd = []
        for op, name, nfac, conj in PLAN:
            spec = {"op": op, "field": name}
            if op == "cert":
                p = FIELDS[name][0]
                spec["delta"] = rng.randint(1, p - 1) if p else \
                    rng.choice([-2, -1, 1, 2])
                spec["pick"] = rng.randrange(1 << 16)
            elif op == "slot":
                tail = _random_symbol(name, rng)
                spec["left"] = [_random_symbol(name, rng), tail]
                spec["right"] = [_random_symbol(name, rng), tail]
            else:
                syms = [_random_symbol(name, rng) for _ in range(nfac)]
                spec["symbols"] = syms
                if op == "chain":
                    menu = _marked_menu(name, syms)
                    spec["pair"] = menu[rng.randrange(len(menu))]
                else:
                    spec["pair"] = rng.sample(range(nfac), 2)
                spec["conj"] = rng.randrange(1 << 30) if conj else None
            rnd.append(spec)
        out.append(rnd)
    return out


# -- worker side --------------------------------------------------------------


def _qfield(name):
    from quatalg import fields

    p, k = FIELDS[name]
    return fields.Rationals() if p == 0 else fields.FiniteField(p, k)


def prepare(spec):
    """quatalg's objects for a spec in its wire form (``worker.dump_specs``)."""
    from quatalg import quaternions

    F = _qfield(spec["field"])
    char2 = F.char == 2
    G = _checker_field(spec["field"])

    def sym(s):
        return quaternions.QuaternionSymbol(F, _dec(G, s[0]), _dec(G, s[1]),
                                            char2)

    out = dict(spec, F=F)
    for key in ("symbols", "left", "right"):
        if key in spec:
            out[key] = [sym(s) for s in spec[key]]
    return out


def conjugators(name, dim, seed):
    """The seeded stream of candidate conjugating elements."""
    rng = random.Random(seed)
    for _ in range(CONJ_TRIES):
        yield [_random_elem(name, rng, bound=CONJ_BOUND) for _ in range(dim)]


def _conjugated(P, name, seed):
    """The presentation with generators conjugated by the first invertible
    candidate u of the seeded stream."""
    from quatalg import quaternions

    A = P.algebra
    for coords in conjugators(name, A.dim, seed):
        u = A.element(coords)
        uinv = u.inverse()
        if uinv is not None:
            gens = [(u * x * uinv, u * y * uinv) for x, y in P.generators]
            return quaternions.TensorPresentation(P.symbols, A, gens)
    raise RuntimeError("no invertible conjugating element among the "
                       "candidates")


def _recipe(P, recipe):
    kind, i = recipe
    x, y = P.generators[i]
    if kind == "x":
        return x
    if kind == "xy":
        return x * y
    if kind == "x+y":
        return x + y
    if kind == "x+1":
        return x + P.algebra.one()
    return x + x  # "2x"


def run(s, state):
    from quatalg import certificates, chains, quaternions

    op = s["op"]
    if op == "cert":
        if state.get("chain") is None:
            raise RuntimeError("the chain op before this one failed")
        cert = state["chain"].to_json()
        genuine = certificates.check_chain_certificate(cert)
        corrupt_certificate(cert, s["delta"], s["pick"])
        tampered = certificates.check_chain_certificate(cert)
        return genuine, tampered, cert
    if op == "slot":
        P = quaternions.TensorPresentation(s["left"])
        Pp = quaternions.TensorPresentation(s["right"])
        return quaternions.common_slot_chain_tensor(P, Pp)
    P = quaternions.TensorPresentation(s["symbols"])
    if s["conj"] is not None:
        P = _conjugated(P, s["field"], s["conj"])
    if op == "link":
        i, j = s["pair"]
        x, xp = P.generators[i][0], P.generators[j][0]
        z = chains.find_anticommuting_link(P, x, xp)
        mixed = None
        if s["F"].char == 2:
            mixed = chains.mixed_link(P, P.generators[i][1], xp)
        return P, z, mixed
    x, xp = (_recipe(P, r) for r in s["pair"])
    state["chain"] = None
    c = state["chain"] = chains.chain(x, xp)
    return P, c


def corrupt_certificate(cert, delta, pick):
    """Add delta to the unit coordinate of one node (char != 2) or one
    link (char 2).  Either breaks a defining identity: (x + c)^2 is not
    central for x square-central in odd characteristic, and x (y + c) +
    (y + c) x = y != y + c in characteristic 2."""
    field = cert["algebra"]["field"]
    unit = [s.strip() not in ("0", "") for s in cert["algebra"]["unit"]]
    k = unit.index(True)
    rows = cert["links"] if cert["char2"] and cert["links"] else cert["nodes"]
    row = rows[pick % len(rows)]
    if field["kind"] == "Q":
        row[k] = str(Fraction(row[k]) + delta)
    else:
        F = GF(field["p"], field.get("k", 1))
        d = delta % F.p if F.k == 1 else (delta % F.p,) + (0,) * (F.k - 1)
        row[k] = F.fmt(F.add(F.parse(row[k]), d))


def enc(x):
    """JSON form of a quatalg field payload (int, int tuple, Fraction)."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, tuple):
        return list(x)
    return x


def _coords(v):
    return [enc(c) for c in v.coords]


def _gens(P):
    return [[_coords(x), _coords(y)] for x, y in P.generators]


def _table(A):
    return [[[[k, enc(c)] for k, c in cell.items()] for cell in row]
            for row in A.table]


def serialize(s, raw, state):
    op = s["op"]
    if op == "cert":
        genuine, tampered, cert = raw
        return {"genuine": list(genuine), "tampered": list(tampered),
                "cert": cert}
    if op == "slot":
        return {"nodes": [[[enc(q.a), enc(q.b)] for q in n.symbols]
                          for n in raw.nodes],
                "links": raw.links,
                "evidence": [{"kind": ev.get("kind"),
                              "isos": [iso if iso == "identity" else
                                       [[enc(c) for c in r] for r in iso]
                                       for iso in ev.get("isos", [])]}
                             for ev in raw.evidence]}
    if op == "link":
        P, z, mixed = raw
        out = {"table": _table(P.algebra),
               "unit": [enc(c) for c in P.algebra.unit_coords],
               "gens": _gens(P), "z": _coords(z)}
        if mixed is not None:
            out["mixed"] = [_coords(mixed[0]), _coords(mixed[1])]
        return out
    P, c = raw
    return {"gens": _gens(P), "cert": c.to_json()}


# -- checker side -------------------------------------------------------------


def _dec(F, x):
    if isinstance(F, QQ):
        return Fraction(x)
    return tuple(x) if F.k > 1 else x


def _check_recipe(T, gens, recipe):
    kind, i = recipe
    x, y = gens[i]
    if kind == "x":
        return x
    if kind == "xy":
        return T.mul(x, y)
    if kind == "x+y":
        return T.add(x, y)
    if kind == "x+1":
        return T.add(x, T.unit)
    return T.add(x, x)  # "2x"


def check(spec, out, state):
    """("ok" | "wrong", reason); ``state`` carries the previous chain
    op's certificate.  Links and chains are judged in the algebra quatalg
    emits, after checking that it is the tensor product of the seeded
    symbols with the emitted generators; the marked elements are then
    computed from those generators here."""
    name = spec["field"]
    F = _checker_field(name)
    op = spec["op"]
    if op == "cert":
        if out["genuine"] != [True, None]:
            return "wrong", "genuine certificate rejected: %r" % out["genuine"]
        mine_genuine = check_chain_cert(state.get("chain_cert"))
        if not mine_genuine[0]:
            return "wrong", "checked chain differs from the emitted one"
        ok, reason = check_chain_cert(out["cert"])
        if ok:
            return "wrong", "corruption left a valid certificate"
        q_ok, q_reason = out["tampered"]
        if q_ok or not q_reason:
            return "wrong", "tampered certificate accepted (%s)" % reason
        return "ok", None
    if op == "slot":
        return _check_slot(F, spec, out)
    if op == "chain":
        state["chain_cert"] = out["cert"]
        try:
            T = Table.from_json(out["cert"]["algebra"])
        except (KeyError, TypeError, ValueError) as exc:
            return "wrong", "malformed certificate: %s" % exc
    else:
        T = Table(F, len(out["unit"]),
                  [[[(k, _dec(F, c)) for k, c in cell] for cell in row]
                   for row in out["table"]],
                  [_dec(F, c) for c in out["unit"]])
    gens = [[[_dec(F, c) for c in v] for v in pair] for pair in out["gens"]]
    ok, reason = check_presentation(T, spec["symbols"], gens)
    if not ok:
        return "wrong", "not the seeded tensor product: %s" % reason
    if op == "chain":
        x, xp = (_check_recipe(T, gens, r) for r in spec["pair"])
        ok, reason = check_chain_cert(out["cert"], x, xp)
        return ("ok" if ok else "wrong"), reason
    i, j = spec["pair"]
    x, xp, xsc = gens[i][0], gens[j][0], gens[i][1]
    z = [_dec(F, c) for c in out["z"]]
    special = T.is_artin_schreier if F.p == 2 else T.is_square_central
    if not (special(x) and special(xp)):
        return "wrong", "marked generators are not special"
    if not T.is_square_central(z):
        return "wrong", "link is not square-central"
    if F.p == 2:
        if not (T.twists(x, z) and T.twists(xp, z)):
            return "wrong", "link twist relations fail"
        z2, w = ([_dec(F, c) for c in v] for v in out["mixed"])
        if not (T.is_artin_schreier(w) and T.twists(w, xsc)
                and T.is_square_central(z2) and T.twists(w, z2)
                and T.twists(xp, z2)):
            return "wrong", "mixed link relations fail"
        return "ok", None
    if not (T.anticommute(z, x) and T.anticommute(z, xp)):
        return "wrong", "link does not anticommute with both markers"
    return "ok", None


def _check_slot(F, spec, out):
    nodes = [[tuple(_dec(F, c) for c in s) for s in n] for n in out["nodes"]]
    left = [tuple(s) for s in spec["left"]]
    right = [tuple(s) for s in spec["right"]]
    if len(nodes) > 4 or nodes[0] != left or nodes[-1] != right:
        return "wrong", "slot chain endpoints or length wrong"
    if len(out["links"]) != len(nodes) - 1 or \
            len(out["evidence"]) != len(nodes) - 1:
        return "wrong", "slot chain link count wrong"
    for (ln, rn), link, ev in zip(zip(nodes, nodes[1:]), out["links"],
                                  out["evidence"]):
        i = 0 if link["slot"] == "a" else 1
        if ln[link["left_factor"]][i] != rn[link["right_factor"]][i]:
            return "wrong", "adjacent nodes share no literal slot"
        if ev["kind"] != "factorwise":
            return "wrong", "unexpected evidence kind %r" % ev["kind"]
        for ls, rs, iso in zip(ln, rn, ev["isos"]):
            if iso == "identity":
                if ls != rs:
                    return "wrong", "identity evidence between distinct symbols"
                continue
            phi = [[_dec(F, c) for c in r] for r in iso]
            if not is_algebra_isomorphism(
                    F, quaternion_table(F, ls[0], ls[1], F.p == 2),
                    quaternion_table(F, rs[0], rs[1], F.p == 2), phi):
                return "wrong", "factorwise isomorphism fails"
    return "ok", None
