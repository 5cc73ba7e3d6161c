"""Command-line interface.

Subcommands operate on JSON inputs (inline or by path) and emit JSON
results.  Exit codes: 0 = success / verified true, 1 = verified false or
absent, 2 = unknown / budget exhausted, 3 = input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3


class InputError(ValueError):
    pass


def _load_json(arg):
    """Inline JSON or a path to a JSON file."""
    if arg is None:
        raise InputError("missing JSON input")
    text = arg
    if not arg.lstrip().startswith(("{", "[", '"')) and os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("invalid JSON (%s): %s" % (exc.msg, arg[:80]))


def _emit(payload, out=None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _field_of(d):
    from .fields import field_from_json

    if "field" not in d:
        raise InputError("input JSON lacks a \"field\" descriptor")
    return field_from_json(d["field"])


def _form_of(d):
    from .forms import form_from_json

    return form_from_json(d)


def _symbol_of(d):
    from .quaternions import QuaternionSymbol

    F = _field_of(d)
    return QuaternionSymbol.from_json(d, F)


def _status_exit(status):
    if status is True:
        return EXIT_TRUE
    if status is False:
        return EXIT_FALSE
    return EXIT_UNKNOWN


# -- form ---------------------------------------------------------------


def cmd_form_invariants(args):
    from .forms import discriminant

    f = _form_of(_load_json(args.json))
    F = f.field
    d = discriminant(f)
    _emit({
        "dim": f.dim,
        "discriminant": {"representative": F.fmt(d.representative),
                         "trivial": d.trivial},
    }, args.out)
    return EXIT_TRUE


def cmd_form_isotropic(args):
    from .forms import is_isotropic

    f = _form_of(_load_json(args.json))
    F = f.field
    res = is_isotropic(f, args.max_height)
    payload = {"isotropic": res.status, "method": res.method}
    if res.witness is not None:
        payload["witness"] = [F.fmt(c) for c in res.witness]
    _emit(payload, args.out)
    return _status_exit(res.status)


def cmd_form_witt(args):
    from .forms import witt_decompose

    f = _form_of(_load_json(args.json))
    F = f.field
    w = witt_decompose(f, args.max_height)
    if not w.verify():
        _emit({"error": "decomposition failed its own verification"},
              args.out)
        return EXIT_FALSE
    _emit({
        "index": w.index,
        "anisotropic": w.anisotropic.to_json(),
        "basis": [[F.fmt(c) for c in v] for v in w.basis],
        "verified": True,
    }, args.out)
    return EXIT_TRUE


def cmd_form_trivialize(args):
    from .forms import FormError, adjoin_root, discriminant, \
        trivialize_discriminant

    f = _form_of(_load_json(args.json))
    F = f.field
    d = discriminant(f)
    try:
        ext = adjoin_root(F, d.representative)
    except FormError as exc:
        _emit({"error": str(exc)}, args.out)
        return EXIT_UNKNOWN
    fp, hyperbolic = trivialize_discriminant(f, ext)
    _emit({
        "form": fp.to_json(),
        "delta": F.fmt(d.representative),
        "extension_trivial_in_base": ext.trivial_in_base,
        "already_hyperbolic": hyperbolic,
    }, args.out)
    return EXIT_TRUE


# -- clifford -----------------------------------------------------------


def cmd_clifford_build(args):
    from .clifford import clifford_algebra

    f = _form_of(_load_json(args.form))
    C = clifford_algebra(f)  # defining identity checked in the constructor
    payload = C.algebra.to_json()
    payload["report"] = {"dim": C.algebra.dim,
                         "defining_identity_verified": True}
    _emit(payload, args.out)
    return EXIT_TRUE


def cmd_clifford_extract_e(args):
    from .clifford import CliffordError, extract_E

    f = _form_of(_load_json(args.form))
    try:
        E = extract_E(f)
    except CliffordError as exc:
        _emit({"error": str(exc)}, args.out)
        return EXIT_FALSE
    payload = E.to_json()
    if getattr(E, "symbol", None) is not None:
        payload["symbol"] = E.symbol.to_json()
    _emit(payload, args.out)
    return EXIT_TRUE


# -- quat ---------------------------------------------------------------


def cmd_quat_realize(args):
    from .quaternions import realize

    s = _symbol_of(_load_json(args.symbol))
    A = realize(s)
    payload = A.to_json()
    payload["symbol"] = s.to_json()
    _emit(payload, args.out)
    return EXIT_TRUE


def cmd_quat_division(args):
    from .quaternions import is_division_symbol

    s = _symbol_of(_load_json(args.symbol))
    res = is_division_symbol(s)
    payload = {"division": res.status, "method": res.method}
    if res.witness is not None:
        payload["witness"] = [list(v.fmt()) for v in res.witness]
    _emit(payload, args.out)
    return _status_exit(res.status)


def cmd_quat_iso(args):
    from .quaternions import are_isomorphic

    s = _symbol_of(_load_json(args.left))
    sp = _symbol_of(_load_json(args.right))
    verdict = are_isomorphic(s, sp)
    _emit({"isomorphic": verdict}, args.out)
    return _status_exit(verdict)


def cmd_quat_chain(args):
    from .quaternions import (QuaternionError, SlotSearchExhausted,
                              common_slot_chain)

    s = _symbol_of(_load_json(args.left))
    sp = _symbol_of(_load_json(args.right))
    try:
        ch = common_slot_chain(s, sp, max_height=args.max_height or 6)
    except SlotSearchExhausted as exc:
        _emit({"error": str(exc)}, args.out)
        return EXIT_UNKNOWN
    except QuaternionError as exc:
        _emit({"error": str(exc)}, args.out)
        return EXIT_FALSE
    if not ch.verify():
        _emit({"error": "chain failed verification"}, args.out)
        return EXIT_FALSE
    _emit(ch.to_json(), args.out)
    return EXIT_TRUE


# -- algebra ------------------------------------------------------------


def cmd_algebra_centralizer(args):
    from .algebras import algebra_from_json, centralizer

    A = algebra_from_json(_load_json(args.json))
    F = A.field
    elems = [A.element([F.parse(c) for c in coords])
             for coords in _load_json(args.elements)]
    basis = centralizer(A, elems)
    _emit({"dim": len(basis),
           "basis": [list(v.fmt()) for v in basis]}, args.out)
    return EXIT_TRUE


def cmd_algebra_tensor(args):
    from .algebras import algebra_from_json, tensor_product

    A = algebra_from_json(_load_json(args.left))
    B = algebra_from_json(_load_json(args.right))
    _emit(tensor_product(A, B).to_json(), args.out)
    return EXIT_TRUE


def _presentation_of(d):
    from .quaternions import QuaternionSymbol, TensorPresentation

    F = _field_of(d)
    symbols = [QuaternionSymbol.from_json(s, F) for s in d["symbols"]]
    return TensorPresentation(symbols)


def cmd_algebra_chain(args):
    from .chains import ChainError, SearchExhausted, chain

    P = _presentation_of(_load_json(args.presentation))
    A = P.algebra
    F = A.field
    x = A.element([F.parse(c) for c in _load_json(args.x)])
    xp = A.element([F.parse(c) for c in _load_json(args.xprime)])
    try:
        c = chain(x, xp)
    except SearchExhausted as exc:
        _emit({"error": str(exc)}, args.out)
        return EXIT_UNKNOWN
    except ChainError as exc:
        _emit({"error": str(exc)}, args.out)
        return EXIT_FALSE
    _emit(c.to_json(), args.out)
    return EXIT_TRUE


def cmd_algebra_decompose(args):
    from .chains import ChainError, SearchExhausted, \
        decompose_with_marked_elements

    P = _presentation_of(_load_json(args.presentation))
    A = P.algebra
    F = A.field
    x = A.element([F.parse(c) for c in _load_json(args.x)])
    xp = A.element([F.parse(c) for c in _load_json(args.xprime)])
    try:
        D = decompose_with_marked_elements(A, x, xp)
    except SearchExhausted as exc:
        _emit({"error": str(exc)}, args.out)
        return EXIT_UNKNOWN
    except ChainError as exc:
        _emit({"error": str(exc)}, args.out)
        return EXIT_FALSE
    _emit(D.to_json(), args.out)
    return EXIT_TRUE


# -- verify -------------------------------------------------------------


def cmd_verify_chain(args):
    from .certificates import CertificateError, check_chain_certificate

    cert = _load_json(args.cert)
    try:
        ok, reason = check_chain_certificate(cert)
    except CertificateError as exc:
        raise InputError(str(exc))
    _emit({"valid": ok, "failing_identity": reason}, args.out)
    return EXIT_TRUE if ok else EXIT_FALSE


def cmd_verify_suite(args):
    from .suites import SUITES

    names = list(SUITES) if args.name == "all" else [args.name]
    for name in names:
        if name not in SUITES:
            raise InputError("unknown suite %r; available: %s"
                             % (name, ", ".join(sorted(SUITES))))
    results = {}
    all_ok = True
    for name in names:
        ok, detail = SUITES[name]()
        results[name] = {"ok": ok, "detail": detail}
        all_ok = all_ok and ok
        print("suite %-22s %s  (%s)" % (name, "PASS" if ok else "FAIL",
                                        detail), file=sys.stderr)
    _emit(results, args.out)
    return EXIT_TRUE if all_ok else EXIT_FALSE


# -- parser ---------------------------------------------------------------


def _common(p):
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: every search is seeded "
                        "internally, so output never depends on it")
    p.add_argument("--out", help="write the JSON result to this path")
    p.add_argument("--max-height", type=int, default=None)


def build_parser():
    root = argparse.ArgumentParser(
        prog="quatalg",
        description="Exact quaternion-algebra and quadratic-form toolkit")
    top = root.add_subparsers(dest="group", required=True)

    form = top.add_parser("form").add_subparsers(dest="sub", required=True)
    for name, fn in (("invariants", cmd_form_invariants),
                     ("isotropic", cmd_form_isotropic),
                     ("witt", cmd_form_witt),
                     ("trivialize", cmd_form_trivialize)):
        p = form.add_parser(name)
        p.add_argument("--json", required=True,
                       help="form JSON (inline or path)")
        _common(p)
        p.set_defaults(func=fn)

    cliff = top.add_parser("clifford").add_subparsers(dest="sub",
                                                      required=True)
    for name, fn in (("build", cmd_clifford_build),
                     ("extract-e", cmd_clifford_extract_e)):
        p = cliff.add_parser(name)
        p.add_argument("--form", required=True)
        _common(p)
        p.set_defaults(func=fn)

    quat = top.add_parser("quat").add_subparsers(dest="sub", required=True)
    p = quat.add_parser("realize")
    p.add_argument("--symbol", required=True)
    _common(p)
    p.set_defaults(func=cmd_quat_realize)
    p = quat.add_parser("division")
    p.add_argument("--symbol", required=True)
    _common(p)
    p.set_defaults(func=cmd_quat_division)
    p = quat.add_parser("iso")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _common(p)
    p.set_defaults(func=cmd_quat_iso)
    p = quat.add_parser("chain")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _common(p)
    p.set_defaults(func=cmd_quat_chain)

    alg = top.add_parser("algebra").add_subparsers(dest="sub", required=True)
    p = alg.add_parser("centralizer")
    p.add_argument("--json", required=True)
    p.add_argument("--elements", required=True,
                   help="JSON list of coordinate arrays")
    _common(p)
    p.set_defaults(func=cmd_algebra_centralizer)
    p = alg.add_parser("tensor")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _common(p)
    p.set_defaults(func=cmd_algebra_tensor)
    for name, fn in (("chain", cmd_algebra_chain),
                     ("decompose", cmd_algebra_decompose)):
        p = alg.add_parser(name)
        p.add_argument("--presentation", required=True)
        p.add_argument("--x", required=True)
        p.add_argument("--xprime", required=True)
        _common(p)
        p.set_defaults(func=fn)

    ver = top.add_parser("verify").add_subparsers(dest="sub", required=True)
    p = ver.add_parser("chain")
    p.add_argument("--cert", required=True)
    _common(p)
    p.set_defaults(func=cmd_verify_chain)
    p = ver.add_parser("suite")
    p.add_argument("name")
    _common(p)
    p.set_defaults(func=cmd_verify_suite)

    return root


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (KeyError, TypeError) as exc:
        print("input error: malformed JSON structure (%s)" % exc,
              file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
