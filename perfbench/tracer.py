"""Spans and counters around quatalg's layers, installed from outside.

``Tracer.install()`` replaces the public functions of every module in
``LAYERS`` (and the methods in ``METHODS``) by wrappers that record a
span: name, start, end, parent span and op id.  Spans stay in memory
(up to ``SPAN_CAP``; later ones are counted as dropped) and are written
by ``write``.  Self time is a span's duration minus the time its child
spans cover, and is summed per name and per layer whether or not the
span itself was kept.

Field arithmetic is counted, not spanned: GF(p) and Q operations only
increment a counter, while F_q(t) and GF(p^k) operations, which cost
microseconds, are also timed.  Timed field operations take part in the
self-time accounting (a gcd inside an F_q(t) multiplication is a child of
it) but are not kept as spans.  ``uninstall()`` restores every original.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

LAYERS = ["fields", "polynomials", "linalg", "forms", "localglobal",
          "algebras", "clifford", "quaternions", "chains", "certificates",
          "cli"]

SPAN_CAP = 100000  # spans kept in memory; later ones are only counted

# elementary polynomial arithmetic runs inside field operations and is
# accounted to them; only these polynomial routines get spans
POLY_SPANNED = {"gcd", "factor_monic", "is_irreducible", "sqrt", "pow_mod"}

# (module, class, method) -> span name
METHODS = {
    ("algebras", "StructureConstantAlgebra", "__init__"): "algebras.construct",
    ("algebras", "StructureConstantAlgebra", "__eq__"): "algebras.table_eq",
    ("algebras", "StructureConstantAlgebra", "multiply"): "algebras.multiply",
    ("forms", "QuadraticForm", "evaluate"): "forms.evaluate",
    ("quaternions", "TensorPresentation", "__init__"):
        "quaternions.TensorPresentation",
    ("chains", "Chain", "verify"): "chains.Chain.verify",
    ("chains", "Chain", "to_json"): "chains.Chain.to_json",
}

FIELD_METHODS = ("add", "sub", "neg", "mul", "inv", "div", "pow_")
# class -> (counter name, timed)
FIELD_KINDS = {
    "Rationals": ("fields.rational", False),
    "PrimeField": ("fields.prime", False),
    "ExtensionField": ("fields.ext", True),
    "FunctionField": ("fields.ratfunc", True),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.stack = []
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.counts = {}  # name -> [calls]
        self.places = 0
        self.op_id = None
        self._next = [0]
        self._saved = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, post=None):
        stack, spans, stats = self.stack, self.spans, self.stats
        st = stats.setdefault(name, [0, 0.0, 0.0])
        nxt = self._next
        tracer = self

        def wrapper(*args, **kwargs):
            sid = nxt[0] = nxt[0] + 1
            parent = stack[-1][2] if stack else None
            frame = [0.0, 0.0, sid]
            stack.append(frame)
            t0 = frame[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((sid, name, t0, t1, parent, tracer.op_id))
                else:
                    tracer.dropped += 1
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_field(self, name, fn):
        """Count and time the outermost call; no span is kept."""
        stack, depth = self.stack, [0]
        st = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args):
            if depth[0]:
                return fn(*args)
            depth[0] = 1
            frame = [0.0, 0.0, stack[-1][2] if stack else None]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                depth[0] = 0
                if stack:
                    stack[-1][1] += dur
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]

        return wrapper

    def _counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, new)

    def install(self):
        mods = {m: importlib.import_module("quatalg." + m) for m in LAYERS}
        replaced = {}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not callable(fn)
                        or isinstance(fn, type)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                if layer == "polynomials" and attr not in POLY_SPANNED:
                    continue
                post = self._count_places if attr == "bad_places" else None
                replaced[fn] = self._span("%s.%s" % (layer, attr), fn, post)
        # rebind every module-level reference, including names imported
        # with ``from .x import f`` into other modules and the package
        targets = list(mods.values()) + [importlib.import_module("quatalg")]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if not attr.startswith("__") and callable(obj) \
                        and not isinstance(obj, type):
                    try:
                        new = replaced.get(obj)
                    except TypeError:  # unhashable callable
                        continue
                    if new is not None:
                        self._patch(mod, attr, new)
        for (m, cls, meth), name in METHODS.items():
            owner = getattr(mods[m], cls)
            self._patch(owner, meth, self._span(name, getattr(owner, meth)))
        fields = mods["fields"]
        for cls, (name, timed) in FIELD_KINDS.items():
            owner = getattr(fields, cls)
            for meth in FIELD_METHODS:
                fn = getattr(owner, meth)
                new = self._timed_field(name, fn) if timed \
                    else self._counted(name, fn)
                self._patch(owner, meth, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._saved):
            if old is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._saved = []

    def _count_places(self, result):
        self.places += len(result)

    # -- results ------------------------------------------------------------

    def layer_self(self):
        out = {}
        for name, (_, _, self_s) in self.stats.items():
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def calls(self, name):
        if name in self.counts:
            return self.counts[name][0]
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def metrics(self, ops, traced_s=1.0, untraced_s=1.0):
        """The per-layer metrics, normalised per benchmark op where they
        are totals, and the tracing overhead: ``traced_s`` and
        ``untraced_s`` are the op times of the same ``ops`` ops with and
        without tracing."""
        calls, total = self.calls, self.total
        selfs = self.layer_self()

        def per_op(x):
            return x / ops

        def mean(name, scale):
            n = calls(name)
            return total(name) / n * scale if n else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "fields.ratfunc.ops": (per_op(calls("fields.ratfunc")), "1/op"),
            "fields.ratfunc.op_us": (mean("fields.ratfunc", 1e6), "us"),
            "fields.ext.ops": (per_op(calls("fields.ext")), "1/op"),
            "fields.ext.op_us": (mean("fields.ext", 1e6), "us"),
            "fields.prime.ops": (per_op(calls("fields.prime")), "1/op"),
            "fields.rational.ops": (per_op(calls("fields.rational")), "1/op"),
            "polynomials.gcd.calls": (per_op(calls("polynomials.gcd")),
                                      "1/op"),
            "polynomials.gcd_us": (mean("polynomials.gcd", 1e6), "us"),
            "polynomials.factor_monic.calls": (
                per_op(calls("polynomials.factor_monic")), "1/op"),
            "linalg.rref.calls": (per_op(calls("linalg.rref")), "1/op"),
            "linalg.rref_ms": (mean("linalg.rref", 1e3), "ms"),
            "forms.is_isotropic.calls": (per_op(calls("forms.is_isotropic")),
                                         "1/op"),
            "forms.evaluate.calls": (per_op(calls("forms.evaluate")), "1/op"),
            "forms.evaluate_per_decision": (
                ratio(calls("forms.evaluate"), calls("forms.is_isotropic")),
                "ratio"),
            "localglobal.is_isotropic_global.calls": (
                per_op(calls("localglobal.is_isotropic_global")), "1/op"),
            "localglobal.places": (
                ratio(self.places, calls("localglobal.bad_places")),
                "1/decision"),
            "algebras.multiply.calls": (per_op(calls("algebras.multiply")),
                                        "1/op"),
            "algebras.multiply_us": (mean("algebras.multiply", 1e6), "us"),
            "algebras.table_eq.calls": (per_op(calls("algebras.table_eq")),
                                        "1/op"),
            "algebras.table_eq_s": (per_op(total("algebras.table_eq")),
                                    "s/op"),
            "algebras.construct.calls": (per_op(calls("algebras.construct")),
                                         "1/op"),
            "algebras.construct_ms": (mean("algebras.construct", 1e3), "ms"),
            "clifford.extract_E.calls": (per_op(calls("clifford.extract_E")),
                                         "1/op"),
            "clifford.extract_E_ms": (mean("clifford.extract_E", 1e3), "ms"),
            "quaternions.realize.calls": (per_op(calls("quaternions.realize")),
                                          "1/op"),
            "chains.chain.calls": (per_op(calls("chains.chain")), "1/op"),
            "chains.classify.calls": (per_op(calls("chains.classify")),
                                      "1/op"),
            "chains.classify_per_chain": (
                ratio(calls("chains.classify"), calls("chains.chain")),
                "ratio"),
            "certificates.check.calls": (
                per_op(calls("certificates.check_chain_certificate")), "1/op"),
            "certificates.check_ms": (
                mean("certificates.check_chain_certificate", 1e3), "ms"),
            "cli.main.calls": (per_op(calls("cli.main")), "1/op"),
        }
        for layer in LAYERS[1:]:
            m[layer + ".self_s"] = (per_op(selfs.get(layer, 0.0)), "s/op")
        m["fields.self_s"] = (per_op(selfs.get("fields", 0.0)), "s/op")
        m["trace.ops_per_s"] = (ops / traced_s, "ops/s")
        m["trace.untraced_ops_per_s"] = (ops / untraced_s, "ops/s")
        m["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        m["trace.spans"] = (len(self.spans) + self.dropped, "count")
        return m

    def write(self, path, metrics):
        with open(path, "w") as fh:
            json.dump({"metrics": metrics,
                       "stats": {k: {"calls": v[0], "total_s": v[1],
                                     "self_s": v[2]}
                                 for k, v in sorted(self.stats.items())},
                       "counts": {k: v[0] for k, v in self.counts.items()},
                       "spans_dropped": self.dropped,
                       "span_fields": ["id", "name", "start", "end",
                                       "parent", "op"],
                       "spans": self.spans}, fh)
