"""One workload process: import quatalg, read the inputs, run the closed
loop and stream each op's output as a JSON line.

Started by ``run.py``, which generates the rounds of inputs from the seed
and writes them to this process's standard input as JSON (``dump_specs``).
``PERFBENCH_T0`` holds the parent's monotonic clock at spawn, so the
reported set-up time covers the interpreter start, ``import quatalg``,
reading the inputs and converting them to quatalg's objects.  Only the
workload's ``prepare``/``run``/``serialize`` and quatalg run here.  The
workload's module brings in the benchmark's pure-Python ``arith`` and
``oracles`` (about 10 ms of imports), but the generators and checkers
run in the parent, and so does sympy, which they use.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

WORKLOADS = {"fqt-division": "wl_fqt", "biquaternion-chains": "wl_chains",
             "cli-forms": "wl_cli"}


def workload(name):
    """The module of one workload; a worker imports only its own."""
    return importlib.import_module(WORKLOADS[name])

# the stream the parent reads; ops may redirect sys.stdout
OUT = sys.stdout


def emit(obj):
    OUT.write(json.dumps(obj) + "\n")


def dump_specs(rounds):
    """The wire form of a workload's rounds: JSON, with tuples as lists
    and fractions as "n/d" strings (each ``prepare`` converts back)."""
    return json.dumps(rounds, default=str)


def peak_rss_mb():
    """Peak resident memory (VmHWM) of this process image.  Linux only;
    ``ru_maxrss`` is no substitute, as it keeps the parent's pages from
    before exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_rounds(wl, prepared, state, phase, budget=None, rounds=None,
               tracer=None):
    """Run whole rounds until ``rounds`` rounds are done or the summed op
    time would pass ``budget`` seconds by more than half a round (at
    least one round).  Returns (rounds, seconds)."""
    timed, r = 0.0, 0
    while rounds is None or r < rounds:
        if budget is not None and r and timed * (1 + 0.5 / r) >= budget:
            break
        for k, prep in enumerate(prepared[r % len(prepared)]):
            if tracer is not None:
                tracer.op_id = "%d.%d" % (r, k)
            t0 = time.perf_counter()
            try:
                raw, err = wl.run(prep, state), None
            except Exception as exc:  # reported as a failed op
                raw, err = None, "%s: %s" % (type(exc).__name__, exc)
            dt = time.perf_counter() - t0
            timed += dt
            out = {"error": err} if err else wl.serialize(prep, raw, state)
            emit({"kind": "op", "phase": phase, "r": r, "k": k, "s": dt,
                  "out": out})
        r += 1
    return r, timed


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args(argv)

    import quatalg  # noqa: F401  (the import is part of set-up)

    wl = workload(args.workload)
    prepared = [[wl.prepare(s) for s in rnd] for rnd in json.load(sys.stdin)]
    t0 = float(os.environ.get("PERFBENCH_T0", "nan"))
    emit({"kind": "ready", "setup_s": time.monotonic() - t0})
    if args.setup_only:
        OUT.flush()
        return 0

    done = {"kind": "done"}
    if not args.trace:
        run_rounds(wl, prepared, {}, "run", budget=args.seconds)
    else:
        from tracer import Tracer

        # the untraced third gives the baseline for the tracing overhead;
        # the traced phase repeats exactly the same rounds
        rounds, timed = run_rounds(wl, prepared, {}, "untraced",
                                   budget=args.seconds / 3)
        tracer = Tracer()
        tracer.install()
        try:
            _, traced = run_rounds(wl, prepared, {}, "traced", rounds=rounds,
                                   tracer=tracer)
        finally:
            tracer.uninstall()
        ops = rounds * len(prepared[0])
        metrics = tracer.metrics(ops, traced, timed)
        done["per_layer"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in metrics.items()}
        if args.spans:
            tracer.write(args.spans, done["per_layer"])
    done["peak_rss_mb"] = peak_rss_mb()
    emit(done)
    OUT.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
