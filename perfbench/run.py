"""quatalg benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload fqt-division --seed 1 \
        --seconds 36 --trace 0

Run from the repository root.  This process generates the workload's
inputs from ``--seed`` and hands them to a fresh worker process
(``worker.py``) that imports quatalg from ``src`` and runs a closed loop,
one op at a time, for ``--seconds`` seconds of summed op time (whole
rounds).  This process then checks every output with the independent
oracles and prints, as the last line of standard output, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.
Results and traces are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

SETUP_PROBES = 6  # extra set-up-only processes; the main run adds one
WALL_LIMIT = 170  # seconds a worker may take before it is killed


class BenchError(RuntimeError):
    pass


def _spawn(args, specs, root, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), HERE] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PERFBENCH_T0"] = repr(time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=root,
        text=True)
    try:
        out, _ = proc.communicate(specs, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded %d s" % timeout)
    if proc.returncode != 0:
        raise BenchError("worker exited with %d" % proc.returncode)
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def tally(wl, rounds, ops):
    """(failed, wrong) over the worker's op lines.  An op fails when it
    raises or answers without the witness it should carry; that is
    allowed only for the specs marked ``known_fault``, and any other
    failure is a wrong op."""
    state, failed, wrong = {}, 0, []
    for line in ops:
        spec = rounds[line["r"] % len(rounds)][line["k"]]
        if line["out"].get("error"):
            status, reason = "failed", line["out"]["error"]
        else:
            status, reason = wl.check(spec, line["out"], state)
        if status == "failed" and spec.get("known_fault"):
            failed += 1
        elif status != "ok":
            wrong.append("%s op %s.%s: %s %s" % (line["phase"], line["r"],
                                                 line["k"], status, reason))
    return failed, wrong


def run_workload(name, seed, seconds, trace, root):
    from worker import dump_specs, workload

    wl = workload(name)
    rounds = wl.make_rounds(seed)
    specs = dump_specs(rounds)
    base = ["--workload", name, "--seconds", str(seconds),
            "--trace", str(trace)]
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            lines = _spawn(base + ["--setup-only"], specs, root, WALL_LIMIT)
            setup.append(lines[0]["setup_s"])
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    spans = os.path.join(outdir, "trace-%s-%d.json" % (name, seed))
    lines = _spawn(base + (["--spans", spans] if trace else []), specs,
                   root, WALL_LIMIT)
    ready, ops, done = lines[0], lines[1:-1], lines[-1]
    if ready.get("kind") != "ready" or done.get("kind") != "done":
        raise BenchError("worker output is incomplete")
    setup.append(ready["setup_s"])

    failed, wrong = tally(wl, rounds, ops)
    for msg in wrong[:10]:
        print("WRONG " + msg, file=sys.stderr)

    if trace:
        metrics = done["per_layer"]
    else:
        times = [line["s"] for line in ops]
        per_round = {}
        for line in ops:
            per_round[line["r"]] = per_round.get(line["r"], 0.0) + line["s"]
        # throughput of the median round: whole rounds are the unit of
        # work, and the median damps bursts of load on a shared machine
        round_s = statistics.median(per_round.values())
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": wl.ROUND_SIZE / round_s,
                          "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(times) * 1e3,
                          "unit": "ms"},
            "peak_rss_mb": {"value": done["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": not wrong, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    with open(os.path.join(outdir, "result-%s-%d-trace%d.json"
                           % (name, seed, trace)), "w") as fh:
        json.dump(dict(result, setup_samples_s=setup,
                       op_seconds=[[ln["phase"], ln["r"], ln["k"], ln["s"]]
                                   for ln in ops]), fh)
    return result


def main(argv=None):
    from worker import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quatalg",
                                       "__init__.py")):
        print("src/quatalg not found under %s: run from the repository root"
              % root, file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, root)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 3
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        print(name, "attempted=%d failed=%d" % (res["attempted"],
                                                res["failed"]),
              " ".join("%s=%.6g%s" % (k, m["value"], m["unit"])
                       for k, m in res["metrics"].items()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (n, k): m for n, r in results.items()
                    for k, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
