"""Tests of the benchmark's own generators, checkers and tracer.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import oracles
import run
import wl_chains
import wl_cli
import wl_fqt
from arith import GF, pfactor, pmul
from worker import dump_specs

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_round(wl, seed):
    """One round at the smallest size: (spec, output, verdict) per op.
    The worker side sees the specs in their wire form, as in a run."""
    spec_round = wl.make_rounds(seed, rounds=1)[0]
    wire = json.loads(dump_specs([spec_round]))[0]
    wstate, cstate, out = {}, {}, []
    for spec, sent in zip(spec_round, wire):
        prep = wl.prepare(sent)
        res = wl.serialize(prep, wl.run(prep, wstate), wstate)
        res = json.loads(json.dumps(res))
        out.append((spec, res, wl.check(spec, res, cstate)))
    return out


@pytest.fixture(scope="module")
def fqt_round():
    return run_round(wl_fqt, 5)


@pytest.fixture(scope="module")
def chains_round():
    return run_round(wl_chains, 5)


@pytest.fixture(scope="module")
def cli_round():
    return run_round(wl_cli, 5)


# -- oracles -------------------------------------------------------------------


def test_fqt_oracle_matches_known_verdicts():
    # <a, b, c, abc> over F_3(t); verdicts of the division-equivalence data
    cases = [([2, 0, 1], [2, 1, 2], [1, 0, 1], False),
             ([1, 1], [2, 0, 2], [1, 0, 1], True),
             ([1, 1], [2, 1], [1, 2], True),
             ([1, 2, 1], [2, 2], [0, 2, 2], True),
             ([2], [0, 2, 1], [0, 1, 1], False)]
    for a, b, c, iso in cases:
        assert oracles.fqt_form_isotropic(a, b, c, 3) is iso


def test_fqt_symbols_obey_the_product_formula():
    rng = random.Random(3)
    for _ in range(300):
        u = wl_fqt.random_poly(rng)
        v = wl_fqt.random_poly(rng)
        prod = 1
        for s in oracles.fqt_hilbert_symbols(u, v, 3).values():
            prod *= s
        assert prod == 1


def test_fqt_oracle_agrees_with_hasse_minkowski_in_quatalg():
    from quatalg import fields, localglobal

    F = fields.FunctionField(fields.FiniteField(3))
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (wl_fqt.random_poly(rng) for _ in range(3))
        diag = [F.from_poly(tuple(x)) for x in (a, b, c)]
        diag.append(F.mul(F.mul(diag[0], diag[1]), diag[2]))
        assert localglobal.is_isotropic_global(F, diag) is \
            oracles.fqt_form_isotropic(a, b, c, 3)


def test_shallow_zero_implies_isotropic():
    rng = random.Random(4)
    for _ in range(300):
        a, b, c = (wl_fqt.random_poly(rng) for _ in range(3))
        if wl_fqt.shallow_zero(a, b, c) is not None:
            assert oracles.fqt_form_isotropic(a, b, c, 3)


def test_polynomial_factoring_recombines():
    rng = random.Random(2)
    for _ in range(100):
        a = [rng.randrange(3) for _ in range(7)] + [1]
        prod = [1]
        for g, e in pfactor(a, 3):
            for _ in range(e):
                prod = pmul(prod, g, 3)
        assert prod == a


def test_q_oracle_known_forms():
    F = Fraction
    assert oracles.q_isotropic([F(1), F(-1)])
    assert not oracles.q_isotropic([F(1), F(1), F(1), F(1)])
    assert not oracles.q_isotropic([F(1), F(1), F(1), F(-7)])
    assert oracles.q_isotropic([F(1), F(1), F(1), F(-3)])
    assert oracles.q_isotropic([F(s) for s in wl_cli.FAILING_FORM])


def test_q_oracle_agrees_with_quatalg():
    from quatalg import fields, localglobal

    Q = fields.Rationals()
    rng = random.Random(8)
    for n in (2, 4) * 60:
        diag = [wl_cli._rational(rng) for _ in range(n)]
        assert localglobal.is_isotropic_global(Q, diag) is \
            oracles.q_isotropic(diag)


def test_q_symbol_isomorphism_oracle():
    F = Fraction
    assert oracles.q_symbols_equal((F(-1), F(-1)), (F(-2), F(-2)))
    assert not oracles.q_symbols_equal((F(-1), F(-1)), (F(-1), F(-3)))
    assert not oracles.q_symbols_equal((F(-1), F(-1)), (F(1), F(1)))
    assert oracles.quaternion_division_q(F(-1), F(-1))
    assert not oracles.quaternion_division_q(F(1), F(5))


def test_quaternion_tables_are_associative():
    for F, char2 in ((GF(5), False), (GF(2, 2), True)):
        for a in F.elements():
            for b in F.elements():
                if F.is_zero(b) or (not char2 and F.is_zero(a)):
                    continue
                T = oracles.quaternion_table(F, a, b, char2)
                basis = [T.basis(i) for i in range(4)]
                for x in basis:
                    for y in basis:
                        for z in basis:
                            assert T.mul(T.mul(x, y), z) == \
                                T.mul(x, T.mul(y, z))


# -- workloads at their smallest size and rejection of corrupted output ---------


def test_fqt_round_checks(fqt_round):
    assert [v for _, _, v in fqt_round] == [("ok", None)] * wl_fqt.ROUND_SIZE


def test_fqt_rejects_flipped_verdicts_and_bad_witness(fqt_round):
    iso = next((s, o) for s, o, _ in fqt_round if o["isotropic"])
    spec, out = iso
    flipped = dict(out, isotropic=False)
    assert wl_fqt.check(spec, flipped, {})[0] == "wrong"
    flipped = dict(out, division=True)
    assert wl_fqt.check(spec, flipped, {})[0] == "wrong"
    bad = copy.deepcopy(out)
    num = bad["witness"][1][0]
    bad["witness"][1][0] = [(num[0] + 1) % 3] + num[1:] if num else [1]
    assert wl_fqt.check(spec, bad, {})[0] == "wrong"


def test_chains_round_checks(chains_round):
    assert [v for _, _, v in chains_round] == \
        [("ok", None)] * wl_chains.ROUND_SIZE


def test_chains_reject_tampered_certificate_and_link(chains_round):
    chain_outs = [o for s, o, _ in chains_round if s["op"] == "chain"]
    for out in chain_outs:
        cert = copy.deepcopy(out["cert"])
        assert oracles.check_chain_cert(cert)[0]
        wl_chains.corrupt_certificate(cert, 1, 0)
        ok, reason = oracles.check_chain_cert(cert)
        assert not ok and reason
    spec, out, _ = next(x for x in chains_round if x[0]["op"] == "link"
                        and x[0]["field"] == "F5")
    bad = copy.deepcopy(out)
    bad["z"] = bad["gens"][spec["pair"][0]][0]
    assert wl_chains.check(spec, bad, {})[0] == "wrong"


def test_chains_reject_a_wrong_algebra_or_generators(chains_round):
    for spec, out, _ in chains_round:
        if spec["op"] not in ("link", "chain"):
            continue
        # x_1 of the second factor commutes with y_1: relations fail
        bad = copy.deepcopy(out)
        bad["gens"][0][0] = bad["gens"][1][0]
        verdict, reason = wl_chains.check(spec, bad, {})
        assert verdict == "wrong" and "tensor product" in reason
    spec, out, _ = next(x for x in chains_round if x[0]["op"] == "link"
                        and x[0]["field"] == "F5")
    # the table of u*v = 2uv: an algebra, but not the seeded one
    bad = copy.deepcopy(out)
    bad["table"] = [[[[k, 2 * c % 5] for k, c in cell] for cell in row]
                    for row in out["table"]]
    verdict, reason = wl_chains.check(spec, bad, {})
    assert verdict == "wrong" and "tensor product" in reason


def test_cli_round_checks(cli_round):
    verdicts = [v[0] for _, _, v in cli_round]
    assert verdicts.count("failed") == len(wl_cli.FAILING)
    assert verdicts.count("ok") == len(wl_cli.PLAN)
    assert all(s.get("known_fault") for s, _, v in cli_round
               if v[0] == "failed")


def test_only_known_faults_count_as_failed(cli_round):
    rounds = [[s for s, _, _ in cli_round]]
    lines = [{"phase": "run", "r": 0, "k": k, "out": o}
             for k, (_, o, _) in enumerate(cli_round)]
    assert run.tally(wl_cli, rounds, lines) == (len(wl_cli.FAILING), [])
    # a PLAN request that raises is wrong, not failed
    crashed = copy.deepcopy(lines)
    crashed[0]["out"] = {"error": "RuntimeError: boom"}
    failed, wrong = run.tally(wl_cli, rounds, crashed)
    assert failed == len(wl_cli.FAILING) and len(wrong) == 1
    # so is an isotropic answer without a witness outside the known faults
    k, spec = next((k, s) for k, s in enumerate(rounds[0])
                   if s["cmd"] == "form isotropic" and s["field"] == "Q"
                   and json.loads(lines[k]["out"]["stdout"])["isotropic"])
    payload = json.loads(lines[k]["out"]["stdout"])
    del payload["witness"]
    stripped = copy.deepcopy(lines)
    stripped[k]["out"]["stdout"] = json.dumps(payload)
    assert len(run.tally(wl_cli, rounds, stripped)[1]) == 1


def _replace_payload(out, **changes):
    payload = json.loads(out["stdout"])
    payload.update(changes)
    return dict(out, stdout=json.dumps(payload))


def test_cli_rejects_corrupted_output(cli_round):
    def first(cmd, pred=lambda p: True):
        return next((s, o) for s, o, v in cli_round
                    if s["cmd"] == cmd and v[0] == "ok" and s["field"] == "Q"
                    and pred(json.loads(o["stdout"])))

    spec, out = first("form isotropic", lambda p: p["isotropic"])
    payload = json.loads(out["stdout"])
    assert wl_cli.check(spec, _replace_payload(out, isotropic=False),
                        {})[0] == "wrong"
    w = list(payload["witness"])
    w[0] = str(Fraction(w[0]) + 1)
    assert wl_cli.check(spec, _replace_payload(out, witness=w),
                        {})[0] == "wrong"
    assert wl_cli.check(spec, dict(out, exit=1), {})[0] == "wrong"

    spec, out = first("form invariants")
    disc = json.loads(out["stdout"])["discriminant"]
    wrong = dict(disc, representative=str(2 * Fraction(
        disc["representative"])))
    assert wl_cli.check(spec, _replace_payload(out, discriminant=wrong),
                        {})[0] == "wrong"

    spec, out = first("quat division", lambda p: "witness" in p)
    u, v = json.loads(out["stdout"])["witness"]
    assert wl_cli.check(spec, _replace_payload(out, witness=[u, u]),
                        {})[0] == "wrong"


# -- tracer and entry point -------------------------------------------------------


def test_tracer_restores_and_accounts():
    from quatalg import forms, linalg, polynomials, quaternions
    from tracer import Tracer

    before = (forms.is_isotropic, quaternions.is_isotropic, linalg.rref,
              polynomials.gcd, forms.QuadraticForm.evaluate)
    tr = Tracer()
    tr.install()
    try:
        assert quaternions.is_isotropic is not before[1]
        tr.op_id = "0.0"
        spec = wl_cli.make_rounds(1, rounds=1)[0][9]  # isotropy over GF(9)
        wl_cli.run(wl_cli.prepare(spec), {})
    finally:
        tr.uninstall()
    after = (forms.is_isotropic, quaternions.is_isotropic, linalg.rref,
             polynomials.gcd, forms.QuadraticForm.evaluate)
    assert before == after
    assert tr.calls("cli.main") == 1 and tr.calls("forms.evaluate") > 0
    ids = {s[0] for s in tr.spans}
    assert all(s[4] is None or s[4] in ids for s in tr.spans)
    for calls, total, self_s in tr.stats.values():
        assert -1e-9 <= self_s <= total + 1e-9
    m = tr.metrics(1)
    assert m["cli.main.calls"][0] == 1


def test_benchmark_json_lists_every_metric():
    from tracer import Tracer

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    traced = {k: u for k, (_, u) in Tracer().metrics(1).items()}
    assert per_layer == traced
    assert {m["name"] for m in bench["end_to_end"]} == \
        {"setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"}
    assert {w["name"] for w in bench["workloads"]} == \
        {"fqt-division", "biquaternion-chains", "cli-forms"}


def test_worker_side_loads_no_sympy():
    # the generators and checkers use sympy; the measured process must not
    code = ("import json, sys, worker\n"
            "wl = worker.workload('cli-forms')\n"
            "for spec in json.load(sys.stdin)[0]:\n"
            "    p = wl.prepare(spec)\n"
            "    wl.serialize(p, wl.run(p, {}), {})\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('sympy', 'mpmath')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(BENCH), "src"), BENCH]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          input=dump_specs(wl_cli.make_rounds(1, rounds=1)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-forms",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and not proc.stdout.strip()
