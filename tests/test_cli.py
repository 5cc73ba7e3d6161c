import json
import os

import pytest

from quatalg.cli import main

Q_FIELD = {"kind": "Q"}
F3_FIELD = {"kind": "GF", "p": 3, "k": 1}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def test_form_isotropic_witnessed(capsys):
    form = json.dumps({"field": Q_FIELD, "char2": False,
                       "diag": ["1", "-1"]})
    code, payload, _ = run(capsys, "form", "isotropic", "--json", form)
    assert code == 0
    assert payload["isotropic"] is True
    assert payload["witness"] is not None


def test_form_isotropic_false(capsys):
    form = json.dumps({"field": Q_FIELD, "char2": False,
                       "diag": ["1", "1", "1", "1"]})
    code, payload, _ = run(capsys, "form", "isotropic", "--json", form)
    assert code == 1
    assert payload["isotropic"] is False


def test_form_invariants_and_witt(capsys):
    form = json.dumps({"field": F3_FIELD, "char2": False,
                       "diag": ["1", "2", "1", "2"]})
    code, payload, _ = run(capsys, "form", "invariants", "--json", form)
    assert code == 0 and payload["dim"] == 4
    code, payload, _ = run(capsys, "form", "witt", "--json", form)
    assert code == 0 and payload["verified"] is True


def test_form_invariants_odd_rank(capsys):
    # the README's first example
    form = json.dumps({"field": Q_FIELD, "char2": False,
                       "diag": ["1", "-1", "2"]})
    code, payload, _ = run(capsys, "form", "invariants", "--json", form)
    assert code == 0 and payload["dim"] == 3
    assert payload["discriminant"] == {"representative": "2",
                                       "trivial": False}


GOLDEN = os.path.join(os.path.dirname(__file__), "cli_golden.json")


def test_cli_golden_output(capsys):
    """Byte-exact stdout and exit codes of form isotropic / form witt
    requests covering every isotropy method string (enumeration,
    hasse-minkowski, springer, springer-laurent, bounded-search, witness
    budget exhausted) and of quat iso over Q."""
    with open(GOLDEN) as fh:
        cases = json.load(fh)
    for case in cases:
        code = main(case["argv"])
        out = capsys.readouterr().out
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


def test_clifford_odd_rank_exit_3(capsys):
    form = json.dumps({"field": Q_FIELD, "char2": False,
                       "diag": ["1", "1", "1"]})
    for sub in ("build", "extract-e"):
        code, payload, err = run(capsys, "clifford", sub, "--form", form)
        assert code == 3 and payload is None
        assert "input error" in err


def test_form_trivialize(capsys):
    form = json.dumps({"field": F3_FIELD, "char2": False,
                       "diag": ["1", "1"]})
    code, payload, _ = run(capsys, "form", "trivialize", "--json", form)
    assert code == 0
    assert "form" in payload


def test_clifford_build_and_extract(capsys):
    form = json.dumps({"field": Q_FIELD, "char2": False,
                       "diag": ["1", "1", "1", "1"]})
    code, payload, _ = run(capsys, "clifford", "build", "--form", form)
    assert code == 0 and payload["report"]["dim"] == 16
    code, payload, _ = run(capsys, "clifford", "extract-e", "--form", form)
    assert code == 0
    assert payload["symbol"] == {"char2": False, "a": "-1", "b": "-1"}


def test_quat_division_hasse_minkowski(capsys):
    sym = json.dumps({"field": Q_FIELD, "char2": False,
                      "a": "-1", "b": "-1"})
    code, payload, _ = run(capsys, "quat", "division", "--symbol", sym)
    assert code == 0
    assert payload["division"] is True
    assert "hasse-minkowski" in payload["method"]


def test_quat_division_split(capsys):
    sym = json.dumps({"field": Q_FIELD, "char2": False, "a": "1", "b": "1"})
    code, payload, _ = run(capsys, "quat", "division", "--symbol", sym)
    assert code == 1
    assert payload["division"] is False


def test_quat_iso_and_chain(capsys):
    left = json.dumps({"field": Q_FIELD, "char2": False,
                       "a": "-1", "b": "-1"})
    right = json.dumps({"field": Q_FIELD, "char2": False,
                        "a": "-2", "b": "-2"})
    code, payload, _ = run(capsys, "quat", "iso", "--left", left,
                           "--right", right)
    assert code == 0 and payload["isomorphic"] is True
    code, payload, _ = run(capsys, "quat", "chain", "--left", left,
                           "--right", right)
    assert code == 0
    assert len(payload["symbols"]) == 4


def test_quat_chain_nonisomorphic(capsys):
    left = json.dumps({"field": Q_FIELD, "char2": False,
                       "a": "-1", "b": "-1"})
    right = json.dumps({"field": Q_FIELD, "char2": False, "a": "1",
                        "b": "1"})
    code, payload, _ = run(capsys, "quat", "chain", "--left", left,
                           "--right", right)
    assert code == 1


def test_algebra_chain_roundtrip_and_tamper(capsys, tmp_path):
    pres = json.dumps({"field": Q_FIELD,
                       "symbols": [{"char2": False, "a": "-1", "b": "-1"},
                                   {"char2": False, "a": "-1", "b": "-1"}]})
    x = json.dumps(["0", "1"] + ["0"] * 14)   # first generator
    xp = json.dumps(["0", "1", "1"] + ["0"] * 13)  # x1 + y1
    cert_path = tmp_path / "chain.json"
    code, payload, _ = run(capsys, "algebra", "chain", "--presentation",
                           pres, "--x", x, "--xprime", xp,
                           "--out", str(cert_path))
    assert code == 0
    cert = json.loads(cert_path.read_text())
    code, payload, _ = run(capsys, "verify", "chain", "--cert",
                           str(cert_path))
    assert code == 0 and payload["valid"] is True

    cert["nodes"][1][0] = "1"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(cert))
    code, payload, _ = run(capsys, "verify", "chain", "--cert",
                           str(bad_path))
    assert code == 1
    assert payload["valid"] is False
    assert payload["failing_identity"]


def test_algebra_centralizer(capsys):
    # build an algebra JSON via quat realize, then query a centralizer
    sym = json.dumps({"field": F3_FIELD, "char2": False, "a": "1",
                      "b": "1"})
    code, alg, _ = run(capsys, "quat", "realize", "--symbol", sym)
    assert code == 0
    alg.pop("symbol")
    elems = json.dumps([["0", "1", "0", "0"]])
    code, payload, _ = run(capsys, "algebra", "centralizer", "--json",
                           json.dumps(alg), "--elements", elems)
    assert code == 0
    assert payload["dim"] == 2


def test_determinism(capsys):
    form = json.dumps({"field": F3_FIELD, "char2": False,
                       "diag": ["1", "2", "1", "2"]})
    code1, p1, _ = run(capsys, "form", "witt", "--json", form, "--seed", "7")
    code2, p2, _ = run(capsys, "form", "witt", "--json", form, "--seed", "7")
    assert (code1, p1) == (code2, p2)


def test_input_error_exit_3(capsys):
    code, _, err = run(capsys, "form", "isotropic", "--json", "{not json")
    assert code == 3
    assert "input error" in err


def test_wrong_field_kind_exit_3(capsys):
    form = json.dumps({"field": Q_FIELD, "char2": True,
                       "pairs": [["1", "1"]]})
    code, _, err = run(capsys, "form", "isotropic", "--json", form)
    assert code == 3


def test_verify_suite_unknown_name(capsys):
    code, _, err = run(capsys, "verify", "suite", "no-such-suite")
    assert code == 3
    assert "unknown suite" in err
