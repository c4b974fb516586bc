"""Command-line contract: output shapes, exit codes, determinism."""

import json

import pytest

from absplit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_table(capsys):
    code, out, err = run_cli(capsys, "classify", "Z/4 x Z/3")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert "Z/12" in lines[0]
    # 6 data rows after the two header lines
    assert len(lines) == 3 + 6


def test_classify_json(capsys):
    code, out, err = run_cli(capsys, "classify", "Z/4 x Z/3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "Z/12"
    assert len(doc["rows"]) == 6
    orders = sorted(r["order"] for r in doc["rows"])
    assert orders == [1, 2, 3, 4, 6, 12]


def test_classify_infinite_theorem_mode(capsys):
    code, out, err = run_cli(capsys, "classify", "Z x Z/2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["notes"]
    assert all(r["deciding_mode"] == "theorem" for r in doc["rows"])


def test_classify_parse_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "classify", "Z/1 x Z/4")
    assert code == 2
    assert "position" in err


def test_classify_bad_token_reports_position(capsys):
    code, out, err = run_cli(capsys, "classify", "Z/4 + Z/3")
    assert code == 2
    assert "position" in err


def test_verify_small_pass(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "verify", "--max-order", "8", "--theorems", "tkey,csip",
        "--out", str(out_file),
    )
    assert code == 0
    assert "tkey" in out and "overall: pass" in out
    doc = json.loads(out_file.read_text())
    assert doc["passed"] and doc["corpus_spec"]["max_order"] == 8


def test_verify_max_order_1(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-order", "1")
    assert code == 0
    assert "overall: pass" in out


def test_verify_unknown_theorem_exit_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--theorems", "bogus")
    assert code == 2
    assert "valid ids" in err and "tkey" in err


def test_verify_failure_exit_1(capsys, monkeypatch):
    # exit code 1 is reserved for genuine verification failures
    from absplit import harness

    def failing_check(corpus, caps):
        rep = harness.TheoremReport("tkey")
        rep.instances = 1
        rep.failures.append({"group": "Z/1?", "reason": "stubbed failure"})
        return rep

    monkeypatch.setitem(harness.CHECKS, "tkey", failing_check)
    code, out, err = run_cli(capsys, "verify", "--max-order", "2", "--theorems", "tkey")
    assert code == 1
    assert "overall: FAIL" in out


def test_verify_deterministic_output(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "verify", "--max-order", "8", "--theorems", "tkey", "--out", str(f1))
    run_cli(capsys, "verify", "--max-order", "8", "--theorems", "tkey", "--out", str(f2))

    def strip(text):
        doc = json.loads(text)

        def go(d):
            if isinstance(d, dict):
                return {k: go(v) for k, v in d.items() if k != "elapsed_s"}
            if isinstance(d, list):
                return [go(x) for x in d]
            return d

        return json.dumps(go(doc), sort_keys=True)

    assert strip(f1.read_text()) == strip(f2.read_text())


def test_examples_pq(capsys, tmp_path):
    out_file = tmp_path / "ex.json"
    code, out, err = run_cli(capsys, "examples", "--pq", "2,3", "--out", str(out_file))
    assert code == 0
    assert "overall: pass" in out
    doc = json.loads(out_file.read_text())
    assert doc["passed"]
    assert doc["tables"][0]["group"] == "Z/12"


def test_examples_rejects_equal_primes(capsys):
    code, out, err = run_cli(capsys, "examples", "--pq", "2,2")
    assert code == 2


def test_examples_rejects_non_primes(capsys):
    code, out, err = run_cli(capsys, "examples", "--pq", "4,3")
    assert code == 2


def test_caps_flags_accepted(capsys):
    code, out, err = run_cli(
        capsys, "classify", "Z/6", "--budget-hom", "100", "--cap-subgroups", "64",
        "--cap-endring", "100", "--entry-bound", "2",
    )
    assert code == 0


def test_classify_preradical_row(capsys):
    code, out, err = run_cli(
        capsys, "classify", "Z x Z/4", "--preradical", "torsion", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 1
    row = doc["rows"][0]
    assert row["order"] == 4
    assert row["self_F_split"] == "yes" and row["strongly"] == "yes"
    assert row["preradicals"] == ["torsion"]
    code, out, err = run_cli(capsys, "classify", "Z/6", "--preradical", "bogus")
    assert code == 2


def test_verify_preradicals_flag(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--max-order", "8", "--theorems", "tdsprerad",
        "--preradicals", "socle,ppart:2",
    )
    assert code == 0
    code, out, err = run_cli(
        capsys, "verify", "--max-order", "6", "--theorems", "tdsprerad",
        "--preradicals", "nope",
    )
    assert code == 2


def test_verify_report_contains_examples_field(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, out, err = run_cli(
        capsys, "verify", "--max-order", "4", "--theorems", "tkey", "--out", str(out_file)
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert set(doc) == {
        "engine_version", "caps", "corpus_spec", "theorems", "examples", "passed",
    }
    assert doc["examples"] == []


# --- numeric flags are validated at parse time: one error line, exit code 2 ---


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "--max-order", "0"), "--max-order"),
        (("verify", "--max-order", "4", "--budget-hom", "-1"), "--budget-hom"),
        (("verify", "--max-order", "4", "--cap-subgroups", "-1"), "--cap-subgroups"),
        (("examples", "--cap-endring", "-5"), "--cap-endring"),
        (("classify", "Z/4", "--entry-bound", "-2"), "--entry-bound"),
        (("classify", "Z/4", "--timeout", "-0.5"), "--timeout"),
        (("classify", "Z/4", "--timeout", "nan"), "--timeout"),
        (("verify", "--max-order", "four"), "--max-order"),
    ],
)
def test_numeric_flag_rejected(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert f"argument {flag}:" in err and "Traceback" not in err


def test_numeric_flag_lower_bounds_accepted(capsys):
    code, out, err = run_cli(
        capsys, "classify", "Z/6", "--budget-hom", "0", "--cap-subgroups", "0",
        "--cap-endring", "0", "--entry-bound", "0", "--timeout", "0",
    )
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, "verify", "--max-order", "1")
    assert code == 0
