"""Command-line contract: output shapes, exit codes, determinism."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from absplit.cli import _caps_from_args, build_parser, main
from absplit.splitness import Caps


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


def test_classify_factors_each_number_once(capsys, monkeypatch):
    # one classify of Z/ψ₁₃ asks for the factors of ψ₁₃ ten times; Pollard
    # rho, the costly part, must split it once
    from absplit import intmat

    psi13 = 3317044064679887385961981
    intmat._factorization.cache_clear()
    split = []
    real = intmat._rho_factor
    monkeypatch.setattr(intmat, "_rho_factor", lambda k: split.append(k) or real(k))
    code, out, _ = run_cli(capsys, "classify", str(psi13), "--json")
    assert code == 0 and json.loads(out)["rows"]
    info = intmat._factorization.cache_info()
    # nothing evicted, so every miss is a distinct n factored once
    assert info.misses == info.currsize and info.hits >= 9
    assert split.count(psi13) == 1
    # callers get their own dict
    got = intmat.prime_factors(psi13)
    got.clear()
    assert intmat.prime_factors(psi13) == {1287836182261: 1, 2575672364521: 1}


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


def test_verify_zero_budget_skips_expected_failures(capsys):
    # counterexample patterns decided by over-budget verdicts are skipped,
    # not counted as misses
    code, out, err = run_cli(
        capsys, "verify", "--max-order", "4", "--budget-hom", "0", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    by_id = {t["theorem"]: t for t in doc["theorems"]}
    for check_id in ("thomzero", "semis"):
        assert by_id[check_id]["expected_failure_misses"] == []
        assert any(s["reason"] == "budget" for s in by_id[check_id]["skipped"])
    patterns = {s.get("pattern") for s in by_id["thomzero"]["skipped"]}
    assert {"Z/2 ⊕ Z/2 with F = 0", "(Z/3 x Z/8, 3-part) ⊕ (Z/2, 0)"} <= patterns


def test_verify_unknown_theorem_exit_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--theorems", "bogus")
    assert code == 2
    assert "valid ids" in err and "tkey" in err


def test_verify_failure_exit_1(capsys, monkeypatch):
    # exit code 1 is reserved for genuine verification failures
    from absplit import harness

    def failing_body(rep, corpus, caps):
        rep.instances = 1
        rep.failures.append({"group": "Z/1?", "reason": "stubbed failure"})
        yield

    monkeypatch.setitem(harness._BODIES, "tkey", failing_body)
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


@pytest.mark.parametrize(
    "argv",
    [
        ("examples", "--cap-subgroups", "0"),
        ("examples", "--pq", "2,3", "--cap-subgroups", "0"),
        ("verify", "--max-order", "2", "--with-examples", "--cap-subgroups", "4"),
    ],
)
def test_examples_over_the_subgroup_cap_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: order 12 exceeds the subgroup enumeration cap {argv[-1]}\n"


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_path_exit_2(capsys, tmp_path, where):
    target = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    code, out, err = run_cli(capsys, "classify", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_caps_flags_accepted(capsys):
    code, out, err = run_cli(
        capsys, "classify", "Z/6", "--budget-hom", "100", "--cap-subgroups", "64",
    )
    assert code == 0


def test_caps_flags_build_the_keyword_caps():
    args = build_parser().parse_args([
        "verify", "--budget-hom", "100", "--cap-subgroups", "64", "--timeout", "1.5",
    ])
    caps = _caps_from_args(args)
    kw = {"hom_budget": 100, "subgroup_cap": 64, "per_group_timeout_s": 1.5}
    assert caps == Caps(**kw) and hash(caps) == hash(Caps(**kw)) and caps.to_dict() == kw
    assert _caps_from_args(build_parser().parse_args(["classify", "Z/6"])) == Caps()


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


@pytest.mark.parametrize(
    "flag, value",
    [("--theorems", ""), ("--theorems", ",,"), ("--preradicals", ""), ("--preradicals", ", ,")],
)
def test_verify_rejects_an_empty_list(capsys, flag, value):
    # an empty list is a user error, not a request for the default list
    code, out, err = run_cli(capsys, "verify", "--max-order", "2", flag, value)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and flag in err


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
        (("examples", "--cap-endring", "5"), "--cap-endring"),
        (("classify", "Z/4", "--entry-bound", "2"), "--entry-bound"),
        (("verify", "--max-order", "4", "--timeout", "-0.5"), "--timeout"),
        (("verify", "--max-order", "4", "--timeout", "nan"), "--timeout"),
        (("verify", "--max-order", "four"), "--max-order"),
        (("classify", "Z/4", "--timeout", "1"), "--timeout"),
        (("examples", "--timeout", "1"), "--timeout"),
    ],
)
def test_numeric_flag_rejected(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert len(err.splitlines()) == 1
    # the End-ring scan has no cap and the summand test no entry bound, so
    # --cap-endring and --entry-bound are unknown arguments; only verify
    # runs a per-group clock, so --timeout is unknown elsewhere
    unknown = flag in ("--cap-endring", "--entry-bound") or (flag == "--timeout" and argv[0] != "verify")
    want = f"unrecognized arguments: {flag} {argv[-1]}" if unknown else f"argument {flag}:"
    assert want in err and "Traceback" not in err


def test_numeric_flag_lower_bounds_accepted(capsys):
    code, out, err = run_cli(
        capsys, "classify", "Z/6", "--budget-hom", "0", "--cap-subgroups", "0",
    )
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, "verify", "--max-order", "1", "--timeout", "0")
    assert code == 0


# --- the CLI as a process --------------------------------------------------------


def _cli_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_closed_stdout_is_a_quiet_exit():
    # the reader end of stdout is closed before the process starts, so the
    # report meets EPIPE, as with `absplit verify ... | head -c 100`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "absplit", "verify", "--max-order", "12", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=_cli_env(), timeout=600,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr and proc.stderr == ""
    assert proc.returncode == 0


def test_module_form_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "absplit", "classify", "Z/4 x Z/2", "--json"],
        capture_output=True, text=True, env=_cli_env(), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["group"] == "Z/2 x Z/4"


def test_cold_import_loads_no_reflection_modules():
    # `import dataclasses` pulls in inspect, ast, dis and tokenize, about 10 ms
    # of the set-up every cold `absplit` call pays
    code = (
        "import sys; before = set(sys.modules); import absplit.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_cli_env(), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "absplit.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize"})


def test_every_module_level_import_is_read():
    # an import left behind by a refactor misleads the reader about what a
    # module depends on, and can pull a module into every cold start; a
    # function-local import is held to the same rule
    package = Path(__file__).resolve().parents[1] / "src" / "absplit"
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {}
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if imported - read:
            unused[path.name] = sorted(imported - read)
    assert unused == {}
