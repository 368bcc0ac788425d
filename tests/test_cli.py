import json
import os
import subprocess
import sys

from dualbench import duality
from dualbench.cli import main

DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "sample_docs")


def doc(name):
    return os.path.join(DOCS, name)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roundtrip_pspa_exit_zero(capsys):
    code, out, _ = run_cli(["roundtrip", doc("chain3.doc"), "--mode", "pspa"], capsys)
    assert code == 0
    assert "algebra_surjective: PASS" in out
    assert "space_order_reflecting: PASS" in out


def test_axioms_literal_iv_exit_one(capsys):
    code, out, _ = run_cli(["axioms", doc("chain3-lvl.doc"), "--literal-iv"], capsys)
    assert code == 1
    assert "clause_iv: FAIL" in out
    assert "a=m, L1=0, L2=m" in out


def test_missing_file_exit_two(capsys):
    code, _, err = run_cli(["dualize", doc("missing.doc"), "--mode", "pbs"], capsys)
    assert code == 2
    assert "error" in err


def test_malformed_document_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.doc"
    bad.write_text("kind: lattice\nname x\n")
    code, _, err = run_cli(["check-lattice", str(bad)], capsys)
    assert code == 2
    assert "line 2" in err


def test_check_lattice_law_failure_is_verdict(capsys):
    code, out, _ = run_cli(["check-lattice", doc("pentagon.doc")], capsys)
    assert code == 1
    assert "lattice_laws: FAIL" in out


def test_machine_format_and_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        [
            "axioms",
            doc("chain3-lvl.doc"),
            "--format",
            "machine",
            "--report",
            str(path),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == json.loads(path.read_text())
    assert set(payload) == {
        "command",
        "inputs",
        "verdicts",
        "witnesses",
        "details",
        "passed",
    }
    assert payload["passed"] is True
    assert payload["inputs"][0]["sha256"]


def test_exit_code_matches_verdicts(tmp_path, capsys):
    # property: the exit status is derivable from the machine report alone
    for args, expect in [
        (["axioms", doc("chain3-lvl.doc")], 0),
        (["axioms", doc("chain3-lvl.doc"), "--literal-iv"], 1),
    ]:
        path = tmp_path / "r.json"
        code, _, _ = run_cli(args + ["--report", str(path)], capsys)
        payload = json.loads(path.read_text())
        assert code == (0 if all(payload["verdicts"].values()) else 1) == expect


def test_subalgebras_output(capsys):
    code, out, _ = run_cli(
        ["subalgebras", doc("b2.doc"), "--signature", "bdl"], capsys
    )
    assert code == 0
    assert "'{0,1}'" in out and "'{0,a,b,1}'" in out


def test_homs_with_into(capsys):
    code, out, _ = run_cli(
        ["homs", doc("b2.doc"), "--into", doc("chain2.doc")], capsys
    )
    assert code == 0
    assert "count: 2" in out


def test_power_and_generate(capsys):
    code, out, _ = run_cli(["power", doc("power22.doc")], capsys)
    assert code == 0 and "size: 4" in out
    code, out, _ = run_cli(["generate", doc("upsets22.doc")], capsys)
    assert code == 0 and "size: 3" in out
    code, _, err = run_cli(["generate", doc("power22.doc")], capsys)
    assert code == 2 and "generators" in err


def test_kripke_check_cli(capsys):
    code, out, _ = run_cli(["kripke-check", doc("upsets22.doc")], capsys)
    assert code == 0
    code, out, _ = run_cli(["kripke-check", doc("power22.doc")], capsys)
    assert code == 1


def test_commands_leave_no_scope_cache(capsys, scope_caches):
    code, _, _ = run_cli(["roundtrip", doc("upsets22.doc"), "--mode", "hspa"], capsys)
    assert code == 0
    # one ordered dual of the algebra, shared by both round trips, and one of
    # its map algebra
    assert len(scope_caches) == 2
    assert all(c == {} for c in scope_caches)
    assert duality._SCOPE_CACHE.get() is None


def test_dualize_modes(capsys):
    code, out, _ = run_cli(["dualize", doc("chain3.doc"), "--mode", "pbs"], capsys)
    assert code == 0
    code, out, _ = run_cli(
        ["dualize", doc("chain3.doc"), "--mode", "pspa", "--truth", doc("chain2.doc")],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(["dualize", doc("upsets22.doc"), "--mode", "hspa"], capsys)
    assert code == 0 and "downclosure_identity: PASS" in out


def test_verify_space_modes(capsys):
    code, out, _ = run_cli(
        ["verify-space", doc("pbs-chain2.doc"), "--mode", "pbs"], capsys
    )
    assert code == 0
    code, out, _ = run_cli(
        ["verify-space", doc("pspa-chain2.doc"), "--mode", "hspa"], capsys
    )
    assert code == 0


def test_spectrum_cli(capsys):
    code, out, _ = run_cli(["spectrum", doc("b2.doc")], capsys)
    assert code == 0
    assert "counts_equal: PASS" in out


def test_reconstruct_modes(capsys):
    code, out, _ = run_cli(
        ["reconstruct", doc("pspa-chain2.doc"), "--mode", "pspa"], capsys
    )
    assert code == 0 and "size: 3" in out
    code, out, _ = run_cli(
        ["reconstruct", doc("pspa-chain2.doc"), "--mode", "hspa"], capsys
    )
    assert code == 0
    assert "implication_preimage_identity" in out
    code, out, _ = run_cli(
        ["reconstruct", doc("pbs-chain2.doc"), "--mode", "pbs"], capsys
    )
    assert code == 0 and "clause_i: PASS" in out


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("DUALITY_BUDGET", "2")
    code, _, err = run_cli(["power", doc("power22.doc")], capsys)
    assert code == 2
    assert "budget" in err


def test_timings_flag_adds_timings(tmp_path, capsys):
    path = tmp_path / "r.json"
    run_cli(["axioms", doc("chain3-lvl.doc"), "--timings", "--report", str(path)], capsys)
    assert "timings" in json.loads(path.read_text())
    path2 = tmp_path / "r2.json"
    run_cli(["axioms", doc("chain3-lvl.doc"), "--report", str(path2)], capsys)
    assert "timings" not in json.loads(path2.read_text())


def test_corpus_run_determinism_subprocess(tmp_path):
    cmd = [
        sys.executable,
        "-m",
        "dualbench.cli",
        "corpus-run",
        "--max-size",
        "4",
        "--frame-size",
        "3",
        "--seed",
        "11",
        "--format",
        "machine",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 1  # the chain3 suite is red
    assert first.stdout == second.stdout
