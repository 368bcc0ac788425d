import hashlib
import json
import os
import re
import subprocess
import sys

from dualbench import cli, duality
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


def test_roundtrip_hspa_over_chain3_with_maps_not_closed_exits_one(tmp_path, capsys):
    # L5_1 (0 < b, c < bc < 1) is valid input; its hspa dual over the
    # three-chain carries maps that are not closed under the implication,
    # which is a failed round trip, not malformed input
    l51 = tmp_path / "l51.doc"
    l51.write_text(
        "kind: lattice\nname: l51\nelements: 0 b c bc 1\n"
        "leq: 0<=b 0<=c b<=bc c<=bc bc<=1\nbottom: 0\ntop: 1\n"
    )
    args = ["roundtrip", "--mode", "hspa", "--truth", doc("chain3.doc"), str(l51)]
    code, out, err = run_cli(args + ["--format", "machine"], capsys)
    assert code == 1 and err == ""
    report = json.loads(out)
    refusal = "'CI(GI(l51))': an implication leaves the map family"
    witnesses = {w["check"]: w["witness"] for w in report["witnesses"]}
    assert witnesses["algebra_well_defined"] == witnesses["space_well_defined"] == refusal
    others = {w for check, w in witnesses.items() if not check.endswith("_well_defined")}
    assert others == {"natural map is not well defined"}
    assert not any(report["verdicts"].values())


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


def test_subalgebras_of_a_one_element_lattice_exit_two_as_the_other_commands(
    tmp_path, capsys
):
    # the subalgebras are those of the algebra on the lattice, and an
    # algebra with 0 = 1 is refused, as axioms, homs and dualize refuse it
    # (so is a bitopological space over it, whose assignment is indexed by
    # the subalgebras of that algebra)
    one = "kind: lattice\nname: one\nelements: x\nleq:\nbottom: x\ntop: x\n"
    path = tmp_path / "one.doc"
    path.write_text(one)
    space = tmp_path / "space.doc"
    space.write_text(
        "kind: space\nname: s\npoints: z\ntopo1: {z}\ntopo2: {z}\n"
        "truth_lattice: one\nalpha: {x}:{z}\n---\n" + one
    )
    message = "error: algebra 'one' has a one-element carrier; 0 = 1 is rejected\n"
    for args in (
        ["subalgebras", str(path)],
        ["subalgebras", str(path), "--signature", "bdl"],
        ["axioms", str(path)],
        ["homs", str(path)],
        ["dualize", str(path), "--mode", "pspa"],
        ["verify-space", str(space), "--mode", "pbs"],
        ["roundtrip", str(space), "--mode", "pbs"],
    ):
        assert run_cli(args, capsys) == (2, "", message), args


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


def test_reconstruct_hspa_runs_one_map_search(monkeypatch, capsys):
    # the map algebra and the preimage identity read the same maps, so a
    # space and truth lattice cost one search
    searches = []
    search = duality._map_vectors

    def spy(*args):
        searches.append(args[-1])
        return search(*args)

    monkeypatch.setattr(duality, "_map_vectors", spy)
    for truth in ([], ["--truth", doc("chain3.doc")]):
        searches.clear()
        args = ["reconstruct", doc("pspa-chain2.doc"), "--mode", "hspa", *truth]
        code, out, _ = run_cli(args, capsys)
        assert code == 0 and "implication_preimage_identity" in out
        assert searches == ["continuous order-preserving maps over 'pspa-chain2'"]


def test_mode_choices_come_from_the_registry():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    for name in ("dualize", "reconstruct", "roundtrip", "verify-space"):
        (mode,) = [a for a in commands[name]._actions if a.dest == "mode"]
        assert mode.choices == tuple(duality.MODES)


def test_space_of_the_wrong_kind_exits_two_naming_it(capsys):
    code, out, err = run_cli(
        ["reconstruct", doc("pbs-chain2.doc"), "--mode", "hspa"], capsys
    )
    assert (code, out) == (2, "")
    assert "hspa mode needs a space of type OrderedSpace" in err
    assert "'pbs-chain2' is of type PbsObject" in err
    code, out, err = run_cli(
        ["verify-space", doc("pspa-chain2.doc"), "--mode", "pbs"], capsys
    )
    assert (code, out) == (2, "")
    assert "'pspa-chain2' is of type OrderedSpace" in err


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


def test_corpus_run_beyond_seven_join_irreducibles(capsys):
    # eight-element lattices include the eight-chain, with seven
    # join-irreducibles; --timings adds the failure counts the witness list
    # leaves out
    args = "corpus-run --max-size 8 --seed 0 --format machine --timings"
    code, out, _ = run_cli(args.split(), capsys)
    report = json.loads(out)
    assert code == 1
    failed = [k for k, v in report["verdicts"].items() if not v]
    assert failed == ["isp_roundtrip_chain3"]
    for suite in (
        "spectrum_bijection",
        "prime_separation",
        "isp_roundtrip_chain2",
        "isp_roundtrip_chain3",
        "axiom_ledger",
    ):
        assert report["details"][suite]["counts"]["lattices"] == 35
    suites = report["timings"]["suites"]
    assert suites["isp_roundtrip_chain3"]["failure_count"] == 102
    listed = [w for w in report["witnesses"] if w["check"] == "isp_roundtrip_chain3"]
    assert len(listed) == 25
    assert all(suites[k]["failure_count"] == 0 for k in report["verdicts"] if k not in failed)
    assert report["timings"]["enumerate_seconds"] >= 0


# sha256 of the --format machine stdout, with the exit code, of each
# space-side command on every sample document it accepts, pinned from the
# implementation that built every open set (kept as tests/topology_oracle.py)
SPACE_SIDE_PINS = {
    ("dualize", "pbs", "b2.doc"): (0, "8a64a60d610b5c52d3324918cbaa704abb6106433b7134aaedf67a0c657aa713"),
    ("dualize", "pbs", "chain2.doc"): (0, "6acfd5818b04980a5385b3f20a5c11f6c209f1f27de71623d88ade5216aa203d"),
    ("dualize", "pbs", "chain3-lvl.doc"): (0, "c45b07b6c4ae512a32674444823a27da47ef38364ac8d907759e759026dadc48"),
    ("dualize", "pbs", "chain3.doc"): (0, "416a9c899ca484c9212195688d4ff742a63c2903add05075d32a3f0e29a1503f"),
    ("dualize", "pbs", "pbs-chain2.doc"): (0, "7722c775a0e961840cb08c2ddce0076889089ba3292d0eac46b3e5f046568f75"),
    ("dualize", "pspa", "b2.doc"): (0, "1f9e6dcb4a90c459dd372ded61325a1179bb6d1f179239f57f28ae8a4b29fb8d"),
    ("dualize", "pspa", "chain2.doc"): (0, "527228d8200c664a4055f7f15a4e35372050e0bd86973f3355792f5c179fde17"),
    ("dualize", "pspa", "chain3.doc"): (0, "80b1c122fb83de47694c7f280c8d7189e081bb0b471f3015a1843ffb972c95b3"),
    ("dualize", "pspa", "pbs-chain2.doc"): (0, "8140a3bb6c13a4fb6f26f41f53f650b79c8f9451578dd77821c6f0c99e67709f"),
    ("dualize", "hspa", "b2.doc"): (0, "52904128a8780b6e7d3e235d8574b003955728cbb6d5282d073828cd0d2be0cc"),
    ("dualize", "hspa", "chain2.doc"): (0, "d90fcf08bd5ba2922543ac8a7bc1dbbf12d062f4ee9c1c0d4c381f358a0601bc"),
    ("dualize", "hspa", "chain3.doc"): (0, "6b2646e4e1d1fd9879a2c6a133ad42e335ad47272ca8a8f7d8b115fadc575b70"),
    ("dualize", "hspa", "pbs-chain2.doc"): (0, "40a47c6f38a6672718c2c9d3b9e7f3b91223351bcd8a23c16c49e37580588fde"),
    ("dualize", "hspa", "power22.doc"): (1, "35c86b5c8be54ddc6c994c35889aeceaa8e2dd88236fd8871b53a0863bb49f2b"),
    ("dualize", "hspa", "upsets22.doc"): (0, "f3e419eafd3828f838c1b05fbf91f543fa3466efe4abb707885639f4ba9f30c3"),
    ("roundtrip", "pbs", "b2.doc"): (0, "ce433731fa66f7246c9c96e0e4478e3f46f6d6b1471f754337973ade316262ee"),
    ("roundtrip", "pbs", "chain2.doc"): (0, "7ed739b935356e1a0bc2887bf1875044363f3235c9477dcd1f84e8fe8f85cf4f"),
    ("roundtrip", "pbs", "chain3-lvl.doc"): (0, "3f942d2fd67c0c5f4a7e5bbc500765e220556ff56685abf7f36a3a1b1b31284d"),
    ("roundtrip", "pbs", "chain3.doc"): (0, "0e7f2159f1a9b0191181a88bbf6f6729b712291a12e0294917c95ebec08da5d9"),
    ("roundtrip", "pbs", "pbs-chain2.doc"): (0, "f28e5e9aa806f1476ff007446a581a1fafdd33a80ce0769724e93deab76c07e5"),
    ("roundtrip", "pspa", "b2.doc"): (0, "6739440318363490d80a65063c0640081632cc5b0c18af0d7aab2b412248f438"),
    ("roundtrip", "pspa", "chain2.doc"): (0, "602e0503cb4f5373d15edc95f1bb3cdcd6445e4a6b9fc759493bfe78e5afc00a"),
    ("roundtrip", "pspa", "chain3.doc"): (0, "31b18fc0dec9856ac7fb04b4c37568700f194617c5d8810fcef68a8e7b67739e"),
    ("roundtrip", "pspa", "pbs-chain2.doc"): (0, "a426884774cd7938dd27a976c77c73027e9eda797fb78e0a5fa98a9c3fdbba26"),
    ("roundtrip", "hspa", "b2.doc"): (0, "d719bdc5c69f8a8f03abd3299e28e56086571ff04e932a1837810e9f14b789f5"),
    ("roundtrip", "hspa", "chain2.doc"): (0, "f972b41037f2f147c0837c0f79d98942a12956b237396be79076545e9f92383d"),
    ("roundtrip", "hspa", "chain3.doc"): (0, "677ea76a4f82cd506ee7c1c6a0221737adc2e3787f53ca6952245871d571e5fb"),
    ("roundtrip", "hspa", "pbs-chain2.doc"): (0, "a19da96577b7db0ac1d56e8f9431ae3b382cfdc880569244bdf7d9838e3425bf"),
    ("roundtrip", "hspa", "power22.doc"): (1, "e64b4d19cade10d07b59465744ba676e6127cf751d29ff1c271ae9ae53b85036"),
    ("roundtrip", "hspa", "upsets22.doc"): (0, "4e45aa1cc4d3c6785169bd5a60c074526e154a19cad38d1bb90856b0228a3673"),
    ("verify-space", "pbs", "pbs-chain2.doc"): (0, "01d125f8057eb1a7afd78c24da77b00c208afd48827c2ed5a65aa7f867a400f9"),
    ("verify-space", "pspa", "pspa-chain2.doc"): (0, "02d07abb573709c49a75e89afa8243d26facb074af2d3886e2472f54602847de"),
    ("verify-space", "hspa", "pspa-chain2.doc"): (0, "5164d99336b94ca11e0b7d19834c3bdf6353a0110e4bff329c9aa9dc89f8d4d6"),
}


def test_space_side_machine_reports_are_pinned(monkeypatch, capsys):
    monkeypatch.chdir(os.path.join(DOCS, os.pardir))
    for (command, mode, name), pin in SPACE_SIDE_PINS.items():
        args = [command, f"sample_docs/{name}", "--mode", mode, "--format", "machine"]
        code, out, _ = run_cli(args, capsys)
        assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == pin, args


# sha256 of the --format machine stdout, with the exit code, of each
# algebra-side command on every sample document it accepts (exit 0 or 1
# under the default budget), under the default budget and under
# --budget 2 (None is the default), pinned from the tuple-at-a-time table
# build that tests/vector_oracle.py keeps
ALGEBRA_SIDE_PINS = {
    ("power", "power22.doc", None): (0, "48751dca5c82f779fb6d9beaadc140d9409f5ccba216167f6ce1997b7fa1f395"),
    ("power", "power22.doc", 2): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("power", "upsets22.doc", None): (0, "aaff0f158de5353f2cde5d26fc8cc8ee9be5fdef41fae0abb365c3005d1132f1"),
    ("power", "upsets22.doc", 2): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("generate", "upsets22.doc", None): (0, "74687ae4138b90cee744d699e7e8b18bdef95549db9efcda33fa39cfa6027fd9"),
    ("generate", "upsets22.doc", 2): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("kripke-check", "power22.doc", None): (1, "47993d00ec87d1dba4616f21f27df0218c11abae4839acab5ee41683a3fb0d19"),
    ("kripke-check", "power22.doc", 2): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("kripke-check", "upsets22.doc", None): (0, "34c2a4152d1e34c9b030becc2e0945033d7ed97285ff39fd0960a12f6d0a5e7d"),
    ("kripke-check", "upsets22.doc", 2): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("axioms", "b2.doc", None): (0, "a77b6876981cf2eedf7a8a17601c6c608cd9d54bc3a2c3c09d38da6ef83e96e0"),
    ("axioms", "b2.doc", 2): (0, "a77b6876981cf2eedf7a8a17601c6c608cd9d54bc3a2c3c09d38da6ef83e96e0"),
    ("axioms", "chain2.doc", None): (0, "bb2df888137dc0e41ef1acd2ba69df76e51264d087376bcf22374a77069273a7"),
    ("axioms", "chain2.doc", 2): (0, "bb2df888137dc0e41ef1acd2ba69df76e51264d087376bcf22374a77069273a7"),
    ("axioms", "chain3-lvl.doc", None): (0, "246cdd49fe827fed2a137b3a31086479fbd42628a9c15f06dccff6e75c107098"),
    ("axioms", "chain3-lvl.doc", 2): (0, "246cdd49fe827fed2a137b3a31086479fbd42628a9c15f06dccff6e75c107098"),
    ("axioms", "chain3.doc", None): (0, "d0c90492397ad3e157e692300440920aa1f99f5e706d9539d245462e2ba83086"),
    ("axioms", "chain3.doc", 2): (0, "d0c90492397ad3e157e692300440920aa1f99f5e706d9539d245462e2ba83086"),
    ("axioms", "pbs-chain2.doc", None): (0, "d1764c83e0936c0a02fb8b199d946484efcccb19ccb274a97c95bbecdbe22cd8"),
    ("axioms", "pbs-chain2.doc", 2): (0, "d1764c83e0936c0a02fb8b199d946484efcccb19ccb274a97c95bbecdbe22cd8"),
    ("homs", "b2.doc", None): (0, "194148ede492bc0c0e2c7ecc3160cb69be34823223023cd313e5870589a2a973"),
    ("homs", "b2.doc", 2): (0, "194148ede492bc0c0e2c7ecc3160cb69be34823223023cd313e5870589a2a973"),
    ("homs", "chain2.doc", None): (0, "d806c1a2675a818cde616f400c692c7e6c5df10e3bb6024d5359382eeac52707"),
    ("homs", "chain2.doc", 2): (0, "d806c1a2675a818cde616f400c692c7e6c5df10e3bb6024d5359382eeac52707"),
    ("homs", "chain3-lvl.doc", None): (0, "fd8a7a9e01b1250e786877e7d77e5c65b54290c58560390a281dec7e29e63820"),
    ("homs", "chain3-lvl.doc", 2): (0, "fd8a7a9e01b1250e786877e7d77e5c65b54290c58560390a281dec7e29e63820"),
    ("homs", "chain3.doc", None): (0, "863ba5f80437e994a4bd875b3ae3f8c1f9af3f6d51432f70074274a212486a8b"),
    ("homs", "chain3.doc", 2): (0, "863ba5f80437e994a4bd875b3ae3f8c1f9af3f6d51432f70074274a212486a8b"),
    ("homs", "pbs-chain2.doc", None): (0, "61c21cff4d0c0e21293d26136d60a3f5f5a97cd0f172e90b03fe2635293475c5"),
    ("homs", "pbs-chain2.doc", 2): (0, "61c21cff4d0c0e21293d26136d60a3f5f5a97cd0f172e90b03fe2635293475c5"),
    ("homs", "power22.doc", None): (0, "080535de71b86569ea4d779ea27799f5237fbba076e3dea12d2dc7b8918b966e"),
    ("homs", "power22.doc", 2): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("homs", "upsets22.doc", None): (0, "0877f8d24c70013987d2739d7a516cfbcb2f56284222502671a415cd520539f7"),
    ("homs", "upsets22.doc", 2): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("subalgebras", "b2.doc", None): (0, "cc7521167a78d52c3a884ff47a3577ac3814fe2996ceaa64216723f1fa023acd"),
    ("subalgebras", "b2.doc", 2): (0, "cc7521167a78d52c3a884ff47a3577ac3814fe2996ceaa64216723f1fa023acd"),
    ("subalgebras", "chain2.doc", None): (0, "90a66e469d8a7e3015cde0cf3081c213e1ad2d16b8b089b8ee4037d4d2263f2d"),
    ("subalgebras", "chain2.doc", 2): (0, "90a66e469d8a7e3015cde0cf3081c213e1ad2d16b8b089b8ee4037d4d2263f2d"),
    ("subalgebras", "chain3-lvl.doc", None): (0, "3165e273d1df1a066fa6afb68baa89a11be80cf38d14f0c1ac92cefca8c0d453"),
    ("subalgebras", "chain3-lvl.doc", 2): (0, "3165e273d1df1a066fa6afb68baa89a11be80cf38d14f0c1ac92cefca8c0d453"),
    ("subalgebras", "chain3.doc", None): (0, "ebc810d5ceed6949e2e43e38aad5df2191d14cd8506aaa7779d9730fd19ddeac"),
    ("subalgebras", "chain3.doc", 2): (0, "ebc810d5ceed6949e2e43e38aad5df2191d14cd8506aaa7779d9730fd19ddeac"),
    ("subalgebras", "pbs-chain2.doc", None): (0, "832de419c023af900f59155e7d98b920de41d64673b6833548951fbe4d16ea10"),
    ("subalgebras", "pbs-chain2.doc", 2): (0, "832de419c023af900f59155e7d98b920de41d64673b6833548951fbe4d16ea10"),
    ("subalgebras", "power22.doc", None): (0, "144caf4a927cce61954a0855661d8b8cb553df0de8d17c4c9c160a7e4c268ae2"),
    ("subalgebras", "power22.doc", 2): (0, "144caf4a927cce61954a0855661d8b8cb553df0de8d17c4c9c160a7e4c268ae2"),
    ("subalgebras", "upsets22.doc", None): (0, "2300f635a300f278ad4b99ed359b46ce631ea8aebf90d0a93197bb84d63d8e5e"),
    ("subalgebras", "upsets22.doc", 2): (0, "2300f635a300f278ad4b99ed359b46ce631ea8aebf90d0a93197bb84d63d8e5e"),
}


def test_algebra_side_machine_reports_are_pinned(monkeypatch, capsys):
    monkeypatch.chdir(os.path.join(DOCS, os.pardir))
    for (command, name, budget), pin in ALGEBRA_SIDE_PINS.items():
        args = [command, f"sample_docs/{name}", "--format", "machine"]
        if budget is not None:
            args += ["--budget", str(budget)]
        code, out, _ = run_cli(args, capsys)
        assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == pin, args


# sha256 of the --format machine stdout, with the exit code, of
# check-lattice on every sample document and on four inline lattice
# documents that break one law each, pinned from the build that found each
# meet and join by scanning the common bounds (kept as
# tests/lattice_oracle.py)
CHECK_LATTICE_SAMPLE_PINS = {
    "b2.doc": (0, "1a0f760ba1b44d2ce68a92f1e8ce7f603eca7954c219cc4340bc726fa070da44"),
    "chain2.doc": (0, "876ed397dbb18b9a2069f5a632dcbc9d6fa4d011a7959374d5ec65b80bc21ed4"),
    "chain3-lvl.doc": (0, "1084a9110d636f80f362d3b9b114de01e0188db4bc9dc6abafd57d089dcc2d98"),
    "chain3.doc": (0, "f7ac175629e22b882a2df054517e2f3c709f8cd7f4792141a3284ba3e1214077"),
    "pbs-chain2.doc": (0, "3226f1e109832360717425f1b2122b7886ecd0b88ee0b6d870cd6512d6852b7d"),
    "pentagon.doc": (1, "f59e77101a33b2b4c7c7440af5e8a48fada27546e2b2e2b55d37a94cb8d29869"),
    "power22.doc": (0, "d4fe86ef082dc2830f5a3c34c84471c8fc36a521b50ab0c0e739348ddda32d92"),
    "pspa-chain2.doc": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "upsets22.doc": (0, "a74d9825899035de186a8cf4cf19ec2070073689ae7b0b082d45d59ece2f0682"),
}

CHECK_LATTICE_INLINE_DOCS = {
    "m3.doc": (
        "kind: lattice\nname: m3\nelements: 0 a b c 1\n"
        "leq: 0<=a 0<=b 0<=c a<=1 b<=1 c<=1\nbottom: 0\ntop: 1\n",
        (1, "badc32d9b274cb7e690d8d621ef17c3a5dc35fd0a8ad0b5a769a48bda9a671cf"),
    ),
    "nojoin.doc": (
        "kind: lattice\nname: nojoin\nelements: 0 a b c d 1\n"
        "leq: 0<=a 0<=b a<=c a<=d b<=c b<=d c<=1 d<=1\nbottom: 0\ntop: 1\n",
        (1, "b2176f21cb4889c3dcb1ecfb869ecc16a030c802571af7869c21271d7409308a"),
    ),
    "badbounds.doc": (
        "kind: lattice\nname: badbounds\nelements: 0 a 1\nleq: 0<=a a<=1\n"
        "bottom: a\ntop: 1\n",
        (1, "44dae940db20eb49d75c22a21420edb97d17c3daedde301c25d036103e388547"),
    ),
    "cycle.doc": (
        "kind: lattice\nname: cycle\nelements: 0 a b 1\n"
        "leq: 0<=a a<=b b<=a b<=1\nbottom: 0\ntop: 1\n",
        (1, "df7ef286302a4c62ec493056018bf76ce12dfc25bb109638d716dc71f0c445b3"),
    ),
}


def test_check_lattice_machine_reports_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(os.path.join(DOCS, os.pardir))
    for name, pin in CHECK_LATTICE_SAMPLE_PINS.items():
        args = ["check-lattice", f"sample_docs/{name}", "--format", "machine"]
        code, out, _ = run_cli(args, capsys)
        assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == pin, args
    # the report names its input path, so the inline documents are read
    # from the working directory under a fixed name
    monkeypatch.chdir(tmp_path)
    for name, (text, pin) in CHECK_LATTICE_INLINE_DOCS.items():
        (tmp_path / name).write_text(text)
        code, out, _ = run_cli(["check-lattice", name, "--format", "machine"], capsys)
        assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == pin, name


# sha256 of the --format machine stdout, with the exit code, of reconstruct
# in every mode on both sample space documents, with the default truth
# lattice and with --truth chain3.doc (None is the default); exit 2 pins
# the refusal of a space of the wrong kind, before the mode registry
RECONSTRUCT_PINS = {
("pbs", "pbs-chain2.doc", None): (0, "b42dde5ac7b9388c22a226e874bc8f80ac777c15e233ab33c2da0d5334b809ad"),
    ("pbs", "pbs-chain2.doc", "chain3.doc"): (0, "b42dde5ac7b9388c22a226e874bc8f80ac777c15e233ab33c2da0d5334b809ad"),
    ("pbs", "pspa-chain2.doc", None): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("pbs", "pspa-chain2.doc", "chain3.doc"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("pspa", "pbs-chain2.doc", None): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("pspa", "pbs-chain2.doc", "chain3.doc"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("pspa", "pspa-chain2.doc", None): (0, "fc9fb5a3cecbda8e2f9791c4c81b736be08cef97923a472e7a675dd80e0d626b"),
    ("pspa", "pspa-chain2.doc", "chain3.doc"): (0, "acc665d90dc9555eab8df1ca0c7971da6314a21a369b819d30b6d9f52a36bdc2"),
    ("hspa", "pbs-chain2.doc", None): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hspa", "pbs-chain2.doc", "chain3.doc"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hspa", "pspa-chain2.doc", None): (0, "e0b991be49f065f9ef701985bd806f2f337ad8e6ca6e5ce27a3e8ac1f3bfb203"),
    ("hspa", "pspa-chain2.doc", "chain3.doc"): (0, "513f005824a746d72d2240d04ddbcbd049e97f52d5877ba29758b864417b2028"),
}


def test_reconstruct_machine_reports_are_pinned(monkeypatch, capsys):
    monkeypatch.chdir(os.path.join(DOCS, os.pardir))
    for (mode, name, truth), pin in RECONSTRUCT_PINS.items():
        args = ["reconstruct", f"sample_docs/{name}", "--mode", mode, "--format", "machine"]
        if truth is not None:
            args += ["--truth", f"sample_docs/{truth}"]
        code, out, _ = run_cli(args, capsys)
        assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == pin, args


# sha256 of the --format machine stdout, with the exit code, of spectrum on
# every sample lattice or algebra document, over the two-chain and over
# --truth chain3.doc (None is the default), before prime ideals were cached
# per lattice
SPECTRUM_PINS = {
("b2.doc", None): (0, "5f7c8686f9e66055b42d5a6bf5ca1e6d8184cc545f37bba7d7bc7fad46067d06"),
    ("b2.doc", "chain3.doc"): (1, "f5724854983163a9ed1dacf5a8249f3ee328df16c9d6f0d4e3b663f54bfeb116"),
    ("chain2.doc", None): (0, "405c5732a26c7b71be8b2d6607f717b667e429a4efe54f6cd15c0d623761ec01"),
    ("chain2.doc", "chain3.doc"): (1, "a144a53c551f2a55e2f7ab5656c8b35c3013e827d3537b66f09870cc12a8122c"),
    ("chain3-lvl.doc", None): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("chain3-lvl.doc", "chain3.doc"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("chain3.doc", None): (0, "9df69c1fc31ebebd011d657282a4894203a67e05a3c3d27b86954f482d8f1022"),
    ("chain3.doc", "chain3.doc"): (1, "88429182e04f6d1ad29e78190882e3e2e260525938ec2810cfe8141c662e5bd4"),
    ("pbs-chain2.doc", None): (0, "be0111b43d15c56ace4e7bc49557795b59fdca1515d637391a1ebe728d4c7c87"),
    ("pbs-chain2.doc", "chain3.doc"): (1, "8374e1dc7787a4569bdb01e9007aecff7d8c60f20600040c47852619a5d93f99"),
    ("pentagon.doc", None): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("pentagon.doc", "chain3.doc"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("power22.doc", None): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("power22.doc", "chain3.doc"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("upsets22.doc", None): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("upsets22.doc", "chain3.doc"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def test_spectrum_machine_reports_are_pinned(monkeypatch, capsys):
    monkeypatch.chdir(os.path.join(DOCS, os.pardir))
    for (name, truth), pin in SPECTRUM_PINS.items():
        args = ["spectrum", f"sample_docs/{name}", "--format", "machine"]
        if truth is not None:
            args += ["--truth", f"sample_docs/{truth}"]
        code, out, _ = run_cli(args, capsys)
        assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == pin, args


def test_twenty_point_dual_verifies(tmp_path, capsys):
    # the 21-element chain has a 20-point dual with 2**20 open sets
    names = [f"c{i}" for i in range(21)]
    path = tmp_path / "chain21.doc"
    path.write_text(
        "kind: lattice\nname: chain21\n"
        f"elements: {' '.join(names)}\n"
        f"leq: {' '.join(f'{a}<={b}' for a, b in zip(names, names[1:]))}\n"
        "bottom: c0\ntop: c20\n"
    )
    for mode in ("pspa", "hspa"):
        for command in ("dualize", "roundtrip"):
            args = [command, str(path), "--mode", mode, "--format", "machine"]
            code, out, _ = run_cli(args, capsys)
            report = json.loads(out)
            assert code == 0 and report["verdicts"], args
            assert all(report["verdicts"].values()), args
            details = report["details"]
            if command == "dualize":
                assert len(details["points"]) == 20
                assert details["opens"] == 2**20
            else:
                assert details["space_points"] == details["space_double_dual_points"] == 20


def test_spectrum_of_an_eighteen_element_chain(tmp_path, capsys):
    # every element above the bottom of a chain is join-prime: one prime
    # filter, and one hom into the two-chain, each
    names = [f"c{i}" for i in range(18)]
    path = tmp_path / "chain18.doc"
    path.write_text(
        "kind: lattice\nname: chain18\n"
        f"elements: {' '.join(names)}\n"
        f"leq: {' '.join(f'{a}<={b}' for a, b in zip(names, names[1:]))}\n"
        "bottom: c0\ntop: c17\n"
    )
    code, out, _ = run_cli(["spectrum", str(path), "--format", "machine"], capsys)
    report = json.loads(out)
    assert code == 0 and report["passed"]
    assert report["details"] == {"homs": 17, "prime_filters": 17}


def test_bad_generator_values_exit_two_with_a_line(tmp_path, capsys):
    text = (
        "kind: algebra\nname: p\nsignature: isp_i\ntruth_lattice: chain2\n"
        "presentation: power\nframe: w2\ngenerators: {gens}\n"
        "---\nkind: frame\nname: w2\nworlds: w0 w1\norder: w0<=w1\n"
        "---\nkind: lattice\nname: chain2\nelements: 0 1\nleq: 0<=1\n"
        "bottom: 0\ntop: 1\n"
    )
    for gens, message in (
        ("()", "generator () has 0 entries for 2 worlds (line 7)"),
        ("(0,2)", "algebra 'p': '2' in 'generators' is not an element of chain2 (line 7)"),
    ):
        path = tmp_path / "p.doc"
        path.write_text(text.format(gens=gens))
        for command in ("generate", "kripke-check"):
            code, out, err = run_cli([command, str(path)], capsys)
            assert (code, out, err) == (2, "", f"error: {message}\n"), (command, gens)


def test_undeclared_or_unknown_elements_exit_two_with_a_line(tmp_path, capsys):
    chain2 = "kind: lattice\nname: chain2\nelements: 0 1\nleq: 0<=1\nbottom: 0\ntop: 1\n"
    algebra = (
        "kind: algebra\nname: h2\nsignature: {sig}\ntruth_lattice: chain2\n"
        "elements: 0 1\nleq: 0<=1\nbottom: 0\ntop: 1\n{op}\n---\n" + chain2
    )
    cases = (
        (
            "check-lattice",
            "kind: lattice\nname: l\nelements: 0 1\nleq: 0<=q\nbottom: 0\ntop: 1\n",
            "lattice 'l': 'q' in 'leq' is not declared in 'elements' (line 4)",
        ),
        (
            "check-lattice",
            "kind: lattice\nname: l\nelements: 0 1 1\nleq: 0<=1\nbottom: 0\ntop: 1\n",
            "lattice 'l': '1' is declared twice in 'elements' (line 3)",
        ),
        (
            "homs",
            algebra.format(sig="heyting", op="op.implies: 1 1 / zz 1"),
            "algebra 'h2': 'zz' in 'op.implies' is not an element of h2 (line 9)",
        ),
        (
            "homs",
            algebra.format(sig="lvl", op="op.t[1]: 0 qq"),
            "algebra 'h2': 'qq' in 'op.t[1]' is not an element of h2 (line 9)",
        ),
    )
    for command, text, message in cases:
        path = tmp_path / "bad.doc"
        path.write_text(text)
        code, out, err = run_cli([command, str(path)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n"), command


def test_operator_fields_the_signature_lacks_exit_two_with_a_line(tmp_path, capsys):
    chain2 = "kind: lattice\nname: chain2\nelements: 0 1\nleq: 0<=1\nbottom: 0\ntop: 1\n"
    frame = "kind: frame\nname: w2\nworlds: a b\norder: a<=b\n"
    cases = (
        (
            "homs",
            "kind: algebra\nname: a\nsignature: bdl\ntruth_lattice: chain2\n"
            "elements: 0 1\nleq: 0<=1\nbottom: 0\ntop: 1\n"
            "op.t[zz]: 1 1 1\nop.implies: 1 1 / 0 1\n---\n" + chain2,
            "algebra 'a': signature bdl has no implication, so 'op.implies' is "
            "not allowed (line 10)",
        ),
        (
            "power",
            "kind: algebra\nname: p\nsignature: isp_i\ntruth_lattice: chain2\n"
            "presentation: power\nframe: w2\nop.t[1]: 0 1\n---\n" + chain2 + "---\n" + frame,
            "algebra 'p': a power presentation takes no operator tables, so "
            "'op.t[1]' is not allowed (line 7)",
        ),
    )
    for command, text, message in cases:
        path = tmp_path / "ops.doc"
        path.write_text(text)
        code, out, err = run_cli([command, str(path)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n"), command


def test_an_alpha_entry_named_twice_exits_two_with_a_line(tmp_path, capsys):
    # the assignment is indexed by subalgebra, so no entry may be dropped
    # for another
    with open(doc("pbs-chain2.doc"), encoding="utf-8") as fh:
        text = fh.read()
    assert "alpha: {0,1}:{z,u}\n" in text
    path = tmp_path / "twice.doc"
    path.write_text(text.replace("alpha: {0,1}:{z,u}", "alpha: {0,1}:{z,u} {0,1}:{z}"))
    message = "space 'pbs-chain2': subalgebra {0,1} is assigned twice in 'alpha' (line 8)"
    for command in ("verify-space", "reconstruct"):
        code, out, err = run_cli([command, str(path), "--mode", "pbs"], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n"), command


def without_wall_seconds(text):
    """Text output with the one figure that differs from run to run."""
    return re.sub(r"'wall_seconds': [0-9.]+", "", text)


def test_commands_back_to_back_print_what_they_print_alone(capsys):
    # the parser is built once per process; no option of one command may
    # leak into the next
    commands = [
        ["axioms", doc("chain3-lvl.doc"), "--literal-iv"],
        ["subalgebras", doc("chain3.doc"), "--signature", "bdl", "--format", "machine"],
        ["axioms", doc("chain3-lvl.doc")],
        ["roundtrip", doc("chain3.doc"), "--mode", "pspa", "--timings"],
    ]
    alone = []
    for args in commands:
        cli._build_parser.cache_clear()
        alone.append(run_cli(args, capsys))
    together = [run_cli(args, capsys) for args in commands]
    assert cli._build_parser.cache_info().misses == 1
    for (code, out, err), (code2, out2, err2) in zip(alone, together):
        assert (code, err) == (code2, err2)
        assert without_wall_seconds(out) == without_wall_seconds(out2)
    assert [code for code, _, _ in together] == [1, 0, 0, 0]


def _loaded_by(statement):
    """The modules loaded after ``statement`` runs in a fresh interpreter
    without the site hooks, which may import modules of their own."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys\n{statement}\nprint(*sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return set(out.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_the_corpus():
    loaded = _loaded_by("import dualbench.cli")
    assert "dualbench.cli" in loaded and "dualbench.duality" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "dualbench.corpus"})


def test_corpus_import_loads_neither_the_cli_nor_documents():
    loaded = _loaded_by("import dualbench.corpus")
    assert "dualbench.corpus" in loaded
    assert loaded.isdisjoint({"dualbench.cli", "dualbench.documents"})
