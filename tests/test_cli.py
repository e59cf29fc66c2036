import json

import pytest

from nctorus.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out) if out.strip() else None, err


# ------------------------------------------------------------------------ eval


def test_eval_identity(capsys):
    code, rec, _ = run_json(capsys, "eval", "--theta", "golden", "--expr", "1")
    assert code == 0
    assert rec["t4"] == ["(1)", "(1)", "0", "(1)", "0", "0"]
    assert rec["t2"] == ["(1)", "(1)", "0", "0", "0"]
    assert rec["t4_numeric"][0] == [1.0, 0.0]


def test_eval_grammar(capsys):
    code, rec, _ = run_json(capsys, "eval", "--expr", "L^4 U^2 V^-1 + 1/2")
    assert code == 0
    assert "U^2" in rec["expr"]


def test_eval_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--expr", "U ^^ oops")
    assert code == 2
    assert "error" in err


# ------------------------------------------------------------------- decompose


def test_decompose_identity_vector(capsys):
    code, rec, _ = run_json(capsys, "decompose", "--vector", "(1;1,0;1,0,0)")
    assert code == 0
    assert rec["coordinates"] == [0, 0, 1, 0, 0, 0, 0, 0, 0]


def test_decompose_non_lattice(capsys):
    code, rec, _ = run_json(capsys, "decompose", "--vector", "(1;0,0;0,0,0)")
    assert code == 0
    assert rec["status"] == "non-integer" and rec["coordinates"] is None


# ------------------------------------------------------------------------ cone


def test_cone_member(capsys):
    code, rec, _ = run_json(capsys, "cone", "--theta", "golden", "--vector", "(2t;0,0;1,1,2)")
    assert code == 0
    assert rec["member"] is True
    assert rec["genus"] == ["1", "1", "2"]
    assert rec["recipe"]["generators"][0]["genus"] == [1, 1, 2]


def test_cone_rejection_reason(capsys):
    code, rec, _ = run_json(capsys, "cone", "--vector", "(1;1,0;1,0,0)")
    assert code == 0
    assert rec["member"] is False and rec["reason"] == "psi10-nonzero"


# ------------------------------------------------------------ realize / verify


def test_realize_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "realize", "--kind", "flat", "--trace", "8t-4", "--theta", "golden",
        "-o", str(path),
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["kind"] == "flat"
    assert payload["certificate"]["a"] == 1 and payload["certificate"]["b"] == 1
    code, rec, _ = run_json(capsys, "verify", str(path))
    assert code == 0 and rec["ok"] is True


def test_realize_stdout_when_no_output(capsys):
    code, out, _ = run(capsys, "realize", "--kind", "cyclic", "--trace", "2t-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["node"] == "cyclic"


def test_realize_domain_rejection(capsys):
    code, _, err = run(capsys, "realize", "--kind", "flat", "--trace", "2t-1")
    assert code == 2 and "wrong-subgroup" in err


def test_verify_detects_tampering(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run(capsys, "realize", "--kind", "flat", "--trace", "8t-4", "-o", str(path))
    payload = json.loads(path.read_text())
    payload["certificate"]["a"] += 1
    path.write_text(json.dumps(payload))
    code, rec, _ = run_json(capsys, "verify", str(path))
    assert code == 2 and rec["ok"] is False


def test_verify_rejects_non_integer_field(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run(capsys, "realize", "--kind", "flat", "--trace", "8t-4", "-o", str(path))
    payload = json.loads(path.read_text())
    payload["certificate"]["a"] += 0.9
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "expected an integer" in err


def test_verify_rejects_child_of_wrong_node_type(tmp_path, capsys):
    flat, semiflat = tmp_path / "flat.json", tmp_path / "semiflat.json"
    run(capsys, "realize", "--kind", "flat", "--trace", "8t-4", "-o", str(flat))
    run(capsys, "realize", "--kind", "semiflat", "--trace", "4t-2", "-o", str(semiflat))
    payload = json.loads(semiflat.read_text())
    payload["certificate"]["inner"] = json.loads(flat.read_text())["certificate"]
    semiflat.write_text(json.dumps(payload))
    code, rec, _ = run_json(capsys, "verify", str(semiflat))
    assert code == 2 and rec["ok"] is False


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/cert.json")
    assert code == 2


# -------------------------------------------------------------------- pr-build


def test_pr_build_flip(capsys):
    code, rec, _ = run_json(
        capsys, "pr-build", "--theta", "golden", "-r", "6", "-s", "-3", "--flip"
    )
    assert code == 0
    assert rec["residuals"]["square"] <= 1e-8
    assert rec["invariants"]["phi_rounded"] == ["0", "1", "0", "0"]
    assert rec["invariants"]["tau"] == pytest.approx(6 * 0.6180339887 - 3, abs=1e-8)


def test_pr_build_domain_rejection(capsys):
    code, _, err = run(capsys, "pr-build", "--theta", "sqrt2", "-r", "1", "-s", "0", "--flip")
    assert code == 2 and "alpha-out-of-range" in err


def test_pr_build_save_element(tmp_path, capsys):
    path = tmp_path / "element.json"
    code, rec, _ = run_json(
        capsys, "pr-build", "-r", "1", "-s", "0", "--grid", "1024", "--save-element", str(path)
    )
    assert code == 0
    from nctorus.loops import LoopElement

    e = LoopElement.from_json(json.loads(path.read_text()))
    assert e.n >= 1024 and set(e.coeffs) == {-1, 0, 1}


# -------------------------------------------------------------------- selftest


def test_selftest_passes(capsys):
    code, rec, _ = run_json(capsys, "selftest")
    assert code == 0
    assert rec["ok"] is True and all(rec["suites"].values())


# ------------------------------------------------------------------- theta spec


def test_theta_cf_spec(capsys):
    code, rec, _ = run_json(capsys, "eval", "--theta", "cf:2,2,2,2,2,2,2,2,2,2", "--expr", "U V")
    assert code == 0


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cone", "--vector", "(1;1,0;1,0,0)", "--frobnicate"])
    assert exc.value.code == 2
