import json
import re
from pathlib import Path

import numpy as np
import pytest

from opeq import cli
from opeq.cli import main
from opeq.conditions import majorization_lambda
from opeq.matio import load_matrix, save_matrix


@pytest.fixture
def mats(tmp_path):
    paths = {}

    def put(name, m):
        p = tmp_path / f"{name}.json"
        save_matrix(str(p), np.asarray(m, dtype=complex))
        paths[name] = str(p)
        return paths[name]

    put("eye2", np.eye(2))
    put("diag41", np.diag([4.0, 1.0]))
    put("e1", np.diag([1.0, 0.0]))
    put("e2", np.diag([0.0, 1.0]))
    put("a_cong", np.diag([2.0, 0.0]))
    put("c_cong", np.diag([8.0, 0.0]))
    put("c_indef", np.diag([1.0, -1.0]))
    put("a_nd", [[2.0, 1.0], [1.0, 2.0]])
    put("b_nd", [[3.0, 1.0], [1.0, 2.0]])
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    paths["bad"] = str(bad)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_solve_pt_frozen(capsys, mats, tmp_path):
    out = tmp_path / "x.json"
    code, doc = run(
        capsys, "solve", "pt", "--H", mats["eye2"], "--K", mats["diag41"], "--out", str(out)
    )
    assert code == 0
    assert doc["outcome"] == "solved"
    sol = np.array(doc["solution"]["data"]).reshape(2, 2, 2)
    assert sol[0, 0, 0] == pytest.approx(2.0) and sol[1, 1, 0] == pytest.approx(1.0)
    written = json.loads(out.read_text())
    assert written["rows"] == 2


def test_solve_report_data_is_one_line_and_out_reads_back(capsys, mats, tmp_path):
    out = tmp_path / "x.json"
    code = main(["solve", "riccati", "--A", mats["a_nd"], "--B", mats["b_nd"], "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    doc = json.loads(text)
    data = doc["solution"]["data"]
    assert '    "data": ' + json.dumps(data) in text.splitlines()
    x, _ = load_matrix(str(out))
    assert x.tobytes() == np.array(data, dtype=np.float64).tobytes()
    assert out.read_text().count("\n") == 1


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_out_to_an_unwritable_path_exit_2(capsys, mats, tmp_path):
    path = str(tmp_path / "no" / "such" / "x.json")
    code, doc = run(
        capsys, "solve", "pt", "--H", mats["eye2"], "--K", mats["diag41"], "--out", path
    )
    assert code == 2
    assert doc["outcome"] == "error"
    assert doc["detail"]["message"].startswith(f"{path}: ")


def test_solve_douglas_unsolvable_exit_1(capsys, mats):
    code, doc = run(capsys, "solve", "douglas", "--A", mats["e1"], "--B", mats["e2"])
    assert code == 1
    assert doc["outcome"] == "unsolvable"
    assert doc["solution"] is None
    assert doc["conditions"][0]["holds"] is False


def test_solve_congruence_solved(capsys, mats):
    code, doc = run(capsys, "solve", "congruence", "--A", mats["a_cong"], "--C", mats["c_cong"])
    assert code == 0
    assert doc["residuals"]["solve"] <= 1e-10


def test_solve_congruence_indefinite_rhs_is_input_error(capsys, mats):
    # a non-psd right-hand side that is still hermitian: flagged unsolvable
    code, doc = run(capsys, "solve", "congruence", "--A", mats["eye2"], "--C", mats["c_indef"])
    assert code == 1
    names = [c["name"] for c in doc["conditions"]]
    assert any("PSD" in n for n in names)


def test_solve_riccati(capsys, mats):
    code, doc = run(capsys, "solve", "riccati", "--A", mats["eye2"], "--B", mats["diag41"])
    assert code == 0
    sol = np.array(doc["solution"]["data"]).reshape(2, 2, 2)
    assert sol[0, 0, 0] == pytest.approx(2.0)


def test_solve_axb(capsys, mats):
    code, doc = run(
        capsys, "solve", "axb", "--A", mats["eye2"], "--B", mats["eye2"], "--C", mats["diag41"]
    )
    assert code == 0
    sol = np.array(doc["solution"]["data"]).reshape(2, 2, 2)
    assert sol[0, 0, 0] == pytest.approx(4.0)


@pytest.mark.parametrize(
    "family, solver, operands",
    [
        ("congruence", "congruence_solve", {"--A": "a_cong", "--C": "c_cong"}),
        ("douglas", "douglas_reduced_solve", {"--A": "e1", "--B": "e2"}),
        ("axb", "axb_reduced_solve", {"--A": "eye2", "--B": "eye2", "--C": "diag41"}),
        ("pt", "pt_solve", {"--H": "eye2", "--K": "diag41"}),
        ("riccati", "riccati_geomean", {"--A": "a_nd", "--B": "b_nd"}),
    ],
)
def test_solve_calls_the_solver_bound_in_cli(capsys, mats, monkeypatch, family, solver, operands):
    # tracers and tests rebind module names; the CLI must call through them
    original = getattr(cli, solver)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, solver, counting)
    argv = ["solve", family]
    for flag, name in operands.items():
        argv += [flag, mats[name]]
    code, _ = run(capsys, *argv)
    assert code in (0, 1)
    assert len(calls) == 1


def test_malformed_matrix_exit_2(capsys, mats):
    code, doc = run(capsys, "solve", "douglas", "--A", mats["bad"], "--B", mats["e2"])
    assert code == 2
    assert doc["outcome"] == "error"
    assert "bad.json" in doc["detail"]["message"]


def test_missing_matrix_file_exit_2(capsys, mats, tmp_path):
    path = str(tmp_path / "absent.json")
    code, doc = run(capsys, "solve", "douglas", "--A", path, "--B", mats["e2"])
    assert code == 2
    assert doc["outcome"] == "error"
    assert doc["detail"]["message"].startswith(f"{path}: ")


def test_non_utf8_matrix_file_exit_2(capsys, mats, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe\xe9")
    code, doc = run(capsys, "solve", "pt", "--H", str(path), "--K", mats["eye2"])
    assert code == 2
    assert doc["outcome"] == "error"
    assert doc["detail"]["message"].startswith(f"{path}: not UTF-8 text")


def test_missing_flag_exit_2(capsys, mats):
    code, doc = run(capsys, "solve", "pt", "--H", mats["eye2"])
    assert code == 2
    assert "--K" in doc["detail"]["message"]


def test_check_range(capsys, mats):
    code, doc = run(capsys, "check", "range", "--A", mats["e1"], "--B", mats["e1"])
    assert code == 0
    code, doc = run(capsys, "check", "range", "--A", mats["e1"], "--B", mats["e2"])
    assert code == 1


def test_check_douglas_lambda_absent(capsys, mats):
    code, doc = run(capsys, "check", "douglas", "--A", mats["e1"], "--B", mats["e2"])
    assert code == 1
    assert doc["detail"]["lambda"] is None
    assert doc["residuals"]["least_squares"] == pytest.approx(0.5)


def test_check_douglas_lambda_present(capsys, mats):
    code, doc = run(capsys, "check", "douglas", "--A", mats["eye2"], "--B", mats["diag41"])
    assert code == 0
    assert doc["detail"]["lambda"] == pytest.approx(16.0, rel=1e-8)


def test_check_douglas_lambda_of_a_loose_inclusion(capsys, tmp_path):
    # at tol 0.9 the projector residual 0.5 of B = [1; 0.5] passes as an
    # inclusion into range(diag(1, 0)); check douglas follows that verdict,
    # and lambda = ||A^+ B||^2 = ||A^+ B_hat||^2 = 1 is exact for the admitted
    # part B_hat = U_r U_r* B = [1; 0], as A^+ annihilates the leak
    a = np.diag([1.0, 0.0])
    b = np.array([[1.0], [0.5]])
    b_hat = np.array([[1.0], [0.0]])
    assert majorization_lambda(b, a, tol=0.9) == 1.0
    assert majorization_lambda(b_hat, a) == 1.0
    paths = {}
    for name, m in (("A", a), ("B", b)):
        paths[name] = str(tmp_path / f"{name}.json")
        save_matrix(paths[name], m.astype(complex))
    code, doc = run(capsys, "check", "douglas", "--A", paths["A"], "--B", paths["B"], "--tol", "0.9")
    assert code == 0
    assert doc["outcome"] == "solved"
    cond = doc["conditions"][0]
    assert cond["holds"] is True
    assert cond["witness"] == pytest.approx(0.5, rel=1e-12)
    assert cond["bound"] == pytest.approx(0.9 * np.sqrt(1.25), rel=1e-12)
    assert doc["detail"]["lambda"] == 1.0


@pytest.mark.parametrize("tol", [None, "1e-6", "1e-3", "0.9"])
def test_check_douglas_verdict_is_check_range_verdict(capsys, tmp_path, tol):
    # B = A C plus a leak orthogonal to range(A) of the given size relative
    # to ||A C||_F: check douglas has check range's exit code and outcome at
    # every tol, and its lambda is None exactly when that exit code is 1
    rng = np.random.default_rng(36)
    left = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    a = left @ (rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6)))
    solvable_part = a @ (rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))
    q = np.linalg.qr(left, mode="complete")[0][:, 4:]
    w = q @ (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)))
    w *= np.linalg.norm(solvable_part) / np.linalg.norm(w)
    a_path = str(tmp_path / "A.json")
    save_matrix(a_path, a)
    tol_args = [] if tol is None else ["--tol", tol]
    for leak in (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.5):
        b_path = str(tmp_path / f"B-{leak}.json")
        save_matrix(b_path, solvable_part + leak * w)
        operands = ["--A", a_path, "--B", b_path, *tol_args]
        code_range, doc_range = run(capsys, "check", "range", *operands)
        code, doc = run(capsys, "check", "douglas", *operands)
        assert code in (0, 1)
        assert (code, doc["outcome"]) == (code_range, doc_range["outcome"]), leak
        assert (doc["detail"]["lambda"] is None) == (code == 1), leak


def test_check_pt_conditions(capsys, mats):
    code, doc = run(capsys, "check", "pt-conditions", "--H", mats["eye2"], "--K", mats["diag41"])
    assert code == 0
    assert [c["name"] for c in doc["conditions"]] == ["ii-a", "ii-b", "iii", "iv"]


def test_check_pt_conditions_non_psd_exit_2(capsys, mats):
    code, doc = run(capsys, "check", "pt-conditions", "--H", mats["c_indef"], "--K", mats["eye2"])
    assert code == 2


def test_demo_commands(capsys):
    for which in ("ex1", "ex2", "l2"):
        code, doc = run(capsys, "demo", which, "--grid", "256")
        assert code == 0
        assert doc["outcome"] == "solved"
        assert doc["detail"]["grid_n"] == 256


def test_demo_bad_grid_exit_2(capsys):
    code, doc = run(capsys, "demo", "ex1", "--grid", "100")
    assert code == 2


@pytest.mark.parametrize("which", ["ex1", "ex2", "l2"])
def test_demo_grid_past_the_address_space_exit_2(capsys, which):
    # 2^50 nodes need 8 PiB per real array, so the first grid allocation
    # fails at once; ex2 makes it before its block loop. json.loads
    # refuses trailing text, so stdout is one report
    code, doc = run(capsys, "demo", which, "--grid", str(2**50))
    assert code == 2
    assert (doc["command"], doc["outcome"]) == ("demo", "error")
    assert doc["detail"]["message"].startswith("Unable to allocate")


def test_sweep_small_and_deterministic(capsys):
    code1 = main(["sweep", "--seed", "42", "--trials", "1", "--max-dim", "2"])
    out1 = capsys.readouterr().out
    code2 = main(["sweep", "--seed", "42", "--trials", "1", "--max-dim", "2"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["detail"]["all_pass"] is True
    assert doc["seed"] == 42


def test_sweep_different_seed_differs(capsys):
    main(["sweep", "--seed", "1", "--trials", "1", "--max-dim", "2"])
    out1 = capsys.readouterr().out
    main(["sweep", "--seed", "2", "--trials", "1", "--max-dim", "2"])
    out2 = capsys.readouterr().out
    assert out1 != out2


def test_sweep_invalid_params_exit_2(capsys):
    assert main(["sweep", "--seed", "1", "--trials", "0", "--max-dim", "4"]) == 2
    capsys.readouterr()
    assert main(["sweep", "--seed", "1", "--trials", "1", "--max-dim", "17"]) == 2
    capsys.readouterr()


def test_env_tolerance_respected(capsys, mats, monkeypatch):
    # an absurdly tight tolerance flips a clean solve into a condition failure
    monkeypatch.setenv("OPEQ_TOL", "1e-300")
    code, doc = run(capsys, "solve", "pt", "--H", mats["eye2"], "--K", mats["diag41"])
    assert code == 0  # residual is exactly zero for this pair
    code, doc = run(capsys, "solve", "riccati", "--A", mats["a_nd"], "--B", mats["b_nd"])
    assert code == 1  # rounding noise now exceeds the tolerance


def test_cli_tol_beats_env(capsys, mats, monkeypatch):
    monkeypatch.setenv("OPEQ_TOL", "1e-300")
    code, doc = run(
        capsys, "solve", "riccati", "--A", mats["a_nd"], "--B", mats["b_nd"], "--tol", "1e-8"
    )
    assert code == 0


def test_env_tolerance_invalid_exit_2(capsys, mats, monkeypatch):
    monkeypatch.setenv("OPEQ_TOL", "a lot")
    code, doc = run(capsys, "solve", "pt", "--H", mats["eye2"], "--K", mats["diag41"])
    assert code == 2


def test_usage_on_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_reports_schema_consistent(capsys, mats):
    # outcome/solution coherence on every command path exercised above
    for argv, want_solution in [
        (["solve", "pt", "--H", mats["eye2"], "--K", mats["diag41"]], True),
        (["solve", "douglas", "--A", mats["e1"], "--B", mats["e2"]], False),
        (["check", "range", "--A", mats["e1"], "--B", mats["e1"]], False),
        (["demo", "ex1", "--grid", "64"], False),
    ]:
        code = main(argv)
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"] in ("solved", "unsolvable", "error")
        if doc["outcome"] == "solved" and doc["command"].startswith("solve"):
            assert doc["solution"] is not None
        if not want_solution:
            assert doc["solution"] is None
        assert doc["tool_version"]


def test_sweep_negative_seed_is_input_error(capsys):
    code, doc = run(capsys, "sweep", "--seed", "-1", "--trials", "1", "--max-dim", "2")
    assert code == 2
    assert doc["outcome"] == "error"
    assert "seed" in doc["detail"]["message"]


@pytest.mark.parametrize("digits", [400, 5000])
def test_huge_integer_entry_exit_2(capsys, mats, tmp_path, digits):
    path = tmp_path / "huge.json"
    path.write_text('{"rows":1,"cols":1,"data":[[1%s,0]]}' % ("0" * digits))
    code, doc = run(capsys, "check", "range", "--A", str(path), "--B", mats["eye2"])
    assert code == 2
    assert doc["outcome"] == "error"
    assert "huge.json" in doc["detail"]["message"]


def test_readme_example_report_is_current(capsys, tmp_path, monkeypatch):
    """The solve pt report in README's "Command line" section, byte for byte."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    expected = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    save_matrix("H.json", np.eye(2, dtype=complex))
    save_matrix("K.json", np.diag([4.0, 1.0]).astype(complex))
    assert main(["solve", "pt", "--H", "H.json", "--K", "K.json", "--out", "X.json"]) == 0
    assert capsys.readouterr().out == expected
