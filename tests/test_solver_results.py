"""One result shape and one residual across all five solve families.

Every solver's residual must be verify_solution's for its kind, bit for bit;
pt_solve's battery and detail must keep their names and keys; and `opeq
solve` must apply the same solved rule (conditions hold and residual <= tol)
to pt as to every other family.
"""

import dataclasses
import json

import numpy as np
import pytest

from opeq import SolveResult as PackageSolveResult
from opeq.cli import main
from opeq.conditions import verify_solution
from opeq.matio import save_matrix
from opeq.solvers import (
    SolveResult,
    axb_reduced_solve,
    congruence_solve,
    douglas_reduced_solve,
    pt_solve,
    riccati_geomean,
)

SEEDS = (3, 17, 2024)


def _gauss(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def _herm(m):
    # exactly Hermitian, so the solvers' Hermitian part of it is itself
    return 0.5 * (m + m.conj().T)


def _psd(rng, n, rank):
    g = _gauss(rng, n, rank)
    return _herm(g @ g.conj().T)


def _same_report(a, b):
    assert a.name == b.name
    assert a.holds == b.holds
    assert np.float64(a.witness).tobytes() == np.float64(b.witness).tobytes()
    assert np.float64(a.bound).tobytes() == np.float64(b.bound).tobytes()
    assert a.detail == b.detail


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("h_rank", ("full", "deficient"))
def test_pt_conditions_is_pt_solve_battery(seed, h_rank):
    rng = np.random.default_rng(seed)
    n = 4
    h = _psd(rng, n, n if h_rank == "full" else n - 2)
    k = _psd(rng, n, n)
    rep = pt_solve(h, k)
    assert rep.detail["h_nonsingular"] == (h_rank == "full")
    if not rep.detail["h_nonsingular"]:
        assert (rep.solution, rep.residual, rep.solvable) == (None, None, False)
        assert list(rep.detail) == ["h_nonsingular", "norm_bound", "note"]
    else:
        assert list(rep.detail) == ["h_nonsingular", "norm_bound"]
    assert rep.detail["norm_bound"] > 0.0
    battery = pt_solve(h, k).conditions
    assert [c.name for c in battery] == ["ii-a", "ii-b", "iii", "iv"]
    assert len(battery) == len(rep.conditions)
    for a, b in zip(battery, rep.conditions):
        _same_report(a, b)


@pytest.mark.parametrize("seed", SEEDS)
def test_solver_residuals_are_verify_solution(seed):
    rng = np.random.default_rng(seed)
    m, n, r = 5, 4, 2
    a = _gauss(rng, m, r) @ _gauss(rng, r, n)
    b_in = a @ _gauss(rng, n, 3)
    b_out = _gauss(rng, m, 3)
    for b in (b_in, b_out):
        rep = douglas_reduced_solve(a, b)
        assert rep.residual == verify_solution("ax_b", rep.solution, a=a, b=b)

    bm = _gauss(rng, 3, r) @ _gauss(rng, r, 4)
    for c in (a @ _gauss(rng, n, 3) @ bm, _gauss(rng, m, 4)):
        rep = axb_reduced_solve(a, bm, c)
        assert rep.residual == verify_solution("axb_c", rep.solution, a=a, b=bm, c=c)

    for c in (_herm(a @ _psd(rng, n, n) @ a.conj().T), _psd(rng, m, m), np.diag([1.0, -1.0, 2.0, 0.5, 1.0])):
        rep = congruence_solve(a, c)
        assert rep.residual == verify_solution("axastar_c", rep.solution, a=a, c=c)

    h = _psd(rng, n, n)
    k = _psd(rng, n, n)
    rep = pt_solve(h, k)
    assert rep.solution is not None
    assert rep.residual == verify_solution("xhx_k", rep.solution, h=h, k=k)

    rep = riccati_geomean(h, k)
    assert rep.residual == verify_solution("riccati", rep.solution, a=h, b=k)


def test_solve_pt_above_tolerance_is_unsolvable(capsys, tmp_path):
    paths = {}
    for name, m in (("H", np.eye(2)), ("K", [[2.0, 1.0], [1.0, 2.0]])):
        paths[name] = str(tmp_path / f"{name}.json")
        save_matrix(paths[name], np.asarray(m, dtype=complex))
    code = main(["solve", "pt", "--H", paths["H"], "--K", paths["K"], "--tol", "1e-300"])
    doc = json.loads(capsys.readouterr().out)
    assert all(c["holds"] for c in doc["conditions"])
    assert doc["residuals"]["solve"] > 1e-300
    assert code == 1
    assert doc["outcome"] == "unsolvable"
    assert doc["solution"] is None


def test_one_result_shape():
    assert SolveResult is PackageSolveResult
    rng = np.random.default_rng(5)
    a = _gauss(rng, 3, 3)
    spd = np.diag([4.0, 1.0, 2.0])
    reps = {
        "douglas": douglas_reduced_solve(a, a @ _gauss(rng, 3, 2)),
        "axb": axb_reduced_solve(a, a, a @ _gauss(rng, 3, 3) @ a),
        "congruence": congruence_solve(a, _herm(a @ spd @ a.conj().T)),
        "pt": pt_solve(np.eye(3), spd),
        "riccati": riccati_geomean(np.eye(3), spd),
    }
    for family, rep in reps.items():
        assert type(rep) is SolveResult, family
        assert rep.solvable, family
        assert rep.solvable is (rep.solution is not None and all(c.holds for c in rep.conditions))
        assert [f.name for f in dataclasses.fields(rep)] == [
            "solution", "residual", "conditions", "detail"], family
        if family != "pt":
            assert rep.detail == {}, family
    assert reps["pt"].detail["h_nonsingular"] is True
    assert reps["pt"].detail["norm_bound"] == pytest.approx(2.0, rel=1e-12)
    assert reps["riccati"].conditions == []


@pytest.mark.parametrize(
    "h, k",
    [(np.eye(3), np.diag([4.0, 1.0, 0.25])), (np.diag([1.0, 0.5, 0.0]), np.eye(3))],
    ids=["definite-h", "singular-h"],
)
def test_pt_reports_do_not_depend_on_the_tolerance(capsys, tmp_path, h, k):
    # the four conditions are theorems: neither their verdicts nor their
    # text may read --tol; solve pt's residual verdict still does
    paths = []
    for name, m in (("H", h), ("K", k)):
        paths += [f"--{name}", str(tmp_path / f"{name}.json")]
        save_matrix(paths[-1], m.astype(complex))
    checks, solves = [], []
    for tol in (["--tol", "1e-300"], [], ["--tol", "0.5"]):
        main(["check", "pt-conditions", *paths, *tol])
        checks.append(capsys.readouterr().out)
        main(["solve", "pt", *paths, *tol])
        solves.append(json.loads(capsys.readouterr().out)["conditions"])
    assert checks[0] == checks[1] == checks[2]
    assert solves[0] == solves[1] == solves[2]
    assert solves[0] == json.loads(checks[0])["conditions"]
