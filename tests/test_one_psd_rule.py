"""One PSD rule: solve congruence decides "C is PSD" by the remainder of
linalg.cholesky against PSD_CLAMP_TOL, the bound by which solve pt and
solve riccati refuse a K or B that is not PSD. A C whose only negative
eigenvalue, -5e-10, leaves a Schur remainder above that bound fails the
condition; a formed rank-deficient C = A X0 A* still solves."""

import json

import numpy as np
import pytest

from opeq.cli import main
from opeq.linalg import PSD_CLAMP_TOL
from opeq.matio import save_matrix
from opeq.sweep import congruence_solvable_pair

SLIGHTLY_INDEFINITE = np.diag([1.0, -5e-10]).astype(complex)


def _run(capsys, tmp_path, family, operands):
    argv = ["solve", family]
    for name, m in operands.items():
        path = str(tmp_path / f"{name}.json")
        save_matrix(path, m)
        argv += [f"--{name}", path]
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_congruence_refuses_what_pt_and_riccati_refuse(capsys, tmp_path):
    eye = np.eye(2, dtype=complex)
    code, doc = _run(capsys, tmp_path, "congruence", {"A": eye, "C": SLIGHTLY_INDEFINITE})
    assert code == 1 and doc["outcome"] == "unsolvable" and doc["solution"] is None
    psd = doc["conditions"][0]
    assert psd["name"] == "C is PSD" and psd["holds"] is False
    assert psd["witness"] > PSD_CLAMP_TOL
    # riccati labels its operands in lower case
    for family, left, right, label in (("pt", "H", "K", "K"), ("riccati", "A", "B", "b")):
        code, doc = _run(capsys, tmp_path, family, {left: eye, right: SLIGHTLY_INDEFINITE})
        assert code == 2 and doc["outcome"] == "error", family
        assert doc["detail"]["message"].startswith(f"{label} is not PSD"), family


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_formed_rank_deficient_c_still_solves(capsys, tmp_path, seed):
    a, c = congruence_solvable_pair(np.random.default_rng(seed), 8, 4)
    assert np.linalg.matrix_rank(c) < 8
    code, doc = _run(capsys, tmp_path, "congruence", {"A": a, "C": c})
    assert code == 0 and doc["outcome"] == "solved"
    psd = doc["conditions"][0]
    assert psd["name"] == "C is PSD" and psd["holds"] is True
    assert 0.0 <= psd["witness"] <= PSD_CLAMP_TOL
