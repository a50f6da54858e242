"""Nonsingularity is decided by the pivoted Cholesky factorization: an
operand is positive definite iff linalg.cholesky runs n pivots above
n * RANK_CUTOFF times the first. Positive definite operands past a 1e-8
eigenvalue cutoff must be solved, and formed singular ones, whose
trailing pivots sit at rounding level, must still be declined."""

import json
from pathlib import Path

import numpy as np
import pytest

from opeq.cli import main
from opeq.linalg import cholesky
from opeq.matio import parse_matrix_doc, save_matrix
from opeq.solvers import pt_solve
from opeq.sweep import random_psd, random_psd_singular

FIXTURE = json.loads(Path(__file__).with_name("graded_fixture.json").read_text(encoding="utf-8"))

# the graded_fixture.json cells at kappa(first) = 1e9, kappa(second) = 10,
# with their pins from test_graded_fixture.py
CASES = [("pt", ("H", "K"), 1.5e-7), ("riccati", ("A", "B"), 3.5e-12)]


def _instances(solver):
    for cell in FIXTURE["cells"]:
        if (cell["solver"], *cell["kappa"]) == (solver, 1e9, 1e1):
            return cell["instances"]
    raise KeyError(solver)


@pytest.mark.parametrize("family, flags, pin", CASES)
def test_cli_solves_kappa_1e9(tmp_path, capsys, family, flags, pin):
    for i, inst in enumerate(_instances(family)):
        argv = ["solve", family]
        for flag, key in zip(flags, ("first", "second")):
            path = str(tmp_path / f"{flag}{i}.json")
            save_matrix(path, parse_matrix_doc(inst[key]))
            argv += [f"--{flag}", path]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"] == "solved"
        if family == "pt":
            assert doc["detail"]["h_nonsingular"] is True
        x = parse_matrix_doc(doc["solution"])
        ref = parse_matrix_doc(inst["reference"])
        assert np.linalg.norm(x - ref) <= pin * np.linalg.norm(ref)


def test_formed_singular_h_stays_singular():
    rng = np.random.default_rng(2016)
    for i in range(210):
        n = 2 + i % 15
        h = random_psd_singular(rng, n)
        assert not cholesky(h).definite
        assert not pt_solve(h, random_psd(rng, n)).detail["h_nonsingular"]
