"""The range-inclusion bound is relative at every scale of B: with
A = diag(1, 0), B = s e_2 lies wholly outside range(A) however small s is.
A bound tol * (1 + ||B||) was absolute for small B and accepted it, and
AX = B was then reported solvable with X = 0."""

import json

import numpy as np
import pytest

from opeq.cli import main
from opeq.conditions import range_inclusion
from opeq.matio import save_matrix
from opeq.solvers import douglas_reduced_solve

A = np.diag([1.0, 0.0])


@pytest.mark.parametrize("s", [1e-9, 1e-200])
def test_tiny_b_outside_the_range_is_refused(s, tmp_path, capsys):
    b = np.array([[0.0], [s]])
    assert not range_inclusion(b, A).holds
    assert not douglas_reduced_solve(A, b).solvable
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(str(pa), A.astype(complex))
    save_matrix(str(pb), b.astype(complex))
    assert main(["solve", "douglas", "--A", str(pa), "--B", str(pb)]) == 1
    assert json.loads(capsys.readouterr().out)["outcome"] == "unsolvable"


@pytest.mark.parametrize("s", [1e-9, 1e-200])
def test_tiny_b_inside_the_range_holds(s):
    b = np.array([[s], [0.0]])
    assert range_inclusion(b, A).holds
    rep = douglas_reduced_solve(A, b)
    assert rep.solvable and np.array_equal(rep.solution, b)
