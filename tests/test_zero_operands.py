"""Zero and rank-0 operands: every range is {0}, the thin factors have no
columns, and each caller still returns its zero answer."""

import numpy as np

from opeq.conditions import majorization_lambda
from opeq.linalg import pinv, range_projector
from opeq.solvers import pt_solve, riccati_geomean


def test_pt_solve_with_zero_k_is_solved_by_zero():
    rep = pt_solve(np.diag([1.0, 2.0]), np.zeros((2, 2)))
    assert rep.solvable
    assert np.array_equal(rep.solution, np.zeros((2, 2)))
    assert rep.detail["norm_bound"] == 0.0


def test_geometric_mean_with_zero_is_zero():
    assert np.array_equal(riccati_geomean(np.eye(3), np.zeros((3, 3))).solution, np.zeros((3, 3)))


def test_rank_zero_matrix_readers():
    z = np.zeros((3, 2))
    zp = pinv(z)
    assert zp.shape == (2, 3) and np.array_equal(zp, np.zeros((2, 3)))
    p = range_projector(z)
    assert p.shape == (3, 3) and np.array_equal(p, np.zeros((3, 3)))
    assert majorization_lambda(z, z) == 0.0
