"""A singular K or B keeps an exact small eigenvalue: the pivoted Cholesky
that factors it keeps every pivot above n * 2^-50 of the first, so X in
XHX = K, A # B and psd_sqrt carry its square root instead of dropping it.
Each case keeps its smallest pivot at least 3x above that cutoff."""

import json

import numpy as np
import pytest

from opeq.cli import main
from opeq.linalg import RANK_CUTOFF, cholesky, psd_sqrt
from opeq.matio import load_matrix, save_matrix
from opeq.solvers import pt_solve, riccati_geomean


def _forward_error(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def _clear_of_cutoff(k, rank):
    pivots = cholesky(k).lower.diagonal().real ** 2
    assert len(pivots) == rank
    assert pivots[-1] >= 3 * len(k) * RANK_CUTOFF * pivots[0]


@pytest.mark.parametrize("mu", [1e-13, 5e-14, 1e-14])
def test_diagonal_small_eigenvalue_is_kept(mu):
    k = np.diag([1.0, mu, 0.0])
    _clear_of_cutoff(k, 2)
    ref = np.diag(np.sqrt([1.0, mu, 0.0]))
    rep = pt_solve(np.eye(3), k)
    assert rep.solvable
    assert _forward_error(rep.solution, ref) <= 1e-15
    assert _forward_error(riccati_geomean(np.eye(3), k).solution, ref) <= 1e-15
    assert _forward_error(psd_sqrt(k), ref) <= 1e-15


def test_rotated_small_eigenvalue_is_kept():
    # K = Q diag(lam) Q* is formed in floating point, and its rounding,
    # about 1e-16, moves sqrt(1e-14) by about 1e-16 / (2 * 1e-7); the
    # forward error measured 3.8e-10, pinned at 10x
    z = np.random.default_rng(0).normal(size=(4, 8)).view(np.complex128)
    q, r = np.linalg.qr(z)
    q = q * (r.diagonal() / abs(r.diagonal()))
    lam = np.array([1.0, 0.5, 1e-14, 0.0])
    k = (q * lam) @ q.conj().T
    k = 0.5 * (k + k.conj().T)
    _clear_of_cutoff(k, 3)
    ref = (q * np.sqrt(lam)) @ q.conj().T
    assert _forward_error(pt_solve(np.eye(4), k).solution, ref) <= 3.8e-9
    assert _forward_error(riccati_geomean(np.eye(4), k).solution, ref) <= 3.8e-9
    assert _forward_error(psd_sqrt(k), ref) <= 3.8e-9


@pytest.mark.parametrize("family, first, second", [("pt", "--H", "--K"), ("riccati", "--A", "--B")])
def test_cli_solves_with_the_small_eigenvalue(capsys, tmp_path, family, first, second):
    mu = 1e-13
    eye, k, out = (str(tmp_path / name) for name in ("I.json", "K.json", "X.json"))
    save_matrix(eye, np.eye(3, dtype=complex))
    save_matrix(k, np.diag([1.0, mu, 0.0]).astype(complex))
    code = main(["solve", family, first, eye, second, k, "--out", out])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["outcome"] == "solved"
    x, _ = load_matrix(out)
    assert abs(x[1, 1] - np.sqrt(mu)) <= 1e-12 * np.sqrt(mu)
