"""A PSD operand that is not positive definite is factored thin: m = F F*
with F its truncated pivoted Cholesky factor, n x r of full column rank r,
and F^{+} read off svd(F). Through that factor the XHX = K conditions for
singular H are identities in C^r, and both pt commands say whether H
admits a solution."""

import json

import numpy as np
import pytest

from opeq.cli import main
from opeq.linalg import cholesky, frob, svd
from opeq.matio import save_matrix
from opeq.solvers import pt_solve
from opeq.sweep import random_psd, random_psd_singular


def test_singular_h_conditions_hold_at_any_tolerance():
    # K = T H T is reached by X = T, so every condition holds; in C^r the
    # range tests are identities, with no rounding noise for a tolerance
    # to see
    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(2, 17))
        h = random_psd_singular(rng, n)
        t = random_psd(rng, n)
        k = 0.5 * (t @ h @ t + (t @ h @ t).conj().T)
        ii_a, ii_b, iii, iv = pt_solve(h, k).conditions
        assert ii_a.witness == 0.0 and ii_b.witness == 0.0 and iii.witness == 0.0
        assert iv.witness >= 0.0
        assert ii_a.holds and ii_b.holds and iii.holds and iv.holds


def test_cholesky_factor_is_thin():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        r = int(rng.integers(1, n + 1))
        m = random_psd(rng, n, rank=r)
        c = cholesky(m)
        assert c.rank == r
        fac = c.factor
        assert fac.shape == (n, r)
        assert frob(fac @ fac.conj().T - m) <= 1e-12 * frob(m)
        # F^{+*} F* is the projector U_r U_r* onto range(m), for F = U_r S_r V_r*
        f = svd(fac)
        assert f.rank == r and np.all(np.diff(f.singulars) <= 0)
        proj = f.left @ f.left.conj().T
        assert frob(f.pinv().conj().T @ fac.conj().T - proj) <= 1e-10
    zero = cholesky(np.zeros((3, 3)))
    assert zero.rank == 0 and not zero.definite
    assert np.array_equal(zero.factor, np.zeros((3, 1)))
    assert np.array_equal(svd(zero.factor).pinv().conj().T @ np.ones((1, 2)), np.zeros((3, 2)))


@pytest.mark.parametrize(
    "h, k, nonsingular",
    [(np.diag([1.0, 0.0]), np.eye(2), False), (np.eye(2), np.diag([4.0, 1.0]), True)],
    ids=["singular-h", "definite-h"],
)
def test_check_pt_conditions_reports_h_nonsingular(capsys, tmp_path, h, k, nonsingular):
    paths = []
    for name, m in (("H", h), ("K", k)):
        paths += [f"--{name}", str(tmp_path / f"{name}.json")]
        save_matrix(paths[-1], m.astype(complex))
    code = main(["check", "pt-conditions", *paths])
    doc = json.loads(capsys.readouterr().out)
    # the conditions hold either way, and the outcome reports only them
    assert code == 0 and doc["outcome"] == "solved"
    assert all(c["holds"] for c in doc["conditions"])
    assert doc["detail"]["h_nonsingular"] is nonsingular
    # the least a with (H^{1/2} K H^{1/2})^{1/2} <= a H, at every rank of H
    assert doc["detail"]["norm_bound"] == pytest.approx(2.0 if nonsingular else 1.0, rel=1e-15)
    if not nonsingular:
        assert doc["detail"]["note"].startswith("singular H:")
