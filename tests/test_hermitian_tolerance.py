"""Every Hermitian check runs at one tolerance, TOL_PSD: an operand whose
skew part ||m - m*||_F is 5e-10 of ||m||_F is accepted by the kernels
(herm_eig, cholesky), by psd_sqrt and by solve riccati, whose residual
factors the raw A after the solver accepted it; one at 5e-9 is refused
by each with its own message."""

import json

import numpy as np
import pytest

from opeq.cli import main
from opeq.linalg import TOL_PSD, InputError, cholesky, frob, herm_eig, psd_sqrt
from opeq.matio import save_matrix
from opeq.sweep import random_spd


def _skewed(rel):
    """A positive definite A plus a skew-Hermitian part with
    ||m - m*||_F = rel ||m||_F, to about 1e-6 relative."""
    rng = np.random.default_rng(3)
    a = random_spd(rng, 4)
    g = rng.normal(size=(4, 8)).view(np.complex128)
    s = g - g.conj().T
    s /= frob(s)
    # ||a + e s||_F^2 = ||a||_F^2 + e^2, as s is orthogonal to a
    e = rel * frob(a) / np.sqrt(4.0 - rel * rel)
    m = a + e * s
    assert frob(m - m.conj().T) / frob(m) == pytest.approx(rel, rel=1e-6)
    return m


def _solve_riccati(capsys, tmp_path, a):
    paths = []
    for name, m in (("A", a), ("B", np.eye(4, dtype=complex))):
        paths += [f"--{name}", str(tmp_path / f"{name}.json")]
        save_matrix(paths[-1], m)
    code = main(["solve", "riccati", *paths])
    return code, json.loads(capsys.readouterr().out)


def test_half_the_tolerance_is_accepted(capsys, tmp_path):
    m = _skewed(0.5 * TOL_PSD)
    herm_eig(m)
    assert cholesky(m).definite
    psd_sqrt(m)
    code, doc = _solve_riccati(capsys, tmp_path, m)
    assert code == 0 and doc["outcome"] == "solved"


def test_five_times_the_tolerance_is_refused(capsys, tmp_path):
    m = _skewed(5.0 * TOL_PSD)
    for call in (herm_eig, cholesky, psd_sqrt):
        with pytest.raises(InputError, match="^matrix is not Hermitian within tolerance$"):
            call(m)
    code, doc = _solve_riccati(capsys, tmp_path, m)
    assert code == 2 and doc["outcome"] == "error"
    assert doc["detail"]["message"] == "a is not Hermitian within tolerance"
