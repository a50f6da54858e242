import json
import math
import warnings

import numpy as np
import pytest

import opeq.linalg
import opeq.sweep
from opeq.cli import main
from opeq.linalg import InputError, frob, psd_power
from opeq.matio import save_matrix
from opeq.solvers import pt_solve, riccati_geomean
from opeq.sweep import norm_bound_bisect, random_psd, random_spd


def test_norm_bound_scalar_closed_form():
    # n = 1: S = sqrt(h k), so the least a with S <= a h is sqrt(k / h)
    for h, k in ((1.0, 1.0), (0.3, 7.0), (2.5, 1e-6), (1e-3, 4.0), (0.7, 0.7)):
        a = norm_bound_bisect(np.array([[h]]), np.array([[k]]))
        assert abs(a - math.sqrt(k / h)) <= 1e-15 * math.sqrt(k / h)


def test_norm_bound_zero_k_is_exactly_zero():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5):
        h = random_spd(rng, n)
        assert norm_bound_bisect(h, np.zeros((n, n))) == 0.0


def test_norm_bound_agrees_with_pt_solve():
    rng = np.random.default_rng(20261018)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        h = random_spd(rng, n)
        k = random_psd(rng, n)
        a_min = pt_solve(h, k).detail["norm_bound"]
        assert abs(norm_bound_bisect(h, k) - a_min) <= 1e-10 * a_min


def test_norm_bound_refuses_singular_h():
    with pytest.raises(InputError, match="positive definite"):
        norm_bound_bisect(np.diag([1.0, 0.0]), np.eye(2))


def test_norm_bound_eigendecompositions_per_call(monkeypatch):
    # every route to the kernel is counted: the oracle's own calls through
    # opeq.sweep and the factorizations inside opeq.linalg
    calls = 0
    kernel = opeq.linalg.herm_eig

    def counted(m):
        nonlocal calls
        calls += 1
        return kernel(m)

    monkeypatch.setattr(opeq.sweep, "herm_eig", counted)
    monkeypatch.setattr(opeq.linalg, "herm_eig", counted)
    # criterion 03's generator
    rng = np.random.default_rng(20260812)
    worst = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        h = random_spd(rng, n)
        k = random_psd(rng, n)
        calls = 0
        norm_bound_bisect(h, k)
        worst = max(worst, calls)
    assert worst <= 16


def test_norm_bound_factors_each_operand_once_outside_a_scope(monkeypatch):
    # one pivoted Cholesky of h decides definiteness and gives H^{1/2}, with
    # the bits of psd_sqrt(h); the other factors H^{1/2} K H^{1/2}
    calls = 0
    kernel = opeq.linalg._cholesky_pivoted

    def counted(a):
        nonlocal calls
        calls += 1
        return kernel(a)

    monkeypatch.setattr(opeq.linalg, "_cholesky_pivoted", counted)
    rng = np.random.default_rng(4)
    for n in (1, 4, 7):
        h = random_spd(rng, n)
        k = random_psd(rng, n)
        calls = 0
        norm_bound_bisect(h, k)
        assert calls == 2


def test_psd_power_refuses_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # 1 / 1e-310 and (1e200)^2 both leave the floating-point range
        with pytest.raises(InputError, match="matrix power overflows"):
            psd_power(np.diag([1e-310, 2e-310]), -1.0)
        with pytest.raises(InputError, match="matrix power overflows"):
            psd_power(np.diag([1e200, 2e200]), 2.0)


def test_riccati_scales_subnormal_a(tmp_path, capsys):
    # A^{-1/2} B A^{-1/2} = 1e310 I is never formed: the operands are scaled
    # by even powers of two first, and A # B = sqrt(1e-310) I is representable
    a = 1e-310 * np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = riccati_geomean(a, np.eye(2)).solution
    assert frob(g - math.sqrt(1e-310) * np.eye(2)) <= 1e-14 * math.sqrt(1e-310)
    # the residual applies A^{-1} through A's Cholesky factor, never
    # forming 1 / 1e-310, so the CLI accepts the representable answer
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(str(pa), a.astype(complex))
    save_matrix(str(pb), np.eye(2, dtype=complex))
    assert main(["solve", "riccati", "--A", str(pa), "--B", str(pb)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "solved"
    assert doc["residuals"]["solve"] <= 1e-15


def test_riccati_scales_by_even_powers_of_two():
    for sa, sb in ((1e200, 1e-200), (1e-300, 1e300)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = riccati_geomean(sa * np.eye(2), sb * np.eye(2)).solution
        assert frob(g - np.eye(2)) <= 1e-15


def test_frob_is_overflow_safe():
    assert frob(np.full((2, 2), 1e300)) == 2e300
    assert frob(np.full((2, 2), 1e-200j)) == 2e-200
    with pytest.raises(InputError, match="Frobenius norm overflows"):
        frob(np.full((3, 3), 1e308))
    # in the normal range the power-of-two scaling changes no bit
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        assert frob(m) == float(np.linalg.norm(m))
        assert frob(m.real.T) == float(np.linalg.norm(m.real.T))


def test_pt_solve_residual_is_finite_at_large_scale():
    rep = pt_solve(np.eye(2), 1e300 * np.eye(2))
    assert rep.solvable
    assert math.isfinite(rep.residual) and rep.residual <= 1e-8
    assert abs(rep.detail["norm_bound"] - 1e150) <= 1e-12 * 1e150
