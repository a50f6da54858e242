"""XHX = K runs one path at every rank of H: one pivoted Cholesky of each
of H and K, H = F F* and K = G G* with F and G the truncated Cholesky
factors at every rank, and one svd of G* F. Only F^{+*} depends on the
rank: back substitution when H is positive definite, otherwise the
pseudoinverse off one svd of F. No eigensolver runs on a PSD operand. The Riccati solver and its residual
refuse an operand that is not positive definite by one rule,
linalg._definite_cholesky."""

import json

import numpy as np
import pytest

from opeq import linalg
from opeq.cli import main
from opeq.conditions import verify_solution
from opeq.linalg import InputError, spectral_norm, svd
from opeq.matio import save_matrix
from opeq.solvers import pt_solve, riccati_geomean
from opeq.sweep import random_psd, random_psd_singular, random_spd


def _eigh_power(m, p):
    # pseudoinverse power for p < 0: eigenvalues at rounding level stay zero
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    keep = vals > 1e-10 * vals[-1]
    lam = np.zeros_like(vals)
    lam[keep] = vals[keep] ** p
    return (vecs * lam) @ vecs.conj().T


def _lambda_reference(h, k):
    """Top eigenvalue of H^{1/2+} (H^{1/2} K H^{1/2})^{1/2} H^{1/2+}."""
    hs, hsp = _eigh_power(h, 0.5), _eigh_power(h, -0.5)
    x = hsp @ _eigh_power(hs @ k @ hs, 0.5) @ hsp
    return float(np.linalg.eigvalsh(0.5 * (x + x.conj().T))[-1])


def _singular_h_pairs(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = 2 + i % 11
        h = random_psd_singular(rng, n)
        t = random_psd(rng, n)
        yield h, random_spd(rng, n), None
        yield h, 0.5 * (t @ h @ t + (t @ h @ t).conj().T), t


def test_singular_h_conditions_hold_with_reference_lambda():
    for h, k, t in _singular_h_pairs(18, 44):
        reports = pt_solve(h, k).conditions
        assert [c.holds for c in reports] == [True] * 4
        assert [c.witness for c in reports] == [0.0] * 4
        lam = pt_solve(h, k).detail["norm_bound"]
        ref = _lambda_reference(h, k)
        assert abs(lam - ref) <= 1e-8 * ref
        if t is not None:
            # K = T H T: U_r* T U_r solves the reduced equation on range(H)
            u = svd(h).left
            assert abs(lam - spectral_norm(u.conj().T @ t @ u)) <= 1e-8 * lam


def test_graded_definite_h_condition_iv_holds(tmp_path, capsys):
    # kappa(H) = 1e13: lambda F* F - |M| has least eigenvalue 0, and a slack
    # s on lambda would lift it by only s lambda 1e-13, below its rounding
    q = np.linalg.qr(np.random.default_rng(13).normal(size=(6, 12)).view(np.complex128))[0]
    h, k = str(tmp_path / "H.json"), str(tmp_path / "K.json")
    save_matrix(h, (q * np.logspace(0, -13, 6)) @ q.conj().T)
    save_matrix(k, np.eye(6, dtype=complex))
    assert main(["check", "pt-conditions", "--H", h, "--K", k]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["detail"]["h_nonsingular"] is True
    iv = doc["conditions"][3]
    assert (iv["name"], iv["holds"], iv["witness"]) == ("iv", True, 0.0)


def _counting(monkeypatch, kernel_name):
    calls = []
    kernel = getattr(linalg, kernel_name)

    def counted(a):
        calls.append(a.shape)
        return kernel(a)

    monkeypatch.setattr(linalg, kernel_name, counted)
    return calls


# H and K cost one Cholesky each at every rank, and a singular H one svd
# of its factor; X's top eigenvalue costs the one eigendecomposition, and
# M = G* F one svd
@pytest.mark.parametrize("h_rank, k_rank, svds", [
    (5, 5, 1), (5, 3, 1), (3, 5, 2), (3, 3, 2),
])
def test_pt_solve_factorizations(monkeypatch, h_rank, k_rank, svds):
    rng = np.random.default_rng(7)
    h = random_psd(rng, 5, rank=h_rank)
    k = random_psd(rng, 5, rank=k_rank)
    eig_calls = _counting(monkeypatch, "_herm_eig_jacobi")
    svd_calls = _counting(monkeypatch, "_svd_jacobi")
    cholesky_calls = _counting(monkeypatch, "_cholesky_pivoted")
    rep = pt_solve(h, k)
    assert rep.detail["h_nonsingular"] == (h_rank == 5)
    assert len(eig_calls) == 1
    assert len(svd_calls) == svds
    assert len(cholesky_calls) == 2


@pytest.mark.parametrize("h_rank, calls", [(5, 1), (3, 0)])
def test_pt_solve_back_substitutes_only_for_x(monkeypatch, h_rank, calls):
    # a definite H back-substitutes once, for X; a singular H uses F^{+}
    # and never back-substitutes
    rng = np.random.default_rng(7)
    h = random_psd(rng, 5, rank=h_rank)
    k = random_psd(rng, 5)
    solve_adjoint = linalg.Cholesky.solve_adjoint
    seen = []

    def counted(self, b):
        seen.append(b.shape)
        return solve_adjoint(self, b)

    monkeypatch.setattr(linalg.Cholesky, "solve_adjoint", counted)
    pt_solve(h, k)
    assert len(seen) == calls


def test_riccati_singular_b_runs_no_eigensolver(monkeypatch):
    rng = np.random.default_rng(7)
    a = random_spd(rng, 5)
    b = random_psd(rng, 5, rank=3)
    eig_calls = _counting(monkeypatch, "_herm_eig_jacobi")
    svd_calls = _counting(monkeypatch, "_svd_jacobi")
    riccati_geomean(a, b)
    assert len(eig_calls) == 0
    assert len(svd_calls) == 1


def _refusal(call):
    with pytest.raises(InputError) as info:
        call()
    return str(info.value)


def test_riccati_refusals_are_one_rule():
    rng = np.random.default_rng(11)
    b = random_spd(rng, 4)
    singular = random_psd_singular(rng, 4)
    indefinite = np.diag([1.0, 0.5, 0.25, -0.5])
    for a, message in ((singular, "a must be positive definite"), (indefinite, "a is not PSD")):
        solved = _refusal(lambda: riccati_geomean(a, b))
        checked = _refusal(lambda: verify_solution("riccati", b, a=a, b=b))
        assert message in solved
        assert checked == solved
