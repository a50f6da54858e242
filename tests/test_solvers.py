import sys

import numpy as np
import pytest

from opeq import linalg
from opeq.cli import main
from opeq.conditions import verify_solution
from opeq.linalg import InputError, frob, herm_eig, pinv, psd_sqrt, spectral_norm
from opeq.matio import save_matrix
from opeq.solvers import (
    axb_reduced_solve,
    congruence_solve,
    douglas_reduced_solve,
    general_solution,
    pt_solve,
    riccati_geomean,
)
from opeq.sweep import (
    congruence_solvable_pair,
    congruence_unsolvable_pair,
    douglas_solvable_pair,
    douglas_unsolvable_pair,
    norm_bound_bisect,
    random_matrix,
    random_psd,
    random_psd_singular,
    random_spd,
)


def _null(a):
    """N_A = I - A^+ A, off pinv rather than general_solution's own svd."""
    return np.eye(a.shape[1]) - pinv(a) @ a


# --- AX = B ------------------------------------------------------------------


def test_douglas_frozen_unsolvable_residual_half():
    # least-squares residual of X for A = e1 e1*, B = e2 e2* is exactly 1/2
    # relative to 1 + ||B||
    rep = douglas_reduced_solve(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert not rep.solvable
    assert rep.residual == pytest.approx(0.5, abs=1e-14)


def test_douglas_solvable_roundtrip_and_uniqueness():
    rng = np.random.default_rng(13)
    for _ in range(100):
        m, n, k = (int(rng.integers(2, 7)) for _ in range(3))
        a, b = douglas_solvable_pair(rng, m, n, k)
        rep = douglas_reduced_solve(a, b)
        assert rep.solvable
        assert rep.residual <= 1e-8
        # the reduced solution lives in range(A*): N_A D = 0
        assert frob(_null(a) @ rep.solution) <= 1e-8 * (1.0 + frob(rep.solution))


def test_general_solution_of_ax_b():
    # AX = B is A X I = B: b = I, so N_B = 0 and the freedom is N_A v1
    rng = np.random.default_rng(19)
    for _ in range(60):
        m, n, k = (int(rng.integers(2, 7)) for _ in range(3))
        a, b = douglas_solvable_pair(rng, m, n, k)
        rep = douglas_reduced_solve(a, b)
        assert rep.solvable
        assert frob(_null(a) @ rep.solution) <= 1e-8 * (1.0 + frob(rep.solution))
        v1 = random_matrix(rng, n, k)
        v2 = random_matrix(rng, n, k)
        x = general_solution(a, np.eye(k), rep.solution, v1, v2)
        assert frob(a @ x - b) / (1.0 + frob(b)) <= 1e-8


def test_general_solution_projectors_at_extreme_scale():
    # A = 1e-310 P is subnormal and invertible, so A^+ overflows but N_A = 0
    # and the family of X = I is X itself
    p = np.array([[2.0, 1.0], [1.0, 3.0]]) / 3.0
    a = 1e-310 * p
    x = douglas_reduced_solve(a, a).solution
    assert frob(x - np.eye(2)) <= 1e-14
    g = general_solution(a, np.eye(2), x, np.eye(2), np.zeros((2, 2)))
    assert frob(g - x) <= 1e-14
    # and B = 1e-310 P on the right: N_B = 0 too
    g = general_solution(np.eye(2), a, x, np.zeros((2, 2)), np.eye(2))
    assert frob(g - x) <= 1e-14


def test_douglas_unsolvable_flagged():
    rng = np.random.default_rng(14)
    for _ in range(100):
        m, n, k = (int(rng.integers(2, 7)) for _ in range(3))
        a, b = douglas_unsolvable_pair(rng, m, n, k)
        assert not douglas_reduced_solve(a, b).solvable


# --- AXB = C -----------------------------------------------------------------


def test_axb_reduced_and_general_family():
    rng = np.random.default_rng(15)
    for _ in range(60):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        p, q = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        a = random_matrix(rng, m, n)
        b = random_matrix(rng, p, q)
        x0 = random_matrix(rng, n, p, rank=min(n, p))
        c = a @ x0 @ b
        rep = axb_reduced_solve(a, b, c)
        assert rep.solvable
        v1 = random_matrix(rng, n, p)
        v2 = random_matrix(rng, n, p)
        x = general_solution(a, b, rep.solution, v1, v2)
        scale = 1.0 + frob(c)
        assert frob(a @ x @ b - c) / scale <= 1e-8
        # every member of the family projects back to the same reduced core
        assert frob(a @ (x - rep.solution) @ b) / scale <= 1e-8


def test_axb_shape_mismatch():
    with pytest.raises(InputError):
        axb_reduced_solve(np.eye(2), np.eye(3), np.zeros((3, 3)))


def test_general_solution_block_shape_check():
    # A X B with A 3 x 2 and B 4 x 3 needs x, v1 and v2 of shape 2 x 4;
    # the transpose of any one operand no longer conforms
    ops = {"a": np.ones((3, 2)), "b": np.ones((4, 3)), "x": np.zeros((2, 4)),
           "v1": np.ones((2, 4)), "v2": np.ones((2, 4))}
    assert general_solution(**ops).shape == (2, 4)
    for bad in ops:
        with pytest.raises(InputError, match=r"A.cols x B.rows"):
            general_solution(**{**ops, bad: ops[bad].T})


# --- AXA* = C ----------------------------------------------------------------


def test_congruence_frozen_diagonal():
    # a = diag(2, 0), c = diag(8, 0): x = a+ c a+* = diag(2, 0)
    rep = congruence_solve(np.diag([2.0, 0.0]), np.diag([8.0, 0.0]))
    assert rep.solvable
    assert np.allclose(rep.solution, np.diag([2.0, 0.0]), atol=1e-12)


def test_congruence_solvable_psd_output():
    rng = np.random.default_rng(16)
    for _ in range(100):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        a, c = congruence_solvable_pair(rng, m, n)
        rep = congruence_solve(a, c)
        assert rep.solvable and rep.residual <= 1e-8
        assert herm_eig(rep.solution).values[0] >= -1e-9 * (1.0 + spectral_norm(rep.solution))


def test_general_solution_of_axastar_c():
    # AXA* = C is A X B = C with b = A*, so N_B = I - A* (A*)^+
    rng = np.random.default_rng(20)
    for _ in range(60):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        a, c = congruence_solvable_pair(rng, m, n)
        rep = congruence_solve(a, c)
        assert rep.solvable
        assert frob(_null(a) @ rep.solution) <= 1e-8 * (1.0 + frob(rep.solution))
        v1 = random_matrix(rng, n, n)
        v2 = random_matrix(rng, n, n)
        x = general_solution(a, a.conj().T, rep.solution, v1, v2)
        assert frob(a @ x @ a.conj().T - c) / (1.0 + frob(c)) <= 1e-8


def test_congruence_unsolvable_both_kinds():
    rng = np.random.default_rng(17)
    for i in range(100):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        kind = "range" if i % 2 == 0 else "indefinite"
        a, c = congruence_unsolvable_pair(rng, m, n, kind)
        assert not congruence_solve(a, c).solvable


def test_congruence_rejects_non_hermitian_rhs():
    with pytest.raises(InputError):
        congruence_solve(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


# --- XHX = K -----------------------------------------------------------------


def test_pt_frozen_diagonal():
    rep = pt_solve(np.diag([1.0, 4.0]), np.diag([9.0, 1.0]))
    assert rep.solvable
    assert np.allclose(rep.solution, np.diag([3.0, 0.5]), atol=1e-12)
    assert rep.detail["norm_bound"] == pytest.approx(3.0, rel=1e-12)
    assert rep.residual <= 1e-12


def test_pt_random_roundtrip_unique_and_bounded():
    rng = np.random.default_rng(18)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        h = random_spd(rng, n)
        k = random_psd(rng, n)
        rep = pt_solve(h, k)
        assert rep.solvable
        assert rep.residual <= 1e-8
        x = rep.solution
        # alternate route through the two-sided reduced solver
        hs = psd_sqrt(h)
        inner = hs @ k @ hs
        mid = psd_sqrt(0.5 * (inner + inner.conj().T))
        alt = axb_reduced_solve(hs, hs, mid)
        assert frob(x - alt.solution) / (1.0 + frob(x)) <= 1e-8
        # minimal norm bound from an independent bisection
        a_star = norm_bound_bisect(h, k)
        assert spectral_norm(x) <= a_star + 1e-8 * (1.0 + a_star)


def test_pt_singular_h_declines_but_reports():
    rep = pt_solve(np.diag([1.0, 0.0]), np.ones((2, 2)))
    assert rep.solution is None
    assert not rep.detail["h_nonsingular"]
    assert len(rep.conditions) == 4
    # necessity holds for this constructed pair even though h is singular
    assert rep.conditions[0].holds


def test_pt_rejects_non_psd_inputs():
    with pytest.raises(InputError):
        pt_solve(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(InputError):
        pt_solve(np.eye(2), np.diag([1.0, -1.0]))


def test_pt_h_just_outside_psd_window_is_input_error(capsys, tmp_path):
    # -5e-10 relative lies outside the 1e-10 clamp window applied to H
    h = np.diag([1.0, -5e-10])
    with pytest.raises(InputError, match="H is not PSD"):
        pt_solve(h, np.eye(2))
    with pytest.raises(InputError, match="H is not PSD"):
        pt_solve(h, np.eye(2)).conditions
    save_matrix(str(tmp_path / "h.json"), h.astype(complex))
    save_matrix(str(tmp_path / "k.json"), np.eye(2, dtype=complex))
    code = main(["solve", "pt", "--H", str(tmp_path / "h.json"), "--K", str(tmp_path / "k.json")])
    capsys.readouterr()
    assert code == 2


def test_pt_solution_on_constructed_k_recovers_x0():
    # with x0 psd and k = x0 h x0 the solution is unique, so the solver
    # must return x0 itself
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        h = random_spd(rng, n)
        x0 = random_psd(rng, n)
        k = x0 @ h @ x0
        rep = pt_solve(h, 0.5 * (k + k.conj().T))
        assert rep.solvable
        assert frob(rep.solution - x0) / (1.0 + frob(x0)) <= 1e-7


# --- Riccati -----------------------------------------------------------------


def test_riccati_frozen_commuting():
    g = riccati_geomean(np.diag([1.0, 4.0]), np.diag([4.0, 1.0])).solution
    assert np.allclose(g, 2.0 * np.eye(2), atol=1e-12)


def test_riccati_residual_symmetry_fixed_point():
    rng = np.random.default_rng(22)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        a = random_spd(rng, n)
        b = random_spd(rng, n)
        g = riccati_geomean(a, b).solution
        assert verify_solution("riccati", g, a=a, b=b) <= 1e-8
        assert frob(g - riccati_geomean(b, a).solution) / (1.0 + frob(g)) <= 1e-8
        assert frob(riccati_geomean(a, a).solution - a) / (1.0 + frob(a)) <= 1e-9


def test_riccati_rejects_singular_first_argument():
    with pytest.raises(InputError):
        riccati_geomean(np.diag([1.0, 0.0]), np.eye(2))


def test_riccati_accepts_singular_second_argument():
    b = np.diag([4.0, 0.0])
    g = riccati_geomean(np.eye(2), b).solution
    assert np.allclose(g, np.diag([2.0, 0.0]), atol=1e-12)


# --- factor once -------------------------------------------------------------


@pytest.fixture
def eig_calls(monkeypatch):
    """Count factorizations, herm_eig and svd calls alike, by wrapping both
    in every opeq module namespace that binds them, so calls made from
    inside the package are caught too."""
    calls = []

    def counting(orig):
        def counted(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        return counted

    wrapped = {id(f): counting(f) for f in (linalg.herm_eig, linalg.svd)}
    for name, mod in list(sys.modules.items()):
        if name == "opeq" or name.startswith("opeq."):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    monkeypatch.setattr(mod, attr, wrapped[id(value)])

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    return count


def test_each_operand_factored_once(eig_calls):
    rng = np.random.default_rng(61)
    n = 6
    assert eig_calls(pt_solve, random_spd(rng, n), random_psd(rng, n)) <= 5
    h = random_psd_singular(rng, n)
    t = random_psd(rng, n)
    k = t @ h @ t
    assert eig_calls(pt_solve, h, 0.5 * (k + k.conj().T)) <= 5
    assert eig_calls(pt_solve, random_psd_singular(rng, n), random_psd(rng, n)) <= 5
    a = random_matrix(rng, n, n)
    b = random_matrix(rng, n, n)
    assert eig_calls(axb_reduced_solve, a, b, a @ b) <= 2
    a, c = congruence_solvable_pair(rng, n, n)
    assert eig_calls(congruence_solve, a, c) <= 2
    a, b = douglas_solvable_pair(rng, n, n, n)
    assert eig_calls(douglas_reduced_solve, a, b) == 1
