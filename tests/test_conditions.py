import warnings

import numpy as np
import pytest

from opeq.conditions import (
    majorization_lambda,
    range_inclusion,
    verify_solution,
)
from opeq.linalg import TOL_PSD, InputError, frob, psd_gap, psd_sqrt
from opeq.solvers import pt_solve
from opeq.sweep import (
    douglas_solvable_pair,
    douglas_unsolvable_pair,
    random_matrix,
    random_psd,
    random_psd_singular,
)


def test_range_inclusion_frozen():
    a = np.diag([1.0, 0.0])
    assert range_inclusion(a, a).holds
    assert not range_inclusion(np.diag([0.0, 1.0]), a).holds
    rep = range_inclusion(np.zeros((2, 2)), a)
    assert rep.holds and rep.witness == 0.0


def test_range_inclusion_constructed_pairs():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m, n, k = (int(rng.integers(2, 7)) for _ in range(3))
        a, b = douglas_solvable_pair(rng, m, n, k)
        assert range_inclusion(b, a).holds
        a2, b2 = douglas_unsolvable_pair(rng, m, n, k)
        assert not range_inclusion(b2, a2).holds


def test_majorization_lambda_frozen_quarter():
    # B = I, A = 2I: smallest lambda with BB* <= lam AA* is 1/4
    lam = majorization_lambda(np.eye(2), 2.0 * np.eye(2))
    assert lam == pytest.approx(0.25, rel=1e-10)


def test_majorization_lambda_absent():
    assert majorization_lambda(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])) is None


def test_majorization_lambda_scales_quadratically():
    rng = np.random.default_rng(9)
    a = random_matrix(rng, 4, 4, rank=4)
    b = a @ random_matrix(rng, 4, 3, rank=3)
    lam = majorization_lambda(b, a)
    lam_scaled = majorization_lambda(3.0 * b, a)
    assert lam_scaled == pytest.approx(9.0 * lam, rel=1e-8)


def test_majorization_lambda_is_least_in_the_psd_order():
    # the inequality itself, decided by psd_gap as an independent reference:
    # B B* <= lambda (1 + 1e-6) A A* holds and lambda (1 - 1e-6) fails, each
    # within TOL_PSD of the norms; a zero lambda only comes with B = 0
    def gap_holds(bb, y):
        return psd_gap(bb, y) >= -TOL_PSD * (frob(bb) + frob(y))

    rng = np.random.default_rng(36)
    for _ in range(200):
        m, n, k = (int(rng.integers(2, 7)) for _ in range(3))
        a, b = douglas_solvable_pair(rng, m, n, k)
        lam = majorization_lambda(b, a)
        bb = b @ b.conj().T
        aa = a @ a.conj().T
        assert gap_holds(bb, lam * (1.0 + 1e-6) * aa)
        if lam == 0.0:
            assert frob(b) == 0.0
        else:
            assert not gap_holds(bb, lam * (1.0 - 1e-6) * aa)


def test_pt_conditions_frozen_identity_h():
    reports = pt_solve(np.eye(2), np.diag([4.0, 1.0])).conditions
    names = [r.name for r in reports]
    assert names == ["ii-a", "ii-b", "iii", "iv"]
    assert all(r.holds for r in reports)


def test_pt_conditions_rejects_non_psd():
    with pytest.raises(InputError):
        pt_solve(np.diag([1.0, -1.0]), np.eye(2)).conditions
    with pytest.raises(InputError):
        pt_solve(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])).conditions


def test_pt_conditions_necessity_on_singular_h():
    # k = t h t is reachable (x = t solves), so the first pair of
    # conditions must hold no matter how singular h is
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        h = random_psd_singular(rng, n)
        t = random_psd(rng, n)
        k = t @ h @ t
        reports = pt_solve(h, 0.5 * (k + k.conj().T)).conditions
        assert reports[0].holds and reports[1].holds


def test_pt_condition_iv_lambda_value():
    # h = diag(1,4), k = diag(9,1): quarter power is diag(9^(1/4), 2^(1/2)),
    # so the smallest lambda with quarter^2 <= lam h is max(3/1, 2/4) = 3
    h = np.diag([1.0, 4.0])
    k = np.diag([9.0, 1.0])
    rep = pt_solve(h, k)
    assert rep.conditions[3].holds
    assert rep.detail["norm_bound"] == pytest.approx(3.0, rel=1e-12)


def test_verify_solution_kinds():
    a = np.diag([1.0, 2.0])
    x = np.diag([3.0, 4.0])
    assert verify_solution("ax_b", x, a=a, b=a @ x) <= 1e-14
    assert verify_solution("xhx_k", x, h=a, k=x @ a @ x) <= 1e-14
    b = np.diag([2.0, 1.0])
    c = a @ x @ b
    assert verify_solution("axb_c", x, a=a, b=b, c=c) <= 1e-14
    g = psd_sqrt(a @ b)  # commuting case: geometric mean is sqrt(ab)
    assert verify_solution("riccati", g, a=a, b=b) <= 1e-12
    # a kind is one of VERIFY_KINDS exactly: no case or dash folding
    for kind in ("nope", "AX-B"):
        with pytest.raises(InputError, match="unknown equation kind"):
            verify_solution(kind, x, a=a, b=a)


@pytest.mark.parametrize("kind, operands, shapes", [
    # A X is 3 x 2 against a 3 x 2 B, but X must have A's 2 rows
    ("ax_b", dict(candidate=np.ones((3, 2)), a=np.ones((3, 2)), b=np.ones((3, 2))),
     "candidate (3, 2) does not conform to a (3, 2), b (3, 2)"),
    # A X is 3 x 1, which numpy would broadcast against a 3 x 3 B
    ("ax_b", dict(candidate=np.ones((2, 1)), a=np.ones((3, 2)), b=np.ones((3, 3))),
     "candidate (2, 1) does not conform to a (3, 2), b (3, 3)"),
    ("axb_c", dict(candidate=np.eye(3), a=np.eye(2), b=np.eye(2), c=np.eye(2)),
     "candidate (3, 3) does not conform to a (2, 2), b (2, 2), c (2, 2)"),
    ("axastar_c", dict(candidate=np.eye(2), a=np.eye(2), c=np.eye(3)),
     "candidate (2, 2) does not conform to a (2, 2), c (3, 3)"),
    ("xhx_k", dict(candidate=np.eye(2), h=np.eye(3), k=np.eye(3)),
     "candidate (2, 2) does not conform to h (3, 3), k (3, 3)"),
    ("riccati", dict(candidate=np.eye(3), a=np.eye(2), b=np.eye(2)),
     "candidate (3, 3) does not conform to a (2, 2), b (2, 2)"),
    # a non-square a is refused by its shape before it is factored
    ("riccati", dict(candidate=np.ones((3, 2)), a=np.ones((3, 2)), b=np.ones((3, 2))),
     "candidate (3, 2) does not conform to a (3, 2), b (3, 2)"),
], ids=["ax_b", "ax_b-broadcast", "axb_c", "axastar_c", "xhx_k", "riccati", "riccati-non-square-a"])
def test_verify_solution_refuses_non_conforming_shapes(kind, operands, shapes):
    with pytest.raises(InputError) as err:
        verify_solution(kind, **operands)
    assert str(err.value) == f"kind {kind!r}: {shapes}"


def test_verify_solution_riccati_needs_invertible_a():
    with pytest.raises(InputError):
        verify_solution("riccati", np.eye(2), a=np.diag([1.0, 0.0]), b=np.eye(2))


def test_verify_solution_refuses_residual_out_of_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # riccati: X A^{-1} X = 1e310 I overflows
        with pytest.raises(InputError, match="residual overflows"):
            verify_solution("riccati", np.eye(2), a=1e-310 * np.eye(2), b=np.eye(2))
        # xhx_k: X H X = 1e320 I overflows
        with pytest.raises(InputError, match="residual overflows"):
            verify_solution("xhx_k", 1e160 * np.eye(2), h=np.eye(2), k=np.eye(2))
        # at unit scale the same branches give finite residuals
        assert verify_solution("xhx_k", np.eye(2), h=np.eye(2), k=np.eye(2)) == 0.0
        assert verify_solution("riccati", np.eye(2), a=np.eye(2), b=np.eye(2)) == 0.0


def test_condition_report_witness_is_projector_residual():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 0.5])
    rep = range_inclusion(b, a)
    # the orthogonal part is all of b here
    assert rep.witness == pytest.approx(frob(b), rel=1e-12)
