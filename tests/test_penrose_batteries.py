"""AXB = C and AXA* = C are decided by Penrose's range conditions on the
operands: range(C) in range(A) and range(C*) in range(B*), and for AXA* = C
"C is PSD" with range(C) in range(A). No condition reads the candidate or
A^+, so an ill-conditioned A does not turn a well-computed solution of a
solvable instance into an "unsolvable" verdict."""

import numpy as np
import pytest

from opeq.cli import main
from opeq.conditions import TOL_RANGE
from opeq.linalg import _prescaled, frob, svd
from opeq.matio import save_matrix
from opeq.solvers import axb_reduced_solve, congruence_solve


def _gauss(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _unitary(rng, n):
    q, r = np.linalg.qr(_gauss(rng, n, n))
    return q * (np.diagonal(r) / abs(np.diagonal(r)))


def _graded_tall(rng):
    """m x p, p < m, singular values logspace(0, -log10 kappa, p) with
    kappa = 10^U(6, 10), and the left factor that spans its range."""
    m = int(rng.integers(3, 9))
    p = int(rng.integers(2, m))
    u = _unitary(rng, m)[:, :p]
    s = np.logspace(0, -rng.uniform(6, 10), p)
    return (u * s) @ _unitary(rng, p).conj().T, u


def _congruence_draw(rng):
    a, _ = _graded_tall(rng)
    g = _gauss(rng, a.shape[1], a.shape[1])
    c = a @ (g @ g.conj().T) @ a.conj().T
    return {"A": a, "C": 0.5 * (c + c.conj().T)}


def _axb_draw(rng):
    a, _ = _graded_tall(rng)
    q, n = (int(k) for k in rng.integers(2, 9, size=2))
    rank_b = int(rng.integers(1, min(q, n)))
    b = _gauss(rng, q, rank_b) @ _gauss(rng, rank_b, n)
    return {"A": a, "B": b, "C": a @ _gauss(rng, a.shape[1], q) @ b}


FAMILIES = {
    "congruence": (_congruence_draw, lambda m: congruence_solve(m["A"], m["C"])),
    "axb": (_axb_draw, lambda m: axb_reduced_solve(m["A"], m["B"], m["C"])),
}


def _cli_exit(family, mats, tmp_path, capsys):
    argv = ["solve", family]
    for name, m in mats.items():
        path = tmp_path / f"{family}-{name}.json"
        save_matrix(str(path), m)
        argv += [f"--{name}", str(path)]
    code = main(argv)
    capsys.readouterr()
    return code


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ill_conditioned_solvable_draws_are_solved(family, tmp_path, capsys):
    # exactly solvable by construction with kappa(A) in [1e6, 1e10]: a
    # residual within the default tolerance is a solution, so the battery
    # must hold and the CLI must say "solved"
    draw, solve = FAMILIES[family]
    rng = np.random.default_rng(40)
    checked = 0
    for _ in range(40):
        mats = draw(rng)
        rep = solve(mats)
        if rep.residual > TOL_RANGE:
            continue
        checked += 1
        assert rep.solvable, [(c.name, c.witness, c.bound) for c in rep.conditions]
        assert _cli_exit(family, mats, tmp_path, capsys) == 0
    assert checked >= 20


def test_congruence_battery_is_psd_and_one_range_condition():
    rng = np.random.default_rng(41)
    rep = FAMILIES["congruence"][1](_congruence_draw(rng))
    assert [c.name for c in rep.conditions] == ["C is PSD", "range(C) in range(A)"]


def test_axb_second_condition_tests_c_star_against_b_star():
    rng = np.random.default_rng(42)
    a, b = _gauss(rng, 5, 3), _gauss(rng, 2, 6)
    # C's rows leave range(B*) a little, so the witness is not rounding
    c = a @ _gauss(rng, 3, 2) @ b + 1e-3 * _gauss(rng, 5, 6)
    rep = axb_reduced_solve(a, b, c)
    cond = rep.conditions[1]
    assert cond.name == "range(C*) in range(B*)"
    cs_adj = _prescaled(c)[0].conj().T
    v = svd(_prescaled(b)[0]).right
    assert cond.witness == frob(cs_adj - v @ (v.conj().T @ cs_adj))
    assert cond.bound == TOL_RANGE * frob(cs_adj)
    # the same number off numpy's own svd of B
    vn = np.linalg.svd(b)[2][:2].conj().T
    assert cond.witness == pytest.approx(frob(cs_adj - vn @ (vn.conj().T @ cs_adj)), rel=1e-10)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_leak_out_of_range_a_is_refused(family, tmp_path, capsys):
    rng = np.random.default_rng(43)
    a, u = _graded_tall(rng)
    w = _gauss(rng, a.shape[0], 1)
    w -= u @ (u.conj().T @ w)
    w /= np.linalg.norm(w)
    if family == "congruence":
        g = _gauss(rng, a.shape[1], a.shape[1])
        c = a @ (g @ g.conj().T) @ a.conj().T
        c = c + 1e-4 * np.linalg.norm(c, 2) * (w @ w.conj().T)
        mats = {"A": a, "C": 0.5 * (c + c.conj().T)}
    else:
        b = _gauss(rng, 3, 4)
        c = a @ _gauss(rng, a.shape[1], 3) @ b
        # the leak's rows are B's first row, so only range(A) is left
        leak = w @ b[:1] / np.linalg.norm(b[:1])
        mats = {"A": a, "B": b, "C": c + 1e-4 * np.linalg.norm(c, 2) * leak}
    rep = FAMILIES[family][1](mats)
    cond = next(c for c in rep.conditions if c.name == "range(C) in range(A)")
    assert not cond.holds and not rep.solvable
    assert _cli_exit(family, mats, tmp_path, capsys) == 1


def test_axb_rows_leaving_range_b_star_fail_the_second_condition(tmp_path, capsys):
    rng = np.random.default_rng(44)
    a, b = _gauss(rng, 4, 3), _gauss(rng, 2, 5)
    c = a @ _gauss(rng, 3, 2) @ b
    # z* in ker(B), so the rows of y z leave range(B*); y in range(A)
    v = np.linalg.svd(b)[2][:2].conj().T
    z = _gauss(rng, 5, 1)
    z = (z - v @ (v.conj().T @ z)).conj().T
    y = a[:, :1]
    c = c + 1e-4 * np.linalg.norm(c, 2) * (y @ z) / (np.linalg.norm(y) * np.linalg.norm(z))
    rep = axb_reduced_solve(a, b, c)
    assert rep.conditions[0].holds
    assert rep.conditions[1].name == "range(C*) in range(B*)" and not rep.conditions[1].holds
    assert not rep.solvable
    assert _cli_exit("axb", {"A": a, "B": b, "C": c}, tmp_path, capsys) == 1
