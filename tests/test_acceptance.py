"""End-to-end acceptance battery.

One test per criterion; the pytest -v line is that criterion's pass or
fail record. Each test also prints a metrics line (shown under -rP) with
the worst observed margins so a green run still documents how much
headroom the implementation has.
"""

import json
import time

import numpy as np
import pytest

from opeq.cli import main
from opeq.conditions import (
    majorization_lambda,
    range_inclusion,
    verify_solution,
)
from opeq.linalg import frob, herm_eig, pinv, psd_sqrt, spectral_norm
from opeq.module_model import demo_ex1, demo_ex2, demo_l2
from opeq.solvers import (
    axb_reduced_solve,
    congruence_solve,
    douglas_reduced_solve,
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


def test_criterion_01_penrose_suite():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(200):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        rank = int(rng.integers(0, min(m, n) + 1))
        a = random_matrix(rng, m, n, rank=rank)
        ap = pinv(a)
        aap = a @ ap
        apa = ap @ a
        worst = max(
            worst,
            frob(a @ ap @ a - a) / (1.0 + frob(a)),
            frob(ap @ a @ ap - ap) / (1.0 + frob(ap)),
            frob(aap.conj().T - aap) / (1.0 + frob(aap)),
            frob(apa.conj().T - apa) / (1.0 + frob(apa)),
        )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    print(f"[criterion 01] PASS penrose suite: 200 matrices dims<=8, "
          f"worst relative identity residual {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_douglas_equivalence():
    rng = np.random.default_rng(20260811)
    missed_solvable = 0
    missed_unsolvable = 0
    worst_residual = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        a, b = douglas_solvable_pair(rng, m, n, k)
        inc = range_inclusion(b, a)
        lam = majorization_lambda(b, a)
        rep = douglas_reduced_solve(a, b)
        worst_residual = max(worst_residual, rep.residual)
        if not (inc.holds and lam is not None and rep.residual <= 1e-8):
            missed_solvable += 1
    for _ in range(200):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        a, b = douglas_unsolvable_pair(rng, m, n, k)
        inc = range_inclusion(b, a)
        lam = majorization_lambda(b, a)
        if inc.holds or lam is not None:
            missed_unsolvable += 1
    assert missed_solvable == 0
    assert missed_unsolvable == 0
    print(f"[criterion 02] PASS douglas equivalence: 200+200 instances, "
          f"zero misclassifications, worst solvable residual {worst_residual:.3e}")


def test_criterion_03_pt_solve_battery():
    rng = np.random.default_rng(20260812)
    worst_residual = 0.0
    worst_psd = 0.0
    worst_alt = 0.0
    worst_bound_gap = -np.inf
    for _ in range(200):
        n = int(rng.integers(1, 9))
        h = random_spd(rng, n)
        k = random_psd(rng, n)
        rep = pt_solve(h, k)
        assert rep.solvable
        x = rep.solution
        worst_residual = max(worst_residual, rep.residual)
        xnorm = spectral_norm(x)
        min_eig = float(herm_eig(x).values[0])
        assert min_eig >= -1e-9 * max(xnorm, 1e-300)
        worst_psd = min(worst_psd, min_eig)
        hs = psd_sqrt(h)
        inner = hs @ k @ hs
        mid = psd_sqrt(0.5 * (inner + inner.conj().T))
        alt = axb_reduced_solve(hs, hs, mid)
        worst_alt = max(worst_alt, frob(alt.solution - x) / (1.0 + frob(x)))
        a_star = norm_bound_bisect(h, k)
        worst_bound_gap = max(worst_bound_gap, xnorm - a_star)
    assert worst_residual <= 1e-8
    assert worst_alt <= 1e-8
    assert worst_bound_gap <= 1e-8
    print(f"[criterion 03] PASS pt solve: 200 instances n<=8, worst residual "
          f"{worst_residual:.3e}, worst alternate-path gap {worst_alt:.3e}, "
          f"worst norm-bound gap {worst_bound_gap:.3e}")


def test_criterion_04_pt_necessity_on_singular_h():
    rng = np.random.default_rng(20260813)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        h = random_psd_singular(rng, n)
        t = random_psd(rng, n)
        # k of this shape is reachable (x = t solves xhx = k), so the two
        # necessary range inclusions must both hold even though h is singular
        k = t @ h @ t
        k = 0.5 * (k + k.conj().T)
        reports = pt_solve(h, k).conditions
        assert reports[0].name == "ii-a" and reports[0].holds
        assert reports[1].name == "ii-b" and reports[1].holds
    print("[criterion 04] PASS necessity: 100 singular-h reachable instances, "
          "both range inclusions held every trial")


def test_criterion_05_geometric_mean():
    rng = np.random.default_rng(20260814)
    worst_sym = 0.0
    worst_res = 0.0
    worst_fix = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = random_spd(rng, n)
        b = random_spd(rng, n)
        g = riccati_geomean(a, b).solution
        g_rev = riccati_geomean(b, a).solution
        scale = 1.0 + frob(g)
        sym = frob(g - g_rev) / scale
        res = verify_solution("riccati", g, a=a, b=b)
        fix = frob(riccati_geomean(a, a).solution - a)
        worst_sym = max(worst_sym, sym)
        worst_res = max(worst_res, res)
        worst_fix = max(worst_fix, fix)
        assert sym <= 1e-8
        assert res <= 1e-8
        assert fix <= 1e-9
    print(f"[criterion 05] PASS geometric mean: 100 pairs, worst symmetry "
          f"{worst_sym:.3e}, worst residual {worst_res:.3e}, worst fixed-point "
          f"gap {worst_fix:.3e}")


def test_criterion_06_congruence_solver():
    rng = np.random.default_rng(20260815)
    worst_residual = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        a, c = congruence_solvable_pair(rng, m, n)
        rep = congruence_solve(a, c)
        assert rep.solvable
        assert rep.residual <= 1e-8
        worst_residual = max(worst_residual, rep.residual)
        min_eig = float(herm_eig(rep.solution).values[0])
        assert min_eig >= -1e-9 * (1.0 + spectral_norm(rep.solution))
    flagged = 0
    for i in range(100):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 7))
        kind = "range" if i % 2 == 0 else "indefinite"
        a, c = congruence_unsolvable_pair(rng, m, n, kind)
        rep = congruence_solve(a, c)
        if not rep.solvable:
            flagged += 1
    assert flagged == 100
    print(f"[criterion 06] PASS congruence: 100 solvable (worst residual "
          f"{worst_residual:.3e}, all psd), 100/100 unsolvable flagged")


def test_criterion_07_demo_ex1_gram_equality():
    start = time.perf_counter()
    doc = demo_ex1(1024)
    elapsed = time.perf_counter() - start
    assert doc["gram_equality_gap"] == 0.0
    witness = doc["witness_preimage"]
    assert witness["candidate_sup"] == pytest.approx(1.0)
    assert witness["ideal_ok"] is False
    assert witness["in_range"] is False
    assert doc["conclusion_holds"] is True
    assert elapsed < 1.0
    print(f"[criterion 07] PASS demo ex1 at n=1024: gram gap exactly 0.0, "
          f"constant-1 candidate rejected by the ideal test, {elapsed:.3f}s")


def test_criterion_08_demo_ex2_refinement():
    ratios = []
    for n in (256, 512, 1024, 2048):
        doc = demo_ex2(n)
        assert doc["preimage_in_ideal"] is True
        witness = doc["witness_preimage"]
        assert 1.9 <= witness["divergence_ratio"] <= 2.1
        assert witness["in_range"] is False
        ratios.append(witness["divergence_ratio"])
    print(f"[criterion 08] PASS demo ex2 at n in 256..2048: constructive "
          f"preimage in the ideal at every n, witness ratios {ratios}")


def test_criterion_09_demo_l2_local_vs_global():
    doc = demo_l2(1024)
    states = [s["x0"] for s in doc["states"]]
    assert states == [round(0.1 * i, 1) for i in range(1, 10)]
    scale = 2.0  # 1 + sup of the coordinate probe
    worst = max(s["residual"] for s in doc["states"])
    assert worst <= 1e-9 * scale
    for key in ("1", "10", "1e+06"):
        assert doc["majorization_gaps"][key] < -1e-6
    print(f"[criterion 09] PASS demo l2 at n=1024: decomposition residual "
          f"<= {worst:.3e} across 9 states, majorization gap -1.0 at every c")


def test_criterion_10_cli_sweep_determinism(capsys):
    argv = ["sweep", "--seed", "42", "--trials", "50", "--max-dim", "6"]
    start = time.perf_counter()
    code_first = main(list(argv))
    out_first = capsys.readouterr().out
    code_second = main(list(argv))
    out_second = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    assert code_first == 0 and code_second == 0
    assert out_first == out_second
    assert elapsed < 30.0
    doc = json.loads(out_first)
    assert doc["detail"]["all_pass"] is True
    print(f"[criterion 10] PASS cli sweep: two runs byte-identical "
          f"({len(out_first)} bytes), both in {elapsed:.2f}s")
