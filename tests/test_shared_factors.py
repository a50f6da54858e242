"""The factor-sharing scope of herm_eig, svd and cholesky (linalg._shared_factors)."""

import contextlib

import numpy as np
import pytest

from opeq import cli, linalg
from opeq.linalg import InputError, _shared_factors, cholesky, herm_eig, svd
from opeq.matio import save_matrix
from opeq.sweep import SUITES, random_matrix, run_sweep


def _hermitian(rng, n):
    g = random_matrix(rng, n, n, rank=n)
    return 0.5 * (g + g.conj().T)


def _general(rng, n):
    return random_matrix(rng, n, n + 1, rank=n)


def _definite(rng, n):
    g = random_matrix(rng, n, n, rank=n)
    return g @ g.conj().T + np.eye(n)


FACTORS = [
    pytest.param(herm_eig, "_herm_eig_jacobi", _hermitian, ("values", "vectors", "sweeps"), id="herm_eig"),
    pytest.param(svd, "_svd_jacobi", _general, ("left", "singulars", "right", "sweeps"), id="svd"),
    pytest.param(cholesky, "_cholesky_pivoted", _definite, ("lower", "perm", "factor"), id="cholesky"),
]


def _counting(monkeypatch, kernel_name):
    calls = []
    kernel = getattr(linalg, kernel_name)

    def counted(a):
        calls.append(a.shape)
        return kernel(a)

    monkeypatch.setattr(linalg, kernel_name, counted)
    return calls


@pytest.mark.parametrize("factor, kernel_name, draw, names", FACTORS)
def test_repeat_is_shared_inside_and_fresh_outside(factor, kernel_name, draw, names):
    m = draw(np.random.default_rng(5), 4)
    with _shared_factors():
        first = factor(m)
        assert factor(m.copy()) is first
    again = factor(m)
    other = factor(m)
    assert again is not first and other is not again
    for name in names:
        assert np.array_equal(getattr(again, name), getattr(first, name))
        assert np.array_equal(getattr(other, name), getattr(again, name))


def test_results_are_read_only_inside_and_outside():
    rng = np.random.default_rng(6)
    h, g = _hermitian(rng, 3), _general(rng, 3)
    outside = (herm_eig(h), svd(g), cholesky(h @ h))
    with _shared_factors():
        inside = (herm_eig(h), svd(g), cholesky(h @ h))
    for eig, f, c in (outside, inside):
        for arr in (c.lower, c.perm, c.factor):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(ValueError):
            eig.vectors[0, 0] = 1.0
        with pytest.raises(ValueError):
            eig.values[0] = 1.0
        with pytest.raises(ValueError):
            f.left[0, 0] = 1.0
        with pytest.raises(ValueError):
            f.singulars[0] = 1.0
        with pytest.raises(ValueError):
            f.range_basis[0, 0] = 1.0


def test_refusal_is_not_stored(monkeypatch):
    h = _hermitian(np.random.default_rng(17), 6)
    with _shared_factors():
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
        for _ in range(2):
            with pytest.raises(InputError, match="did not converge"):
                herm_eig(h)
        monkeypatch.undo()
        assert 1 <= herm_eig(h).sweeps <= linalg.JACOBI_MAX_SWEEPS


@pytest.mark.parametrize("factor, kernel_name, draw, names", FACTORS)
def test_lru_keeps_the_last_eight_inputs(monkeypatch, factor, kernel_name, draw, names):
    calls = _counting(monkeypatch, kernel_name)
    rng = np.random.default_rng(8)
    inputs = [draw(rng, 3) for _ in range(9)]
    with _shared_factors():
        for m in inputs:
            factor(m)
        assert len(calls) == 9
        for m in inputs[1:]:
            factor(m)
        assert len(calls) == 9
        factor(inputs[0])
        assert len(calls) == 10
    # outside the scope every call runs the kernel
    factor(inputs[0])
    factor(inputs[0])
    assert len(calls) == 12
    # a hit makes its input the most recent: the ninth input evicts the second
    calls.clear()
    with _shared_factors():
        for m in inputs[:8] + [inputs[0], inputs[8], inputs[0]] + inputs[2:]:
            factor(m)
        assert len(calls) == 9
        factor(inputs[1])
        assert len(calls) == 10


def test_run_sweep_shares_factors(monkeypatch):
    calls = _counting(monkeypatch, "_herm_eig_jacobi")
    run_sweep(3, 2, 4)
    shared = len(calls)
    rng = np.random.default_rng(3)
    for suite in SUITES:
        suite(rng, 2, 4)
    assert 0 < shared < len(calls) - shared


@pytest.mark.parametrize("seed", [3, 11])
def test_suites_report_the_same_inside_and_outside(seed):
    for suite in SUITES:
        outside = suite(np.random.default_rng(seed), 10, 6).to_doc()
        with _shared_factors():
            inside = suite(np.random.default_rng(seed), 10, 6).to_doc()
        assert inside == outside, suite.__name__


@pytest.mark.parametrize("command, kernel_name, shared, unshared", [
    (("solve", "riccati"), "_herm_eig_jacobi", 0, 0),
    (("check", "douglas"), "_svd_jacobi", 2, 4),
    (("solve", "riccati"), "_svd_jacobi", 1, 1),
    (("solve", "pt"), "_herm_eig_jacobi", 1, 1),
    (("solve", "pt"), "_svd_jacobi", 1, 1),
    (("solve", "riccati"), "_cholesky_pivoted", 2, 3),
    (("solve", "pt"), "_cholesky_pivoted", 2, 2),
    (("solve", "congruence"), "_herm_eig_jacobi", 0, 0),
    (("solve", "congruence"), "_svd_jacobi", 1, 1),
    (("solve", "congruence"), "_cholesky_pivoted", 1, 1),
])
def test_cli_command_factors_each_operand_once(monkeypatch, tmp_path, capsys,
                                               command, kernel_name, shared, unshared):
    rng = np.random.default_rng(12)
    argv = list(command)
    flags = cli.SOLVE_FLAGS if command[0] == "solve" else cli.CHECK_FLAGS
    for name in flags[command[1]]:
        g = random_matrix(rng, 3, 3, rank=3)
        # exactly Hermitian, so the solvers' Hermitian parts keep its bytes
        h = g @ g.conj().T + np.eye(3)
        path = str(tmp_path / f"{name}.json")
        save_matrix(path, 0.5 * (h + h.conj().T))
        argv += [f"--{name}", path]
    calls = _counting(monkeypatch, kernel_name)
    assert cli.main(argv) == 0
    inside = capsys.readouterr().out
    assert len(calls) == shared
    # without the command's scope: the same report from more factorizations
    monkeypatch.setattr(cli, "_shared_factors", contextlib.nullcontext)
    calls.clear()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == inside
    assert len(calls) == unshared


def test_solve_riccati_factors_a_nearly_hermitian_a_once(monkeypatch, tmp_path, capsys):
    # A is Hermitian only within TOL_PSD: its Hermitian part, which the mean
    # is taken on, is not its bytes, so a residual on A as given would factor
    # A a second time. The residual is taken on the scaled Hermitian operands,
    # so the command factors A once and B once.
    rng = np.random.default_rng(12)
    a = _definite(rng, 3) + 1e-13 * random_matrix(rng, 3, 3, rank=3)
    b = _definite(rng, 3)
    assert not np.array_equal(a, a.conj().T)
    argv = ["solve", "riccati"]
    for name, m in (("A", a), ("B", 0.5 * (b + b.conj().T))):
        path = str(tmp_path / f"{name}.json")
        save_matrix(path, m)
        argv += [f"--{name}", path]
    calls = _counting(monkeypatch, "_cholesky_pivoted")
    assert cli.main(argv) == 0
    assert len(calls) == 2
