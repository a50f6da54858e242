"""One scale rule: linalg._prescaled picks the power of two for the kernels,
for orthonormalize and for both root-taking solvers, so pt_solve,
riccati_geomean and orthonormalize are exactly equivariant under
power-of-two scalings and stay right at scales where the sandwich
H^{1/2} K H^{1/2} or a column's squared norm would leave the
floating-point range."""

import json
import math
import warnings

import numpy as np
import pytest

from opeq.cli import main
from opeq.linalg import _prescaled, orthonormalize
from opeq.matio import save_matrix
from opeq.solvers import pt_solve, riccati_geomean
from opeq.sweep import random_matrix, random_psd, random_psd_singular, random_spd

H = np.array([[1.0, 0.9], [0.9, 1.0]])
K = np.array([[1.0, 0.5], [0.5, 1.0]])
A_MIN = math.sqrt(5.0)
SCALES = (1e-310, 1e-300, 1e300, 1e307)


def _exponent(top: float) -> int:
    return _prescaled(np.array([[top]], dtype=np.complex128))[1]


def test_prescaled_exponent_is_zero_inside_the_window():
    assert _exponent(2.0**-33) == 0
    assert _exponent(math.nextafter(2.0**31, 0.0)) == 0
    assert _exponent(1.0) == 0
    assert _exponent(0.0) == 0


def test_prescaled_exponent_steps_by_64_at_the_window_edges():
    assert _exponent(2.0**31) == 64
    assert _exponent(math.nextafter(2.0**-33, 0.0)) == -64


@pytest.mark.parametrize("top", [1e300, -1e300, 1e-300, 5e-324, 3e-310])
def test_prescaled_exponent_is_a_multiple_of_64(top):
    a, e = _prescaled(np.array([[top, 0.5 * top], [0.0, 1j * top]]))
    assert e % 64 == 0 and e != 0
    assert 2.0**-33 <= float(np.abs(a.view(np.float64)).max()) < 2.0**31


def _draws(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 6))
        yield random_spd(rng, n), random_psd(rng, n)


@pytest.mark.parametrize("sh, sk", [(-640, 0), (640, 0), (0, -640), (0, 640),
                                    (-640, -640), (640, 640), (-640, 640)])
def test_pt_solve_is_bitwise_equivariant(sh, sk):
    # X(2**sh H, 2**sk K) = 2**((sk - sh) / 2) X(H, K), bit for bit
    for h, k in _draws(11, 20):
        base = pt_solve(h, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = pt_solve(h * 2.0**sh, k * 2.0**sk)
        assert rep.solvable
        assert np.array_equal(rep.solution, base.solution * 2.0 ** ((sk - sh) // 2))
        assert rep.detail["norm_bound"] == base.detail["norm_bound"] * 2.0 ** ((sk - sh) // 2)


@pytest.mark.parametrize("sh, sk", [(-640, -640), (-640, 640), (640, -640), (640, 640)])
def test_pt_conditions_for_singular_h_are_bitwise_equivariant(sh, sk):
    # the witnesses are those of the prescaled operands, bit for bit, and
    # norm_bound, the lambda of (iv), scales as X does, bit for bit
    rng = np.random.default_rng(14)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        h, k = random_psd_singular(rng, n), random_psd(rng, n)
        base = pt_solve(h, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = pt_solve(h * 2.0**sh, k * 2.0**sk)
        assert not rep.detail["h_nonsingular"]
        assert [r.holds for r in rep.conditions] == [r.holds for r in base.conditions]
        assert ([float(r.witness).hex() for r in rep.conditions]
                == [float(r.witness).hex() for r in base.conditions])
        assert rep.detail["norm_bound"] == base.detail["norm_bound"] * 2.0 ** ((sk - sh) // 2)


@pytest.mark.parametrize("sa, sb", [(-640, 0), (640, 0), (0, -640), (0, 640), (-640, 640)])
def test_riccati_geomean_is_bitwise_equivariant(sa, sb):
    # (2**sa A) # (2**sb B) = 2**((sa + sb) / 2) (A # B), bit for bit
    for a, b in _draws(12, 20):
        base = riccati_geomean(a, b).solution
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = riccati_geomean(a * 2.0**sa, b * 2.0**sb).solution
        assert np.array_equal(g, base * 2.0 ** ((sa + sb) // 2))


@pytest.mark.parametrize("s", SCALES)
def test_pt_solve_at_extreme_scales(s):
    x = pt_solve(H, K).solution
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = pt_solve(s * H, s * K)
    assert rep.solvable
    assert abs(rep.detail["norm_bound"] - A_MIN) <= 1e-15 * A_MIN
    assert np.max(np.abs(rep.solution - x)) <= 4e-15


@pytest.mark.parametrize("s", SCALES)
def test_cli_solve_pt_at_extreme_scales(s, tmp_path, capsys):
    x = pt_solve(H, K).solution
    ph, pk = tmp_path / "h.json", tmp_path / "k.json"
    save_matrix(str(ph), (s * H).astype(complex))
    save_matrix(str(pk), (s * K).astype(complex))
    assert main(["solve", "pt", "--H", str(ph), "--K", str(pk)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "solved"
    assert abs(doc["detail"]["norm_bound"] - A_MIN) <= 1e-15 * A_MIN
    sol = np.array(doc["solution"]["data"]).reshape(2, 2, 2)
    assert np.max(np.abs(sol[..., 0] + 1j * sol[..., 1] - x)) <= 4e-15


@pytest.mark.parametrize("shift", [-640, 640])
def test_orthonormalize_is_bitwise_scale_free(shift):
    rng = np.random.default_rng(13)
    for _ in range(20):
        rows = int(rng.integers(1, 7))
        g = random_matrix(rng, rows, int(rng.integers(1, rows + 1)), rank=rows)
        assert np.array_equal(orthonormalize(g * 2.0**shift), orthonormalize(g))


@pytest.mark.parametrize("s", [1e300, 1e-170])
def test_orthonormalize_at_extreme_scales(s):
    # unscaled, the column norms overflow at 1e300 and fall below an
    # absolute dependence test at 1e-170
    g = random_matrix(np.random.default_rng(14), 5, 3, rank=3)
    q = orthonormalize(s * g)
    assert np.abs(q.conj().T @ q - np.eye(3)).max() <= 1e-14
    assert np.linalg.norm(g - q @ (q.conj().T @ g)) <= 1e-14 * np.linalg.norm(g)


def test_orthonormalize_keeps_graded_columns():
    # unscaled, the second column's squared norm is 0 in the first case and
    # subnormal in the second
    q = orthonormalize([[1.0, 0.0], [0.0, 1e-200], [0.0, 0.0]])
    assert np.array_equal(q, np.eye(3, 2))
    q = orthonormalize([[1.0, 1e-160], [0.0, 1e-160], [0.0, 0.0]])
    eps = np.finfo(np.float64).eps
    assert np.abs(np.linalg.norm(q, axis=0) - 1.0).max() <= 4 * eps
    assert abs(q[:, 0].conj() @ q[:, 1]) <= 4 * eps
