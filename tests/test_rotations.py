"""linalg._rotations, the one Jacobi rotation rule of herm_eig and svd, on
seeded 2x2 Hermitian blocks G = [[app, g], [g*, aqq]]: the rotation it
builds diagonalizes G, and its scalar arithmetic gives the bits of the
vectorized form of the same rule. Plus svd's wide path, which factors the
adjoint."""

import numpy as np
import pytest

from opeq.linalg import _rotations, svd
from opeq.sweep import random_matrix

EPS = np.finfo(np.float64).eps
KINDS = ("generic", "zero", "subnormal", "equal", "huge_tau", "signed_zero")


def _vectorized(app, aqq, pivots, rot):
    """The rule as numpy array operations, one call per step: the reference
    whose bits the scalar loop must give."""
    mag = np.abs(pivots)
    dead = mag < 2.0**-1022
    safe = mag + dead
    with np.errstate(over="ignore"):
        tau = (aqq - app) / (safe + safe)
        root = 1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    root[dead] = 0.0
    t = np.copysign(root, tau)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    phase = pivots / safe + dead
    np.multiply(c, phase, out=rot[:, 0, 0])
    np.multiply(s, phase, out=rot[:, 0, 1])
    np.negative(s, out=rot[:, 1, 0])
    rot[:, 1, 1] = c
    return t * mag


def _signed_zero(rng, size):
    return np.copysign(0.0, rng.standard_normal(size))


def _blocks(kind, seed, count=12):
    """count blocks of one kind as (app, aqq, pivots), diagonals up to 1e3
    and pivots up to 1e2 in magnitude, as herm_eig's scaled operands have."""
    rng = np.random.default_rng(seed)
    app = rng.standard_normal(count) * 10.0 ** rng.uniform(-3, 3, count)
    aqq = rng.standard_normal(count) * 10.0 ** rng.uniform(-3, 3, count)
    g = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) * 10.0 ** rng.uniform(-3, 2, count)
    if kind == "zero":
        g = _signed_zero(rng, count) + 1j * _signed_zero(rng, count)
    elif kind == "subnormal":
        g = g / np.abs(g) * 10.0 ** rng.uniform(-323, -308, count)
    elif kind == "equal":
        aqq = app.copy()
    elif kind == "huge_tau":
        # |tau| = |aqq - app| / (2 |g|) from about 1e300 past overflow
        g = g / np.abs(g) * 10.0 ** rng.uniform(-307.5, -300, count)
    elif kind == "signed_zero":
        real = rng.random(count) < 0.5
        g = np.where(real, g.real + 1j * _signed_zero(rng, count), _signed_zero(rng, count) + 1j * g.imag)
    return app, aqq, g


def _strided(app, aqq, g):
    """The same blocks laid out as herm_eig passes them: .real views and a
    pivot view, strided over one complex buffer."""
    buf = np.zeros(5 * len(g), dtype=np.complex128)
    buf[0::5], buf[2::5], buf[3::5] = app, aqq, g
    return buf[0::5].real, buf[2::5].real, buf[3::5]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rotation_diagonalizes_each_block(kind, seed):
    app, aqq, g = _blocks(kind, seed)
    rot = np.empty((len(g), 2, 2), dtype=np.complex128)
    diag = _rotations(app, aqq, g, rot.reshape(-1), np.arange(rot.size))
    for i in range(len(g)):
        block = np.array([[app[i], g[i]], [np.conj(g[i]), aqq[i]]])
        norm = np.linalg.norm(block)
        j = rot[i]
        rotated = j.conj().T @ block @ j
        assert np.abs(j.conj().T @ j - np.eye(2)).max() <= 4 * EPS
        assert abs(rotated[0, 1]) <= 4 * EPS * norm
        # the diagonal herm_eig writes, to the rounding of both sides
        assert abs(rotated[0, 0] - diag[i]) <= 8 * EPS * norm
        assert abs(rotated[1, 1] - diag[len(g) + i]) <= 8 * EPS * norm
        assert abs(j[1, 0]) <= abs(j[1, 1])


@pytest.mark.parametrize("kind", KINDS)
def test_scalar_loop_gives_the_vectorized_bits(kind):
    for seed in range(20):
        app, aqq, g = _blocks(kind, seed)
        expect = np.empty((len(g), 2, 2), dtype=np.complex128)
        expect_shift = _vectorized(app, aqq, g, expect)
        expect_diag = np.concatenate([app - expect_shift, aqq + expect_shift])
        for args in ((app, aqq, g), _strided(app, aqq, g)):
            rot = np.empty_like(expect)
            diag = _rotations(*args, rot.reshape(-1), np.arange(rot.size))
            assert rot.tobytes() == expect.tobytes()
            assert np.asarray(diag, dtype=np.float64).tobytes() == expect_diag.tobytes()


@pytest.mark.parametrize("rows, cols", [(1, 5), (2, 6), (3, 4), (4, 12)])
def test_wide_svd_is_the_adjoint_svd_swapped(rows, cols):
    rng = np.random.default_rng(rows * cols)
    for rank in range(rows + 1):
        a = random_matrix(rng, rows, cols, rank=rank)
        wide, tall = svd(a), svd(a.conj().T)
        assert wide.left.tobytes() == tall.right.tobytes()
        assert wide.right.tobytes() == tall.left.tobytes()
        assert wide.singulars.tobytes() == tall.singulars.tobytes()
        assert wide.sweeps == tall.sweeps
