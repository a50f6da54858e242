"""A Jacobi pivot below the normal range is dead (no rotation, as for a
zero pivot). numpy divides a complex pivot by its magnitude through the
reciprocal, which overflows there, so the rotation phase came out inf or
NaN: herm_eig and svd refused valid inputs or returned NaN factors."""

import warnings

import numpy as np
import pytest

from opeq.linalg import _rotations, herm_eig, svd
from opeq.sweep import random_matrix, random_psd

DRAWS = 300


def test_subnormal_pivot_gives_the_identity_rotation():
    pivots = np.array([7.2e-313 + 3e-313j, 0.0, 5e-324, 0.25])
    app = np.array([0.78, 1.0, 2.0, 1.0])
    aqq = np.array([0.5, 3.0, 2.0, 1.0])
    rot = np.empty((4, 2, 2), dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag = _rotations(app, aqq, pivots, rot.reshape(-1), np.arange(rot.size))
    # t = 0, and the phase is 1 + i Im(pivot)
    assert np.abs(rot[:3] - np.eye(2)).max() < 2.0**-1022
    # t = 0 exactly (J's (1, 0) entry is -t c), so app and aqq do not move
    assert np.array_equal(rot[:3, 1, 0], np.zeros(3))
    assert np.array_equal(diag[:3], app[:3]) and np.array_equal(diag[4:7], aqq[:3])
    # a normal pivot still rotates: equal diagonals give the 45-degree J
    assert rot[3, 0, 0] == pytest.approx(2**-0.5) and app[3] - diag[3] == pytest.approx(0.25)


@pytest.mark.parametrize("n, rank", [(8, 4), (12, 6)])
def test_herm_eig_of_shifted_low_rank_psd(n, rank):
    # the repeated eigenvalue c drives pivots through the subnormal range
    rng = np.random.default_rng(3)
    for _ in range(DRAWS):
        m = random_psd(rng, n, rank=rank) + 10 ** rng.uniform(-1, 1) * np.eye(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = herm_eig(m)
        assert np.isfinite(eig.values).all() and np.isfinite(eig.vectors).all()
        reco = (eig.vectors * eig.values) @ eig.vectors.conj().T
        assert np.linalg.norm(reco - m) <= 1e-12 * np.linalg.norm(m)


@pytest.mark.parametrize("cols", [8, 12])
def test_svd_of_a_full_rank_row(cols):
    rng = np.random.default_rng(3)
    for _ in range(DRAWS):
        m = random_matrix(rng, 1, cols, rank=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = svd(m)
        assert np.isfinite(f.right).all() and np.isfinite(f.left).all()
        reco = f.left * f.singulars @ f.right[:, :1].conj().T
        assert np.linalg.norm(reco - m) <= 1e-12 * np.linalg.norm(m)
