"""One-sided Jacobi svd on graded spectra, where squaring into A*A loses
every singular value below about sqrt(eps) * sigma_max."""

import numpy as np
import pytest

from opeq import linalg
from opeq.linalg import InputError, frob, pinv, range_projector, spectral_norm, svd

PROBES = (
    [1.0, 1e-4, 1e-7, 1e-9, 0.0, 0.0],
    [1.0, 1e-6, 1e-10, 1e-12, 1e-13, 0.0],
)


def _unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _graded(seed, sigma):
    rng = np.random.default_rng(seed)
    u, v = _unitary(rng, len(sigma)), _unitary(rng, len(sigma))
    return (u * np.array(sigma)) @ v.conj().T


def _pinv_defect(p, a):
    """||P A P - P|| / ||P|| for a computed pseudoinverse P of A."""
    return frob(p @ a @ p - p) / frob(p)


@pytest.mark.parametrize("sigma", PROBES)
@pytest.mark.parametrize("k", [0, 600, -600])
def test_graded_spectrum_matches_numpy(sigma, k):
    for seed in (2024, 7):
        base = _graded(seed, sigma)
        a = np.ldexp(base.real, k) + 1j * np.ldexp(base.imag, k)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(svd(a).singulars - ref)) <= 1e-15 * 2.0**k
        assert _pinv_defect(pinv(a), a) <= 10.0 * _pinv_defect(np.linalg.pinv(a), a)


def test_graded_rank_keeps_every_sigma_above_the_cutoff():
    # cutoff 6 * 2**-50 ~ 5.3e-15: 1e-13 is kept, the exact zeros are not
    assert svd(_graded(2024, PROBES[0])).rank == 4
    assert svd(_graded(2024, PROBES[1])).rank == 5


def test_svd_refuses_non_convergence(monkeypatch):
    a = _graded(11, [3.0, 2.0, 1.5, 1.0, 0.5, 0.25])
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(InputError, match="did not converge"):
        svd(a)


def test_svd_family_never_squares(monkeypatch):
    def forbidden(_):
        raise AssertionError("herm_eig called")

    monkeypatch.setattr(linalg, "herm_eig", forbidden)
    a = _graded(5, PROBES[1])
    svd(a)
    u = svd(a).left
    assert frob(range_projector(a) - u @ u.conj().T) == 0.0
    assert spectral_norm(a) == svd(a).singulars[0]
