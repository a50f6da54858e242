"""An operand that must be PSD is refused by the factorization that factors
it: the pivoted Cholesky stops at its cutoff, and the Schur complement it
leaves there, relative to the operand (Cholesky.remainder), must lie in
the clamp window PSD_CLAMP_TOL. m is congruent to diag(I, S), so S keeps
every negative eigenvalue of m, also where no pivot is ever taken."""

import numpy as np
import pytest

from opeq.conditions import verify_solution
from opeq.linalg import PSD_CLAMP_TOL, InputError, _psd_cholesky, cholesky, psd_sqrt
from opeq.solvers import pt_solve, riccati_geomean

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _refusal(call):
    with pytest.raises(InputError) as info:
        call()
    return str(info.value)


def test_zero_diagonal_indefinite_operand_is_refused():
    # both diagonal entries are 0, so the first pivot is already at the
    # cutoff and S is all of m
    assert cholesky(SWAP).lower.shape == (2, 0) and cholesky(SWAP).remainder == 1.0
    eye = np.eye(2)
    assert "H is not PSD" in _refusal(lambda: pt_solve(SWAP, eye))
    assert "K is not PSD" in _refusal(lambda: pt_solve(eye, SWAP))
    assert "a is not PSD" in _refusal(lambda: riccati_geomean(SWAP, eye))
    assert "a is not PSD" in _refusal(lambda: verify_solution("riccati", eye, a=SWAP, b=eye))
    assert "b is not PSD" in _refusal(lambda: riccati_geomean(eye, SWAP))
    assert "is not PSD" in _refusal(lambda: psd_sqrt(SWAP))


def _unitary(rng, n):
    z = rng.normal(size=(n, 2 * n)).view(np.complex128)
    q, r = np.linalg.qr(z)
    return q * (r.diagonal() / abs(r.diagonal()))


def test_refusal_band():
    # one negative eigenvalue -delta beside positive ones in [1e-9, 1],
    # at n <= 16 and every rank: delta >= 1e-9 is refused, delta <= 1e-11
    # is clamped. Between them the edge sits at PSD_CLAMP_TOL up to the
    # congruence and ||m||_F / ||m||_2.
    rng = np.random.default_rng(21)
    for _ in range(400):
        n = int(rng.integers(2, 17))
        r = int(rng.integers(1, n))
        lam = np.zeros(n)
        lam[:r] = 10 ** rng.uniform(-9, 0, size=r)
        lam[0] = 1.0
        far = bool(rng.integers(2))
        delta = 10 ** (rng.uniform(-9, -7) if far else rng.uniform(-14, -11))
        lam[r] = -delta
        q = _unitary(rng, n)
        m = (q * lam) @ q.conj().T
        m = 0.5 * (m + m.conj().T)
        if far:
            assert "H is not PSD" in _refusal(lambda: _psd_cholesky(m, "H"))
        else:
            assert _psd_cholesky(m, "H").rank == r
            assert cholesky(m).remainder <= PSD_CLAMP_TOL
