import numpy as np
import pytest

from opeq import linalg
from opeq.linalg import (
    InputError,
    _hermitian_prescaled,
    _unscale,
    adjoint,
    as_matrix,
    cholesky,
    frob,
    herm_eig,
    orthonormalize,
    pinv,
    psd_gap,
    psd_power,
    psd_sqrt,
    range_projector,
    spectral_norm,
    svd,
)
from opeq.solvers import congruence_solve
from opeq.sweep import random_matrix, random_psd


def test_herm_eig_frozen_pauli_x():
    eig = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(eig.values, [-1.0, 1.0], atol=1e-14)


def test_herm_eig_frozen_diagonal_sorted():
    eig = herm_eig(np.diag([3.0, 1.0]))
    assert np.allclose(eig.values, [1.0, 3.0])
    # eigenvectors follow the sort
    assert abs(abs(eig.vectors[1, 0]) - 1.0) < 1e-14
    assert abs(abs(eig.vectors[0, 1]) - 1.0) < 1e-14


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(InputError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eig_reconstruction_and_unitarity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = 0.5 * (g + g.conj().T)
        eig = herm_eig(h)
        scale = 1.0 + frob(h)
        assert frob((eig.vectors * eig.values) @ eig.vectors.conj().T - h) / scale <= 1e-10
        assert frob(eig.vectors.conj().T @ eig.vectors - np.eye(n)) <= 1e-10
        assert np.all(np.diff(eig.values) >= 0)


def test_herm_eig_bit_deterministic():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    h = 0.5 * (g + g.conj().T)
    a = herm_eig(h)
    b = herm_eig(h.copy())
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def _check_eig(h):
    """herm_eig(h) against numpy.linalg.eigvalsh, plus its own invariants."""
    n = h.shape[0]
    eig = herm_eig(h)
    scale = max(frob(h), 1.0)
    assert frob((eig.vectors * eig.values) @ eig.vectors.conj().T - h) / scale <= 1e-10
    assert frob(eig.vectors.conj().T @ eig.vectors - np.eye(n)) <= 1e-10
    ref = np.linalg.eigvalsh(h)
    assert np.max(np.abs(eig.values - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)
    assert np.all(np.diff(eig.values) >= 0)
    again = herm_eig(h.copy())
    assert np.array_equal(eig.values, again.values)
    assert np.array_equal(eig.vectors, again.vectors)
    return eig


def test_herm_eig_round_robin_edge_cases():
    rng = np.random.default_rng(23)
    assert _check_eig(np.array([[2.5]])).sweeps == 0
    for n in range(1, 25):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        _check_eig(0.5 * (g + g.conj().T))
        # zero pivots everywhere: every pair gets the identity
        assert _check_eig(np.zeros((n, n))).sweeps == 0
        assert _check_eig(np.diag(rng.normal(size=n))).sweeps == 0
        # block-diagonal: pairs that straddle the blocks stay zero
        b = np.zeros((n, n), dtype=complex)
        k = n // 2
        b[:k, :k] = 0.5 * (g[:k, :k] + g[:k, :k].conj().T)
        b[k:, k:] = 0.5 * (g[k:, k:] + g[k:, k:].conj().T)
        _check_eig(b)
        # repeated eigenvalue 1 of multiplicity n - 1
        u = np.linalg.qr(g)[0][:, 0]
        values = _check_eig(np.eye(n) + 3.0 * np.outer(u, u.conj())).values
        assert np.allclose(values, [1.0] * (n - 1) + [4.0], atol=1e-12)


def _check_svd(m):
    """svd(m) against numpy.linalg.svd, plus its own invariants."""
    rows, cols = m.shape
    f = svd(m)
    r = f.rank
    # the thin factors: U_r is rows x r and V_r is cols x r
    assert f.left.shape == (rows, r) and f.right.shape == (cols, r)
    scale = max(frob(m), 1.0)
    recon = (f.left * f.singulars[:r]) @ f.right.conj().T
    assert frob(recon - m) / scale <= 1e-10
    assert frob(f.left.conj().T @ f.left - np.eye(r)) <= 1e-10
    assert frob(f.right.conj().T @ f.right - np.eye(r)) <= 1e-10
    ref = np.linalg.svd(m, compute_uv=False)
    assert np.max(np.abs(f.singulars - ref)) <= 1e-12 * max(ref[0], np.finfo(float).tiny)
    again = svd(m.copy())
    for name in ("left", "singulars", "right"):
        assert np.array_equal(getattr(f, name), getattr(again, name))
    return f


def test_svd_round_robin_edge_cases():
    rng = np.random.default_rng(37)
    for k in range(1, 25):
        c = int(rng.integers(1, 25))
        # every row and column count in 1..24, tall and wide, odd ones padded
        for rows, cols in ((k, c), (c, k)):
            _check_svd(random_matrix(rng, rows, cols, rank=min(rows, cols)))
            r = int(rng.integers(0, min(rows, cols) + 1))
            assert _check_svd(random_matrix(rng, rows, cols, rank=r)).rank == r
            # zero pivots everywhere: the first sweep finds every pair settled
            assert _check_svd(np.zeros((rows, cols))).sweeps == 1
            d = np.zeros((rows, cols))
            diag = rng.normal(size=min(rows, cols))
            np.fill_diagonal(d, diag)
            f = _check_svd(d)
            assert f.sweeps == 1
            assert np.array_equal(f.singulars, np.sort(np.abs(diag))[::-1])
            # block-diagonal: pairs that straddle the blocks stay orthogonal
            g = random_matrix(rng, rows, cols, rank=min(rows, cols))
            b = np.zeros((rows, cols), dtype=complex)
            br, bc = rows // 2, cols // 2
            b[:br, :bc] = g[:br, :bc]
            b[br:, bc:] = g[br:, bc:]
            _check_svd(b)


def test_round_robin_schedule_meets_every_pair_once_per_sweep():
    rng = np.random.default_rng(29)
    for n in range(2, 26, 2):
        scatter, moved, _ = linalg._sweep_plan(n)
        # with every rotation the identity, Q is the move P alone: column j
        # of the next layout is column src[j] of this one
        move = np.zeros((n, n))
        move.reshape(-1)[scatter] = np.tile(np.eye(2), (n // 2, 1, 1)).reshape(-1)
        src = np.argmax(move, axis=0)
        assert np.array_equal(move, np.eye(n)[:, src])
        # Q = J P: column j of Q is column src[j] of the block-diagonal J
        rot = rng.normal(size=(n // 2, 2, 2)) + 1j * rng.normal(size=(n // 2, 2, 2))
        q = np.zeros((n, n), dtype=complex)
        q.reshape(-1)[scatter] = rot.reshape(-1)
        j = np.zeros((n, n), dtype=complex)
        for i in range(n // 2):
            j[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = rot[i]
        assert np.array_equal(q, j[:, src])
        # each pair's (p, p), (q, q), (p, q) and (q, p) after the move P* A P
        a = rng.normal(size=(n, n))
        p = np.arange(0, n, 2)
        expected = np.concatenate([a[p, p], a[p + 1, p + 1], a[p, p + 1], a[p + 1, p]])
        assert np.array_equal(a[np.ix_(src, src)].reshape(-1)[moved], expected)
        layout = np.arange(n)
        met = set()
        for _ in range(n - 1):
            met.update(frozenset(p) for p in layout.reshape(-1, 2).tolist())
            layout = layout[src]
        assert len(met) == n * (n - 1) // 2
        assert np.array_equal(layout, np.arange(n))


def test_herm_eig_extreme_scales_match_eigvalsh():
    rng = np.random.default_rng(31)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 0.5 * (g + g.conj().T)
    ref = np.linalg.eigvalsh(h)
    for scale in (1e-300, 1e-170, 1e-160, 1e160, 1e170):
        values = herm_eig(h * scale).values / scale
        assert np.max(np.abs(values - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the prescale is an exact power of two, so in the normal range a
    # power-of-two rescaling of the input changes no bit of the result
    base = herm_eig(h)
    for k in (-40, 37):
        other = herm_eig(np.ldexp(h.real, k) + 1j * np.ldexp(h.imag, k))
        assert np.array_equal(other.values, np.ldexp(base.values, k))
        assert np.array_equal(other.vectors, base.vectors)
    with pytest.raises(InputError, match="not Hermitian"):
        herm_eig(np.array([[1.0, 1.0], [0.0, 1.0]]) * 1e160)
    with pytest.raises(InputError, match="overflow"):
        herm_eig(np.full((4, 4), 1e308))


def test_herm_eig_non_convergence_is_input_error(monkeypatch):
    rng = np.random.default_rng(17)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = 0.5 * (g + g.conj().T)
    sweeps = herm_eig(h).sweeps
    assert 1 <= sweeps <= linalg.JACOBI_MAX_SWEEPS
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(InputError, match="did not converge"):
        herm_eig(h)


def test_svd_matches_reference_singular_values():
    rng = np.random.default_rng(19)
    for _ in range(30):
        m, n = rng.integers(2, 9, size=2)
        a = random_matrix(rng, int(m), int(n))
        mine = svd(a).singulars
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(mine - ref)) <= 1e-10 * (1.0 + ref[0])


def test_svd_rank_exact_on_constructed_rank():
    rng = np.random.default_rng(23)
    for _ in range(100):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        r = int(rng.integers(0, min(m, n) + 1))
        a = random_matrix(rng, m, n, rank=r)
        assert svd(a).rank == r


def test_penrose_identities_mixed_rank():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        a = random_matrix(rng, m, n)
        ap = pinv(a)
        scale = 1.0 + frob(a)
        pscale = 1.0 + frob(ap)
        worst = max(
            worst,
            frob(a @ ap @ a - a) / scale,
            frob(ap @ a @ ap - ap) / pscale,
            frob(adjoint(a @ ap) - a @ ap) / scale,
            frob(adjoint(ap @ a) - ap @ a) / pscale,
        )
    assert worst <= 1e-10


def test_pinv_zero_matrix():
    assert np.array_equal(pinv(np.zeros((3, 5))), np.zeros((5, 3)))


def test_psd_power_rejects_indefinite():
    with pytest.raises(InputError):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_psd_power_clamps_roundoff_negatives():
    s = psd_sqrt(np.diag([1.0, -1e-12]))
    assert s[1, 1] == 0.0


def test_psd_sqrt_zero_floor_kills_gram_noise():
    # squaring pushes the zero eigenspace into formation noise; the sqrt
    # must come back clean rather than at sqrt(eps)
    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        s = random_psd(rng, n)
        err = frob(psd_sqrt(s @ s) - s) / (1e-30 + frob(s))
        assert err <= 1e-8


def test_psd_sqrt_exact_diagonal():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)


def test_psd_quarter_power():
    q = psd_power(np.diag([16.0, 1.0]), 0.25)
    assert np.allclose(q, np.diag([2.0, 1.0]), atol=1e-12)


def test_range_projector_idempotent_hermitian():
    rng = np.random.default_rng(40)
    for _ in range(40):
        a = random_matrix(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        p = range_projector(a)
        assert frob(p @ p - p) <= 1e-10 * (1.0 + frob(p))
        assert frob(p - adjoint(p)) <= 1e-12 * (1.0 + frob(p))


def test_range_projector_gram_identity():
    rng = np.random.default_rng(41)
    for _ in range(40):
        a = random_matrix(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        gap = np.max(np.abs(range_projector(a) - range_projector(a @ a.conj().T)))
        assert gap <= 1e-9


def test_spectral_norm_matches_reference():
    rng = np.random.default_rng(55)
    for _ in range(30):
        a = random_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        assert abs(spectral_norm(a) - np.linalg.norm(a, 2)) <= 1e-10 * (1.0 + frob(a))


def test_psd_gap_sign():
    assert psd_gap(np.eye(2), 2.0 * np.eye(2)) == pytest.approx(1.0)
    assert psd_gap(2.0 * np.eye(2), np.eye(2)) == pytest.approx(-1.0)


def test_orthonormalize_rejects_dependent_columns():
    with pytest.raises(InputError):
        orthonormalize(np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_as_matrix_validation():
    with pytest.raises(InputError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(InputError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InputError):
        as_matrix(np.array([[np.inf]], dtype=complex))


def test_psd_power_derives_rank_basis_and_pseudoinverse_powers():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n))
        m = random_psd(rng, n, rank=r)
        c = cholesky(m)
        assert c.rank == r and not c.definite
        u = svd(c.factor).range_basis
        assert u.shape == (n, r)
        assert frob(u @ u.conj().T - range_projector(m)) <= 1e-10
        half = psd_power(m, 0.5)
        assert frob(half @ half - m) <= 1e-10 * (1.0 + frob(m))
        assert frob(psd_power(m, -0.5) - pinv(half)) <= 1e-8 * (1.0 + frob(pinv(half)))
    assert cholesky(np.diag([2.0, 3.0])).definite
    with pytest.raises(InputError, match="H is not PSD"):
        linalg._psd_cholesky(np.diag([1.0, -1.0]), "H")


def test_cholesky_factors_and_substitutes():
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        r = int(rng.integers(1, n + 1))
        m = random_psd(rng, n, rank=r)
        c = cholesky(m)
        assert c.lower.shape == (n, r) and c.definite == (r == n)
        assert np.array_equal(np.triu(c.lower, 1), np.zeros((n, r)))
        assert np.all(c.lower.diagonal().real > 0) and np.all(c.lower.diagonal().imag == 0)
        assert np.array_equal(c.factor[c.perm], c.lower)
        f = c.factor
        assert frob(f @ f.conj().T - m) <= 1e-13 * frob(m)
        # the factor scales back exactly: 2**(e/2) for m times 2**e
        assert np.array_equal(cholesky(m * 2.0**-640).factor, f * 2.0**-320)
        if c.definite:
            y = random_matrix(rng, n, 3)
            assert frob(c.solve(f @ y) - y) <= 1e-10 * frob(y)
            assert frob(c.solve_adjoint(f.conj().T @ y) - y) <= 1e-10 * frob(y)
    assert cholesky(np.zeros((3, 3))).lower.shape == (3, 0)
    assert not cholesky(np.diag([1.0, -1e-12])).definite
    with pytest.raises(InputError, match="square"):
        cholesky(np.ones((2, 3)))
    with pytest.raises(InputError, match="not Hermitian"):
        cholesky(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_svd_pinv_spectral_norm_at_extreme_scales():
    b = np.array([[2.0, 1.0], [1.0, 3.0]])
    sigma = np.array([(5.0 + 5.0**0.5) / 2.0, (5.0 - 5.0**0.5) / 2.0])
    for scale in (1e-170, 1e160):
        m = b * scale
        r = svd(m)
        assert r.rank == 2
        assert np.max(np.abs(r.singulars - sigma * scale)) <= 1e-14 * sigma[0] * scale
        ref = np.linalg.pinv(m)
        assert np.max(np.abs(pinv(m) - ref)) <= 1e-13 * np.max(np.abs(ref))
        top = np.linalg.norm(m, 2)
        assert abs(spectral_norm(m) - top) <= 2.0 * np.spacing(top)
    # the prescale is an exact power of two, so in the normal range a
    # power-of-two rescaling of the input changes no bit of the result
    rng = np.random.default_rng(59)
    a = random_matrix(rng, 5, 3)
    base = svd(a)
    for k in (-40, 37):
        other = svd(np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k))
        assert np.array_equal(other.singulars, np.ldexp(base.singulars, k))
        assert np.array_equal(other.left, base.left)
        assert np.array_equal(other.right, base.right)
    for fn in (svd, spectral_norm):
        with pytest.raises(InputError, match="overflow"):
            fn(np.full((4, 4), 1e308))


def test_hermitian_check_holds_at_extreme_scales():
    upper = np.array([[1.0, 1.0], [0.0, 1.0]])
    herm = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
    for scale in (1e-170, 1e160):
        with pytest.raises(InputError, match="H is not Hermitian"):
            _hermitian_prescaled(as_matrix(upper * scale), "H")
        with pytest.raises(InputError, match="C is not Hermitian"):
            congruence_solve(np.eye(2), upper * scale)
        part, exp, _ = _hermitian_prescaled(as_matrix(herm * scale), "H")
        assert np.array_equal(_unscale(part, exp, "H overflows"), herm * scale)


def test_svd_counts_its_sweeps():
    # a diagonal input is settled on the first sweep, which still counts
    assert svd(np.diag([3.0, 1.0])).sweeps == 1
    rng = np.random.default_rng(29)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    f = svd(g)
    assert 1 <= f.sweeps <= linalg.JACOBI_MAX_SWEEPS
    assert svd(g).sweeps == f.sweeps
