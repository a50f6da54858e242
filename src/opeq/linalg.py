"""Dense complex linear algebra kernel.

Everything numerically delicate here runs on two Jacobi kernels with one
round-robin schedule (Brent and Luk) and one rotation rule: :func:`herm_eig`
rotates a Hermitian matrix from both sides, :func:`svd` rotates the columns
of m itself and never squares it. A round rotates n/2 disjoint pairs at
once in a fixed order, so the same input bits give the same output bits
within one build. herm_eig, svd, frob and hermitian_part first scale their
input by an exact power of two, so norms neither overflow nor underflow,
and non-convergence raises :class:`InputError`. A result that leaves the
floating-point range anyway is refused by :func:`require_finite`, never
returned as inf or NaN.

Each operand is factored once and everything else is read off that one
factorization. A general matrix gets an :class:`SvdResult`, which gives its
rank (by one fixed relative cutoff, RANK_CUTOFF), pseudoinverse and range
basis; a PSD matrix gets a :class:`PsdFactor`, which gives its rank, range
basis and every (pseudoinverse) power.

Matrices are plain numpy arrays with dtype complex128. Helpers here accept
anything ``np.asarray`` can turn into a finite 2-D array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Assertion tolerances (relative).
TOL_PSD = 1e-9
TOL_HERMITIAN = 1e-10

# Negativity window clamped to zero when taking PSD roots/powers.
PSD_CLAMP_TOL = 1e-10
PSD_ZERO_FLOOR = 1e-13

# A Hermitian PSD matrix counts as nonsingular when its least eigenvalue
# exceeds this fraction of its spectral norm.
TOL_NONSINGULAR = 1e-8

# Jacobi sweep control: herm_eig's off-diagonal mass and svd's column-pair
# inner products must fall to JACOBI_OFF_TOL relative to the norms involved.
JACOBI_OFF_TOL = 1e-14
JACOBI_MAX_SWEEPS = 100

# svd counts a singular value as zero when it is at most
# max(rows, cols) * RANK_CUTOFF times the largest one.
RANK_CUTOFF = 2.0**-50


class InputError(ValueError):
    """Raised when an operand violates a documented precondition."""


def as_matrix(m) -> np.ndarray:
    """Coerce input to a finite 2-D complex128 array (copying if needed)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise InputError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise InputError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.isfinite(a).all():
        raise InputError("matrix entries must be finite")
    return a


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def _prescaled(m) -> tuple[np.ndarray, int]:
    """A copy of as_matrix(m) scaled by the power of two 2**-e that brings
    its largest real or imaginary part into [0.5, 1), and e. The scaling is
    exact except for entries it pushes below the normal range."""
    a = np.array(as_matrix(m), order="C")
    parts = a.view(np.float64)
    exp = math.frexp(float(np.abs(parts).max()))[1]
    np.ldexp(parts, -exp, out=parts)
    return a, exp


def require_finite(values, what: str):
    """values, or InputError(f"{what} the floating-point range") when an
    entry is not finite: the one refusal for results that overflow."""
    if not np.isfinite(values).all():
        raise InputError(f"{what} the floating-point range")
    return values


def _unscale(values: np.ndarray, exp: int, what: str) -> np.ndarray:
    """A real or complex array times 2**exp, undoing :func:`_prescaled`;
    raises InputError when that leaves the floating-point range."""
    values = np.ascontiguousarray(values)
    with np.errstate(over="ignore"):
        return require_finite(np.ldexp(values.view(np.float64), exp).view(values.dtype), what)


def frob(m) -> float:
    """Frobenius norm, taken after scaling by the power of two that brings
    the largest real or imaginary part into [0.5, 1), as in
    :func:`_prescaled`, so that squaring the entries neither overflows nor
    underflows. The scaling is exact and keeps the dtype and memory order,
    so in the normal range the result is numpy's norm bit for bit. A finite
    matrix whose norm passes the floating-point range raises InputError; a
    non-finite entry gives inf or NaN, as numpy's norm does."""
    a = np.asarray(m)
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    # 2**-exp must itself be a double, so a subnormal top scales by 2**1022
    exp = max(math.frexp(float(np.abs(parts).max(initial=0.0)))[1], -1022)
    try:
        return math.ldexp(float(np.linalg.norm(a * math.ldexp(1.0, -exp))), exp)
    except OverflowError:
        raise InputError("Frobenius norm overflows the floating-point range") from None


@dataclass
class HermitianEig:
    """Eigenvalues (real, ascending), eigenvector columns (unitary) and the
    number of Jacobi sweeps it took."""

    values: np.ndarray
    vectors: np.ndarray
    sweeps: int


@dataclass
class SvdResult:
    """Full factorization m = left @ diag(singulars) @ right*.

    ``left`` is rows x rows, ``right`` is cols x cols, ``singulars`` has
    min(rows, cols) entries sorted descending, zeros below the rank cutoff.
    """

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.singulars))

    @property
    def range_basis(self) -> np.ndarray:
        """Orthonormal basis U_r of the column space (the kept left columns)."""
        return self.left[:, : self.rank]

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudoinverse V_r diag(1/sigma) U_r*; raises
        InputError when it leaves the floating-point range."""
        kept = self.rank
        with np.errstate(over="ignore", invalid="ignore"):
            core = self.right[:, :kept] * (1.0 / self.singulars[:kept])
            out = core @ self.left[:, :kept].conj().T
        return require_finite(out, "pseudoinverse overflows")


@dataclass
class PsdFactor:
    """Eigenpairs of a Hermitian PSD matrix with its zero eigenvalues made exact.

    ``values`` are ascending and nonnegative: the clamp window and the zero
    floor have already been applied, so rank, range basis and every power
    agree on which directions are null.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.values))

    @property
    def nonsingular(self) -> bool:
        """Least eigenvalue above TOL_NONSINGULAR times the largest."""
        top = float(self.values[-1])
        return top > 0.0 and float(self.values[0]) > TOL_NONSINGULAR * top

    @property
    def range_basis(self) -> np.ndarray:
        """Orthonormal basis U_r of the range: eigenvectors of nonzero eigenvalues."""
        return self.vectors[:, self.values > 0]

    def power(self, exponent: float) -> np.ndarray:
        """m^exponent; a negative exponent gives the pseudoinverse power
        (m^+)^-exponent, which leaves the zero eigenvalues at zero. Raises
        InputError when the power leaves the floating-point range."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if exponent >= 0:
                lam = self.values ** exponent
            else:
                lam = np.zeros_like(self.values)
                pos = self.values > 0
                lam[pos] = 1.0 / self.values[pos] ** -exponent
            out = (self.vectors * lam) @ self.vectors.conj().T
            out = 0.5 * (out + out.conj().T)
        return require_finite(out, "matrix power overflows")


@functools.lru_cache(maxsize=64)
def _sweep_plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The round-robin schedule of an even-order Jacobi sweep: the gather
    (rows, cols) that moves a stacked state [A; V] to the next round's
    layout, with cols[0] the column permutation, and A's off-diagonal mask.

    Circle method: position 0 stays and the other n - 1 positions move one
    step along the ring 2, 4, ..., n - 2, n - 1, n - 3, ..., 1. Any two
    indices sit at some (2i, 2i + 1) in exactly one of n - 1 consecutive
    rounds, and after n - 1 rounds the layout is back at the start. The
    rows of V never move, and svd moves no row of A either.
    """
    ring = np.r_[2:n:2, n - 1 : 0 : -2]
    src = np.arange(n)
    src[np.roll(ring, -1)] = ring
    rows, cols = np.ix_(np.concatenate([src, np.arange(n, 2 * n)]), src)
    off_mask = ~np.eye(n, dtype=bool)
    for arr in (rows, cols, off_mask):
        arr.flags.writeable = False
    return rows, cols, off_mask


def _rotations(app, aqq, pivots, rot: np.ndarray) -> np.ndarray:
    """Fill rot with the J_i = [[c phase, s phase], [-s, c]] that diagonalize
    [[app, pivot], [pivot*, aqq]] as J_i* G J_i (J_i = I for a zero pivot),
    and return t |pivot|, by which app falls and aqq rises."""
    mag = np.abs(pivots)
    dead = mag == 0.0
    safe = mag + dead
    tau = (aqq - app) / (safe + safe)
    # smaller-magnitude root of t^2 + 2*tau*t - 1 = 0, |t| <= 1;
    # it overflows to 0 when the pivot is negligible
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


def herm_eig(m) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix by round-robin Jacobi rotations.

    The input is first scaled by the power of two that brings its largest
    real or imaginary part into [0.5, 1), so that norms neither overflow nor
    underflow; the scaling is exact and the eigenvalues are scaled back. An
    odd n is padded with one decoupled zero row and column. A sweep is the
    n - 1 rounds of :func:`_sweep_plan`; a round annihilates the n/2 pivots
    (2i, 2i + 1) at once by :func:`_rotations`. Stops when the off-diagonal
    Frobenius mass is at most JACOBI_OFF_TOL times the input norm, and
    raises InputError if that takes more than JACOBI_MAX_SWEEPS sweeps. The
    input must satisfy ||m - m*||_F <= TOL_HERMITIAN * ||m||_F.
    """
    a, exp = _prescaled(m)
    n, nc = a.shape
    if n != nc:
        raise InputError(f"eigendecomposition needs a square matrix, got {a.shape}")
    size = n + n % 2
    pairs = size // 2
    # A (rows :size) stacked above V (rows size:): one matmul rotates the
    # columns of both, one gather moves both to the next layout
    state = np.zeros((2 * size, size), dtype=np.complex128)
    top = state[:size]
    top[:n, :n] = a
    # top is already at unit scale, so numpy's norm cannot overflow here
    scale = float(np.linalg.norm(top))
    adj = top.conj().T
    if float(np.linalg.norm(top - adj)) > TOL_HERMITIAN * scale:
        raise InputError("matrix is not Hermitian within tolerance")
    top += adj
    top *= 0.5
    state.reshape(-1)[size * size :: size + 1] = 1.0
    rows, cols, off_mask = _sweep_plan(size)
    target = JACOBI_OFF_TOL * scale
    # per-pair work arrays and views, made once per call
    rot = np.empty((pairs, 2, 2), dtype=np.complex128)
    buf = np.empty_like(state)
    buf_cols = buf.reshape(2 * size, pairs, 2).transpose(1, 0, 2)
    buf_rows = buf[:size].reshape(pairs, 2, size)
    # entries (2i, 2i + 1), (2i + 1, 2i), (2i, 2i) and (2i + 1, 2i + 1) of A in buf
    step = 2 * (size + 1)
    buf_flat = buf.reshape(-1)[: size * size]
    buf_pq, buf_qp = buf_flat[1::step], buf_flat[size::step]
    buf_pp, buf_qq = buf_flat[::step], buf_flat[size + 1 :: step]
    sweeps = 0
    with np.errstate(over="ignore"):
        while float(np.linalg.norm(state[:size][off_mask])) > target:
            if sweeps == JACOBI_MAX_SWEEPS:
                raise InputError(f"Jacobi eigensolver did not converge in {sweeps} sweeps")
            sweeps += 1
            for _ in range(size - 1):
                flat = state.reshape(-1)
                app = flat[: size * size : step].real
                aqq = flat[size + 1 : size * size : step].real
                shift = _rotations(app, aqq, flat[1 : size * size : step], rot)
                # V <- V J and A <- J* A J; then each pivot is exactly zero
                # and the diagonal moves by -/+ t |a_pq|, exactly real
                np.matmul(state.reshape(2 * size, pairs, 2).transpose(1, 0, 2), rot, out=buf_cols)
                np.matmul(rot.conj().transpose(0, 2, 1), buf_rows, out=buf_rows)
                buf_pq[...] = 0.0
                buf_qp[...] = 0.0
                np.subtract(app, shift, out=buf_pp)
                np.add(aqq, shift, out=buf_qq)
                state = buf[rows, cols]
        values = np.diagonal(state).real[:n]
        order = np.argsort(values, kind="stable")
    values = _unscale(values[order], exp, "eigenvalues overflow")
    return HermitianEig(values=values, vectors=state[size:size + n, :n][:, order], sweeps=sweeps)


def svd(m) -> SvdResult:
    """Full singular value decomposition by one-sided (Hestenes) Jacobi on m.

    The prescaled columns are rotated on herm_eig's schedule by its rule:
    each round rotates its n/2 column pairs by the J that diagonalize their
    2x2 Gram matrices, accumulating V. A pair is settled when |a_p* a_q| <=
    JACOBI_OFF_TOL ||a_p|| ||a_q||, or when its smaller column is at most
    c = max(rows, cols) * RANK_CUTOFF times the largest. The first sweep
    that finds every pair settled before rotating it ends the iteration,
    and more than JACOBI_MAX_SWEEPS sweeps raise InputError. sigma are
    the column norms sorted descending, zero at or below c * sigma_max; the
    kept columns over sigma, completed from canonical basis vectors, are
    the left singular vectors.
    """
    a, exp = _prescaled(m)
    rows, cols = a.shape
    size = cols + cols % 2
    pairs = size // 2
    # A stacked above V: one matmul rotates and one gather moves both
    state = np.zeros((rows + size, size), dtype=np.complex128)
    state[:rows, :cols] = a
    state[rows:] = np.eye(size)
    src = _sweep_plan(size)[1][0]
    rot = np.empty((pairs, 2, 2), dtype=np.complex128)
    buf = np.empty_like(state)
    # the n/2 column pairs of state and of buf, and those of A alone
    col_pairs = state.reshape(rows + size, pairs, 2).transpose(1, 0, 2)
    buf_cols = buf.reshape(rows + size, pairs, 2).transpose(1, 0, 2)
    top = col_pairs[:, :rows]
    small = (max(rows, cols) * RANK_CUTOFF) ** 2
    with np.errstate(over="ignore"):
        for _ in range(JACOBI_MAX_SWEEPS):
            settled = True
            for _ in range(size - 1):
                gram = top.conj().transpose(0, 2, 1) @ top
                app, aqq, pivots = gram[:, 0, 0].real, gram[:, 1, 1].real, gram[:, 0, 1]
                if settled:
                    settled = bool(np.all(
                        (np.abs(pivots) <= JACOBI_OFF_TOL * np.sqrt(app * aqq))
                        | (np.minimum(app, aqq) <= small * max(app.max(), aqq.max()))
                    ))
                _rotations(app, aqq, pivots, rot)
                np.matmul(col_pairs, rot, out=buf_cols)
                np.take(buf, src, axis=1, out=state)
            if settled:
                break
        else:
            raise InputError(f"Jacobi SVD did not converge in {JACOBI_MAX_SWEEPS} sweeps")
    norms = np.linalg.norm(state[:rows, :cols], axis=0)
    order = np.argsort(-norms, kind="stable")
    singulars = norms[order[: min(rows, cols)]]
    kept = int(np.count_nonzero(singulars > max(rows, cols) * RANK_CUTOFF * singulars[0]))
    singulars[kept:] = 0.0
    right = state[rows : rows + cols, order]
    left = np.zeros((rows, rows), dtype=np.complex128)
    left[:, :kept] = state[:rows, order[:kept]] / singulars[:kept]
    # each completing column is the canonical basis vector with the largest
    # residual against the columns so far, less two passes of B (B* w)
    unit = np.eye(rows, dtype=np.complex128)
    for j in range(kept, rows):
        taken = left[:, :j]
        w = unit[int(np.argmax(1.0 - np.sum(np.abs(taken) ** 2, axis=1)))]
        for _ in range(2):
            w = w - taken @ (taken.conj().T @ w)
        left[:, j] = w / np.linalg.norm(w)
    singulars = _unscale(singulars, exp, "singular values overflow")
    return SvdResult(left=left, singulars=singulars, right=right)


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse, read off :func:`svd`."""
    return svd(m).pinv()


def hermitian_part(m, label: str) -> np.ndarray:
    """Check that m is square and Hermitian within TOL_PSD * ||m||_F, and
    return its exact Hermitian part."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"{label} must be square, got {a.shape}")
    if frob(a - a.conj().T) > TOL_PSD * frob(a):
        raise InputError(f"{label} is not Hermitian within tolerance")
    return 0.5 * (a + a.conj().T)


def psd_factor(m, label: str = "matrix", tol: float = PSD_CLAMP_TOL) -> PsdFactor:
    """Factor a PSD Hermitian matrix with one eigendecomposition.

    Eigenvalues inside the window [-tol * ||m||, 0) are clamped to zero;
    anything more negative raises InputError naming ``label``. Eigenvalues
    below PSD_ZERO_FLOOR * max are treated as exact zeros: matrices arriving
    here are typically products (Gram squares, sandwiches like S K S),
    whose zero eigenspaces carry formation noise around 1e-15 relative, and
    a fractional power would amplify that to sqrt(eps).
    """
    eig = herm_eig(as_matrix(m))
    scale = float(np.max(np.abs(eig.values)))
    floor = -tol * scale
    if float(eig.values[0]) < floor:
        raise InputError(
            f"{label} is not PSD: min eigenvalue {eig.values[0]:.3e} "
            f"below clamp window {floor:.3e}"
        )
    values = np.where(eig.values <= PSD_ZERO_FLOOR * scale, 0.0, eig.values)
    return PsdFactor(values=values, vectors=eig.vectors)


def psd_power(m, exponent: float) -> np.ndarray:
    """Fractional power of a PSD Hermitian matrix (see :func:`psd_factor`)."""
    return psd_factor(m).power(exponent)


def psd_sqrt(m) -> np.ndarray:
    """Hermitian PSD square root."""
    return psd_power(m, 0.5)


def psd_gap(x, y) -> float:
    """Smallest eigenvalue of y - x.

    The operator inequality x <= y is read as gap >= -TOL_PSD * (||x|| +
    ||y||) by callers; the raw signed gap is returned so they can pick
    their own scale.
    """
    a = as_matrix(x)
    b = as_matrix(y)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise InputError(f"psd_gap needs square matrices of equal shape, got {a.shape} and {b.shape}")
    # x and y are Hermitian only up to rounding, and where y - x cancels
    # that rounding exceeds herm_eig's tolerance relative to ||y - x||
    d = b - a
    return float(herm_eig(0.5 * (d + d.conj().T)).values[0])


def range_projector(m) -> np.ndarray:
    """Orthogonal projector U_r U_r* onto the column space, from :func:`svd`."""
    u = svd(m).range_basis
    return u @ u.conj().T


def spectral_norm(m) -> float:
    """Largest singular value, read off :func:`svd`."""
    return float(svd(m).singulars[0])


def orthonormalize(m) -> np.ndarray:
    """Orthonormalize the columns of a full-column-rank matrix (two-pass MGS)."""
    a = as_matrix(m).copy()
    rows, cols = a.shape
    if cols > rows:
        raise InputError("orthonormalize expects at most as many columns as rows")
    for j in range(cols):
        w = a[:, j]
        for _ in range(2):
            for i in range(j):
                w = w - a[:, i] * (a[:, i].conj() @ w)
        nrm = float(np.linalg.norm(w))
        if nrm < 1e-12:
            raise InputError("columns are numerically dependent")
        a[:, j] = w / nrm
    return a
