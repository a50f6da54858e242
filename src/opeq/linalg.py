"""Dense complex linear algebra kernel.

Everything numerically delicate in this package funnels through one trusted
eigensolver: cyclic Jacobi rotations on Hermitian matrices with a fixed
row-major sweep order, so results are deterministic: the same input bits
produce the same output bits within one build.

Each operand is factored once and everything else is read off that one
factorization. A general matrix gets an :class:`SvdResult`, which gives its
rank, pseudoinverse and range basis; a PSD matrix gets a :class:`PsdFactor`,
which gives its rank, range basis and every (pseudoinverse) power.

Matrices are plain numpy arrays with dtype complex128. Helpers here accept
anything ``np.asarray`` can turn into a finite 2-D array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Assertion tolerances (relative). Tests and callers may override per call.
TOL_PSD = 1e-9
TOL_HERMITIAN = 1e-10

# Negativity window clamped to zero when taking PSD roots/powers.
PSD_CLAMP_TOL = 1e-10
PSD_ZERO_FLOOR = 1e-13

# A Hermitian PSD matrix counts as nonsingular when its least eigenvalue
# exceeds this fraction of its spectral norm.
TOL_NONSINGULAR = 1e-8

# Jacobi sweep control: stop when the off-diagonal Frobenius mass falls
# below JACOBI_OFF_TOL times the Frobenius norm of the input.
JACOBI_OFF_TOL = 1e-14
JACOBI_MAX_SWEEPS = 100


class InputError(ValueError):
    """Raised when an operand violates a documented precondition."""


def as_matrix(m) -> np.ndarray:
    """Coerce input to a finite 2-D complex128 array (copying if needed)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise InputError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise InputError(f"matrix dimensions must be positive, got {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise InputError("matrix entries must be finite")
    return a


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def frob(m) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(m)))


@dataclass(frozen=True)
class RankPolicy:
    """Decides which singular values count as zero.

    ``relative_threshold`` is the fraction of the largest singular value
    below which a singular value is treated as exactly zero. When left
    unset, the dimension-aware default max(rows, cols) * 2**-50 is used.
    """

    relative_threshold: float | None = None

    def __post_init__(self):
        rt = self.relative_threshold
        if rt is not None and not (0.0 < rt < 1.0):
            raise InputError(f"relative_threshold must be in (0, 1), got {rt}")

    def cutoff_fraction(self, rows: int, cols: int) -> float:
        if self.relative_threshold is not None:
            return self.relative_threshold
        return max(rows, cols) * 2.0**-50


@dataclass
class HermitianEig:
    """Eigenvalues (real, ascending) and eigenvector columns (unitary)."""

    values: np.ndarray
    vectors: np.ndarray


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
        """Moore-Penrose pseudoinverse V_r diag(1/sigma) U_r*."""
        kept = self.rank
        core = self.right[:, :kept] * (1.0 / self.singulars[:kept])
        return core @ self.left[:, :kept].conj().T


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
        (m^+)^-exponent, which leaves the zero eigenvalues at zero."""
        if exponent >= 0:
            lam = self.values ** exponent
        else:
            lam = np.zeros_like(self.values)
            pos = self.values > 0
            lam[pos] = 1.0 / self.values[pos] ** -exponent
        out = (self.vectors * lam) @ self.vectors.conj().T
        return 0.5 * (out + out.conj().T)


def herm_eig(m, tol: float = TOL_HERMITIAN) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps pivot pairs (p, q) in row-major order, each rotation
    annihilating the pivot entry exactly. Stops when the off-diagonal
    Frobenius mass is at most 1e-14 times the input norm, or after 100
    sweeps. The input must satisfy ||m - m*||_F <= tol * ||m||_F.
    """
    a = as_matrix(m)
    n, nc = a.shape
    if n != nc:
        raise InputError(f"eigendecomposition needs a square matrix, got {a.shape}")
    scale = frob(a)
    if frob(a - a.conj().T) > tol * scale:
        raise InputError("matrix is not Hermitian within tolerance")
    a = 0.5 * (a + a.conj().T)
    v = np.eye(n, dtype=np.complex128)
    off_mask = ~np.eye(n, dtype=bool)
    target = JACOBI_OFF_TOL * scale
    for _ in range(JACOBI_MAX_SWEEPS):
        if float(np.linalg.norm(a[off_mask])) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0:
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                mag = abs(apq)
                phase = apq / mag
                tau = (aqq - app) / (2.0 * mag)
                # smaller-magnitude root of t^2 + 2*tau*t - 1 = 0, |t| <= 1
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                cp = c * phase
                sp = s * phase
                rp = a[p, :].copy()
                rq = a[q, :]
                a[p, :] = np.conj(cp) * rp - s * rq
                a[q, :] = np.conj(sp) * rp + c * rq
                colp = a[:, p].copy()
                colq = a[:, q]
                a[:, p] = cp * colp - s * colq
                a[:, q] = sp * colp + c * colq
                # the rotation zeroes the pivot; diagonal stays exactly real
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = app - t * mag
                a[q, q] = aqq + t * mag
                vp = v[:, p].copy()
                vq = v[:, q]
                v[:, p] = cp * vp - s * vq
                v[:, q] = sp * vp + c * vq
    values = np.diag(a).real.copy()
    order = np.argsort(values, kind="stable")
    return HermitianEig(values=values[order], vectors=v[:, order])


def _complete_orthonormal(u: np.ndarray, have: int) -> None:
    """Fill columns have.. of u with an orthonormal complement, in place.

    Deterministic: each new column starts from the canonical basis vector
    with the largest residual against the columns accepted so far.
    """
    n = u.shape[0]
    for j in range(have, n):
        taken = u[:, :j]
        residual_sq = 1.0 - np.sum(np.abs(taken) ** 2, axis=1)
        k = int(np.argmax(residual_sq))
        w = np.zeros(n, dtype=np.complex128)
        w[k] = 1.0
        for _ in range(2):
            w = w - taken @ (taken.conj().T @ w)
        u[:, j] = w / np.linalg.norm(w)


def svd(m, policy: RankPolicy | None = None) -> SvdResult:
    """Full singular value decomposition via the Jacobi kernel.

    Right singular vectors come from the eigendecomposition of m* m. Left
    columns are recovered as m v / sigma with re-orthonormalization, which
    keeps near-null directions usable; directions below the rank cutoff
    are replaced by an explicit orthonormal completion.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    pol = policy if policy is not None else RankPolicy()
    g = a.conj().T @ a
    eig = herm_eig(0.5 * (g + g.conj().T))
    lam = eig.values[::-1]
    right = eig.vectors[:, ::-1].copy()
    k = min(rows, cols)
    sig = np.sqrt(np.clip(lam[:k], 0.0, None))
    smax = float(sig[0]) if k else 0.0
    cut = pol.cutoff_fraction(rows, cols) * smax
    singulars = np.zeros(k)
    left = np.zeros((rows, rows), dtype=np.complex128)
    kept = 0
    for i in range(k):
        if sig[i] <= cut:
            break
        w = a @ right[:, i]
        # deflate against the directions already captured before judging
        # size: eigenvector contamination from the sweep tolerance shows
        # up as action along kept columns and would otherwise fake a
        # singular value just above the cutoff
        for _ in range(2):
            for j in range(kept):
                w = w - left[:, j] * (left[:, j].conj() @ w)
        nw = float(np.linalg.norm(w))
        if nw <= cut:
            break
        left[:, kept] = w / nw
        singulars[kept] = nw
        kept += 1
    # refined singular estimates may cross for near-ties; restore order
    if kept > 1:
        order = np.argsort(-singulars[:kept], kind="stable")
        singulars[:kept] = singulars[:kept][order]
        left[:, :kept] = left[:, :kept][:, order]
        right[:, :kept] = right[:, :kept][:, order]
    _complete_orthonormal(left, kept)
    return SvdResult(left=left, singulars=singulars, right=right)


def pinv(m, policy: RankPolicy | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse, read off :func:`svd`.

    The rank decision is the factorization's: a direction survives only if
    both its Gram eigenvalue estimate and its directly measured action
    ||m v|| clear the policy cutoff. Eigenvalue noise from squaring sits
    near sqrt(eps) * sigma_max, far above the true action of a null
    vector, so gating on ||m v|| is what keeps exact rank deficiency honest.
    """
    return svd(m, policy).pinv()


def hermitian_part(m, label: str) -> np.ndarray:
    """Check that m is square and Hermitian within TOL_PSD * ||m||_F, and
    return its exact Hermitian part."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"{label} must be square, got {a.shape}")
    if frob(a - a.conj().T) > TOL_PSD * max(frob(a), 1e-300):
        raise InputError(f"{label} is not Hermitian within tolerance")
    return 0.5 * (a + a.conj().T)


def psd_factor(m, label: str = "matrix", tol: float = PSD_CLAMP_TOL,
               zero_floor: float = PSD_ZERO_FLOOR) -> PsdFactor:
    """Factor a PSD Hermitian matrix with one eigendecomposition.

    Eigenvalues inside the window [-tol * ||m||, 0) are clamped to zero;
    anything more negative raises InputError naming ``label``. Eigenvalues
    below zero_floor * max are treated as exact zeros: matrices arriving
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
    values = np.where(eig.values <= zero_floor * scale, 0.0, eig.values)
    return PsdFactor(values=values, vectors=eig.vectors)


def psd_power(m, exponent: float, tol: float = PSD_CLAMP_TOL,
              zero_floor: float = PSD_ZERO_FLOOR) -> np.ndarray:
    """Fractional power of a PSD Hermitian matrix (see :func:`psd_factor`)."""
    return psd_factor(m, tol=tol, zero_floor=zero_floor).power(exponent)


def psd_sqrt(m, tol: float = PSD_CLAMP_TOL) -> np.ndarray:
    """Hermitian PSD square root."""
    return psd_power(m, 0.5, tol=tol)


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
    d = b - a
    return float(herm_eig(0.5 * (d + d.conj().T)).values[0])


def range_projector(m, policy: RankPolicy | None = None) -> np.ndarray:
    """Orthogonal projector onto the column space: P = m @ pinv(m)."""
    a = as_matrix(m)
    p = a @ pinv(a, policy)
    return 0.5 * (p + p.conj().T)


def spectral_norm(m) -> float:
    """Largest singular value, from the Gram matrix eigenvalues."""
    a = as_matrix(m)
    if a.shape[0] >= a.shape[1]:
        g = a.conj().T @ a
    else:
        g = a @ a.conj().T
    top = float(herm_eig(0.5 * (g + g.conj().T)).values[-1])
    return math.sqrt(max(top, 0.0))


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
