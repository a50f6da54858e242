"""Dense complex linear algebra kernel.

Everything numerically delicate here runs on two Jacobi kernels with one
round-robin schedule (Brent and Luk) and one rotation rule: :func:`herm_eig`
rotates a Hermitian matrix from both sides, :func:`svd` rotates the columns
of m itself and never squares it, the columns of m* when m is wide. A
round rotates n/2 disjoint pairs at once in a fixed order, so the same
input bits give the same output bits within one build. The rotations are
computed pair by pair in Python scalars, because a round at the sizes
opeq runs has at most a dozen pairs and numpy's fixed cost per call would
outweigh their arithmetic; two steps stay in numpy to keep its bits, the
vectorized |pivot| and the phase through 1 / |pivot| (see
:func:`_rotations`). A round folds its rotations J and the move P to the
next layout into one matrix Q = J P (see :func:`_sweep_plan`) and applies
it with one matrix product per side: [A; V] Q, then Q* A for herm_eig,
[A; V] Q alone for svd. Q is dense, so a round costs O(n^3) where the
n/2 2x2 products it replaces cost O(n^2); up to n of about 48 the one
BLAS call per side is still cheaper than numpy's batched 2x2 products,
which call BLAS once per pair, and the gather that moved the layout.
One rule,
:func:`_prescaled`, picks the power of two that keeps an operand in range;
herm_eig, svd, cholesky and orthonormalize scale by it, frob by its own.
Every Hermitian operand, of herm_eig and cholesky as of the solvers,
goes through one path, :func:`_hermitian_prescaled`: scaled by that rule,
checked square and Hermitian on the scaled copy, then replaced by its
Hermitian part, so the part is never taken at the operand's own scale.
The solvers and range checks run on operands scaled by that rule and
scale their one answer back by :func:`_unscale` (see :mod:`opeq.solvers`),
so their residuals and witnesses are those of the scaled operands. So norms
neither overflow nor underflow, and non-convergence raises
:class:`InputError`. A result that leaves the floating-point range
anyway is refused by :func:`require_finite`, never returned as inf or NaN.

Each operand is factored once and everything else is read off that one
factorization. A general matrix gets an :class:`SvdResult`, the thin
factorization U_r diag(sigma_r) V_r* at its rank r (by one fixed relative
cutoff, RANK_CUTOFF), which gives that rank, the pseudoinverse and the
range basis U_r; every criterion opeq decides asks only about ranges, so
no caller needs U or V completed to a square unitary. A PSD matrix gets a
:class:`Cholesky`, m = F F* by :func:`cholesky`, truncated at the first
pivot at or below n * RANK_CUTOFF times the first, and that one
factorization decides rank, definiteness (all n pivots clear the cutoff)
and the refusal of an operand that is not PSD (:func:`_psd_cholesky`).
F, n x r, serves as it is wherever a factor does. A positive definite
operand is used through F^{-1} and F^{-*} by substitution; a singular
one, where a pseudoinverse or eigen-directions are needed, through one
:func:`svd` of F = U_r diag(sigma_r) V_r*, which gives F^{+} and
m = U_r diag(sigma_r^2) U_r* (:func:`psd_power`). herm_eig never runs on
a solver's operand: it runs on the solution X of XHX = K, for its top
eigenvalue lambda, in :func:`psd_gap` and in the sweep's reference
checks. For H = F F* and K = G G*, the positive solution of XHX = K
satisfies F* X F = |G* F|, and the geometric mean of A = F F* and
B = G G* is F (V W*) G* for G* F^{-*} = W S V*: each takes one svd and
no square root of a positive definite operand.

Callers that check several conditions on the same operands (the sweep
suites, each CLI command) open a factor-sharing scope,
:func:`_shared_factors`. Inside it herm_eig, svd and cholesky each keep an
LRU of their last 8 results, keyed by the input's shape and complex128
bytes, and a repeated input gets the stored result back instead of a
second factorization; pinv, range_projector, spectral_norm, psd_power,
psd_gap and every solver share it through them. A refusal is never
stored, and leaving the scope drops everything. Outside a scope nothing
is looked up or kept: a global memo would hold memory after the call
that filled it and would keep serving results after JACOBI_MAX_SWEEPS or
another setting changed. The arrays of a HermitianEig, SvdResult or
Cholesky are read-only everywhere, so sharing one result
between callers cannot leak a write, and code that works outside a scope
works the same inside one.

Matrices are plain numpy arrays with dtype complex128. Helpers here accept
anything ``np.asarray`` can turn into a finite 2-D array.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

# Relative tolerance of every Hermitian check, ||a - a*||_F <= TOL_PSD ||a||_F;
# PSD verdicts are PSD_CLAMP_TOL's.
TOL_PSD = 1e-9

# The clamp window of every PSD verdict, for its Cholesky.remainder.
PSD_CLAMP_TOL = 1e-10

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


def _hermitize(m: np.ndarray) -> np.ndarray:
    """The Hermitian part (m + m*) / 2 of a square array, with no check."""
    return 0.5 * (m + m.conj().T)


def _prescaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """A C-ordered copy of the complex128 matrix m times 2**-e, and e =
    64 * floor((f + 32) / 64) for f the frexp exponent of its largest real
    or imaginary part: that part ends in [2**-33, 2**31), where e = 0. As e
    is a multiple of 4, 2**(e/2) and 2**(e/4) scale roots back exactly. The
    scaling is exact except for entries it pushes below the normal range."""
    a = np.array(m, order="C")
    parts = a.view(np.float64)
    exp = 64 * ((math.frexp(float(np.abs(parts).max()))[1] + 32) // 64)
    np.ldexp(parts, -exp, out=parts)
    return a, exp


def _hermitian_prescaled(m: np.ndarray, label: str) -> tuple[np.ndarray, int, float]:
    """The Hermitian part of the :func:`_prescaled` copy of the complex128
    matrix m, its exponent e and its Frobenius norm: the one Hermitian input
    check. m must be square, else InputError(f"{label} must be square"),
    and the copy a must satisfy ||a - a*||_F <= TOL_PSD * ||a||_F, else
    InputError(f"{label} is not Hermitian within tolerance"). a's largest
    part lies in [2**-33, 2**31), so neither numpy's norm nor (a + a*) / 2
    leaves the floating-point range at any scale of m."""
    a, exp = _prescaled(m)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"{label} must be square, got {a.shape}")
    norm = float(np.linalg.norm(a))
    if float(np.linalg.norm(a - a.conj().T)) > TOL_PSD * norm:
        raise InputError(f"{label} is not Hermitian within tolerance")
    return _hermitize(a), exp, norm


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
    the largest real or imaginary part into [0.5, 1), so that squaring the
    entries neither overflows nor underflows. The scaling is exact and keeps
    the dtype and memory order, so in the normal range the result is
    numpy's norm bit for bit. A finite matrix whose norm passes the
    floating-point range raises InputError; a non-finite entry gives inf or
    NaN, as numpy's norm does."""
    a = np.asarray(m)
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    # 2**-exp must itself be a double, so a subnormal top scales by 2**1022
    exp = max(math.frexp(float(np.abs(parts).max(initial=0.0)))[1], -1022)
    try:
        return math.ldexp(float(np.linalg.norm(a * math.ldexp(1.0, -exp))), exp)
    except OverflowError:
        raise InputError("Frobenius norm overflows the floating-point range") from None


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


@dataclass(frozen=True)
class HermitianEig:
    """Eigenvalues (real, ascending), eigenvector columns (unitary) and the
    number of Jacobi sweeps it took. Frozen, arrays read-only."""

    values: np.ndarray
    vectors: np.ndarray
    sweeps: int

    def __post_init__(self):
        _read_only(self.values, self.vectors)


@dataclass(frozen=True)
class SvdResult:
    """Thin factorization m = U_r diag(sigma_r) V_r* at the numerical rank r.

    ``left`` is U_r, rows x r, and ``right`` is V_r, cols x r, both with
    orthonormal columns. ``singulars`` has min(rows, cols) entries sorted
    descending, zeros below the rank cutoff, so r is its nonzero count.
    ``sweeps`` counts the Jacobi sweeps, the last one included. Frozen,
    arrays read-only.
    """

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray
    sweeps: int

    def __post_init__(self):
        _read_only(self.left, self.singulars, self.right)

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.singulars))

    @property
    def range_basis(self) -> np.ndarray:
        """Orthonormal basis U_r of the column space: ``left`` itself."""
        return self.left

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudoinverse V_r diag(1/sigma) U_r*; raises
        InputError when it leaves the floating-point range."""
        with np.errstate(over="ignore", invalid="ignore"):
            core = self.right * (1.0 / self.singulars[: self.rank])
            out = core @ self.left.conj().T
        return require_finite(out, "pseudoinverse overflows")


@dataclass(frozen=True)
class Cholesky:
    """Pivoted Cholesky factorization m = F F* with F = P L.

    ``lower`` is L, n x r and lower trapezoidal with a positive diagonal,
    and ``perm`` the pivot order, so m[perm][:, perm] = L L* + diag(0, S)
    for S the Schur complement left at the pivot cutoff; ``remainder`` is
    ||S||_F / ||m||_F, 0 at full rank. ``factor`` is F, L with its rows
    put back (F[perm] = L), one zero column at rank 0: m's one factor at
    every rank, F F* = m up to S. ``rank`` r counts the pivots above
    :func:`cholesky`'s cutoff, so m is positive definite exactly when
    r = n, and then :meth:`solve` and :meth:`solve_adjoint` apply the
    inverses of F; below full rank F^{+} is read off ``svd(factor)``.
    Frozen, arrays read-only.
    """

    lower: np.ndarray
    perm: np.ndarray
    factor: np.ndarray
    remainder: float

    def __post_init__(self):
        _read_only(self.lower, self.perm, self.factor)

    @property
    def rank(self) -> int:
        return self.lower.shape[1]

    @property
    def definite(self) -> bool:
        return self.rank == self.lower.shape[0]

    @property
    def psd(self) -> bool:
        """opeq's one PSD rule: remainder at most PSD_CLAMP_TOL."""
        return self.remainder <= PSD_CLAMP_TOL

    def solve(self, b: np.ndarray) -> np.ndarray:
        """F^{-1} b = L^{-1} P* b by forward substitution, for definite m."""
        low = self.lower
        diag = low.diagonal().real
        y = np.array(b[self.perm], dtype=np.complex128)
        for k in range(len(diag)):
            y[k] = (y[k] - low[k, :k] @ y[:k]) / diag[k]
        return y

    def solve_adjoint(self, b: np.ndarray) -> np.ndarray:
        """F^{-*} b = P L^{-*} b by back substitution, for definite m."""
        up = self.lower.conj().T
        diag = up.diagonal().real
        y = np.array(b, dtype=np.complex128)
        for k in range(len(diag) - 1, -1, -1):
            y[k] = (y[k] - up[k, k + 1 :] @ y[k + 1 :]) / diag[k]
        out = np.empty_like(y)
        out[self.perm] = y
        return out


# Open _shared_factors scope: kernel -> LRU of (shape, bytes) -> result.
_MEMO_ENTRIES = 8
_memo: contextvars.ContextVar[dict | None] = contextvars.ContextVar("opeq_linalg_memo", default=None)


@contextlib.contextmanager
def _shared_factors():
    """Within the block, herm_eig, svd and cholesky each return the stored
    result for an input whose shape and complex128 bytes match one of the
    last _MEMO_ENTRIES inputs they factored, instead of factoring it again.
    Refusals are not stored. On exit everything stored is dropped."""
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def _shared(kernel, m):
    """kernel(as_matrix(m)), looked up in and stored to the open scope's LRU
    for kernel; outside a scope, nothing is looked up or kept."""
    a = as_matrix(m)
    memo = _memo.get()
    if memo is None:
        return kernel(a)
    lru = memo.setdefault(kernel, OrderedDict())
    key = (a.shape, a.tobytes())
    result = lru.get(key)
    if result is None:
        result = lru[key] = kernel(a)
        if len(lru) > _MEMO_ENTRIES:
            lru.popitem(last=False)
    else:
        lru.move_to_end(key)
    return result


@functools.lru_cache(maxsize=64)
def _sweep_plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The round-robin schedule of an even-order Jacobi sweep, as flat
    positions (scatter, moved) and A's off-diagonal mask.

    Circle method: position 0 stays and the other n - 1 positions move one
    step along the ring 2, 4, ..., n - 2, n - 1, n - 3, ..., 1; column j of
    the next layout is column src[j] of this one. Any two indices sit at
    some (2i, 2i + 1) in exactly one of n - 1 consecutive rounds, and after
    n - 1 rounds the layout is back at the start.

    A round is A <- Q* A Q and V <- V Q with Q = J P, for J the block
    diagonal of the round's 2x2 rotations and P the move: column j of Q is
    column src[j] of J. scatter holds the flat positions in Q of the
    rotations' entries, in the C order of their (n/2, 2, 2) stack, so
    Q.flat[scatter] = entries builds Q, and the
    n * n - 2 * n entries it never writes stay exactly 0: a pair whose J is
    I moves its columns exactly. moved holds the flat positions in
    Q* A Q of each pair's (p, p), then each (q, q), then each (p, q), then
    each (q, p), for (p, q) = (2i, 2i + 1).
    """
    ring = np.r_[2:n:2, n - 1 : 0 : -2]
    src = np.arange(n)
    src[np.roll(ring, -1)] = ring
    # the inverse permutation, by a scatter: numpy's first quicksort call
    # touches 256 KiB that peak RSS would keep
    dest = np.empty_like(src)
    dest[src] = np.arange(n)
    p, q = dest[0::2], dest[1::2]
    pairs = np.arange(n).reshape(-1, 2)
    scatter = (pairs[:, :, None] * n + dest[pairs][:, None, :]).reshape(-1)
    moved = np.concatenate([p * (n + 1), q * (n + 1), p * n + q, q * n + p])
    off_mask = ~np.eye(n, dtype=bool)
    for arr in (scatter, moved, off_mask):
        arr.flags.writeable = False
    return scatter, moved, off_mask


def _pair_entries(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views of the round's 2x2 blocks in a C-ordered n x n matrix: the
    real parts of its (2i, 2i) and (2i + 1, 2i + 1) entries, and its
    (2i, 2i + 1) entries."""
    n = m.shape[0]
    step = 2 * (n + 1)
    flat = m.reshape(-1)
    return flat[::step].real, flat[n + 1 :: step].real, flat[1::step]


def _rotations(app, aqq, pivots, q_flat: np.ndarray, scatter) -> list[float]:
    """Write the J_i = [[c phase, s phase], [-s, c]] that diagonalize
    [[app, pivot], [pivot*, aqq]] as J_i* G J_i to q_flat[scatter], in the
    C order of a (pairs, 2, 2) stack, and return the rotated diagonal: each
    app - t |pivot|, then each aqq + t |pivot|. This is Rutishauser's
    rotation (Golub and Van Loan, Matrix Computations, 8.5).

    The rotations are computed pair by pair in Python float and complex
    scalars: a round has at most 12 pairs at the sizes opeq runs, and
    there numpy's fixed cost per call outweighs the arithmetic. The scalar
    steps are the IEEE operations numpy's array form of this rule does, in
    its order, so they give its bits. Two steps keep numpy's own rounding:
    |pivot| is one vectorized np.abs, which rounds unlike libm's hypot,
    and the phase is pivot * (1 / |pivot|), through the reciprocal as
    numpy divides a complex number by a real one. Adding 0j to the phase
    makes a zero part +0, as numpy's sum with a boolean does, and CPython
    up to 3.13 multiplies c and s into it as c + 0j and s + 0j, as numpy
    does, so even the signs of zeros agree.

    A pivot below the normal range, where 1 / |pivot| overflows, is dead
    like a zero one: t = 0 and J = I to rounding."""
    sqrt, copysign = math.sqrt, math.copysign
    mag = np.abs(pivots)
    entries, lows, highs = [], [], []
    for p, q, g, m in zip(app.tolist(), aqq.tolist(), pivots.tolist(), mag.tolist()):
        if m < 2.0**-1022:
            # phase g / (m + 1) + 1, a unit up to rounding
            safe = m + 1.0
            t = copysign(0.0, (q - p) / (safe + safe))
            lift = 1 + 0j
        else:
            safe = m
            tau = (q - p) / (m + m)
            # smaller-magnitude root of t^2 + 2*tau*t - 1 = 0, |t| <= 1;
            # it overflows to 0 when the pivot is negligible
            t = copysign(1.0 / (abs(tau) + sqrt(1.0 + tau * tau)), tau)
            lift = 0j
        c = 1.0 / sqrt(1.0 + t * t)
        s = t * c
        phase = g * (1.0 / safe) + lift
        entries += (c * phase, s * phase, -s, c)
        shift = t * m
        lows.append(p - shift)
        highs.append(q + shift)
    q_flat[scatter] = entries
    return lows + highs


def herm_eig(m) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix by round-robin Jacobi rotations.

    The input is first scaled by :func:`_prescaled`, so that norms neither
    overflow nor underflow, and the eigenvalues are scaled back. An odd n
    is padded with one decoupled zero row and column. A sweep is the
    n - 1 rounds of :func:`_sweep_plan`; a round annihilates the n/2 pivots
    (2i, 2i + 1) at once by :func:`_rotations`, as A <- Q* A Q and
    V <- V Q with one product per side, then writes each pivot as exactly
    zero and each rotated diagonal entry by Rutishauser's update. Stops
    when the off-diagonal Frobenius mass is at most JACOBI_OFF_TOL times
    the input norm, and raises InputError if that takes more than
    JACOBI_MAX_SWEEPS sweeps. The
    input must satisfy ||m - m*||_F <= TOL_PSD * ||m||_F. Inside a
    :func:`_shared_factors` scope a repeated input returns the stored result.
    """
    return _shared(_herm_eig_jacobi, m)


def _herm_eig_jacobi(a: np.ndarray) -> HermitianEig:
    """herm_eig's kernel, on a matrix already coerced by :func:`as_matrix`."""
    a, exp, scale = _hermitian_prescaled(a, "matrix")
    n = a.shape[0]
    size = n + n % 2
    # A (rows :size) stacked above V (rows size:): one product with Q
    # rotates and moves the columns of both
    state = np.zeros((2 * size, size), dtype=np.complex128)
    top = state[:size]
    top[:n, :n] = a
    state.reshape(-1)[size * size :: size + 1] = 1.0
    scatter, moved, off_mask = _sweep_plan(size)
    target = JACOBI_OFF_TOL * scale
    # work arrays and their views, made once per call: Q, its conjugate,
    # the product [A; V] Q, and the 2 * size entries that go to the moved
    # positions, the rotated diagonal in the real parts of the first size
    q = np.zeros((size, size), dtype=np.complex128)
    q_flat = q.reshape(-1)
    q_conj = np.empty_like(q)
    q_adj = q_conj.T
    buf = np.empty_like(state)
    buf_a, buf_v = buf[:size], buf[size:]
    vectors = state[size:]
    update = np.zeros(2 * size, dtype=np.complex128)
    diagonal = update.real[:size]
    flat = top.reshape(-1)
    app, aqq, pivots = _pair_entries(top)
    sweeps = 0
    while float(np.linalg.norm(top[off_mask])) > target:
        if sweeps == JACOBI_MAX_SWEEPS:
            raise InputError(f"Jacobi eigensolver did not converge in {sweeps} sweeps")
        sweeps += 1
        for _ in range(size - 1):
            # Rutishauser's update: app and aqq move by -/+ t |a_pq|,
            # exactly real, and each pivot becomes exactly zero
            diagonal[:] = _rotations(app, aqq, pivots, q_flat, scatter)
            np.conjugate(q, out=q_conj)
            # [A; V] <- [A; V] Q, then A <- Q* A into the other buffer
            np.matmul(state, q, out=buf)
            np.matmul(q_adj, buf_a, out=top)
            vectors[...] = buf_v
            flat[moved] = update
    values = np.diagonal(top).real[:n]
    order = np.argsort(values, kind="stable")
    values = _unscale(values[order], exp, "eigenvalues overflow")
    return HermitianEig(values=values, vectors=state[size:size + n, :n][:, order], sweeps=sweeps)


def svd(m) -> SvdResult:
    """Thin singular value decomposition by one-sided (Hestenes) Jacobi on m.

    The columns, scaled by :func:`_prescaled`, are rotated on herm_eig's
    schedule by its rule: each round reads its n/2 column pairs' 2x2 Gram
    matrices off one product A* A, and one product [A; V] Q rotates each
    pair by the J that diagonalizes its Gram matrix and moves the columns
    to the next layout, accumulating V (see :func:`_sweep_plan`). A pair is
    settled when |a_p* a_q| <= JACOBI_OFF_TOL ||a_p|| ||a_q||, or when its
    smaller column is at most c = max(rows, cols) * RANK_CUTOFF times the
    largest. The first sweep that finds every pair settled before rotating
    it ends the iteration, and more than JACOBI_MAX_SWEEPS sweeps raise
    InputError. sigma are the column norms sorted descending, zero at or
    below c * sigma_max; the kept columns over sigma are the left singular
    vectors U_r, and the same columns of V are V_r. A wide m (rows < cols)
    is factored as m*, whose left and right factors are m's right and left
    ones, so the kernel rotates min(rows, cols) columns. Inside a
    :func:`_shared_factors` scope a repeated input returns the stored result.
    """
    return _shared(_svd_jacobi, m)


def _svd_jacobi(a: np.ndarray) -> SvdResult:
    """svd's kernel, on a matrix already coerced by :func:`as_matrix`."""
    # a wide m = U S V* is factored as m* = V S U*: rotating all its cols
    # columns would leave cols - rows of them only converging to zero
    wide = a.shape[0] < a.shape[1]
    a, exp = _prescaled(a.conj().T if wide else a)
    rows, cols = a.shape
    size = cols + cols % 2
    # A stacked above V: one product with Q rotates and moves both
    state = np.zeros((rows + size, size), dtype=np.complex128)
    state[:rows, :cols] = a
    state[rows:] = np.eye(size)
    scatter = _sweep_plan(size)[0]
    q = np.zeros((size, size), dtype=np.complex128)
    q_flat = q.reshape(-1)
    buf = np.empty_like(state)
    # each round reads [A; V] from one buffer and writes [A; V] Q to the
    # other, so the two swap, each with its A rows
    layouts = [(state, state[:rows]), (buf, buf[:rows])]
    top_conj = np.empty((rows, size), dtype=np.complex128)
    # the Gram matrix A* A, where each round reads its 2x2 blocks
    gram = np.empty((size, size), dtype=np.complex128)
    app, aqq, pivots = _pair_entries(gram)
    small = (max(rows, cols) * RANK_CUTOFF) ** 2
    for sweeps in range(1, JACOBI_MAX_SWEEPS + 1):
        settled = True
        for _ in range(size - 1):
            (state, top), (buf, _) = layouts
            np.conjugate(top, out=top_conj)
            np.matmul(top_conj.T, top, out=gram)
            if settled:
                # in Python scalars: numpy's fixed cost per call outweighs
                # the arithmetic on n/2 pairs, as in _rotations
                ps, qs = app.tolist(), aqq.tolist()
                floor = small * max(max(ps), max(qs))
                settled = all(
                    m <= JACOBI_OFF_TOL * math.sqrt(p * q) or min(p, q) <= floor
                    for p, q, m in zip(ps, qs, np.abs(pivots).tolist())
                )
            _rotations(app, aqq, pivots, q_flat, scatter)
            np.matmul(state, q, out=buf)
            layouts.reverse()
        if settled:
            break
    else:
        raise InputError(f"Jacobi SVD did not converge in {JACOBI_MAX_SWEEPS} sweeps")
    state = layouts[0][0]
    norms = np.linalg.norm(state[:rows, :cols], axis=0)
    order = np.argsort(-norms, kind="stable")
    singulars = norms[order[: min(rows, cols)]]
    kept = int(np.count_nonzero(singulars > max(rows, cols) * RANK_CUTOFF * singulars[0]))
    singulars[kept:] = 0.0
    left = state[:rows, order[:kept]] / singulars[:kept]
    right = state[rows : rows + cols, order[:kept]]
    singulars = _unscale(singulars, exp, "singular values overflow")
    if wide:
        left, right = right, left
    return SvdResult(left=left, singulars=singulars, right=right, sweeps=sweeps)


def cholesky(m) -> Cholesky:
    """Pivoted Cholesky factorization m = F F*, F = P L, of a Hermitian
    matrix: the semidefinite algorithm of LAPACK's xPSTRF (Higham, "Analysis
    of the Cholesky decomposition of a semi-definite matrix", 1990).

    Runs on the :func:`_prescaled` copy, and F is scaled back by 2**(e/2),
    exactly. Step k pivots on the largest diagonal entry of the remaining
    Schur complement and stops at the first pivot at or below
    n * RANK_CUTOFF times the first one, the largest diagonal entry. That
    is opeq's one test of definiteness: m is positive definite when all n
    pivots clear the cutoff. A positive definite m keeps every pivot at or
    above its least eigenvalue and the first at or below its largest, so
    the test accepts kappa(m) up to about 1 / (n * RANK_CUTOFF), while a
    formed singular operand leaves its trailing pivots at formation noise,
    about 1e-15 of the first, below the cutoff. At the stop the trailing
    Schur complement S is formed once for ``remainder``: m is congruent to
    diag(I, S) (Ostrowski), so S keeps every negative eigenvalue of m, and
    a PSD m leaves it at rounding level. The input must satisfy
    ||m - m*||_F <= TOL_PSD * ||m||_F. Inside a
    :func:`_shared_factors` scope a repeated input returns the stored result.
    """
    return _shared(_cholesky_pivoted, m)


def _cholesky_pivoted(a: np.ndarray) -> Cholesky:
    """cholesky's kernel, on a matrix already coerced by :func:`as_matrix`."""
    a, exp, norm = _hermitian_prescaled(a, "matrix")
    n = a.shape[0]
    lower = np.zeros((n, n), dtype=np.complex128)
    perm = np.arange(n)
    # the diagonal of the Schur complement the steps so far leave
    schur = a.diagonal().real.copy()
    cutoff = n * RANK_CUTOFF * max(float(schur.max()), 0.0)
    rank = n
    for k in range(n):
        j = k + int(np.argmax(schur[k:]))
        if not schur[j] > cutoff:
            rank = k
            break
        perm[[k, j]] = perm[[j, k]]
        schur[[k, j]] = schur[[j, k]]
        lower[[k, j], :k] = lower[[j, k], :k]
        root = math.sqrt(schur[k])
        col = (a[perm[k + 1 :], perm[k]] - lower[k + 1 :, :k] @ lower[k, :k].conj()) / root
        lower[k, k] = root
        lower[k + 1 :, k] = col
        schur[k + 1 :] -= col.real**2 + col.imag**2
    # all of S: its diagonal alone decided the stop
    rest, tail = perm[rank:], lower[rank:, :rank]
    left = float(np.linalg.norm(a[np.ix_(rest, rest)] - tail @ tail.conj().T))
    lower = _unscale(lower[:, :rank], exp // 2, "Cholesky factor overflows")
    factor = np.zeros((n, max(rank, 1)), dtype=np.complex128)
    factor[perm, :rank] = lower
    return Cholesky(lower=lower, perm=perm, factor=factor, remainder=left / norm if left else 0.0)


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse, read off :func:`svd`."""
    return svd(m).pinv()


def _psd_cholesky(m, label: str) -> Cholesky:
    """:func:`cholesky` of a PSD m: a remainder above PSD_CLAMP_TOL is
    refused as "<label> is not PSD", one within it is dropped as rounding."""
    c = cholesky(m)
    if not c.psd:
        raise InputError(
            f"{label} is not PSD: the Schur complement left at the pivot cutoff is "
            f"{c.remainder:.3e} of its norm, above the clamp window {PSD_CLAMP_TOL:.3e}"
        )
    return c


def _definite_cholesky(m, label: str) -> Cholesky:
    """:func:`_psd_cholesky` of a positive definite m; a PSD m that is not
    positive definite is refused as "<label> must be positive definite"."""
    c = _psd_cholesky(m, label)
    if not c.definite:
        raise InputError(f"{label} must be positive definite")
    return c


def _hermitian_power(vectors: np.ndarray, values: np.ndarray, exponent: float) -> np.ndarray:
    """U diag(values)^exponent U* for U = vectors with orthonormal columns
    and positive values; raises InputError when the power leaves the
    floating-point range."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = _hermitize((vectors * values**exponent) @ vectors.conj().T)
    return require_finite(out, "matrix power overflows")


def psd_power(m, exponent: float) -> np.ndarray:
    """m^exponent for a PSD Hermitian m, and for a negative exponent the
    pseudoinverse power (m^+)^-exponent.

    One :func:`svd` of the factor F of :func:`_psd_cholesky`,
    F = U_r diag(sigma_r) V_r*, gives m = U_r diag(sigma_r^2) U_r*: the
    eigen-directions come off the factor, not an eigensolver (Demmel and
    Veselic, SIAM J. Matrix Anal. Appl. 13, 1992), and the pivot cutoff
    decides the rank, so the formation noise of a formed product (s @ s)
    is not range. The terms are summed smallest sigma first."""
    return _cholesky_power(_psd_cholesky(m, "matrix"), exponent)


def _cholesky_power(c: Cholesky, exponent: float) -> np.ndarray:
    """:func:`psd_power` of the PSD matrix that c factors, for a caller that
    has its :func:`_psd_cholesky` already."""
    f = svd(c.factor)
    return _hermitian_power(f.left[:, ::-1], f.singulars[: f.rank][::-1] ** 2, exponent)


def psd_sqrt(m) -> np.ndarray:
    """Hermitian PSD square root."""
    return psd_power(m, 0.5)


def psd_gap(x, y) -> float:
    """Smallest eigenvalue of y - x, the raw signed gap of the operator
    inequality x <= y. A reference only: the sweep's checks and the tests
    read it, and no solver or condition does."""
    a = as_matrix(x)
    b = as_matrix(y)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise InputError(f"psd_gap needs square matrices of equal shape, got {a.shape} and {b.shape}")
    # x and y are Hermitian only up to rounding, and where y - x cancels
    # that rounding exceeds herm_eig's tolerance relative to ||y - x||
    return float(herm_eig(_hermitize(b - a)).values[0])


def range_projector(m) -> np.ndarray:
    """Orthogonal projector U_r U_r* onto the column space, from :func:`svd`."""
    u = svd(m).range_basis
    return u @ u.conj().T


def spectral_norm(m) -> float:
    """Largest singular value, read off :func:`svd`."""
    return float(svd(m).singulars[0])


def orthonormalize(m) -> np.ndarray:
    """Orthonormalize the columns of a full-column-rank matrix (two-pass MGS).

    Works on the :func:`_prescaled` copy, so the input's scale alone cannot
    make a norm overflow or underflow, and the result is the same at every
    power-of-two scale. Each column norm is :func:`frob`'s, scaled per
    vector, so graded columns keep theirs too. A column that keeps at most
    1e-12 of its own norm after the passes is refused as dependent."""
    a, _ = _prescaled(as_matrix(m))
    rows, cols = a.shape
    if cols > rows:
        raise InputError("orthonormalize expects at most as many columns as rows")
    for j in range(cols):
        w = a[:, j]
        own = frob(w)
        for _ in range(2):
            for i in range(j):
                w = w - a[:, i] * (a[:, i].conj() @ w)
        nrm = frob(w)
        if nrm <= 1e-12 * own:
            raise InputError("columns are numerically dependent")
        a[:, j] = w / nrm
    return a
