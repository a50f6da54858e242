"""Reduced-form solvers for the operator equations AX=B, AXB=C, AXA*=C,
XHX=K, and the Riccati equation XA^{-1}X=B at matrix scale.

Unsolvable instances are not errors: every solver still returns its
least-squares candidate together with the condition reports that failed,
so callers can inspect how the instance misses solvability. Errors are
reserved for malformed operands (shape mismatches, non-Hermitian or
non-PSD input where the equation requires it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conditions import ConditionReport, TOL_RANGE, basis_inclusion, pt_battery
from .linalg import (
    TOL_PSD,
    InputError,
    PsdFactor,
    _prescaled,
    _unscale,
    as_matrix,
    frob,
    hermitian_part,
    herm_eig,
    psd_factor,
    psd_sqrt,
    svd,
)


@dataclass
class ReducedSolution:
    """A reduced (minimal-norm flavored) solution candidate plus diagnostics.

    ``left_null_projector`` and ``right_null_projector`` span the freedom
    of the general solution: every solution of the underlying equation is
    solution + N_left @ V1 + V2 @ N_right for arbitrary V1, V2.
    """

    solution: np.ndarray
    residual: float
    left_null_projector: np.ndarray
    right_null_projector: np.ndarray
    conditions_met: list[ConditionReport] = field(default_factory=list)

    @property
    def solvable(self) -> bool:
        return all(c.holds for c in self.conditions_met)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def douglas_reduced_solve(a, b, tol: float = TOL_RANGE) -> ReducedSolution:
    """Solve AX = B through the pseudoinverse: X = A^+ B.

    Solvable exactly when range(B) lies inside range(A); the returned
    candidate is the least-squares minimizer either way. The right null
    projector is zero because the right factor of this equation is the
    identity.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape[0] != bm.shape[0]:
        raise InputError(f"row mismatch: A is {am.shape}, B is {bm.shape}")
    fa = svd(am)
    ap = fa.pinv()
    d = ap @ bm
    residual = frob(am @ d - bm) / (1.0 + frob(bm))
    cond = basis_inclusion(bm, fa.range_basis, tol, name="range(B) in range(A)")
    n_left = _hermitize(np.eye(am.shape[1], dtype=np.complex128) - ap @ am)
    n_right = np.zeros((bm.shape[1], bm.shape[1]), dtype=np.complex128)
    return ReducedSolution(d, residual, n_left, n_right, [cond])


def axb_reduced_solve(a, b, c, tol: float = TOL_RANGE) -> ReducedSolution:
    """Solve AXB = C through the reduced candidate X = A^+ C B^+.

    Solvable exactly when range(C) lies in range(A) and range((A^+ C)*)
    lies in range(B*). The candidate is annihilated by both returned null
    projectors, which is what makes it the reduced solution.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    cm = as_matrix(c)
    if am.shape[0] != cm.shape[0] or bm.shape[1] != cm.shape[1]:
        raise InputError(
            f"shape mismatch: A {am.shape}, B {bm.shape}, C {cm.shape} "
            "need A.rows == C.rows and B.cols == C.cols"
        )
    fa = svd(am)
    fb = svd(bm)
    ap = fa.pinv()
    bp = fb.pinv()
    d = ap @ cm @ bp
    residual = frob(am @ d @ bm - cm) / (1.0 + frob(cm))
    cond1 = basis_inclusion(cm, fa.range_basis, tol, name="range(C) in range(A)")
    # range(B*) is spanned by the kept right singular vectors of B
    cond2 = basis_inclusion(
        (ap @ cm).conj().T, fb.right[:, : fb.rank], tol, name="range((A+C)*) in range(B*)"
    )
    n_left = _hermitize(np.eye(am.shape[1], dtype=np.complex128) - ap @ am)
    n_right = _hermitize(np.eye(bm.shape[0], dtype=np.complex128) - bm @ bp)
    return ReducedSolution(d, residual, n_left, n_right, [cond1, cond2])


def general_solution(reduced: ReducedSolution, v1, v2) -> np.ndarray:
    """Expand a reduced solution by its null-space freedom.

    Returns solution + N_left @ v1 + v2 @ N_right; both parameter blocks
    must match the solution's shape.
    """
    v1m = as_matrix(v1)
    v2m = as_matrix(v2)
    shape = reduced.solution.shape
    if v1m.shape != shape or v2m.shape != shape:
        raise InputError(
            f"parameter blocks must match solution shape {shape}, "
            f"got {v1m.shape} and {v2m.shape}"
        )
    return (
        reduced.solution
        + reduced.left_null_projector @ v1m
        + v2m @ reduced.right_null_projector
    )


def congruence_solve(a, c, tol: float = TOL_RANGE) -> ReducedSolution:
    """Positive solution of AXA* = C, when one exists.

    The candidate X = A^+ C (A^+)* is Hermitian PSD whenever the instance
    is solvable, which requires C Hermitian PSD together with range(C) in
    range(A) and range((A^+ C)*) in range(A). Indefinite C is reported as
    an unsolvable instance, not an input error; non-Hermitian C is
    rejected outright.
    """
    am = as_matrix(a)
    cm = hermitian_part(c, "C")
    if am.shape[0] != cm.shape[0]:
        raise InputError(f"row mismatch: A is {am.shape}, C is {cm.shape}")

    vals = herm_eig(cm).values
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    psd_cond = ConditionReport(
        name="C is PSD",
        holds=float(vals[0]) >= -TOL_PSD * scale,
        witness=float(vals[0]),
        detail=f"min eigenvalue at scale {scale:.3e}",
    )

    fa = svd(am)
    ap = fa.pinv()
    x = _hermitize(ap @ cm @ ap.conj().T)
    residual = frob(am @ x @ am.conj().T - cm) / (1.0 + frob(cm))
    cond1 = basis_inclusion(cm, fa.range_basis, tol, name="range(C) in range(A)")
    cond2 = basis_inclusion(
        (ap @ cm).conj().T, fa.range_basis, tol, name="range((A+C)*) in range(A)"
    )
    n_a = _hermitize(np.eye(am.shape[1], dtype=np.complex128) - ap @ am)
    return ReducedSolution(x, residual, n_a, n_a.copy(), [psd_cond, cond1, cond2])


@dataclass
class PtReport:
    """Outcome of solving XHX = K for positive X.

    For nonsingular H the positive solution is unique and ``a_min`` is its
    spectral norm, which coincides with the least constant a for which
    (H^{1/2} K H^{1/2})^{1/2} <= a H. For singular H the solver declines:
    ``solution``, ``a_min`` and ``residual`` stay None and only the
    condition battery (which includes the necessary pair ii-a / ii-b) is
    populated. ``conditions`` holds the reports ii-a, ii-b, iii and iv in
    that order, and the ``cond_*`` flags read them.
    """

    solution: np.ndarray | None
    a_min: float | None
    residual: float | None
    h_nonsingular: bool
    conditions: list[ConditionReport]

    @property
    def cond_ii(self) -> bool:
        return self.conditions[0].holds and self.conditions[1].holds

    @property
    def cond_iii(self) -> bool:
        return self.conditions[2].holds

    @property
    def cond_iv(self) -> bool:
        return self.conditions[3].holds

    @property
    def solvable(self) -> bool:
        return self.h_nonsingular and self.cond_ii and self.cond_iii and self.cond_iv


def pt_solve(h, k, tol: float = TOL_RANGE) -> PtReport:
    """Solve XHX = K for the positive X, H and K Hermitian PSD.

    With H nonsingular the unique positive solution is
    X = (H^{1/2})^+ (H^{1/2} K H^{1/2})^{1/2} (H^{1/2})^+, the candidate
    the condition battery already formed from its factorizations of H and
    of the inner sandwich; its spectral norm is the battery's lambda. H is
    declared nonsingular when its least eigenvalue exceeds 1e-8 times its
    largest.
    """
    bat = pt_battery(h, k, tol)
    if not bat.h_factor.nonsingular:
        return PtReport(None, None, None, False, bat.reports)
    x = bat.candidate
    residual = frob(x @ bat.h @ x - bat.k) / (1.0 + frob(bat.k))
    return PtReport(x, bat.lam, residual, True, bat.reports)


def riccati_geomean(a, b) -> np.ndarray:
    """Geometric mean A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}.

    This is the unique PSD solution of the Riccati equation
    X A^{-1} X = B. Requires a positive definite, b Hermitian PSD.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape[0] != am.shape[1] or am.shape != bm.shape:
        raise InputError(f"need square matrices of equal shape, got {am.shape} and {bm.shape}")
    am = hermitian_part(am, "a")
    bm = hermitian_part(bm, "b")
    af = psd_factor(am, "a")
    if not af.nonsingular:
        raise InputError("a must be positive definite")
    psd_factor(bm, "b", tol=TOL_PSD)  # input validation only
    # (sA) # (tB) = sqrt(st) (A # B): with s = 2**-ea and t = 2**-eb for even
    # ea and eb, every root below is scaled exactly, so no intermediate
    # leaves the floating-point range and normal-range inputs keep every bit
    ea = _prescaled(am)[1]
    ea += ea % 2
    tb, eb = _prescaled(bm)
    if eb % 2:
        tb, eb = 0.5 * tb, eb + 1
    sf = PsdFactor(np.ldexp(af.values, -ea), af.vectors)
    asq = sf.power(0.5)
    ainvs = sf.power(-0.5)
    x = _hermitize(asq @ psd_sqrt(_hermitize(ainvs @ tb @ ainvs)) @ asq)
    return _unscale(x, (ea + eb) // 2, "geometric mean overflows")
