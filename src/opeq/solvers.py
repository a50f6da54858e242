"""Solvers for the operator equations AX=B, AXB=C, AXA*=C, XHX=K, and the
Riccati equation XA^{-1}X=B at matrix scale.

Every solver returns one :class:`SolveResult`: ``solution``, ``residual``
(always :func:`conditions.verify_solution`'s), ``conditions``, ``detail``
and ``solvable``. :func:`general_solution` expands a solution of
AXB = C, AX = B or AXA* = C by the null projectors of its operands.
Unsolvable instances are not errors: the reduced solvers return their
least-squares candidate with the failed reports, and pt_solve with
singular H returns its reports and no solution. Errors are reserved for
malformed operands and for answers that leave the floating-point range.

One scale rule serves every solver, as the equations are homogeneous:
each operand is scaled once by :func:`linalg._prescaled` (a Hermitian one
by :func:`linalg._hermitian_prescaled`), the candidate, its residual and
every range test run on the scaled copies, and X alone is scaled back by
:func:`linalg._unscale`, by 2**d for d = eb - ea (AX = B), ec - ea - eb
(AXB = C), ec - 2 ea (AXA* = C), (ek - eh) / 2 (XHX = K) or (ea + eb) / 2
(riccati). A scaled operand keeps no singular value below 2**-83, so its
pseudoinverse and the candidate are finite. Residuals and witnesses are
the scaled operands', so the given ones' when each largest real or
imaginary part lies in [2**-33, 2**31).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conditions import ConditionReport, TOL_RANGE, basis_inclusion, verify_solution
from .linalg import (
    PSD_CLAMP_TOL,
    InputError,
    _definite_cholesky,
    _hermitian_power,
    _hermitian_prescaled,
    _hermitize,
    _prescaled,
    _psd_cholesky,
    _unscale,
    as_matrix,
    cholesky,
    herm_eig,
    svd,
)


@dataclass(frozen=True)
class SolveResult:
    """What every solver returns, in all five families.

    ``residual`` is :func:`conditions.verify_solution`'s for the family on
    the scaled operands of the module's scale rule, and None when no
    solution is emitted. ``conditions`` are the family's reports, none for
    riccati. ``detail`` is what a report prints beside them: pt's
    ``h_nonsingular``, ``norm_bound`` and for singular H a note, else
    empty. These four are what ``opeq solve`` prints.
    """

    solution: np.ndarray | None
    residual: float | None
    conditions: list[ConditionReport]
    detail: dict = field(default_factory=dict)

    @property
    def solvable(self) -> bool:
        return self.solution is not None and all(c.holds for c in self.conditions)


def douglas_reduced_solve(a, b, tol: float = TOL_RANGE) -> SolveResult:
    """Solve AX = B through the pseudoinverse: X = A^+ B.

    Solvable exactly when range(B) lies inside range(A); the returned
    candidate is the least-squares minimizer either way, and it lies in
    range(A*). Every solution is :func:`general_solution` of it with b = I.
    """
    (am, ea), (bm, eb) = (_prescaled(as_matrix(m)) for m in (a, b))
    if am.shape[0] != bm.shape[0]:
        raise InputError(f"row mismatch: A is {am.shape}, B is {bm.shape}")
    fa = svd(am)
    d = fa.pinv() @ bm
    residual = verify_solution("ax_b", d, a=am, b=bm)
    cond = basis_inclusion(bm, fa.range_basis, tol, name="range(B) in range(A)")
    return SolveResult(_unscale(d, eb - ea, "solution overflows"), residual, [cond])


def axb_reduced_solve(a, b, c, tol: float = TOL_RANGE) -> SolveResult:
    """Solve AXB = C through the reduced candidate X = A^+ C B^+.

    Solvable exactly when range(C) lies in range(A) and range((A^+ C)*)
    lies in range(B*). The candidate is annihilated by both null projectors
    of :func:`general_solution`, which is what makes it the reduced solution.
    """
    (am, ea), (bm, eb), (cm, ec) = (_prescaled(as_matrix(m)) for m in (a, b, c))
    if am.shape[0] != cm.shape[0] or bm.shape[1] != cm.shape[1]:
        raise InputError(
            f"shape mismatch: A {am.shape}, B {bm.shape}, C {cm.shape} "
            "need A.rows == C.rows and B.cols == C.cols"
        )
    fa = svd(am)
    fb = svd(bm)
    ac = fa.pinv() @ cm
    d = ac @ fb.pinv()
    residual = verify_solution("axb_c", d, a=am, b=bm, c=cm)
    cond1 = basis_inclusion(cm, fa.range_basis, tol, name="range(C) in range(A)")
    # range(B*) is spanned by the kept right singular vectors of B
    cond2 = basis_inclusion(ac.conj().T, fb.right, tol, name="range((A+C)*) in range(B*)")
    return SolveResult(_unscale(d, ec - ea - eb, "solution overflows"), residual, [cond1, cond2])


def general_solution(a, b, x, v1, v2) -> np.ndarray:
    """Expand a solution x of A X B = C by its null-space freedom:
    x + N_A v1 + v2 N_B, with N_A = I - A^+ A and N_B = I - B B^+ (Penrose,
    1955), read off :func:`linalg.svd` as I - V_r V_r* of A and I - U_r U_r*
    of B: no pseudoinverse is formed, so neither projector depends on the
    operands' scale. When x solves the equation, as the reduced solution
    A^+ C B^+ does, these are exactly its solutions. AX = B is the case
    b = I and AXA* = C the case b = A*.

    x, v1 and v2 must all be A.cols x B.rows.
    """
    am, bm, xm, v1m, v2m = (as_matrix(m) for m in (a, b, x, v1, v2))
    shape = (am.shape[1], bm.shape[0])
    if xm.shape != shape or v1m.shape != shape or v2m.shape != shape:
        raise InputError(
            f"x, v1 and v2 must be A.cols x B.rows = {shape} for A {am.shape} and "
            f"B {bm.shape}, got {xm.shape}, {v1m.shape} and {v2m.shape}"
        )
    v, u = svd(am).right, svd(bm).left
    n_a = _hermitize(np.eye(am.shape[1], dtype=np.complex128) - v @ v.conj().T)
    n_b = _hermitize(np.eye(bm.shape[0], dtype=np.complex128) - u @ u.conj().T)
    return xm + n_a @ v1m + v2m @ n_b


def congruence_solve(a, c, tol: float = TOL_RANGE) -> SolveResult:
    """Positive solution of AXA* = C, when one exists.

    The candidate X = A^+ C (A^+)* is Hermitian PSD whenever the instance
    is solvable, which requires C Hermitian PSD together with range(C) in
    range(A) and range((A^+ C)*) in range(A). "C is PSD" is opeq's one PSD
    rule, :attr:`linalg.Cholesky.psd`: the remainder of :func:`linalg.cholesky`
    on C within PSD_CLAMP_TOL. An indefinite C is reported as an unsolvable
    instance, not an input error; non-Hermitian C is rejected outright.
    """
    am, ea = _prescaled(as_matrix(a))
    cm, ec, _ = _hermitian_prescaled(as_matrix(c), "C")
    if am.shape[0] != cm.shape[0]:
        raise InputError(f"row mismatch: A is {am.shape}, C is {cm.shape}")

    psd_cond = ConditionReport("C is PSD", cholesky(cm).remainder, PSD_CLAMP_TOL,
                               "Schur remainder of cholesky(C), bound PSD_CLAMP_TOL")

    fa = svd(am)
    ap = fa.pinv()
    ac = ap @ cm
    x = _hermitize(ac @ ap.conj().T)
    residual = verify_solution("axastar_c", x, a=am, c=cm)
    cond1 = basis_inclusion(cm, fa.range_basis, tol, name="range(C) in range(A)")
    cond2 = basis_inclusion(ac.conj().T, fa.range_basis, tol, name="range((A+C)*) in range(A)")
    return SolveResult(_unscale(x, ec - 2 * ea, "solution overflows"), residual,
                       [psd_cond, cond1, cond2])


def pt_solve(h, k) -> SolveResult:
    """Solve XHX = K for the positive X, H and K Hermitian PSD: four
    conditions and, for nonsingular H, the positive solution
    X = H^{-1} # K with its residual. ``detail["h_nonsingular"]`` says which
    case holds. ``detail["norm_bound"]`` is a_min, the least a with
    (H^{1/2} K H^{1/2})^{1/2} <= a H, at every rank of H: for nonsingular H
    the norm of the unique positive solution. For singular H a note says
    why no solution is emitted: a positive solution X, when one exists, is
    not unique, as X + t P solves too, P the projector onto ker(H), t >= 0.

    One path serves every rank of H. :func:`linalg._psd_cholesky` factors
    each of H and K once and refuses one that is not PSD; H = F F* and
    K = G G* with F and G their truncated Cholesky factors, n x rank. Any
    F with F F* = H gives F* X F = |M| for M = G* F, so one thin svd
    M = W_r S_r V_r* gives |M| = V_r S_r V_r* at every rank of H. Only
    F^{+*} depends on the rank: back substitution for positive definite
    H, where X = F^{-*} (V_r W_r*) G*, else the pseudoinverse off one svd
    of F, where X = F^{+*} |M| F^{+}. herm_eig runs once, for a_min, and
    never on H or K. The sandwich H^{1/2} K H^{1/2} is never formed, so
    kappa(H) kappa(K) is not squared. X(sH, tK) = sqrt(t/s) X, so a_min is
    scaled back with X by the module's scale rule.

    The conditions, necessary and not sufficient, are theorems for every
    PSD H and K, stated with witness 0 and bound 0 and never computed:
      ii-a  range((H^{1/2} K H^{1/2})^{1/2})      within range(H^{1/2})
      ii-b  range((H^{1/2+} (...)^{1/2})*)        within range(H^{1/2})
      iii   range((H^{1/2} K H^{1/2})^{1/4})      within range(H^{1/2})
      iv    existence of lambda with (H^{1/2} K H^{1/2})^{1/2} <= lambda H
    With r = rank(H), H^{1/2} = F Q* for a Q with orthonormal columns, so
    ii-a, ii-b and iii compare the r-row ranges of |M|, (F^{+*} |M|)* and
    |M|^{1/2} with C^r itself, every range being closed in finite
    dimensions, and (iv) reads |M| <= lambda F* F, true for lambda = a_min:
    y* |M| y = (Fy)* X (Fy) <= a_min y* F* F y, and for no less, as Fy runs
    over range(H), which holds range(X)."""
    hm, eh, _ = _hermitian_prescaled(as_matrix(h), "H")
    km, ek, _ = _hermitian_prescaled(as_matrix(k), "K")
    if hm.shape != km.shape:
        raise InputError(f"H and K must have equal shape, got {hm.shape} vs {km.shape}")
    shift = (ek - eh) // 2
    hc = _psd_cholesky(hm, "H")
    fh = hc.factor
    # K = G G*: M = G* F = W_r S_r V_r* gives F* X F = |M| = V_r S_r V_r*
    g_adj = _psd_cholesky(km, "K").factor.conj().T
    f = svd(g_adj @ fh)
    if hc.definite:
        x = hc.solve_adjoint(f.right @ f.left.conj().T @ g_adj)
    else:
        fh_pinv = svd(fh).pinv()
        sq = _hermitian_power(f.right[:, ::-1], f.singulars[: f.rank][::-1], 1.0)
        x = (fh_pinv.conj().T @ sq) @ fh_pinv
    x = _hermitize(x)

    reports = [ConditionReport(name, 0.0, 0.0, "range identity in C^r, holds for every PSD H and K")
               for name in ("ii-a", "ii-b", "iii")]
    reports.append(ConditionReport("iv", 0.0, 0.0,
                                   "holds for every PSD H and K, lambda = detail.norm_bound"))
    lam = max(float(herm_eig(x).values[-1]), 0.0)
    detail = {"h_nonsingular": hc.definite,
              "norm_bound": float(_unscale(np.array([lam]), shift, "norm bound overflows")[0])}
    if not hc.definite:
        detail["note"] = ("singular H: only the necessity conditions are evaluated, "
                          "no solution is emitted")
        return SolveResult(None, None, reports, detail)
    residual = verify_solution("xhx_k", x, h=hm, k=km)
    return SolveResult(_unscale(x, shift, "solution overflows"), residual, reports, detail)


def riccati_geomean(a, b) -> SolveResult:
    """Geometric mean A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}.

    This is the unique PSD solution of the Riccati equation
    X A^{-1} X = B. Requires a positive definite, refused otherwise by
    :func:`linalg._definite_cholesky`, and b Hermitian PSD.

    A = F F* and B = G G*, with F and G the Cholesky factors; G is the
    truncated one, n x rank(B), when B is not positive definite, and
    :func:`linalg._psd_cholesky` refuses a B that is not PSD. One thin
    svd of M = G* F^{-*} = (F^{-1} G)* = W_r S_r V_r*,
    with F^{-1} G by forward substitution, gives A # B = F (V_r W_r*) G*: the
    congruence invariance of the mean (Iannazzo, Numer. Linear Algebra
    Appl. 23, 2016). The thin factors suffice, as V_r W_r* M = |M|. No
    square root is taken and the sandwich A^{-1/2} B A^{-1/2} is never
    formed, so kappa(A) kappa(B) is not squared. Two cholesky calls and
    one svd at every rank of B, and no herm_eig; the residual reuses the
    Cholesky factor of the scaled A. There are no conditions, so the
    result is solvable.
    """
    sa, ea, _ = _hermitian_prescaled(as_matrix(a), "a")
    tb, eb, _ = _hermitian_prescaled(as_matrix(b), "b")
    if sa.shape != tb.shape:
        raise InputError(f"a and b must have equal shape, got {sa.shape} vs {tb.shape}")
    ac = _definite_cholesky(sa, "a")
    g = _psd_cholesky(tb, "b").factor
    f = svd(ac.solve(g).conj().T)
    x = _hermitize(ac.factor @ (f.right @ f.left.conj().T) @ g.conj().T)
    residual = verify_solution("riccati", x, a=sa, b=tb)
    return SolveResult(_unscale(x, (ea + eb) // 2, "geometric mean overflows"), residual, [])
