"""Solvability diagnostics: range inclusions, majorization constants,
SolveResult (what every solver returns), the XHX = K solver pt_solve (its
condition battery returned with its solution), and verify_solution, the
one residual that every solver reports.

Checks never raise on a negative outcome. Each returns a ConditionReport,
whose verdict is witness <= bound, so callers see how close it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    TOL_PSD,
    InputError,
    _definite_cholesky,
    _hermitian_power,
    _hermitize,
    _prescaled,
    _psd_cholesky,
    _unscale,
    as_matrix,
    frob,
    hermitian_part,
    herm_eig,
    psd_gap,
    require_finite,
    spectral_norm,
    svd,
)

# Default decision tolerance for range tests; CLI --tol and OPEQ_TOL land here.
TOL_RANGE = 1e-8

# Slack factor applied when re-verifying a computed majorization constant.
LAMBDA_SLACK = 1e-6


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one solvability condition: ``witness``, the residual that
    decides it, ``bound``, its cutoff, and ``detail``, fixed text stating the
    rule. It holds iff witness <= bound; a theorem has witness 0, bound 0."""

    name: str
    witness: float
    bound: float
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.witness <= self.bound


def basis_inclusion(b, basis: np.ndarray, tol: float = TOL_RANGE,
                    name: str = "range_inclusion") -> ConditionReport:
    """Does the column space of b lie inside the span of the orthonormal
    columns of ``basis``? The witness is ||B - U_r U_r* B||_F and the bound
    tol * ||B||_F, relative at every scale of B; a zero B holds."""
    bm = as_matrix(b)
    if bm.shape[0] != basis.shape[0]:
        raise InputError(f"range_inclusion needs equal row counts, "
                         f"got {bm.shape} vs {basis.shape[0]} rows")
    return ConditionReport(name, frob(bm - basis @ (basis.conj().T @ bm)), tol * frob(bm),
                           "projector residual ||B - U_r U_r* B||_F, bound tol ||B||_F")


def range_inclusion(b, a, tol: float = TOL_RANGE) -> ConditionReport:
    """Does the column space of b lie inside the column space of a?

    Decided against the range basis U_r of ``svd(a)``: holds iff
    ||B - U_r U_r* B||_F <= tol * ||B||_F.
    """
    return basis_inclusion(b, svd(a).range_basis, tol)


def majorization_lambda(b, a, tol: float = TOL_RANGE) -> float | None:
    """Smallest lambda >= 0 with B B* <= lambda A A*, or None if none exists.

    In finite dimensions such a lambda exists exactly when range(B) is
    contained in range(A), and then equals the squared spectral norm of
    A^+ B. Both the inclusion and A^+ come from one ``svd(a)``. The value
    is re-verified before being returned: Y = lambda (1 + LAMBDA_SLACK) A A*
    must leave psd_gap(B B*, Y) >= -TOL_PSD (||B B*||_F + ||Y||_F).
    """
    bm = as_matrix(b)
    am = as_matrix(a)
    f = svd(am)
    if not basis_inclusion(bm, f.range_basis, tol).holds:
        return None
    lam = spectral_norm(f.pinv() @ bm) ** 2
    bb = bm @ bm.conj().T
    aa = lam * (1.0 + LAMBDA_SLACK) * (am @ am.conj().T)
    if not psd_gap(bb, aa) >= -TOL_PSD * (frob(bb) + frob(aa)):
        return None
    return lam


@dataclass(frozen=True)
class SolveResult:
    """What every solver returns, in all five families.

    ``residual`` is :func:`verify_solution`'s for the family, and None when
    no solution is emitted. ``conditions`` are the family's reports, none for
    riccati. ``detail`` is what a report prints beside them: pt's
    ``h_nonsingular``, ``norm_bound`` and for singular H a note, else empty.
    The null projectors span the freedom of a reduced solver's general
    solution (:func:`solvers.general_solution`); pt and riccati have none.
    """

    solution: np.ndarray | None
    residual: float | None
    conditions: list[ConditionReport]
    detail: dict = field(default_factory=dict)
    left_null_projector: np.ndarray | None = None
    right_null_projector: np.ndarray | None = None

    @property
    def solvable(self) -> bool:
        return self.solution is not None and all(c.holds for c in self.conditions)


def pt_solve(h, k) -> SolveResult:
    """Solve XHX = K for the positive X, H and K Hermitian PSD: the
    conditions of :func:`pt_conditions` and, for nonsingular H, the
    positive solution X = H^{-1} # K with its residual from
    :func:`verify_solution`. ``detail["h_nonsingular"]`` says which case
    holds. ``detail["norm_bound"]`` is a_min, the least a with
    (H^{1/2} K H^{1/2})^{1/2} <= a H (the lambda of (iv)), at every rank of
    H. For nonsingular H it is the norm of the unique positive solution;
    for singular H a note says why no solution is emitted.

    One path serves every rank of H. :func:`linalg._psd_cholesky` factors
    each of H and K once and refuses one that is not PSD; H = F F* and
    K = G G* with F and G their truncated Cholesky factors, n x rank. Any
    F with F F* = H gives F* X F = |M| for M = G* F, so one thin svd
    M = W_r S_r V_r* gives |M| = V_r S_r V_r* at every rank of H. Only
    F^{+*} depends on the rank: back substitution for positive definite
    H, where X = F^{-*} (V_r W_r*) G*, else the pseudoinverse off one svd
    of F, where X = F^{+*} |M| F^{+}. herm_eig runs once, for X's top
    eigenvalue, and never on H or K. The sandwich H^{1/2} K H^{1/2} is
    never formed, so kappa(H) kappa(K) is not squared.

    The four conditions are theorems, stated with witness 0 and bound 0
    and never computed: see :func:`pt_conditions`. a_min is the top
    eigenvalue of X. X(sH, tK) = sqrt(t/s) X, so all of it runs on H and
    K scaled by :func:`linalg._prescaled`, and X and a_min are scaled
    back; the residual is that of the scaled operands."""
    hm, eh = _prescaled(hermitian_part(h, "H"))
    km, ek = _prescaled(hermitian_part(k, "K"))
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


def pt_conditions(h, k) -> list[ConditionReport]:
    """Condition battery for solvability of XHX = K with X positive.

    Reports, in order:
      ii-a  range((H^{1/2} K H^{1/2})^{1/2})      within range(H^{1/2})
      ii-b  range((H^{1/2+} (...)^{1/2})*)        within range(H^{1/2})
      iii   range((H^{1/2} K H^{1/2})^{1/4})      within range(H^{1/2})
      iv    existence of lambda with (H^{1/2} K H^{1/2})^{1/2} <= lambda H

    All four are theorems for every PSD H and K, since in finite
    dimensions every range is closed. With H = F F*, K = G G*, M = G* F
    and r = rank(H), H^{1/2} = F Q* for a Q with orthonormal columns, so
    ii-a, ii-b and iii compare the r-row ranges of |M|, (F^{+*} |M|)* and
    |M|^{1/2} with C^r itself, and (iv) reads |M| <= lambda F* F, true for
    lambda = lambda_max(X), X = F^{+*} |M| F^{+}: y* |M| y = (Fy)* X (Fy)
    <= lambda y* F* F y, and for no less, as Fy runs over range(H), which
    holds range(X); it is ``pt_solve(h, k).detail["norm_bound"]``. So each
    holds with witness 0 and bound 0, in a detail that reads no tolerance.
    They are necessary, not sufficient. For a singular H no solution is
    emitted, because a positive solution X, when one exists, is not
    unique: X + t P solves too for P the projector onto ker(H) and every
    t >= 0. ``pt_solve(h, k).detail["h_nonsingular"]`` says which case holds.
    """
    return pt_solve(h, k).conditions


VERIFY_KINDS = ("ax_b", "axb_c", "axastar_c", "xhx_k", "riccati")


def verify_solution(kind: str, candidate, a=None, b=None, c=None, h=None, k=None) -> float:
    """Relative residual of a candidate solution for one equation family.

    Kinds: ax_b (needs a, b), axb_c (a, b, c), axastar_c (a, c),
    xhx_k (h, k), riccati (a positive definite, b). The residual is
    ||lhs - rhs||_F / (1 + ||rhs||_F); InputError is raised instead when the
    shapes do not conform or lhs - rhs leaves the floating-point range.
    """
    x = as_matrix(candidate)
    kd = kind.lower().replace("-", "_")
    if kd not in VERIFY_KINDS:
        raise InputError(f"unknown equation kind {kind!r}; expected one of {VERIFY_KINDS}")

    def _need(val, names):
        if val is None:
            raise InputError(f"kind {kd!r} needs operand {names}")
        return as_matrix(val)

    def _conform(x_shape, rhs, rhs_shape, **operands):
        if x.shape != x_shape or rhs.shape != rhs_shape:
            shapes = ", ".join(f"{name} {m.shape}" for name, m in operands.items())
            raise InputError(f"kind {kd!r}: candidate {x.shape} does not conform to {shapes}")

    with np.errstate(over="ignore", invalid="ignore"):
        if kd == "ax_b":
            am, rhs = _need(a, "a"), _need(b, "b")
            _conform((am.shape[1], rhs.shape[1]), rhs, (am.shape[0], rhs.shape[1]), a=am, b=rhs)
            lhs = am @ x
        elif kd == "axb_c":
            am, bm, rhs = _need(a, "a"), _need(b, "b"), _need(c, "c")
            _conform((am.shape[1], bm.shape[0]), rhs, (am.shape[0], bm.shape[1]), a=am, b=bm, c=rhs)
            lhs = am @ x @ bm
        elif kd == "axastar_c":
            am, rhs = _need(a, "a"), _need(c, "c")
            _conform((am.shape[1],) * 2, rhs, (am.shape[0],) * 2, a=am, c=rhs)
            lhs = am @ x @ am.conj().T
        elif kd == "xhx_k":
            hm, rhs = _need(h, "h"), _need(k, "k")
            _conform(hm.shape[::-1], rhs, hm.shape[::-1], h=hm, k=rhs)
            lhs = x @ hm @ x
        else:
            # riccati: X A^{-1} X = (F^{-1} X*)* (F^{-1} X) for A = F F*
            am = _need(a, "a")
            ac = _definite_cholesky(am, "a")
            rhs = _need(b, "b")
            _conform(am.shape, rhs, am.shape, a=am, b=rhs)
            lhs = ac.solve(x.conj().T).conj().T @ ac.solve(x)
        resid = require_finite(lhs - rhs, "residual overflows")
    return frob(resid) / (1.0 + frob(rhs))
