"""Solvability diagnostics: range inclusions, majorization constants,
SolveResult (what every solver returns), the XHX = K solver pt_solve (its
condition battery returned with its solution), and verify_solution, the
one residual that every solver reports.

Checks never raise on a negative outcome. Each returns a ConditionReport
whose ``witness`` is the residual that decided it, so callers can see how
close a verdict was; a condition that holds as a theorem has witness 0.
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


@dataclass
class ConditionReport:
    """Outcome of one solvability condition.

    ``witness`` is a residual: the condition holds when it is at most the
    stated bound, and a condition that holds for every input has witness 0.
    """

    name: str
    holds: bool
    witness: float
    detail: str = ""


def basis_inclusion(b, basis: np.ndarray, tol: float = TOL_RANGE,
                    name: str = "range_inclusion") -> ConditionReport:
    """Does the column space of b lie inside the span of the orthonormal
    columns of ``basis``? Holds iff ||B - U_r U_r* B||_F <= tol * ||B||_F, a
    bound relative at every scale of B; a zero B holds."""
    bm = as_matrix(b)
    if bm.shape[0] != basis.shape[0]:
        raise InputError(
            f"range_inclusion needs equal row counts, got {bm.shape} vs {basis.shape[0]} rows"
        )
    witness = frob(bm - basis @ (basis.conj().T @ bm))
    bound = tol * frob(bm)
    return ConditionReport(
        name=name,
        holds=witness <= bound,
        witness=witness,
        detail=f"projector residual {witness:.3e}, bound {bound:.3e}",
    )


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
    ``h_nonsingular`` and then ``norm_bound`` or a note, empty elsewhere.
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
    holds. For nonsingular H the positive solution is unique, and
    ``detail["norm_bound"]`` is its spectral norm a_min, the least a with
    (H^{1/2} K H^{1/2})^{1/2} <= a H; for singular H a note says why no
    solution is emitted.

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

    The four conditions are theorems, stated with witness 0 and never
    computed: see :func:`pt_conditions`. lambda in (iv) is the top
    eigenvalue of X, and so is a_min for nonsingular H.
    X(sH, tK) = sqrt(t/s) X, so all of it runs on H and K scaled by
    :func:`linalg._prescaled`, and X, a_min and lambda in (iv) are scaled
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

    reports = [ConditionReport(name, True, 0.0, "range identity in C^r, holds for every PSD H and K")
               for name in ("ii-a", "ii-b", "iii")]
    lam = max(float(herm_eig(x).values[-1]), 0.0)
    a_min = float(_unscale(np.array([lam]), shift, "norm bound overflows")[0])
    reports.append(ConditionReport("iv", True, 0.0, f"lambda={a_min:.9e}"))
    if not hc.definite:
        note = "singular H: only the necessity conditions are evaluated, no solution is emitted"
        return SolveResult(None, None, reports, {"h_nonsingular": False, "note": note})
    residual = verify_solution("xhx_k", x, h=hm, k=km)
    return SolveResult(_unscale(x, shift, "solution overflows"), residual, reports,
                       {"h_nonsingular": True, "norm_bound": a_min})


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
    <= lambda y* F* F y. So each holds with witness 0, in a detail that
    reads no tolerance. They are necessary, not sufficient. For a
    singular H no solution is emitted, because a positive solution X,
    when one exists, is not unique: X + t P solves too for P the
    projector onto ker(H) and every t >= 0.
    ``pt_solve(h, k).detail["h_nonsingular"]`` says which case holds.
    """
    return pt_solve(h, k).conditions


VERIFY_KINDS = ("ax_b", "axb_c", "axastar_c", "xhx_k", "riccati")


def verify_solution(kind: str, candidate, a=None, b=None, c=None, h=None, k=None) -> float:
    """Relative residual of a candidate solution for one equation family.

    Kinds: ax_b (needs a, b), axb_c (a, b, c), axastar_c (a, c),
    xhx_k (h, k), riccati (a positive definite, b). The residual is
    ||lhs - rhs||_F / (1 + ||rhs||_F); when lhs - rhs leaves the
    floating-point range, InputError is raised instead.
    """
    x = as_matrix(candidate)
    kd = kind.lower().replace("-", "_")
    if kd not in VERIFY_KINDS:
        raise InputError(f"unknown equation kind {kind!r}; expected one of {VERIFY_KINDS}")

    def _need(val, names):
        if val is None:
            raise InputError(f"kind {kd!r} needs operand {names}")
        return as_matrix(val)

    with np.errstate(over="ignore", invalid="ignore"):
        if kd == "ax_b":
            am, rhs = _need(a, "a"), _need(b, "b")
            lhs = am @ x
        elif kd == "axb_c":
            am, bm, rhs = _need(a, "a"), _need(b, "b"), _need(c, "c")
            lhs = am @ x @ bm
        elif kd == "axastar_c":
            am, rhs = _need(a, "a"), _need(c, "c")
            lhs = am @ x @ am.conj().T
        elif kd == "xhx_k":
            hm, rhs = _need(h, "h"), _need(k, "k")
            lhs = x @ hm @ x
        else:
            # riccati: X A^{-1} X = (F^{-1} X*)* (F^{-1} X) for A = F F*
            am = _need(a, "a")
            ac = _definite_cholesky(am, "a")
            rhs = _need(b, "b")
            lhs = ac.solve(x.conj().T).conj().T @ ac.solve(x)
        resid = require_finite(lhs - rhs, "residual overflows")
    return frob(resid) / (1.0 + frob(rhs))
