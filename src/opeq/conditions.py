"""Solvability checks: range inclusions, majorization constants, and
verify_solution, the one residual that every solver reports. The solvers,
pt_solve among them, and their SolveResult are in :mod:`opeq.solvers`.

Checks never raise on a negative outcome. Each returns a ConditionReport,
whose verdict is witness <= bound, so callers see how close it was.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    InputError,
    _definite_cholesky,
    _prescaled,
    _unscale,
    as_matrix,
    frob,
    require_finite,
    spectral_norm,
    svd,
)

# Default decision tolerance for range tests, and the bound `opeq solve` puts
# on the residual; CLI --tol and OPEQ_TOL land here.
TOL_RANGE = 1e-8


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

    For B_s and A_s, b and a scaled by :func:`linalg._prescaled`, and U_r
    the range basis of ``svd(A_s)``: holds iff ||B_s - U_r U_r* B_s||_F <=
    tol ||B_s||_F. Witness and bound are B_s's, so B's for every B whose
    largest part lies in [2**-33, 2**31).
    """
    (am, _), (bm, _) = (_prescaled(as_matrix(m)) for m in (a, b))
    return basis_inclusion(bm, svd(am).range_basis, tol)


def majorization_lambda(b, a, tol: float = TOL_RANGE) -> float | None:
    """Least lambda >= 0 with B B* <= lambda A A*, or None exactly when
    range_inclusion(b, a, tol) fails.

    M_n is a W*-algebra whose ranges are all closed, so by Douglas's lemma
    such a lambda exists iff range(B) lies in range(A), and the least one
    is ||A^+ B||_2^2 = 2**(2 (eb - ea)) ||A_s^+ B_s||_2^2 for A_s = 2**-ea A
    and B_s = 2**-eb B scaled by :func:`linalg._prescaled`. The inclusion
    test and A_s^+ come from one ``svd(A_s)``, whose kept singular values
    are at least about 2**-83, so no scale of A or B makes A_s^+ B_s
    overflow. A loose tol may admit a leak E = B_s - U_r U_r* B_s; A_s^+
    annihilates it, so lambda is then exact for the admitted part, and the
    leak is the range witness. InputError is raised when lambda leaves
    the floating-point range.
    """
    (am, ea), (bm, eb) = (_prescaled(as_matrix(m)) for m in (a, b))
    f = svd(am)
    if not basis_inclusion(bm, f.range_basis, tol).holds:
        return None
    lam = spectral_norm(f.pinv() @ bm) ** 2
    return float(_unscale(np.array([lam]), 2 * (eb - ea), "majorization constant overflows")[0])


VERIFY_KINDS = ("ax_b", "axb_c", "axastar_c", "xhx_k", "riccati")


def verify_solution(kind: str, candidate, a=None, b=None, c=None, h=None, k=None) -> float:
    """Relative residual of a candidate solution for one equation family.

    Kinds: ax_b (needs a, b), axb_c (a, b, c), axastar_c (a, c),
    xhx_k (h, k), riccati (a positive definite, b). The residual is
    ||lhs - rhs||_F / (1 + ||rhs||_F); InputError is raised instead when the
    shapes do not conform or lhs - rhs leaves the floating-point range.
    """
    x = as_matrix(candidate)
    if kind not in VERIFY_KINDS:
        raise InputError(f"unknown equation kind {kind!r}; expected one of {VERIFY_KINDS}")

    def _need(val, names):
        if val is None:
            raise InputError(f"kind {kind!r} needs operand {names}")
        return as_matrix(val)

    def _conform(x_shape, rhs, rhs_shape, **operands):
        if x.shape != x_shape or rhs.shape != rhs_shape:
            shapes = ", ".join(f"{name} {m.shape}" for name, m in operands.items())
            raise InputError(f"kind {kind!r}: candidate {x.shape} does not conform to {shapes}")

    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "ax_b":
            am, rhs = _need(a, "a"), _need(b, "b")
            _conform((am.shape[1], rhs.shape[1]), rhs, (am.shape[0], rhs.shape[1]), a=am, b=rhs)
            lhs = am @ x
        elif kind == "axb_c":
            am, bm, rhs = _need(a, "a"), _need(b, "b"), _need(c, "c")
            _conform((am.shape[1], bm.shape[0]), rhs, (am.shape[0], bm.shape[1]), a=am, b=bm, c=rhs)
            lhs = am @ x @ bm
        elif kind == "axastar_c":
            am, rhs = _need(a, "a"), _need(c, "c")
            _conform((am.shape[1],) * 2, rhs, (am.shape[0],) * 2, a=am, c=rhs)
            lhs = am @ x @ am.conj().T
        elif kind == "xhx_k":
            hm, rhs = _need(h, "h"), _need(k, "k")
            _conform(hm.shape[::-1], rhs, hm.shape[::-1], h=hm, k=rhs)
            lhs = x @ hm @ x
        else:
            # riccati: X A^{-1} X = (F^{-1} X*)* (F^{-1} X) for A = F F*
            am, rhs = _need(a, "a"), _need(b, "b")
            square = (am.shape[0],) * 2
            # a non-square a conforms to no candidate
            _conform(square if am.shape == square else None, rhs, square, a=am, b=rhs)
            ac = _definite_cholesky(am, "a")
            lhs = ac.solve(x.conj().T).conj().T @ ac.solve(x)
        resid = require_finite(lhs - rhs, "residual overflows")
    return frob(resid) / (1.0 + frob(rhs))
