"""Solvability diagnostics: range inclusions, majorization constants, and
the condition battery for the quadratic equation XHX = K.

Checks never raise on a negative outcome. Each returns a ConditionReport
whose ``witness`` is the signed margin that decided it, so callers can see
how close a verdict was.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    TOL_PSD,
    InputError,
    PsdFactor,
    as_matrix,
    frob,
    hermitian_part,
    herm_eig,
    psd_factor,
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

    ``witness`` is a signed margin: residual-type conditions hold when it
    is at most the stated bound, gap-type conditions hold when it is at
    least minus the PSD tolerance.
    """

    name: str
    holds: bool
    witness: float
    detail: str = ""


def basis_inclusion(b, basis: np.ndarray, tol: float = TOL_RANGE,
                    name: str = "range_inclusion") -> ConditionReport:
    """Does the column space of b lie inside the span of the orthonormal
    columns of ``basis``? Holds iff ||B - U_r U_r* B||_F <= tol * (1 + ||B||_F)."""
    bm = as_matrix(b)
    if bm.shape[0] != basis.shape[0]:
        raise InputError(
            f"range_inclusion needs equal row counts, got {bm.shape} vs {basis.shape[0]} rows"
        )
    witness = frob(bm - basis @ (basis.conj().T @ bm))
    bound = tol * (1.0 + frob(bm))
    return ConditionReport(
        name=name,
        holds=witness <= bound,
        witness=witness,
        detail=f"projector residual {witness:.3e}, bound {bound:.3e}",
    )


def range_inclusion(b, a, tol: float = TOL_RANGE) -> ConditionReport:
    """Does the column space of b lie inside the column space of a?

    Decided against the range basis U_r of ``svd(a)``: holds iff
    ||B - U_r U_r* B||_F <= tol * (1 + ||B||_F).
    """
    return basis_inclusion(b, svd(a).range_basis, tol)


def majorization_lambda(b, a, tol: float = TOL_RANGE) -> float | None:
    """Smallest lambda >= 0 with B B* <= lambda A A*, or None if none exists.

    In finite dimensions such a lambda exists exactly when range(B) is
    contained in range(A), and then equals the squared spectral norm of
    A^+ B. Both the inclusion and A^+ come from one ``svd(a)``. The value
    is re-verified as an operator inequality (with a small multiplicative
    slack) before being returned.
    """
    bm = as_matrix(b)
    am = as_matrix(a)
    f = svd(am)
    if not basis_inclusion(bm, f.range_basis, tol).holds:
        return None
    lam = spectral_norm(f.pinv() @ bm) ** 2
    bb = bm @ bm.conj().T
    aa = am @ am.conj().T
    y = lam * (1.0 + LAMBDA_SLACK) * aa
    gap = psd_gap(bb, y)
    if gap < -TOL_PSD * (frob(bb) + frob(y)):
        return None
    return lam


@dataclass
class PtBattery:
    """The condition battery for XHX = K together with what it factored.

    ``h`` and ``k`` are the Hermitian parts of the operands. ``candidate``
    is H^{1/2+} (H^{1/2} K H^{1/2})^{1/2} H^{1/2+}: the positive solution
    when H is nonsingular. ``lam`` is its largest eigenvalue (floored at
    zero): the least constant of condition iv when condition iii holds,
    and for nonsingular H the solution's spectral norm.
    """

    reports: list[ConditionReport]
    h: np.ndarray
    k: np.ndarray
    h_factor: PsdFactor
    candidate: np.ndarray
    lam: float


def pt_battery(h, k, tol: float = TOL_RANGE) -> PtBattery:
    """Evaluate the XHX = K conditions, factoring H, K and the inner
    sandwich H^{1/2} K H^{1/2} once each (see :func:`pt_conditions`)."""
    hm = hermitian_part(h, "H")
    km = hermitian_part(k, "K")
    if hm.shape != km.shape:
        raise InputError(f"H and K must have equal shape, got {hm.shape} vs {km.shape}")
    hf = psd_factor(hm, "H")
    psd_factor(km, "K", tol=TOL_PSD)  # input validation only
    hs = hf.power(0.5)
    hsp = hf.power(-0.5)
    inner = hs @ km @ hs
    inner_factor = psd_factor(0.5 * (inner + inner.conj().T))
    sq = inner_factor.power(0.5)
    quarter = inner_factor.power(0.25)
    basis = hf.range_basis

    ii_a = basis_inclusion(sq, basis, tol, name="ii-a")
    ii_b = basis_inclusion((hsp @ sq).conj().T, basis, tol, name="ii-b")
    iii = basis_inclusion(quarter, basis, tol, name="iii")

    # (iv) is the majorization form sq = quarter quarter* <= lambda H with
    # H = hs hs*; its range half is exactly (iii), and its least lambda is
    # ||H^{1/2+} quarter||^2, the top eigenvalue of H^{1/2+} sq H^{1/2+}
    x = hsp @ sq @ hsp
    x = 0.5 * (x + x.conj().T)
    lam = max(float(herm_eig(x).values[-1]), 0.0)
    if not iii.holds:
        probe = 1e6
        iv = ConditionReport(
            name="iv",
            holds=False,
            witness=psd_gap(sq, probe * hm),
            detail=f"no finite lambda; gap at lambda={probe:.0e} still negative",
        )
    else:
        y = lam * (1.0 + LAMBDA_SLACK) * hm
        gap = psd_gap(sq, y)
        iv = ConditionReport(
            name="iv",
            holds=gap >= -TOL_PSD * (frob(sq) + frob(y)),
            witness=gap,
            detail=f"lambda={lam:.9e}",
        )
    return PtBattery([ii_a, ii_b, iii, iv], hm, km, hf, x, lam)


def pt_conditions(h, k, tol: float = TOL_RANGE) -> list[ConditionReport]:
    """Condition battery for solvability of XHX = K with X positive.

    Reports, in order:
      ii-a  range((H^{1/2} K H^{1/2})^{1/2})      within range(H^{1/2})
      ii-b  range((H^{1/2+} (...)^{1/2})*)        within range(H^{1/2})
      iii   range((H^{1/2} K H^{1/2})^{1/4})      within range(H^{1/2})
      iv    existence of lambda with (H^{1/2} K H^{1/2})^{1/2} <= lambda H

    The four are equivalent when H is nonsingular; for singular H the
    first two are the necessary pair and the reports may disagree, which
    is why each is evaluated independently.
    """
    return pt_battery(h, k, tol).reports


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
            # riccati: X A^{-1} X = B
            af = psd_factor(_need(a, "a"), "a")
            if not af.nonsingular:
                raise InputError("riccati verification needs positive definite a")
            rhs = _need(b, "b")
            lhs = x @ af.power(-1) @ x
        resid = require_finite(lhs - rhs, "residual overflows")
    return frob(resid) / (1.0 + frob(rhs))
