"""Seeded randomized property sweeps.

Each suite draws its instances from one PCG64 stream (numpy's
default_rng), consumed in a fixed order, so a given seed yields a
byte-identical report. Suites assert the contracts of the solvers and
checkers on constructed-solvable and constructed-unsolvable inputs and
record worst-case margins.

:func:`run_sweep` runs the suites inside one factor-sharing scope
(``linalg._shared_factors``): the suites check several conditions on the
same operands through public entry points that each factor them, and in
the scope herm_eig, svd and cholesky return their stored result for any of
the last 8 inputs they factored. The results are read-only and bit-equal
to a fresh factorization, so the report is byte-identical to one made
without the scope, and the memo is dropped when the sweep returns.
"""

from __future__ import annotations

import numpy as np

from .conditions import majorization_lambda, range_inclusion
from .linalg import (
    InputError,
    _cholesky_power,
    _hermitize,
    _psd_cholesky,
    _shared_factors,
    adjoint,
    frob,
    herm_eig,
    orthonormalize,
    pinv,
    psd_gap,
    psd_sqrt,
    range_projector,
    spectral_norm,
    svd,
)
from .solvers import (
    axb_reduced_solve,
    congruence_solve,
    douglas_reduced_solve,
    general_solution,
    pt_solve,
    riccati_geomean,
)

# --- instance generators ----------------------------------------------------


def random_matrix(rng: np.random.Generator, rows: int, cols: int, rank: int | None = None) -> np.ndarray:
    """Complex Gaussian matrix of a prescribed rank (None = drawn uniformly)."""
    if rank is None:
        rank = int(rng.integers(0, min(rows, cols) + 1))
    if rank == 0:
        return np.zeros((rows, cols), dtype=np.complex128)
    if rank >= min(rows, cols):
        return (rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))) / np.sqrt(2.0)
    left = (rng.normal(size=(rows, rank)) + 1j * rng.normal(size=(rows, rank))) / np.sqrt(2.0)
    right = (rng.normal(size=(rank, cols)) + 1j * rng.normal(size=(rank, cols))) / np.sqrt(2.0)
    return left @ right


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return orthonormalize(g)


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random positive definite matrix with eigenvalues in [10^-1.5, 1].

    The bounded condition number (about 31) keeps 1e-8 residual checks a
    statement about the algorithms rather than about ill-conditioning.
    """
    u = random_unitary(rng, n)
    vals = 10.0 ** rng.uniform(-1.5, 0.0, size=n)
    return _hermitize((u * vals) @ u.conj().T)


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    if rank is None:
        rank = int(rng.integers(1, n + 1))
    w = (rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))) / np.sqrt(2.0)
    return _hermitize(w @ w.conj().T / max(rank, 1))


def random_psd_singular(rng: np.random.Generator, n: int) -> np.ndarray:
    rank = int(rng.integers(1, n))
    return random_psd(rng, n, rank=rank)


def douglas_solvable_pair(rng: np.random.Generator, m: int, n: int, k: int):
    a = random_matrix(rng, m, n)
    c = random_matrix(rng, n, k, rank=min(n, k))
    return a, a @ c


def douglas_unsolvable_pair(rng: np.random.Generator, m: int, n: int, k: int):
    """B = A C plus a component orthogonal to range(A) of relative size 0.5."""
    a = random_matrix(rng, m, n, rank=int(rng.integers(0, m)))
    c = random_matrix(rng, n, k, rank=min(n, k))
    solvable_part = a @ c
    p = range_projector(a)
    w = random_matrix(rng, m, k, rank=min(m, k))
    w = w - p @ w
    nw = frob(w)
    if nw < 1e-12:
        raise InputError("degenerate orthogonal complement draw")
    w = w * (0.5 * (1.0 + frob(solvable_part)) / nw)
    return a, solvable_part + w


def congruence_solvable_pair(rng: np.random.Generator, m: int, n: int):
    a = random_matrix(rng, m, n)
    x0 = random_psd(rng, n)
    return a, _hermitize(a @ x0 @ a.conj().T)


def congruence_unsolvable_pair(rng: np.random.Generator, m: int, n: int, kind: str):
    """kind 'range': PSD C leaking out of range(A); kind 'indefinite':
    Hermitian C with a genuinely negative direction."""
    if kind == "range":
        a = random_matrix(rng, m, n, rank=int(rng.integers(0, m)))
        x0 = random_psd(rng, n)
        base = a @ x0 @ a.conj().T
        p = range_projector(a)
        for _ in range(100):
            g = rng.normal(size=m) + 1j * rng.normal(size=m)
            w = g - p @ g
            nw = float(np.linalg.norm(w))
            if nw > 1e-6:
                break
        else:
            raise InputError("degenerate orthogonal complement draw")
        w = w * ((1.0 + frob(base)) ** 0.5 / nw)
        c = base + np.outer(w, w.conj())
        return a, _hermitize(c)
    a = random_matrix(rng, m, n, rank=min(m, n))
    scale_dir = 1.0 + frob(a) ** 2
    for _ in range(100):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        c = _hermitize(np.outer(a @ x, (a @ x).conj()) - 3.0 * np.outer(a @ y, (a @ y).conj()))
        if herm_eig(c).values[0] < -1e-6 * scale_dir:
            return a, c
    raise InputError("failed to draw an indefinite right-hand side")


# The independent check of pt_solve's norm bound: a monotone Newton
# (Dinkelbach) iteration on g(a) = lambda_min(a H - S). The name is kept
# from the bisection it replaced because outside callers wrap it by name.
def norm_bound_bisect(h: np.ndarray, k: np.ndarray) -> float:
    """Minimal a with S = (H^{1/2} K H^{1/2})^{1/2} <= a H, for H > 0, by
    Newton's method on g(a) = lambda_min(a H - S).

    g is concave (a minimum of the affine maps a v*Hv - v*Sv over unit v)
    and increasing (its slope v*Hv is positive because H > 0), and g(0) =
    -lambda_max(S) <= 0. Each step reads the lowest eigenpair (g, v) of
    a H - S and moves a by -g / v*Hv, to the root of the tangent, which
    lies above g; so the iterate starts at 0, rises strictly and, up to
    rounding, never passes the root. It stops when the step is at most
    2^-50 a: a step that is not positive (g >= 0, a has reached the root)
    or one at rounding level relative to a, which no longer changes a
    beyond the eigensolver's own rounding. Every step that does not stop
    multiplies a by more than 1 + 2^-50, and a stays below the root, so
    the loop ends with no step cap, and it returns only at a stop. K = 0
    returns 0.0 after one eigendecomposition. Refuses H that is not
    positive definite.

    Independent of pt_solve: it reads only eigenpairs of a H - S, never
    the solver's closed form, so it cross-checks the solver's norm by a
    different route.
    """
    hc = _psd_cholesky(h, "h")
    if not hc.definite:
        raise InputError("the norm bound needs positive definite h")
    # H^{1/2} off the factorization that decided definiteness: psd_sqrt(h)
    # would factor h again outside a _shared_factors scope
    hs = _cholesky_power(hc, 0.5)
    inner = hs @ k @ hs
    s = psd_sqrt(_hermitize(inner))
    a = 0.0
    while True:
        eig = herm_eig(a * h - s)
        v = eig.vectors[:, 0]
        step = -float(eig.values[0]) / float((v.conj() @ h @ v).real)
        if not step > 2.0**-50 * a:
            return a
        a += step


# --- suites ------------------------------------------------------------------


class SuiteResult:
    def __init__(self, name: str):
        self.name = name
        self.instances = 0
        self.failures = 0
        self.margins: dict[str, float] = {}

    def observe(self, ok: bool, **margins: float) -> None:
        self.instances += 1
        if not ok:
            self.failures += 1
        for key, value in margins.items():
            prev = self.margins.get(key)
            if prev is None or value > prev:
                self.margins[key] = float(value)

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "failures": self.failures,
            "worst_margins": {k: self.margins[k] for k in sorted(self.margins)},
        }


def _dims(rng: np.random.Generator, max_dim: int):
    return int(rng.integers(2, max_dim + 1)), int(rng.integers(2, max_dim + 1))


def suite_penrose(rng, trials, max_dim):
    res = SuiteResult("penrose")
    for _ in range(trials):
        m, n = _dims(rng, max_dim)
        a = random_matrix(rng, m, n)
        ap = pinv(a)
        scale = 1.0 + frob(a)
        pscale = 1.0 + frob(ap)
        r = max(
            frob(a @ ap @ a - a) / scale,
            frob(ap @ a @ ap - ap) / pscale,
            frob(adjoint(a @ ap) - a @ ap) / scale,
            frob(adjoint(ap @ a) - ap @ a) / pscale,
        )
        res.observe(r <= 1e-10, penrose_residual=r)
    return res


def suite_eig_svd(rng, trials, max_dim):
    res = SuiteResult("eig_svd")
    for _ in range(trials):
        n = int(rng.integers(2, max_dim + 1))
        g = random_matrix(rng, n, n, rank=n)
        h = _hermitize(g)
        eig = herm_eig(h)
        scale = 1.0 + frob(h)
        recon = frob((eig.vectors * eig.values) @ eig.vectors.conj().T - h) / scale
        unit = frob(eig.vectors.conj().T @ eig.vectors - np.eye(n))
        m, k = _dims(rng, max_dim)
        b = random_matrix(rng, m, k)
        f = svd(b)
        bscale = 1.0 + frob(b)
        r = f.rank
        srecon = frob((f.left * f.singulars[:r]) @ f.right.conj().T - b) / bscale
        sunit = max(
            frob(f.left.conj().T @ f.left - np.eye(r)),
            frob(f.right.conj().T @ f.right - np.eye(r)),
        )
        ok = recon <= 1e-10 and unit <= 1e-10 and srecon <= 1e-10 and sunit <= 1e-10
        res.observe(ok, eig_recon=recon, eig_unitarity=unit, svd_recon=srecon, svd_unitarity=sunit)
    return res


def suite_range_projector(rng, trials, max_dim):
    res = SuiteResult("range_projector_identity")
    for _ in range(trials):
        m, n = _dims(rng, max_dim)
        a = random_matrix(rng, m, n)
        gap = float(np.max(np.abs(range_projector(a) - range_projector(a @ a.conj().T))))
        res.observe(gap <= 1e-9, projector_gap=gap)
    return res


def suite_psd_sqrt(rng, trials, max_dim):
    res = SuiteResult("psd_sqrt_roundtrip")
    for _ in range(trials):
        n = int(rng.integers(2, max_dim + 1))
        s = random_psd(rng, n)
        err = frob(psd_sqrt(s @ s) - s) / (1e-30 + frob(s))
        res.observe(err <= 1e-8, sqrt_roundtrip=err)
    return res


def suite_douglas(rng, trials, max_dim):
    res = SuiteResult("douglas_equivalence")
    for _ in range(trials):
        m, n = _dims(rng, max_dim)
        k = int(rng.integers(2, max_dim + 1))
        a, b = douglas_solvable_pair(rng, m, n, k)
        rep = douglas_reduced_solve(a, b)
        lam = majorization_lambda(b, a)
        # reduced-solution uniqueness: D must equal the projection of any
        # particular solution onto range(A*)
        ap = pinv(a)
        x0 = ap @ b
        uniq = frob(rep.solution - (ap @ a) @ x0) / (1.0 + frob(x0))
        ok_solv = rep.solvable and lam is not None and rep.residual <= 1e-8 and uniq <= 1e-8
        a2, b2 = douglas_unsolvable_pair(rng, m, n, k)
        rep2 = douglas_reduced_solve(a2, b2)
        lam2 = majorization_lambda(b2, a2)
        ok_unsolv = (not rep2.solvable) and lam2 is None
        res.observe(
            ok_solv and ok_unsolv,
            solvable_residual=rep.residual,
            reduced_uniqueness=uniq,
            unsolvable_residual=-rep2.residual,
        )
    return res


def suite_range_product_battery(rng, trials, max_dim):
    """range(B) in range(A) must agree with [lambda exists AND
    range(BB*) in range(A)] on both constructions."""
    res = SuiteResult("range_product_battery")
    for _ in range(trials):
        m, n = _dims(rng, max_dim)
        k = int(rng.integers(2, max_dim + 1))
        for solvable in (True, False):
            if solvable:
                a, b = douglas_solvable_pair(rng, m, n, k)
            else:
                a, b = douglas_unsolvable_pair(rng, m, n, k)
            direct = range_inclusion(b, a).holds
            lam = majorization_lambda(b, a)
            gram = range_inclusion(b @ b.conj().T, a).holds
            agree = direct == (lam is not None and gram)
            res.observe(agree and direct == solvable)
    return res


def suite_scaled_gram(rng, trials, max_dim):
    """A = sqrt(lam) C U forces AA* = lam CC* and range(A) = range(C)."""
    res = SuiteResult("scaled_gram_lemma")
    for _ in range(trials):
        m, n = _dims(rng, max_dim)
        c = random_matrix(rng, m, n)
        u = random_unitary(rng, n)
        lam = float(10.0 ** rng.uniform(-2.0, 2.0))
        a = np.sqrt(lam) * c @ u
        gram_gap = frob(a @ a.conj().T - lam * (c @ c.conj().T)) / (1.0 + lam * frob(c) ** 2)
        inc = range_inclusion(a, c)
        res.observe(inc.holds and gram_gap <= 1e-12, gram_gap=gram_gap, range_witness=inc.witness)
    return res


def suite_axb_family(rng, trials, max_dim):
    res = SuiteResult("axb_family")
    for _ in range(trials):
        m, n = _dims(rng, max_dim)
        p, q = _dims(rng, max_dim)
        a = random_matrix(rng, m, n)
        b = random_matrix(rng, p, q)
        x0 = random_matrix(rng, n, p, rank=min(n, p))
        c = a @ x0 @ b
        rep = axb_reduced_solve(a, b, c)
        if not rep.solvable:
            res.observe(False)
            continue
        v1 = random_matrix(rng, n, p, rank=min(n, p))
        v2 = random_matrix(rng, n, p, rank=min(n, p))
        x = general_solution(a, b, rep.solution, v1, v2)
        scale = 1.0 + frob(c)
        fam = frob(a @ x @ b - c) / scale
        pinned = frob(a @ (x - rep.solution) @ b) / scale
        res.observe(fam <= 1e-8 and pinned <= 1e-8, family_residual=fam, pinned_residual=pinned)
    return res


def suite_pt_roundtrip(rng, trials, max_dim):
    res = SuiteResult("pt_roundtrip")
    for _ in range(trials):
        n = int(rng.integers(2, max_dim + 1))
        h = random_spd(rng, n)
        k = random_psd(rng, n)
        rep = pt_solve(h, k)
        if not (rep.solvable and rep.solution is not None):
            res.observe(False)
            continue
        x = rep.solution
        xnorm = spectral_norm(x)
        psd_margin = herm_eig(x).values[0]
        hs = psd_sqrt(h)
        inner = hs @ k @ hs
        mid = psd_sqrt(_hermitize(inner))
        alt = axb_reduced_solve(hs, hs, mid)
        agree = frob(x - alt.solution) / (1.0 + frob(x))
        a_star = norm_bound_bisect(h, k)
        bound_gap = xnorm - a_star
        below = psd_gap(mid, (a_star * (1.0 - 1e-5)) * h)
        ok = (
            rep.residual <= 1e-8
            and psd_margin >= -1e-9 * (1.0 + xnorm)
            and agree <= 1e-8
            and bound_gap <= 1e-8 * (1.0 + a_star)
            and below < 0.0
        )
        res.observe(
            ok,
            solve_residual=rep.residual,
            psd_violation=-psd_margin,
            alt_path_gap=agree,
            norm_bound_gap=bound_gap,
            below_min_gap=below,
        )
    return res


def suite_pt_necessity(rng, trials, max_dim):
    res = SuiteResult("pt_necessity_singular")
    for _ in range(trials):
        n = int(rng.integers(2, max_dim + 1))
        h = random_psd_singular(rng, n)
        t = random_psd(rng, n)
        # k is reachable by construction: x = t satisfies x h x = k, so the
        # necessity conditions must hold even though h is singular. On
        # range(h), with range basis U_r, the reduced equation has the
        # unique positive solution U_r* t U_r, whose norm is an independent
        # reference for the lambda of iv.
        k = _hermitize(t @ h @ t)
        lam = pt_solve(h, k).detail["norm_bound"]
        u = svd(h).range_basis
        gap = abs(lam - spectral_norm(u.conj().T @ t @ u)) / lam
        res.observe(gap <= 1e-8, lambda_gap=gap)
    return res


def suite_geomean(rng, trials, max_dim):
    res = SuiteResult("geomean")
    for _ in range(trials):
        n = int(rng.integers(2, max_dim + 1))
        a = random_spd(rng, n)
        b = random_spd(rng, n)
        g1 = riccati_geomean(a, b)
        g2 = riccati_geomean(b, a).solution
        scale = 1.0 + frob(g1.solution)
        sym = frob(g1.solution - g2) / scale
        fixed = frob(riccati_geomean(a, a).solution - a) / (1.0 + frob(a))
        ok = sym <= 1e-8 and g1.residual <= 1e-8 and fixed <= 1e-9
        res.observe(ok, symmetry=sym, riccati_residual=g1.residual, fixed_point=fixed)
    return res


def suite_congruence(rng, trials, max_dim):
    res = SuiteResult("congruence")
    for i in range(trials):
        m, n = _dims(rng, max_dim)
        a, c = congruence_solvable_pair(rng, m, n)
        rep = congruence_solve(a, c)
        psd_margin = herm_eig(rep.solution).values[0]
        ok_solv = (
            rep.solvable
            and rep.residual <= 1e-8
            and psd_margin >= -1e-9 * (1.0 + spectral_norm(rep.solution))
        )
        kind = "range" if i % 2 == 0 else "indefinite"
        a2, c2 = congruence_unsolvable_pair(rng, m, n, kind)
        rep2 = congruence_solve(a2, c2)
        res.observe(
            ok_solv and not rep2.solvable,
            solvable_residual=rep.residual,
            psd_violation=-psd_margin,
        )
    return res


SUITES = (
    suite_penrose,
    suite_eig_svd,
    suite_range_projector,
    suite_psd_sqrt,
    suite_douglas,
    suite_range_product_battery,
    suite_scaled_gram,
    suite_axb_family,
    suite_pt_roundtrip,
    suite_pt_necessity,
    suite_geomean,
    suite_congruence,
)


def run_sweep(seed: int, trials: int, max_dim: int) -> dict:
    """Run every suite and return a JSON-ready summary document."""
    if seed < 0:
        raise InputError("seed must be >= 0")
    if trials < 1:
        raise InputError("trials must be >= 1")
    if not (2 <= max_dim <= 16):
        raise InputError("max_dim must lie in [2, 16]")
    rng = np.random.default_rng(seed)
    with _shared_factors():
        results = [suite(rng, trials, max_dim) for suite in SUITES]
    all_pass = all(r.failures == 0 for r in results)
    return {
        "seed": int(seed),
        "trials": int(trials),
        "max_dim": int(max_dim),
        "rng": "numpy default_rng (PCG64)",
        "suites": [r.to_doc() for r in results],
        "all_pass": all_pass,
    }
