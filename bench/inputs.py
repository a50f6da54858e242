"""Seeded inputs for the solve-mid workload, and their independent references.

Everything here is built with numpy's ``default_rng(seed)`` and
``numpy.linalg.qr`` for unitaries; nothing comes from ``opeq.sweep``, so a
change to opeq cannot change what the benchmark feeds it. Matrix files are
written in opeq's documented format ({rows, cols, data} with data a
row-major list of [re, im] pairs) by this module's own writer.

References use ``numpy.linalg.eigh`` and ``numpy.linalg.pinv`` only. The
rank-deficient operands have a clear gap (kept singular values in
[0.5, 2], the rest exactly zero), so an explicit ``rcond`` of 1e-10 makes
the reference rank decision unambiguous.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

FAMILIES = ("pt", "riccati", "congruence", "douglas", "axb")
FLAGS = {
    "pt": ("H", "K"),
    "riccati": ("A", "B"),
    "congruence": ("A", "C"),
    "douglas": ("A", "B"),
    "axb": ("A", "B", "C"),
}
SIZES = tuple(range(12, 25))
REF_RCOND = 1e-10


@dataclass
class Instance:
    """One solve call: its operands, the outcome it was built for, and the
    reference solution when it was built solvable."""

    family: str
    n: int
    expect: str
    mats: dict
    reference: np.ndarray | None = None

    def argv(self, paths: dict) -> list[str]:
        out = ["solve", self.family]
        for name in FLAGS[self.family]:
            out += [f"--{name}", paths[name]]
        return out


def _herm(m):
    return 0.5 * (m + m.conj().T)


def _unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _gauss(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def _spectral(rng, values):
    u = _unitary(rng, len(values))
    return _herm((u * values) @ u.conj().T), u


def _spd(rng, n):
    """Positive definite with eigenvalues in [0.1, 1] (condition <= 10)."""
    return _spectral(rng, 10.0 ** rng.uniform(-1.0, 0.0, size=n))[0]


def _deficient(rng, n, drop=2):
    """Rank n - drop, kept singular values in [0.5, 2]. Returns (A, U)."""
    s = np.concatenate([rng.uniform(0.5, 2.0, size=n - drop), np.zeros(drop)])
    u = _unitary(rng, n)
    v = _unitary(rng, n)
    return (u * s) @ v.conj().T, u


def _eigh_power(m, p):
    vals, vecs = np.linalg.eigh(_herm(m))
    vals = np.clip(vals, 0.0, None)
    return _herm((vecs * vals**p) @ vecs.conj().T)


def _pinv(m):
    return np.linalg.pinv(m, rcond=REF_RCOND)


def build(family: str, n: int, bad: bool, rng) -> Instance:
    if family == "pt":
        if bad:
            # singular H: the solver must evaluate the conditions and decline
            vals = np.concatenate([np.zeros(2), 10.0 ** rng.uniform(-1.0, 0.0, size=n - 2)])
            h = _spectral(rng, vals)[0]
            t = _spd(rng, n)
            return Instance(family, n, "declined", {"H": h, "K": _herm(t @ h @ t)})
        h = _spd(rng, n)
        k = _spd(rng, n)
        hs = _eigh_power(h, 0.5)
        hsi = _eigh_power(h, -0.5)
        ref = _herm(hsi @ _eigh_power(hs @ k @ hs, 0.5) @ hsi)
        return Instance(family, n, "solved", {"H": h, "K": k}, ref)
    if family == "riccati":
        a = _spd(rng, n)
        b = _spd(rng, n)
        asq = _eigh_power(a, 0.5)
        aisq = _eigh_power(a, -0.5)
        ref = _herm(asq @ _eigh_power(aisq @ b @ aisq, 0.5) @ asq)
        return Instance(family, n, "solved", {"A": a, "B": b}, ref)
    if family == "congruence":
        a, u = _deficient(rng, n)
        r = n - 2
        if bad:
            # indefinite C inside range(A): fails only the PSD condition
            mu = rng.uniform(0.1, 1.0, size=r)
            mu[:2] *= -1.0
            w = u[:, :r] @ _unitary(rng, r)
            return Instance(family, n, "unsolvable", {"A": a, "C": _herm((w * mu) @ w.conj().T)})
        c = _herm(a @ _spd(rng, n) @ a.conj().T)
        ap = _pinv(a)
        return Instance(family, n, "solved", {"A": a, "C": c}, _herm(ap @ c @ ap.conj().T))
    if family == "douglas":
        a, u = _deficient(rng, n)
        b = a @ _gauss(rng, n, n)
        if bad:
            # a component orthogonal to range(A), half the size of A C
            w = u[:, n - 2:] @ _gauss(rng, 2, n)
            b = b + w * (0.5 * (1.0 + np.linalg.norm(b)) / np.linalg.norm(w))
            return Instance(family, n, "unsolvable", {"A": a, "B": b})
        return Instance(family, n, "solved", {"A": a, "B": b}, _pinv(a) @ b)
    if family == "axb":
        a, _ = _deficient(rng, n)
        b, _ = _deficient(rng, n)
        c = a @ _gauss(rng, n, n) @ b
        return Instance(family, n, "solved", {"A": a, "B": b, "C": c}, _pinv(a) @ c @ _pinv(b))
    raise ValueError(f"unknown family {family!r}")


def solve_pool(seed: int) -> list[Instance]:
    """The solve-mid pool: every family at every n in 12..24, once.

    Instance i has family FAMILIES[i % 5], so five consecutive calls are
    one round of all families. Each family's n values are a seeded
    permutation of 12..24: n is uniform over that range, and every seed
    carries the same total work, which keeps runs with different seeds
    comparable. Six pt, five congruence and five douglas instances are the
    singular or unsolvable variant: 16 of 65, about one in four.
    """
    rng = np.random.default_rng(seed)
    orders = {f: rng.permutation(SIZES) for f in FAMILIES}
    bad_slots = {"pt": (0, 2, 4, 6, 8, 10), "congruence": (1, 3, 5, 7, 9), "douglas": (0, 3, 6, 9, 12)}
    pool = []
    for j in range(len(SIZES)):
        for family in FAMILIES:
            bad = j in bad_slots.get(family, ())
            pool.append(build(family, int(orders[family][j]), bad, rng))
    return pool


def matrix_text(m: np.ndarray) -> str:
    a = np.ascontiguousarray(m, dtype=np.complex128)
    rows, cols = a.shape
    return json.dumps({"rows": rows, "cols": cols, "data": a.view(np.float64).reshape(-1, 2).tolist()})


def write_pool(pool: list[Instance], directory: str) -> list[list[str]]:
    """Write every operand to ``directory`` and return each call's argv."""
    os.makedirs(directory, exist_ok=True)
    argvs = []
    for i, inst in enumerate(pool):
        paths = {}
        for name, m in inst.mats.items():
            path = os.path.join(directory, f"{i:03d}-{inst.family}-{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(matrix_text(m))
            paths[name] = path
        argvs.append(inst.argv(paths))
    return argvs
