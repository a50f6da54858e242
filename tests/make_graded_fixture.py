"""Write or check tests/graded_fixture.json: graded XHX = K and Riccati
instances with reference solutions computed by mpmath at 60 digits.

    python tests/make_graded_fixture.py          # write the fixture
    python tests/make_graded_fixture.py --check  # recompute and compare

Each cell holds DRAWS instances at n = N of one solver, whose two operands
are random Hermitian positive definite matrices with geometric spectra
from 1 down to 1/kappa. Matrices are stored in opeq's matrix format
(row-major [re, im] pairs of decimal floats that read back bit for bit),
so the double inputs are exact and the reference is the true solution for
exactly those inputs, rounded to double:
  pt       X = H^{-1/2} (H^{1/2} K H^{1/2})^{1/2} H^{-1/2}, XHX = K;
  riccati  A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}.
The sandwich is harmless at 60 digits: kappa^2 <= 1e24 leaves more than
30 of them. --check recomputes every reference from the stored inputs and
exits 1 unless each lies within one unit in the last place (2^-52 times
the largest entry) of the stored one. Writing and checking need mpmath
1.3.0; tests/test_graded_fixture.py reads the file with numpy only.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import mpmath
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from opeq.matio import emit_json, matrix_to_doc, parse_matrix_doc  # noqa: E402

FIXTURE = Path(__file__).with_name("graded_fixture.json")
DPS = 60
N = 6
DRAWS = 5
SEED = 20160101
# (solver, kappa of the first operand, kappa of the second)
CELLS = (
    ("pt", 1e1, 1e1),
    ("pt", 1e2, 1e12),
    ("pt", 1e6, 1e12),
    ("pt", 1e6, 1e6),
    ("riccati", 1e1, 1e1),
    ("riccati", 1e2, 1e12),
    ("riccati", 1e6, 1e12),
    ("pt", 1e9, 1e1),
    ("pt", 1e12, 1e6),
    ("riccati", 1e9, 1e1),
)


def graded_spd(rng: np.random.Generator, n: int, kappa: float) -> np.ndarray:
    """U diag(1, ..., 1/kappa) U* for a random unitary U, exactly Hermitian."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(r)
    u = q * (d / np.abs(d))
    m = (u * np.logspace(0.0, -np.log10(kappa), n)) @ u.conj().T
    return 0.5 * (m + m.conj().T)


def _to_mp(m: np.ndarray) -> mpmath.matrix:
    return mpmath.matrix([[mpmath.mpc(float(v.real), float(v.imag)) for v in row] for row in m])


def _hermitize(m: mpmath.matrix) -> mpmath.matrix:
    return (m + m.H) / 2


def _powers(m: mpmath.matrix, *exponents: float) -> list[mpmath.matrix]:
    """m^p for each p, from one eigendecomposition of the Hermitian
    positive definite m."""
    values, vectors = mpmath.eigh(_hermitize(m))
    if min(values) <= 0:
        raise ValueError("operand is not positive definite")
    return [vectors * mpmath.diag([v ** p for v in values]) * vectors.H for p in exponents]


def reference(solver: str, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The solution for the double inputs, at DPS digits, rounded to double."""
    with mpmath.workdps(DPS):
        a, b = _to_mp(first), _to_mp(second)
        if solver == "pt":
            hs, hsp = _powers(a, 0.5, -0.5)
            (mid,) = _powers(hs * b * hs, 0.5)
            x = hsp * mid * hsp
        else:
            asq, ainvs = _powers(a, 0.5, -0.5)
            (mid,) = _powers(ainvs * b * ainvs, 0.5)
            x = asq * mid * asq
        x = _hermitize(x)
        return np.array([[complex(float(x[i, j].real), float(x[i, j].imag))
                          for j in range(x.cols)] for i in range(x.rows)])


def build() -> dict:
    rng = np.random.default_rng(SEED)
    cells = []
    for solver, k1, k2 in CELLS:
        instances = []
        for _ in range(DRAWS):
            first, second = graded_spd(rng, N, k1), graded_spd(rng, N, k2)
            instances.append({
                "first": matrix_to_doc(first),
                "second": matrix_to_doc(second),
                "reference": matrix_to_doc(reference(solver, first, second)),
            })
        cells.append({"solver": solver, "kappa": [k1, k2], "instances": instances})
    return {"mpmath": mpmath.__version__, "dps": DPS, "seed": SEED, "cells": cells}


def check(doc: dict) -> list[str]:
    """One line per stored reference that a recomputation does not match."""
    bad = []
    for cell in doc["cells"]:
        for i, inst in enumerate(cell["instances"]):
            stored = parse_matrix_doc(inst["reference"])
            again = reference(cell["solver"], parse_matrix_doc(inst["first"]),
                              parse_matrix_doc(inst["second"]))
            gap = float(np.max(np.abs(again - stored)))
            if gap > 2.0**-52 * float(np.max(np.abs(stored))):
                bad.append(f"{cell['solver']} kappa={cell['kappa']} instance {i}: gap {gap:.3e}")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute every reference and compare it with the file")
    args = parser.parse_args(argv)
    if args.check:
        doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
        bad = check(doc)
        for line in bad:
            print(line)
        count = sum(len(c["instances"]) for c in doc["cells"])
        print(f"{count - len(bad)} of {count} references reproduced")
        return 1 if bad else 0
    # one [re, im] pair per line: under indent=2 alone each pair takes four
    text = re.sub(r"\[\n\s*(\S+),\n\s*(\S+)\n\s*\]", r"[\1, \2]", emit_json(build()))
    FIXTURE.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
