"""pt_solve and riccati_geomean on graded operands, against the 60-digit
references in graded_fixture.json (written and checked by
make_graded_fixture.py, which needs mpmath; this file needs numpy only).

A sandwich H^{1/2} K H^{1/2} squares the operands' condition numbers, and
at kappa(H) = 1e6, kappa(K) = 1e12 it left X wrong in the 3rd digit behind
a residual at rounding level. Each pin is at most 10x the worst relative
forward error the Cholesky-polar form achieves on the cell's draws. The
cells at kappa = 1e9 and 1e12 lie past any eigenvalue cutoff of 1e-8:
pt_solve must call their H nonsingular and riccati_geomean must accept
their A."""

import json
from pathlib import Path

import numpy as np
import pytest

from opeq.matio import parse_matrix_doc
from opeq.solvers import pt_solve, riccati_geomean

FIXTURE = json.loads(Path(__file__).with_name("graded_fixture.json").read_text(encoding="utf-8"))

# (solver, kappa of the first operand, kappa of the second): worst ||X - X_ref||_F / ||X_ref||_F
PINS = {
    ("pt", 1e1, 1e1): 8.5e-15,
    ("pt", 1e2, 1e12): 8.5e-10,
    ("pt", 1e6, 1e12): 3.8e-8,
    ("pt", 1e6, 1e6): 2.6e-11,
    ("riccati", 1e1, 1e1): 6.6e-15,
    ("riccati", 1e2, 1e12): 4.7e-10,
    ("riccati", 1e6, 1e12): 4.3e-8,
    ("pt", 1e9, 1e1): 1.5e-7,
    ("pt", 1e12, 1e6): 7.4e-5,
    ("riccati", 1e9, 1e1): 3.5e-12,
}


def _cell(solver, k1, k2):
    for cell in FIXTURE["cells"]:
        if (cell["solver"], *cell["kappa"]) == (solver, k1, k2):
            return cell["instances"]
    raise KeyError((solver, k1, k2))


def test_fixture_covers_the_pinned_cells():
    assert sorted((c["solver"], *c["kappa"]) for c in FIXTURE["cells"]) == sorted(PINS)


@pytest.mark.parametrize("solver, k1, k2", sorted(PINS))
def test_forward_error_on_graded_operands(solver, k1, k2):
    worst = 0.0
    for inst in _cell(solver, k1, k2):
        first, second, ref = (parse_matrix_doc(inst[key]) for key in ("first", "second", "reference"))
        if solver == "pt":
            rep = pt_solve(first, second)
            assert rep.solvable
            x = rep.solution
        else:
            x = riccati_geomean(first, second).solution
        worst = max(worst, float(np.linalg.norm(x - ref) / np.linalg.norm(ref)))
    assert worst <= PINS[(solver, k1, k2)]
