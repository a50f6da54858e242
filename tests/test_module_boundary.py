"""One home per job: the five solvers and SolveResult live in opeq.solvers,
the checks in opeq.conditions, and every exported name resolves."""

import opeq
from opeq import conditions, solvers

SOLVERS = ("douglas_reduced_solve", "axb_reduced_solve", "congruence_solve",
           "pt_solve", "riccati_geomean")


def test_solvers_and_solve_result_live_in_solvers():
    for name in SOLVERS + ("SolveResult",):
        assert getattr(solvers, name).__module__ == "opeq.solvers", name


def test_conditions_holds_no_solver():
    for name in ("pt_solve", "pt_conditions", "SolveResult"):
        assert not hasattr(conditions, name), name


def test_every_exported_name_resolves():
    assert [name for name in opeq.__all__ if not hasattr(opeq, name)] == []
