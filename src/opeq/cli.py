"""Command-line front door.

Subcommands: solve (douglas | axb | congruence | pt | riccati), check
(range | douglas | pt-conditions), demo (ex1 | ex2 | l2), sweep. Every
invocation prints one RunReport JSON document on stdout. Exit codes:
0 solved / condition holds, 1 unsolvable / condition failed (with a full
report), 2 input error, an unwritable --out path or unallocatable demo
grid included. Every solve family goes through one path: its solver
returns a :class:`solvers.SolveResult`, whose ``detail`` the report
carries, and the family is solved iff the result is solvable (a solution
whose conditions hold) and its residual is at most the tolerance. ``check
pt-conditions`` reports :func:`solvers.pt_solve`'s conditions and detail,
which read no tolerance and say whether H is nonsingular.
OPEQ_TOL overrides the default tolerance; an explicit --tol beats the
environment. A command runs inside one factor-sharing scope
(linalg._shared_factors), so an operand that several of its conditions
and solvers read is factored once.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .conditions import TOL_RANGE, majorization_lambda, range_inclusion
from .linalg import InputError, _shared_factors
from .matio import RunReport, load_matrix, save_matrix
from .module_model import DEFAULT_GRID_N, DEMOS, demo
from .solvers import (
    axb_reduced_solve,
    congruence_solve,
    douglas_reduced_solve,
    pt_solve,
    riccati_geomean,
)
from .sweep import run_sweep

# Operands of each family, in the order its solver takes them.
SOLVE_FLAGS = {
    "douglas": ("A", "B"),
    "axb": ("A", "B", "C"),
    "congruence": ("A", "C"),
    "pt": ("H", "K"),
    "riccati": ("A", "B"),
}

CHECK_FLAGS = {
    "range": ("A", "B"),
    "douglas": ("A", "B"),
    "pt-conditions": ("H", "K"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state in it between calls."""
    p = argparse.ArgumentParser(
        prog="opeq",
        description="Solve and check operator equations (AX=B, AXB=C, AXA*=C, "
        "XHX=K, Riccati) at matrix scale, plus function-module counterexample "
        "demos and seeded property sweeps.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve one equation family")
    sp.add_argument("family", choices=sorted(SOLVE_FLAGS))
    for flag in ("--A", "--B", "--C", "--H", "--K"):
        sp.add_argument(flag, metavar="FILE")
    sp.add_argument("--tol", type=float)
    sp.add_argument("--out", metavar="FILE", help="also write the solution matrix here")

    cp = sub.add_parser("check", help="evaluate solvability conditions only")
    cp.add_argument("battery", choices=sorted(CHECK_FLAGS))
    for flag in ("--A", "--B", "--H", "--K"):
        cp.add_argument(flag, metavar="FILE")
    cp.add_argument("--tol", type=float)

    dp = sub.add_parser("demo", help="run a function-module counterexample")
    dp.add_argument("which", choices=sorted(DEMOS))
    dp.add_argument("--grid", type=int, default=DEFAULT_GRID_N)

    wp = sub.add_parser("sweep", help="seeded randomized property battery")
    wp.add_argument("--seed", type=int, default=42)
    wp.add_argument("--trials", type=int, default=50)
    wp.add_argument("--max-dim", type=int, default=6, dest="max_dim")
    return p


def _resolve_tol(args) -> float:
    if getattr(args, "tol", None) is not None:
        tol = args.tol
    else:
        raw = os.environ.get("OPEQ_TOL")
        if raw is None:
            return TOL_RANGE
        try:
            tol = float(raw)
        except ValueError:
            raise InputError(f"OPEQ_TOL is not a number: {raw!r}") from None
    if not (0.0 < tol < 1.0):
        raise InputError(f"tolerance must lie in (0, 1), got {tol}")
    return tol


def _load_inputs(args, flags):
    mats = {}
    digests = {}
    for name in flags:
        path = getattr(args, name)
        if path is None:
            raise InputError(f"missing required --{name}")
        mats[name], digests[name] = load_matrix(path)
    return mats, digests


def _cmd_solve(args) -> RunReport:
    tol = _resolve_tol(args)
    m, digests = _load_inputs(args, SOLVE_FLAGS[args.family])
    # each solver is called through its name in this module, looked up at
    # call time, so a rebound name is honoured; only the reduced solvers
    # read the range tolerance
    rep = {
        "douglas": lambda: douglas_reduced_solve(m["A"], m["B"], tol=tol),
        "axb": lambda: axb_reduced_solve(m["A"], m["B"], m["C"], tol=tol),
        "congruence": lambda: congruence_solve(m["A"], m["C"], tol=tol),
        "pt": lambda: pt_solve(m["H"], m["K"]),
        "riccati": lambda: riccati_geomean(m["A"], m["B"]),
    }[args.family]()
    solved = rep.solvable and rep.residual <= tol
    solution = rep.solution if solved else None

    if solution is not None and args.out:
        save_matrix(args.out, solution)
    return RunReport(
        command=f"solve {args.family}",
        outcome="solved" if solved else "unsolvable",
        inputs=digests,
        residuals={} if rep.residual is None else {"solve": rep.residual},
        conditions=rep.conditions,
        solution=solution,
        detail=rep.detail,
    )


def _cmd_check(args) -> RunReport:
    tol = _resolve_tol(args)
    mats, digests = _load_inputs(args, CHECK_FLAGS[args.battery])
    detail = {}
    residuals = {}
    if args.battery == "pt-conditions":
        # the outcome follows the conditions alone; the detail says, as in
        # solve pt, whether H is nonsingular and so admits a solution
        rep = pt_solve(mats["H"], mats["K"])
        conditions, detail = rep.conditions, rep.detail
    else:
        conditions = [range_inclusion(mats["B"], mats["A"], tol=tol)]
    ok = all(c.holds for c in conditions)
    if args.battery == "douglas":
        lam = majorization_lambda(mats["B"], mats["A"], tol=tol)
        residuals["least_squares"] = douglas_reduced_solve(mats["A"], mats["B"], tol=tol).residual
        detail["lambda"] = lam

    return RunReport(
        command=f"check {args.battery}",
        outcome="solved" if ok else "unsolvable",
        inputs=digests,
        residuals=residuals,
        conditions=conditions,
        detail=detail,
    )


def _cmd_demo(args) -> RunReport:
    doc = demo(args.which, grid_n=args.grid)
    if args.which == "l2":
        ok = doc["local_solvable_everywhere"] and doc["global_majorization_fails"]
    else:
        ok = doc["conclusion_holds"]
    return RunReport(
        command=f"demo {args.which}",
        outcome="solved" if ok else "unsolvable",
        detail=doc,
    )


def _cmd_sweep(args) -> RunReport:
    doc = run_sweep(seed=args.seed, trials=args.trials, max_dim=args.max_dim)
    return RunReport(
        command="sweep",
        outcome="solved" if doc["all_pass"] else "unsolvable",
        seed=args.seed,
        detail=doc,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "check": _cmd_check,
        "demo": _cmd_demo,
        "sweep": _cmd_sweep,
    }
    try:
        with _shared_factors():
            report = handlers[args.command](args)
    except (InputError, MemoryError) as exc:
        err = RunReport(
            command=args.command,
            outcome="error",
            detail={"message": str(exc)},
        )
        sys.stdout.write(err.emit())
        return 2
    sys.stdout.write(report.emit())
    return 0 if report.outcome == "solved" else 1


if __name__ == "__main__":
    sys.exit(main())
