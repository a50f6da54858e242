"""opeq benchmark: closed-loop workloads driven through ``opeq.cli.main``.

    python3 bench/run.py --workload solve-mid --seed 1 --seconds 30 --trace 0

Run from anywhere; paths resolve from this file. One caller in one
single-threaded process calls ``opeq.cli.main(argv)`` in-process, the next
call starting when the previous one returns, with BLAS pinned to one
thread. One operation is one ``cli.main`` call. Every output is checked,
and the last stdout line is the JSON result. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 7
SOLVE_RTOL = 1e-8


class Call:
    """One cli.main invocation and the check its output must pass."""

    def __init__(self, argv, check):
        self.argv = list(argv)
        self.key = tuple(self.argv)
        self.check = check


def _detail(doc):
    return doc.get("detail") or {}


# --- workloads ---------------------------------------------------------------
#
# Each prepare(seed, workdir) builds the inputs from the seed and returns
# (rounds, min_passes, trace_rounds). A pass runs every round once, in
# order. A run repeats whole passes, at least min_passes and then as many
# as fit in --seconds, so every round weighs the same in every run. The
# traced run warms up on the first of trace_rounds, then executes
# trace_rounds untraced and traced, so its counts repeat exactly for a
# given seed. PROBE names the speed-probe kernel that shares the
# workload's bottleneck (see speed.py).


def prepare_sweep(seed, workdir):
    """Why: one sweep is about 11k herm_eig calls at n <= 6, more than half
    of them on an input already decomposed, plus the 120-step bisection.
    Per-call overhead and repeated factorization dominate, so factor-once
    and batching gain here and a kernel that is slower at tiny n loses.
    A round is one sweep. A pass is three sweeps on three sweep seeds drawn
    from the benchmark seed, because one sweep's cost varies with its seed
    by about 8% (standard deviation) and three seeds narrow that."""
    import numpy as np

    sweep_seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=3)]

    def check_for(s):
        def check(rc, doc):
            d = _detail(doc)
            if rc != 0 or doc.get("outcome") != "solved" or d.get("all_pass") is not True:
                return f"sweep --seed {s}: rc={rc}, all_pass={d.get('all_pass')}"
            if d.get("seed") != s:
                return f"sweep --seed {s}: report carries seed {d.get('seed')}"
            return None
        return check

    rounds = [
        [Call(["sweep", "--seed", str(s), "--trials", "50", "--max-dim", "6"], check_for(s))]
        for s in sweep_seeds
    ]
    return rounds, 1, rounds[:1]


DEMO_GRID = 1 << 20


def _check_demo(which):
    def check(rc, doc):
        d = _detail(doc)
        if rc != 0 or doc.get("outcome") != "solved":
            return f"demo {which}: rc={rc}, outcome={doc.get('outcome')}"
        if which == "l2":
            ok = d.get("local_solvable_everywhere") is True and d.get("global_majorization_fails") is True
        else:
            ok = d.get("conclusion_holds") is True
        if not ok:
            return f"demo {which}: conclusion not reported"
        if which == "ex2":
            ratio = (d.get("witness_preimage") or {}).get("divergence_ratio")
            if not (isinstance(ratio, (int, float)) and 1.9 <= ratio <= 2.1):
                return f"demo ex2: divergence ratio {ratio} outside [1.9, 2.1]"
        return None
    return check


def prepare_demo(seed, workdir):
    """Why: the control. All of its work is numpy elementwise work in
    module_model at 2^20 grid points, with no linalg call, so kernel and
    solver changes must leave it unchanged; it is also the only workload
    that measures module_model. Its inputs are fixed by the command line;
    the seed only orders ex1, ex2 and l2 within a round."""
    import numpy as np

    order = [str(w) for w in np.random.default_rng(seed).permutation(["ex1", "ex2", "l2"])]
    rnd = [Call(["demo", w, "--grid", str(DEMO_GRID)], _check_demo(w)) for w in order]
    return [rnd], 3, [rnd, rnd]


def _check_solve(inst):
    import numpy as np

    def check(rc, doc):
        outcome = doc.get("outcome")
        if inst.family == "pt" and outcome == "unsolvable" and _detail(doc).get("h_nonsingular") is False:
            outcome = "declined"
        want_rc = 0 if inst.expect == "solved" else 1
        label = f"solve {inst.family} n={inst.n}"
        if outcome != inst.expect or rc != want_rc:
            return f"{label}: built {inst.expect}, got {outcome} (rc={rc})"
        sol = doc.get("solution")
        if inst.expect != "solved":
            return None if sol is None else f"{label}: unsolvable instance carries a solution"
        if sol is None:
            return f"{label}: solved without a solution"
        x = np.asarray(sol["data"], dtype=np.float64).view(np.complex128).reshape(sol["rows"], sol["cols"])
        if x.shape != inst.reference.shape:
            return f"{label}: solution shape {x.shape}"
        err = float(np.linalg.norm(x - inst.reference) / np.linalg.norm(inst.reference))
        if not err <= SOLVE_RTOL:
            return f"{label}: relative distance {err:.3e} to the eigh/pinv reference"
        return None
    return check


def prepare_solve(seed, workdir):
    """Why: opeq solve on mid-size operands, n uniform in 12..24, where the
    Jacobi rotation loop takes most of every call, so a vectorized kernel or
    a one-sided SVD gains here. Every call also parses, digests and emits
    matrix files, and one instance in four exercises a refusal path (pt
    with singular H, douglas with B outside range(A), congruence with
    indefinite C). A round is one call of each family and a pass is all 65
    instances; two passes give the 100 samples that p90 needs."""
    import inputs

    pool = inputs.solve_pool(seed)
    argvs = inputs.write_pool(pool, str(workdir / "operands"))
    calls = [Call(a, _check_solve(inst)) for inst, a in zip(pool, argvs)]
    k = len(inputs.FAMILIES)
    rounds = [calls[i:i + k] for i in range(0, len(calls), k)]
    return rounds, 2, rounds


WORKLOADS = {"sweep": prepare_sweep, "solve-mid": prepare_solve, "demo-grid": prepare_demo}
PROBE = {"sweep": "jacobi", "solve-mid": "jacobi", "demo-grid": "stream"}


# --- measurement -------------------------------------------------------------


class Runner:
    """Invokes calls, checks outputs, and keeps the first report per argv so
    that every repeated call must print byte-identical text."""

    def __init__(self, cli):
        self.cli = cli
        self.first: dict[tuple, tuple[str, str | None]] = {}
        self.attempted = 0
        self.failed = 0

    def invoke(self, call, tracer=None):
        buf = io.StringIO()
        exc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    rc = self.cli.main(call.argv)
                else:
                    rc = tracer.call(self.cli.main, call.argv)
        except (Exception, SystemExit):
            rc, exc = None, traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        self.attempted += 1
        err = exc or self._verify(call, rc, buf.getvalue())
        if err:
            self.failed += 1
            print(f"FAILED {' '.join(call.argv)}: {err}", file=sys.stderr)
        return dt

    def _verify(self, call, rc, text):
        seen = self.first.get(call.key)
        if seen is not None:
            first_text, first_err = seen
            return first_err if text == first_text else "report differs from the first call's"
        try:
            err = call.check(rc, json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            err = f"unreadable report: {exc!r}"
        self.first[call.key] = (text, err)
        return err


def _run_passes(runner, rounds, seconds, min_passes, tracer=None):
    """Run min_passes passes, then more while one more pass, at the mean
    pass time so far, would still end within ``seconds``. Returns every
    call's time, every round's time and the wall time."""
    lat, round_s = [], []
    t0 = time.perf_counter()
    passes = 0
    while passes < min_passes or (time.perf_counter() - t0) * (passes + 1) / passes <= seconds:
        for rnd in rounds:
            times = [runner.invoke(c, tracer) for c in rnd]
            lat += times
            round_s.append(sum(times))
        passes += 1
    return lat, round_s, time.perf_counter() - t0


def _import_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup(prepare, seed, workdir):
    """Set up SETUP_ROUNDS times; return (median seconds, normalized for
    machine speed, and the last round's inputs).

    One round is a fresh interpreter importing opeq (interpreter start-up
    and import cost) plus building and writing this workload's inputs."""
    from speed import SpeedProbe

    times = []
    env = _import_env()
    probe = SpeedProbe("jacobi")
    for _ in range(SETUP_ROUNDS):
        probe.sample(5)
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import opeq"], env=env, check=True)
        prepared = prepare(seed, workdir)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * probe.factor(), prepared


def environment(seconds):
    import numpy as np

    def cache(level):
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        try:
            for idx in sorted(base.glob("index*")):
                if (idx / "level").read_text().strip() == str(level) and (idx / "type").read_text().strip() != "Instruction":
                    return (idx / "size").read_text().strip()
        except OSError:
            pass
        return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "l2": cache(2),
        "l3": cache(3),
        "run_seconds": seconds,
    }


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "opeq" / "__init__.py").is_file():
        print(f"opeq sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from opeq import cli
    import tracer as tracing
    from speed import SpeedProbe

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = WORK / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_s, (rounds, min_passes, trace_rounds) = setup(WORKLOADS[args.workload], args.seed, workdir)
        runner = Runner(cli)
        if args.trace:
            _run_passes(runner, trace_rounds[:1], 0, 1)  # warm-up: first-call costs
            with SpeedProbe(PROBE[args.workload]) as probe:
                plain = sum(_run_passes(runner, trace_rounds, 0, 1)[0])
            plain *= probe.factor()
            tr = tracing.Tracer()
            tr.install()
            try:
                with SpeedProbe(PROBE[args.workload]) as probe:
                    traced = sum(_run_passes(runner, trace_rounds, 0, 1, tr)[0])
            finally:
                tr.uninstall()
            values = tr.metrics(traced * probe.factor() / plain)
            tr.dump(str(WORK / f"spans-{tag}.json"))
        else:
            with SpeedProbe(PROBE[args.workload]) as probe:
                lat, round_s, wall = _run_passes(runner, rounds, args.seconds, min_passes)
            k = probe.factor()
            values = {
                "setup_s": (setup_s, "s"),
                "op_p50_ms": (1e3 * k * statistics.median(lat), "ms"),
                "op_p90_ms": (1e3 * k * statistics.quantiles(lat, n=10, method="inclusive")[-1], "ms"),
                "ops_per_s": ((runner.attempted - runner.failed) / (k * wall), "1/s"),
                "round_s": (k * statistics.fmean(round_s), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            }
            print(json.dumps({"speed_factor": k, "probe_samples": len(probe.samples)}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = declared_metrics(args.trace)
    units = {k: u for k, (_, u) in values.items()}
    if units != declared:
        print(f"metrics {units} do not match BENCHMARK.json {declared}", file=sys.stderr)
        return 3
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    env = environment(args.seconds)
    with open(WORK / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "workload": args.workload, "seed": args.seed, "result": result}, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
