"""Span tracing installed from outside opeq, and the per-layer metrics.

``Tracer.install`` rebinds each traced function in every ``opeq`` module
namespace that holds it (so intra-module calls such as ``pinv`` -> ``svd``
are caught too), wraps the demos in ``module_model.DEMOS`` and the suites
in ``sweep.SUITES``. ``uninstall`` puts the originals back.

A span is [name, start, end, parent index, operation id]. Spans stay in
memory until ``dump``. Self time is a span's duration minus the durations
of its direct children; spans nest properly because the workload runs on
one thread.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time

import numpy as np

TARGETS = {
    "linalg": ("herm_eig", "svd", "pinv", "psd_power", "range_projector", "psd_gap", "spectral_norm"),
    "conditions": ("range_inclusion", "majorization_lambda", "pt_conditions", "verify_solution"),
    "solvers": ("pt_solve", "riccati_geomean", "congruence_solve", "douglas_reduced_solve", "axb_reduced_solve"),
    "sweep": ("norm_bound_bisect",),
    "matio": ("parse_matrix_text", "emit_json", "digest_text"),
    "cli": ("main",),
    "module_model": (
        "demo_ex1", "demo_ex2", "demo_l2", "multiplier_preimage", "op_compose", "op_psd_gap", "thl2_decompose",
    ),
}
# Functions whose share of calls on never-seen input bytes is reported.
DISTINCT = ("linalg.herm_eig", "linalg.svd", "linalg.pinv", "linalg.psd_gap")
# emit_json recurses through its module global; only the outermost call is a span.
OUTERMOST = ("matio.emit_json",)
SUITE_NAMES = (
    "penrose", "eig_svd", "range_projector", "psd_sqrt", "douglas", "range_product_battery",
    "scaled_gram", "axb_family", "pt_roundtrip", "pt_necessity", "geomean", "congruence",
)
EIG = "linalg.herm_eig"
PT = "solvers.pt_solve"


def _input_digest(args) -> bytes:
    """Digest of the array arguments only: pinv(a) and pinv(a, None) share
    their input bytes."""
    h = hashlib.blake2b(digest_size=16)
    for a in args:
        if isinstance(a, np.ndarray):
            h.update(f"{a.shape}{a.dtype}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.seen = {name: set() for name in DISTINCT}
        self.distinct = dict.fromkeys(DISTINCT, 0)
        self.eig_inputs: list[np.ndarray] = []
        self.n3_work = 0
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        seen = self.seen.get(name)
        outermost = name in OUTERMOST
        is_eig = name == EIG
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if outermost and stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if seen is not None:
                key = _input_digest(args)
                if key not in seen:
                    seen.add(key)
                    self.distinct[name] += 1
            if is_eig:
                a = np.array(args[0], dtype=np.complex128)
                self.n3_work += a.shape[0] ** 3
                self.eig_inputs.append(a)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _rebind(self, orig, new) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "opeq" or modname.startswith("opeq.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def install(self) -> None:
        for module, names in TARGETS.items():
            mod = sys.modules[f"opeq.{module}"]
            for fname in names:
                orig = getattr(mod, fname, None)
                if orig is None:
                    print(f"tracer: opeq.{module}.{fname} not found, reported as 0 calls", file=sys.stderr)
                    continue
                self._rebind(orig, self.wrap(f"{module}.{fname}", orig))
        # DEMOS holds the demo functions themselves; point it at their wrappers
        mm = sys.modules["opeq.module_model"]
        self._demos = dict(mm.DEMOS)
        for key, fn in self._demos.items():
            mm.DEMOS[key] = getattr(mm, fn.__name__)
        sweep = sys.modules["opeq.sweep"]
        self._suites = sweep.SUITES
        sweep.SUITES = tuple(
            self.wrap("sweep." + s.__name__.removeprefix("suite_"), s) for s in sweep.SUITES
        )

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()
        sys.modules["opeq.module_model"].DEMOS.update(self._demos)
        sys.modules["opeq.sweep"].SUITES = self._suites

    def call(self, fn, *args):
        """Run one operation under a fresh operation id."""
        self.op += 1
        return fn(*args)

    def lapack_seconds(self, repeats: int = 3) -> float:
        """Median time to replay every recorded herm_eig input through
        numpy.linalg.eigh: the hardware ceiling, never the kernel."""
        if not self.eig_inputs:
            return 0.0
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for a in self.eig_inputs:
                np.linalg.eigh(a)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def summary(self) -> tuple[dict, int]:
        """Per span name [calls, total s, self s], and the number of
        herm_eig calls made below a pt_solve span."""
        spans = self.spans
        child = [0.0] * len(spans)
        in_pt = [False] * len(spans)
        agg: dict[str, list] = {}
        eig_in_pt = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_pt[i] = in_pt[parent] or spans[parent][0] == PT
                if name == EIG and in_pt[i]:
                    eig_in_pt += 1
        for i, (name, start, end, _, _) in enumerate(spans):
            a = agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child[i]
        return agg, eig_in_pt

    def metrics(self, overhead: float) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        agg, eig_in_pt = self.summary()

        def calls(name):
            return agg.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return agg.get(name, [0, 0.0, 0.0])[2]

        out = {}
        for module, names in TARGETS.items():
            for fname in names:
                name = f"{module}.{fname}"
                out[f"{name}.calls"] = (calls(name), "count")
                out[f"{name}.self_s"] = (self_s(name), "s")
                if name == EIG:
                    n = calls(name)
                    out[f"{name}.us_per_call"] = (1e6 * self_s(name) / n if n else 0.0, "us")
                    out[f"{name}.n3_work"] = (self.n3_work, "count")
                    lapack = self.lapack_seconds()
                    out[f"{name}.lapack_ratio"] = (self_s(name) / lapack if lapack else 0.0, "ratio")
                if name in DISTINCT:
                    n = calls(name)
                    out[f"{name}.distinct_share"] = (self.distinct[name] / n if n else 0.0, "share")
                if name == PT:
                    n = calls(name)
                    out[f"{name}.eig_per_call"] = (eig_in_pt / n if n else 0.0, "count")
        for suite in SUITE_NAMES:
            out[f"sweep.{suite}.s"] = (agg.get(f"sweep.{suite}", [0, 0.0, 0.0])[1], "s")
        out["bench.trace.overhead_ratio"] = (overhead, "ratio")
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
