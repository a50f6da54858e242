"""The demos keep only a handful of grid arrays alive at once, and a
constant costs none.

A grid array is 16 * (n + 1) bytes, one complex value per node. At
n = 2^17 each demo's traced peak must stay at or below six of them: the
constructive probes of ex2 run in blocks, ex2's module cross-check and
witness free their arrays when they end, and l2 keeps only the residual of
each state. A constant's samples are a read-only view of its one value,
and every result computed from constants is a fresh array."""

import tracemalloc

import numpy as np
import pytest

from opeq.module_model import (
    DEMOS,
    GRID_MIN,
    GridFunction,
    ModuleElement,
    ModuleOperator,
    multiplier_preimage,
    op_apply,
    op_compose,
)

N = 1 << 17
GRID_ARRAY = 16 * (N + 1)
MAX_GRID_ARRAYS = 6


@pytest.mark.parametrize("which", sorted(DEMOS))
def test_demo_peak_is_a_handful_of_grid_arrays(which):
    # a first call at the smallest grid keeps one-time costs out of the peak
    DEMOS[which](GRID_MIN)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        DEMOS[which](N)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= MAX_GRID_ARRAYS * GRID_ARRAY, f"{which}: {peak / GRID_ARRAY:.2f} grid arrays"


def _is_fresh(gf, constants):
    return (
        gf.samples.flags.writeable
        and gf.samples.flags.c_contiguous
        and not any(np.shares_memory(gf.samples, c.samples) for c in constants)
    )


def test_constants_are_read_only_views():
    n = 64
    for value in (0.0, 1.0, 2.5 - 1j):
        c = GridFunction.constant(value, n)
        assert c.n == n and c.samples.strides == (0,)
        assert not c.samples.flags.writeable
        with pytest.raises(ValueError):
            c.samples[0] = 7.0
        assert c.samples.tobytes() == np.full(n + 1, value, dtype=np.complex128).tobytes()


def test_results_on_constants_are_fresh_writable_arrays():
    n = 64
    one = GridFunction.constant(1.0, n)
    zero = GridFunction.constant(0.0, n)
    two = GridFunction.constant(2.0 - 1j, n)
    constants = (one, zero, two)
    x = ModuleElement(variant="pair", components=(one, zero))
    t = ModuleOperator.pair(two, one, None, two)
    results = [
        *op_apply(t, x).components,
        *op_apply(ModuleOperator.on_first_coordinate(two), ModuleElement(variant="l2", components=(one,))).components,
        *(b for row in op_compose(t, t).blocks for b in row if b is not None),
        one.conj(),
        two.conj(),
        multiplier_preimage(one, two, require_ideal=False).candidate,
        multiplier_preimage(two, GridFunction.coordinate(n), require_ideal=True).candidate,
    ]
    for gf in results:
        assert _is_fresh(gf, constants)
        gf.samples[:] = 7.0
    for c, value in zip(constants, (1.0, 0.0, 2.0 - 1j)):
        assert (c.samples == value).all()


def test_a_row_without_blocks_applies_to_the_zero_constant():
    n = 64
    t = ModuleOperator.pair(GridFunction.coordinate(n), None, None, None)
    x = ModuleElement(variant="pair", components=(GridFunction.constant(1.0, n), GridFunction.constant(0.0, n)))
    row1 = op_apply(t, x).components[1]
    assert row1.samples.strides == (0,) and not row1.samples.flags.writeable
    assert row1.samples.tobytes() == np.zeros(n + 1, dtype=np.complex128).tobytes()
