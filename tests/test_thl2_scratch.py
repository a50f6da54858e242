"""demo_l2 takes its nine residuals from one call of thl2_decompose's
blocked pass, with g and h in scratch of one block's size, never on the
grid. That pass gives the residual bits of thl2_decompose, which writes g
and h into grid arrays, for one state or many in one call, and both
refuse the same overflows. Past x0 the pass skips the f - 0 and + 0 of
h = 0, and its one finiteness check is on the residual, so an overflow of
g past x0 alone must still be refused."""

import warnings

import numpy as np
import pytest

from opeq.linalg import InputError
from opeq.module_model import (
    GridFunction,
    ModuleElement,
    PureState,
    _thl2_residuals,
    demo_l2,
    thl2_decompose,
)
from test_grid_blocks import BLOCK_GRIDS, _block_states
from test_grid_slices import GRIDS, _bits, _functions, _states

N = 64


def _element(f1):
    return ModuleElement(variant="l2", components=(GridFunction(f1),))


@pytest.mark.parametrize("n", [1024, 1 << 16, 1 << 17])
def test_demo_l2_residuals_are_thl2_decompose_bits(n):
    f = _element(GridFunction.coordinate(n).samples)
    states = demo_l2(n)["states"]
    assert [s["x0"] for s in states] == [i / 10 for i in range(1, 10)]
    for s in states:
        ref = thl2_decompose(f, PureState(s["x0"])).residual
        assert _bits(s["residual"]) == _bits(ref), s["x0"]


def _check_scratch_bits(n, states):
    for label, f1 in _functions(n, n).items():
        f = _element(f1)
        together = _thl2_residuals(f1, states)
        for x0, got in zip(states, together):
            ref = thl2_decompose(f, PureState(x0)).residual
            assert _bits(_thl2_residuals(f1, [x0])[0]) == _bits(ref), (label, x0)
            assert _bits(got) == _bits(ref), (label, x0)


@pytest.mark.parametrize("n", GRIDS)
def test_scratch_pass_gives_the_residual_bits(n):
    _check_scratch_bits(n, _states(n))


@pytest.mark.parametrize("n", BLOCK_GRIDS)
def test_scratch_pass_across_blocks_gives_the_residual_bits(n):
    states = _block_states(n)
    assert 1.0 in states
    _check_scratch_bits(n, states)


def _refuses_in_both(f1, x0):
    for call in (lambda: thl2_decompose(_element(f1), PureState(x0)), lambda: _thl2_residuals(f1, [x0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="^decomposition overflows the floating-point range$"):
                call()


def test_both_destinations_refuse_a_quotient_that_overflows():
    # g = (f - h) / lambda passes 1e308 at the nodes past x0 / 2
    _refuses_in_both(np.full(N + 1, 1e308, dtype=np.complex128), 0.5)


def test_both_destinations_refuse_a_slope_that_overflows():
    # the ramp's slope 2 f(x0 / 2) / x0 overflows
    _refuses_in_both(np.full(N + 1, 1e308 + 1e308j, dtype=np.complex128), 0.75)


def test_both_destinations_refuse_an_overflow_only_past_x0():
    # f is 0 up to x0 = 1/4, so h is 0 everywhere and the ramp is finite;
    # 1.79e308 at the node 63/64 divided by that node leaves the range,
    # and it is the only non-finite value of g
    f1 = np.zeros(N + 1, dtype=np.complex128)
    f1[N - 1] = 1.79e308
    _refuses_in_both(f1, 0.25)
    # across blocks: -1.5e308j at the node 3/4, in a block past the first
    n = 1 << 17
    f1 = np.zeros(n + 1, dtype=np.complex128)
    f1[3 * n // 4] = -1.5e308j
    _refuses_in_both(f1, 3.0 / n)


def test_finite_extremes_past_x0_are_kept():
    # the largest finite f at x = 1 divides by 1 and stays finite: nothing
    # past x0 is refused that does not overflow
    f1 = np.zeros(N + 1, dtype=np.complex128)
    f1[N] = 1.79e308 - 1.79e308j
    dec = thl2_decompose(_element(f1), PureState(0.25))
    assert np.isfinite(dec.g.components[0].samples).all()
    assert dec.g.components[0].samples[N] == f1[N]
    assert _bits(_thl2_residuals(f1, [0.25])[0]) == _bits(dec.residual) == _bits(0.0)
