"""Module-model operations whose result leaves the floating-point range
refuse it as an overflow, without a RuntimeWarning. Before, numpy warned
and the refusal came from the GridFunction check as "samples must be
finite", as if the input had been non-finite."""

import warnings

import numpy as np
import pytest

from opeq.linalg import InputError
from opeq.module_model import (
    GridFunction,
    ModuleElement,
    ModuleOperator,
    PureState,
    module_inner,
    multiplier_preimage,
    op_adjoint,
    op_apply,
    op_compose,
    thl2_decompose,
)

N = 64


def _refuses(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"^{message} overflows the floating-point range$"):
            call()


def test_quotient_by_a_subnormal_multiplier_overflows():
    one = GridFunction.constant(1.0, N)
    tiny = GridFunction(1e-310 * GridFunction.nodes(N))
    _refuses(lambda: multiplier_preimage(one, tiny, require_ideal=True), "multiplier quotient")


def test_quotient_of_extreme_scales_overflows():
    # every quotient is inf, so the endpoint used to be inf - inf
    big = GridFunction.constant(1e300, N)
    small = GridFunction(1e-300 * GridFunction.nodes(N))
    _refuses(lambda: multiplier_preimage(big, small, require_ideal=False), "multiplier quotient")


def test_coarse_endpoint_overflows():
    # the fine endpoint 2 g(1/n) - g(2/n) = -1e308 is finite; the
    # half-resolution one 2 g(2/n) - g(4/n) is not
    target = np.zeros(N + 1, dtype=np.complex128)
    target[2], target[4] = 1e308, -1.7e308
    one = GridFunction.constant(1.0, N)
    _refuses(
        lambda: multiplier_preimage(GridFunction(target), one, require_ideal=False),
        "endpoint extrapolation",
    )


def test_composition_overflows():
    t = ModuleOperator.on_first_coordinate(GridFunction(1e200 * GridFunction.nodes(N)))
    _refuses(lambda: op_compose(t, op_adjoint(t)), "pointwise product")
    pair = ModuleOperator.pair(None, t.blocks[0][0], None, None)
    _refuses(lambda: op_compose(pair, op_adjoint(pair)), "pointwise product")


def test_application_overflows():
    big = GridFunction(1e200 * GridFunction.nodes(N))
    t = ModuleOperator.on_first_coordinate(big)
    x = ModuleElement(variant="l2", components=(big,))
    _refuses(lambda: op_apply(t, x), "pointwise product")
    # two finite terms whose sum overflows
    near_max = GridFunction.constant(1e308, N)
    one = GridFunction.constant(1.0, N)
    s = ModuleOperator.pair(one, one, None, None)
    y = ModuleElement(variant="pair", components=(near_max, near_max * GridFunction.coordinate(N)))
    _refuses(lambda: op_apply(s, y), "pointwise product")


def test_inner_product_overflows():
    big = GridFunction.constant(1e200, N)
    x = ModuleElement(variant="l2", components=(GridFunction.constant(1.0, N), big))
    _refuses(lambda: module_inner(x, x), "pointwise product")


def test_decomposition_overflows():
    # g = (f - h) / lambda passes 1e308 at the nodes past x0 / 2
    f = ModuleElement(variant="l2", components=(GridFunction.constant(1e308, N),))
    _refuses(lambda: thl2_decompose(f, PureState(0.5)), "decomposition")
    # the ramp's slope 2 f(x0 / 2) / x0 overflows
    huge = ModuleElement(variant="l2", components=(GridFunction.constant(1e308 + 1e308j, N),))
    _refuses(lambda: thl2_decompose(huge, PureState(0.75)), "decomposition")
