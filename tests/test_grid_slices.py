"""thl2_decompose, op_psd_gap and multiplier_preimage give the bits of
their full-grid forms. thl2_decompose builds h and g by node-index slices,
op_psd_gap reads a missing pair block as the scalar 0.0, and
multiplier_preimage reads its half-resolution quotient off the fine one.
The full-grid forms are kept here as the references: two nested np.where
over every node, a zero grid array per missing block, and a second
division of the even-node subsamples."""

import math

import numpy as np
import pytest

from opeq.module_model import (
    STABLE_FACTOR,
    GridFunction,
    ModuleElement,
    ModuleOperator,
    PureState,
    _interp,
    in_ideal_M,
    multiplier_preimage,
    op_psd_gap,
    thl2_decompose,
)

GRIDS = [2**k for k in range(4, 13)]


def _nodes(n):
    return np.arange(n + 1) / float(n)


def _thl2_reference(f1, x0):
    n = f1.size - 1
    nodes = _nodes(n)
    half = 0.5 * x0
    slope = 2.0 * _interp(f1, half) / x0
    h1 = np.where(nodes <= half, f1, np.where(nodes < x0, slope * (x0 - nodes), 0.0))
    g1 = np.zeros(n + 1, dtype=np.complex128)
    g1[1:] = (f1[1:] - h1[1:]) / nodes[1:]
    residual = float(np.max(np.abs(f1 - (nodes * g1 + h1))))
    return g1, h1, residual


def _psd_gap_reference(s, t, c):
    if s.variant == "l2":
        vals = c * t.blocks[0][0].samples - s.blocks[0][0].samples
        return float(min(np.min(vals.real), 0.0))
    n = s.n

    def block(op, i, j):
        b = op.blocks[i][j]
        return b.samples if b is not None else np.zeros(n + 1, dtype=np.complex128)

    m00 = c * block(t, 0, 0) - block(s, 0, 0)
    m01 = c * block(t, 0, 1) - block(s, 0, 1)
    m10 = c * block(t, 1, 0) - block(s, 1, 0)
    m11 = c * block(t, 1, 1) - block(s, 1, 1)
    off = 0.5 * (m01 + np.conj(m10))
    d0 = m00.real
    d1 = m11.real
    mean = 0.5 * (d0 + d1)
    rad = np.sqrt((0.5 * (d0 - d1)) ** 2 + np.abs(off) ** 2)
    return float(np.min(mean - rad))


def _divide_reference(target, mult):
    g = np.empty_like(target)
    g[1:] = target[1:] / mult[1:]
    g[0] = 2.0 * g[1] - g[2]
    return g


def _preimage_reference(target, mult, require_ideal):
    g_fine = _divide_reference(target.samples, mult.samples)
    g_coarse = _divide_reference(target.samples[::2], mult.samples[::2])
    sup_fine = float(np.max(np.abs(g_fine)))
    sup_coarse = float(np.max(np.abs(g_coarse)))
    if sup_coarse == 0.0:
        ratio = 1.0 if sup_fine == 0.0 else math.inf
    else:
        ratio = sup_fine / sup_coarse
    stable = (1.0 / STABLE_FACTOR) <= ratio <= STABLE_FACTOR
    ideal_ok = in_ideal_M(GridFunction(g_fine)) if require_ideal else None
    return g_fine, ratio, ideal_ok, stable and (ideal_ok is not False)


def _bits(x):
    return np.float64(x).tobytes()


def _functions(n, seed):
    """A real and an oscillating complex function on the grid, plus seeded
    noise of each kind."""
    x = _nodes(n)
    rng = np.random.default_rng(seed)
    return {
        "coordinate": x.astype(np.complex128),
        "real": (rng.standard_normal(n + 1) * np.cos(3 * x)).astype(np.complex128),
        "oscillating": (1.0 + x) * np.exp(2j * np.pi * 5 * x),
        "complex": rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1),
    }


def _states(n):
    """x0 on nodes (the first, a middle one, 1), off nodes, and below 1/n."""
    return [1.0 / n, 3.0 / n, 0.5, 1.0 - 1.0 / n, 1.0, 0.1, 0.3, 0.7, 0.99, 0.3 / n, 0.999 / n, 1.5 / n]


@pytest.mark.parametrize("n", GRIDS)
def test_thl2_decompose_gives_the_full_grid_bits(n):
    for label, f1 in _functions(n, n).items():
        f = ModuleElement(variant="l2", components=(GridFunction(f1),))
        for x0 in _states(n):
            dec = thl2_decompose(f, PureState(x0))
            g1, h1, residual = _thl2_reference(f1, x0)
            assert dec.h.components[0].samples.tobytes() == h1.tobytes(), (label, x0)
            assert dec.g.components[0].samples.tobytes() == g1.tobytes(), (label, x0)
            assert _bits(dec.residual) == _bits(residual), (label, x0)


def _pair_blocks(n, seed):
    rng = np.random.default_rng(seed)
    return [GridFunction(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)) for _ in range(4)]


def _patterns(blocks):
    """The pair operator with each of the 15 nonempty sets of its blocks given."""
    for mask in range(1, 16):
        chosen = [b if mask >> k & 1 else None for k, b in enumerate(blocks)]
        yield ModuleOperator.pair(*chosen)


@pytest.mark.parametrize("n", [16, 256, 4096])
def test_psd_gap_gives_the_zero_block_bits(n):
    s_ops = list(_patterns(_pair_blocks(n, 1)))
    t_ops = list(_patterns(_pair_blocks(n, 2)))
    for c in (1.0, 0.0, -2.5, 1e6):
        for s in s_ops:
            for t in t_ops:
                assert _bits(op_psd_gap(s, t, c)) == _bits(_psd_gap_reference(s, t, c))


def test_psd_gap_with_exact_zeros_gives_the_zero_block_bits():
    # blocks of the demos' kind: real, exactly 0 at the left endpoint, and
    # equal across s and t, so that gaps of exactly +-0 occur
    n = 64
    x = GridFunction.coordinate(n)
    blocks = [x * x, x, x.conj(), GridFunction.constant(0.0, n)]
    for c in (1.0, 0.0, -1.0):
        for s in _patterns(blocks):
            for t in _patterns(blocks):
                assert _bits(op_psd_gap(s, t, c)) == _bits(_psd_gap_reference(s, t, c))


def _multipliers(n):
    x = _nodes(n)
    return {
        "coordinate": x,
        "square": x * x,
        "shifted": 1.0 + x,
        "oscillating": (0.5 + x) * np.exp(1j * np.pi * 3 * x),
    }


@pytest.mark.parametrize("n", GRIDS)
def test_preimage_gives_the_two_division_bits(n):
    targets = dict(_functions(n, n + 1), constant=np.ones(n + 1, dtype=np.complex128))
    for mult_label, mult in _multipliers(n).items():
        m = GridFunction(mult)
        for label, target in targets.items():
            t = GridFunction(target)
            for require_ideal in (True, False):
                rep = multiplier_preimage(t, m, require_ideal)
                g, ratio, ideal_ok, in_range = _preimage_reference(t, m, require_ideal)
                where = (mult_label, label, require_ideal)
                assert rep.candidate.samples.tobytes() == g.tobytes(), where
                assert _bits(rep.divergence_ratio) == _bits(ratio), where
                assert rep.ideal_ok is ideal_ok and rep.in_range is in_range, where
