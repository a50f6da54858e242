"""thl2_decompose, op_psd_gap and demo_ex2's constructive probes work in
blocks of BLOCK node indices and give the bits of their full-grid forms on
grids of more than one block. thl2_decompose's blocks start at the first
node past x0/2, so the states put x0/2 and x0 on, one node before and one
node after a multiple of BLOCK, and put the end of the ramp on a block
boundary."""

import warnings

import numpy as np
import pytest

from opeq.linalg import InputError
from opeq.module_model import (
    BLOCK,
    GridFunction,
    ModuleElement,
    ModuleOperator,
    PureState,
    demo_ex2,
    in_ideal_M,
    multiplier_preimage,
    op_adjoint,
    op_apply,
    op_compose,
    op_psd_gap,
    thl2_decompose,
)
from test_grid_slices import (
    _bits,
    _functions,
    _pair_blocks,
    _patterns,
    _psd_gap_reference,
    _thl2_reference,
)

BLOCK_GRIDS = [1 << 16, 1 << 17]


def _block_states(n):
    """States whose x0/2 or x0 sits at a multiple of BLOCK or one node off
    it, on a node or half a node past one; x0 whose ramp, from the first
    node past x0/2 to the last node before x0, ends at a block boundary
    or one node off it; and x0 = 1."""
    indices = set()
    for m in range(BLOCK, n + 1, BLOCK):
        for d in (-1, 0, 1):
            indices.update({m + d, 2 * (m + d)})
    # x0 = 2j / n puts the first node past x0/2 at j + 1 and the first node
    # at or past x0 at 2j, so the ramp spans j - 1 nodes
    for d in (-1, 0, 1):
        indices.add(2 * (BLOCK + 1 + d))
    states = {1.0}
    for j in indices:
        states.update({j / n, (j + 0.5) / n})
    return sorted(x0 for x0 in states if 0.0 < x0 <= 1.0)


@pytest.mark.parametrize("n", BLOCK_GRIDS)
def test_thl2_decompose_across_blocks_gives_the_full_grid_bits(n):
    states = _block_states(n)
    assert len(states) > 10
    for label, f1 in _functions(n, n).items():
        f = ModuleElement(variant="l2", components=(GridFunction(f1),))
        for x0 in states:
            dec = thl2_decompose(f, PureState(x0))
            g1, h1, residual = _thl2_reference(f1, x0)
            assert dec.h.components[0].samples.tobytes() == h1.tobytes(), (label, x0)
            assert dec.g.components[0].samples.tobytes() == g1.tobytes(), (label, x0)
            assert _bits(dec.residual) == _bits(residual), (label, x0)


def test_quotient_overflow_in_the_last_block_is_refused():
    # f is 0 except at the node 7/8, where 1.7e308 divided by the node
    # leaves the floating-point range; past x0/2 = 1/16 the blocks start at
    # the nodes 8193, 40961, 73729 and 106497, so that node, 114688, lies
    # in the last one
    n = 1 << 17
    f1 = np.zeros(n + 1, dtype=np.complex128)
    f1[7 * n // 8] = 1.7e308
    f = ModuleElement(variant="l2", components=(GridFunction(f1),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="^decomposition overflows the floating-point range$"):
            thl2_decompose(f, PureState(0.125))


@pytest.mark.parametrize("n", BLOCK_GRIDS)
def test_psd_gap_across_blocks_gives_the_zero_block_bits(n):
    # n + 1 nodes fill every block but the last, which holds one node
    s_ops = list(_patterns(_pair_blocks(n, 1)))
    t_ops = list(_patterns(_pair_blocks(n, 2)))
    for c in (1.0, -2.5):
        for s in s_ops:
            for t in t_ops[::7]:
                assert _bits(op_psd_gap(s, t, c)) == _bits(_psd_gap_reference(s, t, c))


def test_psd_gap_across_blocks_with_signed_zeros_gives_the_zero_block_bits():
    # gaps of exactly +-0 in every block, as in the demos' blocks
    n = 1 << 17
    x = GridFunction.coordinate(n)
    rng = np.random.default_rng(17)
    zeros = np.where(rng.random(n + 1) < 0.5, 0.0, -0.0).astype(np.complex128)
    blocks = [x * x, x, x.conj(), GridFunction(zeros)]
    ops = list(_patterns(blocks))
    for c in (1.0, -1.0):
        for s in ops:
            for t in ops[::5]:
                assert _bits(op_psd_gap(s, t, c)) == _bits(_psd_gap_reference(s, t, c))
    # l2: c * t multiplies by c + 0j, so for t = -0 - 1j the real part of
    # c * t is +0.0 where c times t's real part is -0.0, and the cap
    # min(gap, 0.0) returns whichever zero comes first
    tilted = zeros.copy()
    tilted.imag = np.where(rng.random(n + 1) < 0.5, -1.0, 1.0)
    mults = [
        *blocks,
        GridFunction(tilted),
        GridFunction.constant(0.0, n),
        GridFunction.constant(complex(-0.0, -1.0), n),
    ]
    l2_ops = [ModuleOperator.on_first_coordinate(m) for m in mults]
    for c in (1.0, -1.0, 0.0):
        for s in l2_ops:
            for t in l2_ops:
                assert _bits(op_psd_gap(s, t, c)) == _bits(_psd_gap_reference(s, t, c))


def _ex2_reference(n):
    """demo_ex2's constructive entries and module lift residual on the
    whole grid at once."""
    nodes = GridFunction.nodes(n)
    coord = GridFunction.coordinate(n)
    cuberoot = np.power(nodes, 1.0 / 3.0).astype(np.complex128)
    gram_mult = np.power(nodes, 4.0 / 3.0).astype(np.complex128)
    probes = {
        "constant": np.ones(n + 1, dtype=np.complex128),
        "coordinate": coord.samples,
        "oscillating": np.exp(2j * np.pi * nodes),
    }
    constructive = []
    for label, f in probes.items():
        g = GridFunction(cuberoot * f)
        gap = coord.samples * g.samples
        gap -= gram_mult * f
        constructive.append(
            {"f": label, "ideal_ok": in_ideal_M(g), "factorization_residual": float(np.max(np.abs(gap)))}
        )
    d_t = ModuleOperator.pair(
        None, GridFunction(np.power(nodes, 2.0 / 3.0).astype(np.complex128)), None, None
    )
    a_t = ModuleOperator.pair(None, coord, None, None)
    one = np.ones(n + 1, dtype=np.complex128)
    zero = np.zeros(n + 1, dtype=np.complex128)
    x = ModuleElement(variant="pair", components=(GridFunction(one), GridFunction(zero)))
    u = op_apply(op_compose(d_t, op_adjoint(d_t)), x)
    pre = ModuleElement(variant="pair", components=(GridFunction(zero), GridFunction(cuberoot)))
    lifted = op_apply(a_t, pre)
    module_resid = max(
        float(np.max(np.abs(lifted.components[k].samples - u.components[k].samples)))
        for k in range(2)
    )
    witness = multiplier_preimage(GridFunction(one), coord, require_ideal=True)
    return constructive, module_resid, witness


@pytest.mark.parametrize("n", BLOCK_GRIDS)
def test_ex2_across_blocks_gives_the_full_grid_bits(n):
    doc = demo_ex2(n)
    constructive, module_resid, witness = _ex2_reference(n)
    assert [c["f"] for c in doc["constructive"]] == [c["f"] for c in constructive]
    for got, ref in zip(doc["constructive"], constructive):
        assert got["ideal_ok"] is ref["ideal_ok"], got["f"]
        assert _bits(got["factorization_residual"]) == _bits(ref["factorization_residual"]), got["f"]
    assert _bits(doc["module_lift_residual"]) == _bits(module_resid)
    assert _bits(doc["witness_preimage"]["candidate_sup"]) == _bits(witness.candidate_sup)
    assert _bits(doc["witness_preimage"]["divergence_ratio"]) == _bits(witness.divergence_ratio)
    assert doc["witness_preimage"]["in_range"] is witness.in_range


def _spike(n, k, value):
    samples = np.zeros(n + 1, dtype=np.complex128)
    samples[k] = value
    return GridFunction(samples)


def test_psd_gap_reads_every_node_of_every_block():
    # the one negative gap sits at the first node, at either side of a block
    # boundary, or alone in the last block
    n = 1 << 17
    t = ModuleOperator.pair(GridFunction.constant(0.0, n), None, None, None)
    for k in (0, BLOCK - 1, BLOCK, 2 * BLOCK + 1, n - 1, n):
        s = ModuleOperator.pair(None, None, None, _spike(n, k, 1.0))
        assert op_psd_gap(s, t, 1.0) == -1.0, k


def test_psd_gap_keeps_a_nan_in_the_last_block():
    # c * t is inf on both diagonal blocks at the last node only, so the
    # gap there is inf - inf; Python's min over the block minima would
    # drop that NaN
    n = 1 << 17
    big = _spike(n, n, 1e10)
    t = ModuleOperator.pair(big, None, None, big)
    s = ModuleOperator.pair(GridFunction.constant(0.0, n), None, None, None)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(_psd_gap_reference(s, t, 1e300))
        assert np.isnan(op_psd_gap(s, t, 1e300))
