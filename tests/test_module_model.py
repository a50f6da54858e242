import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opeq.linalg import InputError
from opeq.module_model import (
    GridFunction,
    ModuleElement,
    ModuleOperator,
    PureState,
    demo,
    in_ideal_M,
    localize,
    localize_op,
    module_inner,
    multiplier_preimage,
    op_adjoint,
    op_apply,
    op_compose,
    op_psd_gap,
    thl2_decompose,
)

N = 64


def gf(fn):
    return GridFunction.from_samples_of(fn, N)


def random_gf(rng, ideal=False):
    s = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    if ideal:
        s[0] = 0.0
    return GridFunction(s)


def test_grid_must_be_power_of_two_at_least_16():
    GridFunction(np.zeros(17))
    with pytest.raises(InputError):
        GridFunction(np.zeros(16))  # n = 15
    with pytest.raises(InputError):
        GridFunction(np.zeros(9))  # n = 8 < 16
    with pytest.raises(InputError):
        GridFunction(np.array([np.nan, *np.zeros(16)]))


def test_nodes_are_exact_dyadics():
    nodes = GridFunction.nodes(32)
    assert nodes[0] == 0.0 and nodes[-1] == 1.0
    assert nodes[16] == 0.5


def test_in_ideal_boundary():
    assert in_ideal_M(gf(lambda x: x))
    assert not in_ideal_M(gf(lambda x: x + 1.0))
    # relative tolerance: a tiny endpoint value on a huge function passes
    big = GridFunction(np.full(N + 1, 1e12, dtype=complex))
    shifted = GridFunction(np.concatenate([[1.0], big.samples[1:]]))
    assert in_ideal_M(shifted)


def test_pair_element_enforces_ideal_membership():
    rng = np.random.default_rng(1)
    ModuleElement(variant="pair", components=(random_gf(rng), random_gf(rng, ideal=True)))
    with pytest.raises(InputError):
        ModuleElement(variant="pair", components=(random_gf(rng), random_gf(rng)))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_inner_product_conjugate_linear_first_slot(seed):
    rng = np.random.default_rng(seed)
    x = ModuleElement(variant="pair", components=(random_gf(rng), random_gf(rng, ideal=True)))
    y = ModuleElement(variant="pair", components=(random_gf(rng), random_gf(rng, ideal=True)))
    a = complex(rng.normal(), rng.normal())
    ax = ModuleElement(variant="pair", components=(x.components[0] * a, x.components[1] * a))
    lhs = module_inner(ax, y).samples
    rhs = np.conj(a) * module_inner(x, y).samples
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1.0 + np.max(np.abs(rhs)))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_adjoint_compatibility(seed):
    rng = np.random.default_rng(seed)
    x = ModuleElement(variant="pair", components=(random_gf(rng), random_gf(rng, ideal=True)))
    y = ModuleElement(variant="pair", components=(random_gf(rng), random_gf(rng, ideal=True)))
    t = ModuleOperator.pair(
        random_gf(rng), GridFunction.coordinate(N), None, random_gf(rng)
    )
    lhs = module_inner(op_apply(t, x), y).samples
    rhs = module_inner(x, op_apply(op_adjoint(t), y)).samples
    scale = 1.0 + np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


def test_adjoint_is_involution():
    rng = np.random.default_rng(6)
    t = ModuleOperator.pair(random_gf(rng), random_gf(rng), None, random_gf(rng))
    tt = op_adjoint(op_adjoint(t))
    for i in range(2):
        for j in range(2):
            a, b = t.blocks[i][j], tt.blocks[i][j]
            if a is None:
                assert b is None
            else:
                assert np.array_equal(a.samples, b.samples)


def test_l2_inner_pads_ragged_support():
    coord = GridFunction.coordinate(N)
    one = GridFunction.constant(1.0, N)
    x = ModuleElement(variant="l2", components=(coord, one))
    y = ModuleElement(variant="l2", components=(coord,))
    ip = module_inner(x, y).samples
    assert np.max(np.abs(ip - np.abs(coord.samples) ** 2)) < 1e-15


def test_l2_operator_algebra_on_ragged_elements():
    rng = np.random.default_rng(12)
    mult_t, mult_s = random_gf(rng), random_gf(rng)
    t = ModuleOperator.on_first_coordinate(mult_t)
    s = ModuleOperator.on_first_coordinate(mult_s)
    x = ModuleElement(variant="l2", components=(random_gf(rng), random_gf(rng), random_gf(rng)))
    y = ModuleElement(variant="l2", components=(random_gf(rng), random_gf(rng)))
    # <T x, y> = <x, T* y> with supports of different lengths
    lhs = module_inner(op_apply(t, x), y).samples
    rhs = module_inner(x, op_apply(op_adjoint(t), y)).samples
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(lhs)))
    # op_apply keeps coordinate 1 alone
    tx = op_apply(t, x)
    assert len(tx.components) == 1
    assert np.array_equal(tx.components[0].samples, mult_t.samples * x.components[0].samples)
    tt = op_adjoint(op_adjoint(t))
    assert np.array_equal(op_apply(tt, x).components[0].samples, tx.components[0].samples)
    for x0 in (0.0, 8 / N, 0.5, 1.0):
        p = PureState(x0)
        assert localize_op(t, p).shape == (1, 1)
        assert np.array_equal(localize_op(tt, p), localize_op(t, p))
        assert localize_op(op_adjoint(t), p)[0, 0] == np.conj(localize_op(t, p)[0, 0])
        cm = localize_op(op_compose(s, t), p)
        assert np.max(np.abs(cm - localize_op(s, p) @ localize_op(t, p))) < 1e-10
        assert np.max(np.abs(localize(tx, p) - localize_op(t, p) @ localize(x, p)[:1])) < 1e-10


def test_localization_is_multiplicative():
    rng = np.random.default_rng(8)
    x = ModuleElement(variant="pair", components=(random_gf(rng), random_gf(rng, ideal=True)))
    t = ModuleOperator.pair(random_gf(rng), random_gf(rng), None, random_gf(rng))
    s = ModuleOperator.pair(random_gf(rng), None, random_gf(rng, ideal=True), random_gf(rng))
    for x0 in (0.0, 8 / N, 0.5, 1.0):
        p = PureState(x0)
        lv = localize(op_apply(t, x), p)
        assert np.max(np.abs(lv - localize_op(t, p) @ localize(x, p))) < 1e-10
        cm = localize_op(op_compose(s, t), p)
        assert np.max(np.abs(cm - localize_op(s, p) @ localize_op(t, p))) < 1e-10


def test_localize_interpolates_between_nodes():
    coord = GridFunction.coordinate(N)
    x = ModuleElement(variant="l2", components=(coord,))
    v = localize(x, PureState(0.5 + 0.25 / N))
    assert v[0] == pytest.approx(0.5 + 0.25 / N, abs=1e-15)


def test_preimage_frozen_exact_division():
    coord = GridFunction.coordinate(N)
    sq = GridFunction(coord.samples**2)
    rep = multiplier_preimage(sq, coord, require_ideal=False)
    assert rep.in_range
    assert np.max(np.abs(rep.candidate.samples - coord.samples)) < 1e-12


def test_preimage_frozen_constant_rejected_by_ideal():
    coord = GridFunction.coordinate(N)
    rep = multiplier_preimage(coord, coord, require_ideal=True)
    assert rep.ideal_ok is False
    assert not rep.in_range
    assert rep.divergence_ratio == pytest.approx(1.0, abs=1e-12)


def test_preimage_frozen_divergent_quotient():
    coord = GridFunction.coordinate(N)
    one = GridFunction.constant(1.0, N)
    rep = multiplier_preimage(one, coord, require_ideal=True)
    assert rep.divergence_ratio == pytest.approx(2.0, abs=1e-12)
    assert not rep.in_range


def test_preimage_zero_target():
    coord = GridFunction.coordinate(N)
    zero = GridFunction.constant(0.0, N)
    rep = multiplier_preimage(zero, coord, require_ideal=True)
    assert rep.in_range and rep.divergence_ratio == 1.0


def test_preimage_vanishing_multiplier_rejected():
    coord = GridFunction.coordinate(N)
    with pytest.raises(InputError):
        multiplier_preimage(coord, GridFunction.constant(0.0, N), require_ideal=False)


def test_psd_gap_pair_closed_form():
    coord = GridFunction.coordinate(N)
    corner = ModuleOperator.pair(coord, None, None, None)
    gram = op_compose(corner, op_adjoint(corner))
    assert op_psd_gap(gram, gram, 1.0) == 0.0
    # scaling t by 2 makes 2t - s = gram, so the worst eigenvalue gap is 0
    assert op_psd_gap(gram, gram, 2.0) == 0.0


def test_psd_gap_l2_caps_at_zero():
    coord = GridFunction.coordinate(N)
    a = ModuleOperator.on_first_coordinate(coord)
    b = ModuleOperator.on_first_coordinate(GridFunction.constant(1.0, N))
    aa = op_compose(a, op_adjoint(a))
    bb = op_compose(b, op_adjoint(b))
    # 1 <= c lambda^2 fails at the endpoint for any c: gap is exactly -1
    for c in (1.0, 10.0, 1e6):
        assert op_psd_gap(bb, aa, c) == -1.0
    # and the reverse comparison is slack everywhere
    assert op_psd_gap(aa, bb, 1.0) == 0.0


def test_thl2_decomposition_residual_and_membership():
    coord = GridFunction.coordinate(N)
    f = ModuleElement(variant="l2", components=(coord,))
    nodes = GridFunction.nodes(N)
    for x0 in (0.1, 0.3, 0.5, 0.9, 1.0):
        dec = thl2_decompose(f, PureState(x0))
        assert dec.residual <= 1e-12
        # g vanishes near zero: supported away from the bad endpoint
        assert abs(dec.g.components[0].samples[0]) == 0.0
        # h vanishes identically at every node at or past x0; the value
        # the state sees is then at worst one interpolation cell of ramp
        h = dec.h.components[0].samples
        assert np.all(h[nodes >= x0] == 0.0)
        val = localize(dec.h, PureState(x0))[0]
        assert abs(val) <= 2.0 / N


def test_thl2_state_kills_h_exactly_on_grid_aligned_states():
    coord = GridFunction.coordinate(N)
    f = ModuleElement(variant="l2", components=(coord,))
    for x0 in (0.25, 0.5, 1.0):
        dec = thl2_decompose(f, PureState(x0))
        assert abs(localize(dec.h, PureState(x0))[0]) == 0.0


def test_thl2_h_is_continuous_at_half_x0():
    # the ramp branch must meet f at x0/2 without a jump
    coord = GridFunction.coordinate(N)
    f = ModuleElement(variant="l2", components=(coord,))
    x0 = 0.5
    dec = thl2_decompose(f, PureState(x0))
    h = dec.h.components[0].samples
    j = int(round(x0 / 2 * N))
    assert abs(h[j] - h[j - 1]) <= 2.0 / N  # no jump bigger than one grid step
    assert abs(h[j + 1] - h[j]) <= 2.0 / N


def test_thl2_degenerate_state_rejected():
    coord = GridFunction.coordinate(N)
    f = ModuleElement(variant="l2", components=(coord,))
    with pytest.raises(InputError):
        thl2_decompose(f, PureState(0.0))


def test_demo_ex1_exact_equality_and_rejection():
    doc = demo("ex1", grid_n=1024)
    assert doc["gram_equality_gap"] == 0.0
    assert doc["psd_gap_at_c1"] == 0.0
    assert doc["witness_preimage"]["ideal_ok"] is False
    assert doc["conclusion_holds"]


def test_demo_ex2_constructive_and_witness():
    for n in (256, 512, 1024, 2048):
        doc = demo("ex2", grid_n=n)
        assert doc["preimage_in_ideal"]
        assert 1.9 <= doc["witness_preimage"]["divergence_ratio"] <= 2.1
        assert doc["conclusion_holds"]


def test_demo_ex2_witness_sup_strictly_grows():
    sups = [demo("ex2", grid_n=n)["witness_preimage"]["candidate_sup"] for n in (256, 512, 1024, 2048)]
    assert all(b > a for a, b in zip(sups, sups[1:]))


def test_demo_l2_local_yes_global_no():
    doc = demo("l2", grid_n=1024)
    assert doc["local_solvable_everywhere"]
    assert doc["global_majorization_fails"]
    assert len(doc["states"]) == 9
    for entry in doc["states"]:
        assert entry["residual"] <= 1e-9 * 2.0
    for gap in doc["majorization_gaps"].values():
        assert gap < -1e-6


def test_demo_unknown_name():
    with pytest.raises(InputError):
        demo("ex3")


def test_operators_and_elements_reject_mixed_grids():
    a = GridFunction.coordinate(32)
    b = GridFunction.coordinate(64)
    with pytest.raises(InputError):
        ModuleElement(variant="l2", components=(a, b))
    with pytest.raises(InputError):
        ModuleOperator.pair(a, b, None, None)
    with pytest.raises(InputError):
        module_inner(
            ModuleElement(variant="l2", components=(a,)),
            ModuleElement(variant="l2", components=(b,)),
        )


def test_pure_state_domain():
    with pytest.raises(InputError):
        PureState(1.5)
    with pytest.raises(InputError):
        PureState(float("nan"))
