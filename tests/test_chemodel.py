import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chemca.chemodel import (
    ChemModel2DParams,
    PwmClass,
    SingleCellHysteresisParams,
    _law_2d,
    prob_high_1d,
    prob_high_2d_grid,
    table_2d,
    table_single,
)


CUSTOM_2D = ChemModel2DParams(0.45, 0.35, 0.2, 0.15, 0.05, 0.15, 0.6, 0.4, 0.65, 0.95)


def code_2d(center, left, right, up, down, prev_cs):
    """The table_2d code layout of the module docstring."""
    return center | left << 2 | right << 4 | up << 6 | down << 8 | prev_cs << 10


def law_2d(center, neighbors, prev, params=ChemModel2DParams()):
    """The table entry for one cell; it must equal the definition, _law_2d."""
    value = table_2d(params)[code_2d(*map(int, (center, *neighbors, prev)))]
    assert value == _law_2d(center, list(neighbors), prev, params)
    return value


def test_default_params_published():
    p = ChemModel2DParams()
    assert (p.p1, p.p2, p.p3, p.p4) == (0.5, 0.3, 0.25, 0.1)
    assert (p.q1, p.q2, p.q3, p.q4) == (0.0, 0.1, 0.5, 0.5)
    assert (p.k_low, p.k_high) == (0.7, 1.0)


def test_params_validated():
    with pytest.raises(ValueError):
        ChemModel2DParams(p1=1.5)


def test_prob_1d_published_rows():
    assert prob_high_1d(1, 0, 0, 0, 0) == 1.0
    assert prob_high_1d(0, 1, 1, 1, 1) == 0.8
    assert prob_high_1d(0, 1, 0, 1, 0) == 0.5
    assert prob_high_1d(0, 0, 0, 1, 1) == 0.0  # no active neighbor stirrer
    assert prob_high_1d(0, 1, 1, 0, 0) == 0.0  # no active interface


def test_prob_1d_unmatched_pattern_is_zero():
    # active left neighbor but only the right interface on: no coupling path
    assert prob_high_1d(0, 1, 0, 0, 1) == 0.0


def test_prob_1d_range_and_mirror_symmetry():
    for s_c, s_l, s_r, i_l, i_r in itertools.product((0, 1), repeat=5):
        v = prob_high_1d(s_c, s_l, s_r, i_l, i_r)
        assert 0.0 <= v <= 1.0
        assert v == prob_high_1d(s_c, s_r, s_l, i_r, i_l)


def test_prob_2d_core_center():
    assert law_2d(PwmClass.CORE, [PwmClass.OFF] * 4, 1) == 0.5
    assert law_2d(PwmClass.CORE, [PwmClass.OFF] * 4, 0) == pytest.approx(0.35)


def test_prob_2d_fluct_one_core_neighbor():
    nb = [PwmClass.CORE, PwmClass.OFF, PwmClass.OFF, PwmClass.OFF]
    assert law_2d(PwmClass.FLUCT, nb, 1) == pytest.approx(0.03)


def test_prob_2d_off_center_annihilated_by_q1():
    for nb in itertools.product(list(PwmClass), repeat=4):
        assert law_2d(PwmClass.OFF, list(nb), 0) == 0.0


def test_prob_2d_cascade_order():
    p = ChemModel2DParams()
    core3 = [PwmClass.CORE] * 3 + [PwmClass.OFF]
    assert law_2d(PwmClass.HALO, core3, 1) == pytest.approx(p.q4 * p.p1)
    halo3 = [PwmClass.HALO] * 3 + [PwmClass.OFF]
    assert law_2d(PwmClass.HALO, halo3, 1) == pytest.approx(p.q4 * p.p3)
    halo1 = [PwmClass.HALO] + [PwmClass.FLUCT] * 3
    assert law_2d(PwmClass.HALO, halo1, 1) == pytest.approx(p.q4 * p.p4)
    quiet = [PwmClass.OFF] * 4
    assert law_2d(PwmClass.HALO, quiet, 1) == 0.0


@given(st.integers(0, 3), st.lists(st.integers(0, 3), min_size=4, max_size=4), st.integers(0, 1))
def test_prob_2d_in_unit_interval(center, neighbors, prev):
    v = law_2d(PwmClass(center), [PwmClass(c) for c in neighbors], prev)
    assert 0.0 <= v <= 1.0


@given(
    st.builds(
        ChemModel2DParams,
        p1=st.sampled_from([0.0, 1.0]),
        p2=st.sampled_from([0.0, 1.0]),
        p3=st.sampled_from([0.0, 1.0]),
        p4=st.sampled_from([0.0, 1.0]),
        q1=st.sampled_from([0.0, 1.0]),
        q2=st.sampled_from([0.0, 1.0]),
        q3=st.sampled_from([0.0, 1.0]),
        q4=st.sampled_from([0.0, 1.0]),
        k_low=st.just(1.0),
        k_high=st.just(1.0),
    ),
    st.integers(0, 3),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
    st.integers(0, 1),
)
def test_display_screen_limit_is_deterministic(params, center, neighbors, prev):
    v = law_2d(PwmClass(center), [PwmClass(c) for c in neighbors], prev, params)
    assert v in (0.0, 1.0)


def test_grid_model_matches_scalar():
    # every (center, left, right, up, down, prev) code, exactly
    for params in (ChemModel2DParams(), CUSTOM_2D):
        per_code = [_law_2d(code & 3, [(code >> s) & 3 for s in (2, 4, 6, 8)], code >> 10, params)
                    for code in range(2048)]
        assert np.array_equal(table_2d(params).view(np.int64), np.array(per_code).view(np.int64))
    codes = itertools.product(range(4), range(4), range(4), range(4), range(4), (0, 1))
    for params, (center, left, right, up, down, prev) in itertools.product(
        (ChemModel2DParams(), CUSTOM_2D), codes
    ):
        classes = np.zeros((3, 3), np.int8)
        classes[1, 1], classes[1, 0], classes[1, 2], classes[0, 1], classes[2, 1] = (
            center, left, right, up, down
        )
        prev_grid = np.zeros((3, 3), np.uint8)
        prev_grid[1, 1] = prev
        want = _law_2d(center, [left, right, up, down], prev, params)
        assert prob_high_2d_grid(classes, prev_grid, params)[1, 1] == want


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (1, 5), (5, 1), (3, 7), (50, 50)])
@pytest.mark.parametrize("params", [ChemModel2DParams(), CUSTOM_2D])
def test_grid_gather_matches_roll_formula(shape, params):
    # the neighbor-table gather against the np.roll torus it replaced
    rng = np.random.default_rng(sum(shape))
    classes = rng.integers(0, 4, shape).astype(np.int8)
    prev = rng.integers(0, 2, shape).astype(np.uint8)
    c = classes.astype(np.intp)
    rolled = [np.roll(c, shift, axis) for axis in (1, 0) for shift in (1, -1)]  # l, r, u, d
    want = table_2d(params)[code_2d(c, *rolled, prev != 0)]
    assert np.array_equal(prob_high_2d_grid(classes, prev, params), want)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (1, 5), (3, 7), (10, 10)])
def test_grid_batch_matches_single_grids(shape):
    # a stack of tori gives each torus its own law, its neighbors wrapping within it
    rng = np.random.default_rng(sum(shape))
    for reps in (1, 2, 5):
        classes = rng.integers(0, 4, (reps, *shape)).astype(np.int8)
        prev = rng.integers(0, 2, (reps, *shape)).astype(np.uint8)
        got = prob_high_2d_grid(classes, prev, CUSTOM_2D)
        want = np.stack([prob_high_2d_grid(c, p, CUSTOM_2D) for c, p in zip(classes, prev)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_prob_single():
    table = table_single(SingleCellHysteresisParams(0.9))  # [commanded, prev_cs]
    assert table[1, 0] == 0.9
    assert table[0, 1] == pytest.approx(0.1)
    assert table[0, 0] == 0.0
    assert table[1, 1] == 0.9
