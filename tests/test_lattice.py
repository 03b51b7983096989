import pytest
from hypothesis import given, strategies as st

from chemca.lattice import (
    chemical_state_count,
    expansion_ratio,
    format_scientific,
    input_state_count,
    line,
    neighbor_table,
)


def nearest(side, cell):
    """Nearest neighbors of a (row, col) cell of a side x side torus as (row, col) pairs."""
    r, c = cell
    return [divmod(int(i), side) for i in neighbor_table(side, side)[r * side + c, :4]]


def next_nearest(side, cell):
    """Next-nearest neighbors of a (row, col) cell as (row, col) pairs, -1 padding dropped."""
    r, c = cell
    row = neighbor_table(side, side)[r * side + c, 4:]
    return [divmod(int(i), side) for i in row if i >= 0]


def test_torus_wrap_corner():
    assert nearest(7, (0, 0)) == [(0, 6), (0, 1), (6, 0), (1, 0)]


def test_torus_interior():
    assert nearest(5, (2, 2)) == [(2, 1), (2, 3), (1, 2), (3, 2)]


def test_next_nearest_fixed_order_7x7():
    got = next_nearest(7, (3, 3))
    assert got == [(2, 2), (2, 4), (4, 2), (4, 4), (1, 3), (5, 3), (3, 1), (3, 5)]


def test_next_nearest_wraparound_5x5():
    got = set(next_nearest(5, (0, 0)))
    assert (4, 4) in got and (3, 0) in got


def test_next_nearest_small_grid_dedup():
    got = next_nearest(3, (1, 1))
    assert len(got) == len(set(got)) <= 8
    assert (1, 1) not in got


def test_neighbor_table_layout_small_tori():
    # nearest duplicates kept (a 2-wide torus names its one horizontal
    # neighbor twice); next-nearest entries that repeat a cell are -1
    assert neighbor_table(2, 2)[0].tolist() == [1, 1, 2, 2, 3, -1, -1, -1, -1, -1, -1, -1]
    assert neighbor_table(1, 1)[0].tolist() == [0] * 4 + [-1] * 8
    assert neighbor_table(3, 5).shape == (15, 12)


@given(st.integers(5, 12), st.integers(0, 11), st.integers(0, 11))
def test_neighbor_symmetry_and_counts(side, r, c):
    cell = (r % side, c % side)
    nn = nearest(side, cell)
    assert len(nn) == 4
    for other in nn:
        assert cell in nearest(side, other)
    nnn = next_nearest(side, cell)
    assert len(nnn) == 8
    for other in nnn:
        assert cell in next_nearest(side, other)


def test_input_state_count_published():
    assert input_state_count(7, 4, 2) == 4**49 * 2**84
    assert format_scientific(input_state_count(7, 4, 2), 3) == "6.12e54"


def test_input_state_count_edges():
    assert input_state_count(1, 5, 3) == 5
    assert input_state_count(2, 2, 2) == 256


def test_chemical_state_count_published():
    assert chemical_state_count(7, 2) == 2**49
    assert format_scientific(chemical_state_count(7, 2), 2) == "5.6e14"
    assert chemical_state_count(1, 2) == 2


def test_expansion_ratio_published():
    assert expansion_ratio(7, 2, 2, 2) == 2**84
    assert format_scientific(2**84, 2) == "1.9e25"


@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 5), st.integers(2, 5))
def test_counts_exact_and_monotone(n, p, q, k):
    v = input_state_count(n, p, q)
    assert isinstance(v, int)
    assert input_state_count(n + 1, p, q) >= v
    assert input_state_count(n, p + 1, q) >= v
    assert input_state_count(n, p, q + 1) >= v
    c = chemical_state_count(n, k)
    assert isinstance(c, int)
    assert chemical_state_count(n, k + 1) > c


def test_count_preconditions():
    with pytest.raises(ValueError):
        input_state_count(0, 2, 2)
    with pytest.raises(ValueError):
        chemical_state_count(3, 0)


def test_format_scientific_truncates_not_rounds():
    assert format_scientific(6199, 2) == "6.1e3"
    assert format_scientific(999, 2) == "9.9e2"
    assert format_scientific(7, 3) == "7.00e0"


def test_grid_invariants():
    with pytest.raises(ValueError):
        line(0)
