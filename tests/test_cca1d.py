import csv

import numpy as np
import pytest

from chemca import cca1d, harness
from chemca.cca1d import (
    MODE_DISPLAY,
    MODE_PROBABILISTIC,
    Rule1D,
    apply_rule_a,
    apply_rule_b,
    default_chain,
    raster_to_text,
    run_1d,
    single_seed,
    step_1d,
)
from chemca.chemodel import prob_high_1d
from chemca.harness import write_raster_csv
from chemca.lattice import line

from .eca_reference import eca_run


def test_rule_a_published_rows():
    assert apply_rule_a(30, 1, 1, 1) == 0
    assert apply_rule_a(30, 0, 0, 1) == 1
    assert apply_rule_a(30, 1, 0, 0) == 1
    assert all(apply_rule_a(0, *t) == 0 for t in np.ndindex(2, 2, 2))


def test_rule_a_full_table_rule30():
    # eighth published table: cell-stirrer part is exactly rule 30
    table = {
        (1, 1, 1): 0, (1, 1, 0): 0, (1, 0, 1): 0, (1, 0, 0): 1,
        (0, 1, 1): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 0,
    }
    for (l, c, r), want in table.items():
        assert apply_rule_a(30, l, c, r) == want


def test_rule_b_or_instance():
    # interface part of the eighth published table is OR of the pair
    or_rule = 0b1110
    assert apply_rule_b(or_rule, 0, 0) == 0
    assert apply_rule_b(or_rule, 1, 0) == 1
    assert apply_rule_b(or_rule, 0, 1) == 1
    assert apply_rule_b(or_rule, 1, 1) == 1


def test_rule_b_zero_all_off():
    assert all(apply_rule_b(0, a, b) == 0 for a in (0, 1) for b in (0, 1))


def test_label_bijection_over_rule_space():
    seen = set()
    for a in range(256):
        for b in range(16):
            rule = Rule1D(a, b)
            back = Rule1D.from_label(rule.label)
            assert back == rule
            seen.add(rule.label)
    assert len(seen) == 256 * 16


def test_label_parse_errors():
    with pytest.raises(ValueError):
        Rule1D.from_label("30-0")
    with pytest.raises(ValueError):
        Rule1D.from_label("30-17")
    with pytest.raises(ValueError):
        Rule1D.from_label("banana")
    with pytest.raises(ValueError):
        Rule1D(256, 0)


# widths 1 and 2 put every cell at a chain end, where shifted neighbors go wrong
@pytest.mark.parametrize(
    "rule_a, width",
    [(30, 7), (110, 7), (250, 7), (30, 1), (30, 2), (110, 1), (110, 2)],
    ids=["30", "110", "250", "30-w1", "30-w2", "110-w1", "110-w2"],
)
def test_display_mode_matches_eca_oracle(rule_a, width):
    grid = default_chain(width)
    init = single_seed(width)
    raster = run_1d(grid, init, Rule1D(rule_a, 0), 25, mode=MODE_DISPLAY)
    want = eca_run(rule_a, list(init), 25)
    assert raster.tolist() == want


def test_display_mode_periodic_matches_oracle():
    for width in (11, 1, 2):
        grid = line(width, periodic=True)
        init = single_seed(width)
        raster = run_1d(grid, init, Rule1D(30, 0), 20, mode=MODE_DISPLAY)
        assert raster.tolist() == eca_run(30, list(init), 20, periodic=True)


def test_interfaces_off_probabilistic_equals_display():
    grid = default_chain(7)
    init = single_seed(7)
    rule = Rule1D(30, 0)
    disp = run_1d(grid, init, rule, 25, mode=MODE_DISPLAY)
    prob = run_1d(grid, init, rule, 25, mode=MODE_PROBABILISTIC, rng=np.random.default_rng(3))
    assert np.array_equal(disp, prob)


class _ConstantDraws:
    """An rng stub whose every uniform draw is `u`."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        return np.full(n, self.u)


def test_thresholded_single_step_matches_eca_row():
    # interfaces all on (rule_b = 15); every draw at 0.75 collapses the
    # chemistry (table values 0, 0.5, 0.8, 1) to a 0.75 threshold, which
    # reproduces the rule-30 row for one step from a single seed
    grid = default_chain(7)
    rule = Rule1D(30, 15)
    nxt = step_1d(grid, single_seed(7), rule, _ConstantDraws(0.75))
    assert nxt.tolist() == eca_run(30, list(single_seed(7)), 1)[1]


def _step_by_cell_loop(cs, rule, periodic, u):
    """Per-cell reference for both phases: the next chemical states given
    the step's uniform draws `u`, from the stirrer and interface bits the
    rule commands; with `u` None (display mode) they are the stirrer bits."""
    n = len(cs)

    def at(x, i):  # neighbor i of a cell; 0 beyond the ends of an open chain
        return int(x[i % n]) if periodic or 0 <= i < n else 0

    stir = [apply_rule_a(rule.rule_a, at(cs, i - 1), int(cs[i]), at(cs, i + 1)) for i in range(n)]
    n_iface = n if periodic else n - 1
    iface = [apply_rule_b(rule.rule_b, int(cs[j]), int(cs[(j + 1) % n])) for j in range(n_iface)]

    def iface_at(i):  # interface i; an open chain has none beyond its ends
        return at(iface, i) if periodic or 0 <= i < n_iface else 0

    if u is None:
        return stir
    new_cs = []
    for i in range(n):
        p = prob_high_1d(stir[i], at(stir, i - 1), at(stir, i + 1), iface_at(i - 1), iface_at(i))
        new_cs.append(int(u[i] < p))
    return new_cs


class _RecordingRng:
    """A generator that records the size of every uniform draw."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []

    def random(self, n):
        self.draws.append(n)
        return self.rng.random(n)


# below width 5 a periodic 5-cell window wraps onto itself
@pytest.mark.parametrize("periodic", [False, True])
def test_probabilistic_step_matches_cell_loop(periodic):
    rng = np.random.default_rng(11)
    for width in (1, 2, 3, 4, 5, 8):
        grid = line(width, periodic=periodic)
        for _ in range(30):
            rule = Rule1D(int(rng.integers(256)), int(rng.integers(16)))
            cs = rng.integers(0, 2, width).astype(np.uint8)
            for mode in (MODE_PROBABILISTIC, MODE_DISPLAY):
                draws = _RecordingRng(5)
                nxt = step_1d(grid, cs, rule, draws, mode=mode)
                u = np.random.default_rng(5).random(width) if mode == MODE_PROBABILISTIC else None
                assert draws.draws == ([width] if mode == MODE_PROBABILISTIC else [])
                assert nxt.dtype == np.uint8 and nxt.shape == (width,)
                assert nxt.tolist() == _step_by_cell_loop(cs, rule, periodic, u), (width, rule, mode)


def test_quiescent_all_zero():
    grid = default_chain(7)
    rule = Rule1D(30, 15)  # rule 30 has bit0 = 0
    nxt = step_1d(grid, np.zeros(7, np.uint8), rule, np.random.default_rng(0))
    assert nxt.sum() == 0


@pytest.mark.parametrize("init", [single_seed(6), single_seed(8), np.zeros((1, 7), np.uint8), 0])
def test_run_rejects_init_of_wrong_length(init):
    with pytest.raises(ValueError, match="chain length"):
        run_1d(default_chain(7), init, Rule1D(30, 15), 3, rng=np.random.default_rng(0))


def test_raster_reproducible_bit_for_bit():
    grid = default_chain(7)
    init = single_seed(7)
    rule = Rule1D(110, 9)
    a = run_1d(grid, init, rule, 30, rng=np.random.default_rng(77))
    b = run_1d(grid, init, rule, 30, rng=np.random.default_rng(77))
    assert np.array_equal(a, b)


def test_asymmetric_interface_rule_differs_statistically():
    # interface on only for (left=1, right=0) vs the symmetric both-ways rule
    grid = default_chain(7)
    init = single_seed(7)
    asym = Rule1D(30, 0b0100)
    sym = Rule1D(30, 0b0110)
    differing = 0
    for seed in range(50):
        a = run_1d(grid, init, asym, 25, rng=np.random.default_rng(seed))
        s = run_1d(grid, init, sym, 25, rng=np.random.default_rng(seed))
        differing += not np.array_equal(a, s)
    assert differing >= 45


def test_run_1d_keeps_the_trace_hook_contract(monkeypatch):
    # perfbench wraps step_1d by module global: its hook reads the chain
    # length as args[0].width and the mode from the keywords
    seen, step = [], cca1d.step_1d

    def hooked(*args, **kwargs):
        seen.append((args[0].width, kwargs.get("mode", MODE_PROBABILISTIC)))
        return step(*args, **kwargs)

    monkeypatch.setattr(cca1d, "step_1d", hooked)
    for mode in (MODE_PROBABILISTIC, MODE_DISPLAY):
        seen.clear()
        run_1d(default_chain(9), single_seed(9), Rule1D(30, 5), 4, mode=mode, rng=np.random.default_rng(0))
        assert seen == [(9, mode)] * 4


def test_run_zero_steps_and_negative():
    grid = default_chain(7)
    raster = run_1d(grid, single_seed(7), Rule1D(30, 0), 0, mode=MODE_DISPLAY)
    assert raster.shape == (1, 7)
    with pytest.raises(ValueError):
        run_1d(grid, single_seed(7), Rule1D(30, 0), -1)


def test_raster_text_and_csv(tmp_path):
    grid = default_chain(5)
    raster = run_1d(grid, single_seed(5), Rule1D(250, 0), 2, mode=MODE_DISPLAY)
    text = raster_to_text(raster)
    assert text.splitlines()[0] == "..#.."
    path = tmp_path / "raster.csv"
    write_raster_csv(path, raster)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,cell,cs"
    assert len(lines) == 1 + raster.size
    with pytest.raises(IndexError):
        write_raster_csv(path, raster * 10)
    # a cs above 9 in a later step block, after row 0 was written
    late = np.zeros((3 * harness._RASTER_BLOCK + 5, 5), np.uint8)
    late[-1, 2] = 10
    with pytest.raises(IndexError):
        write_raster_csv(path, late)


def _csv_writer_raster(path, raster):
    """The per-cell csv.writer loop that write_raster_csv replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "cell", "cs"])
        for t, row in enumerate(raster):
            for i, v in enumerate(row):
                writer.writerow([t, i, int(v)])


def test_raster_csv_matches_csv_writer(tmp_path):
    # row counts and widths cross every change in the digit count of step and
    # cell; the row counts of the second line end one step before, at and
    # after the end of a full step block, inside the 2- and 3-digit bands
    block = harness._RASTER_BLOCK
    ends = [band + m * block + e for band in (10, 100) for m in (1, 2) for e in (-1, 0, 1)]
    rng, text_rng = np.random.default_rng(7), np.random.default_rng(8)
    for rows in (1, 10, 11, 100, 101, 1001, 63, 64, 65, 127, 128, 129, *ends):
        for width in (1, 2, 11, 201):
            raster = (rng.random((rows, width)) < 0.5).astype(np.uint8)
            want, got = tmp_path / "want.csv", tmp_path / "got.csv"
            _csv_writer_raster(want, raster)
            write_raster_csv(got, raster)
            assert got.read_bytes() == want.read_bytes(), (rows, width)
            # .fhC is format_pwm_grid's alphabet for 0-3; .█ mixes 1- and 3-byte characters
            for chars in (".#", "░█", ".fhC", "\0#", ".█"):
                symbols = text_rng.integers(0, len(chars), raster.shape, dtype=np.uint8)
                ref = "\n".join("".join(chars[v] for v in row) for row in symbols) + "\n"
                assert raster_to_text(symbols, chars) == ref, (rows, width, chars)
