import csv

import numpy as np
import pytest

from chemca.signals import (
    ClockedCellBank,
    ColorState,
    GlobalClock,
    LocalClock,
    RfsmAccumulator,
    decode_trace,
    global_clock_step,
    local_clock_step,
    rfsm_step,
    synthesize_trace,
    tock_threshold,
)
from chemca.harness import write_trace_csv

R, LB, B = ColorState.RED, ColorState.LIGHT_BLUE, ColorState.BLUE


def run_rfsm(colors):
    acc = RfsmAccumulator()
    events = []
    for c in colors:
        acc, ev = rfsm_step(acc, c)
        events.append(ev)
    return events


def test_full_excursion_emits_one():
    events = run_rfsm([R, LB, B, LB, R])
    assert events == [None, None, None, None, 1]


def test_weak_excursion_emits_zero():
    assert run_rfsm([R, LB, R]) == [None, None, 0]


def test_straight_red_to_blue_emits_one():
    assert run_rfsm([R, B, R]) == [None, None, 1]


def test_no_emission_without_excursion():
    assert run_rfsm([R, R, R]) == [None, None, None]


def test_one_event_per_excursion():
    events = decode_trace([R, LB, B, B, LB, LB, R, R, LB, R, R, B, R])
    assert events == [1, 0, 1]


@pytest.mark.parametrize(
    "state,bit,expected",
    [
        (LocalClock.NONE, 0, LocalClock.TOCK),
        (LocalClock.TICK, 0, LocalClock.TOCK),
        (LocalClock.TOCK, 0, LocalClock.TOCK),
        (LocalClock.NONE, 1, LocalClock.TICK),
        (LocalClock.TICK, 1, LocalClock.TICK),
        (LocalClock.TOCK, 1, LocalClock.TICK),
    ],
)
def test_local_clock_six_branches(state, bit, expected):
    assert local_clock_step(state, bit) is expected


def test_global_none_to_tick_on_any_tick():
    g = GlobalClock("1d")
    locals_ = [LocalClock.TICK] + [LocalClock.NONE] * 6
    g, fired = global_clock_step(g, locals_)
    assert g.state == "tick" and not fired


def test_global_fires_all_tock():
    g = GlobalClock("1d", "tick")
    locals_ = [LocalClock.TOCK] * 7
    g, fired = global_clock_step(g, locals_)
    assert fired and g.state == "none"
    assert all(c is LocalClock.NONE for c in locals_)


def test_global_fires_two_tock_rest_none():
    g = GlobalClock("1d", "tick")
    locals_ = [LocalClock.TOCK, LocalClock.TOCK] + [LocalClock.NONE] * 5
    g, fired = global_clock_step(g, locals_)
    assert fired


def test_global_blocked_while_any_tick():
    g = GlobalClock("1d", "tick")
    locals_ = [LocalClock.TOCK] * 6 + [LocalClock.TICK]
    g, fired = global_clock_step(g, locals_)
    assert not fired and g.state == "tick"


def test_global_2d_threshold():
    g = GlobalClock("2d", "tick")
    locals_ = [LocalClock.TOCK] * 14 + [LocalClock.NONE] * 35
    g, fired = global_clock_step(g, locals_)
    assert not fired
    locals_ = [LocalClock.TOCK] * 15 + [LocalClock.NONE] * 34
    g, fired = global_clock_step(GlobalClock("2d", "tick"), locals_)
    assert fired


def test_tock_threshold_scales_up():
    assert tock_threshold("2d", 49) == 15
    assert tock_threshold("2d", 100) == 31  # ceil(15/49 * 100)
    assert tock_threshold("1d", 7) == 2
    assert tock_threshold("1d", 1) == 1


def test_round_trip_jitter_zero():
    rng = np.random.default_rng(7)
    for target in (0, 1):
        trace = synthesize_trace(target, 10, 0, rng)
        assert decode_trace(trace) == [target]


def test_round_trip_small_jitter_property():
    rng = np.random.default_rng(123)
    ok = 0
    for _ in range(1000):
        target = int(rng.integers(2))
        trace = synthesize_trace(target, 12, 2, rng)
        ok += decode_trace(trace) == [target]
    assert ok == 1000


def test_trace_too_short():
    with pytest.raises(ValueError):
        synthesize_trace(1, 3, 0, np.random.default_rng(0))


def test_trace_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    traces = {i: synthesize_trace(i % 2, 8, 1, rng) for i in range(3)}
    path = tmp_path / "trace.csv"
    write_trace_csv(path, traces)
    by_code = {c.value: c for c in ColorState}
    read: dict[int, list[ColorState]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            assert int(row["frame"]) == len(read.setdefault(int(row["cell_id"]), []))
            read[int(row["cell_id"])].append(by_code[row["color"]])
    assert read == traces
    header = path.read_text().splitlines()[0]
    assert header == "cell_id,frame,color"


def test_clocked_bank_gates_after_two_fires():
    rng = np.random.default_rng(11)
    bank = ClockedCellBank(3, confirmations=2)
    targets = [[1, 0, 1], [0, 1, 1]]
    decisions = []
    for cycle in targets:
        frames = [synthesize_trace(t, 8, 0, rng) for t in cycle]
        for f in range(max(len(x) for x in frames)):
            out = bank.step_frame([tr[min(f, len(tr) - 1)] for tr in frames])
            if out is not None:
                decisions.append(out)
    assert decisions == [[0, 1, 1]]  # gated on the second full cycle


def test_clocked_bank_every_cycle_updates_each_cell_once():
    # a consumer stepping on gated decisions sees each cell's CS refreshed
    # exactly once per oscillation cycle
    rng = np.random.default_rng(13)
    bank = ClockedCellBank(4, confirmations=1)
    expected = []
    decisions = []
    for _ in range(6):
        cycle = [int(rng.integers(2)) for _ in range(4)]
        expected.append(cycle)
        frames = [synthesize_trace(t, 10, 0, rng) for t in cycle]
        for f in range(max(len(x) for x in frames)):
            out = bank.step_frame([tr[min(f, len(tr) - 1)] for tr in frames])
            if out is not None:
                decisions.append(out)
    assert decisions == expected

