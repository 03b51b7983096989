import warnings
from dataclasses import astuple

import numpy as np
import pytest

from chemca import cca2d
from chemca.cca2d import (
    EVENT_FIELDS,
    ChemitEventCounts,
    PwmGrid,
    cca2d_update,
    format_pwm_grid,
    place_chemits,
    run_population_experiment,
    step_chemits,
)
from chemca.chemodel import ChemModel2DParams, PwmClass
from chemca.harness import stream_rng, write_population_csv

CORE, HALO, FLUCT, OFF = PwmClass.CORE, PwmClass.HALO, PwmClass.FLUCT, PwmClass.OFF


def empty(side):
    """A side x side torus of OFF cells."""
    return PwmGrid(np.zeros((side, side), np.int8))


def chemit_at(row, col):
    """Standard 5-cell Chemit, core plus halo ring, on a 5 x 5 torus."""
    pwm = empty(5)
    pwm.classes[row, col] = CORE
    for dr, dc in ((0, -1), (0, 1), (-1, 0), (1, 0)):
        pwm.classes[(row + dr) % 5, (col + dc) % 5] = HALO
    return pwm


def cores_of(pwm):
    return {tuple(rc) for rc in np.argwhere(np.asarray(pwm.classes) == CORE)}


def test_propagation_scenario():
    pwm = chemit_at(2, 2)
    cs = np.zeros((5, 5), np.uint8)
    cs[2, 3] = 1  # high state at the right nearest neighbor (a halo cell)
    new, counts = cca2d_update(pwm, cs, 0, np.random.default_rng(0))
    assert counts.propagation == 1
    assert cores_of(new) == {(2, 3)}
    assert new.classes[2, 2] == FLUCT  # old core left behind as fluctuation


def test_replication_scenario():
    pwm = chemit_at(2, 2)
    cs = np.zeros((5, 5), np.uint8)
    cs[3, 3] = 1  # bottom-right diagonal: next-nearest
    new, counts = cca2d_update(pwm, cs, 0, np.random.default_rng(0))
    assert counts.replication == 1
    assert cores_of(new) == {(2, 2), (3, 3)}  # original survives


def test_competition_frequencies():
    pwm = empty(5)
    pwm.classes[2, 1] = CORE
    pwm.classes[2, 2] = CORE
    cs = np.zeros((5, 5), np.uint8)
    cs[2, 1] = 1
    cs[2, 2] = 1  # each core sees exactly one high cell: the other core
    outcomes = {0: 0, 1: 0, 2: 0}
    n = 10_000
    for seed in range(n):
        new, _ = cca2d_update(pwm, cs, 0, np.random.default_rng(seed))
        outcomes[len(cores_of(new))] += 1
    assert outcomes[2] / n == pytest.approx(0.25, abs=0.02)  # both survive
    assert outcomes[0] / n == pytest.approx(0.25, abs=0.02)  # both die
    assert outcomes[1] / n == pytest.approx(0.50, abs=0.02)  # one survives


def test_random_selection_two_nearest():
    pwm = chemit_at(2, 2)
    cs = np.zeros((5, 5), np.uint8)
    cs[2, 3] = 1
    cs[2, 1] = 1  # two high nearest neighbors: propagation to one of them
    seen = set()
    for seed in range(40):
        new, counts = cca2d_update(pwm, cs, 0, np.random.default_rng(seed))
        assert counts.propagation == 1 and counts.random_selection == 1
        (core,) = cores_of(new)
        seen.add(core)
    assert seen == {(2, 3), (2, 1)}


def test_random_selection_two_next_nearest():
    pwm = chemit_at(2, 2)
    cs = np.zeros((5, 5), np.uint8)
    cs[3, 3] = 1
    cs[1, 1] = 1  # two high next-nearest: replication to one of them
    seen = set()
    for seed in range(40):
        new, counts = cca2d_update(pwm, cs, 0, np.random.default_rng(seed))
        assert counts.replication == 1
        assert (2, 2) in cores_of(new) and len(cores_of(new)) == 2
        seen |= cores_of(new) - {(2, 2)}
    assert seen == {(3, 3), (1, 1)}


def test_random_selection_mixed_events():
    pwm = chemit_at(2, 2)
    cs = np.zeros((5, 5), np.uint8)
    cs[2, 3] = 1  # nearest: would propagate
    cs[3, 3] = 1  # next-nearest: would replicate
    kinds = set()
    for seed in range(60):
        new, counts = cca2d_update(pwm, cs, 0, np.random.default_rng(seed))
        assert counts.random_selection == 1
        assert counts.propagation + counts.replication == 1
        kinds.add("prop" if counts.propagation else "repl")
    assert kinds == {"prop", "repl"}


def test_isolated_core_persists_and_builds_halo():
    pwm = empty(5)
    pwm.classes[1, 1] = CORE
    cs = np.zeros((5, 5), np.uint8)
    new, counts = cca2d_update(pwm, cs, 0, np.random.default_rng(0))
    assert cores_of(new) == {(1, 1)}
    for nb in ((1, 0), (1, 2), (0, 1), (2, 1)):
        assert new.classes[nb] == HALO
    assert counts == ChemitEventCounts()


def test_halo_cells_adjacent_to_some_core():
    rng = np.random.default_rng(10)
    pwm = place_chemits(8, 5, rng)
    cs = np.zeros((8, 8), np.uint8)
    for _ in range(30):
        pwm, cs, _ = step_chemits(pwm, cs, rng=rng)
        cores = cores_of(pwm)
        for r, c in np.argwhere(pwm.classes == HALO):
            assert any(
                ((r + dr) % 8, (c + dc) % 8) in cores
                for dr, dc in ((0, -1), (0, 1), (-1, 0), (1, 0))
            )


def test_no_core_creation_without_chemistry():
    # with all chemical states forced 0 no new core ever appears
    rng = np.random.default_rng(4)
    pwm = place_chemits(6, 4, rng)
    cs = np.zeros((6, 6), np.uint8)
    before = cores_of(pwm)
    for _ in range(20):
        pwm, counts = cca2d_update(pwm, cs, 3, rng)
        now = cores_of(pwm)
        assert now <= before
        assert counts.replication == counts.propagation == 0
        before = now


def test_fluct_alone_cannot_create_core():
    rng = np.random.default_rng(5)
    pwm = empty(6)
    cs = np.zeros((6, 6), np.uint8)
    for _ in range(50):
        pwm, cs, _ = step_chemits(pwm, cs, fluct_ratio=0.2, rng=rng)
        assert not cores_of(pwm)


def test_core_with_forced_chemistry_persists():
    # q3 = 1: a core's own chemical state is high every step, so the lone
    # core keeps persisting (its high CS is its only candidate source)
    params = ChemModel2DParams(q1=0.0, q2=0.0, q3=1.0, q4=0.0)
    rng = np.random.default_rng(6)
    pwm = empty(5)
    pwm.classes[2, 2] = CORE
    cs = np.zeros((5, 5), np.uint8)
    for _ in range(40):
        pwm, cs, _ = step_chemits(pwm, cs, params, fluct_ratio=0.0, rng=rng)
        assert len(cores_of(pwm)) == 1
    assert cs[tuple(next(iter(cores_of(pwm))))] == 1


def test_budget_clamped_with_warning():
    pwm = empty(3)
    cs = np.zeros((3, 3), np.uint8)
    with pytest.warns(UserWarning, match="clamped"):
        new, counts = cca2d_update(pwm, cs, 100, np.random.default_rng(0))
    assert np.count_nonzero(new.classes == FLUCT) == 9
    assert counts.fluct_clamped == 91


_NN = ((0, -1), (0, 1), (-1, 0), (1, 0))
_NNN = ((-1, -1), (-1, 1), (1, -1), (1, 1), (-2, 0), (2, 0), (0, -2), (0, 2))
_SHARED_COUNTERS = (
    "propagation", "replication", "competition_survived", "competition_died",
    "annihilation", "random_selection",
)


def reference_update(pwm, cs, fluct_budget, rng):
    """The per-core loop that cca2d_update replaced, with its own neighbor lists."""
    h, w = pwm.classes.shape

    def shifted(cell, offsets):
        r, c = divmod(cell, w)
        return [(r + dr) % h * w + (c + dc) % w for dr, dc in offsets]

    nn = [shifted(i, _NN) for i in range(h * w)]
    nnn = [list(dict.fromkeys(j for j in shifted(i, _NNN) if j != i)) for i in range(h * w)]
    old = np.ascontiguousarray(pwm.classes).reshape(-1)
    cs_flat = np.asarray(cs, dtype=np.uint8).reshape(-1)
    new = np.zeros_like(old)
    freeze = np.zeros(old.shape[0], dtype=bool)
    counts = ChemitEventCounts()
    for cell in np.flatnonzero(old == CORE):
        cell = int(cell)
        cand = [(j, True) for j in nn[cell] if cs_flat[j]]
        cand += [(j, False) for j in nnn[cell] if cs_flat[j]]
        if not cand:
            new[cell] = CORE
            continue
        if len(cand) > 1:
            counts.random_selection += 1
            pick, adjacent = cand[int(rng.integers(len(cand)))]
        else:
            pick, adjacent = cand[0]
        if adjacent and old[pick] == CORE:
            if rng.random() < 0.5:
                new[cell] = CORE
                counts.competition_survived += 1
            else:
                new[cell] = FLUCT
                counts.competition_died += 1
                counts.annihilation += 1
        elif adjacent:
            new[cell] = FLUCT
            freeze[cell] = True
            new[pick] = CORE
            counts.propagation += 1
        elif old[pick] != CORE:
            new[cell] = CORE
            new[pick] = CORE
            counts.replication += 1
        else:
            new[cell] = CORE
    for cell in np.flatnonzero(new == CORE):
        cell = int(cell)
        for p in nn[cell]:
            if not freeze[p] and new[p] != CORE:
                new[p] = HALO
                freeze[p] = True
        freeze[cell] = True
    unfrozen = np.flatnonzero(~freeze)
    budget = min(fluct_budget, unfrozen.size)
    if budget:
        chosen = rng.choice(unfrozen.size, size=budget, replace=False)
        new[unfrozen[chosen]] = FLUCT
    return PwmGrid(new.reshape(h, w)), counts


@pytest.mark.parametrize(
    "shape", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (3, 5), (4, 7)]
)
def test_update_matches_reference_loop(shape):
    rng = np.random.default_rng(shape)
    n = shape[0] * shape[1]
    for density in (0.1, 0.5, 0.9):
        for core_share in (0.1, 0.3, 0.6):
            for budget in (round(0.1 * n), n):  # the second clamps
                pwm = PwmGrid(np.zeros(shape, np.int8))
                pwm.classes[:] = np.where(rng.random(shape) < core_share, CORE, rng.integers(0, 3, shape))
                cs = (rng.random(shape) < density).astype(np.uint8)
                seed = int(rng.integers(2**32))
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    got, got_counts = cca2d_update(pwm, cs, budget, got_rng)
                    want, want_counts = reference_update(pwm, cs, budget, want_rng)
                assert np.array_equal(got.classes, want.classes)
                for name in _SHARED_COUNTERS:
                    assert getattr(got_counts, name) == getattr(want_counts, name), name
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("side", [10, 2, 3, 5])
def test_core_count_changes_by_counted_events(side):
    # every change in the core count is a replication, an annihilation or a merge
    replication, annihilation, merged = map(EVENT_FIELDS.index, ("replication", "annihilation", "merged"))
    for seed in range(30):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # tiny tori clamp the fluctuation budget
            res = run_population_experiment(side, min(8, side * side), 40, [stream_rng(seed, 0)])
        (series,) = res.series
        assert series.events.shape == (40, len(EVENT_FIELDS))
        change = np.diff(series.chemit_count)
        balance = series.events[:, replication] - series.events[:, annihilation] - series.events[:, merged]
        assert np.array_equal(change, balance), seed


def random_batch(rng, reps, side):
    """`reps` random class grids and chemical states on a side x side torus."""
    shape = (reps, side, side)
    classes = np.where(rng.random(shape) < 0.2, CORE, rng.integers(0, 3, shape)).astype(np.int8)
    return PwmGrid(classes), (rng.random(shape) < 0.5).astype(np.uint8)


@pytest.mark.parametrize("side", [2, 3, 5, 10])
def test_batched_update_matches_single_grids(side):
    # a stacked batch steps each torus exactly as a single-grid call with its own generator
    rng = np.random.default_rng(side)
    clamped = 0
    for reps in (1, 2, 4):
        for budget in (round(0.1 * side * side), side * side):  # the second clamps
            pwm, cs = random_batch(rng, reps, side)
            seeds = rng.integers(2**32, size=reps).tolist()
            batch_rngs = [np.random.default_rng(s) for s in seeds]
            single_rngs = [np.random.default_rng(s) for s in seeds]
            rows = np.full((reps, len(EVENT_FIELDS)), -1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got, total = cca2d_update(pwm, cs, budget, batch_rngs, rows)
                singles = [
                    cca2d_update(PwmGrid(pwm.classes[k]), cs[k], budget, single_rngs[k]) for k in range(reps)
                ]
            assert got.classes.shape == pwm.classes.shape
            for k, (want, counts) in enumerate(singles):
                assert np.array_equal(got.classes[k], want.classes)
                assert rows[k].tolist() == list(astuple(counts))
                assert batch_rngs[k].bit_generator.state == single_rngs[k].bit_generator.state
            assert astuple(total) == tuple(rows.sum(axis=0).tolist())
            clamped += int(rows[:, EVENT_FIELDS.index("fluct_clamped")].sum())
    assert clamped > 0


def test_batched_update_keeps_the_trace_hook_contract(monkeypatch):
    # perfbench wraps cca2d_update by module global: its hook reads the input
    # classes from `pwm`, by keyword or as the second argument, and sums the
    # fields of the counts; both cover every replica of a population run
    seen, update = [], cca2d.cca2d_update

    def hooked(*args, **kwargs):
        result = update(*args, **kwargs)
        pwm = kwargs.get("pwm", args[1] if len(args) > 1 else None)
        seen.append((int((pwm.classes == CORE).sum()), vars(result[1])))
        return result

    monkeypatch.setattr(cca2d, "cca2d_update", hooked)
    res = run_population_experiment(10, 6, 30, [stream_rng(17, k) for k in range(3)])
    assert [cores for cores, _ in seen] == sum(s.chemit_count[:-1] for s in res.series).tolist()
    for t, (_, fields) in enumerate(seen):
        assert list(fields) == list(EVENT_FIELDS)
        assert all(type(v) is int for v in fields.values())
        assert list(fields.values()) == sum(s.events[t] for s in res.series).tolist()
    events = sum(s.events.sum(axis=0) for s in res.series)
    assert events[EVENT_FIELDS.index("random_selection")] > 0 and events[:2].sum() > 0


@pytest.mark.parametrize("side", [3, 10])
def test_population_batch_matches_single_replicas(side):
    reps = 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = run_population_experiment(side, 4, 60, [stream_rng(41, k) for k in range(reps)], fluct_ratio=0.3)
        singles = [run_population_experiment(side, 4, 60, [stream_rng(41, k)], fluct_ratio=0.3) for k in range(reps)]
    for got, (want,) in zip(batch.series, (s.series for s in singles)):
        assert np.array_equal(got.chemit_count, want.chemit_count)
        assert np.array_equal(got.high_cs_count, want.high_cs_count)
        assert np.array_equal(got.events, want.events)
    counts = np.stack([s.series[0].chemit_count for s in singles]).astype(float)
    assert np.array_equal(batch.mean, counts.mean(axis=0))
    assert np.array_equal(batch.std, counts.std(axis=0))


def test_write_once_classes():
    # no cell may change class twice within one update: competition winners
    # stay cores, halos never repaint cores
    rng = np.random.default_rng(8)
    pwm = place_chemits(6, 6, rng)
    cs = (rng.random((6, 6)) < 0.5).astype(np.uint8)
    new, _ = cca2d_update(pwm, cs, 3, rng)
    cores = cores_of(new)
    for r, c in np.argwhere(new.classes == HALO):
        assert (r, c) not in cores


def test_seed_determinism():
    a = run_population_experiment(10, 3, 50, [stream_rng(123, k) for k in range(2)])
    b = run_population_experiment(10, 3, 50, [stream_rng(123, k) for k in range(2)])
    for sa, sb in zip(a.series, b.series):
        assert np.array_equal(sa.chemit_count, sb.chemit_count)
        assert np.array_equal(sa.high_cs_count, sb.high_cs_count)
    c = run_population_experiment(10, 3, 50, [stream_rng(124, k) for k in range(2)])
    assert any(
        not np.array_equal(sa.chemit_count, sc.chemit_count)
        for sa, sc in zip(a.series, c.series)
    )


def test_population_zero_steps_matches_placement():
    res = run_population_experiment(10, 7, 0, [stream_rng(5, k) for k in range(3)])
    for s in res.series:
        assert s.chemit_count.tolist() == [7]


def test_placement_bounds():
    with pytest.raises(ValueError):
        run_population_experiment(5, 26, 1, [stream_rng(0, 0)])
    with pytest.raises(ValueError, match="generator"):
        run_population_experiment(5, 1, 1, [])
    with pytest.raises(ValueError):
        place_chemits(5, 26, np.random.default_rng(0))


def test_snapshot_and_csv_outputs(tmp_path):
    pwm = chemit_at(2, 2)
    text = format_pwm_grid(pwm)
    assert text.splitlines()[2] == ".hCh."
    res = run_population_experiment(8, 2, 5, [stream_rng(1, 0)])
    write_population_csv(tmp_path / "pop.csv", res.series[0])
    lines = (tmp_path / "pop.csv").read_text().splitlines()
    assert lines[0] == "step,chemits,high_cs,propagation,replication,annihilation"
    assert len(lines) == 7
