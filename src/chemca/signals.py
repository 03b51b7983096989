"""Color-state recognition FSM, chemical clocks, and synthetic traces.

The camera/classifier pipeline is replaced by exact color-state input
(Red / LightBlue / Blue). A per-cell recognition FSM turns each completed
Red-to-Red color excursion into one binary chemical-state event. Local
tick/tock clocks plus a global clock gate every decision to oscillation
cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class ColorState(Enum):
    RED = "R"
    LIGHT_BLUE = "LB"
    BLUE = "B"


class LocalClock(Enum):
    NONE = 0
    TICK = 1
    TOCK = 2


MODE_1D = "1d"
MODE_2D = "2d"

# 2D firing needs 15 of 49 locals in Tock; scaled to other cell counts by
# rounding up. 1D needs at least two.
_TOCK_FRACTION_2D = 15 / 49


@dataclass(frozen=True)
class RfsmAccumulator:
    """Per-cell recognition state. Starts at Red, outside any excursion."""

    saw_blue: bool = False
    in_excursion: bool = False


def rfsm_step(acc: RfsmAccumulator, color: ColorState) -> tuple[RfsmAccumulator, int | None]:
    """Advance the recognition FSM by one frame.

    Emits a chemical state only on return to Red: 1 if the excursion
    reached Blue (via LightBlue or directly), else 0. Every color sequence
    is legal input.
    """
    if color is ColorState.RED:
        if acc.in_excursion:
            event = 1 if acc.saw_blue else 0
            return RfsmAccumulator(), event
        return acc, None
    return RfsmAccumulator(acc.saw_blue or color is ColorState.BLUE, True), None


def decode_trace(colors) -> list[int]:
    """Run the recognition FSM over a frame sequence; collect all events."""
    acc = RfsmAccumulator()
    events: list[int] = []
    for color in colors:
        acc, event = rfsm_step(acc, color)
        if event is not None:
            events.append(event)
    return events


def local_clock_step(clock: LocalClock, cnn_state_bit: int) -> LocalClock:
    """Six-branch local clock table: bit 1 -> Tick, bit 0 -> Tock.

    The bit is 1 while the cell is non-Red (oscillating) and 0 at Red.
    A never-oscillated cell (None + bit 0) counts as Tock; the global
    all-red guard prevents spurious fires.
    """
    if cnn_state_bit not in (0, 1):
        raise ValueError("cnn_state_bit must be 0 or 1")
    return LocalClock.TICK if cnn_state_bit else LocalClock.TOCK


@dataclass
class GlobalClock:
    """Global sync clock. state is None or Tick; Tock is the firing event."""

    mode: str = MODE_1D
    state: str = "none"  # "none" | "tick"

    def __post_init__(self):
        if self.mode not in (MODE_1D, MODE_2D):
            raise ValueError(f"unknown clock mode: {self.mode!r}")


def tock_threshold(mode: str, n_cells: int) -> int:
    if mode == MODE_1D:
        return min(2, n_cells)
    return math.ceil(_TOCK_FRACTION_2D * n_cells)


def global_clock_step(g: GlobalClock, locals_: list[LocalClock]) -> tuple[GlobalClock, bool]:
    """Advance the global clock against the current local-clock states.

    None -> Tick as soon as any local is Tick. From Tick, the clock fires
    (the global Tock) when no local is Tick (all cells back at Red) and
    enough locals are Tock: >= 2 in 1D mode, >= ceil(15/49 * n) in 2D mode.
    Firing resets `locals_` in place to None and returns a None-state clock.
    """
    n_tick = sum(1 for c in locals_ if c is LocalClock.TICK)
    if g.state == "none":
        if n_tick:
            return GlobalClock(g.mode, "tick"), False
        return GlobalClock(g.mode, "none"), False
    n_tock = sum(1 for c in locals_ if c is LocalClock.TOCK)
    if n_tick == 0 and n_tock >= tock_threshold(g.mode, len(locals_)):
        locals_[:] = [LocalClock.NONE] * len(locals_)
        return GlobalClock(g.mode, "none"), True
    return GlobalClock(g.mode, "tick"), False


@dataclass
class ClockedCellBank:
    """Clock machinery for a bank of cells, driven one frame at a time.

    Per frame, feed the color of every cell: each cell's recognition FSM
    may emit a chemical state (latched until consumed), local clocks update
    from the red/non-red bit, and the global clock may fire. A decision is
    released only after `confirmations` global fires (default 2: the clock
    must fully oscillate twice before a decision).
    """

    n_cells: int
    mode: str = MODE_1D
    confirmations: int = 2
    accs: list[RfsmAccumulator] = field(init=False)
    locals_: list[LocalClock] = field(init=False)
    global_clock: GlobalClock = field(init=False)
    latched_cs: list[int] = field(init=False)
    fires_seen: int = field(init=False, default=0)

    def __post_init__(self):
        self.accs = [RfsmAccumulator() for _ in range(self.n_cells)]
        self.locals_ = [LocalClock.NONE] * self.n_cells
        self.global_clock = GlobalClock(self.mode)
        self.latched_cs = [0] * self.n_cells

    def step_frame(self, colors: list[ColorState]) -> list[int] | None:
        """Feed one frame of colors; return latched CS when a decision gates."""
        if len(colors) != self.n_cells:
            raise ValueError("one color per cell required")
        for i, color in enumerate(colors):
            self.accs[i], event = rfsm_step(self.accs[i], color)
            if event is not None:
                self.latched_cs[i] = event
            bit = 0 if color is ColorState.RED else 1
            self.locals_[i] = local_clock_step(self.locals_[i], bit)
        self.global_clock, fired = global_clock_step(self.global_clock, self.locals_)
        if fired:
            self.fires_seen += 1
            if self.fires_seen >= self.confirmations:
                self.fires_seen = 0
                return list(self.latched_cs)
        return None


def synthesize_trace(
    target_cs: int,
    period_frames: int,
    jitter: int = 0,
    rng: np.random.Generator | None = None,
) -> list[ColorState]:
    """One full color excursion encoding `target_cs`.

    Shape R..,LB,(B if target is 1),LB,R.. over roughly `period_frames`
    frames, with each segment length jittered uniformly in [-jitter, jitter]
    but kept >= 1 so the segment order is intact.
    """
    if period_frames < 4:
        raise ValueError("period_frames must be >= 4")
    if target_cs not in (0, 1):
        raise ValueError("target_cs must be 0 or 1")
    if rng is None:
        rng = np.random.default_rng()

    n_seg = 5 if target_cs else 3
    base = max(1, period_frames // n_seg)
    lengths = [base] * n_seg
    lengths[0] += period_frames - base * n_seg
    if jitter:
        lengths = [max(1, L + int(rng.integers(-jitter, jitter + 1))) for L in lengths]

    if target_cs:
        segments = (
            ColorState.RED, ColorState.LIGHT_BLUE, ColorState.BLUE,
            ColorState.LIGHT_BLUE, ColorState.RED,
        )
    else:
        segments = (ColorState.RED, ColorState.LIGHT_BLUE, ColorState.RED)

    trace: list[ColorState] = []
    for color, L in zip(segments, lengths):
        trace.extend([color] * L)
    return trace
