"""Named, reproducible experiments: config validation, seeding, outputs.

A run takes a JSON config (kind plus kind-specific keys), derives one RNG
stream per replica from the master seed, writes CSV/JSON/text outputs into
the output directory and finishes with a manifest. The engines return
data; every output file's format is written here, except the solver's
JSONL trace (`hybrid.SolveTrace.write_jsonl`). Re-running a manifest
reproduces every output byte-for-byte; only the manifest's timestamps
differ, and its `env` on another machine. `SCHEMA` lists each kind's keys
(type, bounds, default, help), and `PROBLEMS` each problem kind's: they
check every config, and `SCHEMA` gives the CLI one flag per scalar key. Each key is parsed once, while the config is
checked (a rule label into a `Rule1D`, a problem spec into a
`QuboProblem`); the runners read those values from
`ExperimentConfig.values`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .cca1d import MODE_DISPLAY, MODE_PROBABILISTIC, Rule1D, run_1d, raster_to_text, single_seed
from .cca2d import DEFAULT_FLUCT_RATIO, EVENT_FIELDS, PopulationSeries, run_population_experiment
from .chemodel import ChemModel2DParams
from .lattice import chemical_state_count, expansion_ratio, format_scientific, input_state_count, line
from .markov import _BYTE_BUDGET as _MARKOV_BYTE_BUDGET, build_transition_matrix, check_capacity, success_probabilities
from .qubo import _MAX_VARS, CapacityError, brute_force_min, index_config, load_problem
from .signals import ClockedCellBank, ColorState, decode_trace, synthesize_trace
from .hybrid import SolverParams, solve_type1, solve_type2

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

REQUIRED = object()  # the default of a key that must be given
NUMBER = (int, float)


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


class Key(NamedTuple):
    """One config key: its type (a bool is no number), inclusive bounds (None:
    unbounded), default and help. `check(value, values)` raises ValueError
    (or the TypeError/KeyError/IndexError of a parser) for what a type and a
    bound cannot say, and returns the parsed value, or None to keep the
    value; `values` holds the keys listed before it, checked and parsed."""

    key: str
    type: type | tuple
    lo: float | None
    hi: float | None
    default: object
    help: str
    check: Callable[[object, dict], object] | None = None


def _require(ok: bool, message: str):
    if not ok:
        raise ValueError(message)


def _is_a(value, types) -> bool:
    return isinstance(value, types) and (types is bool or not isinstance(value, bool))


def _rows(*rows: Key) -> dict[str, Key]:
    return {row.key: row for row in rows}


def _check_count_digits(iface_levels: int, p: dict):
    """Raise CapacityError, naming count.n, when the input- or chemical-state
    count has more decimal digits than Python converts to a string. Works
    from logarithms, before any power is taken."""
    n, limit = p["n"], sys.get_int_max_str_digits()  # 0: no limit
    digits = max(
        n * n * math.log10(p["cell_levels"]) + 2 * n * (n - 1) * math.log10(iface_levels),
        n * n * math.log10(p["chem_levels"]),
    )
    if limit and digits >= limit:
        raise CapacityError(
            f"count.n: {n} gives a state count of about 10^{int(digits)}, "
            f"beyond the {limit}-digit limit of integer strings"
        )


def _index_tag(idx) -> str:
    """The success_<tag>.csv/.json name part of a deterministic index."""
    return f"{float(idx):.4g}".replace(".", "p")


def _check_indices(indices: list, p: dict):
    """Probabilities in [0, 1], no two of which write the same output files."""
    _require(all(_is_a(i, NUMBER) and 0.0 <= i <= 1.0 for i in indices), "expected probabilities in [0, 1]")
    seen = {}
    for idx in indices:
        tag = _index_tag(idx)
        _require(tag not in seen, f"indices {seen.get(tag)} and {idx} both write success_{tag}.*")
        seen[tag] = idx


# The estimated peak of one cca1d, cca2d, solve or clock-demo run, in
# bytes, may not exceed this (1 GiB). Each estimate is a sum of per-cell
# and per-step terms that bound tracemalloc peaks of whole runs, output
# files included.
_RUN_BYTE_BUDGET = 1 << 30


def _check_run_bytes(kind: str, terms: dict[str, int]):
    """Raise CapacityError, naming kind.key of the largest term, when the
    estimated bytes of a run (each term keyed by the key that drives it)
    sum past `_RUN_BYTE_BUDGET`, written as a power of two so that any
    total prints. Arithmetic only: nothing is allocated."""
    total = sum(terms.values())
    if total > _RUN_BYTE_BUDGET:
        raise CapacityError(
            f"{kind}.{max(terms, key=terms.get)}: the run would hold about 2^{math.log2(total):.1f} bytes, "
            f"over the budget of 2^{_RUN_BYTE_BUDGET.bit_length() - 1} bytes"
        )


# Bytes a problem of n variables may take per variable pair while it is
# built and put in Ising form. Tracemalloc peaks of load_problem at 400 to
# 1,600 variables read 41 bytes a pair for tsp (its Kronecker terms) and
# 25 for the other kinds; qubo_to_ising peaks at 24 on the built problem.
_PROBLEM_PAIR_BYTES = 48


def _problem_vars(kind: str, v: dict) -> tuple[str, int]:
    """(key, n): the variable count n of the problem of the checked values
    `v` of a `kind` spec, and the key that sets it, before anything is
    built: partition len(numbers), 2sat the largest integer |literal|, tsp
    the number of cities squared, explicit len(linear)."""
    if kind == "2sat":
        literals = (lit for clause in v["clauses"] if isinstance(clause, list) for lit in clause)
        return "clauses", max((abs(lit) for lit in literals if _is_a(lit, int)), default=0)
    if kind == "tsp":
        key = "coords" if v["coords"] is not None else "distances"
        return key, len(v[key]) ** 2
    key = "numbers" if kind == "partition" else "linear"
    return key, len(v[key])


def _check_problem(kind: str, spec: dict, p: dict):
    """The problem of a solve or markov spec, built once its keys passed
    PROBLEMS (messages name kind.problem.<key>) and its size is priced:
    CapacityError, naming kind.problem.<key>, when _PROBLEM_PAIR_BYTES per
    variable pair pass the run budget; and with markov's indices in `p`,
    naming kind.deterministic_indices, when the acceptance table at an
    index passes the Markov byte budget. The least table of any index, 8
    bytes a config and variable (max(n, 2^k) >= n), is priced before the
    build, each index's own after it. A markov problem, with or without
    indices, also names kind.problem.<key> past the _MAX_VARS variables
    that its oracle (brute_force_min) enumerates."""
    name, problem_kind = f"{kind}.problem", spec.get("kind")
    if not isinstance(problem_kind, str) or problem_kind not in PROBLEMS:
        raise ConfigError(f"{name}.kind: expected one of {tuple(PROBLEMS)}, got {problem_kind!r}")
    values = _check(name, PROBLEMS[problem_kind], spec)
    if problem_kind in _ONE_OF:
        a, b = _ONE_OF[problem_kind]
        if (values[a] is None) == (values[b] is None):
            raise ConfigError(f"{name}.{a}: give exactly one of {a} and {b}")
    key, n = _problem_vars(problem_kind, values)
    _check_run_bytes(name, {key: _PROBLEM_PAIR_BYTES * n * n})
    indices = p.get("deterministic_indices", ())
    if indices and 8 * n << n > _MARKOV_BYTE_BUDGET:
        raise CapacityError(
            f"{kind}.deterministic_indices: the table of 2^{n} configs of {n} variables takes at least "
            f"8 * 2^{n} * {n} bytes at any index, over {_MARKOV_BYTE_BUDGET}"
        )
    if kind == "markov" and n > _MAX_VARS:
        raise CapacityError(f"{name}.{key}: the oracle enumerates at most 2^{_MAX_VARS} configs, got 2^{n}")
    problem = load_problem(spec)
    for idx in indices:
        try:
            check_capacity(problem, float(idx))
        except CapacityError as exc:
            raise CapacityError(f"{kind}.deterministic_indices: index {idx}: {exc}") from None
    return problem


def _check_cca1d_capacity(steps: int, p: dict):
    """One replica at a time: its raster, text and CSV blocks (5 bytes a
    cell-step) and one step's arrays (600 bytes a cell)."""
    _check_run_bytes("cca1d", {"cells": 600 * p["cells"], "steps": 5 * p["cells"] * (steps + 1)})


def _check_solve_capacity(max_steps: int, p: dict):
    """One run at a time: its trace lists, above 16 variables the per-run
    dict of energies by config index (hybrid._scorer), and the JSONL write,
    400 bytes a proposal, plus n/4 bytes for the two n-bit config indices
    a proposal may keep. Tracemalloc peaks of 10,000-proposal runs with the
    write (seed 1, patience 0), per proposal: TSP4 with its energy table
    built in the run, 309 for Type 1 (p_read 0.9) and 218-223 for Type 2
    (p_chem 1 and 0.95); TSP5 (25 variables) with the dict, 261 for Type 1
    and 166-173 for Type 2. These include the run loop's block of
    uniforms (hybrid._run, at most 64 KiB) and the write's blocks, which
    add a fixed 0.4 MB or so to each."""
    _check_run_bytes("solve", {"max_steps": max_steps * (400 + p["problem"].n // 4)})


def _check_cca2d_capacity(steps: int, p: dict):
    """Every replica at once: its torus (400 bytes a cell, the neighbor
    table included) and its series and events (320 bytes a step)."""
    replicas = p["replicas"]
    _check_run_bytes("cca2d", {"side": 400 * p["side"] ** 2 * replicas, "steps": 320 * steps * replicas})


def _check_clock_demo_capacity(v: dict):
    """Every frame of every cell at once, in the trace lists and the
    decoding (24 bytes a frame-cell, at most period + 5 * jitter frames a
    cycle), plus 800 bytes a cell and 600 a cycle (the bank, the targets
    and the decisions). Tracemalloc peaks of whole runs (confirmations 1
    and 2) read 7-18 bytes a frame-cell with 10-2,000 cells, 630-780 a
    cell with 20,000-40,000 cells in one cycle, and 290-490 a cycle with
    one cell: 0.26-0.72 of this estimate, above a fixed 0.2 MB. The
    frame term is named after its largest factor."""
    cells, cycles, period, jitter = (v[k] for k in ("cells", "cycles", "period", "jitter"))
    terms = {"cells": 800 * cells, "cycles": 600 * cycles}
    factor = max((cells, "cells"), (cycles, "cycles"), (period, "period"), (5 * jitter, "jitter"))[1]
    terms[factor] = terms.get(factor, 0) + 24 * cells * cycles * (period + 5 * jitter)
    _check_run_bytes("clock-demo", terms)


COMMON = _rows(
    Key("seed", int, 0, None, 0, "master seed"),
    Key("replicas", int, 1, None, 1, "replica count"),
    Key("out", str, None, None, "out", "output directory"),
)

# the `replicas` row of the kinds that run one stream, in place of COMMON's
_ONE_STREAM = Key("replicas", int, 1, 1, 1, "replica count; this kind runs one stream")

# kind -> its keys, in checking order; a default of None means "absent"
SCHEMA = {
    "count": _rows(
        _ONE_STREAM,
        Key("n", int, 1, None, REQUIRED, "grid side length"),
        Key("cell_levels", int, 1, None, REQUIRED, "cell stirrer levels"),
        Key("chem_levels", int, 1, None, 2, "chemical states per cell"),
        # last, so that it sees the other keys checked
        Key("iface_levels", int, 1, None, REQUIRED, "interfacial stirrer levels", _check_count_digits),
    ),
    "cca1d": _rows(
        Key("rule", str, None, None, REQUIRED, "rule label A-i, e.g. 30-1", lambda v, p: Rule1D.from_label(v)),
        Key("cells", int, 1, None, REQUIRED, "chain length"),
        Key("steps", int, 0, None, REQUIRED, "number of steps", _check_cca1d_capacity),
        Key("mode", str, None, None, MODE_PROBABILISTIC, "probabilistic or display",
            lambda v, p: _require(v in (MODE_PROBABILISTIC, MODE_DISPLAY),
                                  "expected 'probabilistic' or 'display'")),
        Key("periodic", bool, None, None, False, "close the chain into a ring"),
        Key("init", list, None, None, None, "initial chemical states (default: one seed cell)",
            lambda v, p: _require(len(v) == p["cells"] and all(_is_a(s, int) and s in (0, 1) for s in v),
                                  f"expected {p['cells']} chemical states, each the integer 0 or 1")),
    ),
    "cca2d": _rows(
        Key("side", int, 1, None, REQUIRED, "torus side length"),
        Key("steps", int, 0, None, REQUIRED, "number of steps", _check_cca2d_capacity),
        Key("initial_chemits", int, 0, None, REQUIRED, "Chemits placed at step 0",
            lambda v, p: _require(v <= p["side"] ** 2, f"must be <= {p['side'] ** 2}")),
        Key("fluct_ratio", NUMBER, 0, 1, DEFAULT_FLUCT_RATIO, "share of cells made FLUCT per step"),
        Key("model", dict, None, None, ChemModel2DParams(), "chemical-model parameters",
            lambda v, p: ChemModel2DParams(**v)),
    ),
    "solve": _rows(
        Key("problem", dict, None, None, REQUIRED, "problem spec", lambda v, p: _check_problem("solve", v, p)),
        Key("solver", int, 1, 2, 2, "hybrid solver type, 1 or 2"),
        Key("p_chem", NUMBER, 0, 1, SolverParams.p_chem, "deterministic index"),
        Key("k_temp", NUMBER, None, None, SolverParams.k_temp, "Type-1 temperature, > 0",
            lambda v, p: SolverParams(k_temp=v).k_temp),
        Key("max_steps", int, 0, None, SolverParams.max_steps, "proposals per run", _check_solve_capacity),
        Key("target_energy", NUMBER, None, None, SolverParams.target_energy, "stop a run at this energy, finite",
            lambda v, p: SolverParams(target_energy=v).target_energy),
    ),
    "markov": _rows(
        _ONE_STREAM,
        Key("deterministic_indices", list, None, None, (1.0,), "indices to analyse", _check_indices),
        # after the indices, so that its capacity check sees them checked (or their default)
        Key("problem", dict, None, None, REQUIRED, "problem spec", lambda v, p: _check_problem("markov", v, p)),
        Key("horizon", int, 0, None, None, "proposals (default 100 * n)"),
    ),
    "clock-demo": _rows(
        _ONE_STREAM,
        Key("cells", int, 1, None, 7, "cells in the bank"),
        Key("cycles", int, 1, None, 4, "oscillation cycles"),
        Key("period", int, 4, None, 12, "frames per cycle"),  # synthesize_trace needs 4
        Key("jitter", int, 0, None, 0, "segment-length jitter in frames"),
        Key("confirmations", int, 1, None, ClockedCellBank.confirmations, "clock fires per decision"),
    ),
}
KINDS = tuple(SCHEMA)

_PENALTY = Key("penalty", NUMBER, None, None, 1.0, "penalty weight A, finite and > 0")

# problem kind -> the keys of its spec besides "kind", in checking order (the
# `problem` of solve and markov); the builders check the values
PROBLEMS = {
    "partition": _rows(
        Key("numbers", list, None, None, REQUIRED, "positive numbers to split into two halves of equal sum"),
        _PENALTY,
    ),
    "2sat": _rows(
        Key("clauses", list, None, None, REQUIRED, "pairs of nonzero DIMACS literals"),
        _PENALTY,
    ),
    "tsp": _rows(
        Key("coords", list, None, None, None, "city points"),
        Key("distances", list, None, None, None, "symmetric distance matrix"),
        Key("scale", NUMBER, None, None, None, "distance scale, finite and > 0 (default 0.1 / the largest)"),
        _PENALTY,
    ),
    "explicit": _rows(
        Key("linear", list, None, None, REQUIRED, "linear coefficients"),
        Key("quad", list, None, None, None, "symmetric half-weight matrix"),
        Key("pairs", dict, None, None, None, 'pairwise coefficients by "i,j"'),
        Key("offset", NUMBER, None, None, 0.0, "constant energy"),
    ),
}
# problem kind -> its two keys that each define the same part of a problem: give exactly one
_ONE_OF = {"tsp": ("coords", "distances"), "explicit": ("quad", "pairs")}

# kind -> the version of its output bytes, recorded in every manifest. A
# change that makes a kind write other bytes for the same config and seed
# bumps its number, so that run_from_manifest refuses an older manifest
# instead of re-running it to other bytes. solve 1: one draw per proposal;
# solve 2 and markov 1: coefficients snapped to a dyadic grid (qubo.QuboProblem).
OUTPUT_VERSION = {"count": 0, "cca1d": 0, "cca2d": 0, "solve": 2, "markov": 1, "clock-demo": 0}


def _check(kind: str, rows: dict[str, Key], given: dict) -> dict:
    """Check `given` against every row in order and return every key's
    value: parsed by its row's check, as given, or defaulted. A key that no
    row names, besides "kind", is an error. Messages name kind.key; the
    ConfigError of a row's check that runs a table of its own passes as it is."""
    unknown = [f"{kind}.{key}" for key in given if key != "kind" and key not in rows]
    if unknown:
        raise ConfigError(f"{', '.join(unknown)}: unknown key")
    values = {}
    for row in rows.values():
        name = f"{kind}.{row.key}"
        value = given.get(row.key)
        if value is None and (row.key not in given or row.default is None):
            if row.default is REQUIRED:
                raise ConfigError(f"{name}: required")
            values[row.key] = row.default
            continue
        if not _is_a(value, row.type):
            raise ConfigError(f"{name}: wrong type {type(value).__name__}")
        if row.lo is not None and not value >= row.lo:
            raise ConfigError(f"{name}: must be >= {row.lo}")
        if row.hi is not None and not value <= row.hi:
            raise ConfigError(f"{name}: must be <= {row.hi}")
        if row.check is not None:
            try:
                parsed = row.check(value, values)
            except ConfigError:
                raise
            except (TypeError, ValueError, KeyError, IndexError, OverflowError) as exc:
                raise ConfigError(f"{name}: {exc}") from None
            if parsed is not None:
                value = parsed
        values[row.key] = value
    return values


def derive_seed(master: int, stream_id: int) -> int:
    """Stable 64-bit stream derivation: the SplitMix64 finalizer applied to
    master + (stream_id + 1) * golden-gamma (mod 2^64). Documented so that
    results are portable across implementations."""
    x = (master + (stream_id + 1) * _GAMMA) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def stream_rng(master: int, stream_id: int) -> np.random.Generator:
    """Replica k of an experiment always uses derive_seed(master, k)."""
    return np.random.default_rng(derive_seed(master, stream_id))


@dataclass
class ExperimentConfig:
    """A checked config. `params` holds the kind's keys as given, without
    defaults, so the manifest and its hash record the input; `values` holds
    every key's value, the kind's and `seed`, `replicas` and `out`: parsed,
    as given, or defaulted."""

    kind: str
    params: dict
    values: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        kind = raw.get("kind")
        if kind not in KINDS:
            raise ConfigError(f"kind: expected one of {KINDS}, got {kind!r}")
        values = _check(kind, {**COMMON, **SCHEMA[kind]}, raw)
        if kind == "clock-demo":  # every key has a default, and a row's check sees only given values
            _check_clock_demo_capacity(values)
        params = {k: v for k, v in raw.items() if k in SCHEMA[kind] and k not in COMMON}
        return cls(kind, params, values)

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "seed": self.values["seed"], "replicas": self.values["replicas"]}
        d.update(self.params)
        return d


@dataclass
class RunManifest:
    kind: str
    config: dict
    config_hash: str
    master_seed: int
    artifact_version: str
    output_version: int
    started: str
    finished: str
    env: dict
    outputs: list[str] = field(default_factory=list)

    def write(self, path: Path):
        _write_json(path, self.__dict__)


def _write_json(path: Path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


_RASTER_BLOCK = 32  # steps per write; 64 steps save ~5% more time for twice the buffer


def write_raster_csv(path, raster: np.ndarray):
    """CSV of (step, cell, cs), CRLF line ends, one line per cell and step;
    each cs is one digit (IndexError otherwise).

    The steps whose numbers have the same digit count share one line
    template, copied into a uint8 array of `_RASTER_BLOCK` steps. Each
    block of steps fills in its step digits (made as bytes) and its cs
    digits with one fancy-index write each, and is written with one call."""
    digits = np.frombuffer(b"0123456789", np.uint8)
    rows = raster.shape[0]
    cells = [b",%d," % i for i in range(raster.shape[1])]
    with open(path, "wb") as fh:
        fh.write(b"step,cell,cs\r\n")
        start, d = 0, 1
        while start < rows:
            stop = min(10**d, rows)  # steps start..stop-1 have d digits
            sizes = np.array([d + len(c) + 3 for c in cells], np.intp)
            ends = np.cumsum(sizes)
            # digit_at[i, k]: digit k of the step number in line i of a step
            digit_at, cs_at = (ends - sizes)[:, None] + np.arange(d), ends - 3
            line = np.frombuffer(b"".join(b"0" * d + c + b"0\r\n" for c in cells), np.uint8)
            lines = np.tile(line, (min(_RASTER_BLOCK, stop - start), 1))
            for t in range(start, stop, len(lines)):
                k = min(len(lines), stop - t)
                steps = np.frombuffer(b"".join(b"%d" % i for i in range(t, t + k)), np.uint8)
                lines[:k, digit_at] = steps.reshape(k, 1, d)
                lines[:k, cs_at] = digits.take(raster[t : t + k])
                fh.write(lines[:k])
            start, d = stop, d + 1


def write_population_csv(path, series: PopulationSeries):
    """Per-step CSV: step, chemits, high_cs, propagation, replication, annihilation."""
    header = ["step", "chemits", "high_cs", "propagation", "replication", "annihilation"]
    steps = len(series.chemit_count)
    events = np.zeros((steps, 3), int)  # step 0 has no events
    events[1:] = series.events[:, [EVENT_FIELDS.index(f) for f in header[3:]]]
    rows = np.column_stack((np.arange(steps), series.chemit_count, series.high_cs_count, events))
    _write_csv(path, header, rows.tolist())


def write_trace_csv(path, traces: dict[int, list[ColorState]]):
    """Trace file: one row per frame, columns cell_id, frame, color."""
    _write_csv(
        path,
        ["cell_id", "frame", "color"],
        ([cell_id, frame, color.value] for cell_id in sorted(traces) for frame, color in enumerate(traces[cell_id])),
    )


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _environment() -> dict:
    """What a seeded run's outputs may depend on besides its config (not
    `platform.platform()`, which takes milliseconds)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def run(cfg: ExperimentConfig, quiet: bool = False) -> RunManifest:
    """Dispatch a validated config to its runner and write the manifest."""
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    out = Path(cfg.values["out"])
    out.mkdir(parents=True, exist_ok=True)
    outputs = _RUNNERS[cfg.kind](cfg, out, quiet)
    manifest = RunManifest(
        cfg.kind,
        cfg.to_dict(),
        config_hash(cfg),
        cfg.values["seed"],
        __version__,
        OUTPUT_VERSION[cfg.kind],
        started,
        time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        _environment(),
        sorted(outputs),
    )
    manifest.write(out / "manifest.json")
    return manifest


def run_from_manifest(manifest_path, out_dir=None, quiet: bool = True) -> RunManifest:
    """Re-run the experiment recorded in a manifest (bit-for-bit outputs).

    A manifest written for another output version of its kind (one without
    the key is version 0) raises ConfigError before anything is written."""
    with open(manifest_path) as fh:
        recorded = json.load(fh)
    raw = dict(recorded["config"])
    if out_dir is not None:
        raw["out"] = str(out_dir)
    cfg = ExperimentConfig.from_dict(raw)
    version = recorded.get("output_version", 0)
    if version != OUTPUT_VERSION[cfg.kind]:
        raise ConfigError(
            f"manifest.output_version: the manifest records {cfg.kind} outputs of version {version!r}, "
            f"this code writes version {OUTPUT_VERSION[cfg.kind]}"
        )
    return run(cfg, quiet=quiet)


def _run_count(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    v = cfg.values
    n, pl, ql, kl = v["n"], v["cell_levels"], v["iface_levels"], v["chem_levels"]
    inputs = input_state_count(n, pl, ql)
    chems = chemical_state_count(n, kl)
    payload = {
        "n": n,
        "cell_levels": pl,
        "iface_levels": ql,
        "chem_levels": kl,
        "input_states": str(inputs),
        "input_states_sci": format_scientific(inputs, 3),
        "chemical_states": str(chems),
        "chemical_states_sci": format_scientific(chems, 2),
    }
    if inputs % chems == 0:
        ratio = expansion_ratio(n, pl, ql, kl)
        payload["expansion_ratio"] = str(ratio)
        payload["expansion_ratio_sci"] = format_scientific(ratio, 2)
    _write_json(out / "counts.json", payload)
    if not quiet:
        print(f"input states: {payload['input_states_sci']}")
        print(f"chemical states: {payload['chemical_states_sci']}")
        if "expansion_ratio_sci" in payload:
            print(f"expansion ratio: {payload['expansion_ratio_sci']}")
    return ["counts.json"]


def _run_cca1d(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    v = cfg.values
    rule, mode = v["rule"], v["mode"]
    grid = line(v["cells"], periodic=v["periodic"])
    init_cs = np.asarray(v["init"], np.uint8) if v["init"] is not None else single_seed(v["cells"])
    outputs = []
    for k in range(v["replicas"]):
        rng = stream_rng(v["seed"], k)
        raster = run_1d(grid, init_cs, rule, v["steps"], mode=mode, rng=rng)
        stem = f"raster_{k:03d}" if v["replicas"] > 1 else "raster"
        (out / f"{stem}.txt").write_text(raster_to_text(raster))
        write_raster_csv(out / f"{stem}.csv", raster)
        outputs += [f"{stem}.txt", f"{stem}.csv"]
        if not quiet:
            print(f"replica {k}: rule {rule.label}, {v['steps']} steps, mode {mode}")
    return outputs


def _run_cca2d(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    v = cfg.values
    result = run_population_experiment(
        v["side"],
        v["initial_chemits"],
        v["steps"],
        [stream_rng(v["seed"], k) for k in range(v["replicas"])],
        v["model"],
        v["fluct_ratio"],
    )
    outputs = []
    for k, series in enumerate(result.series):
        name = f"population_{k:03d}.csv"
        write_population_csv(out / name, series)
        outputs.append(name)
    summary = {
        "side": v["side"],
        "initial_chemits": v["initial_chemits"],
        "steps": v["steps"],
        "replicas": v["replicas"],
        "mean_final": float(result.mean[-1]),
        "std_final": float(result.std[-1]),
        "mean_series_tail": [float(m) for m in result.mean[-10:]],
    }
    _write_json(out / "population_summary.json", summary)
    outputs.append("population_summary.json")
    if not quiet:
        print(f"final mean population: {summary['mean_final']:.2f}")
    return outputs


def _run_solve(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    v = cfg.values
    solver = v["solver"]
    sp = SolverParams(**{key: v[key] for key in ("p_chem", "k_temp", "max_steps", "target_energy")})
    solve = solve_type1 if solver == 1 else solve_type2
    outputs = []
    summaries = []
    for k in range(v["replicas"]):
        rng = stream_rng(v["seed"], k)
        trace = solve(v["problem"], sp, rng)
        name = f"trace_{k:03d}.jsonl"
        trace.write_jsonl(out / name)
        outputs.append(name)
        summaries.append(trace.summary())
    _write_json(out / "solve_summary.json", {"solver": solver, "runs": summaries})
    outputs.append("solve_summary.json")
    if not quiet:
        best = min(s["best_energy"] for s in summaries)
        print(f"best energy over {v['replicas']} runs: {best}")
    return outputs


def _run_markov(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    problem = cfg.values["problem"]
    emin, minima = brute_force_min(problem)
    oracle = {
        "problem": problem.metadata,
        "min_energy": emin,
        "argmin_configs": [index_config(i, problem.n).tolist() for i in minima],
        "argmin_indices": minima,
    }
    _write_json(out / "oracle.json", oracle)
    outputs = ["oracle.json"]
    for idx in cfg.values["deterministic_indices"]:
        accept = build_transition_matrix(problem, float(idx))
        report = success_probabilities(accept, minima, cfg.values["horizon"])
        tag = _index_tag(idx)
        _write_csv(out / f"success_{tag}.csv", ["config", "success"],
                   ([c, f"{v:.12g}"] for c, v in enumerate(report.success)))
        hist, edges = report.histogram()
        summary = {
            "p_chem": float(idx),
            "horizon": report.horizon,
            "minima": report.minima,
            "min": report.min,
            "max": report.max,
            "mean": report.mean,
            "spread_nonminima": report.spread(),
            "histogram": {"counts": hist.tolist(), "edges": edges.tolist()},
        }
        _write_json(out / f"success_{tag}.json", summary)
        outputs += [f"success_{tag}.csv", f"success_{tag}.json"]
        if not quiet:
            print(
                f"index {idx}: success min {report.min:.4f} max {report.max:.4f} "
                f"spread {report.spread():.4f}"
            )
    return outputs


def _run_clock_demo(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    cells, cycles, period, jitter = (cfg.values[k] for k in ("cells", "cycles", "period", "jitter"))
    rng = stream_rng(cfg.values["seed"], 0)
    traces = {i: [] for i in range(cells)}
    targets = []
    for _ in range(cycles):
        cycle_targets = [int(rng.integers(2)) for _ in range(cells)]
        targets.append(cycle_targets)
        bursts = [synthesize_trace(t, period, jitter, rng) for t in cycle_targets]
        span = max(len(b) for b in bursts)
        # cycle starts stay aligned: jitter drifts cells only within a cycle
        for i, burst in enumerate(bursts):
            traces[i].extend(burst + [ColorState.RED] * (span - len(burst)))
    length = min(len(v) for v in traces.values())
    bank = ClockedCellBank(cells, confirmations=cfg.values["confirmations"])
    decisions = []
    for frame in range(length):
        decision = bank.step_frame([traces[i][frame] for i in range(cells)])
        if decision is not None:
            decisions.append({"frame": frame, "cs": decision})
    write_trace_csv(out / "trace.csv", traces)
    payload = {
        "cells": cells,
        "cycles": cycles,
        "targets": targets,
        "decisions": decisions,
        "decoded": {str(i): decode_trace(traces[i]) for i in range(cells)},
    }
    _write_json(out / "decisions.json", payload)
    if not quiet:
        print(f"{len(decisions)} gated decisions over {cycles} cycles")
    return ["trace.csv", "decisions.json"]


_RUNNERS = {
    "count": _run_count,
    "cca1d": _run_cca1d,
    "cca2d": _run_cca2d,
    "solve": _run_solve,
    "markov": _run_markov,
    "clock-demo": _run_clock_demo,
}
