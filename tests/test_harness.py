import ast
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chemca import harness
from chemca.cca1d import Rule1D
from chemca.chemodel import ChemModel2DParams
from chemca.cli import EXIT_CAPACITY, EXIT_OK, EXIT_USER, _assemble, build_parser, main
from chemca.harness import (
    SCHEMA,
    ConfigError,
    ExperimentConfig,
    derive_seed,
    run,
    run_from_manifest,
    stream_rng,
)


def test_derive_seed_pure_and_distinct():
    assert derive_seed(12345, 0) == derive_seed(12345, 0)
    rng = np.random.default_rng(0)
    masters = rng.integers(0, 2**63, 2000)
    for m in masters:
        assert derive_seed(int(m), 0) != derive_seed(int(m), 1)
    assert 0 <= derive_seed(2**64 - 1, 2**32) < 2**64


def _derive_seed_vectorized(master: np.ndarray, stream_id: int) -> np.ndarray:
    # same SplitMix64 finalizer as derive_seed, in uint64 arithmetic
    with np.errstate(over="ignore"):
        x = master + np.uint64((stream_id + 1) * 0x9E3779B97F4A7C15 & (2**64 - 1))
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def test_derive_seed_stream_injectivity_at_scale():
    rng = np.random.default_rng(1)
    masters = rng.integers(0, 2**64, 1_000_000, dtype=np.uint64)
    # the vectorized form agrees with the scalar definition
    sample = masters[:1000]
    for m, v in zip(sample, _derive_seed_vectorized(sample, 0)):
        assert derive_seed(int(m), 0) == int(v)
    # 10^6 random masters: stream 0 and stream 1 never collide
    assert not np.any(
        _derive_seed_vectorized(masters, 0) == _derive_seed_vectorized(masters, 1)
    )


def test_stream_rng_reproducible():
    a = stream_rng(9, 3).random(5)
    b = stream_rng(9, 3).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, stream_rng(9, 4).random(5))


def test_config_validation_errors():
    count = {"kind": "count", "n": 7, "cell_levels": 4, "iface_levels": 2}
    cca1d = {"kind": "cca1d", "rule": "30-1", "cells": 7, "steps": 3}
    cca2d = {"kind": "cca2d", "side": 5, "steps": 1, "initial_chemits": 1}
    problem = {"kind": "partition", "numbers": [1, 3, 4, 8]}
    solve = {"kind": "solve", "problem": problem}
    markov = {"kind": "markov", "problem": problem}
    cases = [
        ({"kind": "nope"}, "kind"),
        ({"kind": "count", "cell_levels": 4, "iface_levels": 2}, "count.n"),
        (dict(cca1d, steps=-1), "cca1d.steps"),
        (dict(count, seed=-4), "seed"),
        (dict(cca2d, initial_chemits=26), "initial_chemits"),
        (dict(markov, horizon=-3), "markov.horizon"),
        (dict(markov, horizon="10"), "markov.horizon"),
        (dict(solve, p_chem="0.9"), "solve.p_chem"),
        (dict(solve, p_chem=1.5), "solve.p_chem"),
        (dict(solve, max_steps="10"), "solve.max_steps"),
        (dict(solve, k_temp=0), "solve.k_temp"),
        (dict(solve, target_energy="0"), "solve.target_energy"),
        (dict(solve, target_energy=float("nan")), "solve.target_energy"),
        (dict(solve, target_energy=float("inf")), "solve.target_energy"),
        (dict(solve, target_energy=-float("inf")), "solve.target_energy"),
        (dict(solve, k_temp=float("nan")), "solve.k_temp"),
        (dict(cca2d, fluct_ratio="0.1"), "cca2d.fluct_ratio"),
        (dict(cca2d, fluct_ratio=7), "cca2d.fluct_ratio"),
        (dict(cca1d, periodic="yes"), "cca1d.periodic"),
        (dict(cca1d, init=[0, 1]), "cca1d.init"),
        (dict(cca1d, init=[0, 1, 2, 0, 0, 0, 0]), "cca1d.init"),
        (dict(cca1d, init=[True, False, 1, 0, 0, 0, 0]), "cca1d.init"),
        (dict(cca1d, init=[1.0, 0, 1, 0, 0, 0, 0]), "cca1d.init"),
        (dict(cca1d, rule="30-0"), "cca1d.rule"),
        (dict(cca1d, cells=True), "cca1d.cells"),
        ({"kind": "clock-demo", "period": "12"}, "clock-demo.period"),
        ({"kind": "clock-demo", "period": 3}, "clock-demo.period"),
        ({"kind": "clock-demo", "jitter": "1"}, "clock-demo.jitter"),
        ({"kind": "clock-demo", "jitter": -1}, "clock-demo.jitter"),
        ({"kind": "clock-demo", "confirmations": "2"}, "clock-demo.confirmations"),
        ({"kind": "clock-demo", "confirmations": 0}, "clock-demo.confirmations"),
        (dict(markov, deterministic_indices=[True]), "markov.deterministic_indices"),
        # two indices that would write the same success_<tag> files
        (dict(markov, deterministic_indices=[0.5, 0.95, 0.950001]),
         r"markov.deterministic_indices: indices 0\.95 and 0\.950001 both write success_0p95"),
        (dict(markov, deterministic_indices=[1, 1.0]), r"markov.deterministic_indices: indices 1 and 1\.0"),
        (dict(solve, p_chme=0.9), "solve.p_chme: unknown key"),
        (dict(count, side=7, bogus=1), "count.side, count.bogus: unknown key"),
        (dict(cca1d, out=5), "cca1d.out"),
        (dict(count, seed=True), "count.seed"),
        (dict(solve, solver=3), "solve.solver"),
        (dict(cca1d, mode="foo"), "cca1d.mode"),
        # the kinds that run one stream take no second replica
        (dict(count, replicas=4), "count.replicas"),
        (dict(markov, replicas=2), "markov.replicas"),
        ({"kind": "clock-demo", "replicas": 3}, "clock-demo.replicas"),
    ]
    bad_problems = [
        {"kind": "partition", "numbers": 5},
        {"kind": "tsp", "coords": 5},
        {"kind": "explicit", "linear": [0, 0], "pairs": {"0,5": 1}},
        {"kind": "explicit", "linear": 5, "quad": [[0]]},
        {"kind": "tsp", "coords": [[0, 0], [1, 0], [0, 1]], "scale": "x"},
        {"kind": "tsp", "coords": [[0, 0], [0, 0], [0, 0]]},  # no distance to scale by
        {"kind": "explicit", "linear": [float("nan"), 0], "quad": [[0, 0], [0, 0]]},
        {"kind": "partition", "numbers": [1e200, 1e200]},  # its offset overflows
        {"kind": "explicit", "linear": [-1e308, -1e308], "quad": [[0, 0], [0, 0]]},  # its energies overflow
        {"kind": "partition", "numbers": [1, 3, 4, 8], "penalty": float("nan")},
        {"kind": "partition", "numbers": [1, 3, 4, 8], "penalty": -1},
        {"kind": "partition", "numbers": [1, 3, 4, 8], "penalty": 0},
        {"kind": "2sat", "clauses": [[True, 2]]},
        {"kind": "2sat", "clauses": [[1.5, 2]]},
        {"kind": "explicit", "linear": [[0, 0]], "quad": [[0]]},  # a 1 x 2 linear
        {"kind": "partition", "numbers": "12"},
        {"kind": "partition", "numbers": ["1", "2"]},
        {"kind": "partition", "numbers": [True, 2, 3]},
        {"kind": "tsp", "coords": [[0, 0], [1, 0], [3, 3], [0, 10]], "scale": -0.5},
        {"kind": "tsp", "coords": [[0, 0], [1, 0], [3, 3], [0, 10]], "scale": 0},
        {"kind": "tsp", "coords": [[0, 0], [1, 0], [3, 3], [0, 10]], "scale": float("inf")},
        {"kind": "tsp", "coords": [[0, 0], [1, 0], [3, 3], [0, 10]], "scale": float("nan")},
    ]
    # penalty, scale and pairs are named when their type is wrong; a bool is no number
    named_problems = [
        ({"kind": "tsp", "coords": [[0, 0], [1, 0], [0, 1]], "scale": "x"}, "scale"),
        ({"kind": "tsp", "coords": [[0, 0], [1, 0], [0, 1]], "scale": True}, "scale"),
        ({"kind": "tsp", "coords": [[0, 0], [1, 0], [0, 1]], "penalty": True}, "penalty"),
        ({"kind": "partition", "numbers": [1, 3, 4, 8], "penalty": True}, "penalty"),
        ({"kind": "partition", "numbers": [1, 3, 4, 8], "penalty": "2"}, "penalty"),
        ({"kind": "2sat", "clauses": [[1, 2]], "penalty": False}, "penalty"),
        ({"kind": "explicit", "linear": [0, 0], "pairs": [1, 2]}, "pairs"),
        ({"kind": "explicit", "linear": [0, 0], "pairs": {"0,1": True}}, "pairs key '0,1'"),
        ({"kind": "explicit", "linear": [0, 0], "pairs": {"0,1": "2"}}, "pairs key '0,1'"),
        # explicit coefficients are real numbers, and an explicit problem takes no penalty
        ({"kind": "explicit", "linear": [True, 0], "quad": [[0, False], [False, 0]], "offset": True}, "linear"),
        ({"kind": "explicit", "linear": [0, "1"], "quad": [[0, 0], [0, 0]]}, "linear"),
        ({"kind": "explicit", "linear": [0, 0], "quad": [[0, False], [False, 0]]}, "quad"),
        ({"kind": "explicit", "linear": [0, 0], "quad": [[0, None], [0, 0]]}, "quad"),
        ({"kind": "explicit", "linear": [0, 0], "quad": [[0, 0], [0, 0]], "offset": True}, "offset"),
        ({"kind": "explicit", "linear": [0, 0], "quad": [[0, 0], [0, 0]], "offset": "1"}, "offset"),
        ({"kind": "explicit", "linear": [0, 0], "quad": [[0, 0], [0, 0]], "penalty": "x"}, "penalty"),
        ({"kind": "explicit", "linear": [0, 0], "pairs": {"0,1": 1}, "penalty": 2}, "penalty"),
        # a missing key, a clause that is no pair, and points or distances that are no numbers
        ({"kind": "partition"}, "numbers is required"),
        ({"kind": "2sat"}, "clauses is required"),
        ({"kind": "tsp"}, "coords is required"),
        ({"kind": "explicit", "quad": [[0]]}, "linear is required"),
        ({"kind": "explicit", "linear": [0]}, "quad is required"),
        ({"kind": "2sat", "clauses": [1, 2]}, "clauses must be a list of pairs"),
        ({"kind": "2sat", "clauses": 5}, "clauses must be a list of pairs"),
        ({"kind": "tsp", "distances": "ab"}, "distances"),
        ({"kind": "tsp", "distances": [[0, 1], [1, None]]}, "distances"),
        ({"kind": "tsp", "coords": [[0, 0], [1, "a"]]}, "coords"),
        ({"kind": "tsp", "coords": [[0, 0], [1, True]]}, "coords"),
        ({"kind": "tsp", "coords": [[0, 0], [1]]}, "coords must be a rectangular array"),
        ({"kind": "tsp", "coords": [1, 2, 3]}, "coords must be a list of points"),
        ({"kind": "explicit", "linear": 5, "quad": [[0]]}, "linear must be 1-D"),
        # two keys that each define the same part of a problem
        ({"kind": "tsp", "coords": [[0, 0], [1, 0]], "distances": [[0, 1], [1, 0]]},
         "distances and coords are both given"),
        ({"kind": "explicit", "linear": [0, 0], "quad": [[0, 0], [0, 0]], "pairs": {"0,1": 1}},
         "pairs and quad are both given"),
        # a key that the problem's kind does not take
        ({"kind": "partition", "numbers": [1, 2], "nmbers": [5]}, "nmbers: unknown key; kind partition takes"),
        ({"kind": "2sat", "clauses": [[1, 2]], "extra": 3}, "extra: unknown key; kind 2sat takes"),
        ({"kind": "tsp", "coords": [[0, 0], [1, 0]], "numbers": [1]}, "numbers: unknown key; kind tsp takes"),
        # coefficients whose sums |offset| + sum |linear| + sum |pairwise| pass 2^47
        ({"kind": "partition", "numbers": [10000000, 10000000]}, "coefficients too large for exact sums"),
        ({"kind": "explicit", "linear": [2.0**47, 1], "quad": [[0, 0], [0, 0]]}, "coefficients too large"),
    ]
    for bad, key in named_problems:
        cases.append((dict(solve, problem=bad), f"solve.problem: {key}"))
        cases.append((dict(markov, problem=bad), f"markov.problem: {key}"))
    for bad in bad_problems:
        cases.append((dict(solve, problem=bad), "solve.problem"))
        cases.append((dict(markov, problem=bad), "markov.problem"))
    # a pairs key is two distinct spins of the problem, never wrapped
    for key in ("-1,0", "0,-2", "0,3", "1,1", "0", "0,1,2", "a,1", "0.5,1", ""):
        bad = {"kind": "explicit", "linear": [0, 0, 0], "pairs": {"0,1": 1, key: 2}}
        cases.append((dict(solve, problem=bad), f"solve.problem: pairs key '{re.escape(key)}'"))
        cases.append((dict(markov, problem=bad), f"markov.problem: pairs key '{re.escape(key)}'"))
    for raw, field in cases:
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_dict(raw)
    for raw in (count, cca1d, cca2d, solve, markov, dict(markov, horizon=None)):
        ExperimentConfig.from_dict(raw)
    for raw in (dict(count, replicas=1), dict(markov, seed=5, replicas=1), {"kind": "clock-demo", "replicas": 1}):
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.values["replicas"] == 1 and "replicas" not in cfg.params


def test_config_keys_parsed_once(tmp_path, monkeypatch):
    # one solve run and one markov run each load their problem once
    load_problem, loads = harness.load_problem, []
    monkeypatch.setattr(harness, "load_problem", lambda spec: loads.append(spec) or load_problem(spec))
    problem = {"kind": "partition", "numbers": [1, 3, 4, 8]}
    for raw in ({"kind": "solve", "problem": problem, "max_steps": 50},
                {"kind": "markov", "problem": problem, "horizon": 10}):
        loads.clear()
        run(ExperimentConfig.from_dict(dict(raw, out=str(tmp_path / raw["kind"]))), quiet=True)
        assert loads == [problem], raw["kind"]
    cfg = ExperimentConfig.from_dict({"kind": "cca1d", "rule": "30-5", "cells": 7, "steps": 3})
    assert cfg.values["rule"] == Rule1D(30, 4)
    cfg = ExperimentConfig.from_dict({"kind": "cca2d", "side": 5, "steps": 1, "initial_chemits": 1})
    assert cfg.values["model"] == ChemModel2DParams() and "model" not in cfg.params


def test_count_run_outputs(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {"kind": "count", "n": 7, "cell_levels": 4, "iface_levels": 2, "out": str(tmp_path)}
    )
    manifest = run(cfg, quiet=True)
    data = json.loads((tmp_path / "counts.json").read_text())
    assert data["input_states_sci"] == "6.12e54"
    assert data["chemical_states_sci"] == "5.6e14"
    assert manifest.outputs == ["counts.json"]
    recorded = json.loads((tmp_path / "manifest.json").read_text())
    assert set(recorded["env"]) == {"python", "numpy", "platform", "machine"}
    assert recorded["env"]["numpy"] == np.__version__


def test_cca1d_display_run(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "cca1d",
            "rule": "30-1",
            "cells": 7,
            "steps": 20,
            "mode": "display",
            "out": str(tmp_path),
        }
    )
    run(cfg, quiet=True)
    text = (tmp_path / "raster.txt").read_text()
    assert len(text.splitlines()) == 21
    assert text.splitlines()[0] == "...#..."


def test_solve_run_and_rerun_byte_identical(tmp_path):
    raw = {
        "kind": "solve",
        "problem": {"kind": "partition", "numbers": [1, 3, 4, 8]},
        "solver": 2,
        "p_chem": 0.95,
        "max_steps": 500,
        "seed": 5,
        "replicas": 3,
        "out": str(tmp_path / "a"),
    }
    manifest = run(ExperimentConfig.from_dict(raw), quiet=True)
    run_from_manifest(tmp_path / "a" / "manifest.json", tmp_path / "b")
    for name in manifest.outputs:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_rerun_refuses_another_output_version(tmp_path):
    assert set(harness.OUTPUT_VERSION) == set(SCHEMA)
    raw = {"kind": "solve", "problem": {"kind": "partition", "numbers": [1, 3, 4, 8]}, "max_steps": 20,
           "out": str(tmp_path / "a")}
    run(ExperimentConfig.from_dict(raw), quiet=True)
    path = tmp_path / "a" / "manifest.json"
    recorded = json.loads(path.read_text())
    assert recorded["output_version"] == harness.OUTPUT_VERSION["solve"] == 2
    # an edited version, or none (version 0, from before versions were recorded)
    for version in (0, 1, 3, "2", None):
        edited = {k: v for k, v in recorded.items() if k != "output_version" or version is not None}
        if version is not None:
            edited["output_version"] = version
        path.write_text(json.dumps(edited))
        want = rf"manifest\.output_version: .* solve outputs of version {re.escape(repr(version or 0))}, .* version 2"
        with pytest.raises(ConfigError, match=want):
            run_from_manifest(path, tmp_path / "b")
        assert not (tmp_path / "b").exists(), version
    # a kind still at version 0 re-runs a manifest without the key
    raw = {"kind": "count", "n": 3, "cell_levels": 4, "iface_levels": 2, "out": str(tmp_path / "c")}
    run(ExperimentConfig.from_dict(raw), quiet=True)
    path = tmp_path / "c" / "manifest.json"
    recorded = json.loads(path.read_text())
    assert recorded.pop("output_version") == 0
    path.write_text(json.dumps(recorded))
    run_from_manifest(path, tmp_path / "d")
    assert (tmp_path / "d" / "counts.json").read_bytes() == (tmp_path / "c" / "counts.json").read_bytes()


# One tiny config per kind (solve once per solver type; Type 1 writes 2,100
# trace rows, past two blocks of hybrid.SolveTrace.write_jsonl), the output
# version of its kind and the SHA-256 of its outputs (_outputs_digest). A
# change that moves a digest bumps that kind's harness.OUTPUT_VERSION and
# re-pins it here. numpy may change its Generator streams between
# versions, so the digests hold for PINNED_NUMPY only.
PINNED_NUMPY = "2.4.6"
PINNED_OUTPUTS = [
    ({"kind": "count", "n": 3, "cell_levels": 4, "iface_levels": 2}, 0,
     "cef8efc1f0554d73352c6affe1ca2bae4930a268337f46c8ad248a674e2b249a"),
    ({"kind": "cca1d", "rule": "110-7", "cells": 9, "steps": 15, "seed": 8}, 0,
     "bf8e7d87350b77ec270484df28cb53cb1f48a85cf488b4aa016410fdf9d89567"),
    ({"kind": "cca2d", "side": 8, "steps": 20, "initial_chemits": 2, "seed": 8}, 0,
     "02763c1d9ad5445f99b9a0ad0c5e63a968e7796a12c491bec9b3580fc1b45f42"),
    ({"kind": "solve", "problem": {"kind": "partition", "numbers": [1, 3, 4, 8]}, "solver": 1,
      "max_steps": 2100, "seed": 8}, 2,
     "c6edbe97b60d03c1541b4ae0ef2738126ac43c1a91b03bb9b36a1f2cf65d8021"),
    ({"kind": "solve", "problem": {"kind": "tsp", "coords": [[0, 0], [1, 0], [3, 3]]}, "solver": 2,
      "p_chem": 0.9, "max_steps": 300, "replicas": 2, "seed": 8}, 2,
     "fcf814dc0513e96b18e757a5fa6d0b5e28624e6a27f1c44e54435f236f6c42c7"),
    ({"kind": "markov", "problem": {"kind": "tsp", "coords": [[0, 0], [1, 0], [3, 3]]},
      "deterministic_indices": [1.0, 0.95], "horizon": 50}, 1,
     "975e02b0adfed3d248ac23bf94f0f1e6439c5da548655059137b67bc1366c869"),
    ({"kind": "clock-demo", "cells": 4, "cycles": 3, "jitter": 1, "seed": 8}, 0,
     "d9b98a11982471b80a382122bafae024aea1b5e427782bfd081f08cf916985c0"),
]


def _outputs_digest(out: Path, manifest) -> str:
    """SHA-256 over the manifest without its started, finished and env
    (which differ between runs and hosts) and over every listed output,
    each after its name."""
    recorded = json.loads((out / "manifest.json").read_text())
    for key in ("started", "finished", "env"):
        del recorded[key]
    digest = hashlib.sha256(json.dumps(recorded, sort_keys=True).encode())
    for name in manifest.outputs:
        digest.update(b"\0" + name.encode() + b"\0" + (out / name).read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("i", range(len(PINNED_OUTPUTS)))
def test_output_digests_pinned(i, tmp_path):
    raw, version, want = PINNED_OUTPUTS[i]
    assert harness.OUTPUT_VERSION[raw["kind"]] == version, "re-pin the digest with the version"
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"output digests pinned on numpy {PINNED_NUMPY}, this is numpy {np.__version__}")
    manifest = run(ExperimentConfig.from_dict(dict(raw, out=str(tmp_path))), quiet=True)
    assert _outputs_digest(tmp_path, manifest) == want, raw["kind"]


def test_pinned_outputs_cover_every_kind():
    assert {raw["kind"] for raw, _, _ in PINNED_OUTPUTS} == set(SCHEMA)


def test_markov_run_outputs(tmp_path):
    raw = {
        "kind": "markov",
        "problem": {"kind": "partition", "numbers": [1, 3, 4, 8]},
        "deterministic_indices": [1.0, 0.5],
        "horizon": 100,
        "out": str(tmp_path),
    }
    run(ExperimentConfig.from_dict(raw), quiet=True)
    for tag in ("1", "0p5"):
        assert (tmp_path / f"success_{tag}.csv").exists()
        assert (tmp_path / f"success_{tag}.json").exists()
    oracle = json.loads((tmp_path / "oracle.json").read_text())
    assert sorted(oracle["argmin_indices"]) == [7, 8]


def test_markov_run_8number_four_indices(tmp_path):
    # the full index study as one named experiment: four report pairs
    raw = {
        "kind": "markov",
        "problem": {"kind": "partition", "numbers": [1, 3, 4, 9, 3, 5, 3, 6]},
        "deterministic_indices": [1.0, 0.99, 0.95, 0.5],
        "horizon": 200,
        "out": str(tmp_path),
    }
    manifest = run(ExperimentConfig.from_dict(raw), quiet=True)
    reports = [name for name in manifest.outputs if name.endswith(".json") and "success" in name]
    assert len(reports) == 4
    for name in reports:
        data = json.loads((tmp_path / name).read_text())
        assert len(data["minima"]) == 12 and data["horizon"] == 200
    csv_lines = (tmp_path / "success_1.csv").read_text().splitlines()
    assert len(csv_lines) == 257  # header + one row per config 0..255


def test_clock_demo_run(tmp_path):
    raw = {"kind": "clock-demo", "cells": 5, "cycles": 4, "seed": 3, "out": str(tmp_path)}
    run(ExperimentConfig.from_dict(raw), quiet=True)
    data = json.loads((tmp_path / "decisions.json").read_text())
    # two synthesized cycles per gated decision (double-oscillation rule)
    assert len(data["decisions"]) == 2
    assert (tmp_path / "trace.csv").read_text().startswith("cell_id,frame,color")


def test_cca2d_run_outputs(tmp_path):
    raw = {
        "kind": "cca2d",
        "side": 10,
        "steps": 30,
        "initial_chemits": 3,
        "seed": 2,
        "replicas": 2,
        "model": {"q3": 0.8},  # chemical model loads from its config section
        "out": str(tmp_path),
    }
    run(ExperimentConfig.from_dict(raw), quiet=True)
    assert (tmp_path / "population_000.csv").exists()
    assert (tmp_path / "population_001.csv").exists()
    summary = json.loads((tmp_path / "population_summary.json").read_text())
    assert summary["replicas"] == 2
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(dict(raw, model={"q3": 1.8}))


def test_cli_count_inline(tmp_path, capsys):
    code = main(
        ["count", "-n", "7", "--cell-levels", "4", "--iface-levels", "2", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "6.12e54" in out


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "problem": {"kind": "partition", "numbers": [1, 3, 4, 8]},
                "solver": 2,
                "max_steps": 200,
            }
        )
    )
    code = main(
        ["solve", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "o"), "--quiet"]
    )
    assert code == EXIT_OK
    assert (tmp_path / "o" / "solve_summary.json").exists()


def test_cli_type1_steep_downhill_readout(tmp_path):
    # readout changes far below -709 * k_temp must not overflow math.exp
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "problem": {"kind": "partition", "numbers": [19, 18, 17, 16, 15, 14, 13, 12]},
                "solver": 1,
                "max_steps": 2000,
            }
        )
    )
    code = main(
        ["solve", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "o"), "--quiet"]
    )
    assert code == EXIT_OK


def test_cli_user_error(tmp_path, capsys):
    assert main(["cca1d", "--rule", "30-99", "--cells", "7", "--steps", "5"]) == EXIT_USER
    assert "error" in capsys.readouterr().err


def test_cli_input_errors_exit_one(tmp_path, capsys):
    # argparse errors, bad config files and bad values all exit 1, naming the flag or field
    def config(payload):
        path = tmp_path / f"cfg{len(list(tmp_path.iterdir()))}.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return ["--config", str(path)]

    cca1d = ["cca1d", "--rule", "30-1", "--steps", "3"]
    cases = [
        (cca1d + ["--cells", "abc"], "--cells"),
        (cca1d + ["--cells", "7", "--mode", "foo"], "cca1d.mode"),
        (["cca1d"] + config([1, 2]), "--config"),
        (["cca1d"] + config("{bad"), "--config"),
        (cca1d + ["--cells", "7"] + config({"out": 5}), "cca1d.out"),
        (cca1d + ["--cells", "7"] + config({"p_chme": 0.9}), "cca1d.p_chme"),
        (cca1d + ["--cells", "3"] + config({"init": [True, False, 1], "out": str(tmp_path / "no")}), "cca1d.init"),
        (["count", "--side", "7", "--cell-levels", "4", "--iface-levels", "2"], "--side"),
        (["count", "-n", "7", "--cell-levels", "4", "--iface-levels", "2", "--replicas", "4",
          "--out", str(tmp_path / "no")], "count.replicas"),
        (["clock-demo", "--replicas", "3", "--out", str(tmp_path / "no")], "clock-demo.replicas"),
        (["solve"] + config({"problem": {"kind": "explicit", "linear": [0, 0, 0], "pairs": {"-1,0": 2}},
                             "out": str(tmp_path / "no")}), "solve.problem: pairs key '-1,0'"),
        (["solve"] + config({"problem": {"kind": "explicit", "linear": [0, 0], "pairs": [1, 2]},
                             "out": str(tmp_path / "no")}), "solve.problem: pairs"),
        (["markov"] + config({"problem": {"kind": "partition", "numbers": [1, 3], "penalty": True},
                              "out": str(tmp_path / "no")}), "markov.problem: penalty"),
        (["solve"] + config({"problem": {"kind": "explicit", "linear": [True, 0], "quad": [[0, False], [False, 0]],
                                         "offset": True}, "out": str(tmp_path / "no")}), "solve.problem: linear"),
        (["markov"] + config({"problem": {"kind": "explicit", "linear": [0, 0], "quad": [[0, 0], [0, 0]],
                                          "penalty": "x"}, "out": str(tmp_path / "no")}), "markov.problem: penalty"),
        (["solve"] + config({"problem": {"kind": "partition"}, "out": str(tmp_path / "no")}),
         "solve.problem: numbers is required"),
        (["markov"] + config({"problem": {"kind": "2sat", "clauses": [1, 2]}, "out": str(tmp_path / "no")}),
         "markov.problem: clauses must be a list of pairs"),
        (["solve"] + config({"problem": {"kind": "tsp", "distances": "ab"}, "out": str(tmp_path / "no")}),
         "solve.problem: distances"),
        (["markov"] + config({"problem": {"kind": "tsp", "coords": [[0, 0], [1, "a"]]}, "out": str(tmp_path / "no")}),
         "markov.problem: coords"),
        (["solve"] + config({"problem": {"kind": "partition", "numbers": [1, 2], "nmbers": [5]},
                             "out": str(tmp_path / "no")}), "solve.problem: nmbers: unknown key"),
        (["markov"] + config({"problem": {"kind": "2sat", "clauses": [[1, 2]], "extra": 3},
                              "out": str(tmp_path / "no")}), "markov.problem: extra: unknown key"),
        (["solve"] + config({"problem": {"kind": "partition", "numbers": [10000000, 10000000]},
                             "out": str(tmp_path / "no")}), "solve.problem: coefficients too large"),
        (["markov"] + config({"problem": {"kind": "partition", "numbers": [10000000, 10000000]},
                              "out": str(tmp_path / "no")}), "markov.problem: coefficients too large"),
        (["nope"], "nope"),
        ([], "kind"),
    ]
    for argv, name in cases:
        assert main(argv) == EXIT_USER, argv
        assert name in capsys.readouterr().err, argv
    assert not (tmp_path / "no").exists()


def _parse(parser, argv, capsys):
    """What one parse gives: its Namespace and config, or its exit code or
    error; and what it printed."""
    try:
        args = parser.parse_args(argv)
        result = (args, _assemble(args))
    except SystemExit as exc:
        result = exc.code
    except ConfigError as exc:
        result = str(exc)
    return result, capsys.readouterr()


def test_one_kind_parser_matches_full_tree(tmp_path, capsys):
    # a run builds only its kind's subcommand; it must parse, help and fail as in the full tree
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 9, "steps": 4, "p_chem": 0.5, "jitter": 2, "cells": 5}))
    flags = {
        "count": [["-n", "7", "--cell-levels", "4"], ["--n", "3", "--iface-levels", "2", "--chem-levels", "3"]],
        "cca1d": [["--cel", "7", "--no-periodic", "--rule", "30-1"], ["--periodic", "--mode", "display"],
                  ["--c", "7"]],  # ambiguous: --config or --cells
        "cca2d": [["--side", "5", "--fluct-ratio", "0.2", "--initial-chemits", "2"]],
        "solve": [["--p-chem", "0.9", "--solver", "1", "--k-temp", "2"]],
        "markov": [["--horizon", "10"], ["--horizon", "ten"]],
        "clock-demo": [["--cells", "3", "--jitter", "1", "--period", "8"]],
    }
    for kind in SCHEMA:
        table = [[], ["--quiet", "--seed", "3", "--out", "x"], ["--help"], ["--he"], ["--bogus"],
                 ["--seed", "abc"], ["extra"], ["--config", str(config)], ["--config", str(config), "--seed", "4"],
                 *flags[kind], *(["--config", str(config), *f] for f in flags[kind])]
        for argv in table:
            argv = [kind, *argv]
            assert _parse(build_parser([kind]), argv, capsys) == _parse(build_parser(), argv, capsys), argv
    # flags override the config file's keys
    (_, raw), _ = _parse(build_parser(["cca1d"]), ["cca1d", "--config", str(config), "--cel", "7", "--seed", "4"], capsys)
    assert raw["cells"] == 7 and raw["seed"] == 4 and raw["steps"] == 4


def test_cli_help_and_bad_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(kind in out for kind in SCHEMA)
    with pytest.raises(SystemExit) as exc:
        main(["cca1d", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--rule" in out and "--side" not in out
    assert main(["nope"]) == EXIT_USER
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err and all(f"'{kind}'" in err for kind in SCHEMA)


def test_cli_flag_per_scalar_key(tmp_path):
    out = tmp_path / "clock"
    argv = ["clock-demo", "--cells", "3", "--cycles", "2", "--period", "8", "--jitter", "1",
            "--confirmations", "1", "--seed", "4", "--replicas", "1", "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_OK
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config == {"kind": "clock-demo", "cells": 3, "cycles": 2, "period": 8, "jitter": 1,
                      "confirmations": 1, "seed": 4, "replicas": 1}
    argv = ["cca1d", "--rule", "30-1", "--cells", "5", "--steps", "2", "--periodic",
            "--mode", "display", "--out", str(tmp_path / "ring"), "--quiet"]
    assert main(argv) == EXIT_OK
    config = json.loads((tmp_path / "ring" / "manifest.json").read_text())["config"]
    assert config["periodic"] is True and config["mode"] == "display"


def test_readme_key_table_matches_schema():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = {}
    for line in readme.splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`"):
            kind, keys = cells[1].strip().strip("`"), cells[2]
            table[kind] = set(re.findall(r"`([a-z_]+)`", keys))
    assert table == {kind: set(rows) for kind, rows in SCHEMA.items()}


def test_cli_capacity_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "problem": {"kind": "partition", "numbers": list(range(1, 19))},
                "deterministic_indices": [0.95],
                "horizon": 10,
            }
        )
    )
    code = main(["markov", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == EXIT_CAPACITY
    assert "markov.deterministic_indices" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # checked with the config, before any output
    # the default index (1.0) is checked too: 8 * 2^22 * 22 bytes
    cfg.write_text(json.dumps({"problem": {"kind": "partition", "numbers": list(range(1, 23))}}))
    code = main(["markov", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == EXIT_CAPACITY
    assert "markov.deterministic_indices" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_markov_colliding_indices(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": {"kind": "partition", "numbers": [1, 3, 4, 8]},
                               "deterministic_indices": [0.95, 0.950001]}))
    code = main(["markov", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == EXIT_USER
    assert "markov.deterministic_indices: indices 0.95 and 0.950001" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_markov_every_config_a_minimum(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": {"kind": "explicit", "linear": [0, 0], "quad": [[0, 0], [0, 0]]}}))
    out = tmp_path / "o"
    assert main(["markov", "--config", str(cfg), "--out", str(out), "--quiet"]) == EXIT_OK
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert outputs == ["oracle.json", "success_1.csv", "success_1.json"]
    assert all((out / name).exists() for name in outputs)
    report = json.loads((out / "success_1.json").read_text())
    assert report["minima"] == [0, 1, 2, 3] and report["spread_nonminima"] == 0.0


def test_cli_count_beyond_int_string_limit(tmp_path, capsys):
    # 4^(100^2) * 2^(2*100*99) has 11,980 digits, past the default limit of 4,300
    out = tmp_path / "o"
    argv = ["count", "-n", "100", "--cell-levels", "4", "--iface-levels", "2", "--out", str(out)]
    assert main(argv) == EXIT_CAPACITY
    assert "count.n" in capsys.readouterr().err
    assert not out.exists()
    # the chemical-state count alone, 2^(2000^2), is checked too
    argv = ["count", "-n", "2000", "--cell-levels", "1", "--iface-levels", "1", "--out", str(out)]
    assert main(argv) == EXIT_CAPACITY
    assert "count.n" in capsys.readouterr().err
    assert not out.exists()


def test_cli_automaton_capacity(tmp_path, capsys):
    # a run's estimated bytes are checked with the config, before any output
    out = tmp_path / "o"
    cases = [
        (["cca2d", "--side", "2", "--steps", "1000000000000", "--initial-chemits", "1"], "cca2d.steps"),
        (["cca2d", "--side", "3000", "--steps", "1", "--initial-chemits", "1", "--replicas", "40"], "cca2d.side"),
        (["cca1d", "--rule", "30-1", "--cells", "1000000", "--steps", "1000000000"], "cca1d.steps"),
        (["cca1d", "--rule", "30-1", "--cells", "10000000000", "--steps", "0"], "cca1d.cells"),
    ]
    for argv, name in cases:
        assert main(argv + ["--out", str(out), "--quiet"]) == EXIT_CAPACITY, argv
        assert f"capacity error: {name}: " in capsys.readouterr().err, argv
        assert not out.exists()
    # the largest automaton runs of the tests, demos and benchmark: c09 and the cca1d-raster workload
    ExperimentConfig.from_dict({"kind": "cca2d", "side": 50, "steps": 7000, "initial_chemits": 100, "replicas": 10})
    ExperimentConfig.from_dict({"kind": "cca1d", "rule": "30-5", "cells": 201, "steps": 500})


def test_cli_solve_capacity(tmp_path, capsys):
    # 400 bytes a proposal plus n/4: a 4-variable problem may run 2^30 // 401 proposals
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": {"kind": "partition", "numbers": [1, 3, 4, 8]}}))
    out, limit = tmp_path / "o", (1 << 30) // 401
    assert main(["solve", "--config", str(cfg), "--max-steps", str(limit + 1), "--out", str(out), "--quiet"]) == EXIT_CAPACITY
    assert "capacity error: solve.max_steps: " in capsys.readouterr().err
    assert not out.exists()
    ExperimentConfig.from_dict({"kind": "solve", "problem": {"kind": "partition", "numbers": [1, 3, 4, 8]},
                                "max_steps": limit})
    # the largest runs of the tests, demos and benchmark: TSP4 at 60,000 proposals
    tsp4 = {"kind": "tsp", "coords": [[0, 0], [1, 0], [3, 3], [0, 10]]}
    ExperimentConfig.from_dict({"kind": "solve", "problem": tsp4, "max_steps": 60_000, "replicas": 100})


# 48 bytes a variable pair: a problem may have 4,729 variables, 68 cities
PROBLEM_VARS_LIMIT = 4729
# problem kind -> (the spec key that sets the variable count, a spec with n of them; cities for tsp)
PROBLEM_SPECS = {
    "partition": ("numbers", lambda n: {"kind": "partition", "numbers": [1] * n}),
    "2sat": ("clauses", lambda n: {"kind": "2sat", "clauses": [[1, -2], [2, n]]}),
    "tsp-coords": ("coords", lambda c: {"kind": "tsp", "coords": [[i, 0] for i in range(c)]}),
    "tsp-distances": ("distances", lambda c: {"kind": "tsp", "distances": [[0] * c for _ in range(c)]}),
    "explicit": ("linear", lambda n: {"kind": "explicit", "linear": [0] * n, "pairs": {}}),
}


@pytest.mark.parametrize("name", list(PROBLEM_SPECS))
def test_cli_problem_capacity(name, tmp_path, capsys, monkeypatch):
    key, spec = PROBLEM_SPECS[name]
    over, under = (69, 68) if name.startswith("tsp") else (PROBLEM_VARS_LIMIT + 1, PROBLEM_VARS_LIMIT)
    cfg, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg.write_text(json.dumps({"problem": spec(over)}))
    for kind in ("solve", "markov"):
        tracemalloc.start()
        code = main([kind, "--config", str(cfg), "--out", str(out), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == EXIT_CAPACITY, kind
        assert f"capacity error: {kind}.problem.{key}: " in capsys.readouterr().err, kind
        assert not out.exists()
        assert peak < 4 << 20, (kind, peak)  # priced from the spec, before its n x n arrays
    # one variable (city) fewer passes the price; building it is not tried here
    monkeypatch.setattr(harness, "load_problem", lambda spec: None)
    harness._load_problem("solve", spec(under))


def test_cli_clock_demo_capacity(tmp_path, capsys):
    # 800 bytes a cell, 600 a cycle and 24 a frame-cell: at the default 7
    # cells and 12 frames a cycle, 5,600 + 2,616 bytes a cycle
    out, limit = tmp_path / "o", ((1 << 30) - 5600) // 2616
    cases = [
        (["--cycles", str(limit + 1)], "clock-demo.cycles"),
        (["--cells", "1400000"], "clock-demo.cells"),
        (["--period", "4000000", "--cycles", "2"], "clock-demo.period"),
        (["--jitter", "800000", "--cycles", "2"], "clock-demo.jitter"),
    ]
    for argv, name in cases:
        assert main(["clock-demo", *argv, "--out", str(out), "--quiet"]) == EXIT_CAPACITY, argv
        assert f"capacity error: {name}: " in capsys.readouterr().err, argv
        assert not out.exists()
    ExperimentConfig.from_dict({"kind": "clock-demo", "cycles": limit})
    # the defaults and the demo_clocking.py run
    ExperimentConfig.from_dict({"kind": "clock-demo"})
    ExperimentConfig.from_dict({"kind": "clock-demo", "cells": 7, "cycles": 6, "period": 12, "jitter": 1,
                                "confirmations": 2})


def test_full_reproducibility_all_kinds(tmp_path):
    # every output byte except the manifest timestamps is reproducible
    tsp3 = {"kind": "tsp", "coords": [[0, 0], [1, 0], [3, 3]]}
    partition = {"kind": "partition", "numbers": [1, 3, 4, 8]}
    raws = [
        {"kind": "count", "n": 3, "cell_levels": 4, "iface_levels": 2},
        {"kind": "cca1d", "rule": "110-7", "cells": 9, "steps": 15, "seed": 8},
        {"kind": "cca2d", "side": 8, "steps": 20, "initial_chemits": 2, "seed": 8},
        {"kind": "solve", "problem": partition, "solver": 1, "max_steps": 200, "seed": 8},
        {"kind": "solve", "problem": partition, "solver": 2, "p_chem": 0.9, "max_steps": 200,
         "replicas": 2, "seed": 8},
        {"kind": "markov", "problem": tsp3, "deterministic_indices": [1.0, 0.95], "horizon": 50},
        {"kind": "clock-demo", "cells": 4, "cycles": 3, "seed": 8},
    ]
    assert {raw["kind"] for raw in raws} == set(SCHEMA)
    for i, raw in enumerate(raws):
        a, b = tmp_path / str(i) / "a", tmp_path / str(i) / "b"
        ma = run(ExperimentConfig.from_dict(dict(raw, out=str(a))), quiet=True)
        mb = run(ExperimentConfig.from_dict(dict(raw, out=str(b))), quiet=True)
        assert ma.outputs == mb.outputs
        assert ma.config_hash != ""
        for name in ma.outputs:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (raw["kind"], name)


def _writes_outside_harness(source: str, module: str) -> list[str]:
    """The file writes of one module's source: every `open(...)` or
    `.open(...)` whose mode writes, appends or creates (or is not a string
    literal), and every `.write_text`/`.write_bytes`, as "module:line",
    except in `harness` and in `hybrid.SolveTrace.write_jsonl`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            writes = name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute)
            if name == "open":
                # open(path, mode) or path.open(mode)
                modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
                modes += node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
                writes = any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                             or set(m.value) & set("wax+") for m in modes)
            allowed = module == "harness" or (module, scope) == ("hybrid", ("SolveTrace", "write_jsonl"))
            if writes and not allowed:
                found.append(f"{module}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_only_harness_writes_files():
    src = Path(harness.__file__).parent
    found = [hit for path in sorted(src.glob("*.py")) for hit in _writes_outside_harness(path.read_text(), path.stem)]
    assert found == []
    # the check sees each form of a write
    probe = "def f(p):\n    open(p, 'w')\n    open(p, mode='a')\n    p.open('x')\n    open(p, m)\n    p.write_text('')\n"
    assert _writes_outside_harness(probe, "qubo") == [f"qubo:{i}" for i in range(2, 7)]
    assert _writes_outside_harness("def f(p):\n    open(p)\n    open(p, 'rb')\n", "qubo") == []
    allowed = "class SolveTrace:\n    def write_jsonl(self, p):\n        open(p, 'w')\n"
    assert _writes_outside_harness(allowed, "hybrid") == []
    assert _writes_outside_harness(allowed, "markov") == ["markov:3"]


def _harness_imports(source: str, module: str) -> list[str]:
    """Every import of `harness` in one module's source, at any depth
    (inside functions too), as "module:line"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "harness" for name in names):
            found.append(f"{module}:{node.lineno}")
    return found


def test_only_entry_points_import_harness():
    # the engines take generators and return data; only the CLI and the
    # package root reach the harness
    src = Path(harness.__file__).parent
    found = [hit for path in sorted(src.glob("*.py")) if path.stem not in ("__init__", "cli")
             for hit in _harness_imports(path.read_text(), path.stem)]
    assert found == []
    lazy = "def f(seed):\n    from .harness import derive_seed\n    return derive_seed(seed, 0)\n"
    assert _harness_imports(lazy, "cca2d") == ["cca2d:2"]
    for probe in ("from . import harness\n", "import chemca.harness\n", "from chemca.harness import run\n"):
        assert _harness_imports(probe, "qubo") == ["qubo:1"], probe
    assert _harness_imports("from .hybrid import solve_type2\nimport json\n", "qubo") == []
