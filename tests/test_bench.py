"""The benchmark's own route through the package, and the committed
BENCH_*.json records of its runs.

A record holds the last JSON line of each `srgbench/run.py` run, by
workload and trace, and a `known_zero` map from workload to the per-layer
metrics that read 0 there, each with its reason.  An unlisted per-layer 0
is a path the harness no longer sees, not a free stage.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from srg2048.coclique import is_maximal
from srg2048.io_formats import read_dat

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {trace: {m["name"] for m in SPEC[key]} for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_the_benchmark_child_builds_the_graph_on_a_cache_miss(tmp_path, reps, graph):
    """A search child whose cache file is absent builds the graph itself,
    through `coset_graph.build_graph(code, reps)`, and times it as ready."""
    spec = {
        "op": "search",
        "cache": str(tmp_path / "absent.bin"),
        "seed": 1,
        "budget": 5,
        "sizes": [20, 72],
        "out": str(tmp_path / "found.dat"),
        "trace": 0,
        "result": str(tmp_path / "result.json"),
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = [sys.executable, str(ROOT / "srgbench" / "child.py"), str(tmp_path / "spec.json")]
    run = subprocess.run(child, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["exit"] == 0
    assert result["t_imported"] < result["t_ready"] < result["t_end"]
    sets = read_dat((tmp_path / "found.dat").read_bytes(), reps)
    assert sets and all(is_maximal(graph, s) for s in sets)
    assert not (tmp_path / "absent.bin").exists()


def bench_faults(record: dict) -> list[str]:
    """What is wrong with one BENCH_*.json record, in reading order."""
    faults = []
    known = record["known_zero"]
    for name in {n for listed in known.values() for n in listed} - METRICS[1]:
        faults.append(f"known_zero lists {name}, not a per-layer metric")
    for run in record["runs"]:
        where = f"{run['workload']} at trace {run['trace']}"
        result = run["result"]
        if result["correct"] is not True or result["failed"] != 0:
            faults.append(f"{where}: correct {result['correct']}, failed {result['failed']}")
        names = set(result["metrics"])
        for name in sorted(names - METRICS[run["trace"]]):
            faults.append(f"{where}: {name} is not in BENCHMARK.json")
        for name in sorted(METRICS[run["trace"]] - names):
            faults.append(f"{where}: {name} is missing")
        for name, metric in result["metrics"].items():
            if run["trace"] == 1 and metric["value"] == 0 and name not in known.get(run["workload"], {}):
                faults.append(f"{where}: {name} reads 0 and is not in known_zero")
    return faults


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_holds_benchmark_metrics_from_clean_runs(path):
    record = json.loads(path.read_text())
    assert {(run["workload"], run["trace"]) for run in record["runs"]} <= {
        (w["name"], t) for w in SPEC["workloads"] for t in (0, 1)
    }
    assert bench_faults(record) == []


def _add_an_unknown_metric(record):
    record["runs"][0]["result"]["metrics"]["wall_seconds"] = {"value": 1.0, "unit": "s"}
    return "wall_seconds is not in BENCHMARK.json"


def _zero_an_unlisted_metric(record):
    run = next(r for r in record["runs"] if r["trace"] == 1)
    listed = record["known_zero"].get(run["workload"], {})
    name = next(n for n, m in run["result"]["metrics"].items() if m["value"] and n not in listed)
    run["result"]["metrics"][name]["value"] = 0
    return "reads 0 and is not in known_zero"


@pytest.mark.parametrize("mutate", [_add_an_unknown_metric, _zero_an_unlisted_metric])
@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_check_fails_on_a_mutated_copy(tmp_path, path, mutate):
    copy = tmp_path / path.name
    record = json.loads(path.read_text())
    expected = mutate(record)
    copy.write_text(json.dumps(record))
    faults = bench_faults(json.loads(copy.read_text()))
    assert len(faults) == 1 and faults[0].endswith(expected), faults
