"""The benchmark's own route through the package, and the committed
BENCH_*.json records of its runs.

A record holds the last JSON line of each `srgbench/run.py` run, by
workload and trace, and a `known_zero` map from workload to the per-layer
metrics that read 0 there, each with its reason.  An unlisted per-layer 0
is a path the harness no longer sees, not a free stage.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srg2048
from srg2048 import cli
from srg2048.coclique import is_maximal
from srg2048.io_formats import read_dat

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {trace: {m["name"] for m in SPEC[key]} for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.partition("_")[2]))


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


def _bench_module(name: str):
    """A module of srgbench/, loaded from its file without putting srgbench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"srgbench_{name}", ROOT / "srgbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _bench_module("spans")
TRACED = {f"{module}.{fn}" for module, fns in SPANS.TRACED.items() for fn in fns}
_CACHED = "the run loads the warmed graph cache, so no graph is built, checked or saved"
_NO_SEARCH = "the workload runs no search"
_NO_SET = "the workload checks no vertex set"
_NO_READ = "the workload reads no container"
_NO_WRITE = "the workload writes no container"
_NO_EXPORT = "the workload exports nothing"
_CHECK_SET = (
    "the path runs, but the CLI checks each set through coclique.check_set, "
    "a name the harness does not trace"
)
_PIECES = (
    "the path runs, but export writes through io_formats.gap_pieces and edge_list_pieces, "
    "names the harness does not trace"
)
# The traced names each workload does not call, each with the reason its
# metric reads 0, in the words of the newest BENCH_*.json's known_zero.
NOT_CALLED = {
    "verify": {
        "coclique.search_maximal": _NO_SEARCH,
        "coclique.is_coclique": _NO_SET,
        "coclique.is_maximal": _NO_SET,
        "coclique.external_profile": _NO_SET,
        "coclique.pair_invariant": _NO_SET,
        "io_formats.read_dat": _NO_READ,
        "io_formats.write_dat": _NO_WRITE,
        "io_formats.export_gap": _NO_EXPORT,
        "io_formats.export_edge_list": _NO_EXPORT,
    },
    "search": {
        "cli.main": "the search child calls search_maximal itself, not through the CLI",
        "coset_graph.build_graph": _CACHED,
        "coset_graph.weight6_distance_table": _CACHED,
        "coset_graph.check_rep_uniqueness": _CACHED,
        "coset_graph.weight6_distance_census": _CACHED,
        "coset_graph.verify_srg": _CACHED,
        "cli.save_graph_cache": _CACHED,
        "coclique.is_coclique": "the search checks each candidate through is_maximal alone",
        "coclique.external_profile": "the search child checks no set outside the search itself",
        "coclique.pair_invariant": "the search child checks no set outside the search itself",
        "io_formats.read_dat": _NO_READ,
        "io_formats.export_gap": _NO_EXPORT,
        "io_formats.export_edge_list": _NO_EXPORT,
    },
    "check": {
        "coset_graph.build_graph": _CACHED,
        "coset_graph.weight6_distance_table": _CACHED,
        "coset_graph.check_rep_uniqueness": _CACHED,
        "coset_graph.weight6_distance_census": _CACHED,
        "coset_graph.verify_srg": _CACHED,
        "cli.save_graph_cache": _CACHED,
        "coclique.search_maximal": _NO_SEARCH,
        "coclique.is_coclique": _CHECK_SET,
        "coclique.is_maximal": _CHECK_SET,
        "coclique.external_profile": _CHECK_SET,
        "coclique.pair_invariant": _CHECK_SET,
        "io_formats.write_dat": _NO_WRITE,
        "io_formats.export_gap": _PIECES,
        "io_formats.export_edge_list": _PIECES,
    },
}
# the per-layer metric of a traced name, where srgbench/run.py does not name it name + "_s"
_METRIC = {
    "coset_graph.weight6_distance_table": "coset_graph.weight6_table_s",
    "coset_graph.check_rep_uniqueness": "coset_graph.rep_uniqueness_s",
    "cli.save_graph_cache": "cli.cache_save_s",
    "cli.load_graph_cache": "cli.cache_load_s",
    "coclique.search_maximal": "coclique.search_s",
}


def _workload(name, tmp_path, monkeypatch, code, graph):
    """A call that runs the workload's operation as the benchmark's child
    does, on small inputs: a cold verify of another generator matrix, a
    short search from a warmed cache, and invariants and export of
    pool.dat through that cache."""
    if name == "verify":
        monkeypatch.setenv("SRG2048_CACHE_DIR", str(tmp_path / "verify-cache"))
        generators = str(ROOT / "tests" / "data" / "generators-bench-seed1.txt")
        return lambda: [cli.main(["verify", "--generators", generators, "--cache"])]
    cache = str(tmp_path / "graph.bin")
    cli.save_graph_cache(cache, graph, code)
    if name == "search":
        monkeypatch.setitem(sys.modules, "spans", SPANS)  # child.py imports it by that name
        child = _bench_module("child")
        spec = {"cache": cache, "seed": 1, "budget": 20, "sizes": [20, 72], "out": str(tmp_path / "found.dat")}
        return lambda: [child.run_search(spec)[0]]
    pool = str(ROOT / "srgbench" / "pool.dat")
    gap, edges = str(tmp_path / "graph.g"), str(tmp_path / "edges.txt")
    return lambda: [
        cli.main(["invariants", pool, "--cache", cache]),
        cli.main(["export", "--gap", gap, "--edges", edges, "--sets", pool, "--cache", cache]),
    ]


@pytest.mark.parametrize("workload", sorted(NOT_CALLED))
def test_every_traced_name_is_called_unless_listed(tmp_path, monkeypatch, code, graph, workload):
    """With srgbench's Recorder on the package, each workload calls every
    name in spans.TRACED but those NOT_CALLED lists for it.  A traced stage
    that moves to a new name fails here, where its metric would read 0."""
    run = _workload(workload, tmp_path, monkeypatch, code, graph)
    recorder = SPANS.Recorder()
    with monkeypatch.context() as patch:
        for module_name, fns in SPANS.TRACED.items():
            for fn in fns:  # each traced attribute is put back when the context ends
                patch.setattr(getattr(srg2048, module_name), fn, getattr(getattr(srg2048, module_name), fn))
        recorder.install(srg2048, SPANS.TRACED)
        codes = run()
    assert codes == [0] * len(codes)
    called = {span[0] for span in recorder.spans}
    assert TRACED - called == set(NOT_CALLED[workload])


def test_untraced_names_are_the_newest_records_known_zeros():
    """NOT_CALLED, mapped to run.py's per-layer metrics, gives each metric
    the reason the newest BENCH_*.json's known_zero gives it."""
    known = json.loads(BENCH_FILES[-1].read_text())["known_zero"]
    for workload, names in NOT_CALLED.items():
        for name, reason in names.items():
            metric = _METRIC.get(name, name + "_s")
            if metric in METRICS[1]:
                assert known[workload].get(metric) == reason, (workload, metric)
