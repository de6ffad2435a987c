"""Tests of the benchmark itself.

    python3 -m pytest -q srgbench/selftest.py

The file is not named test_*.py so that the package's own suite does not
collect it: the smoke runs start child processes and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def oracle():
    return inputs.Oracle()


@pytest.fixture(scope="module")
def pool(oracle):
    return inputs.decode_dat(oracle, (BENCH / "pool.dat").read_bytes())


def test_generated_inputs_repeat_per_seed(oracle, pool):
    assert inputs.verify_generators(3) == inputs.verify_generators(3)
    assert inputs.verify_generators(3) != inputs.verify_generators(4)
    first = inputs.check_container(oracle, pool, 3)
    assert first == inputs.check_container(oracle, pool, 3)
    assert first[0] != inputs.check_container(oracle, pool, 4)[0]


def test_verify_matrix_is_a_non_systematic_golay_code():
    from srg2048 import golay

    rows = inputs.verify_generators(11)
    assert inputs.code_census(rows) == inputs.GOLAY_CENSUS
    assert [r >> 12 for r in rows] != [1 << (11 - i) for i in range(12)]
    assert golay.build_code(tuple(rows)).weight_distribution() == inputs.GOLAY_CENSUS


def test_oracle_agrees_with_the_package_graph(oracle):
    from srg2048 import coset_graph, golay

    graph = coset_graph.build_graph(golay.build_code(), coset_graph.build_reps())
    assert (graph.packed == oracle.packed).all()


def test_container_holds_maximal_cocliques_of_sizes_20_to_72(oracle, pool):
    sets, share = inputs.check_container(oracle, pool, 9)
    sizes = {len(s) for s in sets}
    assert min(sizes) == 20 and max(sizes) == 72
    assert all(oracle.is_maximal_coclique(s) for s in sets)
    assert 0.1 < share < 0.5


def test_oracle_rejects_a_non_maximal_coclique(oracle, pool):
    assert oracle.is_maximal_coclique(pool[0])
    assert not oracle.is_maximal_coclique(pool[0][:-1])


def test_reference_work_is_fixed_and_scales_child_times():
    import reference

    assert reference.work() == reference.work()
    slow_host = run.Child(t_spawn=0.0, wall=2.0, rss_mib=40.0, result=None, reference=2 * run.REFERENCE_S)
    assert slow_host.wall * slow_host.scale == 1.0


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "srgbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_the_declared_metrics(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload != "verify":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["coset_graph.weight6_table_s"] == 0
        assert metrics["cli.cache_hits"] == metrics["trace.processes"]


def test_injected_non_maximal_set_is_counted_as_failed(tmp_path):
    runner = run.Runner(tmp_path)
    try:
        workload = run.Check(runner, 5)
        workload.prepare()
        workload.use_container(workload.sets + [workload.sets[0][:-1]])
        iteration = workload.iteration(traced=False)
    finally:
        runner.close()
    assert len(iteration.children) == 2 and iteration.failed == 1


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "srgbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("verify", 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
