"""Benchmark of the srg2048 package: verify, search and check workloads.

    python3 srgbench/run.py --workload {verify,search,check} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every measured operation runs in a
fresh interpreter (srgbench/child.py), one at a time, with the package
taken from src/.  Inputs come from the seed alone and are made before
timing starts; every output is checked against the benchmark's own
syndrome-built graph (srgbench/inputs.py).  The last stdout line is one
JSON object: correct, attempted, failed and metrics -- the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer ones with
--trace 1.  The end-to-end times and rates are scaled to a reference host
speed (srgbench/reference.py, see `Child.scale`).  Raw samples, spans and
the machine record are written to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import reference
from spans import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

SEARCH_SIZES = (20, 72)  # the sweep script's band
SEARCH_BUDGET = 2000
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 150
# Reference-work samples taken between children, and the median time of
# one sample on the 2-vCPU Xeon host of the README's baseline.
REFERENCE_SAMPLES = 3
REFERENCE_S = 0.065

VERIFY_LINES = (
    "srg parameters: (2048, 276, 44, 36)",
    "weight-6 distance census: 2:21252 4:113344",
    "delsarte bound: 85",
)
SET_LINE = re.compile(
    r"set (\d+): size (\d+), coclique yes, maximal yes, profile ([0-9: ]+?)(?:, pair invariant (\d+))?"
)
LIST = re.compile(r"\[([0-9,]*)\]")


class CheckFailed(Exception):
    pass


@dataclass
class Child:
    """One finished child process, timed from the parent."""

    t_spawn: float
    wall: float
    rss_mib: float
    result: dict | None
    reference: float  # median reference-work time on both sides of the child

    @property
    def setup(self) -> float:
        return self.result["t_ready"] - self.t_spawn

    @property
    def scale(self) -> float:
        """Factor that scales the child's times to the reference host speed.

        The host is shared, and its speed drifts by tens of percent from
        second to second and from minute to minute; the drift moves the
        reference work and the program alike.  Dividing by the reference
        time measured around the child removes the drift, and leaves every
        change of the program's own speed in full, since the reference
        uses nothing from the program.
        """
        return REFERENCE_S / self.reference


@dataclass
class Iteration:
    """One execution of a workload's command group."""

    traced: bool
    children: list[Child] = field(default_factory=list)
    failed: int = 0
    rate: float | None = None
    rate_scale: float | None = None

    def set_rate(self, work: float, seconds: float, child: Child) -> None:
        self.rate = work / seconds
        self.rate_scale = child.scale

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.children)

    @property
    def scaled_wall(self) -> float:
        return sum(c.wall * c.scale for c in self.children)

    @property
    def rss_mib(self) -> float:
        return max(c.rss_mib for c in self.children)


class Runner:
    """Runs the children one at a time, each single-threaded, through
    srgbench/spawner.py, which times them and reads their peak RSS.
    Reference work runs before the first child and after each one."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0
        self.errors: list[str] = []
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            SRG2048_CACHE_DIR=str(workdir / "default-cache"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            NUMEXPR_NUM_THREADS="1",
            VECLIB_MAXIMUM_THREADS="1",
        )
        self.spawner = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        reference.sample()  # warm-up
        self.before = self.reference_block()

    @staticmethod
    def reference_block() -> list[float]:
        return [reference.sample() for _ in range(REFERENCE_SAMPLES)]

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def spawn(self, spec: dict, traced: bool, env: dict | None = None) -> Child:
        self.count += 1
        stem = self.workdir / f"child-{self.count}"
        spec = dict(spec, trace=int(traced), result=f"{stem}.result.json")
        Path(f"{stem}.spec.json").write_text(json.dumps(spec))
        request = {
            "argv": [sys.executable, str(BENCH / "child.py"), f"{stem}.spec.json"],
            "cwd": str(ROOT),
            "env": {**self.env, **(env or {})},
            "log": f"{stem}.log",
            "timeout": CHILD_TIMEOUT_S,
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        after = self.reference_block()
        around, self.before = statistics.median(self.before + after), after
        result = None
        if reply["exit"] == 0:
            result = json.loads(Path(spec["result"]).read_text())
        else:
            self.errors.append(f"child {self.count} exited {reply['exit']}: {Path(request['log']).read_text()[-400:]}")
        return Child(reply["t_spawn"], reply["wall"], reply["maxrss_kib"] / 1024, result, around)

    def cli(self, argv: list[str], traced: bool = False, env: dict | None = None) -> Child:
        return self.spawn({"op": "cli", "argv": argv}, traced, env)


class Workload:
    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        self.seed = seed
        self.dir = runner.workdir
        self.cache = str(self.dir / "graph.npz")
        self.info: dict = {}

    def prepare(self) -> None:
        """Make the inputs and warm the graph cache (and the bytecode)."""
        warm = self.runner.cli(["build", "--cache", self.cache])
        if warm.result is None or warm.result["exit"] != 0:
            raise RuntimeError("the package could not build the graph: " + " | ".join(self.runner.errors))

    def iteration(self, traced: bool) -> Iteration:
        it = Iteration(traced)
        for child, check in self.commands(traced):
            it.children.append(child)
            try:
                if child.result is None:
                    raise CheckFailed("child produced no result")
                if child.result["t_ready"] is None:
                    raise CheckFailed("no graph was built or loaded")
                check(child, it)
            except CheckFailed as exc:
                it.failed += 1
                it.rate = it.rate_scale = None
                self.runner.errors.append(f"{type(self).__name__.lower()}: {exc}")
        return it

    def commands(self, traced):
        raise NotImplementedError


class Verify(Workload):
    """Cold `srg2048 verify` of a seeded non-systematic generator matrix."""

    def prepare(self) -> None:
        super().prepare()
        self.generators = str(self.dir / "generators.txt")
        Path(self.generators).write_text(inputs.format_generators(inputs.verify_generators(self.seed)))

    def commands(self, traced):
        cache_dir = self.dir / "verify-cache"
        cache_dir.mkdir()
        try:
            child = self.runner.cli(
                ["verify", "--generators", self.generators, "--cache"],
                traced,
                env={"SRG2048_CACHE_DIR": str(cache_dir)},
            )
            written = any(cache_dir.iterdir())
        finally:
            shutil.rmtree(cache_dir)

        def check(child, it):
            out = child.result["stdout"].splitlines()
            if child.result["exit"] != 0:
                raise CheckFailed(f"verify exited {child.result['exit']}")
            for expected in VERIFY_LINES:
                if not any(line.startswith(expected) for line in out):
                    raise CheckFailed(f"verify output lacks {expected!r}")
            if not written:
                raise CheckFailed("verify --cache wrote no cache file")
            it.set_rate(inputs.PAIRS, child.result["t_end"] - child.result["t_ready"], child)

        yield child, check


class Search(Workload):
    """search_maximal over 20..72 at a fixed budget, then write_dat."""

    def prepare(self) -> None:
        super().prepare()
        self.oracle = inputs.Oracle()
        self.out = str(self.dir / "found.dat")
        self.first_bytes: bytes | None = None

    def commands(self, traced):
        spec = {
            "op": "search",
            "cache": self.cache,
            "seed": self.seed,
            "budget": SEARCH_BUDGET,
            "sizes": SEARCH_SIZES,
            "out": self.out,
        }
        yield self.runner.spawn(spec, traced), self.check

    def check(self, child, it):
        data = Path(self.out).read_bytes()
        os.remove(self.out)
        if self.first_bytes is None:
            sets = inputs.decode_dat(self.oracle, data)
            sizes = [len(s) for s in sets]
            lo, hi = SEARCH_SIZES
            if sizes != sorted(set(sizes)) or not sets or sizes[0] < lo or sizes[-1] > hi:
                raise CheckFailed(f"search returned sizes {sizes}, want distinct ascending sizes in {lo}..{hi}")
            bad = [s for s in sets if not self.oracle.is_maximal_coclique(s)]
            if bad:
                raise CheckFailed(f"search returned {len(bad)} sets that are not maximal cocliques")
            self.first_bytes = data
            self.info["sizes_found"] = len(sets)
        elif data != self.first_bytes:
            raise CheckFailed("search .dat differs between runs of one seed")
        t0, t1 = child.result["work"]
        it.set_rate(SEARCH_BUDGET, t1 - t0, child)


class Check(Workload):
    """`srg2048 invariants` then `srg2048 export --gap --edges --sets` on a seeded container."""

    def prepare(self) -> None:
        super().prepare()
        self.oracle = inputs.Oracle()
        pool = inputs.decode_dat(self.oracle, (BENCH / "pool.dat").read_bytes())
        sets, share = inputs.check_container(self.oracle, pool, self.seed)
        self.use_container(sets)
        self.info.update(sets=len(sets), translation_image_share=round(share, 4))

    def use_container(self, sets) -> None:
        """Write the container and the answers the outputs must match."""
        self.sets = sets
        self.dat = str(self.dir / "container.dat")
        Path(self.dat).write_bytes(inputs.encode_dat(self.oracle, sets))
        self.expected = [
            (len(s), self.oracle.profile(s), self.oracle.pair_invariant(s)) if self.oracle.is_maximal_coclique(s) else None
            for s in sets
        ]
        self.seen: dict[str, str] = {}

    def commands(self, traced):
        yield self.runner.cli(["invariants", self.dat, "--cache", self.cache], traced), self.check_invariants
        gap, edges = str(self.dir / "graph.g"), str(self.dir / "edges.txt")
        child = self.runner.cli(["export", "--gap", gap, "--edges", edges, "--sets", self.dat, "--cache", self.cache], traced)
        yield child, self.check_export

    def _once(self, key: str, text: str, validate) -> None:
        """Validate a deterministic output in full the first time, by digest after."""
        digest = hashlib.sha256(text.encode()).hexdigest()
        if key not in self.seen:
            validate(text)
            self.seen[key] = digest
        elif self.seen[key] != digest:
            raise CheckFailed(f"{key} output differs between runs")

    def check_invariants(self, child, it):
        if child.result["exit"] != 0:
            raise CheckFailed(f"invariants exited {child.result['exit']}")
        self._once("invariants", child.result["stdout"], self._validate_invariants)
        it.set_rate(len(self.sets), child.result["t_end"] - child.result["t_ready"], child)

    def _validate_invariants(self, text: str) -> None:
        lines = text.splitlines()
        n = len(self.sets)
        if len(lines) != n + 1 or lines[-1] != f"checked {n} sets: {n} maximal cocliques, 0 failures":
            raise CheckFailed(f"invariants summary is {lines[-1] if lines else ''!r}")
        for i, (line, want) in enumerate(zip(lines, self.expected), start=1):
            m = SET_LINE.fullmatch(line)
            if want is None or m is None:
                raise CheckFailed(f"set {i}: unexpected line {line[:80]!r}")
            size, profile, pair = want
            got = dict(tuple(map(int, kv.split(":"))) for kv in m.group(3).split())
            if int(m.group(1)) != i or int(m.group(2)) != size or got != profile or int(m.group(4) or -1) != pair:
                raise CheckFailed(f"set {i}: {line[:80]!r} disagrees with the oracle")
            if sum(got.values()) != inputs.N - size or sum(d * c for d, c in got.items()) != inputs.DEGREE * size:
                raise CheckFailed(f"set {i}: profile breaks the counting identities")

    def check_export(self, child, it):
        if child.result["exit"] != 0:
            raise CheckFailed(f"export exited {child.result['exit']}")
        self._once("gap", Path(self.dir / "graph.g").read_text(), self._validate_gap)
        self._once("edges", Path(self.dir / "edges.txt").read_text(), self._validate_edges)

    def _validate_gap(self, text: str) -> None:
        head, sep, rest = text.partition("MIS:=[")
        if not head.startswith("A:=[") or not sep or 'LoadPackage("grape")' not in rest:
            raise CheckFailed("GAP file lacks the A, MIS or trailer sections")
        rows = LIST.findall(head)
        want = [",".join(map(str, np.flatnonzero(r) + 1)) for r in self.oracle.adj]
        if rows != want:
            raise CheckFailed(f"GAP adjacency: {len(rows)} lists, not the 2048 lists of 276 neighbours")
        sets = LIST.findall(rest.partition("];")[0])
        if sets != [",".join(str(v + 1) for v in s) for s in self.sets]:
            raise CheckFailed("GAP MIS lists differ from the container")

    def _validate_edges(self, text: str) -> None:
        pairs = np.array(text.split(), dtype=np.int64)
        if text.count("\n") != inputs.EDGES or pairs.size != 2 * inputs.EDGES:
            raise CheckFailed(f"edge list has {text.count(chr(10))} lines, want {inputs.EDGES}")
        u, v = pairs[0::2] - 1, pairs[1::2] - 1
        if not (u < v).all() or u.min() < 0 or v.max() >= inputs.N:
            raise CheckFailed("edge list has a line without 1 <= u < v <= 2048")
        if not self.oracle.adj[u, v].all() or len(np.unique(u * inputs.N + v)) != inputs.EDGES:
            raise CheckFailed("edge list differs from the graph")


WORKLOADS = {"verify": Verify, "search": Search, "check": Check}


def median(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def end_to_end(iterations: list[Iteration]) -> dict:
    """Medians over the iterations, times and rates scaled by Child.scale."""
    ok = [it for it in iterations if it.failed == 0]
    return {
        "wall_s": (median(it.scaled_wall for it in ok), "s"),
        "setup_s": (median(c.setup * c.scale for it in ok for c in it.children), "s"),
        "peak_rss_mib": (median(it.rss_mib for it in ok), "MiB"),
        "work_per_s": (median(it.rate / it.rate_scale for it in ok), "1/s"),
    }


def _process_layers(child: Child) -> dict[str, float]:
    """Per-layer figures of one traced process, for the calls it made."""
    r = child.result
    spans = r["spans"]
    own = self_times(spans)
    out: dict[str, float] = {
        "process.startup_s": r["t_start"] - child.t_spawn,
        "srg2048.import_s": r["t_imported"] - r["t_start"],
    }
    names = {
        "golay.build_code": "golay.build_code_s",
        "coset_graph.build_reps": "coset_graph.build_reps_s",
        "coset_graph.weight6_distance_table": "coset_graph.weight6_table_s",
        "coset_graph.check_rep_uniqueness": "coset_graph.rep_uniqueness_s",
        "coset_graph.verify_srg": "coset_graph.verify_srg_s",
        "cli.save_graph_cache": "cli.cache_save_s",
        "cli.load_graph_cache": "cli.cache_load_s",
        "coclique.search_maximal": "coclique.search_s",
        "coclique.is_coclique": "coclique.is_coclique_s",
        "coclique.is_maximal": "coclique.is_maximal_s",
        "coclique.external_profile": "coclique.external_profile_s",
        "coclique.pair_invariant": "coclique.pair_invariant_s",
        "io_formats.read_dat": "io_formats.read_dat_s",
        "io_formats.write_dat": "io_formats.write_dat_s",
        "io_formats.export_gap": "io_formats.export_gap_s",
        "io_formats.export_edge_list": "io_formats.export_edge_list_s",
    }
    for i, (name, start, end, parent, info) in enumerate(spans):
        module = name.split(".")[0]
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + own[i]
        if name in names:
            out[names[name]] = out.get(names[name], 0.0) + end - start
        if name == "coset_graph.build_graph":
            out["coset_graph.build_graph_s"] = out.get("coset_graph.build_graph_s", 0.0) + own[i]
        elif name == "coclique.search_maximal":
            out["coclique.attempts"] = info[0]
            out["coclique.sizes_found"] = len(info[1])
            inner = [s for s in spans if s[3] == i]
            out["coclique.unique_candidates"] = sum(s[0] == "coclique.is_maximal" for s in inner)
            out["coclique.candidate_check_s"] = sum(s[2] - s[1] for s in inner if s[0] in ("coclique.is_coclique", "coclique.is_maximal"))
        elif name == "io_formats.read_dat":
            out["io_formats.read_dat_entries"] = out.get("io_formats.read_dat_entries", 0) + info
        elif name == "io_formats.export_gap":
            out["io_formats.export_gap_bytes"] = info[0]
        elif name == "io_formats.export_edge_list":
            out["io_formats.export_edge_lines"] = info[1]
    return out


def _set_check_ms(spans) -> list[float]:
    """Durations of the per-set checks the CLI makes: consecutive top-level
    coclique calls on one VertexSet form one set check."""
    checks: list[float] = []
    tag = None
    for name, start, end, parent, info in spans:
        if not name.startswith("coclique.") or parent < 0 or spans[parent][0] != "cli.main":
            continue
        if info != tag:
            checks.append(0.0)
            tag = info
        checks[-1] += (end - start) * 1e3
    return checks


def per_layer(untraced: list[Iteration], traced: list[Iteration]) -> dict:
    """Per-layer figures of the traced iterations.

    Times and counts are summed over an iteration's processes (one for
    verify and search, two for check) and reported as the median over
    iterations; a call an iteration never made counts 0.  Cache hits and
    misses are totals over all traced processes, set-check percentiles
    pool every set checked.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    rows = []
    for it in traced:
        row: dict[str, float] = {}
        for child in it.children:
            if child.result is not None:
                for key, value in _process_layers(child).items():
                    row[key] = row.get(key, 0.0) + value
        if row.get("coset_graph.verify_srg_s"):
            row["coset_graph.verify_srg_pairs_per_s"] = inputs.PAIRS / row["coset_graph.verify_srg_s"]
        if row.get("io_formats.read_dat_s"):
            row["io_formats.read_dat_entries_per_s"] = row["io_formats.read_dat_entries"] / row["io_formats.read_dat_s"]
        if row.get("coclique.attempts"):
            row["coclique.unique_ratio"] = row["coclique.unique_candidates"] / row["coclique.attempts"]
        rows.append(row)
    children = [c for it in traced for c in it.children if c.result is not None]
    loads = [s[4] for c in children for s in c.result["spans"] if s[0] == "cli.load_graph_cache"]
    checks = [ms for c in children for ms in _set_check_ms(c.result["spans"])]
    totals = {
        "cli.cache_hits": loads.count("hit"),
        "cli.cache_misses": loads.count("miss"),
        "trace.processes": len(children),
        "coclique.set_check_p50_ms": float(np.percentile(checks, 50)) if checks else 0.0,
        "coclique.set_check_p99_ms": float(np.percentile(checks, 99)) if checks else 0.0,
        "trace.overhead_s": median(it.scaled_wall for it in traced) - median(it.scaled_wall for it in untraced),
        "host.reference_s": median(c.reference for it in traced + untraced for c in it.children),
    }
    return {
        m["name"]: (totals[m["name"]] if m["name"] in totals else median(r.get(m["name"], 0.0) for r in rows), m["unit"])
        for m in spec
    }


def machine_record(cpus: list[int]) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(cpus),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }


def current_cpu(cpus: list[int]) -> int:
    """The CPU this process is running on (field 39 of /proc/self/stat)."""
    try:
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return cpus[0]
    return cpu if cpu in cpus else cpus[0]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def measure(workload: Workload, seconds: float, trace: bool) -> tuple[list[Iteration], list[Iteration]]:
    """Alternate untraced (and, with trace, traced) iterations until the
    time is up and every kind has MIN_ITERATIONS samples."""
    runs: dict[bool, list[Iteration]] = {False: [], True: []}
    kinds = (False, True) if trace else (False,)
    deadline = time.monotonic() + seconds
    k = 0
    while k < len(kinds) * MIN_ITERATIONS or time.monotonic() < deadline:
        traced = kinds[k % len(kinds)]
        runs[traced].append(workload.iteration(traced))
        k += 1
    return runs[False], runs[True]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="srg2048 benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "srg2048" / "cli.py").is_file():
        print(f"error: no srg2048 package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    # One CPU for the reference work and every child, so that the reference
    # tracks the speed of the CPU the program runs on.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {current_cpu(cpus)})
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    runner = Runner(workdir)
    try:
        workload = WORKLOADS[args.workload](runner, args.seed)
        t0 = time.monotonic()
        workload.prepare()
        prepare_s = time.monotonic() - t0
        untraced, traced = measure(workload, args.seconds, bool(args.trace))
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    iterations = untraced + traced
    attempted = sum(len(it.children) for it in iterations)
    failed = sum(it.failed for it in iterations)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(cpus),
        "inputs": workload.info,
        "prepare_s": prepare_s,
        "errors": runner.errors,
        "samples": [
            {
                "traced": it.traced,
                "failed": it.failed,
                "wall_s": it.wall,
                "rss_mib": it.rss_mib,
                "rate": it.rate,
                "reference_s": [c.reference for c in it.children],
                "setup_s": [c.setup for c in it.children if c.result and c.result["t_ready"]],
            }
            for it in iterations
        ],
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": [c.result["spans"] for it in traced for c in it.children if c.result],
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    for error in runner.errors[:20]:
        print(f"error: {error}")
    print(json.dumps({"machine": record["machine"], "inputs": workload.info, "iterations": len(iterations)}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
