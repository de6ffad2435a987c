"""One measured operation in a fresh interpreter.

    python3 srgbench/child.py SPEC.json

SPEC holds "op" ("cli" with "argv", or "search" with "cache", "seed",
"budget", "sizes" and "out"), "trace" (0 or 1) and "result", the path the
timings, captured output and spans are written to as JSON.  The package
is found through PYTHONPATH.
"""

import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from spans import GRAPH_SOURCES, TRACED, Recorder  # noqa: E402


def run_search(spec) -> tuple[int, list[float]]:
    from srg2048 import cli, coclique, coset_graph, golay, io_formats

    code = golay.build_code()
    reps = coset_graph.build_reps()
    graph = cli.load_graph_cache(spec["cache"], code, reps)
    if graph is None:
        graph = coset_graph.build_graph(code, reps)
    lo, hi = spec["sizes"]
    t0 = time.monotonic()
    found = coclique.search_maximal(
        graph,
        range(lo, hi + 1),
        budget=spec["budget"],
        seed=spec["seed"],
        config=coclique.SearchConfig(stop_when_complete=False),
    )
    t1 = time.monotonic()
    with open(spec["out"], "wb") as fh:
        fh.write(io_formats.write_dat(found, reps))
    return 0, [t0, t1]


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import srg2048
    import srg2048.cli

    t_imported = time.monotonic()
    recorder = Recorder()
    recorder.install(srg2048, TRACED if spec["trace"] else GRAPH_SOURCES)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if spec["op"] == "search":
            code, work = run_search(spec)
        else:
            code, work = srg2048.cli.main(spec["argv"]), None
    t_end = time.monotonic()
    result = {
        "exit": code,
        "t_start": T_START,
        "t_imported": t_imported,
        "t_ready": recorder.graph_ready(),
        "t_end": t_end,
        "work": work,
        "stdout": out.getvalue(),
        "spans": recorder.spans,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
