"""Spans recorded around the package's public calls, and their analysis.

A span is (name, start, end, parent, info): `name` is "module.function",
`start`/`end` are time.monotonic() readings, `parent` is the index of the
enclosing span or -1, and `info` holds a small per-call count or tag.
The recorder patches module attributes, so calls the package makes
through its own module globals (search_maximal -> is_maximal, cli ->
coset_graph.build_graph) are seen without editing the package.
"""

from __future__ import annotations

import functools
import time

# Every public call the traced run times, by module.
TRACED = {
    "golay": ("build_code",),
    "coset_graph": (
        "build_reps",
        "build_graph",
        "weight6_distance_table",
        "check_rep_uniqueness",
        "weight6_distance_census",
        "verify_srg",
    ),
    "cli": ("main", "load_graph_cache", "save_graph_cache"),
    "coclique": ("search_maximal", "is_coclique", "is_maximal", "external_profile", "pair_invariant"),
    "io_formats": ("read_dat", "write_dat", "export_gap", "export_edge_list"),
}
# The calls that hand back a ready graph; the untraced run wraps only these.
GRAPH_SOURCES = {"coset_graph": ("build_graph",), "cli": ("load_graph_cache",)}


def _info(name: str, args, kwargs, result):
    if name == "cli.load_graph_cache":
        return "miss" if result is None else "hit"
    if name == "io_formats.read_dat":
        return sum(len(s) for s in result)
    if name in ("io_formats.export_gap", "io_formats.export_edge_list"):
        return [len(result), result.count("\n")]
    if name == "coclique.search_maximal":
        return [kwargs.get("budget"), sorted(s.size for s in result)]
    if name.startswith("coclique."):
        return id(args[1])  # the VertexSet; groups the calls of one set check
    return None


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self, package, table) -> None:
        for module_name, functions in table.items():
            module = getattr(package, module_name)
            for fn_name in functions:
                setattr(module, fn_name, self._wrap(f"{module_name}.{fn_name}", getattr(module, fn_name)))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.monotonic(), None, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.monotonic()
            span[4] = _info(name, args, kwargs, result)
            return result

        return traced

    def graph_ready(self) -> float | None:
        """End of the last span that produced a graph."""
        ends = [
            s[2]
            for s in self.spans
            if s[0] == "coset_graph.build_graph" or (s[0] == "cli.load_graph_cache" and s[4] == "hit")
        ]
        return max(ends) if ends else None


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
