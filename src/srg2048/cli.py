"""Command-line front end.

Subcommands: build, verify, check, search, invariants, export.  All runs
are batch and reproducible: the search seed and budget default to fixed,
documented values, and reports use stable line formats.

Exit codes: 0 success; 3 data-format error; 4 verification or check
failure; 5 the internal invalid-distance guard fired (2 is argparse usage).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
import time
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import coclique, coset_graph, golay, io_formats
from .errors import (
    DatFormatError,
    GraphConstructionError,
    InvalidDistanceError,
    SrgError,
    VerificationError,
)

EXIT_OK = 0
EXIT_FORMAT = 3
EXIT_VERIFY = 4
EXIT_DISTANCE = 5

CACHE_VERSION = 1


@dataclass
class RunConfig:
    command: str
    generators: str | None = None
    dat_path: str | None = None
    out_path: str | None = None
    gap_path: str | None = None
    edges_path: str | None = None
    sets_path: str | None = None
    seed: int = coclique.DEFAULT_SEED
    budget: int = coclique.DEFAULT_BUDGET
    workers: int = 1
    byteorder: str = "little"
    sizes: tuple[int, ...] = field(default_factory=tuple)
    cache: str | None = None


def parse_size_targets(text: str) -> tuple[int, ...]:
    """Accept 'LO-HI', a single size, or a comma list of either.

    Raises ValueError on a part that is not a size or range, on a range
    with LO > HI, and when no size is given.
    """
    targets: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo_text, dash, hi_text = part.partition("-")
        try:
            lo = int(lo_text)
            hi = int(hi_text) if dash else lo
        except ValueError:
            raise ValueError(f"not a size or LO-HI range: {part!r}") from None
        if lo > hi:
            raise ValueError(f"empty range {part!r}: {lo} > {hi}")
        targets.update(range(lo, hi + 1))
    if not targets:
        raise ValueError(f"no sizes in {text!r}")
    return tuple(sorted(targets))


def default_cache_dir() -> str:
    return os.environ.get(
        "SRG2048_CACHE_DIR", os.path.join(os.path.expanduser("~"), ".cache", "srg2048")
    )


def _cache_path(cfg: RunConfig, code: golay.GolayCode) -> str:
    if cfg.cache and cfg.cache != "auto":
        return cfg.cache
    digest = hashlib.sha256(
        np.array(code.generators, dtype=np.uint32).tobytes()
    ).hexdigest()[:16]
    return os.path.join(default_cache_dir(), f"graph-{digest}.npz")


def save_graph_cache(path: str, g: coset_graph.Graph, code: golay.GolayCode) -> None:
    """Write the cache atomically: a temporary file beside it, then a rename,
    so a reader never sees a half-written file."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".graph-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:  # savez on a path would add .npz
            np.savez_compressed(
                fh,
                version=np.int64(CACHE_VERSION),
                generators=np.array(code.generators, dtype=np.uint32),
                packed=g.packed,
                checksum=np.str_(hashlib.sha256(g.packed.tobytes()).hexdigest()),
            )
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_graph_cache(
    path: str, code: golay.GolayCode, reps: coset_graph.CosetReps
) -> coset_graph.Graph | None:
    """Rebuild the graph from a cache file; None if absent, stale or malformed.

    Besides the version, generators and checksum, the rows must have the
    graph's shape and dtype, no loops and degree 276.  Symmetry is not
    checked: it would cost far more than the load itself.
    """
    if not os.path.exists(path):
        return None
    try:
        with np.load(path, allow_pickle=False) as payload:
            if int(payload["version"]) != CACHE_VERSION:
                return None
            if not np.array_equal(
                payload["generators"], np.array(code.generators, dtype=np.uint32)
            ):
                return None
            packed = payload["packed"]
            if hashlib.sha256(packed.tobytes()).hexdigest() != str(payload["checksum"]):
                return None
        g = coset_graph.Graph(packed, len(reps), vertex_reps=reps)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile, GraphConstructionError):
        return None
    v = np.arange(g.n)
    if ((packed[v, v >> 3] >> (v & 7)) & 1).any():
        return None
    if (g.degrees() != coset_graph.DEGREE).any():
        return None
    return g


def _build_code(cfg: RunConfig) -> golay.GolayCode:
    generators = golay.read_generator_file(cfg.generators) if cfg.generators else None
    return golay.build_code(generators)


def _build_context(cfg: RunConfig):
    """code, reps, graph -- through the cache when enabled."""
    code = _build_code(cfg)
    reps = coset_graph.build_reps()
    g = None
    cache_file = _cache_path(cfg, code) if cfg.cache else None
    if cache_file:
        g = load_graph_cache(cache_file, code, reps)
    if g is None:
        g = coset_graph.build_graph(code, reps)
        if cache_file:
            save_graph_cache(cache_file, g, code)
    return code, reps, g


def _format_census(census: dict[int, int]) -> str:
    return " ".join(f"{k}:{census[k]}" for k in sorted(census))


def cmd_build(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    code, reps, g = _build_context(cfg)
    elapsed = time.perf_counter() - t0
    print(f"codewords: {len(code.codewords)}")
    print(f"weight distribution: {_format_census(code.weight_distribution())}")
    print(f"representatives: {len(reps)}")
    print(f"edges: {g.edge_count()}")
    print(f"build time: {elapsed:.2f}s")
    if cfg.cache:
        print(f"cache: {_cache_path(cfg, code)}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    code, reps, g = _build_context(cfg)
    print(f"codewords: {len(code.codewords)}")
    print(f"weight distribution: {_format_census(code.weight_distribution())}")
    counts = reps.class_counts()
    print(
        f"representatives: {len(reps)} (weight 0: {counts.get(0, 0)}, "
        f"weight 2: {counts.get(2, 0)}, weight 4: {counts.get(4, 0)})"
    )
    pairs = coset_graph.check_rep_uniqueness(code, reps)
    print(f"representative uniqueness: ok ({pairs} pairs)")
    census = coset_graph.weight6_distance_census(code)
    print(f"weight-6 distance census: {_format_census(census)} (guard never fired)")
    params = coset_graph.verify_srg(g)
    print(f"srg parameters: {params.as_tuple()}")
    r, s = coset_graph.srg_eigenvalues(params)
    print(f"eigenvalues: {r}, {s}")
    bound = coset_graph.delsarte_bound(params.v, params.k, s)
    print(f"delsarte bound: {bound}")
    expected = coset_graph.TARGET_PARAMS
    ok = (
        len(code.codewords) == 4096
        and code.weight_distribution() == golay.EXPECTED_WEIGHT_DISTRIBUTION
        and len(reps) == 2048
        and params == expected
        and bound == 85
    )
    if not ok:
        print(f"MISMATCH: expected {expected.as_tuple()} with bound 85")
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


def _describe_set(
    g: coset_graph.Graph, s: coclique.VertexSet, index: int, invariant_floor: int
) -> tuple[str, bool]:
    parts = [f"set {index}: size {s.size}"]
    good = coclique.is_coclique(g, s)
    parts.append(f"coclique {'yes' if good else 'no'}")
    if good:
        maximal = coclique.is_maximal(g, s)
        parts.append(f"maximal {'yes' if maximal else 'no'}")
        good = maximal
        profile = coclique.external_profile(g, s)
        parts.append(f"profile {profile.format()}")
        if s.size >= invariant_floor:
            parts.append(f"pair invariant {coclique.pair_invariant(g, s)}")
    else:
        parts.append("maximal no")
    return ", ".join(parts), good


def _check_sets(cfg: RunConfig, invariant_floor: int) -> int:
    with open(cfg.dat_path, "rb") as fh:  # fail fast before the build
        data = fh.read()
    code, reps, g = _build_context(cfg)
    sets = io_formats.read_dat(data, reps, byteorder=cfg.byteorder)
    failures = 0
    for i, s in enumerate(sets, start=1):
        line, good = _describe_set(g, s, i, invariant_floor)
        print(line)
        if not good:
            failures += 1
    print(
        f"checked {len(sets)} sets: {len(sets) - failures} maximal cocliques, "
        f"{failures} failures"
    )
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_check(cfg: RunConfig) -> int:
    # the pair invariant is reported for the large sets only, size >= 72
    return _check_sets(cfg, invariant_floor=72)


def cmd_invariants(cfg: RunConfig) -> int:
    return _check_sets(cfg, invariant_floor=0)


def cmd_search(cfg: RunConfig) -> int:
    code, reps, g = _build_context(cfg)
    targets = cfg.sizes or tuple(range(20, 41))
    if cfg.workers != 1:
        print("note: search runs single-threaded; --workers ignored")
    contiguous = targets == tuple(range(targets[0], targets[-1] + 1))
    label = f"{targets[0]}-{targets[-1]}" if contiguous else ",".join(map(str, targets))
    print(f"seed {cfg.seed}, budget {cfg.budget}, sizes {label}")
    t0 = time.perf_counter()
    results = coclique.search_maximal(g, targets, budget=cfg.budget, seed=cfg.seed)
    elapsed = time.perf_counter() - t0
    achieved = [s.size for s in results]
    missing = sorted(set(targets) - set(achieved))
    print(f"achieved sizes: {' '.join(map(str, achieved)) or 'none'}")
    print(f"missing sizes: {' '.join(map(str, missing)) or 'none'}")
    print(f"search time: {elapsed:.1f}s")
    if cfg.out_path:
        payload = io_formats.write_dat(results, reps, byteorder=cfg.byteorder)
        with open(cfg.out_path, "wb") as fh:
            fh.write(payload)
        print(f"wrote {len(results)} sets to {cfg.out_path}")
    return EXIT_OK


def cmd_export(cfg: RunConfig) -> int:
    code, reps, g = _build_context(cfg)
    sets: list[coclique.VertexSet] = []
    if cfg.sets_path:
        with open(cfg.sets_path, "rb") as fh:
            sets = io_formats.read_dat(fh.read(), reps, byteorder=cfg.byteorder)
    if cfg.gap_path:
        text = io_formats.export_gap(g, sets)
        with open(cfg.gap_path, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote gap file {cfg.gap_path} ({len(text)} bytes, {len(sets)} sets)")
    if cfg.edges_path:
        text = io_formats.export_edge_list(g)
        with open(cfg.edges_path, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote edge list {cfg.edges_path} ({g.edge_count()} edges)")
    if not cfg.gap_path and not cfg.edges_path:
        print("nothing to export: pass --gap and/or --edges")
    return EXIT_OK


_COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "check": cmd_check,
    "search": cmd_search,
    "invariants": cmd_invariants,
    "export": cmd_export,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--generators", help="generator matrix file (12 lines of 24 '0'/'1')")
    p.add_argument(
        "--cache",
        nargs="?",
        const="auto",
        help="reuse/write a graph cache file (default location under "
        "$SRG2048_CACHE_DIR or ~/.cache/srg2048)",
    )
    p.add_argument(
        "--byteorder",
        choices=("little", "big"),
        default="little",
        help="entry byte order of .dat files (default little)",
    )


def _size_targets_arg(text: str) -> tuple[int, ...]:
    try:
        return parse_size_targets(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srg2048",
        description="Build, verify and explore the Golay-coset srg(2048,276,44,36).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build the graph (optionally into a cache)")
    _add_common(p)

    p = sub.add_parser("verify", help="verify code, representatives and srg parameters")
    _add_common(p)

    p = sub.add_parser("check", help="check the vertex sets in a .dat file")
    p.add_argument("dat", help="path to the vertex-set container")
    _add_common(p)

    p = sub.add_parser("invariants", help="like check, pair invariant for every set")
    p.add_argument("dat", help="path to the vertex-set container")
    _add_common(p)

    p = sub.add_parser("search", help="search maximal cocliques and write a .dat file")
    p.add_argument("--out", help="output .dat path")
    p.add_argument(
        "--sizes",
        type=_size_targets_arg,
        default="20-40",
        help="targets, e.g. 20-40, 72 or 20,25-30 (default 20-40)",
    )
    p.add_argument("--seed", type=int, default=coclique.DEFAULT_SEED)
    p.add_argument("--budget", type=int, default=coclique.DEFAULT_BUDGET)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)

    p = sub.add_parser("export", help="write the GAP file and/or an edge list")
    p.add_argument("--sets", help=".dat file whose sets go into the MIS list")
    p.add_argument("--gap", help="output path of the GAP text file")
    p.add_argument("--edges", help="output path of the plain edge list")
    _add_common(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    cfg.generators = getattr(args, "generators", None)
    cfg.cache = getattr(args, "cache", None)
    cfg.byteorder = getattr(args, "byteorder", "little")
    cfg.dat_path = getattr(args, "dat", None)
    cfg.out_path = getattr(args, "out", None)
    cfg.gap_path = getattr(args, "gap", None)
    cfg.edges_path = getattr(args, "edges", None)
    cfg.sets_path = getattr(args, "sets", None)
    cfg.seed = getattr(args, "seed", coclique.DEFAULT_SEED)
    cfg.budget = getattr(args, "budget", coclique.DEFAULT_BUDGET)
    cfg.workers = getattr(args, "workers", 1)
    cfg.sizes = getattr(args, "sizes", ())
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    try:
        return _COMMANDS[cfg.command](cfg)
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except DatFormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except InvalidDistanceError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_DISTANCE
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except SrgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
