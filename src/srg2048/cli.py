"""Command-line front end.

Subcommands: build, verify, check, search, invariants, export.  All runs
are batch and reproducible: the search seed and budget default to fixed,
documented values, and reports use stable line formats.  A command's
handler, files and `--byteorder` are declared once, with its parser.

Exit codes: 0 success; 3 data-format or file error, and `build --cache`
when the cache cannot be written; 4 verification or check failure; 5 the
internal invalid-distance guard fired; 2 usage, from argparse or from
`_build_context`, the one route to every command's files, when an output
is the same file as an input (the cache file included) or another output.
A container is read by `io_formats.read_dat_stream`, which owns its format.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import os
import sys
import tempfile
import zlib

import numpy as np

from . import coclique, coset_graph, golay, io_formats
from .errors import (
    FormatError,
    GraphConstructionError,
    InvalidDistanceError,
    SrgError,
    VerificationError,
)

EXIT_OK = 0
EXIT_FORMAT = 3
EXIT_VERIFY = 4
EXIT_DISTANCE = 5

# first 16 bytes of a graph cache file; the last one is the layout version
CACHE_MAGIC = b"srg2048 graph v3"
# bytes before the rows: the magic, 12 generator rows and the rows' CRC-32
CACHE_HEAD = len(CACHE_MAGIC) + 12 * 4 + 4

# check and search report the pair invariant for sets at least this large
LARGE_SET_FLOOR = 72


def parse_size_targets(text: str) -> tuple[int, ...]:
    """Accept 'LO-HI', a single size, or a comma list of either.

    Raises ValueError on a part that is not a size or range, on a range
    with LO > HI, on a size no maximal coclique has (below
    COCLIQUE_SIZE_FLOOR or above the ratio bound COCLIQUE_SIZE_CAP), and
    when no size is given.
    """
    floor, cap = coclique.COCLIQUE_SIZE_FLOOR, coclique.COCLIQUE_SIZE_CAP
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
        if lo < floor or hi > cap:
            raise ValueError(
                f"size {lo if lo < floor else hi} out of range: "
                f"a maximal coclique has {floor} to {cap} vertices"
            )
        targets.update(range(lo, hi + 1))
    if not targets:
        raise ValueError(f"no sizes in {text!r}")
    return tuple(sorted(targets))


def default_cache_dir() -> str:
    return os.environ.get(
        "SRG2048_CACHE_DIR", os.path.join(os.path.expanduser("~"), ".cache", "srg2048")
    )


def _generator_bytes(code: golay.GolayCode) -> bytes:
    return np.array(code.generators, dtype="<u4").tobytes()


def _cache_path(args: argparse.Namespace, code: golay.GolayCode) -> str:
    if args.cache is not True:
        return args.cache
    digest = zlib.crc32(_generator_bytes(code))
    return os.path.join(default_cache_dir(), f"graph-{digest:08x}.bin")


def _cache_head(code: golay.GolayCode, packed: np.ndarray) -> bytes:
    """The CACHE_HEAD bytes before the rows in a cache file: CACHE_MAGIC, then
    the 12 generator rows and the CRC-32 of the rows as little-endian uint32.
    The generator rows catch a stale file and the CRC-32 a damaged one."""
    return CACHE_MAGIC + _generator_bytes(code) + zlib.crc32(packed).to_bytes(4, "little")


def save_graph_cache(path: str, g: coset_graph.Graph, code: golay.GolayCode) -> None:
    """Write the head, then the rows straight from `g.packed` with no copy,
    to a temporary file beside `path`, then rename it into place, so a
    reader never sees a half-written file.  It replaces only an absent file
    or one that starts with CACHE_MAGIC less its version byte; anything else
    raises FileExistsError, "not a graph cache file"."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    try:
        with open(path, "rb") as fh:
            ours = fh.read(len(CACHE_MAGIC) - 1) == CACHE_MAGIC[:-1]
    except FileNotFoundError:
        ours = True
    if not ours:
        raise FileExistsError(errno.EEXIST, "not a graph cache file", path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".graph-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_cache_head(code, g.packed))
            fh.write(g.packed)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_graph_cache(
    path: str, code: golay.GolayCode, reps: np.ndarray
) -> coset_graph.Graph | None:
    """The cached graph, or None unless the file is exactly the head this code
    would write and rows that pass `Graph`'s checks and have degree 276."""
    n = len(reps)
    packed = np.empty((n, coset_graph.row_bytes(n)), dtype=np.uint8)
    try:
        with open(path, "rb") as fh:
            head, size, rest = fh.read(CACHE_HEAD), fh.readinto(packed), fh.read(1)
        if size != packed.nbytes or rest or head != _cache_head(code, packed):
            return None
        g = coset_graph.Graph(packed)
    except (OSError, GraphConstructionError):
        return None
    return g if (g.degrees() == coset_graph.DEGREE).all() else None


def _file_key(path: str):
    """What names the file at `path`: its device and inode when it exists,
    else its resolved absolute path, so two spellings of one file agree."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _build_context(args: argparse.Namespace):
    """The one route to every command's files.  After `--generators` is read,
    and before any other file is read or the graph is built: an output (named
    in `args.writes`) that is the same file as an input or as another output
    is a usage error, and the container (named in `args.reads`) is parsed as
    it is read, once the representatives are built, so a malformed one is
    refused before any output exists, and an endless one at its first faulty
    record.  Then each output is opened for appending,
    which creates an absent file and truncates none.  Returns code, reps, the
    graph (through the cache when enabled), the cache file (None when off or
    unwritable) and the container's sets (none when no file is named)."""
    code = golay.build_code(golay.read_generator_file(args.generators) if args.generators else None)
    cache_file = _cache_path(args, code) if args.cache else None
    # writing over an input, or one output over another, loses data
    files = {"generators": args.generators, "cache": cache_file}
    files.update((name, getattr(args, name)) for name in args.reads + args.writes)
    keys = {}
    for name, path in files.items():
        if path:
            other = keys.setdefault(_file_key(path), name)
            if other != name and name in args.writes:
                args.usage_error(f"--{name} {path} is the same file as --{other} {files[other]}")
    reps = coset_graph.build_reps()
    sets = []
    for name in args.reads:  # a container that is not named is an empty one
        with open(files[name], "rb") if files[name] else io.BytesIO() as fh:
            sets = io_formats.read_dat_stream(fh, reps, args.byteorder)
    for path in filter(None, map(files.get, args.writes)):
        with open(path, "ab"):
            pass
    g = load_graph_cache(cache_file, code, reps) if cache_file else None
    if g is None:
        g = coset_graph.build_graph(code, reps)
        if cache_file:
            try:
                save_graph_cache(cache_file, g, code)
            except OSError as exc:  # the graph is built and checked: report and go on
                print(f"cache: write failed: {cache_file}: {exc.strerror or exc}", file=sys.stderr)
                cache_file = None
    return code, reps, g, cache_file, sets


def _format_census(census: dict[int, int]) -> str:
    return " ".join(f"{k}:{census[k]}" for k in sorted(census))


def cmd_build(args: argparse.Namespace) -> int:
    code, reps, g, cache_file, _ = _build_context(args)
    print(f"codewords: {len(code.codewords)}")
    print(f"weight distribution: {_format_census(code.weight_distribution())}")
    print(f"representatives: {len(reps)}")
    print(f"edges: {int(g.degrees().sum()) // 2}")
    if cache_file:
        print(f"cache: {cache_file}")
    # a failed write is on stderr already; storing the graph is what build --cache is for
    return EXIT_FORMAT if args.cache and not cache_file else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    code, reps, g, *_ = _build_context(args)
    print(f"codewords: {len(code.codewords)}")
    print(f"weight distribution: {_format_census(code.weight_distribution())}")
    counts = golay.census(np.bitwise_count(reps))
    print(
        f"representatives: {len(reps)} (weight 0: {counts.get(0, 0)}, "
        f"weight 2: {counts.get(2, 0)}, weight 4: {counts.get(4, 0)})"
    )
    pairs = coset_graph.check_rep_uniqueness(code, reps)
    print(f"representative uniqueness: ok ({pairs} pairs)")
    census = coset_graph.weight6_distance_census(code)
    print(f"weight-6 distance census: {_format_census(census)} (guard never fired)")
    params = coset_graph.verify_srg(g)
    print(f"srg parameters: {tuple(params)}")
    r, s = coset_graph.srg_eigenvalues(params)
    print(f"eigenvalues: {r}, {s}")
    bound = coset_graph.delsarte_bound(params.v, params.k, s)
    print(f"delsarte bound: {bound}")
    # build_code has checked the code's census, and the bound follows from params
    expected = coset_graph.TARGET_PARAMS
    if params != expected:
        print(f"MISMATCH: expected {tuple(expected)} with bound {coclique.COCLIQUE_SIZE_CAP}")
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


def _describe_set(
    g: coset_graph.Graph, s: coclique.VertexSet, index: int, invariant_floor: int
) -> tuple[str, bool]:
    independent, maximal, profile, invariant = coclique.check_set(
        g, s, pair=s.size >= invariant_floor
    )
    parts = [f"set {index}: size {s.size}", f"coclique {'yes' if independent else 'no'}"]
    parts.append(f"maximal {'yes' if maximal else 'no'}")
    if independent:
        parts.append(f"profile {_format_census(profile)}")
        if invariant is not None:
            parts.append(f"pair invariant {invariant}")
    return ", ".join(parts), maximal


def cmd_check(args: argparse.Namespace) -> int:
    """check and invariants, which differ only in `args.invariant_floor`."""
    if args.dat is None:
        # `--cache` takes an optional value, so in `check --cache C` it takes
        # the container C: use C as the container and the default cache file
        if args.cache in (None, True):
            args.usage_error("the following arguments are required: dat")
        args.dat, args.cache = args.cache, True
    _, _, g, _, sets = _build_context(args)
    failures = 0
    for i, s in enumerate(sets, start=1):
        line, good = _describe_set(g, s, i, args.invariant_floor)
        print(line)
        if not good:
            failures += 1
    print(
        f"checked {len(sets)} sets: {len(sets) - failures} maximal cocliques, "
        f"{failures} failures"
    )
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_search(args: argparse.Namespace) -> int:
    _, reps, g, *_ = _build_context(args)
    targets = args.sizes
    contiguous = targets == tuple(range(targets[0], targets[-1] + 1))
    label = f"{targets[0]}-{targets[-1]}" if contiguous else ",".join(map(str, targets))
    print(f"seed {args.seed}, budget {args.budget}, sizes {label}")
    results = coclique.search_maximal(g, targets, budget=args.budget, seed=args.seed)
    achieved = [s.size for s in results]
    missing = sorted(set(targets) - set(achieved))
    print(f"achieved sizes: {' '.join(map(str, achieved)) or 'none'}")
    print(f"missing sizes: {' '.join(map(str, missing)) or 'none'}")
    row = "".join("X" if t in achieved else "." for t in targets)
    print(f"coverage {label}: {row} ({len(achieved)} of {len(targets)} sizes)")
    for i, s in enumerate(results, start=1):
        if s.size >= LARGE_SET_FLOOR:
            print(_describe_set(g, s, i, LARGE_SET_FLOOR)[0])
    if args.out:
        payload = io_formats.write_dat(results, reps, byteorder=args.byteorder)
        with open(args.out, "wb") as fh:
            fh.write(payload)
        print(f"wrote {len(results)} sets to {args.out}")
    return EXIT_OK


def _write_pieces(path: str, pieces) -> int:
    """Write text pieces to `path` as they come; the characters written,
    which for ASCII text are the bytes."""
    with open(path, "w", encoding="ascii") as fh:
        return sum(map(fh.write, pieces))


def cmd_export(args: argparse.Namespace) -> int:
    if not args.gap and not args.edges:
        args.usage_error("nothing to export: pass --gap and/or --edges")
    _, _, g, _, sets = _build_context(args)  # no sets without --sets
    if args.gap:
        # gap_pieces checks the sets before _write_pieces truncates the file
        size = _write_pieces(args.gap, io_formats.gap_pieces(g, sets))
        print(f"wrote gap file {args.gap} ({size} bytes, {len(sets)} sets)")
    if args.edges:
        _write_pieces(args.edges, io_formats.edge_list_pieces(g))
        print(f"wrote edge list {args.edges} ({int(g.degrees().sum()) // 2} edges)")
    return EXIT_OK


def _cache_arg(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("empty path: pass --cache alone for the default file")
    return text


def _add_common(p: argparse.ArgumentParser, run, reads=(), writes=()) -> None:
    """Declare a command with its parser: `run` is its handler, and `reads`
    and `writes` name the arguments that hold the files it reads and writes
    (see `_build_context`).  A command that names a file of either kind
    takes `--byteorder`, the entry byte order of its `.dat` files."""
    p.set_defaults(run=run, reads=reads, writes=writes, usage_error=p.error)
    p.add_argument("--generators", help="generator matrix file (12 lines of 24 '0'/'1')")
    p.add_argument(
        "--cache",
        nargs="?",
        const=True,  # no argv string equals it, so a file may be named "auto"
        type=_cache_arg,
        help="reuse/write a graph cache file (default location under "
        "$SRG2048_CACHE_DIR or ~/.cache/srg2048)",
    )
    if reads or writes:
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


def _int_at_least(floor: int):
    """The argparse type of an integer option whose least value is `floor`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srg2048",
        description="Build, verify and explore the Golay-coset srg(2048,276,44,36).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build the graph (optionally into a cache)")
    _add_common(p, cmd_build)

    p = sub.add_parser("verify", help="verify code, representatives and srg parameters")
    _add_common(p, cmd_verify)

    for name, text, floor in (
        ("check", "check the vertex sets in a .dat file", LARGE_SET_FLOOR),
        ("invariants", "like check, pair invariant for every set", 0),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("dat", nargs="?", help="path to the vertex-set container")
        p.set_defaults(invariant_floor=floor)
        _add_common(p, cmd_check, reads=("dat",))

    p = sub.add_parser("search", help="search maximal cocliques and write a .dat file")
    p.add_argument("--out", help="output .dat path")
    p.add_argument(
        "--sizes",
        type=_size_targets_arg,
        default="20-40",
        help="targets, e.g. 20-40, 72 or 20,25-30 (default 20-40)",
    )
    p.add_argument("--seed", type=_int_at_least(0), default=coclique.DEFAULT_SEED)
    p.add_argument("--budget", type=_int_at_least(1), default=coclique.DEFAULT_BUDGET)
    _add_common(p, cmd_search, writes=("out",))

    p = sub.add_parser("export", help="write the GAP file and/or an edge list")
    p.add_argument("--sets", help=".dat file whose sets go into the MIS list")
    p.add_argument("--gap", help="output path of the GAP text file")
    p.add_argument("--edges", help="output path of the plain edge list")
    _add_common(p, cmd_export, reads=("sets",), writes=("gap", "edges"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except FormatError as exc:
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
    """The console entry point: `main`, then exit without interpreter teardown.

    Every file a command writes is closed before `main` returns, so only the
    standard streams are flushed before `os._exit`.  A stdout that cannot take
    the rest of the output is a file error, as it is while a command prints.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:  # a full device or a closed pipe
        code = EXIT_FORMAT
        with contextlib.suppress(OSError):
            print(f"file error: {exc}", file=sys.stderr)
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
