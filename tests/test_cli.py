import errno
import hashlib
import importlib
import importlib.util
import io
import os
import re
import resource
import shutil
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from srg2048 import cli, coset_graph, golay, io_formats
from srg2048.cli import (
    CACHE_MAGIC,
    EXIT_DISTANCE,
    EXIT_FORMAT,
    EXIT_OK,
    EXIT_VERIFY,
    load_graph_cache,
    main,
    parse_size_targets,
    save_graph_cache,
)
from srg2048.coclique import VertexSet
from srg2048.golay import DEFAULT_GENERATOR_ROWS
from srg2048.io_formats import read_dat, write_dat

from oracles import PINS, POOL_DAT, neighbors


def test_parse_size_targets():
    assert parse_size_targets("20-23") == (20, 21, 22, 23)
    assert parse_size_targets("72") == (72,)
    assert parse_size_targets("20,25-26") == (20, 25, 26)
    with pytest.raises(ValueError):
        parse_size_targets("")
    with pytest.raises(ValueError, match="not a size"):
        parse_size_targets("abc")
    with pytest.raises(ValueError, match="empty range"):
        parse_size_targets("40-20")
    with pytest.raises(ValueError, match="out of range"):
        parse_size_targets("0-3000")
    assert parse_size_targets("85") == (85,)
    assert parse_size_targets("8") == (8,)
    with pytest.raises(ValueError, match="out of range"):
        parse_size_targets("7")
    with pytest.raises(ValueError, match="out of range"):
        parse_size_targets("86")


# rejected while parsing, so before the graph is built
@pytest.mark.parametrize(
    "sizes, message",
    [
        ("abc", "not a size"),
        ("40-20", "empty range"),
        ("0-3000", "out of range"),
        ("85-86", "out of range"),
        ("1-7", "out of range"),
        ("20-21 --budget 0", "at least 1"),
        ("20-21 --budget x", "not an integer"),
    ],
)
def test_search_bad_sizes_is_usage_error(capsys, sizes, message):
    argv = ["search", "--sizes", *sizes.split()]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert argv[-2] in err and message in err
    assert "Traceback" not in err


def test_search_refuses_a_negative_seed(tmp_path, capsys):
    # a usage error, not the search of the seed's absolute value
    out = tmp_path / "F"
    with pytest.raises(SystemExit) as info:
        main(["search", "--sizes", "30-34", "--budget", "300", "--seed", "-5", "--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: must be at least 0, got -5" in err
    assert not out.exists()


def test_search_reports_coverage_and_large_sets(capsys):
    assert main(["search", "--sizes", "20-72", "--budget", "3000", "--seed", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "missing sizes: 21 23 56 58 59 60 61 62 63 66 67 68 69 70 71" in out
    row = "X.X.XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX.X......XX......X"
    assert f"coverage 20-72: {row} (38 of 53 sizes)" in out
    # the one set of size >= 72, described as `check` describes it
    assert (
        "set 38: size 72, coclique yes, maximal yes, "
        "profile 8:480 10:960 12:536, pair invariant 336\n"
    ) in out


def test_traced_names_exist():
    """Every function the benchmark's tracer patches is still there."""
    path = Path(__file__).resolve().parents[1] / "srgbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("srgbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for table in (spans.TRACED, spans.GRAPH_SOURCES):
        for module_name, names in table.items():
            module = importlib.import_module(f"srg2048.{module_name}")
            for name in names:
                assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_verify_command(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "codewords: 4096" in out
    assert "weight distribution: 0:1 8:759 12:2576 16:759 24:1" in out
    assert "representatives: 2048 (weight 0: 1, weight 2: 276, weight 4: 1771)" in out
    assert "srg parameters: (2048, 276, 44, 36)" in out
    assert "delsarte bound: 85" in out
    assert "all checks passed" in out


def test_verify_exits_5_when_the_distance_guard_fires(monkeypatch, capsys, code_missing_an_octad):
    monkeypatch.setattr(golay, "build_code", lambda generators=None: code_missing_an_octad)
    assert main(["verify"]) == EXIT_DISTANCE
    assert "invalid distance" in capsys.readouterr().err


def test_verify_rejects_corrupted_generators(tmp_path, capsys):
    rows = list(DEFAULT_GENERATOR_ROWS)
    # flip one character: still full rank, no longer the right weight census
    rows[0] = rows[0][:18] + ("1" if rows[0][18] == "0" else "0") + rows[0][19:]
    path = tmp_path / "bad_gens.txt"
    path.write_text("\n".join(rows) + "\n")
    assert main(["verify", "--generators", str(path)]) == EXIT_VERIFY
    err = capsys.readouterr().err
    assert "weight distribution mismatch" in err


def _malformed_generator_file(kind):
    rows = [row.encode() for row in DEFAULT_GENERATOR_ROWS]
    if kind == "bad character":
        rows[3] = rows[3][:5] + b"2" + rows[3][6:]
    elif kind == "line length":
        rows[3] = rows[3][:-1]
    elif kind == "row count":
        rows = rows[:11]
    else:  # "non-ASCII"
        return b"\xff\xfe10\n"
    return b"\n".join(rows) + b"\n"


@pytest.mark.parametrize("kind", ["bad character", "line length", "row count", "non-ASCII"])
def test_malformed_generator_file_is_format_error(tmp_path, capsys, kind):
    path = tmp_path / "gens.txt"
    path.write_bytes(_malformed_generator_file(kind))
    assert main(["verify", "--generators", str(path)]) == EXIT_FORMAT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("format error: ")
    assert captured.err.count("\n") == 1
    if kind in ("bad character", "line length"):  # the bad row is the 4th line
        assert captured.err.startswith(f"format error: {path}: line 4: ")


def test_search_then_check_roundtrip(tmp_path, capsys):
    out = tmp_path / "sets.dat"
    rc = main(["search", "--sizes", "28-31", "--budget", "2000", "--seed", "5",
               "--out", str(out)])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "achieved sizes: 28 29 30 31" in text
    assert "missing sizes: none" in text

    assert main(["check", str(out)]) == EXIT_OK
    report = capsys.readouterr().out
    assert "coclique yes, maximal yes" in report
    assert "0 failures" in report


def test_search_deterministic_output(tmp_path):
    a = tmp_path / "a.dat"
    b = tmp_path / "b.dat"
    for path in (a, b):
        assert main(["search", "--sizes", "30-32", "--budget", "1500",
                     "--seed", "9", "--out", str(path)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_search_out_fails_before_the_build(tmp_path, monkeypatch, capsys):
    def no_build(code, reps):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(coset_graph, "build_graph", no_build)
    out = tmp_path / "no" / "such" / "dir" / "s.dat"
    assert main(["search", "--out", str(out)]) == EXIT_FORMAT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("file error: ")


@pytest.mark.parametrize("bad", ["--gap", "--edges"])
def test_export_paths_fail_before_the_build(tmp_path, monkeypatch, capsys, bad):
    def no_build(code, reps):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(coset_graph, "build_graph", no_build)
    good = tmp_path / "good.txt"
    good.write_bytes(b"kept\n")
    other = "--edges" if bad == "--gap" else "--gap"
    argv = ["export", other, str(good), bad, str(tmp_path / "no" / "such" / "dir" / "x")]
    assert main(argv) == EXIT_FORMAT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("file error: ")
    assert good.read_bytes() == b"kept\n"  # opened for appending or not at all


def test_export_sets_fail_before_the_outputs_and_the_build(tmp_path, monkeypatch, capsys):
    def no_build(code, reps):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(coset_graph, "build_graph", no_build)
    gap = tmp_path / "g.g"
    argv = ["export", "--sets", str(tmp_path / "no" / "such" / "dir" / "x.dat"), "--gap", str(gap)]
    assert main(argv) == EXIT_FORMAT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("file error: ")
    assert not gap.exists()


def test_export_refuses_a_malformed_container_before_the_outputs_and_the_build(
    tmp_path, monkeypatch, capsys
):
    def no_build(code, reps):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(coset_graph, "build_graph", no_build)
    bad = tmp_path / "dup.dat"  # a duplicate in the first record, then a bad size (99)
    bad.write_bytes(b"\x02\x00\x00\x00\x00\x00\x00\x63")
    gap, edges = tmp_path / "g.g", tmp_path / "e.txt"
    argv = ["export", "--sets", str(bad), "--gap", str(gap), "--edges", str(edges)]
    assert main(argv) == EXIT_FORMAT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "format error: duplicate entry for vertex 0 in one record (at byte offset 0)\n"
    )
    assert not gap.exists() and not edges.exists()


@pytest.mark.parametrize("sets", [[], ["--sets", "absent.dat"]])
def test_export_without_outputs_is_usage_error(tmp_path, monkeypatch, capsys, sets):
    """Raised before the --sets container is read or the graph is built."""
    def no_build(code, reps):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(coset_graph, "build_graph", no_build)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["export", *sets])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nothing to export: pass --gap and/or --edges" in captured.err


def test_check_flags_non_coclique(tmp_path, capsys):
    # vertex 0 and its first neighbour: encodings 0 and 3 (both representatives)
    bad = tmp_path / "bad.dat"
    bad.write_bytes(bytes([0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00]))
    assert main(["check", str(bad)]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "coclique no" in out
    assert "1 failures" in out


def test_check_flags_format_error(tmp_path, capsys):
    bad = tmp_path / "trunc.dat"
    bad.write_bytes(bytes([0x05, 0x00]))
    assert main(["check", str(bad)]) == EXIT_FORMAT
    assert "format error" in capsys.readouterr().err


def test_invariants_reports_all_sets(tmp_path, capsys):
    out = tmp_path / "sets.dat"
    assert main(["search", "--sizes", "30", "--budget", "1500", "--seed", "4",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["invariants", str(out)]) == EXIT_OK
    report = capsys.readouterr().out
    assert "pair invariant" in report


def test_export_gap_and_edges(tmp_path, capsys):
    gap = tmp_path / "graph.g"
    edges = tmp_path / "edges.txt"
    assert main(["export", "--gap", str(gap), "--edges", str(edges)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "wrote gap file" in out
    assert "wrote edge list" in out
    text = gap.read_text()
    assert 'LoadPackage("grape");;' in text
    assert text.endswith("function(x,y) return (x in A[y]); end, true);\n")
    first = edges.read_text().split("\n", 1)[0]
    assert first.split()[0].isdigit()


def test_build_with_cache(tmp_path, capsys, code, reps, graph):
    import numpy as np

    from srg2048.cli import load_graph_cache

    cache = tmp_path / "graph.npz"
    assert main(["build", "--cache", str(cache)]) == EXIT_OK
    assert cache.exists()
    capsys.readouterr()
    # the cache must actually load back, bit-identical to a fresh build
    cached = load_graph_cache(str(cache), code, reps)
    assert cached is not None
    assert np.array_equal(cached.packed, graph.packed)
    # second run goes through the cache and reports the same structure
    assert main(["build", "--cache", str(cache)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "edges: 282624" in out


def test_stale_cache_is_rebuilt(tmp_path, code, reps, graph):
    from srg2048.cli import load_graph_cache, save_graph_cache

    cache = tmp_path / "graph.npz"
    save_graph_cache(str(cache), graph, code)
    payload = cache.read_bytes()
    cache.write_bytes(payload[:-7])  # corrupt the archive
    assert load_graph_cache(str(cache), code, reps) is None


def _cache_bytes(generators, packed, magic=CACHE_MAGIC):
    """The bytes of a cache file, laid out as documented: magic, generators
    and the CRC-32 of the rows as little-endian uint32, rows."""
    rows = packed.tobytes()
    head = magic + np.array([*generators, zlib.crc32(rows)], dtype="<u4").tobytes()
    return head + rows


def _write_raw_cache(path, code, packed):
    """A cache file whose digest matches whatever rows it holds."""
    path.write_bytes(_cache_bytes(code.generators, packed))


def _corrupt_rows(graph, kind):
    if kind == "shape":
        return np.zeros((10, 3), dtype=np.uint8)
    if kind == "dtype":
        return graph.packed.astype(np.uint16)
    packed = graph.packed.copy()
    if kind == "loop":  # vertex 0 joined to itself, cut from its first neighbour
        packed[0, 0] |= 1
        nb = int(neighbors(graph, 0)[0])
        packed[0, nb >> 3] &= ~np.uint8(1 << (nb & 7))
    elif kind == "asymmetric":  # one bit of row 0 moved: every degree is kept
        nb = int(neighbors(graph, 0)[0])
        other = int(np.flatnonzero(~graph.row_bits(0))[1])  # [0] is vertex 0
        packed[0, nb >> 3] &= ~np.uint8(1 << (nb & 7))
        packed[0, other >> 3] |= np.uint8(1 << (other & 7))
    else:  # "degree": the edge {0, 2047} toggled in both rows, so still symmetric
        packed[0, 255] ^= 0x80
        packed[2047, 0] ^= 0x01
    return packed


@pytest.mark.parametrize("kind", ["shape", "dtype", "loop", "asymmetric", "degree"])
def test_malformed_cache_is_rejected(tmp_path, code, reps, graph, kind):
    cache = tmp_path / "graph.npz"
    _write_raw_cache(cache, code, _corrupt_rows(graph, kind))
    assert load_graph_cache(str(cache), code, reps) is None


def test_misshapen_cache_is_rebuilt_by_verify(tmp_path, capsys, code, reps, graph):
    cache = tmp_path / "graph.npz"
    _write_raw_cache(cache, code, _corrupt_rows(graph, "shape"))
    assert main(["verify", "--cache", str(cache)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "all checks passed" in captured.out
    assert "Traceback" not in captured.err
    rebuilt = load_graph_cache(str(cache), code, reps)
    assert rebuilt is not None
    assert np.array_equal(rebuilt.packed, graph.packed)


def test_asymmetric_cache_is_rebuilt_by_verify(tmp_path, capsys, code, reps, graph):
    cache = tmp_path / "graph.npz"
    packed = _corrupt_rows(graph, "asymmetric")
    assert (np.bitwise_count(packed).sum(axis=1) == 276).all()
    _write_raw_cache(cache, code, packed)
    assert main(["verify", "--cache", str(cache)]) == EXIT_OK
    assert "all checks passed" in capsys.readouterr().out
    rebuilt = load_graph_cache(str(cache), code, reps)
    assert rebuilt is not None
    assert np.array_equal(rebuilt.packed, graph.packed)


def test_cache_rows_must_match_their_digest(tmp_path, code, reps, graph):
    """Vertices 1 and 2 swapped: rows of the same srg, which pass every other
    check, so only the stored digest tells them from the written ones."""
    bits = np.unpackbits(graph.packed, axis=1, bitorder="little")
    perm = np.arange(graph.n)
    perm[[1, 2]] = [2, 1]
    swapped = np.packbits(bits[perm][:, perm], axis=1, bitorder="little")
    assert not np.array_equal(swapped, graph.packed)
    cache = tmp_path / "graph.npz"
    cache.write_bytes(_cache_bytes(code.generators, graph.packed)[:68] + swapped.tobytes())
    assert load_graph_cache(str(cache), code, reps) is None
    _write_raw_cache(cache, code, swapped)
    assert np.array_equal(load_graph_cache(str(cache), code, reps).packed, swapped)


def test_cache_is_written_uncompressed(tmp_path, code, graph):
    """The file is the 68-byte head and then the rows, byte for byte."""
    cache = tmp_path / "graph.npz"
    save_graph_cache(str(cache), graph, code)
    assert cache.read_bytes() == _cache_bytes(code.generators, graph.packed)


def test_cache_write_is_atomic(tmp_path, monkeypatch, code, graph):
    cache = tmp_path / "graph.npz"
    save_graph_cache(str(cache), graph, code)
    good = cache.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["graph.npz"]

    class DiskFull(io.FileIO):
        def write(self, data):
            super().write(bytes(data)[:1000])
            raise OSError("disk full")

    monkeypatch.setattr(os, "fdopen", DiskFull)
    with pytest.raises(OSError, match="disk full"):
        save_graph_cache(str(cache), graph, code)
    # the old file is untouched and the temporary file is gone
    assert cache.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["graph.npz"]


def test_workers_option_is_removed(capsys):
    with pytest.raises(SystemExit) as info:
        main(["search", "--sizes", "30", "--budget", "800", "--seed", "4", "--workers", "4"])
    assert info.value.code == 2
    assert "unrecognized arguments: --workers 4" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "invariants"])
def test_container_may_follow_a_bare_cache_flag(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("SRG2048_CACHE_DIR", str(tmp_path))
    pool = str(Path(__file__).resolve().parents[1] / "srgbench" / "pool.dat")
    outputs = []
    for argv in ([command, "--cache", pool], [command, pool, "--cache"]):
        assert main(argv) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "checked 142 sets" in outputs[0]
    assert [p.suffix for p in tmp_path.iterdir()] == [".bin"]


def test_default_cache_file_is_named_for_its_format(tmp_path, monkeypatch, capsys):
    # a fixed-layout binary file, not an npz archive
    monkeypatch.setenv("SRG2048_CACHE_DIR", str(tmp_path))
    assert main(["verify", "--cache"]) == EXIT_OK
    names = [p.name for p in tmp_path.iterdir()]
    assert len(names) == 1
    assert re.fullmatch(r"graph-[0-9a-f]{8}\.bin", names[0])


@pytest.mark.parametrize("command", ["build", "verify", "check"])
def test_empty_cache_value_is_usage_error(tmp_path, monkeypatch, capsys, command):
    """An empty --cache= would turn the cache off without a word."""
    def no_build(code, reps):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(coset_graph, "build_graph", no_build)
    monkeypatch.setenv("SRG2048_CACHE_DIR", str(tmp_path))
    pool = str(Path(__file__).resolve().parents[1] / "srgbench" / "pool.dat")
    with pytest.raises(SystemExit) as info:
        main([command, *([pool] if command == "check" else []), "--cache="])
    assert info.value.code == 2
    assert "argument --cache: empty path" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["check"], ["check", "--cache"], ["invariants", "--cache"]])
def test_check_without_container_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "the following arguments are required: dat" in capsys.readouterr().err


# ---------------------------------------------- outputs of the check path

POOL = str(POOL_DAT)

# sha256 of each output for the 142 sets of srgbench/pool.dat
POOL_DIGESTS = {
    "invariants": PINS["invariants"],
    "check": PINS["check"],
    "gap": PINS["gap"],
    "edges": PINS["edges"],
}
# sha256 of each output for tests/data/mixed.dat: an adjacent pair, a size-71
# coclique that is not maximal, the first size-72 set of pool.dat, and
# pool.dat's first set
MIXED = str(Path(__file__).resolve().parent / "data" / "mixed.dat")
MIXED_DIGESTS = {
    "invariants": "9bff8b6d069f6d671389695d6666bef45f440dab6341b523dd2d0f8c3af95cf1",
    "check": PINS["mixed-check"],
}
VERIFY_DIGEST = PINS["verify"]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", ["generators-nonsystematic.txt", "generators-bench-seed1.txt"])
def test_verify_report_is_pinned_for_other_generator_matrices(monkeypatch, capsys, graph, name):
    """An equivalent code gives the same report from other adjacency rows,
    so verify_srg checks another graph's products."""
    built = []
    build = coset_graph.build_graph

    def spy(code, reps):
        built.append(build(code, reps))
        return built[-1]

    monkeypatch.setattr(coset_graph, "build_graph", spy)
    assert main(["verify", "--generators", str(Path(MIXED).parent / name)]) == EXIT_OK
    assert _sha256(capsys.readouterr().out) == VERIFY_DIGEST
    assert not np.array_equal(built[0].packed, graph.packed)


def test_a_file_named_auto_is_a_path_like_any_other(tmp_path, monkeypatch, capsys, pool_cache):
    """Only a bare --cache means the default file: `build --cache auto` loads
    the cache file ./auto, and `check --cache auto` reads the container ./auto."""
    monkeypatch.setenv("SRG2048_CACHE_DIR", str(tmp_path / "default"))
    monkeypatch.chdir(tmp_path)
    shutil.copyfile(pool_cache, "auto")
    assert main(["build", "--cache", "auto"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("cache: auto\n")
    assert not (tmp_path / "default").exists()
    shutil.copyfile(POOL, "auto")
    assert main(["check", "--cache", "auto"]) == EXIT_OK
    assert _sha256(capsys.readouterr().out) == POOL_DIGESTS["check"]
    assert [p.suffix for p in (tmp_path / "default").iterdir()] == [".bin"]


@pytest.fixture(scope="module")
def pool_cache(tmp_path_factory, code, graph):
    path = tmp_path_factory.mktemp("pool") / "graph.npz"
    save_graph_cache(str(path), graph, code)
    return str(path)


@pytest.mark.parametrize("command", ["invariants", "check"])
def test_check_path_output_is_pinned(capsys, pool_cache, command):
    assert main([command, POOL, "--cache", pool_cache]) == EXIT_OK
    assert _sha256(capsys.readouterr().out) == POOL_DIGESTS[command]


def _big_endian_pool(tmp_path, reps) -> Path:
    big = tmp_path / "pool-big.dat"
    big.write_bytes(write_dat(read_dat(Path(POOL).read_bytes(), reps), reps, byteorder="big"))
    assert big.read_bytes() != Path(POOL).read_bytes()
    return big


@pytest.mark.parametrize("command", ["check", "invariants"])
def test_check_reads_a_big_endian_container(tmp_path, monkeypatch, capsys, reps, command):
    monkeypatch.setenv("SRG2048_CACHE_DIR", str(tmp_path))
    big = _big_endian_pool(tmp_path, reps)
    assert main([command, "--byteorder", "big", str(big), "--cache"]) == EXIT_OK
    assert _sha256(capsys.readouterr().out) == POOL_DIGESTS[command]


def test_search_writes_a_big_endian_container(tmp_path, capsys, pool_cache, reps):
    little, big = tmp_path / "little.dat", tmp_path / "big.dat"
    argv = ["search", "--sizes", "20-24", "--budget", "200", "--seed", "1", "--cache", pool_cache]
    assert main([*argv, "--out", str(little)]) == EXIT_OK
    assert main([*argv, "--byteorder", "big", "--out", str(big)]) == EXIT_OK
    assert big.read_bytes() != little.read_bytes()
    assert big.read_bytes() == write_dat(read_dat(little.read_bytes(), reps), reps, byteorder="big")


def test_export_reads_a_big_endian_container(tmp_path, capsys, pool_cache, reps):
    big, gap = _big_endian_pool(tmp_path, reps), tmp_path / "pool.g"
    argv = ["export", "--sets", str(big), "--byteorder", "big", "--gap", str(gap)]
    assert main([*argv, "--cache", pool_cache]) == EXIT_OK
    assert _sha256(gap.read_text()) == POOL_DIGESTS["gap"]


@pytest.mark.parametrize("command", ["build", "verify"])
def test_byteorder_is_a_usage_error_without_a_container(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--byteorder", "big"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --byteorder big" in captured.err


@pytest.mark.parametrize("command", ["invariants", "check"])
def test_check_path_output_on_failing_sets_is_pinned(capsys, pool_cache, command):
    assert main([command, MIXED, "--cache", pool_cache]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert out.endswith("checked 4 sets: 2 maximal cocliques, 2 failures\n")
    assert _sha256(out) == MIXED_DIGESTS[command]


def test_export_output_is_pinned(tmp_path, capsys, pool_cache):
    gap, edges = tmp_path / "pool.g", tmp_path / "edges.txt"
    argv = ["export", "--gap", str(gap), "--edges", str(edges), "--sets", POOL]
    assert main([*argv, "--cache", pool_cache]) == EXIT_OK
    assert capsys.readouterr().out == (
        f"wrote gap file {gap} (2554283 bytes, 142 sets)\n"
        f"wrote edge list {edges} (282624 edges)\n"
    )
    assert _sha256(gap.read_text()) == POOL_DIGESTS["gap"]
    assert _sha256(edges.read_text()) == POOL_DIGESTS["edges"]


def test_export_holds_no_whole_output_in_memory(tmp_path, capsys, pool_cache):
    gap, edges = tmp_path / "pool.g", tmp_path / "edges.txt"
    argv = ["export", "--gap", str(gap), "--edges", str(edges), "--sets", POOL, "--cache", pool_cache]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each text as a list of row strings and then their join, with the
    # encoded copy for the write, took 8.5 MiB; the cache load is 0.5 MiB
    assert peak < 4 * 2**20


# sha256 of the cache file of the default generators: 68 + 2048 * 256 bytes
CACHE_DIGEST = PINS["cache"]
CACHE_SIZE = 524_356


def test_cache_file_is_pinned(pool_cache):
    data = Path(pool_cache).read_bytes()
    assert len(data) == CACHE_SIZE
    assert hashlib.sha256(data).hexdigest() == CACHE_DIGEST


def test_cache_write_copies_no_rows(tmp_path, code, graph):
    path = tmp_path / "graph.bin"
    tracemalloc.start()
    try:
        save_graph_cache(str(path), graph, code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # `tobytes()` of the 512 KiB of rows and its concatenation to the head took 1 MiB
    assert peak < 128 * 2**10
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CACHE_DIGEST


# ------------------------------------------------------ malformed files


def _write_unreadable(path, code, graph, kind):
    if kind == "empty file":
        path.write_bytes(b"")
    elif kind == "bare npy":
        with open(path, "wb") as fh:
            np.save(fh, graph.packed)
    elif kind == "junk":  # the right length, but no header
        path.write_bytes(b"junk" * (CACHE_SIZE // 4))
    elif kind == "old version":
        path.write_bytes(_cache_bytes(code.generators, graph.packed, magic=b"srg2048 graph v1"))
    elif kind == "version 2":  # a 96-byte head ending in the sha256 of the rows
        rows = graph.packed.tobytes()
        head = b"srg2048 graph v2" + np.array(code.generators, dtype="<u4").tobytes()
        path.write_bytes(head + hashlib.sha256(rows).digest() + rows)
        assert path.stat().st_size == 524_384
    elif kind == "other generators":  # the same code, its rows in another order
        path.write_bytes(_cache_bytes(code.generators[::-1], graph.packed))
    else:  # "npz compressed", "npz uncompressed": the archive earlier versions wrote
        save = np.savez_compressed if kind == "npz compressed" else np.savez
        with open(path, "wb") as fh:
            save(
                fh,
                version=np.int64(1),
                generators=np.array(code.generators, dtype=np.uint32),
                packed=graph.packed,
                checksum=np.str_(hashlib.sha256(graph.packed.tobytes()).hexdigest()),
            )


@pytest.mark.parametrize(
    "kind",
    ["empty file", "bare npy", "junk", "old version", "version 2", "other generators",
     "npz compressed", "npz uncompressed"],
)
def test_unreadable_cache_is_rebuilt_by_verify(tmp_path, capsys, code, reps, graph, kind):
    """Every kind is a miss.  A file that starts with the cache magic (of
    any version) is replaced in place by the current layout; any other file
    is left as it was, with one stderr line, and verify's report and exit
    code are unchanged."""
    cache = tmp_path / "graph.npz"
    _write_unreadable(cache, code, graph, kind)
    before = cache.read_bytes()
    assert load_graph_cache(str(cache), code, reps) is None
    assert main(["verify", "--cache", str(cache)]) == EXIT_OK
    captured = capsys.readouterr()
    assert _sha256(captured.out) == VERIFY_DIGEST
    assert list(tmp_path.iterdir()) == [cache]
    if before.startswith(b"srg2048 graph v"):
        assert captured.err == ""
        assert hashlib.sha256(cache.read_bytes()).hexdigest() == CACHE_DIGEST
    else:
        assert captured.err == f"cache: write failed: {cache}: not a graph cache file\n"
        assert cache.read_bytes() == before


# sha256 of srgbench/pool.dat
POOL_FILE_DIGEST = PINS["pool-dat"]


def test_container_given_as_its_own_cache_is_left_alone(tmp_path, capsys):
    container = tmp_path / "P"
    container.write_bytes(Path(POOL).read_bytes())
    assert main(["check", str(container), "--cache", str(container)]) == EXIT_OK
    captured = capsys.readouterr()
    assert _sha256(captured.out) == POOL_DIGESTS["check"]
    assert captured.err == f"cache: write failed: {container}: not a graph cache file\n"
    assert hashlib.sha256(container.read_bytes()).hexdigest() == POOL_FILE_DIGEST


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--sets", "P", "--gap", "P"], "--gap P is the same file as --sets P"),
        (["--sets", "P", "--edges", "P"], "--edges P is the same file as --sets P"),
        (["--gap", "F", "--edges", "sub/../F"], "--edges sub/../F is the same file as --gap F"),
        (["--sets", "link", "--gap", "P"], "--gap P is the same file as --sets link"),
        (["--sets", "P", "--edges", "hard"], "--edges hard is the same file as --sets P"),
    ],
)
def test_export_refuses_to_write_over_its_input_or_its_other_output(
    tmp_path, monkeypatch, capsys, argv, message
):
    """A usage error before any file is read, created or truncated: earlier
    versions replaced the container P with the GAP text, and with
    `--gap F --edges F` left only the edge list in F."""
    def no_build(code, reps):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(coset_graph, "build_graph", no_build)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "P").write_bytes(Path(POOL).read_bytes())
    (tmp_path / "link").symlink_to("P")
    (tmp_path / "hard").hardlink_to("P")
    (tmp_path / "sub").mkdir()
    with pytest.raises(SystemExit) as info:
        main(["export", *argv])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert hashlib.sha256((tmp_path / "P").read_bytes()).hexdigest() == POOL_FILE_DIGEST
    assert not (tmp_path / "F").exists()


GENERATORS = str(Path(MIXED).parent / "generators-nonsystematic.txt")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["search", "--out", "G", "--generators", "G"], "--out G is the same file as --generators G"),
        (
            ["export", "--edges", "G", "--generators", "G"],
            "--edges G is the same file as --generators G",
        ),
        (["export", "--gap", "C", "--cache", "C"], "--gap C is the same file as --cache C"),
        (
            ["search", "--cache", "--out", "{default}"],
            "--out {default} is the same file as --cache {dir}/{default}",
        ),
    ],
    ids=["search-generators", "export-generators", "export-cache", "search-default-cache"],
)
def test_no_output_is_the_same_file_as_an_input(
    tmp_path, monkeypatch, capsys, code, pool_cache, argv, message
):
    """A usage error before the graph is loaded or built, for every command
    and every input: earlier versions replaced the generator rows G with the
    .dat bytes or the edge list, and a warm cache C with the GAP text."""
    def no_graph(*args):
        raise AssertionError("the graph was loaded or built")

    monkeypatch.setattr(coset_graph, "build_graph", no_graph)
    monkeypatch.setattr(cli, "load_graph_cache", no_graph)
    monkeypatch.setenv("SRG2048_CACHE_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    rows = np.array(code.generators, dtype="<u4").tobytes()
    default = f"graph-{zlib.crc32(rows):08x}.bin"
    shutil.copyfile(GENERATORS, tmp_path / "G")
    for name in ("C", default):
        shutil.copyfile(pool_cache, tmp_path / name)
    with pytest.raises(SystemExit) as info:
        main([arg.format(default=default) for arg in argv])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message.format(default=default, dir=tmp_path) in captured.err
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    generators_digest = hashlib.sha256(Path(GENERATORS).read_bytes()).hexdigest()
    assert digests == {"G": generators_digest, "C": CACHE_DIGEST, default: CACHE_DIGEST}


def test_export_refuses_a_set_beyond_the_graph_before_truncating(
    tmp_path, monkeypatch, capsys, pool_cache
):
    monkeypatch.setattr(io_formats, "read_dat", lambda data, reps, byteorder: [VertexSet((2, 2048))])
    gap = tmp_path / "g.g"
    gap.write_bytes(b"kept\n")
    assert main(["export", "--gap", str(gap), "--cache", pool_cache]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: set 1 contains vertex 2048, graph has 2048\n"
    assert gap.read_bytes() == b"kept\n"


def test_build_leaves_a_file_that_is_not_a_cache_alone(tmp_path, capsys):
    cache = tmp_path / "E"
    cache.write_bytes(b"")
    assert main(["build", "--cache", str(cache)]) == EXIT_FORMAT
    captured = capsys.readouterr()
    assert "edges: 282624" in captured.out
    assert "cache:" not in captured.out
    assert captured.err == f"cache: write failed: {cache}: not a graph cache file\n"
    assert cache.read_bytes() == b""
    assert list(tmp_path.iterdir()) == [cache]


@pytest.mark.parametrize(
    "blocked, reason",
    [("directory", "Is a directory"), ("file_as_parent", "Not a directory")],
    ids=["directory", "file_as_parent"],
)
def test_unwritable_cache_is_reported_and_verify_goes_on(
    tmp_path, capsys, code, reps, blocked, reason
):
    """Read as a miss; the rebuilt graph cannot be written, which is one
    stderr line and no change to the exit code or the report."""
    blocker = tmp_path / "graph.npz"
    if blocked == "directory":
        blocker.mkdir()
        cache = blocker
    else:  # a regular file where a directory above the cache should be
        blocker.write_bytes(b"")
        cache = blocker / "cache" / "graph.npz"
    assert load_graph_cache(str(cache), code, reps) is None
    assert main(["verify", "--cache", str(cache)]) == EXIT_OK
    captured = capsys.readouterr()
    assert _sha256(captured.out) == VERIFY_DIGEST
    assert captured.err == f"cache: write failed: {cache}: {reason}\n"
    # no temporary file is left behind, and the blocker is untouched
    assert list(tmp_path.iterdir()) == [blocker]
    if blocked == "directory":
        assert not any(blocker.iterdir())
    else:
        assert blocker.read_bytes() == b""


def test_build_fails_when_its_cache_cannot_be_written(tmp_path, capsys):
    cache = tmp_path / "graph.npz"
    cache.mkdir()
    assert main(["build", "--cache", str(cache)]) == EXIT_FORMAT
    captured = capsys.readouterr()
    assert "edges: 282624" in captured.out
    assert "cache:" not in captured.out
    assert captured.err == f"cache: write failed: {cache}: Is a directory\n"


def test_cold_commands_do_not_import_numpy_ma():
    """np.unique imports numpy.ma (about 1 MiB and 20 ms a process); a fresh
    interpreter keeps pytest's own imports out of the check."""
    script = (
        "import sys\n"
        "import srg2048.cli\n"
        "from srg2048 import coset_graph, golay\n"
        "code, reps = golay.build_code(), coset_graph.build_reps()\n"
        "coset_graph.check_rep_uniqueness(code, reps)\n"
        "coset_graph.verify_srg(coset_graph.build_graph(code, reps))\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(golay.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", script], env=env).returncode == 0


def test_no_command_loads_openssl_or_decimal(tmp_path):
    """hashlib's OpenSSL backend adds about 3.6 MiB to a process's peak RSS
    and `fractions` loads `_decimal`: the cache is digested with zlib's CRC-32
    and the ratio bound taken in integers, so no command, with the cache or
    without, the default-named file included, loads either.  One fresh
    interpreter runs them all, which keeps pytest's own imports out."""
    cache, gap = tmp_path / "C", tmp_path / "g.g"
    runs = [
        ["search", "--sizes", "20", "--budget", "1"],
        ["build", "--cache", cache],
        ["verify", "--cache"],
        ["search", "--sizes", "20", "--budget", "1", "--cache", cache],
        ["check", POOL, "--cache", cache],
        ["invariants", POOL, "--cache", cache],
        ["export", "--gap", gap, "--sets", POOL, "--cache", cache],
    ]
    script = (
        "import sys\n"
        "from srg2048.cli import main\n"
        f"for argv in {[[str(a) for a in argv] for argv in runs]!r}:\n"
        "    code = main(argv)\n"
        "    loaded = [m for m in ('_hashlib', '_decimal') if m in sys.modules]\n"
        "    print(argv[0], code, *loaded, file=sys.stderr)\n"
    )
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(golay.__file__).parents[1]),
        SRG2048_CACHE_DIR=str(tmp_path / "default"),
    )
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines() == [f"{argv[0]} {EXIT_OK}" for argv in runs]
    assert run.stdout.count("coverage 20-20: . (0 of 1 sizes)") == 2
    assert [p.suffix for p in (tmp_path / "default").iterdir()] == [".bin"]
    assert cache.stat().st_size == CACHE_SIZE
    assert gap.stat().st_size > 0


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    kind=st.sampled_from(["truncate", "change", "append", "rows", "symmetric rows"]),
    offset=st.integers(0, CACHE_SIZE - 1),
    other=st.integers(0, 2047),
    extra=st.binary(min_size=1, max_size=64),
)
def test_fuzzed_cache_fields_load_or_are_rejected(
    tmp_path, code, reps, graph, pool_cache, kind, offset, other, extra
):
    """A valid file truncated, with one byte changed or with bytes appended
    gives None; so do rows changed under a recomputed digest: one bit, which
    the loop or symmetry check rejects, or a bit and its mirror, which the
    degree check rejects."""
    cache = tmp_path / "graph.npz"
    data = bytearray(Path(pool_cache).read_bytes())
    if kind == "truncate":
        del data[offset:]
    elif kind == "change":
        data[offset] ^= 1 + extra[0] % 255
    elif kind == "append":
        data += extra
    else:
        packed = graph.packed.copy()
        u = offset % 2048
        packed[u, other >> 3] ^= np.uint8(1 << (other & 7))
        if kind == "symmetric rows" and u != other:
            packed[other, u >> 3] ^= np.uint8(1 << (u & 7))
        data = _cache_bytes(code.generators, packed)
    cache.write_bytes(data)
    assert load_graph_cache(str(cache), code, reps) is None


# ------------------------------------------------------------- entry points


def test_build_and_search_print_the_same_report_on_every_run(tmp_path, capsys, pool_cache):
    """Fixed arguments give byte-identical stdout: no wall-clock figure, so a
    cache miss and the hit after it report alike."""
    runs = [
        ["build", "--cache", str(tmp_path / "graph.bin")],
        ["search", "--sizes", "20-24", "--budget", "200", "--seed", "1", "--cache", pool_cache],
    ]
    for argv in runs:
        outs = []
        for _ in range(2):
            assert main(argv) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert not re.search(r"\d\.\d+s\b", outs[0])


# the child's address-space cap: an unbounded read fails there as a MemoryError
# within seconds instead of exhausting the machine's memory
CONSOLE_MEMORY = 1 << 30


def _cap_memory():
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = CONSOLE_MEMORY if hard == resource.RLIM_INFINITY else min(CONSOLE_MEMORY, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _console(tmp_path, *argv, stdout=subprocess.PIPE):
    # stdout block-buffered, as in a shell, so the entry point's own flush writes what is left
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(Path(golay.__file__).parents[1]), SRG2048_CACHE_DIR=str(tmp_path / "cache"))
    # OpenBLAS reserves about 40 MiB of address space per thread, so on a many-core
    # host its default thread count alone would pass the cap
    env.update(OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "srg2048", *argv],
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=_cap_memory,
    )


def test_python_m_verify_prints_the_pinned_report(tmp_path):
    run = _console(tmp_path, "verify")
    assert run.returncode == EXIT_OK, run.stderr
    assert _sha256(run.stdout) == PINS["verify"]


def test_python_m_pipes_a_large_report_whole(tmp_path):
    """The entry point exits without teardown: the 18 kB report, more than
    stdout's buffer holds, still reaches the pipe whole."""
    run = _console(tmp_path, "invariants", POOL)
    assert run.returncode == EXIT_OK, run.stderr
    assert _sha256(run.stdout) == PINS["invariants"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_python_m_reports_a_stdout_it_cannot_flush(tmp_path):
    """The verify report stays in stdout's buffer until the entry point
    flushes it; a write that fails there is a file error on one line."""
    with open("/dev/full", "w") as full:
        run = _console(tmp_path, "verify", stdout=full)
    assert run.returncode == EXIT_FORMAT
    assert run.stderr == f"file error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


def test_python_m_refuses_an_option_its_command_lacks(tmp_path):
    run = _console(tmp_path, "verify", "--byteorder", "big")
    assert run.returncode == 2
    assert run.stdout == ""
    assert "unrecognized arguments: --byteorder big" in run.stderr


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs an endless device")
def test_python_m_refuses_an_endless_generator_file(tmp_path):
    """An endless --generators input is refused after GENERATOR_FILE_LIMIT
    characters, before the graph is built, not read until memory runs out."""
    run = _console(tmp_path, "verify", "--generators", "/dev/zero")
    assert run.returncode == EXIT_FORMAT
    assert run.stdout == ""
    assert run.stderr == f"format error: /dev/zero: longer than {golay.GENERATOR_FILE_LIMIT} characters\n"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs an endless device")
@pytest.mark.parametrize(
    "argv",
    [["check", "/dev/zero"], ["invariants", "/dev/zero"], ["export", "--sets", "/dev/zero", "--gap", "graph.g"]],
    ids=["check", "invariants", "export"],
)
def test_python_m_refuses_an_endless_container(tmp_path, argv):
    """An endless container is refused at its first faulty record, here its
    first size byte, before any output exists, not read until memory runs out."""
    run = _console(tmp_path, *(str(tmp_path / a) if a == "graph.g" else a for a in argv))
    assert run.returncode == EXIT_FORMAT
    assert run.stdout == ""
    assert run.stderr == "format error: set size 0 is not in the range from 2 to 85 (at byte offset 0)\n"
    assert not any(tmp_path.iterdir())


def test_python_m_reports_an_absent_container_on_one_line(tmp_path):
    run = _console(tmp_path, "check", str(tmp_path / "absent.dat"))
    assert run.returncode == EXIT_FORMAT
    assert run.stdout == ""
    assert len(run.stderr.splitlines()) == 1
    assert run.stderr.startswith("file error:")
