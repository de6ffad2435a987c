import hashlib

import numpy as np
import pytest

from srg2048.cli import (
    CACHE_VERSION,
    EXIT_FORMAT,
    EXIT_OK,
    EXIT_VERIFY,
    load_graph_cache,
    main,
    parse_size_targets,
    save_graph_cache,
)
from srg2048.golay import DEFAULT_GENERATOR_ROWS


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


@pytest.mark.parametrize(
    "sizes, message", [("abc", "not a size"), ("40-20", "empty range")]
)
def test_search_bad_sizes_is_usage_error(capsys, sizes, message):
    with pytest.raises(SystemExit) as info:
        main(["search", "--sizes", sizes])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--sizes" in err and message in err
    assert "Traceback" not in err


def test_verify_command(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "codewords: 4096" in out
    assert "weight distribution: 0:1 8:759 12:2576 16:759 24:1" in out
    assert "representatives: 2048 (weight 0: 1, weight 2: 276, weight 4: 1771)" in out
    assert "srg parameters: (2048, 276, 44, 36)" in out
    assert "delsarte bound: 85" in out
    assert "all checks passed" in out


def test_verify_rejects_corrupted_generators(tmp_path, capsys):
    rows = list(DEFAULT_GENERATOR_ROWS)
    # flip one character: still full rank, no longer the right weight census
    rows[0] = rows[0][:18] + ("1" if rows[0][18] == "0" else "0") + rows[0][19:]
    path = tmp_path / "bad_gens.txt"
    path.write_text("\n".join(rows) + "\n")
    assert main(["verify", "--generators", str(path)]) != EXIT_OK
    err = capsys.readouterr().err
    assert "weight distribution mismatch" in err


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


def _write_raw_cache(path, code, packed):
    """A cache file whose checksum matches whatever rows it holds."""
    with open(path, "wb") as fh:
        np.savez_compressed(
            fh,
            version=np.int64(CACHE_VERSION),
            generators=np.array(code.generators, dtype=np.uint32),
            packed=packed,
            checksum=np.str_(hashlib.sha256(packed.tobytes()).hexdigest()),
        )


def _corrupt_rows(graph, kind):
    if kind == "shape":
        return np.zeros((10, 3), dtype=np.uint8)
    if kind == "dtype":
        return graph.packed.astype(np.uint16)
    packed = graph.packed.copy()
    if kind == "loop":  # vertex 0 joined to itself, cut from its first neighbour
        packed[0, 0] |= 1
        nb = int(np.flatnonzero(graph.adjacency_bool()[0])[0])
        packed[0, nb >> 3] &= ~np.uint8(1 << (nb & 7))
    else:  # "degree": row 0 gains or loses vertex 2047
        packed[0, 255] ^= 0x80
    return packed


@pytest.mark.parametrize("kind", ["shape", "dtype", "loop", "degree"])
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


def test_cache_write_is_atomic(tmp_path, monkeypatch, code, graph):
    cache = tmp_path / "graph.npz"
    save_graph_cache(str(cache), graph, code)
    good = cache.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["graph.npz"]

    def fail_midway(fh, **arrays):
        fh.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez_compressed", fail_midway)
    with pytest.raises(OSError, match="disk full"):
        save_graph_cache(str(cache), graph, code)
    # the old file is untouched and the temporary file is gone
    assert cache.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["graph.npz"]


def test_search_notes_single_threaded(tmp_path, capsys):
    assert main(["search", "--sizes", "30", "--budget", "800", "--seed", "4",
                 "--workers", "4"]) == EXIT_OK
    assert "single-threaded" in capsys.readouterr().out
