"""Release acceptance checks, one test per criterion, each with its stated
tolerance and time budget.  Run with `pytest tests/test_acceptance.py -v -s`
to see one [PASS]/[FAIL] line per criterion."""

import random
import time
from collections import Counter

import numpy as np

from srg2048.cli import EXIT_OK, main
from srg2048.coclique import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    VertexSet,
    external_profile,
    is_coclique,
    is_maximal,
    pair_invariant,
    search_maximal,
)
from srg2048.coset_graph import (
    DEGREE,
    N_VERTICES,
    TARGET_PARAMS,
    build_reps,
    check_rep_uniqueness,
    delsarte_bound,
    srg_eigenvalues,
    verify_srg,
    weight6_distance_census,
)
from srg2048.errors import DatFormatError
from srg2048.golay import build_code
from srg2048.io_formats import export_gap, gap_trailer, read_dat, write_dat

from oracles import adjacent_by_translates, adjacent_many_oracle

KNOWN_SIZE72_PROFILE = {8: 480, 10: 960, 12: 536}
KNOWN_SIZE72_INVARIANTS = {166, 276, 336}


def _stamp(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_criterion_1_code_census():
    t0 = time.perf_counter()
    code = build_code()
    elapsed = time.perf_counter() - t0
    census = code.weight_distribution()
    ok = (
        len(code.codewords) == 4096
        and census == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
        and elapsed < 1.0
    )
    _stamp("criterion 1: code census", ok, f"{census}, {elapsed:.3f}s")


def test_criterion_2_representative_census(code):
    t0 = time.perf_counter()
    reps = build_reps()
    counts = Counter(np.bitwise_count(reps).tolist())
    pairs = check_rep_uniqueness(code, reps)
    elapsed = time.perf_counter() - t0
    ok = (
        len(reps) == 2048
        and counts == {0: 1, 2: 276, 4: 1771}
        and pairs == 2048 * 2047 // 2
        and elapsed < 10.0
    )
    _stamp(
        "criterion 2: representative census and uniqueness",
        ok,
        f"classes {counts}, {pairs} pairs, {elapsed:.2f}s",
    )


def test_criterion_3_srg_verification(graph):
    t0 = time.perf_counter()
    params = verify_srg(graph)
    elapsed = time.perf_counter() - t0
    ok = params == TARGET_PARAMS and elapsed < 60.0
    _stamp(
        "criterion 3: exhaustive srg verification",
        ok,
        f"{tuple(params)}, {elapsed:.2f}s",
    )


def test_criterion_4_adjacency_oracle_equivalence(code, reps, graph):
    rng = np.random.default_rng(2024)
    u, v = rng.integers(0, N_VERTICES, size=(2, 100_000))
    bits = ((graph.packed[u, v >> 3] >> (v & 7)) & 1).astype(bool)
    bulk_mismatch = int(
        np.count_nonzero(bits != adjacent_many_oracle(code, reps[u], reps[v]))
    )

    zero = np.zeros(N_VERTICES - 1, dtype=np.uint32)
    others = reps[1:]
    zero_mismatch = int(
        np.count_nonzero(
            graph.row_bits(0)[1:] != adjacent_many_oracle(code, zero, others)
        )
    )

    scalar_rng = random.Random(2024)
    scalar_mismatch = sum(
        1
        for _ in range(500)
        for x, y in [(scalar_rng.randrange(N_VERTICES), scalar_rng.randrange(N_VERTICES))]
        if graph.row_bits(x)[y] != adjacent_by_translates(code, int(reps[x]), int(reps[y]))
    )
    ok = bulk_mismatch == zero_mismatch == scalar_mismatch == 0
    _stamp(
        "criterion 4: adjacency oracle equivalence",
        ok,
        f"100000 random + {N_VERTICES - 1} vertex-0 pairs + 500 scalar, "
        f"mismatches {bulk_mismatch}/{zero_mismatch}/{scalar_mismatch}",
    )


def test_criterion_5_invalid_distance_guard(code, graph):
    # the session graph exists, so the guard did not fire during its build;
    # confirm over the full census of weight-6 differences
    census = weight6_distance_census(code)
    ok = graph.n == N_VERTICES and set(census) <= {2, 4}
    _stamp(
        "criterion 5: invalid-distance guard",
        ok,
        f"all {sum(census.values())} weight-6 differences in {{2,4}}: {census}",
    )


def test_criterion_6_delsarte_bound():
    bound = delsarte_bound(2048, 276, -12)
    roots = srg_eigenvalues(TARGET_PARAMS)
    ok = bound == 85 and set(roots) == {20, -12}
    _stamp("criterion 6: delsarte bound", ok, f"bound {bound}, roots {roots}")


def test_criterion_7_coclique_search(graph):
    targets = range(20, 41)
    t0 = time.perf_counter()
    results = search_maximal(graph, targets, budget=DEFAULT_BUDGET, seed=DEFAULT_SEED)
    elapsed = time.perf_counter() - t0
    achieved = {s.size for s in results}
    ok = elapsed < 600.0 and achieved == set(targets)
    for s in results:
        profile = external_profile(graph, s)
        ok = ok and is_coclique(graph, s) and is_maximal(graph, s)
        ok = ok and sum(profile.values()) == N_VERTICES - s.size
        ok = ok and sum(d * c for d, c in profile.items()) == DEGREE * s.size
        ok = ok and s.size <= 85
    _stamp(
        "criterion 7: coclique search coverage 20..40",
        ok,
        f"{len(results)} sizes, seed {DEFAULT_SEED}, {elapsed:.1f}s",
    )

    # opportunistic large-set hunt so the size-72 comparison actually runs
    big = search_maximal(graph, [72], budget=4000, seed=DEFAULT_SEED)
    if not big:
        print("       no size-72 set found within the side budget (not a failure)")
        return
    s72 = big[0]
    assert is_maximal(graph, s72)
    profile = external_profile(graph, s72)
    invariant = pair_invariant(graph, s72)
    profile_txt = "matches" if profile == KNOWN_SIZE72_PROFILE else "DIFFERS (new finding)"
    invariant_txt = (
        "a known value" if invariant in KNOWN_SIZE72_INVARIANTS else "NEW (new finding)"
    )
    print(
        f"       size-72 set found: profile {profile_txt} 8:480 10:960 12:536; "
        f"pair invariant {invariant} is {invariant_txt}"
    )


def test_criterion_8_dat_round_trip(reps):
    rng = random.Random(88)
    sets = [
        VertexSet(tuple(sorted(rng.sample(range(2048), rng.randint(2, 85)))))
        for _ in range(20)
    ]
    payload = write_dat(sets, reps)
    back = read_dat(payload, reps)
    ok = [s.members for s in back] == [s.members for s in sets]
    ok = ok and write_dat(back, reps) == payload

    rejected = 0
    for bad, pattern in (
        (bytes([0x01, 0x00, 0x00, 0x00]), "range from 2 to 85"),
        (bytes([86] + [0x03, 0x00, 0x00] * 86), "range from 2 to 85"),
        (bytes([0x02, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00]), "proper coset representation"),
    ):
        try:
            read_dat(bad, reps)
        except DatFormatError as exc:
            rejected += pattern in str(exc)
    ok = ok and rejected == 3
    _stamp(
        "criterion 8: dat round trip and rejections",
        ok,
        f"20 sets round-tripped, {rejected}/3 malformed cases rejected",
    )


def test_criterion_9_gap_export(graph):
    text = export_gap(graph, [])
    size = len(text.encode("ascii"))
    lists = [
        line
        for line in text.split("\n")
        if line.startswith("[") and "A:=" not in line
    ]
    adjacency = lists[: graph.n]
    lengths = {row.rstrip(",").count(",") + 1 for row in adjacency}
    ok = text.endswith(gap_trailer(2048))
    ok = ok and len(adjacency) == 2048 and lengths == {276}
    ok = ok and 2_000_000 <= size <= 4_000_000

    # symmetry re-parse
    rows = [
        [int(tok) for tok in row.strip().rstrip(",")[1:-1].split(",")]
        for row in adjacency
    ]
    neighbor_sets = [set(r) for r in rows]
    symmetric = all(
        u + 1 in neighbor_sets[v - 1] for u, row in enumerate(rows) for v in row
    )
    ok = ok and symmetric
    _stamp(
        "criterion 9: gap export",
        ok,
        f"{size} bytes, 2048 lists of 276, symmetric {symmetric}",
    )


def test_criterion_10_search_determinism(tmp_path):
    files = [tmp_path / "run1.dat", tmp_path / "run2.dat"]
    for path in files:
        rc = main(
            ["search", "--sizes", "26-30", "--budget", "2000", "--seed", "77",
             "--out", str(path)]
        )
        assert rc == EXIT_OK
    identical = files[0].read_bytes() == files[1].read_bytes()
    _stamp(
        "criterion 10: deterministic search output",
        identical,
        f"{files[0].stat().st_size} identical bytes",
    )
