# The CLI contract: exit codes, messages and the sha256 of each pinned output (tests/data/pins.txt).
# From the repository root: PYTHONPATH=src SRG2048="python -m srg2048" bash -e tests/console_contract.sh
set -eu -o pipefail
T="$(mktemp -d)"
trap 'rm -rf "$T"' EXIT
export SRG2048_CACHE_DIR="$T"
pin() {  # pin NAME FILE: FILE's sha256 is row NAME of the pin table
  local want="$(awk -v name="$1" '$1 == name { print $2 }' tests/data/pins.txt)"
  if ! echo "${want:-none}  $2" | sha256sum -c --status; then
    echo "pin $1: $2 has sha256 $(sha256sum < "$2" | cut -c1-64), want ${want:-a row $1 in tests/data/pins.txt}" >&2
    exit 1
  fi
}
# expect CODE ARGS...: the CLI exits CODE (2: a usage error, with nothing on stdout); stdout in $T/out, stderr in $T/err
expect() {
  local rc=0
  ${SRG2048:-srg2048} "${@:2}" > "$T/out" 2> "$T/err" || rc=$?
  if [ "$rc" != "$1" ]; then
    echo "srg2048 ${*:2}: exit $rc, want $1: $(cat "$T/err")" >&2
    exit 1
  fi
  [ "$1" != 2 ] || test ! -s "$T/out"
}
# the cold run builds the graph through the case-rule cross-check
expect 0 verify --cache
pin verify "$T/out"
# the default cache file is graph-<digest>.bin; no .npz is written
test -z "$(ls "$T"/*.npz 2>/dev/null)"
expect 0 verify --cache
# so do a non-systematic matrix of an equivalent code and the benchmark's seed-1 matrix, whose adjacency rows differ again
expect 0 verify --generators tests/data/generators-nonsystematic.txt
pin verify "$T/out"
expect 0 verify --generators tests/data/generators-bench-seed1.txt
pin verify "$T/out"
# a stale cache file (still starting with the magic) is rejected, rebuilt and rewritten in place
CACHE="$(ls "$T"/graph-*.bin)"
truncate -s 1000 "$CACHE"
expect 0 verify --cache
pin verify "$T/out"
test "$(stat -c %s "$CACHE")" = 524356
# build reports the edge count as half the sum of the row degrees
expect 0 build --cache
grep -Fx "edges: 282624" "$T/out"
expect 0 check --cache srgbench/pool.dat
pin check "$T/out"
expect 0 invariants --cache srgbench/pool.dat
pin invariants "$T/out"
expect 0 export --cache --gap "$T/pool.g" --edges "$T/edges.txt" --sets srgbench/pool.dat
# the byte count export prints is the sum of its writes: the size of the file
grep -Fx "wrote gap file $T/pool.g ($(stat -c %s "$T/pool.g") bytes, 142 sets)" "$T/out"
pin gap "$T/pool.g"
pin edges "$T/edges.txt"
# a file at the cache path that is not a cache file is never replaced
cp srgbench/pool.dat "$T/P"
expect 0 check "$T/P" --cache "$T/P"
pin pool-dat "$T/P"
pin check "$T/out"
# an output that is the --sets container, the cache file or the --generators file is a usage error
# that leaves the input's bytes as they were
cp srgbench/pool.dat "$T/P2"
expect 2 export --sets "$T/P2" --gap "$T/P2"
pin pool-dat "$T/P2"
expect 2 export --gap "$CACHE" --cache "$CACHE"
test "$(stat -c %s "$CACHE")" = 524356
pin cache "$CACHE"
cp tests/data/generators-nonsystematic.txt "$T/G"
expect 2 search --generators "$T/G" --out "$T/G"
pin generators-nonsystematic "$T/G"
# a container with a non-coclique and a non-maximal coclique fails the check
expect 4 check --cache tests/data/mixed.dat
pin mixed-check "$T/out"
# a container cut inside a record is a format error naming the record's offset
head -c 1000 srgbench/pool.dat > "$T/cut.dat"
expect 3 check --cache "$T/cut.dat"
test ! -s "$T/out"
grep -Fx "format error: truncated record: need 97 bytes, stream has 70 (at byte offset 930)" "$T/err"
# a duplicate in the first record is reported before the bad size (99) of the second
printf '\002\000\000\000\000\000\000\143' > "$T/dup.dat"
expect 3 check --cache "$T/dup.dat"
test ! -s "$T/out"
grep -Fx "format error: duplicate entry for vertex 0 in one record (at byte offset 0)" "$T/err"
expect 0 search --cache --sizes 20-72 --budget 3000 --seed 7 --out "$T/s.dat"
pin search-seed7 "$T/s.dat"
expect 0 search --cache --sizes 20-72 --budget 2000 --seed 1 --out "$T/b.dat"
pin search-bench "$T/b.dat"
# the default search (sizes 20-40, seed 2048), the one pinned search that stops when complete
expect 0 search --cache --out "$T/d.dat"
pin search-default "$T/d.dat"
# a long search keeps one packed key per set seen: its peak RSS grows by under 6 MiB after the load
python - "$CACHE" <<'EOF'
import resource, sys
from srg2048 import cli, coclique, coset_graph, golay
g = cli.load_graph_cache(sys.argv[1], golay.build_code(), coset_graph.build_reps())
assert g is not None, "the cache was not loaded"
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
config = coclique.SearchConfig(stop_when_complete=False)
coclique.search_maximal(g, range(20, 73), budget=20000, seed=5, config=config)
growth = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
print(f"search peak RSS growth after the cache load: {growth:.2f} MiB")
assert growth < 6, f"the search grew peak RSS by {growth:.2f} MiB"
EOF
# a size above the ratio bound (85) or below 8, which no maximal coclique has, is refused before the build
expect 2 search --sizes 85-86
expect 2 search --sizes 1-7
# an empty --cache= is a usage error, not a cache silently turned off
ls -A "$T" > "$T/before.txt"
expect 2 build --cache=
ls -A "$T" | diff - "$T/before.txt"
# so are --byteorder outside the commands that read or write a .dat, and export with neither --gap nor --edges
expect 2 verify --byteorder big
expect 2 export
# an unwritable --out or export path, or a missing --sets container, is a file error before the build,
# with nothing on stdout and no output file left behind
expect 3 search --out "$T/no/such/dir/s.dat"
test ! -s "$T/out"
expect 3 export --gap "$T/no/dir/g.g"
test ! -s "$T/out"
expect 3 export --sets "$T/no/dir/x.dat" --gap "$T/g.g"
test ! -s "$T/out"
test ! -e "$T/g.g"
# a bad generator row is a format error naming the file and the line
sed '1s/.*/222222222222222222222222/' tests/data/generators-nonsystematic.txt > "$T/bad.txt"
expect 3 verify --generators "$T/bad.txt"
grep -F "bad.txt: line 1:" "$T/err"
# build --cache exits 3, with no cache: line, when the cache cannot be written
mkdir "$T/blocked"
expect 3 build --cache "$T/blocked"
test "$(grep -c '^cache:' "$T/out")" = 0
