#!/bin/sh
# CI gate: formatting, vet, ashlint (the repo's own analyzers), build,
# tests (with the race detector), and staticcheck when it is installed.
# Run from the repo root.
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== gofmt"
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
    echo "gofmt needed on:"
    echo "$badfmt"
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

# ashlint: the custom analyzer suite (determinism, obsguard,
# lockdiscipline, allocdiscipline — see DESIGN.md §12). Run standalone
# for module-wide coverage, then through go vet's -vettool protocol so
# the unit-checker path stays working.
echo "== ashlint (standalone)"
go run ./cmd/ashlint ./...

echo "== ashlint (go vet -vettool)"
go build -o "$workdir/ashlint" ./cmd/ashlint
go vet -vettool="$workdir/ashlint" ./...

echo "== go test -race"
go test -race ./...

# Chaos soak: the deterministic fault plane's canned schedules against the
# full TCP + NFS workload, plus the fixed-seed determinism check (rerunning
# a seed must reproduce bit-identical counters). Already covered by the
# package sweep above, but run by name so a regression is attributable.
echo "== chaos soak (fixed-seed determinism)"
go test -race -count=1 -run 'TestChaosSoak|TestChaosSeedDeterminism' ./internal/fault/

# Observability plane: the PRNG contract and trace/metrics unit tests by
# name, then the end-to-end determinism gate — the breakdown experiment's
# Chrome trace JSON must be byte-identical across two full runs.
echo "== observability plane (PRNG + trace/metrics unit tests)"
go test -race -count=1 ./internal/obs/ ./internal/sim/

echo "== breakdown trace determinism (byte-identical across runs)"
tracedir="$workdir"
go run ./cmd/ashbench -experiment breakdown -trace "$tracedir/a.json" >/dev/null
go run ./cmd/ashbench -experiment breakdown -trace "$tracedir/b.json" >/dev/null
if ! cmp -s "$tracedir/a.json" "$tracedir/b.json"; then
    echo "breakdown trace JSON differs between identical runs"
    exit 1
fi

# Fuzz targets: each parser/demux fuzzer runs a short wall-clock sweep on
# top of its committed seed corpus. FuzzDPFDemux is differential (trie vs
# linear scan vs an atom-count oracle), so a divergence in either engine
# path fails here. FuzzDifferentialSFI drives random verifiable programs
# through the three-way naive/optimized/re-optimized oracle, and
# FuzzReoptProfile attacks the same oracle from the profile side with raw
# fuzzer bytes as the profile. FuzzNFSDispatch feeds raw datagrams to the
# NFS server's dispatcher and checks its store invariants after each.
echo "== fuzz sweep (10s per target)"
go test -run '^$' -fuzz '^FuzzIPParse$' -fuzztime 10s ./internal/proto/ip/
go test -run '^$' -fuzz '^FuzzTCPHeader$' -fuzztime 10s ./internal/proto/tcp/
go test -run '^$' -fuzz '^FuzzDPFDemux$' -fuzztime 10s ./internal/dpf/
go test -run '^$' -fuzz '^FuzzTraceParse$' -fuzztime 10s ./internal/workload/
go test -run '^$' -fuzz '^FuzzDifferentialSFI$' -fuzztime 10s ./internal/sandbox/
go test -run '^$' -fuzz '^FuzzReoptProfile$' -fuzztime 10s ./internal/sandbox/
go test -run '^$' -fuzz '^FuzzNFSDispatch$' -fuzztime 10s ./internal/proto/nfs/

# Parallel runner determinism: the full suite at -parallel=1 (serial
# reference) and at one-worker-per-CPU must print byte-identical stdout.
# Wall-time and trace summaries go to stderr, so cmp sees results only.
echo "== serial vs parallel ashbench (byte-identical stdout)"
go build -o "$tracedir/ashbench" ./cmd/ashbench
"$tracedir/ashbench" -parallel 1 >"$tracedir/serial.txt" 2>/dev/null
"$tracedir/ashbench" >"$tracedir/parallel.txt" 2>/dev/null
if ! cmp -s "$tracedir/serial.txt" "$tracedir/parallel.txt"; then
    echo "ashbench output differs between -parallel=1 and the default pool"
    diff "$tracedir/serial.txt" "$tracedir/parallel.txt" | head -40
    exit 1
fi

# The committed reference output must match what the tree produces: any
# behavior change has to regenerate ashbench_output.txt deliberately.
echo "== ashbench output matches committed ashbench_output.txt"
if ! cmp -s ashbench_output.txt "$tracedir/serial.txt"; then
    echo "ashbench output diverged from the committed ashbench_output.txt"
    diff ashbench_output.txt "$tracedir/serial.txt" | head -40
    exit 1
fi

# Per-experiment determinism gates: each experiment below reruns serially
# and at the default pool, so a byte diff is attributable to it directly.
#   scale            worlds with up to 512 hosts, the structure most likely
#                    to surface nondeterminism in the runner;
#   overload         adversarial trace replay, the fault plane, tenant
#                    quotas and client backoff: the densest interleaving of
#                    event sources in the suite;
#   megascale -quick 64k flyweight endpoints with open-loop schedules and
#                    retry timers, the largest event population (quick mode:
#                    the full grid builds a million-endpoint world);
#   reopt            mid-run handler hot-swaps, profile-keyed SFI compile
#                    cache entries and the three-way differential harness.
for gate in "scale" "overload" "megascale -quick" "reopt"; do
    # shellcheck disable=SC2086 # split "experiment [flags]" on purpose
    set -- $gate
    name=$1
    echo "== $name determinism (byte-identical stdout)"
    "$tracedir/ashbench" -experiment "$@" -parallel 1 >"$tracedir/$name-serial.txt" 2>/dev/null
    "$tracedir/ashbench" -experiment "$@" >"$tracedir/$name-parallel.txt" 2>/dev/null
    if ! cmp -s "$tracedir/$name-serial.txt" "$tracedir/$name-parallel.txt"; then
        echo "$name output differs between -parallel=1 and the default pool"
        diff "$tracedir/$name-serial.txt" "$tracedir/$name-parallel.txt" | head -40
        exit 1
    fi
done

# Three-way differential suite by name under the race detector: the
# registry sweep (every crl handler x both budget modes x measured +
# adversarial profiles), the profitability pin, the committed
# adversarial-profile corpus shapes, and the quick random-program sweep.
# Covered by the package test run above, but a divergence in the DCG
# loop's safety argument must be attributable to it directly.
echo "== three-way differential suite under -race"
go test -race -count=1 \
    -run 'TestThreeWayRegistry|TestReoptActuallyImproves|TestReoptProfileSeeds|TestDifferentialSFIQuick' \
    ./internal/sandbox/
go test -race -count=1 -run 'TestReopt|TestChainDisposition' ./internal/core/

# Coverage gate: per-package coverage is printed for review; the total
# must not regress below the floor (measured baseline minus slack).
echo "== coverage (floor 79.5%)"
go test -coverprofile="$tracedir/cover.out" ./... | grep -v '^---' || true
total=$(go tool cover -func="$tracedir/cover.out" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
echo "total coverage: ${total}%"
ok=$(awk -v t="$total" 'BEGIN { print (t >= 79.5) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
    echo "total coverage ${total}% fell below the 79.5% floor"
    exit 1
fi

# Bench runner suite by name under the race detector: the worker pool,
# the parallel chaos matrix, and the golden determinism test. Covered by
# the package sweep above, but attributable when it regresses.
echo "== bench runner determinism under -race"
go test -race -count=1 ./internal/bench/runner/
go test -race -count=1 -run 'TestParallelByteIdentical|TestParallelChaosMatchesSerial|TestReoptParallelByteIdentical' ./internal/bench/

# Hot-path microbenchmarks: a short sweep proves the fixtures still run
# and the trie walk is still allocation-free. The committed
# BENCH_hotpath.json snapshot is regenerated by hand (cmd/hotpathbench)
# when the hot paths change; timings are never gated here — CI machines
# vary too much — but allocation counts are deterministic, so the
# zero-alloc hot-path contract IS gated: cmd/hotpathbench runs against a
# temp file, its bench-name structure must match the committed snapshot,
# and the packet-path / event-queue benches must report 0 allocs/op.
echo "== hot-path microbenchmarks (smoke)"
go test -run '^Test' -bench . -benchtime 0.1s ./internal/bench/hotpath/

echo "== hot-path zero-alloc gate (cmd/hotpathbench)"
hotjson="$workdir/hotpath.json"
go run ./cmd/hotpathbench -o "$hotjson" 2>/dev/null
python3 - "$hotjson" <<'PYEOF'
import json, sys
fresh = json.load(open(sys.argv[1]))
committed = json.load(open("BENCH_hotpath.json"))
fresh_names = [b["name"] for b in fresh["benchmarks"]]
committed_names = [b["name"] for b in committed["benchmarks"]]
if fresh_names != committed_names:
    sys.exit("BENCH_hotpath.json structure drifted: committed %s vs fresh %s "
             "— regenerate with `go run ./cmd/hotpathbench`" % (committed_names, fresh_names))
zero_alloc = {"DPFTrieWalk", "DPFLinearScan", "VCODEDispatch",
              "SimEventQueue", "TimerChurn", "PacketPath"}
bad = [(b["name"], b["allocs_per_op"]) for b in fresh["benchmarks"]
       if b["name"] in zero_alloc and b["allocs_per_op"] > 0]
if bad:
    sys.exit("zero-alloc hot-path regression: %s must report 0 allocs/op" % bad)
print("hot-path allocs: all zero (%d benches gated)" % len(zero_alloc))
PYEOF

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck"
    staticcheck ./...
else
    echo "== staticcheck not installed; skipping"
fi

echo "CI OK"
