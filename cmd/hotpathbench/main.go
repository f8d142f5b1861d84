// Command hotpathbench runs the hot-path microbenchmarks
// (internal/bench/hotpath) through testing.Benchmark and writes the
// results as JSON — the committed BENCH_hotpath.json snapshot that the
// roadmap's raw-speed trajectory tracks across PRs.
//
//	go run ./cmd/hotpathbench                 # writes BENCH_hotpath.json
//	go run ./cmd/hotpathbench -o out.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"ashs/internal/bench/hotpath"
)

type result struct {
	Name       string  `json:"name"`
	Iterations int     `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	AllocsOp   int64   `json:"allocs_per_op"`
	BytesOp    int64   `json:"bytes_per_op"`
}

type report struct {
	GeneratedBy string   `json:"generated_by"`
	GoVersion   string   `json:"go_version"`
	GoArch      string   `json:"goarch"`
	Benchmarks  []result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "BENCH_hotpath.json", "output file")
	flag.Parse()

	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"DPFTrieWalk", hotpath.DPFTrieWalk},
		{"DPFLinearScan", hotpath.DPFLinearScan},
		{"VCODEDispatch", hotpath.VCODEDispatch},
		{"SandboxInstrument", hotpath.SandboxInstrument},
		{"SimEventQueue", hotpath.SimEventQueue},
		{"TimerChurn", hotpath.TimerChurn},
		{"PacketPath", hotpath.PacketPath},
	}

	rep := report{
		GeneratedBy: "cmd/hotpathbench",
		GoVersion:   runtime.Version(),
		GoArch:      runtime.GOARCH,
	}
	for _, bm := range benches {
		r := testing.Benchmark(bm.fn)
		if r.N == 0 {
			fmt.Fprintf(os.Stderr, "hotpathbench: %s failed to run\n", bm.name)
			os.Exit(1)
		}
		res := result{
			Name:       bm.name,
			Iterations: r.N,
			NsPerOp:    float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsOp:   r.AllocsPerOp(),
			BytesOp:    r.AllocedBytesPerOp(),
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
		fmt.Fprintf(os.Stderr, "%-16s %12d iters %12.1f ns/op %6d allocs/op %8d B/op\n",
			bm.name, res.Iterations, res.NsPerOp, res.AllocsOp, res.BytesOp)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotpathbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "hotpathbench:", err)
		os.Exit(1)
	}
}
