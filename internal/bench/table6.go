package bench

import (
	"ashs/internal/aegis"
	"ashs/internal/proto/tcp"
)

// Table6 is the end-to-end TCP comparison of handler placements
// (Section V-B, Table VI): latency and throughput for TCP on the AN2 with
// the common-case fast path in a sandboxed ASH, an unsafe ASH, an upcall,
// or the user-level library (interrupt-driven and polling).
type Table6 struct {
	// Indexed: 0 sandboxed ASH, 1 unsafe ASH, 2 upcall, 3 user-level
	// (interrupt), 4 user-level (polling).
	Latency   [5]float64 // us
	Tput      [5]float64 // MB/s, MSS 3072, 8-KB writes
	TputSmall [5]float64 // MB/s, MSS 536, 4-KB writes
}

// PaperTable6 is Table VI of the paper.
var PaperTable6 = Table6{
	Latency:   [5]float64{394, 348, 382, 459, 384},
	Tput:      [5]float64{4.32, 4.53, 4.27, 3.92, 4.11},
	TputSmall: [5]float64{2.66, 3.05, 2.78, 2.32, 2.56},
}

// Table6Labels name the columns.
var Table6Labels = [5]string{
	"sandboxed ASH", "unsafe ASH", "upcall", "user (interrupt)", "user (polling)",
}

// Table6Params sizes the workloads.
type Table6Params struct {
	LatIters int
	TCPBytes int
}

// DefaultTable6Params mirrors the paper (10 MB streams).
func DefaultTable6Params() Table6Params {
	return Table6Params{LatIters: 10, TCPBytes: 10 << 20}
}

type table6Mode struct {
	mode      tcp.Mode
	polling   bool
	suspended bool // competitor + boost scheduler on both hosts
}

var table6Modes = [5]table6Mode{
	{tcp.ModeASH, true, false},
	{tcp.ModeASHUnsafe, true, false},
	{tcp.ModeUpcall, true, false},
	{tcp.ModeUser, false, true},
	{tcp.ModeUser, true, false},
}

// table6Cells enumerates one cell per (mode, measurement): 15 independent
// TCP worlds.
func table6Cells(p Table6Params) []Cell {
	var cells []Cell
	for i, m := range table6Modes {
		i, m := i, m
		label := "table6/" + Table6Labels[i]
		cells = append(cells,
			Cell{label + "/latency", func(cfg *Config) any {
				return table6Latency(cfg, m, p.LatIters, nil)
			}},
			Cell{label + "/tput", func(cfg *Config) any {
				return table6Tput(cfg, m, p.TCPBytes, 3072, 8192)
			}},
			Cell{label + "/tput-small", func(cfg *Config) any {
				return table6Tput(cfg, m, p.TCPBytes/2, 536, 4096)
			}},
		)
	}
	return cells
}

func mergeTable6(vs []any) Table6 {
	var t Table6
	for i := range table6Modes {
		t.Latency[i] = vs[3*i].(float64)
		t.Tput[i] = vs[3*i+1].(float64)
		t.TputSmall[i] = vs[3*i+2].(float64)
	}
	return t
}

// RunTable6 regenerates Table VI.
func RunTable6(cfg *Config, p Table6Params) Table6 {
	return mergeTable6(runCells(cfg, table6Cells(p)))
}

func table6Testbed(cfg *Config, m table6Mode) *Testbed {
	tb := NewAN2Testbed(cfg)
	if m.suspended {
		tb.K1.Sched = aegis.NewPriorityBoost(tb.K1)
		tb.K2.Sched = aegis.NewPriorityBoost(tb.K2)
		tb.K1.Spawn("competitor1", func(p *aegis.Process) { p.SpinForever() })
		tb.K2.Spawn("competitor2", func(p *aegis.Process) { p.SpinForever() })
	}
	return tb
}

func table6Cfg(tb *Testbed, m table6Mode, host, mss int) tcp.Config {
	cfg := tcp.DefaultConfig()
	cfg.Mode = m.mode
	cfg.Polling = m.polling
	cfg.Checksum = true
	cfg.MSS = mss
	if host == 1 {
		cfg.Sys = tb.Sys1
	} else {
		cfg.Sys = tb.Sys2
	}
	return cfg
}

func table6Latency(cfg *Config, m table6Mode, iters int, o *obsRun) float64 {
	tb := table6Testbed(cfg, m)
	return tcpPingPong(tb, iters, o,
		func(p *aegis.Process) (*tcp.Conn, error) {
			return tcp.Accept(tb.StackAN2(p, 2, 7), table6Cfg(tb, m, 2, 3072), 80)
		},
		func(p *aegis.Process) (*tcp.Conn, error) {
			return tcp.Connect(tb.StackAN2(p, 1, 7), table6Cfg(tb, m, 1, 3072), 1234, tb.IP2, 80)
		})
}

func table6Tput(cfg *Config, m table6Mode, totalBytes, mss, writeSize int) float64 {
	tb := table6Testbed(cfg, m)
	return tcpStream(tb, totalBytes, writeSize,
		func(p *aegis.Process) (*tcp.Conn, error) {
			return tcp.Accept(tb.StackAN2(p, 2, 7), table6Cfg(tb, m, 2, mss), 80)
		},
		func(p *aegis.Process) (*tcp.Conn, error) {
			return tcp.Connect(tb.StackAN2(p, 1, 7), table6Cfg(tb, m, 1, mss), 1234, tb.IP2, 80)
		})
}

// Table renders Table VI.
func (t Table6) Table() *Table {
	return &Table{
		Title:   "Table VI: TCP on the AN2 with the fast path in handlers",
		Note:    "latency in us; throughput in MB/s (MSS 3072); small MSS 536 with 4-KB writes",
		Columns: Table6Labels[:],
		Rows: []Row{
			{"latency (us)", t.Latency[:], PaperTable6.Latency[:]},
			{"throughput (MB/s)", t.Tput[:], PaperTable6.Tput[:]},
			{"throughput, small MSS", t.TputSmall[:], PaperTable6.TputSmall[:]},
		},
	}
}
