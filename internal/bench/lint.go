package bench

import (
	"fmt"
	"strings"

	"ashs/internal/crl"
	"ashs/internal/vcode"
	"ashs/internal/vcode/analysis"
)

// lintCells wraps the lint pass as one cell (pure static analysis, no
// testbed).
func lintCells() []Cell {
	return []Cell{{"lint", func(cfg *Config) any { return runLint() }}}
}

// runLint runs the static-analysis lint pass over the CRL handler
// library plus a deliberately sloppy demonstration handler, and renders
// a report. Handlers run on the paper's per-instruction-costed fast
// path, so dead work and unbounded loops are worth flagging at
// download time even when they are safe.
func runLint() string {
	var b strings.Builder
	b.WriteString("Handler lint: static-analysis findings over downloadable handler code\n")
	progs := []*vcode.Program{
		crl.IncrementHandler(0x2000, 0, 1),
		crl.TrustedWriteHandler(),
		crl.GenericWriteHandler(0x4000, crl.MaxSegments, 0, 1),
		crl.LockHandler(0x5000, 16, 0, 1),
		crl.FixedRecordWriteHandler(0x2000, 0x3000),
		sloppyHandler(),
	}
	for _, p := range progs {
		fs := analysis.Lint(p)
		if len(fs) == 0 {
			fmt.Fprintf(&b, "  %-22s clean\n", p.Name)
			continue
		}
		fmt.Fprintf(&b, "  %-22s %d finding(s)\n", p.Name, len(fs))
		for _, f := range fs {
			fmt.Fprintf(&b, "    %s\n", f)
		}
	}
	return b.String()
}

// sloppyHandler exhibits every lint finding kind: a store overwritten
// before any read, a load whose value is never used, a persistent
// register that is declared but never read, and a loop whose trip count
// comes from the message (so no static bound exists).
func sloppyHandler() *vcode.Program {
	b := vcode.NewBuilder("demo-sloppy")
	t1, t2, i, n := b.Temp(), b.Temp(), b.Temp(), b.Temp()
	b.Persistent()
	b.MovI(t1, 5)
	b.MovI(t1, 6)
	b.Ld32(t2, vcode.RArg0, 0)
	b.Ld32(n, vcode.RArg0, 4)
	b.MovI(i, 0)
	top := b.NewLabel()
	b.Bind(top)
	b.AddIU(i, i, 1)
	b.BltU(i, n, top)
	b.Mov(vcode.RRet, t1)
	b.Ret()
	return b.MustAssemble()
}
