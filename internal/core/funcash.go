package core

import (
	"ashs/internal/aegis"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// FuncASH is a handler whose logic is expressed as a Go function with
// explicit cost accounting, rather than as vcode object code. The paper's
// handlers are C compiled to machine code; our vcode ASHs model that
// pipeline end-to-end for the instruction-counting experiments, while
// FuncASH is the pragmatic form used for rich protocol fast paths (the TCP
// receive handler of Section V-B), where writing hundreds of lines of IR
// would obscure the protocol logic without changing the measured costs.
//
// The cost model is identical: a sandboxed FuncASH pays the watchdog-timer
// arms, the sandbox entry/exit sequence, and two extra instructions per
// declared memory operation — exactly what the instrumentation pass adds
// to vcode handlers.
type FuncASH struct {
	Name      string
	Owner     *aegis.Process
	Sandboxed bool
	Fn        func(c *Ctx) aegis.Disposition

	// Tenant labels this handler for quota accounting (see System.Quota).
	// Empty opts out: the handler is never admitted against the ledger.
	Tenant string

	sys    *System
	detach []func() // de-installs this handler from its bindings

	// Statistics.
	Invocations    uint64
	ForcedAborts   uint64   // involuntary aborts injected by the fault plane
	QuotaThrottled uint64   // executions refused by the tenant quota
	Tripped        bool     // de-installed by the abort trip threshold
	LastPathCost   sim.Time // receive-path cycles accumulated when the last invocation finished
}

// NewFuncASH installs a Go-native handler. sandboxed selects whether the
// handler is charged sandboxing costs (Table V/VI compare both).
func (s *System) NewFuncASH(owner *aegis.Process, name string, sandboxed bool, fn func(c *Ctx) aegis.Disposition) *FuncASH {
	return &FuncASH{Name: name, Owner: owner, Sandboxed: sandboxed, Fn: fn, sys: s}
}

// AttachVC installs the handler on an AN2 virtual-circuit binding.
func (f *FuncASH) AttachVC(b *aegis.VCBinding) {
	b.Handler = f
	f.OnTrip(func() {
		if b.Handler == aegis.MsgHandler(f) {
			b.Handler = nil
		}
	})
}

// AttachEth installs the handler on an Ethernet filter binding.
func (f *FuncASH) AttachEth(b *aegis.EthBinding) {
	b.Handler = f
	f.OnTrip(func() {
		if b.Handler == aegis.MsgHandler(f) {
			b.Handler = nil
		}
	})
}

// OnTrip registers a de-installation action run if the handler trips the
// abort threshold. Callers that install the handler through an endpoint
// abstraction (the TCP fast path) register their own un-install here.
func (f *FuncASH) OnTrip(fn func()) { f.detach = append(f.detach, fn) }

// HandleMsg implements aegis.MsgHandler.
func (f *FuncASH) HandleMsg(mc *aegis.MsgCtx) aegis.Disposition {
	if q := f.sys.Quota; q != nil && f.Tenant != "" {
		if !q.Admit(f.Tenant, f.sys.K.Now()) {
			// Tenant over its cycle budget this window: refuse eager
			// execution, let the message take the lazy user-level path.
			f.QuotaThrottled++
			f.sys.QuotaThrottled++
			mc.Charge(2) // the refusal check itself
			if o := f.sys.K.Obs; o.Enabled() {
				o.Instant(f.sys.K.Name, "ash system", "ash",
					"quota throttled "+f.Name, mc.When())
				o.Inc("ash/quota_throttled")
			}
			f.LastPathCost = mc.Cost()
			return aegis.DispToUser
		}
	}
	f.Invocations++
	prof := f.sys.K.Prof
	if inject := f.sys.InjectAbort; inject != nil {
		if mode, after := inject(f.Name); mode != AbortNone {
			// The watchdog (or budget check) fires mid-handler. Fn never
			// ran its commit, so there is nothing to roll back beyond the
			// partial cycles already burned; the message re-vectors to the
			// default user-level path, delivered exactly once.
			if f.Sandboxed {
				mc.Charge(sim.Time(prof.TimerArmCycles + f.sys.Policy.PrologueLen))
			}
			mc.Charge(sim.Time(after))
			f.ForcedAborts++
			f.sys.InvoluntaryAborts++
			f.sys.AbortFallbacks++
			if th := f.sys.AbortTripThreshold; th > 0 && !f.Tripped && f.ForcedAborts >= uint64(th) {
				f.Tripped = true
				f.sys.TrippedHandlers++
				for _, d := range f.detach {
					d()
				}
			}
			f.LastPathCost = mc.Cost()
			return aegis.DispToUser
		}
	}
	c0 := mc.Cost()
	if f.Sandboxed {
		// Watchdog arm + sandbox entry sequence.
		mc.Charge(sim.Time(prof.TimerArmCycles + f.sys.Policy.PrologueLen))
	}
	c := &Ctx{mc: mc, sys: f.sys, owner: f.Owner, sandboxed: f.Sandboxed}
	d := f.Fn(c)
	if f.Sandboxed {
		// Exit sequence + watchdog clear.
		mc.Charge(sim.Time(f.sys.Policy.EpilogueLen + prof.TimerArmCycles))
	}
	if q := f.sys.Quota; q != nil && f.Tenant != "" {
		// Debit the handler's declared costs (everything charged to the
		// receive path by this invocation).
		q.Charge(f.Tenant, mc.Cost()-c0)
	}
	f.LastPathCost = mc.Cost()
	return d
}

// Ctx is the execution environment of a Go-native handler (or upcall): it
// charges modeled costs to the message's receive path and exposes the
// kernel services an ASH may use.
type Ctx struct {
	mc        *aegis.MsgCtx
	sys       *System
	owner     *aegis.Process
	sandboxed bool
	userLevel bool
}

// UpcallCtx wraps a message context for an upcall handler body, so the
// same protocol fast path can run as either an ASH or an upcall (user
// level: no sandboxing multiplier, sends pay the system call).
func (s *System) UpcallCtx(owner *aegis.Process, mc *aegis.MsgCtx) *Ctx {
	return &Ctx{mc: mc, sys: s, owner: owner, userLevel: true}
}

// Entry returns the ring entry describing where the message landed.
func (c *Ctx) Entry() aegis.RingEntry { return c.mc.Entry }

// Data returns the raw message bytes. Reading through Data is "free";
// handlers declare their modeled access costs via Straightline/Load/Store.
func (c *Ctx) Data() []byte { return c.mc.Data() }

// Striped reports whether the message sits in an Ethernet buffer in the
// striping DMA's alternating data/pad layout (see RawData).
func (c *Ctx) Striped() bool { return c.mc.Striped }

// RawData returns the message buffer as the device laid it out; for
// striped arrivals index it through aegis.StripedIndex.
func (c *Ctx) RawData() []byte { return c.mc.RawData() }

// Charge adds raw cycles.
func (c *Ctx) Charge(cycles sim.Time) { c.mc.Charge(cycles) }

// Straightline models a run of handler code: insns instructions of which
// memops reference memory. Sandboxed handlers pay 2 extra instructions per
// memory operation (the SFI staging + check).
func (c *Ctx) Straightline(insns, memops int) {
	if c.sandboxed {
		insns += 2 * memops
	}
	c.mc.Charge(sim.Time(insns))
}

// Load32 reads a word from the owner's address space with cache costing.
func (c *Ctx) Load32(addr uint32) (uint32, error) {
	c.chargeMemOp()
	c.mc.Charge(c.sys.K.Cache.Load(addr))
	return c.owner.AS.Load32(addr)
}

// Store32 writes a word to the owner's address space with cache costing.
func (c *Ctx) Store32(addr uint32, v uint32) error {
	c.chargeMemOp()
	c.mc.Charge(c.sys.K.Cache.Store(addr))
	return c.owner.AS.Store32(addr, v)
}

func (c *Ctx) chargeMemOp() {
	if c.sandboxed {
		c.mc.Charge(2)
	}
}

// Send transmits a message from the handler (kernel level for ASHs, via
// the system call interface for upcalls — the context knows which).
func (c *Ctx) Send(dst, vc int, data []byte) { c.mc.Send(dst, vc, data) }

// DILP runs a registered transfer engine over [src, src+n) -> dst,
// returning the engine's first persistent register (e.g. the checksum
// accumulator). Checks are aggregated; per-word costs come from the
// engine's generated loop.
func (c *Ctx) DILP(engineID int, src, dst uint32, n int) (uint32, error) {
	if engineID < 0 || engineID >= len(c.sys.engines) {
		return 0, &vcode.Fault{Kind: vcode.FaultBadCall, Msg: "no such engine"}
	}
	re := c.sys.engines[engineID]
	c.mc.Charge(12)
	for _, r := range re.eng.Prog.Persistent {
		re.machine.Regs[r] = 0
	}
	cycles, f := re.eng.Run(re.machine, src, dst, n)
	c.mc.Charge(cycles)
	if f != nil {
		return 0, f
	}
	var acc uint32
	if pr := re.eng.Prog.Persistent; len(pr) > 0 {
		acc = re.machine.Regs[pr[0]]
	}
	return acc, nil
}

// When reports the virtual time at which this handler's work completes.
func (c *Ctx) When() sim.Time { return c.mc.When() }

// Doorbell posts a zero-length ring notification so the user-level
// library re-examines the shared state this handler updated.
func (c *Ctx) Doorbell() { c.mc.Doorbell() }
