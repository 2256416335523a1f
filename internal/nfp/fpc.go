// Package nfp models the Netronome NFP-4000 network processor that the
// Agilio-CX40 implementation of FlexTOE targets (§2.3, §4): flow
// processing cores (FPCs) with eight hardware threads over a single issue
// slot, islands with local memories (CLS, CTM), shared SRAM (IMEM) and
// DRAM (EMEM) with the paper's published access latencies, content-
// addressable caches, and an asynchronous PCIe DMA engine with 256
// transaction slots.
//
// The model captures the properties the paper's design arguments rest on:
// wimpy single-issue cores where sequential execution is slow, hardware
// multithreading that hides memory stalls (Table 3's 2.25× step), and an
// order-of-magnitude spread in memory access latency that makes caching
// decisive (Fig. 13).
package nfp

import (
	"flextoe/internal/shm"
	"flextoe/internal/sim"
)

// Config describes an NFP-4000-class part.
type Config struct {
	FPCHz      int64 // FPC clock (Agilio CX: 800 MHz; Agilio LX: 1.2 GHz)
	Threads    int   // hardware threads per FPC (8)
	FPCsPerIsl int   // FPCs per general-purpose island (12)
	Islands    int   // general-purpose islands (5)

	// Memory access latencies in FPC cycles (§2.3: CLS/CTM up to 100,
	// IMEM up to 250, EMEM up to 500; DRAM behind the EMEM cache costs
	// more).
	LocalMemCycles int
	CLSCycles      int
	CTMCycles      int
	IMEMCycles     int
	EMEMCycles     int
	DRAMCycles     int

	// Cache geometry (§4.1).
	LocalCAMEntries  int // per-FPC fully associative LRU (16)
	CLSCacheEntries  int // per-island direct-mapped (512)
	EMEMCacheEntries int // EMEM's 3 MB SRAM cache, in connection states
	PreLookupEntries int // pre-processor's direct-mapped lookup cache (128)

	// PCIe Gen3 x8 DMA engine (§2.3).
	PCIeBytesPerSec float64
	PCIeLatency     sim.Time // per-transaction round-trip latency
	DMAMaxInflight  int      // asynchronous transaction slots (256)

	// MMIO doorbell write latency observed by the host.
	MMIOLatency sim.Time
}

// AgilioCX40 returns the configuration of the Netronome Agilio-CX40 used
// in the paper's evaluation.
func AgilioCX40() Config {
	return Config{
		FPCHz:      800e6,
		Threads:    8,
		FPCsPerIsl: 12,
		Islands:    5,

		LocalMemCycles: 1,
		CLSCycles:      100,
		CTMCycles:      100,
		IMEMCycles:     250,
		EMEMCycles:     500,
		DRAMCycles:     900,

		LocalCAMEntries:  16,
		CLSCacheEntries:  512,
		EMEMCacheEntries: 8192,
		PreLookupEntries: 128,

		PCIeBytesPerSec: 7.88e9, // PCIe Gen3 x8 effective
		PCIeLatency:     850 * sim.Nanosecond,
		DMAMaxInflight:  256,

		MMIOLatency: 300 * sim.Nanosecond,
	}
}

// AgilioLX returns the larger Agilio LX part (footnote 7: 1.2 GHz FPCs,
// double the islands), used for the splicing headroom discussion.
func AgilioLX() Config {
	c := AgilioCX40()
	c.FPCHz = 1200e6
	c.Islands = 10
	return c
}

// CyclePs returns the FPC cycle time in picoseconds.
func (c *Config) CyclePs() sim.Time { return sim.Cycles(1, c.FPCHz) }

// CyclesTime converts FPC cycles to simulated time.
func (c *Config) CyclesTime(n int) sim.Time { return sim.Cycles(int64(n), c.FPCHz) }

// FPC is one flow processing core: an independent single-issue 32-bit core
// with a fixed number of hardware threads. Compute bursts from different
// threads serialize on the single issue slot; memory stalls overlap with
// other threads' compute (this is exactly why intra-FPC parallelism buys
// the paper's 2.25×).
type FPC struct {
	Name string

	eng     *sim.Engine
	cyclePs sim.Time
	threads int

	active    int // tasks currently occupying a hardware thread
	runq      []*fpcTask
	issueBusy sim.Time // accumulated issue-slot busy time
	issueFree sim.Time // next instant the issue slot is free

	// free is the freelist of per-task execution records; tasks in flight
	// hold at most threads+runq of them, so the list stays tiny.
	free shm.Freelist[fpcTask]

	// Idle runs whenever a hardware thread frees up, letting the owning
	// pipeline stage pull more work.
	Idle func()

	// Statistics.
	Tasks        uint64
	Instructions uint64
}

// fpcTask is the execution record of one submitted task, queued or in
// flight: the remaining steps and the completion callback. Records are
// recycled via the FPC's freelist so steady-state submission allocates
// nothing, and the task is copied into its record once, at submission.
type fpcTask struct {
	f    *FPC
	task sim.Task
	idx  int
	cb   func(any)
	arg  any
}

// Long-lived event callbacks for the step state machine (see
// Engine.AtCall): one fires when a compute burst retires, the other when
// a stall expires.
func fpcAfterCompute(a any) { a.(*fpcTask).afterCompute() }
func fpcNextStep(a any)     { a.(*fpcTask).nextStep() }

// callFn adapts a plain func() completion to the cb(arg) form.
func callFn(a any) { a.(func())() }

// NewFPC creates a core with the config's thread count and clock.
func NewFPC(eng *sim.Engine, name string, cfg *Config) *FPC {
	return &FPC{
		Name:    name,
		eng:     eng,
		cyclePs: cfg.CyclePs(),
		threads: cfg.Threads,
	}
}

// SetThreads overrides the hardware thread count (the Table 3 ablation
// runs with 1 thread to disable intra-FPC parallelism).
func (f *FPC) SetThreads(n int) {
	if n < 1 {
		panic("nfp: FPC needs at least one thread")
	}
	f.threads = n
}

// FreeThreads returns the number of idle hardware threads.
func (f *FPC) FreeThreads() int {
	free := f.threads - f.active
	if free < 0 {
		return 0
	}
	return free
}

// Busy reports whether any thread is occupied.
func (f *FPC) Busy() bool { return f.active > 0 || len(f.runq) > 0 }

// Submit queues a task. If all hardware threads are busy the task waits in
// the core's run queue (callers gate on FreeThreads for backpressure; the
// run queue only absorbs same-instant races).
func (f *FPC) Submit(task sim.Task, done func()) {
	if done == nil {
		f.SubmitCall(task, nil, nil)
		return
	}
	f.SubmitCall(task, callFn, done)
}

// SubmitCall is the allocation-free form of Submit: cb(arg) runs when the
// task completes, with cb a long-lived function value and arg the per-task
// state (typically the pipeline work item).
func (f *FPC) SubmitCall(task sim.Task, cb func(any), arg any) {
	ft := f.getTask()
	ft.task, ft.idx, ft.cb, ft.arg = task, 0, cb, arg
	if f.active < f.threads {
		f.begin(ft)
		return
	}
	f.runq = append(f.runq, ft)
}

func (f *FPC) begin(ft *fpcTask) {
	f.active++
	f.Tasks++
	ft.runStep()
}

func (f *FPC) getTask() *fpcTask {
	if ft := f.free.Get(); ft != nil {
		return ft
	}
	return &fpcTask{f: f}
}

// runStep executes the current step: the compute burst serializes on the
// issue slot, then the stall (if any) elapses off-slot.
func (ft *fpcTask) runStep() {
	f := ft.f
	if ft.idx >= ft.task.NumSteps() {
		f.finish(ft)
		return
	}
	step := ft.task.Step(ft.idx)
	if step.Compute > 0 {
		f.Instructions += uint64(step.Compute)
		now := f.eng.Now()
		start := f.issueFree
		if start < now {
			start = now
		}
		dur := sim.Time(step.Compute) * f.cyclePs
		f.issueFree = start + dur
		f.issueBusy += dur
		f.eng.AtCall(f.issueFree, fpcAfterCompute, ft)
		return
	}
	ft.afterCompute()
}

func (ft *fpcTask) afterCompute() {
	if stall := ft.task.Step(ft.idx).Stall; stall > 0 {
		ft.f.eng.AfterCall(stall, fpcNextStep, ft)
		return
	}
	ft.nextStep()
}

func (ft *fpcTask) nextStep() {
	ft.idx++
	ft.runStep()
}

func (f *FPC) finish(ft *fpcTask) {
	cb, arg := ft.cb, ft.arg
	ft.cb, ft.arg = nil, nil
	f.free.Put(ft)
	f.active--
	if cb != nil {
		cb(arg)
	}
	// Start queued work before announcing idleness.
	for f.active < f.threads && len(f.runq) > 0 {
		next := f.runq[0]
		f.runq[0] = nil
		f.runq = f.runq[1:]
		f.begin(next)
	}
	if f.active < f.threads && f.Idle != nil {
		f.Idle()
	}
}

// Utilization returns the issue slot's busy fraction.
func (f *FPC) Utilization() float64 {
	now := f.eng.Now()
	if now == 0 {
		return 0
	}
	busy := f.issueBusy
	if f.issueFree > now {
		busy -= f.issueFree - now
	}
	return float64(busy) / float64(now)
}
