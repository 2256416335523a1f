// Package host models the server and client machines of the testbed: CPU
// cores that execute application and network-stack work serially, with
// cycle accounting detailed enough to regenerate Table 1 (per-request
// cycles by component, top-down pipeline-slot breakdown, IPC and icache
// footprint).
package host

import (
	"flextoe/internal/sim"
)

// Core is one host CPU core. Unlike an FPC, a core runs one task at a
// time and its stalls do not overlap with other work (the OS thread
// blocks).
type Core struct {
	Name string

	eng     *sim.Engine
	hz      int64
	cyclePs sim.Time

	busyUntil sim.Time
	queue     []hostTask
	qHead     int
	running   bool
	curCb     func(any) // completion of the task currently executing
	curArg    any

	// Statistics.
	Tasks        uint64
	Instructions uint64
	busyAcc      sim.Time
}

type hostTask struct {
	task sim.Task
	cb   func(any)
	arg  any
}

// NewCore creates a core with the given clock.
func NewCore(eng *sim.Engine, name string, hz int64) *Core {
	return &Core{Name: name, eng: eng, hz: hz, cyclePs: sim.Cycles(1, hz)}
}

// Hz returns the core clock.
func (c *Core) Hz() int64 { return c.hz }

// CyclesTime converts core cycles to time.
func (c *Core) CyclesTime(n int64) sim.Time { return sim.Cycles(n, c.hz) }

// Submit queues a task for serial execution. done runs when it completes.
// It is a thin wrapper over SubmitCall for cold callers; hot paths should
// use SubmitCall directly so no completion closure is built per task.
func (c *Core) Submit(task sim.Task, done func()) {
	if done == nil {
		c.SubmitCall(task, nil, nil)
		return
	}
	c.SubmitCall(task, runPlainFunc, done)
}

// runPlainFunc adapts a plain func() completion to the call form.
func runPlainFunc(a any) { a.(func())() }

// SubmitCall queues a task for serial execution; cb(arg) runs when it
// completes. The allocation-free form of Submit: cb should be a
// long-lived function value and arg the per-task state (queueing a task
// then performs no heap allocation beyond amortized queue growth).
func (c *Core) SubmitCall(task sim.Task, cb func(any), arg any) {
	c.queue = append(c.queue, hostTask{task, cb, arg})
	if !c.running {
		c.running = true
		c.eng.ImmediatelyCall(coreKick, c)
	}
}

func coreKick(a any) { a.(*Core).next() }

// Busy reports whether the core has queued or running work.
func (c *Core) Busy() bool { return c.running || c.QueueLen() > 0 }

// QueueLen returns the number of tasks waiting (excluding the running one).
func (c *Core) QueueLen() int { return len(c.queue) - c.qHead }

func (c *Core) next() {
	if c.qHead >= len(c.queue) {
		c.queue = c.queue[:0]
		c.qHead = 0
		c.running = false
		return
	}
	// Read the task in place, then clear its slot: tasks are copied once,
	// into the queue.
	t := &c.queue[c.qHead]
	var dur sim.Time
	for i := 0; i < t.task.NumSteps(); i++ {
		s := t.task.Step(i)
		c.Instructions += uint64(s.Compute)
		dur += sim.Time(s.Compute)*c.cyclePs + s.Stall
	}
	c.curCb, c.curArg = t.cb, t.arg
	*t = hostTask{}
	c.qHead++
	if c.qHead > 64 && c.qHead*2 >= len(c.queue) {
		n := copy(c.queue, c.queue[c.qHead:])
		c.queue = c.queue[:n]
		c.qHead = 0
	}
	c.Tasks++
	c.busyAcc += dur
	c.eng.AfterCall(dur, coreTaskDone, c)
}

// coreTaskDone completes the running task and starts the next (see
// sim.Engine.AtCall; the core runs one task at a time, so curCb/curArg
// are unambiguous).
func coreTaskDone(a any) {
	c := a.(*Core)
	cb, arg := c.curCb, c.curArg
	c.curCb, c.curArg = nil, nil
	if cb != nil {
		cb(arg)
	}
	c.next()
}

// Utilization returns the core's busy fraction of simulated time.
func (c *Core) Utilization() float64 {
	now := c.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(c.busyAcc) / float64(now)
}

// Machine is a host with several cores.
type Machine struct {
	Name  string
	Cores []*Core
}

// NewMachine builds a host with n identical cores.
func NewMachine(eng *sim.Engine, name string, n int, hz int64) *Machine {
	m := &Machine{Name: name}
	for i := 0; i < n; i++ {
		m.Cores = append(m.Cores, NewCore(eng, name+"/cpu"+itoa(i), hz))
	}
	return m
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// LeastLoaded returns the core with the shortest queue.
func (m *Machine) LeastLoaded() *Core {
	best := m.Cores[0]
	for _, c := range m.Cores[1:] {
		if !c.Busy() && best.Busy() {
			best = c
		} else if c.QueueLen() < best.QueueLen() && c.Busy() == best.Busy() {
			best = c
		}
	}
	return best
}

// Counters models the hardware performance counters used in §2.1's
// analysis: it accumulates per-component cycles and classifies them into
// top-down pipeline slots.
type Counters struct {
	// Per-component kilocycles per request (Table 1 rows).
	Driver  float64
	TCPIP   float64
	Sockets float64
	App     float64
	Other   float64

	// Top-down breakdown fractions of total cycles.
	Retiring float64
	Frontend float64
	Backend  float64
	BadSpec  float64

	Instructions float64 // thousands per request
	IcacheKB     float64

	Requests uint64
}

// Total returns total kilocycles per request.
func (c *Counters) Total() float64 {
	return c.Driver + c.TCPIP + c.Sockets + c.App + c.Other
}

// IPC returns instructions per cycle.
func (c *Counters) IPC() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return c.Instructions / t
}
