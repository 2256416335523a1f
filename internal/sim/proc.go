package sim

// Step is one segment of a Task: a burst of straight-line computation
// followed by a stall (memory access, DMA wait, lock wait) during which the
// processor's issue slot is free for other hardware threads.
type Step struct {
	Compute int64 // instructions, executed at 1 instruction/cycle
	Stall   Time  // latency hidden from the issue slot
}

// MaxTaskSteps bounds the steps in one Task. Tasks are value types with a
// fixed-size step array so that building one on the data path performs no
// heap allocation (the run-to-completion ablation's four-step task is the
// deepest in the tree); keeping the array tight matters because tasks are
// copied by value into every Submit.
const MaxTaskSteps = 4

// Task is a unit of work submitted to a Proc: alternating compute bursts
// and stalls. Tasks are value types and may be built incrementally.
type Task struct {
	n     int
	steps [MaxTaskSteps]Step
}

// TaskC returns a Task consisting of a single compute burst.
func TaskC(instr int64) Task {
	var t Task
	t.steps[0] = Step{Compute: instr}
	t.n = 1
	return t
}

// Add appends a step and returns the task for chaining. A pure stall
// (instr 0) after a step without one extends that step instead, which
// runs the same events (see doc.go, "Task merge rule").
func (t Task) Add(instr int64, stall Time) Task {
	if instr == 0 && t.n > 0 && t.steps[t.n-1].Stall == 0 {
		t.steps[t.n-1].Stall = stall
		return t
	}
	if t.n >= MaxTaskSteps {
		panic("sim: task step overflow")
	}
	t.steps[t.n] = Step{Compute: instr, Stall: stall}
	t.n++
	return t
}

// NumSteps returns the number of steps in the task.
func (t *Task) NumSteps() int { return t.n }

// Step returns the i-th step.
func (t *Task) Step(i int) Step { return t.steps[i] }

// Instructions returns the total compute in the task.
func (t *Task) Instructions() int64 {
	var n int64
	for i := 0; i < t.n; i++ {
		n += t.steps[i].Compute
	}
	return n
}

// StallTime returns the total stall time in the task.
func (t *Task) StallTime() Time {
	var d Time
	for i := 0; i < t.n; i++ {
		d += t.steps[i].Stall
	}
	return d
}

// Proc executes Tasks on simulated hardware. Implementations model how
// compute bursts contend for issue slots and whether stalls overlap with
// other work (the NFP's 8-threaded FPCs overlap them; a host core running a
// single thread does not).
type Proc interface {
	// Submit queues the task for execution; done runs (as a simulation
	// event) when the task completes. Submit never blocks the caller.
	Submit(t Task, done func())
	// Busy reports whether the processor currently has work in flight.
	Busy() bool
}
