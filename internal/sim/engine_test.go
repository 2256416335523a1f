package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatalf("Second = %d ps", int64(Second))
	}
	if got := (2 * Microsecond).Microseconds(); got != 2 {
		t.Fatalf("Microseconds = %v", got)
	}
	if got := (1500 * Nanosecond).Microseconds(); got != 1.5 {
		t.Fatalf("Microseconds = %v", got)
	}
}

func TestCyclesExactAt800MHz(t *testing.T) {
	// One 800 MHz FPC cycle is exactly 1250 ps.
	if got := Cycles(1, 800e6); got != 1250*Picosecond {
		t.Fatalf("Cycles(1, 800MHz) = %v", got)
	}
	if got := Cycles(1000, 800e6); got != 1250*Nanosecond {
		t.Fatalf("Cycles(1000, 800MHz) = %v", got)
	}
	// 2 GHz host core: 500 ps.
	if got := Cycles(3, 2e9); got != 1500*Picosecond {
		t.Fatalf("Cycles(3, 2GHz) = %v", got)
	}
}

func TestCyclesRounds(t *testing.T) {
	// 3 cycles at 2.35 GHz = 1276.59... ps, rounds to 1277.
	if got := Cycles(3, 2_350_000_000); got != 1277 {
		t.Fatalf("Cycles(3, 2.35GHz) = %v", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var hits []Time
	e.At(5, func() {
		hits = append(hits, e.Now())
		e.After(7, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 5 || hits[1] != 12 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := New()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := New()
	ran := 0
	e.At(10, func() { ran++ })
	e.At(20, func() { ran++ })
	e.At(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran = %d", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("now = %v", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	// RunUntil advances the clock even with no events in range.
	e.RunUntil(25)
	if e.Now() != 25 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEvery(t *testing.T) {
	e := New()
	n := 0
	e.Every(100, 50, func() bool {
		n++
		return n < 4
	})
	e.Run()
	if n != 4 {
		t.Fatalf("n = %d", n)
	}
	if e.Now() != 100+3*50 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEveryCall(t *testing.T) {
	e := New()
	n := 0
	e.EveryCall(100, 50, func(a any) bool {
		p := a.(*int)
		*p++
		return *p < 4
	}, &n)
	e.Run()
	if n != 4 {
		t.Fatalf("n = %d", n)
	}
	if e.Now() != 100+3*50 {
		t.Fatalf("now = %v", e.Now())
	}
}

// TestEveryCallAllocFree: steady-state firings of an armed EveryCall
// must not allocate (the arming itself may allocate its one carrier).
func TestEveryCallAllocFree(t *testing.T) {
	e := New()
	n := 0
	e.EveryCall(0, 10, func(a any) bool { n++; return true }, nil)
	e.RunUntil(100) // warm up past the arming
	allocs := testing.AllocsPerRun(50, func() {
		e.RunUntil(e.Now() + 1000)
	})
	if allocs > 0 {
		t.Fatalf("EveryCall firing allocates %.1f/run", allocs)
	}
	if n == 0 {
		t.Fatal("callback never fired")
	}
}

func TestStop(t *testing.T) {
	e := New()
	ran := 0
	e.At(10, func() { ran++; e.Stop() })
	e.At(20, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("ran = %d", ran)
	}
	if !e.Stopped() {
		t.Fatal("not stopped")
	}
}

func TestQueueFIFO(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q", 0)
	for i := 0; i < 200; i++ {
		q.Push(i)
	}
	for i := 0; i < 200; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d, %v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestQueueCapacityAndDrops(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q", 2)
	if !q.Push(1) || !q.Push(2) {
		t.Fatal("pushes under capacity failed")
	}
	if q.Push(3) {
		t.Fatal("push over capacity succeeded")
	}
	if q.Drops() != 1 {
		t.Fatalf("drops = %d", q.Drops())
	}
	q.Pop()
	if !q.Push(3) {
		t.Fatal("push after pop failed")
	}
}

func TestQueueOccupancyStats(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q", 0)
	e.At(0, func() { q.Push(1); q.Push(2) })
	e.At(100, func() { q.Pop() })
	e.At(200, func() { q.Pop() })
	e.Run()
	// Occupancy: 2 for [0,100), 1 for [100,200) => mean 1.5 over 200ps.
	if got := q.MeanOccupancy(); got != 1.5 {
		t.Fatalf("mean occupancy = %v", got)
	}
	if q.MaxOccupancy() != 2 {
		t.Fatalf("max occupancy = %d", q.MaxOccupancy())
	}
}

func TestQueueCompaction(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q", 0)
	// Interleave pushes and pops to force head movement + compaction.
	for i := 0; i < 10000; i++ {
		q.Push(i)
		if i%2 == 1 {
			v, ok := q.Pop()
			if !ok || v != i/2 {
				t.Fatalf("pop = %d, %v at i=%d", v, ok, i)
			}
		}
	}
	if q.Len() != 5000 {
		t.Fatalf("len = %d", q.Len())
	}
}

func TestResourceSerializes(t *testing.T) {
	e := New()
	// 1000 units/second => 1e9 ps per unit.
	r := NewResource(e, "link", 1000)
	var done []Time
	e.At(0, func() {
		r.Acquire(1, 0, func() { done = append(done, e.Now()) })
		r.Acquire(1, 0, func() { done = append(done, e.Now()) })
	})
	e.Run()
	if len(done) != 2 {
		t.Fatalf("done = %v", done)
	}
	if done[0] != Time(1e9) || done[1] != Time(2e9) {
		t.Fatalf("completion times = %v", done)
	}
}

func TestResourceExtraLatencyDoesNotBlockPipe(t *testing.T) {
	e := New()
	r := NewResource(e, "pcie", 1000)
	var done []Time
	e.At(0, func() {
		// extra latency applies per transfer but doesn't occupy the wire.
		r.Acquire(1, 500, func() { done = append(done, e.Now()) })
		r.Acquire(1, 500, func() { done = append(done, e.Now()) })
	})
	e.Run()
	if done[0] != Time(1e9+500) || done[1] != Time(2e9+500) {
		t.Fatalf("completion times = %v", done)
	}
}

func TestTaskAccessors(t *testing.T) {
	// The pure stalls merge into the steps before them: 3 steps, not 5.
	task := TaskC(100).Add(0, 4*Nanosecond).Add(50, 6*Nanosecond).Add(25, 0).Add(0, 5*Nanosecond)
	if task.Instructions() != 175 {
		t.Fatalf("instructions = %d", task.Instructions())
	}
	if task.StallTime() != 15*Nanosecond {
		t.Fatalf("stall = %v", task.StallTime())
	}
	if task.NumSteps() != 3 || task.Step(0) != (Step{100, 4 * Nanosecond}) {
		t.Fatalf("steps = %d, first %+v", task.NumSteps(), task.Step(0))
	}
}

func TestQueuePropertyFIFO(t *testing.T) {
	// Property: any interleaving of pushes and pops preserves FIFO order.
	f := func(ops []bool) bool {
		e := New()
		q := NewQueue[int](e, "q", 0)
		next := 0
		expect := 0
		for _, push := range ops {
			if push {
				q.Push(next)
				next++
			} else if v, ok := q.Pop(); ok {
				if v != expect {
					return false
				}
				expect++
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
