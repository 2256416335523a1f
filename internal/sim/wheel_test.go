package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEngine is the pre-timing-wheel event core (a container/heap binary
// heap), kept as the ordering oracle: ascending timestamp, then local
// events before deliveries in delivery-key order, FIFO among same-instant
// local events.
type refEngine struct {
	now    Time
	events refHeap
	seq    uint64
}

type refEvent struct {
	at        Time
	seq, dkey uint64
	fn        func()
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].dkey != h[j].dkey {
		return h[i].dkey < h[j].dkey
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = refEvent{}
	*h = old[:n-1]
	return ev
}

func (e *refEngine) At(t Time, dkey uint64, fn func()) {
	if t < e.now {
		panic("ref: past")
	}
	e.seq++
	heap.Push(&e.events, refEvent{at: t, seq: e.seq, dkey: dkey, fn: fn})
}

func (e *refEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(refEvent)
	e.now = ev.at
	ev.fn()
	return true
}

func (e *refEngine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// scheduler abstracts both engines for the differential driver. A
// nonzero dkey schedules a delivery (AtLinkCall).
type scheduler interface {
	schedule(t Time, dkey uint64, fn func())
	now() Time
	step() bool
	runUntil(t Time)
}

type wheelSched struct{ e *Engine }

func (w wheelSched) schedule(t Time, dkey uint64, fn func()) {
	if dkey == 0 {
		w.e.At(t, fn)
	} else {
		w.e.AtLinkCall(t, dkey, callFn, fn)
	}
}
func (w wheelSched) now() Time       { return w.e.Now() }
func (w wheelSched) step() bool      { return w.e.Step() }
func (w wheelSched) runUntil(t Time) { w.e.RunUntil(t) }

type refSched struct{ e *refEngine }

func (r refSched) schedule(t Time, dkey uint64, fn func()) { r.e.At(t, dkey, fn) }
func (r refSched) now() Time                               { return r.e.now }
func (r refSched) step() bool                              { return r.e.Step() }
func (r refSched) runUntil(t Time)                         { r.e.RunUntil(t) }

// driveSchedule runs one pseudo-random scenario on a scheduler and records
// the (event id, execution time) trace. Events reschedule follow-ups from
// inside their handlers — same-instant bursts, near deltas that stay in
// one wheel bucket, mid-range deltas that cross buckets, and far deltas
// (RTO-scale) that exercise the overflow heap and window re-anchoring.
// A third of the events are deliveries with unique, randomly ordered
// keys.
func driveSchedule(s scheduler, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	var trace []int64
	nextID := 0
	var keys uint64
	schedule := func(t Time, fn func()) {
		var dkey uint64
		if rng.Intn(3) == 0 {
			keys++
			dkey = uint64(rng.Intn(4))<<32 | keys
		}
		s.schedule(t, dkey, fn)
	}
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		id := nextID
		nextID++
		return func() {
			trace = append(trace, int64(id), int64(s.now()))
			if depth <= 0 {
				return
			}
			kids := rng.Intn(3)
			for k := 0; k < kids; k++ {
				var d Time
				switch rng.Intn(5) {
				case 0:
					d = 0 // same instant (FIFO tie-break)
				case 1:
					d = Time(rng.Intn(int(tickSpan))) // same/next bucket
				case 2:
					d = Time(rng.Intn(1 << 22)) // a few microseconds
				case 3:
					d = Time(rng.Intn(1 << 27)) // ~100 us: wheel span edge
				default:
					d = Time(rng.Intn(1 << 33)) // milliseconds: overflow heap
				}
				schedule(s.now()+d, spawn(depth-1))
			}
		}
	}
	// Seed events, including same-instant collisions.
	for i := 0; i < 40; i++ {
		schedule(Time(rng.Intn(1<<30)), spawn(4))
	}
	for i := 0; i < 8; i++ {
		schedule(12345, spawn(2))
	}
	// Interleave stepping with RunUntil jumps that park the clock between
	// events (exercises the cursor pull-back path).
	for i := 0; i < 10; i++ {
		s.runUntil(s.now() + Time(rng.Intn(1<<31)))
	}
	for s.step() {
	}
	return trace
}

// TestWheelMatchesHeapOrder pins the timing wheel's execution order to the
// reference binary-heap engine across randomized schedules: identical
// event IDs at identical times, in identical order.
func TestWheelMatchesHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		got := driveSchedule(wheelSched{New()}, seed)
		want := driveSchedule(refSched{&refEngine{}}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace lengths differ: wheel %d vs heap %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: traces diverge at %d: wheel %d vs heap %d", seed, i, got[i], want[i])
			}
		}
	}
}

// TestWheelFarFutureMigration schedules events far beyond the wheel span
// and checks they fire in order after migrating from the overflow heap.
func TestWheelFarFutureMigration(t *testing.T) {
	e := New()
	var order []Time
	times := []Time{5 * Second, 3 * Millisecond, 70 * Microsecond, 100 * Nanosecond, 70*Microsecond + 1}
	for _, at := range times {
		at := at
		e.At(at, func() { order = append(order, at) })
	}
	e.Run()
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("out of order: %v", order)
		}
	}
	if len(order) != len(times) {
		t.Fatalf("ran %d events, want %d", len(order), len(times))
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d", e.Pending())
	}
}

// TestWheelSameInstantAcrossOverflow checks the seq tie-break survives the
// wheel/overflow split: events at one far instant, scheduled at different
// points, still run FIFO.
func TestWheelSameInstantAcrossOverflow(t *testing.T) {
	e := New()
	const at = 10 * Millisecond
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		e.At(at, func() { order = append(order, i) })
		if i == 9 {
			// Advance close to the target so later schedulings land in
			// the wheel while earlier ones migrated from the overflow.
			e.RunUntil(at - 10*Microsecond)
		}
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

// TestAtCallOrdering checks the cb/arg form interleaves with plain
// closures in strict schedule order.
func TestAtCallOrdering(t *testing.T) {
	e := New()
	var order []int
	push := func(a any) { order = append(order, a.(int)) }
	e.AtCall(100, push, 0)
	e.At(100, func() { order = append(order, 1) })
	e.AtCall(100, push, 2)
	e.AfterCall(50, push, 3) // at 50: runs first
	e.Run()
	want := []int{3, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestEngineSteadyStateAllocs verifies the event core schedules and runs
// without heap allocation once warm (the pooled-event contract the
// zero-allocation data path builds on).
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := New()
	var tick func(any)
	tick = func(a any) {
		n := a.(int)
		if n > 0 {
			e.AfterCall(Time(n%3)*tickSpan, tick, n-1)
		}
	}
	// Warm up bucket capacity across a few full wheel rotations (bucket
	// slices grow lazily as the clock first visits them).
	e.AfterCall(1, tick, 5000)
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.AfterCall(1, tick, 50)
		e.Run()
	})
	// The arg int boxes into an interface on the first 256 values only;
	// steady state should be allocation-free.
	if allocs > 1 {
		t.Fatalf("engine steady-state allocs/run = %v, want <= 1", allocs)
	}
}

func BenchmarkEngineSchedule(b *testing.B) {
	e := New()
	b.ReportAllocs()
	var tick func(any)
	tick = func(a any) {}
	for i := 0; i < b.N; i++ {
		e.AfterCall(Time(i%4096), tick, nil)
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkEngineScheduleFar(b *testing.B) {
	e := New()
	b.ReportAllocs()
	var tick func(any)
	tick = func(a any) {}
	span := Time(wheelSize) << tickBits
	for i := 0; i < b.N; i++ {
		e.AfterCall(span+Time(i%4096), tick, nil)
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}
