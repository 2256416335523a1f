// Package sim provides the deterministic discrete-event simulation engine
// that every FlexTOE substrate model (NFP-4000 SmartNIC, host CPUs, links,
// switch) runs on.
//
// Time advances in integer picoseconds so that hardware clocks with
// non-nanosecond periods (the NFP-4000's 800 MHz FPCs tick every 1250 ps)
// stay exact. All state mutation happens inside events executed by a single
// goroutine, so simulations are reproducible bit-for-bit from their seed.
//
// The event core is a hierarchical timing wheel: a near wheel of
// fixed-width buckets covering the next ~67 us absorbs the dense
// sub-microsecond traffic of the data-path (FPC issue slots, memory
// stalls, PCIe completions) in O(1), while an overflow binary heap holds
// the sparse far future (retransmission timeouts, experiment end markers).
// Bucket slices and the heap reuse their capacity, so steady-state event
// scheduling performs no heap allocation. Execution order is exactly the
// order the old global heap produced: ascending timestamp, FIFO among
// events scheduled for the same instant (the seq tie-break).
package sim

import (
	"fmt"
)

// Time is a simulated instant or duration in picoseconds.
type Time int64

// Duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns the time as a float64 nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns the time as a float64 microsecond count.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds returns the time as a float64 millisecond count.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Cycles converts a cycle count at the given clock frequency to a Time.
// The conversion rounds to the nearest picosecond.
func Cycles(n int64, hz int64) Time {
	if hz <= 0 {
		panic("sim: non-positive clock frequency")
	}
	// n cycles * 1e12 ps/s / hz. Split to avoid overflow for large n.
	whole := n / hz
	rem := n % hz
	return Time(whole*1e12 + (rem*1e12+hz/2)/hz)
}

// event is one scheduled callback: cb(arg), where cb is a long-lived
// function value and arg carries the per-event state. The closure forms
// (At, After, Immediately, Every) are adapters that pass the func value as
// arg, which boxes into the interface without allocating, so every event
// has this one shape.
//
// dkey is the delivery key of the same-instant tie-break (see before): 0
// for ordinary local events, and a nonzero link-scoped key (link id in the
// high bits, per-link transmit sequence in the low bits) for
// frame-delivery events scheduled through AtLinkCall.
type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among same-instant local events
	dkey uint64 // delivery ordering key; 0 = local event
	cb   func(any)
	arg  any
}

// callFn adapts a plain func() to the cb(arg) form.
func callFn(a any) { a.(func())() }

// before reports whether a orders strictly before b in execution order.
//
// The same-instant tie-break is part of the simulation's semantics, not
// an implementation detail: local events (dkey 0) run before frame
// deliveries, deliveries order by dkey (transmitting link, then that
// link's transmit sequence), and seq keeps local events FIFO. Ordering
// deliveries by seq instead changes results — the pinned bulk-loss and
// incast-small payload digests (scenario.TestPayloadDigestsPinned) move.
// Two deliveries never share (at, dkey): a link serializes, so per-link
// delivery instants are strictly increasing, and distinct links have
// distinct dkeys.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.dkey != b.dkey {
		return a.dkey < b.dkey
	}
	return a.seq < b.seq
}

// Timing-wheel geometry. One bucket spans 2^tickBits ps (65.536 ns); the
// wheel spans wheelSize buckets (~67 us). Deadlines beyond the span go to
// the overflow heap and migrate into the wheel when it advances.
const (
	tickBits  = 16
	tickSpan  = Time(1) << tickBits
	wheelBits = 10
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with New.
type Engine struct {
	now     Time
	seq     uint64
	stopped bool
	nRun    uint64

	// Near wheel: buckets[i&wheelMask] holds events whose tick index
	// (at>>tickBits) is i, for ticks in [start>>tickBits, +wheelSize).
	// heads[i] is the bucket's consumed prefix; the unconsumed suffix is
	// kept in execution order at insert.
	buckets  [][]event
	heads    []int
	start    Time  // wheel window lower bound, tick-aligned
	curTick  int64 // cursor: no wheel event lives below this tick
	wheelCnt int

	// Overflow heap for events beyond the wheel span, ordered by
	// (at, seq). Invariant: every overflow event is at or beyond
	// start+span whenever the wheel is non-empty, so the wheel minimum is
	// always the global minimum when wheelCnt > 0.
	overflow []event

	// locals holds per-engine singletons (pools, freelists) keyed by an
	// arbitrary comparable key; see Local.
	locals map[any]any
}

// New returns an empty engine at time zero.
func New() *Engine {
	return &Engine{
		buckets: make([][]event, wheelSize),
		heads:   make([]int, wheelSize),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.nRun }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) {
	e.AtCall(t, callFn, fn)
}

// AtCall schedules cb(arg) at absolute time t. It is the allocation-free
// form of At: cb should be a long-lived function value (package-level or
// cached on a struct) and arg the per-event state, so scheduling performs
// no closure allocation. arg must not be a pooled object that could be
// recycled before the event fires.
func (e *Engine) AtCall(t Time, cb func(any), arg any) {
	e.schedule(t, 0, cb, arg)
}

// AtLinkCall schedules cb(arg) at absolute time t as a frame-delivery
// event carrying the link-scoped ordering key dkey (nonzero). Deliveries
// at the same instant execute after local events and in dkey order (see
// the tie-break rule at before).
func (e *Engine) AtLinkCall(t Time, dkey uint64, cb func(any), arg any) {
	if dkey == 0 {
		panic("sim: AtLinkCall requires a nonzero delivery key")
	}
	e.schedule(t, dkey, cb, arg)
}

// schedule stamps the next seq on cb(arg) and queues it at t.
func (e *Engine) schedule(t Time, dkey uint64, cb func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.insert(event{at: t, seq: e.seq, dkey: dkey, cb: cb, arg: arg})
}

// Local returns the per-engine singleton stored under key, constructing
// it with mk on first use. Pools and freelists are single-threaded by
// design; hanging one instance off each engine keeps the hot path
// allocation-free while testbeds that run concurrently (sweep cells,
// service jobs) share nothing (see SHAREDSTATE.md).
func (e *Engine) Local(key any, mk func() any) any {
	if v, ok := e.locals[key]; ok {
		return v
	}
	if e.locals == nil {
		e.locals = make(map[any]any)
	}
	v := mk()
	e.locals[key] = v
	return v
}

// After schedules fn to run d picoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) {
	e.AtCall(e.now+d, callFn, fn)
}

// AfterCall schedules cb(arg) d picoseconds from now (see AtCall).
func (e *Engine) AfterCall(d Time, cb func(any), arg any) {
	e.AtCall(e.now+d, cb, arg)
}

// Immediately schedules fn at the current instant, after all events already
// queued for this instant.
func (e *Engine) Immediately(fn func()) {
	e.AtCall(e.now, callFn, fn)
}

// ImmediatelyCall schedules cb(arg) at the current instant (see AtCall).
func (e *Engine) ImmediatelyCall(cb func(any), arg any) {
	e.AtCall(e.now, cb, arg)
}

// Every schedules fn at start and then every interval thereafter, for as
// long as fn returns true.
func (e *Engine) Every(start, interval Time, fn func() bool) {
	e.EveryCall(start, interval, callBoolFn, fn)
}

// callBoolFn adapts a plain func() bool to the EveryCall form.
func callBoolFn(a any) bool { return a.(func() bool)() }

// periodic carries one EveryCall arming: the long-lived callback, its
// argument, and the rearm interval.
type periodic struct {
	e        *Engine
	interval Time
	cb       func(any) bool
	arg      any
}

// periodicTick fires one EveryCall iteration and rearms while the
// callback returns true.
func periodicTick(a any) {
	p := a.(*periodic)
	if p.cb(p.arg) {
		p.e.AfterCall(p.interval, periodicTick, p)
	}
}

// EveryCall schedules cb(arg) at start and then every interval
// thereafter, for as long as cb returns true. It is the allocation-free
// form of Every: cb should be a long-lived function value and arg the
// periodic state, so arming allocates one small carrier and each firing
// allocates nothing.
func (e *Engine) EveryCall(start, interval Time, cb func(any) bool, arg any) {
	if interval <= 0 {
		panic("sim: non-positive interval")
	}
	e.AtCall(start, periodicTick, &periodic{e: e, interval: interval, cb: cb, arg: arg})
}

// insert routes an event to its wheel bucket or the overflow heap.
func (e *Engine) insert(ev event) {
	const span = Time(wheelSize) << tickBits
	if e.wheelCnt == 0 && ev.at-e.start >= span {
		// Empty wheel: slide the window up to now so near-future events
		// keep landing in buckets.
		e.anchor(e.now)
	}
	if ev.at-e.start < span {
		tick := int64(ev.at >> tickBits)
		if tick < e.curTick {
			// The cursor peeked ahead of now (RunUntil); rescan from here.
			e.curTick = tick
		}
		e.bucketInsert(ev)
		return
	}
	e.heapPush(ev)
}

// bucketInsert places ev in its wheel bucket, keeping the unconsumed
// suffix in execution order. Events mostly arrive in order, so the shift
// from the tail is usually empty; it stops at the head because consumed
// slots are dead.
func (e *Engine) bucketInsert(ev event) {
	idx := int(ev.at>>tickBits) & wheelMask
	b := append(e.buckets[idx], ev)
	j, h := len(b)-1, e.heads[idx]
	for j > h && ev.before(&b[j-1]) {
		b[j] = b[j-1]
		j--
	}
	b[j] = ev
	e.buckets[idx] = b
	e.wheelCnt++
}

// anchor moves the wheel window so it starts at the tick containing t and
// migrates overflow events that fall inside the new window. Only legal
// when the wheel is empty.
func (e *Engine) anchor(t Time) {
	e.start = t &^ (tickSpan - 1)
	e.curTick = int64(e.start >> tickBits)
	const span = Time(wheelSize) << tickBits
	for len(e.overflow) > 0 && e.overflow[0].at-e.start < span {
		e.bucketInsert(e.heapPop())
	}
}

// wheelMin advances the cursor to the first non-empty bucket and returns
// a pointer to its earliest event. Only valid when wheelCnt > 0.
func (e *Engine) wheelMin() *event {
	for {
		idx := int(e.curTick) & wheelMask
		b := e.buckets[idx]
		if h := e.heads[idx]; h < len(b) {
			return &b[h]
		}
		// Bucket exhausted: reset it for the next rotation.
		if len(b) > 0 {
			e.buckets[idx] = b[:0]
			e.heads[idx] = 0
		}
		e.curTick++
	}
}

// Step executes the next event. It reports whether an event was executed.
func (e *Engine) Step() bool { return e.stepUntil(maxTime) }

// maxTime is the horizon of an unbounded Step.
const maxTime = Time(1<<63 - 1)

// stepUntil executes the next event if its timestamp is at or before t,
// and reports whether it did.
func (e *Engine) stepUntil(t Time) bool {
	if e.stopped {
		return false
	}
	if e.wheelCnt == 0 {
		if len(e.overflow) == 0 || e.overflow[0].at > t {
			return false
		}
		e.anchor(e.overflow[0].at)
	}
	ev := e.wheelMin()
	if ev.at > t {
		return false
	}
	// Consume the event in place: take the callback, clear the slot and
	// advance the head before running it, since the callback may insert
	// into (and so grow or shift) this same bucket.
	cb, arg := ev.cb, ev.arg
	e.now = ev.at
	*ev = event{}
	e.heads[int(e.curTick)&wheelMask]++
	e.wheelCnt--
	e.nRun++
	cb(arg)
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t (even if the queue still holds later events).
func (e *Engine) RunUntil(t Time) {
	for e.stepUntil(t) {
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// Stop halts the engine: Step, Run and RunUntil become no-ops.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.wheelCnt + len(e.overflow) }

// ---------------------------------------------------------------------
// Overflow heap: a plain binary min-heap on (at, seq), hand-rolled so
// pushes and pops never box events through container/heap's interface.
// ---------------------------------------------------------------------

func (e *Engine) heapPush(ev event) {
	h := append(e.overflow, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.overflow = h
}

func (e *Engine) heapPop() event {
	h := e.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l].before(&h[min]) {
			min = l
		}
		if r < n && h[r].before(&h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	e.overflow = h
	return top
}
