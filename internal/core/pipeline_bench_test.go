package core

import (
	"testing"

	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
)

// benchPair wires two TOEs through a switch with one connection and
// applications that keep the sender's TX buffer full and drain the
// receiver immediately — a steady-state unidirectional bulk transfer
// whose per-segment cost is the data path itself, not the app.
type benchPair struct {
	eng  *sim.Engine
	toeA *TOE
	toeB *TOE
}

func newBenchPair(cfg Config, bufSize uint32) *benchPair {
	eng := sim.New()
	n := netsim.NewNetwork(eng, netsim.SwitchConfig{})
	macA := packet.MAC(2, 0, 0, 0, 0, 1)
	macB := packet.MAC(2, 0, 0, 0, 0, 2)
	rate := netsim.GbpsToBytesPerSec(40)
	ifA := n.AttachHost("a", macA, rate, 100*sim.Nanosecond)
	ifB := n.AttachHost("b", macB, rate, 100*sim.Nanosecond)
	toeA := New(eng, cfg, ifA)
	toeB := New(eng, cfg, ifB)

	flowA := packet.Flow{SrcIP: packet.IP(10, 0, 0, 1), DstIP: packet.IP(10, 0, 0, 2), SrcPort: 1000, DstPort: 2000}
	var connA, connB *Conn
	// Sender: every TxFree notification is immediately re-filled, so the
	// TX buffer never drains.
	connA = toeA.AddConnection(flowA, macB, 0, 0,
		shm.NewPayloadBuf(bufSize), shm.NewPayloadBuf(bufSize), 0xA,
		func(d shm.Desc) {
			if d.Kind == shm.DescTxFree {
				toeA.InjectHC(shm.Desc{Kind: shm.DescTxBump, Conn: connA.ID, Bytes: d.Bytes})
			}
		})
	// Receiver: every RxNotify is consumed on the spot, so the window
	// never closes.
	connB = toeB.AddConnection(flowA.Reverse(), macA, 0, 0,
		shm.NewPayloadBuf(bufSize), shm.NewPayloadBuf(bufSize), 0xB,
		func(d shm.Desc) {
			if d.Kind == shm.DescRxNotify {
				toeB.InjectHC(shm.Desc{Kind: shm.DescRxConsume, Conn: connB.ID, Bytes: d.Bytes})
			}
		})
	_ = connB
	// Prime the transfer.
	toeA.InjectHC(shm.Desc{Kind: shm.DescTxBump, Conn: connA.ID, Bytes: bufSize})
	return &benchPair{eng: eng, toeA: toeA, toeB: toeB}
}

// runSegments steps the engine until the receiver has consumed n more
// data segments.
func (p *benchPair) runSegments(n uint64) {
	target := p.toeB.RxSegs + n
	for p.toeB.RxSegs < target {
		if !p.eng.Step() {
			panic("core: benchmark transfer stalled")
		}
	}
}

// BenchmarkPipelineSegment measures the full simulated data path per
// transmitted segment — sender pipeline, wire, receiver pipeline, ACK
// return, host notifications — in steady state. The headline metrics are
// ns/op (wall-clock per simulated segment) and allocs/op (the
// zero-allocation contract; see TestPipelineSteadyStateAllocBudget for
// the CI gate).
func BenchmarkPipelineSegment(b *testing.B) {
	p := newBenchPair(AgilioCX40Config(), 1<<16)
	p.runSegments(2000) // warm pools, caches, wheel buckets
	b.ReportAllocs()
	b.ResetTimer()
	ev := p.eng.Processed()
	p.runSegments(uint64(b.N))
	b.ReportMetric(float64(p.eng.Processed()-ev)/float64(b.N), "events/op")
}

// TestPipelineSteadyStateAllocBudget is the benchmark-smoke gate: a
// steady-state simulated data segment must cost at most 2 heap
// allocations end to end (pooled events, segItems, packets, frames and
// payload slabs make the nominal path allocation-free; the budget leaves
// room for amortized container growth). Runs under plain `go test`, so CI
// needs no benchmark plumbing to enforce it.
func TestPipelineSteadyStateAllocBudget(t *testing.T) {
	p := newBenchPair(AgilioCX40Config(), 1<<16)
	p.runSegments(2000)
	const segs = 500
	allocs := testing.AllocsPerRun(3, func() {
		p.runSegments(segs)
	})
	perSeg := allocs / segs
	t.Logf("steady-state allocs per simulated segment: %.3f", perSeg)
	if perSeg > 2 {
		t.Fatalf("allocs per segment = %.3f, budget is 2", perSeg)
	}
}

// TestPipelineEventBudget gates the engine events one steady-state
// simulated segment costs, pipelined and in the run-to-completion
// ablation. Event counts are deterministic, so the gate is exact and
// free of wall-clock noise: a change that adds events on the data path
// fails here, and one that removes them lowers the pinned total.
func TestPipelineEventBudget(t *testing.T) {
	mono := AgilioCX40Config()
	mono.RunToCompletion = true
	mono.ThreadsPerFPC = 1
	cases := []struct {
		name string
		cfg  Config
		max  uint64 // events over the measured segments
	}{
		{"pipeline", AgilioCX40Config(), 116402},
		{"run-to-completion", mono, 68000},
	}
	const segs = 2000
	for _, tc := range cases {
		p := newBenchPair(tc.cfg, 1<<16)
		p.runSegments(2000)
		ev := p.eng.Processed()
		p.runSegments(segs)
		n := p.eng.Processed() - ev
		t.Logf("%s: %d events over %d segments (%.2f per segment), now %dps", tc.name, n, segs, float64(n)/segs, int64(p.eng.Now()))
		if n > tc.max {
			t.Errorf("%s: %d events over %d segments, budget is %d", tc.name, n, segs, tc.max)
		}
	}
}
