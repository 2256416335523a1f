package apps

import (
	"testing"

	"flextoe/internal/netsim"
	"flextoe/internal/stats"
	"flextoe/internal/testbed"
)

// rpcPair is a steady-state fixed-size RPC workload over a two-machine
// FlexTOE testbed: the app-layer analogue of core's benchPair.
type rpcPair struct {
	tb  *testbed.Testbed
	srv *RPCServer
	cli *ClosedLoopClient
}

func newRPCPair(reqSize, pipeline int) *rpcPair {
	tb := testbed.New(netsim.SwitchConfig{},
		testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 2, BufSize: 1 << 16, Seed: 41},
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 2, BufSize: 1 << 16, Seed: 42},
	)
	srv := &RPCServer{ReqSize: reqSize, AppCycles: 250}
	srv.Serve(tb.M("server").Stack, 9100)
	cli := &ClosedLoopClient{ReqSize: reqSize, Pipeline: pipeline, Latency: stats.NewHistogram()}
	cli.Start(tb.M("client").Stack, tb.Addr("server", 9100), 2)
	return &rpcPair{tb: tb, srv: srv, cli: cli}
}

// runRequests steps the engine until n more requests complete.
func (p *rpcPair) runRequests(n uint64) {
	target := p.cli.Completed + n
	for p.cli.Completed < target {
		if !p.tb.Eng.Step() {
			panic("apps: RPC workload stalled")
		}
	}
}

// TestAppSteadyStateAllocBudget extends the PR-3 zero-allocation
// contract from the data path to the application layer: a steady-state
// fixed-size RPC request-response — client issue, FlexTOE data path both
// ways, server parse + respond, client completion with latency
// recording — must cost at most 2 heap allocations end to end. The
// view-based workloads (Peek/Consume, Reserve/Commit) stage and parse in
// the payload rings, so the nominal per-request path allocates nothing;
// the budget leaves room for amortized container growth (issued-time
// rings, histogram buckets). Runs under plain `go test`, so CI enforces
// it without benchmark plumbing.
func TestAppSteadyStateAllocBudget(t *testing.T) {
	p := newRPCPair(64, 4)
	p.runRequests(2000) // warm pools, rings, histogram buckets
	const reqs = 500
	allocs := testing.AllocsPerRun(3, func() {
		p.runRequests(reqs)
	})
	perReq := allocs / reqs
	t.Logf("steady-state allocs per RPC request (app layer end to end): %.3f", perReq)
	if perReq > 2 {
		t.Fatalf("allocs per request = %.3f, budget is 2", perReq)
	}
}

// BenchmarkAppRPCRequest reports the wall-clock and allocation cost of
// one simulated RPC request-response end to end at the application
// layer (the number TestAppSteadyStateAllocBudget gates).
func BenchmarkAppRPCRequest(b *testing.B) {
	p := newRPCPair(64, 4)
	p.runRequests(2000)
	b.ReportAllocs()
	b.ResetTimer()
	ev := p.tb.Eng.Processed()
	p.runRequests(uint64(b.N))
	b.ReportMetric(float64(p.tb.Eng.Processed()-ev)/float64(b.N), "events/op")
}

// TestAppEventBudget gates the engine events one steady-state RPC
// request-response costs end to end (the harness of
// BenchmarkAppRPCRequest). The count is deterministic, so the gate is
// exact: a change that adds events anywhere on the request path fails
// here without any wall-clock measurement.
func TestAppEventBudget(t *testing.T) {
	const max = 62262 // events over the measured requests
	p := newRPCPair(64, 4)
	p.runRequests(2000)
	const reqs = 2000
	ev := p.tb.Eng.Processed()
	p.runRequests(reqs)
	n := p.tb.Eng.Processed() - ev
	t.Logf("%d events over %d requests (%.2f per request), now %dps", n, reqs, float64(n)/reqs, int64(p.tb.Eng.Now()))
	if n > max {
		t.Fatalf("%d events over %d requests, budget is %d", n, reqs, max)
	}
}
