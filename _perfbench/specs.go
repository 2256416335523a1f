package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"flextoe/internal/scenario"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlRPC    = "rpc-small"
	wlBulk   = "bulk-loss"
	wlIncast = "incast-fabric"
	wlServe  = "serve-jobs"
)

var workloadNames = []string{wlRPC, wlBulk, wlIncast, wlServe}

// specsPerRun is how many distinct specs a simulation workload draws
// per run. The modelled outputs (goodput, RTT tail) of one spec depend
// on its seed — by a few percent loss-free, by up to a fifth under 1%
// loss — so a run reports them over several specs, and every spec
// executes at least twice so its payload digests can be compared.
const specsPerRun = 8

// genSpecs returns the specs a workload runs for a benchmark seed: the
// same seed always yields the same bytes.
func genSpecs(workload string, seed uint64) ([][]byte, error) {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(workload); i++ {
		h = (h ^ uint64(workload[i])) * 1099511628211
	}
	r := rand.New(rand.NewPCG(seed, h))
	var specs []*scenario.Spec
	switch workload {
	case wlRPC:
		for i := 0; i < specsPerRun; i++ {
			specs = append(specs, rpcSmallSpec(r, i))
		}
	case wlBulk:
		for i := 0; i < specsPerRun; i++ {
			specs = append(specs, bulkLossSpec(r, i))
		}
	case wlIncast:
		for i := 0; i < specsPerRun; i++ {
			specs = append(specs, incastFabricSpec(r, i))
		}
	case wlServe:
		specs = serveMix(r)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	out := make([][]byte, len(specs))
	for i, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, fmt.Errorf("encode spec %s: %w", s.Name, err)
		}
		out[i] = b
	}
	return out, nil
}

// specSeed draws a nonzero scenario master seed.
func specSeed(r *rand.Rand) uint64 { return r.Uint64()>>1 | 1 }

// rpcSmallSpec is closed-loop 64 B echo RPC on one switch: a FlexTOE
// server and two FlexTOE clients with 16 connections each. Nothing in
// it is random, so the seed varies the server's per-request work, which
// moves the simulated RTT by about a percent.
func rpcSmallSpec(r *rand.Rand, i int) *scenario.Spec {
	return &scenario.Spec{
		Name:       fmt.Sprintf("%s-%d", wlRPC, i),
		Seed:       specSeed(r),
		DurationUs: 12000,
		WarmupUs:   500,
		Topology:   scenario.Topology{Kind: scenario.TopoTestbed},
		Machines: []scenario.Machine{
			{Name: "server", Stack: scenario.StackFlexTOE, Cores: 4},
			{Name: "c0", Stack: scenario.StackFlexTOE, Cores: 2},
			{Name: "c1", Stack: scenario.StackFlexTOE, Cores: 2},
		},
		Workloads: []scenario.Workload{{Kind: scenario.KindRPC, RPC: &scenario.RPCWorkload{
			Server: "server", Port: 9000, Clients: []string{"c0", "c1"},
			Conns: 16, ReqBytes: 64, AppCycles: 200 + r.Int64N(801),
		}}},
	}
}

// bulkLossSpec has a FlexTOE sender (SACK, ooo_cap 4) push 8 bulk
// connections through a switch dropping 1% of frames, with a flowmon
// analyzer and per-flow records on the sender NIC. Half the connections
// end at a Linux sink, which is what runs the baseline stack. The other
// half end at a FlexTOE sink: a Linux sink negotiates no SACK, the
// sender falls back to go-back-N, and Karn's rule then leaves the tap
// without RTT samples, so the workload's RTT tail comes from the
// FlexTOE-to-FlexTOE flows. The seed picks the loss pattern.
func bulkLossSpec(r *rand.Rand, i int) *scenario.Spec {
	return &scenario.Spec{
		Name:       fmt.Sprintf("%s-%d", wlBulk, i),
		Seed:       specSeed(r),
		DurationUs: 20000,
		WarmupUs:   500,
		Topology: scenario.Topology{Kind: scenario.TopoTestbed,
			Switch: &scenario.SwitchSpec{LossProb: 0.01}},
		Machines: []scenario.Machine{
			{Name: "snd", Stack: scenario.StackFlexTOE, Cores: 4, BufBytes: 524288, SACK: true, OOOCap: 4},
			{Name: "lsink", Stack: scenario.StackLinux, Cores: 4, BufBytes: 524288},
			{Name: "fsink", Stack: scenario.StackFlexTOE, Cores: 4, BufBytes: 524288, SACK: true, OOOCap: 4},
		},
		Workloads: []scenario.Workload{
			{Kind: scenario.KindBulk, Bulk: &scenario.BulkWorkload{
				Server: "lsink", Port: 9000, Clients: []string{"snd"}, Conns: 4}},
			{Kind: scenario.KindBulk, Bulk: &scenario.BulkWorkload{
				Server: "fsink", Port: 9001, Clients: []string{"snd"}, Conns: 4}},
		},
		Measure: scenario.Measure{
			Flowmon: []scenario.FlowmonAttach{{Machine: "snd"}},
			PerFlow: true,
		},
	}
}

// incastFabricSpec has the shape of examples/scenarios/incast16.json:
// 3 racks, 2 spines, 8 FlexTOE senders in 16-way incast to one
// aggregator, DCTCP, shallow ToR buffers, per-rack flowmon fleets. The
// run is loss-free and seed-independent, so the seed varies the block
// size by up to ±6%.
func incastFabricSpec(r *rand.Rand, i int) *scenario.Spec {
	const buf = 131072
	s := &scenario.Spec{
		Name:       fmt.Sprintf("%s-%d", wlIncast, i),
		Seed:       specSeed(r),
		DurationUs: 8000,
		WarmupUs:   2000,
		Topology: scenario.Topology{Kind: scenario.TopoFabric, Fabric: &scenario.FabricSpec{
			Racks: 3, Spines: 2, QueueHistUnit: 1448,
			Leaf:  &scenario.SwitchSpec{ECNThresholdBytes: 90000, QueueCapBytes: 250000},
			Spine: &scenario.SwitchSpec{ECNThresholdBytes: 90000, QueueCapBytes: 500000},
		}},
		Machines: []scenario.Machine{{Name: "agg", Stack: scenario.StackFlexTOE, Cores: 4, BufBytes: buf, CC: "dctcp"}},
		Measure:  scenario.Measure{PerRackFleets: true},
	}
	var senders []string
	for k := 0; k < 8; k++ {
		name := fmt.Sprintf("snd%d", k)
		senders = append(senders, name)
		s.Machines = append(s.Machines, scenario.Machine{
			Name: name, Stack: scenario.StackFlexTOE, Cores: 2, Rack: 1 + k%2, BufBytes: buf, CC: "dctcp"})
	}
	s.Workloads = []scenario.Workload{{Kind: scenario.KindIncast, Incast: &scenario.IncastWorkload{
		Agg: "agg", Port: 9400, Senders: senders, FanIn: 16, BlockBytes: 30720 + r.IntN(4097)}}}
	return s
}

// serveMix is the serve-jobs job mix: every combination of kind (rpc,
// bulk), stack personality, per-flow records on or off, and simulated
// window (0.3 to 1.3 ms) appears exactly once, in a seeded order. Host
// cost per job then spreads over a dense range instead of a few
// clusters, so job-time quantiles do not fall into gaps between
// clusters, and every seed submits the same kinds of work. kv is left
// out: a kv spec without val_bytes completes no operations (see
// README.md), and fixing that would change what these jobs simulate.
func serveMix(r *rand.Rand) []*scenario.Spec {
	stacks := []string{scenario.StackFlexTOE, scenario.StackLinux, scenario.StackTAS, scenario.StackChelsio}
	var out []*scenario.Spec
	for _, kind := range []string{scenario.KindRPC, scenario.KindBulk} {
		for _, st := range stacks {
			for _, perFlow := range []bool{false, true} {
				for _, us := range []int64{300, 500, 800, 1300} {
					out = append(out, tinySpec(r, len(out), kind, st, perFlow, us))
				}
			}
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// tinySpec is one serve-jobs job: two machines of one stack personality
// on one switch, running rpc or bulk traffic for durUs after a 0.2 ms
// warmup — short enough that HTTP, JSON, persistence and Build are a
// large share of most jobs. Loss-free, so the seed varies the rpc
// server's work.
func tinySpec(r *rand.Rand, i int, kind, stack string, perFlow bool, durUs int64) *scenario.Spec {
	s := &scenario.Spec{
		Name:       fmt.Sprintf("%s-%02d-%s-%s", wlServe, i, kind, stack),
		Seed:       specSeed(r),
		DurationUs: durUs,
		WarmupUs:   200,
		Topology:   scenario.Topology{Kind: scenario.TopoTestbed},
		Machines: []scenario.Machine{
			{Name: "server", Stack: stack, Cores: 2},
			{Name: "client", Stack: stack, Cores: 2},
		},
	}
	if kind == scenario.KindRPC {
		s.Workloads = []scenario.Workload{{Kind: kind, RPC: &scenario.RPCWorkload{
			Server: "server", Port: 9000, Clients: []string{"client"}, Conns: 4, ReqBytes: 64, AppCycles: 200 + r.Int64N(101)}}}
	} else {
		s.Workloads = []scenario.Workload{{Kind: kind, Bulk: &scenario.BulkWorkload{
			Server: "server", Port: 9000, Clients: []string{"client"}, Conns: 2}}}
	}
	if perFlow {
		dup := "flextoe"
		if stack != scenario.StackFlexTOE {
			dup = "baseline"
		}
		s.Measure = scenario.Measure{Flowmon: []scenario.FlowmonAttach{{Machine: "client", DupAck: dup}}, PerFlow: true}
	}
	return s
}
