package experiments

import (
	"fmt"

	"flextoe/internal/api"
	"flextoe/internal/ctrl"
	"flextoe/internal/fabric"
	"flextoe/internal/fabric/workload"
	"flextoe/internal/flowmon"
	"flextoe/internal/netsim"
	"flextoe/internal/scenario"
	"flextoe/internal/sim"
	"flextoe/internal/stats"
	"flextoe/internal/testbed"
)

// Fig. 17 fabric parameters (reproduction extension): a DCTCP-style
// marking threshold K and a shallow-buffer queue cap on the leaf tier,
// the regime the paper's §5 congestion-control evaluation assumes but the
// single-switch testbed could never produce.
const (
	fig17K        = 90_000  // leaf ECN threshold (bytes), the DCTCP K
	fig17QueueCap = 250_000 // leaf egress queue cap (bytes), shallow ToR buffer
)

// fig17IncastResult is one incast sweep point.
type fig17IncastResult struct {
	goodputGbps float64
	p50us       float64
	p99us       float64
	rounds      uint64
	peakQ       int    // deepest leaf egress queue after warmup (bytes)
	ecnMarks    uint64 // CE marks applied at the leaf tier
	retxKB      float64
}

// fig17IncastPoint runs one N-to-1 incast point on a three-rack fabric:
// the aggregator alone in rack 0, sender hosts spread over racks 1-2, and
// fan-in connections spread over the sender hosts. All machines run
// FlexTOE with the given control-plane congestion-control policy.
// The point runs through the scenario builder (the spec below is the
// declarative form of the original harness — same seeds, same warmup
// boundary), and the determinism gates prove the numbers stayed
// bit-identical across the refactor.
// examples/scenarios/incast16.json is the 16-way point in JSON clothing.
func fig17IncastPoint(fanIn int, cc ctrl.CCAlgo, d sim.Time) fig17IncastResult {
	hosts := fanIn
	if hosts > 8 {
		hosts = 8
	}
	spec := &scenario.Spec{
		Name:       "fig17a-incast",
		Seed:       170_000 + uint64(fanIn),
		DurationUs: int64(d / sim.Microsecond),
		// Warm up past connection setup and the initial slow-start burst;
		// the builder resets queue stats and measurement at the boundary
		// so all columns measure the same post-warmup window.
		WarmupUs: int64(d / 4 / sim.Microsecond),
		Topology: scenario.Topology{
			Kind: scenario.TopoFabric,
			Fabric: &scenario.FabricSpec{
				Racks: 3, Spines: 2,
				QueueHistUnit: 1448,
				Leaf:          &scenario.SwitchSpec{ECNThresholdBytes: fig17K, QueueCapBytes: fig17QueueCap},
				Spine:         &scenario.SwitchSpec{ECNThresholdBytes: fig17K, QueueCapBytes: 2 * fig17QueueCap},
			},
		},
		Machines: []scenario.Machine{{
			Name: "agg", Stack: scenario.StackFlexTOE, Cores: 4, Rack: 0,
			BufBytes: 1 << 17, CC: scenarioCC(cc), Seed: 1700,
		}},
	}
	senders := make([]string, hosts)
	for i := 0; i < hosts; i++ {
		senders[i] = fmt.Sprintf("snd%d", i)
		spec.Machines = append(spec.Machines, scenario.Machine{
			Name: senders[i], Stack: scenario.StackFlexTOE, Cores: 2,
			Rack: 1 + i%2, BufBytes: 1 << 17, CC: scenarioCC(cc), Seed: uint64(1710 + i),
		})
	}
	spec.Workloads = []scenario.Workload{{
		Kind: scenario.KindIncast,
		Incast: &scenario.IncastWorkload{
			Agg: "agg", Port: 9400, Senders: senders,
			FanIn: fanIn, BlockBytes: 32768,
		},
	}}
	_, res := mustScenario(spec)

	var retx uint64
	for _, m := range res.Machines[1:] {
		retx += m.RetxBytes
	}
	w := res.Workloads[0]
	return fig17IncastResult{
		goodputGbps: w.GoodputGbps,
		p50us:       w.P50Us,
		p99us:       w.P99Us,
		rounds:      w.Rounds,
		peakQ:       res.Fabric.PeakLeafQueueBytes,
		ecnMarks:    res.Fabric.LeafECNMarks,
		retxKB:      float64(retx) / 1024,
	}
}

// scenarioCC names a control-plane CC policy in spec vocabulary.
func scenarioCC(cc ctrl.CCAlgo) string {
	switch cc {
	case ctrl.CCDCTCP:
		return "dctcp"
	case ctrl.CCTimely:
		return "timely"
	default:
		return "none"
	}
}

// fig17OversubResult is one oversubscription sweep point.
type fig17OversubResult struct {
	goodputGbps float64
	p99us       float64
	peakUplinkQ int    // deepest leaf→spine trunk queue after warmup
	peakHostQ   int    // deepest host-facing leaf queue after warmup
	uplinkMarks uint64 // CE marks applied at trunk ports
	hostMarks   uint64 // CE marks applied at host-facing ports
}

// fig17OversubPoint runs an 8-way incast (4 sender hosts × 2 connections
// in rack 1, aggregator in rack 0) over a single-spine fabric with the
// given trunk rate, DCTCP on. With the trunk at 200 G the fabric is
// non-blocking (4 hosts × 40 G = 160 G fits) and congestion sits where
// incast always puts it: the aggregator's 40 G leaf egress port. At
// 100 G the hosts oversubscribe the trunk (160 G > 100 G) and the
// leaf→spine uplink queue joins in; at 30 G the trunk is the unique
// bottleneck and the host-facing queue goes quiet — congestion has moved
// from leaf egress to the uplink, and the ECN marks (what DCTCP reacts
// to) move with it.
func fig17OversubPoint(trunkGbps float64, d sim.Time) fig17OversubResult {
	const hosts = 4
	fc := fabric.Config{
		Leaves: 2, Spines: 1,
		LeafSpineGbps: trunkGbps,
		QueueHistUnit: 1448,
		Leaf: netsim.SwitchConfig{
			ECNThresholdBytes: fig17K,
			QueueCapBytes:     fig17QueueCap,
		},
		Spine: netsim.SwitchConfig{
			ECNThresholdBytes: fig17K,
			QueueCapBytes:     2 * fig17QueueCap,
		},
		Seed: 172_000 + uint64(trunkGbps),
	}
	specs := []testbed.MachineSpec{{
		Name: "agg", Kind: testbed.FlexTOE, Cores: 4, Rack: 0,
		BufSize: 1 << 17, CC: ctrl.CCDCTCP, Seed: 1720,
	}}
	for i := 0; i < hosts; i++ {
		specs = append(specs, testbed.MachineSpec{
			Name: fmt.Sprintf("snd%d", i), Kind: testbed.FlexTOE, Cores: 2,
			Rack: 1, BufSize: 1 << 17, CC: ctrl.CCDCTCP, Seed: uint64(1730 + i),
		})
	}
	tb := testbed.NewFabric(fc, specs...)

	g := &workload.IncastGroup{BlockBytes: 32768}
	g.Serve(tb.M("agg").Stack, 9600)
	senders := make([]api.Stack, 0, 2*hosts)
	for i := 0; i < 2*hosts; i++ {
		senders = append(senders, tb.M(fmt.Sprintf("snd%d", i%hosts)).Stack)
	}
	g.Start(senders, tb.Addr("agg", 9600))

	warm := d / 4
	tb.Run(warm)
	tb.Fabric.ResetQueueStats()
	g.RoundFCT = stats.NewHistogram()
	bytes0 := g.BytesReceived
	upMarks0, hostMarks0 := tb.Fabric.UplinkECNMarks(), tb.Fabric.HostPortECNMarks()
	tb.Run(warm + d)

	return fig17OversubResult{
		goodputGbps: gbps(g.BytesReceived-bytes0, d),
		p99us:       usOf(g.RoundFCT.Percentile(99)),
		peakUplinkQ: tb.Fabric.PeakUplinkQueueBytes(),
		peakHostQ:   tb.Fabric.PeakHostQueueBytes(),
		uplinkMarks: tb.Fabric.UplinkECNMarks() - upMarks0,
		hostMarks:   tb.Fabric.HostPortECNMarks() - hostMarks0,
	}
}

// fig17ECMPPoint measures hash balance: flows fixed-size transfers from
// rack-1 hosts to rack-0 hosts over a fabric with the given spine count,
// returning the bytes each spine carried upward out of the sender leaf
// tier, the heaviest spine's load relative to the fair share, and one
// flowmon Fleet report per rack (ROADMAP 5c): every host NIC in a rack
// feeds one analyzer, merged in attachment order, so per-spine RTT/retx
// splits come from Report.GroupTotals over the same CRC-32 flow hash the
// ECMP stage forwards with. The taps are passive — attaching them left
// the spine byte counts bit-identical (TestTapsDoNotPerturbSimulation).
func fig17ECMPPoint(spines, flows int, d sim.Time) (spineBytes []uint64, maxOverFair float64, racks []*flowmon.Report) {
	fc := fabric.Config{Leaves: 2, Spines: spines, Seed: 171_000 + uint64(spines)}
	const hostsPerSide = 4
	var specs []testbed.MachineSpec
	for i := 0; i < hostsPerSide; i++ {
		specs = append(specs,
			testbed.MachineSpec{Name: fmt.Sprintf("src%d", i), Kind: testbed.FlexTOE, Cores: 2,
				Rack: 1, BufSize: 1 << 17, Seed: uint64(1750 + i)},
			testbed.MachineSpec{Name: fmt.Sprintf("dst%d", i), Kind: testbed.FlexTOE, Cores: 2,
				Rack: 0, BufSize: 1 << 17, Seed: uint64(1760 + i)},
		)
	}
	tb := testbed.NewFabric(fc, specs...)

	fleets := make([]*flowmon.Fleet, fc.Leaves)
	for r := range fleets {
		fleets[r] = &flowmon.Fleet{}
	}
	for _, h := range tb.Fabric.Hosts() {
		mon := flowmon.New(flowmon.Config{})
		flowmon.Attach(mon, h.Iface)
		fleets[h.Rack].Add(mon)
	}

	g := &workload.FlowGen{
		Rate:     1e7, // effectively simultaneous arrivals
		Size:     workload.Fixed(65536),
		Conns:    flows,
		MaxFlows: flows,
		Seed:     171,
	}
	srcs := make([]api.Stack, hostsPerSide)
	dsts := make([]api.Addr, hostsPerSide)
	for i := 0; i < hostsPerSide; i++ {
		srcs[i] = tb.M(fmt.Sprintf("src%d", i)).Stack
		g.Serve(tb.M(fmt.Sprintf("dst%d", i)).Stack, 9500)
		dsts[i] = tb.Addr(fmt.Sprintf("dst%d", i), 9500)
	}
	g.Start(srcs, dsts...)
	tb.Run(d)

	spineBytes = tb.Fabric.SpineTxBytes()
	var total uint64
	max := uint64(0)
	for _, b := range spineBytes {
		total += b
		if b > max {
			max = b
		}
	}
	fair := float64(total) / float64(spines)
	if fair > 0 {
		maxOverFair = float64(max) / fair
	}
	racks = make([]*flowmon.Report, len(fleets))
	for r, fl := range fleets {
		racks[r] = fl.Report()
	}
	return spineBytes, maxOverFair, racks
}

// Fig17 is a reproduction extension: FlexTOE's congestion control on a
// leaf–spine fabric. 17a sweeps N-to-1 incast fan-in against the control
// plane's CC policies; 17b measures per-flow ECMP load balance across the
// spines; 17c moves the congestion point with trunk oversubscription.
// With Scale.Cores > 1 the sweep points run on a worker pool (results
// identical to serial).
func Fig17(s Scale) []*Table {
	incast := &Table{
		ID:     "Figure 17a",
		Title:  "Incast fan-in on the leaf-spine fabric (32 KB blocks per sender, barrier-synchronized rounds)",
		Header: []string{"Fan-in", "CC", "Goodput (G)", "FCT p50 (us)", "FCT p99 (us)", "Rounds", "Peak leaf Q (KB)", "ECN marks", "Retx KB"},
		Notes: fmt.Sprintf("leaf tier: K=%d B ECN threshold, %d B queue cap; DCTCP should hold the peak queue near K while CC-off fills the cap and pays RTO-scale tails (§5.3's Table 4 scenario on a real fabric)",
			fig17K, fig17QueueCap),
	}
	fanIns := s.pick([]int{4, 16}, []int{4, 8, 16, 32})
	d := s.dur(8*sim.Millisecond, 60*sim.Millisecond)
	ccs := []struct {
		name string
		cc   ctrl.CCAlgo
	}{
		{"CCNone", ctrl.CCNone},
		{"CCDCTCP", ctrl.CCDCTCP},
		{"CCTimely", ctrl.CCTimely},
	}
	incastRes := make([]fig17IncastResult, len(fanIns)*len(ccs))
	runCells(s.cores(), len(incastRes), func(i int) {
		incastRes[i] = fig17IncastPoint(fanIns[i/len(ccs)], ccs[i%len(ccs)].cc, d)
	})
	for i, r := range incastRes {
		incast.AddRow(fmt.Sprintf("%d", fanIns[i/len(ccs)]), ccs[i%len(ccs)].name,
			f2(r.goodputGbps), f1(r.p50us), f1(r.p99us),
			fmt.Sprintf("%d", r.rounds),
			f1(float64(r.peakQ)/1024),
			fmt.Sprintf("%d", r.ecnMarks),
			f1(r.retxKB))
	}

	ecmp := &Table{
		ID:     "Figure 17b",
		Title:  "ECMP balance: per-spine bytes for fixed-size cross-rack flows (64 KB each)",
		Header: []string{"Spines", "Flows", "Per-spine MB", "Max/fair"},
		Notes:  "per-flow CRC-32 hashing (packet.Flow.Hash) across the uplink group; documented imbalance bound: max spine load <= 1.45x fair share at >= 64 flows (seeded, deterministic)",
	}
	split := &Table{
		ID:     "Figure 17b (per-spine splits)",
		Title:  "Per-rack flowmon fleets: retx/RTT split by ECMP spine (rack fleets tap every host NIC; flows group by the forwarding hash)",
		Header: []string{"Spines", "Flows", "Rack", "Spine", "Split flows", "Retx segs", "DupAcks", "RTT n", "RTT mean (us)"},
		Notes:  "passive Fleet per leaf (ROADMAP 5c): per-spine groups partition each rack's observed flows by packet.Flow.Hash % spines — the exact uplink choice — so skew in the balance table above decomposes into which flows shared a spine",
	}
	spineCounts := []int{2, 4}
	flowCounts := s.pick([]int{64}, []int{64, 256})
	dE := s.dur(20*sim.Millisecond, 60*sim.Millisecond)
	type ecmpCell struct {
		bytes       []uint64
		maxOverFair float64
		racks       []*flowmon.Report
	}
	ecmpRes := make([]ecmpCell, len(spineCounts)*len(flowCounts))
	runCells(s.cores(), len(ecmpRes), func(i int) {
		c := &ecmpRes[i]
		c.bytes, c.maxOverFair, c.racks = fig17ECMPPoint(spineCounts[i/len(flowCounts)], flowCounts[i%len(flowCounts)], dE)
	})
	for i, c := range ecmpRes {
		spines, flows := spineCounts[i/len(flowCounts)], flowCounts[i%len(flowCounts)]
		per := ""
		for j, b := range c.bytes {
			if j > 0 {
				per += " / "
			}
			per += f1(float64(b) / 1e6)
		}
		ecmp.AddRow(fmt.Sprintf("%d", spines), fmt.Sprintf("%d", flows), per, f2(c.maxOverFair))
		for rack, rep := range c.racks {
			groups := rep.GroupTotals(spines, func(f *flowmon.FlowReport) int {
				return int(f.Flow.Hash() % uint32(spines))
			})
			for spine, gt := range groups {
				split.AddRow(fmt.Sprintf("%d", spines), fmt.Sprintf("%d", flows),
					fmt.Sprintf("%d", rack), fmt.Sprintf("%d", spine),
					fmt.Sprintf("%d", gt.Flows),
					fmt.Sprintf("%d", gt.RetxSegs),
					fmt.Sprintf("%d", gt.DupAcks),
					fmt.Sprintf("%d", gt.RTTN),
					f1(gt.RTTMeanUs()))
			}
		}
	}

	oversub := &Table{
		ID:     "Figure 17c",
		Title:  "Oversubscribed trunks: 8-way incast (4 sender hosts x 40G) vs single-spine trunk rate, DCTCP on",
		Header: []string{"Trunk (G)", "Goodput (G)", "FCT p99 (us)", "Peak uplink Q (KB)", "Peak host Q (KB)", "Uplink marks", "Host marks"},
		Notes:  "hosts x 40G > spines x trunk moves the congestion point: non-blocking (200G) queues at the aggregator's leaf egress; oversubscribed trunks shift the deep queue — and the CE marks DCTCP reacts to — onto the leaf->spine uplink",
	}
	trunks := s.pick([]int{200, 30}, []int{200, 100, 30})
	dO := s.dur(8*sim.Millisecond, 40*sim.Millisecond)
	oversubRes := make([]fig17OversubResult, len(trunks))
	runCells(s.cores(), len(trunks), func(i int) {
		oversubRes[i] = fig17OversubPoint(float64(trunks[i]), dO)
	})
	for i, r := range oversubRes {
		oversub.AddRow(fmt.Sprintf("%d", trunks[i]), f2(r.goodputGbps), f1(r.p99us),
			f1(float64(r.peakUplinkQ)/1024), f1(float64(r.peakHostQ)/1024),
			fmt.Sprintf("%d", r.uplinkMarks), fmt.Sprintf("%d", r.hostMarks))
	}
	return []*Table{incast, ecmp, split, oversub}
}
