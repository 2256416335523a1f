package main

import (
	"context"
	"runtime/pprof"
	"time"

	"flextoe/internal/host"
	"flextoe/internal/netsim"
	"flextoe/internal/scenario"
)

// execution is one pass of a spec through the scenario entry points.
type execution struct {
	parse, validate, build, execute, canonical time.Duration
	chunks                                     []time.Duration // progress chunks 2..32
	built                                      *scenario.Built
	res                                        *scenario.Result
	payload                                    []byte
	simUs                                      int64     // warmup + measured window
	mem                                        memSample // allocations and GCs during Execute
}

func (e *execution) setup() time.Duration { return e.parse + e.validate + e.build }

// executeSpec runs Parse, Validate, Build, Execute with a progress
// callback, and Canonical. With a tracer it records the run's spans and
// labels Execute for the CPU profile.
func executeSpec(data []byte, tr *tracer) (*execution, error) {
	e := &execution{}
	runID := tr.newID()
	t0 := time.Now()
	sp, err := scenario.Parse(data)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	err = sp.Validate()
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	b, err := scenario.Build(sp)
	t3 := time.Now()
	if err != nil {
		return nil, err
	}
	e.parse, e.validate, e.build = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	tr.record(tr.newID(), runID, runID, "parse", t0, t1)
	tr.record(tr.newID(), runID, runID, "validate", t1, t2)
	tr.record(tr.newID(), runID, runID, "build", t2, t3)

	execID := tr.newID()
	var last time.Time
	calls := 0
	progress := func(doneUs, totalUs int64) bool {
		now := time.Now()
		calls++
		// The first call comes before warmup and the second ends the
		// chunk that includes it; chunks 2..32 are the steady ones.
		if calls > 2 {
			e.chunks = append(e.chunks, now.Sub(last))
			tr.record(tr.newID(), execID, runID, "chunk", last, now)
		}
		last = now
		return true
	}
	m0 := readMem()
	t4 := time.Now()
	if tr != nil {
		pprof.Do(context.Background(), pprof.Labels("phase", "execute"), func(context.Context) {
			e.res, err = b.Execute(progress)
		})
	} else {
		e.res, err = b.Execute(progress)
	}
	t5 := time.Now()
	if err != nil {
		return nil, err
	}
	e.mem = readMem().sub(m0)
	e.payload = e.res.Canonical()
	t6 := time.Now()
	e.execute, e.canonical = t5.Sub(t4), t6.Sub(t5)
	tr.record(execID, runID, runID, "execute", t4, t5)
	tr.record(tr.newID(), runID, runID, "canonical", t5, t6)
	tr.record(runID, 0, runID, "run", t0, t6)
	e.built = b
	e.simUs = sp.WarmupUs + sp.DurationUs
	return e, nil
}

// simOutputs are the modelled design's outputs of one result: goodput
// summed over workloads, and the RTT tail — the rpc p99 or incast
// round-completion p99, else the flowmon taps' RTT p99; zero if the
// result has none.
func simOutputs(r *scenario.Result) (gbps, rttP99 float64) {
	for _, w := range r.Workloads {
		gbps += w.GoodputGbps
		if w.Kind == scenario.KindRPC || w.Kind == scenario.KindIncast {
			rttP99 = max(rttP99, w.P99Us)
		}
	}
	if rttP99 == 0 {
		for _, f := range r.Flowmon {
			rttP99 = max(rttP99, float64(f.RTTP99Us))
		}
	}
	return gbps, rttP99
}

// layerCounts are one execution's deterministic per-layer counts, read
// from the public counters of the built testbed and from the Result,
// keyed by metric name; "segs" is the segments every stack received.
type layerCounts map[string]float64

// countKeys are the count metrics, present (possibly zero) in every
// workload's output.
var countKeys = []string{"sim.events", "core.rx_segs", "core.tx_segs", "core.acks_sent", "core.retx_segs",
	"core.hc_ops", "core.notifies", "baseline.rx_segs", "baseline.retx_segs", "netsim.forwarded",
	"netsim.drops", "netsim.ecn_marks", "host.core_util", "apps.ops", "flowmon.pkts", "pool.outstanding"}

func countLayers(b *scenario.Built, r *scenario.Result) layerCounts {
	c := layerCounts{}
	for _, k := range countKeys {
		c[k] = 0
	}
	tb := b.TB
	for _, e := range tb.Group.Engines() {
		c["sim.events"] += float64(e.Processed())
	}
	var utilSum float64
	var cores int
	for i := range b.Spec.Machines {
		m := tb.M(b.Spec.Machines[i].Name)
		var hcs []*host.Core
		if m.TOE != nil {
			k := m.TOE.Counters
			c["core.rx_segs"] += float64(k.RxSegs)
			c["core.tx_segs"] += float64(k.TxSegs)
			c["core.acks_sent"] += float64(k.AcksSent)
			c["core.retx_segs"] += float64(k.RetxSegs)
			c["core.hc_ops"] += float64(k.HCOps)
			c["core.notifies"] += float64(k.Notifies)
			hcs = m.Flex.Machine().Cores
		} else {
			c["baseline.rx_segs"] += float64(m.Base.RxSegs)
			c["baseline.retx_segs"] += float64(m.Base.RetxSegs)
			hcs = m.Base.Machine().Cores
		}
		for _, hc := range hcs {
			utilSum += hc.Utilization()
			cores++
		}
	}
	c["host.core_util"] = utilSum / float64(cores)
	c["segs"] = c["core.rx_segs"] + c["baseline.rx_segs"]
	var sws []*netsim.Switch
	if tb.Fabric != nil {
		sws = append(append(sws, tb.Fabric.Leaves...), tb.Fabric.Spines...)
	} else {
		sws = append(sws, tb.Net.Switch)
	}
	for _, sw := range sws {
		c["netsim.forwarded"] += float64(sw.Forwarded)
		c["netsim.drops"] += float64(sw.LossDrops + sw.QueueDrops + sw.WREDDrops)
		c["netsim.ecn_marks"] += float64(sw.ECNMarks)
	}
	for _, w := range r.Workloads {
		c["apps.ops"] += float64(w.Ops + w.Rounds + w.Completed)
	}
	for _, f := range r.Flowmon {
		c["flowmon.pkts"] += float64(f.Pkts)
	}
	for _, rk := range r.Racks {
		c["flowmon.pkts"] += float64(rk.Pkts)
	}
	gets, releases := tb.PoolStats()
	c["pool.gets"] = float64(gets)
	c["pool.outstanding"] = float64(gets) - float64(releases)
	return c
}

// execTotals sums a phase's executions: host time in Execute, engine
// events, received segments, simulated time, and allocations.
type execTotals struct {
	execNs, events, segs, simUs float64
	mem                         memSample
}

func (t *execTotals) add(e *execution, c layerCounts) {
	t.execNs += float64(e.execute.Nanoseconds())
	t.events += c["sim.events"]
	t.segs += c["segs"]
	t.simUs += float64(e.simUs)
	t.mem.allocs += e.mem.allocs
	t.mem.allocBytes += e.mem.allocBytes
	t.mem.gcCycles += e.mem.gcCycles
}

// layerValues sets the count metrics to their mean over a run's specs
// (one execution each, so they are deterministic per seed) and the
// rate metrics from the traced executions' totals.
func layerValues(v map[string]float64, cs []layerCounts, t execTotals) {
	m := layerCounts{}
	var seen []layerCounts
	for _, c := range cs {
		if c != nil {
			seen = append(seen, c)
		}
	}
	for _, c := range seen {
		for k, x := range c {
			m[k] += x / float64(len(seen))
		}
	}
	for k, x := range m {
		v[k] = x
	}
	delete(v, "segs")
	delete(v, "pool.gets")
	v["sim.events_per_seg"] = m["sim.events"] / m["segs"]
	v["pool.gets_per_seg"] = m["pool.gets"] / m["segs"]
	v["sim.ns_per_event"] = t.execNs / t.events
	v["mem.allocs_per_seg"] = float64(t.mem.allocs) / t.segs
	v["mem.alloc_kb_per_sim_ms"] = float64(t.mem.allocBytes) / 1024 / (t.simUs / 1000)
}
