package main

import (
	"fmt"
	"runtime"
	"time"
)

// traceRounds is how many untraced/traced slice pairs a traced run
// alternates. Alternating, rather than running one stretch of each,
// keeps warm-up and heap growth from landing on one side of the
// tracing-overhead comparison.
const traceRounds = 3

// simRunner executes a workload's specs round-robin across one or more
// phases, checking every execution.
type simRunner struct {
	specs   [][]byte
	tail    func(i int) bool // whether spec i must report an RTT tail; nil: all
	rep     *report
	book    *digestBook
	outputs [][2]float64  // each spec's modelled outputs
	counts  []layerCounts // each spec's per-layer counts, from its first execution
	next    int
}

// simPhase accumulates what a set of slices measured.
type simPhase struct {
	setupS, jobMs      []float64   // per execution
	heapMB             []float64   // live heap after each execution, its Built reachable
	chunkMs            [][]float64 // steady progress chunks, by spec index
	chunks             int
	parseMs, validMs   []float64
	buildMs, execSs    []float64
	canonMs, payloadKB []float64
	totals             execTotals
}

// simRate is simulated µs advanced per host second inside Execute.
func (p *simPhase) simRate() float64 { return p.totals.simUs / (p.totals.execNs / 1e9) }

// slice runs executions until budget has passed (and at least minReps),
// adding them to p. Each must succeed, complete work, report goodput
// and an RTT tail, and match its spec's earlier payload digests.
func (r *simRunner) slice(p *simPhase, budget time.Duration, minReps int, tr *tracer) {
	start := time.Now()
	for n := 0; n < minReps || time.Since(start)+time.Since(start)/time.Duration(n) <= budget; n++ {
		i := r.next % len(r.specs)
		r.next++
		t0 := time.Now()
		e, err := executeSpec(r.specs[i], tr)
		jobMs := ms(time.Since(t0))
		if err == nil {
			err = checkExecution(e, i, r.book, r.outputs, r.tail == nil || r.tail(i))
		}
		r.rep.op(err)
		if err != nil {
			continue
		}
		p.setupS = append(p.setupS, e.setup().Seconds())
		p.jobMs = append(p.jobMs, jobMs)
		for len(p.chunkMs) <= i {
			p.chunkMs = append(p.chunkMs, nil)
		}
		for _, c := range e.chunks {
			p.chunkMs[i] = append(p.chunkMs[i], ms(c))
		}
		p.chunks += len(e.chunks)
		p.parseMs = append(p.parseMs, ms(e.parse))
		p.validMs = append(p.validMs, ms(e.validate))
		p.buildMs = append(p.buildMs, ms(e.build))
		p.execSs = append(p.execSs, e.execute.Seconds())
		p.canonMs = append(p.canonMs, ms(e.canonical))
		p.payloadKB = append(p.payloadKB, float64(len(e.payload))/1024)
		c := countLayers(e.built, e.res)
		p.totals.add(e, c)
		if r.counts[i] == nil {
			r.counts[i] = c
		}
		// Collect between executions, outside the timed window: every
		// execution starts from the same heap state, and the live heap
		// is measured while this execution's Built is still reachable.
		runtime.GC()
		var mst runtime.MemStats
		runtime.ReadMemStats(&mst)
		runtime.KeepAlive(e)
		p.heapMB = append(p.heapMB, float64(mst.HeapAlloc)/1e6)
	}
}

// checkExecution applies the correctness checks to one in-process
// execution of spec i; needTail also requires an RTT tail.
func checkExecution(e *execution, i int, book *digestBook, outputs [][2]float64, needTail bool) error {
	if err := checkWork(e.res); err != nil {
		return err
	}
	if err := book.check(i, e.res.Name, e.payload); err != nil {
		return err
	}
	gbps, rtt := simOutputs(e.res)
	if gbps == 0 || (needTail && rtt == 0) {
		return fmt.Errorf("%s: result lacks goodput or an RTT tail (goodput %g Gbps, rtt p99 %g us)", e.res.Name, gbps, rtt)
	}
	outputs[i] = [2]float64{gbps, rtt}
	return nil
}

// runSim measures a simulation workload. Untraced, it reports the
// end-to-end metrics over the whole budget. Traced, it alternates
// untraced slices (a third of the budget) with slices that record spans
// under the CPU profiler, reports per-layer metrics from the traced
// slices, sends the first spec through the job service once, and
// prints the tracing overhead.
func runSim(cfg config, specs [][]byte, work string, tr *tracer, rep *report) error {
	r := &simRunner{specs: specs, rep: rep, book: newDigestBook(len(specs)),
		outputs: make([][2]float64, len(specs)), counts: make([]layerCounts, len(specs))}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	v := rep.values
	if tr == nil {
		p := &simPhase{}
		r.slice(p, budget, 2*len(specs), nil)
		v["setup_s"] = quantile(p.setupS, 0.5)
		v["sim_us_per_s"] = p.simRate()
		v["chunk_ms_p50"] = specQuantile(p.chunkMs, 0.5)
		v["chunk_ms_p90"] = specQuantile(p.chunkMs, 0.9)
		v["heap_mb"] = quantile(p.heapMB, 0.5)
		// Serial executions: throughput is executions over their own host
		// time, leaving out the checks and forced collections between them.
		v["jobs_per_s"] = 1000 / mean(p.jobMs)
		v["job_ms_p50"] = quantile(p.jobMs, 0.5)
		v["job_ms_p90"] = quantile(p.jobMs, 0.9)
		rep.notef("samples: executions=%d chunks=%d", len(p.jobMs), p.chunks)
	} else {
		a, b := &simPhase{}, &simPhase{}
		var cpu cpuSplit
		// Enough executions per slice that every spec runs twice overall.
		minReps := (2*len(specs) + 2*traceRounds - 1) / (2 * traceRounds)
		// One pass first, untimed, so the cold start (heap growth, first
		// page faults) does not land on the untraced side of the overhead.
		warm := time.Now()
		r.slice(&simPhase{}, 0, len(specs), nil)
		budget -= time.Since(warm)
		for k := 0; k < traceRounds; k++ {
			r.slice(a, budget/(3*traceRounds), minReps, nil)
			if err := cpu.profiled("phase", "execute", func() {
				r.slice(b, 2*budget/(3*traceRounds), minReps, tr)
			}); err != nil {
				return err
			}
		}
		if len(b.jobMs) == 0 {
			return fmt.Errorf("no traced execution succeeded")
		}
		cpu.set(v)
		rep.notef("tracing overhead on sim_us_per_s: untraced %.1f, traced %.1f, overhead %.2f%% (%d and %d executions)",
			a.simRate(), b.simRate(), 100*(1-b.simRate()/a.simRate()), len(a.jobMs), len(b.jobMs))
		rep.notef("samples: traced executions=%d chunks=%d cpu_samples=%d", len(b.jobMs), b.chunks, cpu.total)
		b.setLayers(v, r.counts)
		v["mem.gc_cycles"] = float64(b.totals.mem.gcCycles) / float64(len(b.jobMs))
		if err := serviceProbe(specs[0], work, tr, rep, r.book); err != nil {
			return err
		}
	}
	setModelled(v, r.outputs, nil)
	for _, l := range r.book.lines() {
		rep.notef("%s", l)
	}
	return nil
}

// setLayers reports the per-layer counts (mean over specs), the rates
// over p's executions, and the scenario entry points' medians.
func (p *simPhase) setLayers(v map[string]float64, counts []layerCounts) {
	layerValues(v, counts, p.totals)
	v["scenario.parse_ms"] = quantile(p.parseMs, 0.5)
	v["scenario.validate_ms"] = quantile(p.validMs, 0.5)
	v["scenario.build_ms"] = quantile(p.buildMs, 0.5)
	v["scenario.execute_s"] = quantile(p.execSs, 0.5)
	v["scenario.canonical_ms"] = quantile(p.canonMs, 0.5)
	v["scenario.payload_kb"] = mean(p.payloadKB)
}

// setModelled reports the modelled outputs over the specs: the mean
// goodput over all of them, and the geometric mean RTT tail over those
// tail selects (all when nil). The tails of the serve-jobs rpc jobs on
// Linux and Chelsio range from 18 to 280 us with the server's work, so
// their plain mean would follow the seed's few largest.
func setModelled(v map[string]float64, outputs [][2]float64, tail func(i int) bool) {
	var gbps, tails []float64
	for i, o := range outputs {
		gbps = append(gbps, o[0])
		if tail == nil || tail(i) {
			tails = append(tails, o[1])
		}
	}
	v["sim_goodput_gbps"] = mean(gbps)
	v["sim_rtt_p99_us"] = geomean(tails)
}
