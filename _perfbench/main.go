// Command perfbench is the repository's benchmark. It generates one of
// four workloads from a seed, drives the scenario service's public entry
// points (scenario.Parse, (*Spec).Validate, scenario.Build,
// (*Built).Execute, (*Result).Canonical, and server.New over HTTP),
// checks every output, and prints its metrics by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured untraced.
// With -trace 1 the run alternates untraced slices (a third of the time)
// with slices that record spans under the CPU profiler; the metrics are
// the per-layer set taken from the traced slices, and comparing the two
// kinds of slice gives the tracing overhead on sim_us_per_s. Run it
// through run.sh, which builds it inside the checkout:
//
//	bash _perfbench/run.sh --workload rpc-small --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or the job service
// sees, reported for every workload with -trace 0. An op is one
// execution of a spec (simulation workloads) or one job (serve-jobs).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_us_per_s", "us/s"},
	{"chunk_ms_p50", "ms"},
	{"chunk_ms_p90", "ms"},
	{"heap_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"sim_goodput_gbps", "Gbps"},
	{"sim_rtt_p99_us", "us"},
}

// cpuLayers are the layers whose self-time share of CPU samples the
// traced run reports as cpu.<layer>.
var cpuLayers = []string{"sim", "nfp", "core", "tcpseg", "baseline", "netsim", "fabric", "ctrl",
	"host", "libtoe", "apps", "flowmon", "runtime"}

// perLayer are the metrics of single layers, reported with -trace 1.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.events_per_seg", "ratio"},
		{"sim.ns_per_event", "ns"},
		{"core.rx_segs", "count"},
		{"core.tx_segs", "count"},
		{"core.acks_sent", "count"},
		{"core.retx_segs", "count"},
		{"core.hc_ops", "count"},
		{"core.notifies", "count"},
		{"baseline.rx_segs", "count"},
		{"baseline.retx_segs", "count"},
		{"netsim.forwarded", "count"},
		{"netsim.drops", "count"},
		{"netsim.ecn_marks", "count"},
		{"host.core_util", "ratio"},
		{"apps.ops", "count"},
		{"flowmon.pkts", "count"},
		{"mem.allocs_per_seg", "ratio"},
		{"mem.alloc_kb_per_sim_ms", "KB/ms"},
		{"mem.gc_cycles", "count"},
		{"pool.gets_per_seg", "ratio"},
		{"pool.outstanding", "count"},
		{"scenario.parse_ms", "ms"},
		{"scenario.validate_ms", "ms"},
		{"scenario.build_ms", "ms"},
		{"scenario.execute_s", "s"},
		{"scenario.canonical_ms", "ms"},
		{"scenario.payload_kb", "KB"},
		{"server.submit_ms", "ms"},
		{"server.queue_ms", "ms"},
		{"server.run_ms", "ms"},
		{"server.result_ms", "ms"},
		{"server.persist_kb", "KB"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu." + l, "share"})
	}
	return defs
}()

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // build and scratch directory inside the checkout
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int
	notes             []string
	values            map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation, and a failure if err is non-nil.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.notef("FAIL: %v", err)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result assembles the final line for the metric set the mode reports.
// A metric the run did not produce is an error: the line must carry
// every name BENCHMARK.json lists.
func (r *report) result(trace bool) (resultLine, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := resultLine{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricOut, len(defs))}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return out, fmt.Errorf("metrics not produced: %v", missing)
	}
	return out, nil
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: rpc-small, bulk-loss, incast-fabric or serve-jobs")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for scratch files and span dumps")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	os.Exit(run(cfg))
}

func run(cfg config) int {
	specs, err := genSpecs(cfg.workload, cfg.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	work, err := os.MkdirTemp(cfg.outDir, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(work)

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v specs=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, len(specs))
	for _, l := range fingerprint(filepath.Dir(cfg.outDir)) {
		fmt.Println("# machine:", l)
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rep := newReport()
	if cfg.workload == wlServe {
		err = runServe(cfg, specs, work, tr, rep)
	} else {
		err = runSim(cfg, specs, work, tr, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if tr != nil {
		for _, l := range tr.summary() {
			rep.notef("span %s", l)
		}
		path := filepath.Join(cfg.outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		rep.notef("spans written to %s", path)
	}
	failedFrac := 0.0
	if rep.attempted > 0 {
		failedFrac = float64(rep.failed) / float64(rep.attempted)
	}
	rep.notef("failed_frac=%g (%d failed of %d attempted ops)", failedFrac, rep.failed, rep.attempted)
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	line, err := rep.result(cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}
