package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"flextoe/internal/scenario"
)

// TestSpecsValidate checks that every generated spec passes Validate,
// for several seeds, and that a seed always yields the same bytes.
func TestSpecsValidate(t *testing.T) {
	for _, wl := range workloadNames {
		for seed := uint64(0); seed < 5; seed++ {
			specs, err := genSpecs(wl, seed)
			if err != nil {
				t.Fatal(err)
			}
			again, _ := genSpecs(wl, seed)
			for i, b := range specs {
				sp, err := scenario.Parse(b)
				if err != nil {
					t.Fatalf("%s seed %d spec %d: %v", wl, seed, i, err)
				}
				if err := sp.Validate(); err != nil {
					t.Fatalf("%s seed %d spec %d: %v", wl, seed, i, err)
				}
				if !bytes.Equal(b, again[i]) {
					t.Fatalf("%s seed %d spec %d: not reproducible from the seed", wl, seed, i)
				}
			}
		}
	}
	if _, err := genSpecs("no-such-workload", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// specifiedNames are the metric names the benchmark is specified to emit.
var specifiedNames = map[bool][]string{
	false: {"setup_s", "sim_us_per_s", "chunk_ms_p50", "chunk_ms_p90", "heap_mb", "jobs_per_s",
		"job_ms_p50", "job_ms_p90", "sim_goodput_gbps", "sim_rtt_p99_us"},
	true: {"sim.events", "sim.events_per_seg", "sim.ns_per_event", "cpu.sim",
		"cpu.nfp", "cpu.core", "cpu.tcpseg", "core.rx_segs", "core.tx_segs", "core.acks_sent",
		"core.retx_segs", "core.hc_ops", "core.notifies",
		"baseline.rx_segs", "baseline.retx_segs", "cpu.baseline",
		"netsim.forwarded", "netsim.drops", "netsim.ecn_marks", "cpu.netsim", "cpu.fabric", "cpu.ctrl",
		"host.core_util", "apps.ops", "cpu.host", "cpu.libtoe", "cpu.apps",
		"flowmon.pkts", "cpu.flowmon",
		"mem.allocs_per_seg", "mem.alloc_kb_per_sim_ms", "mem.gc_cycles", "pool.gets_per_seg",
		"pool.outstanding", "cpu.runtime",
		"scenario.parse_ms", "scenario.validate_ms", "scenario.build_ms", "scenario.execute_s",
		"scenario.canonical_ms", "scenario.payload_kb",
		"server.submit_ms", "server.queue_ms", "server.run_ms", "server.result_ms", "server.persist_kb"},
}

// TestMetricNames checks the emitted names against the naming rule, the
// specified set, and BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range bench.Workloads {
		wls = append(wls, w.Name)
	}
	if strings.Join(wls, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", wls, workloadNames)
	}
	for _, trace := range []bool{false, true} {
		defs, listed := endToEnd, bench.EndToEnd
		if trace {
			defs, listed = perLayer, bench.PerLayer
		}
		rep := newReport()
		rep.op(nil)
		for _, d := range defs {
			rep.values[d.name] = 1
		}
		line, err := rep.result(trace)
		if err != nil {
			t.Fatal(err)
		}
		var emitted []string
		for name, m := range line.Metrics {
			if !metricName.MatchString(name) {
				t.Errorf("metric name %q breaks the naming rule", name)
			}
			if m.Unit == "" {
				t.Errorf("metric %q has no unit", name)
			}
			emitted = append(emitted, name)
		}
		want := append([]string(nil), specifiedNames[trace]...)
		sort.Strings(emitted)
		sort.Strings(want)
		if strings.Join(emitted, ",") != strings.Join(want, ",") {
			t.Errorf("trace=%v emits %v, want %v", trace, emitted, want)
		}
		if len(listed) != len(defs) {
			t.Fatalf("trace=%v: BENCHMARK.json lists %d metrics, program %d", trace, len(listed), len(defs))
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("BENCHMARK.json metric %d is %s [%s], program has %s [%s]",
					i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
		delete(rep.values, defs[0].name)
		if _, err := rep.result(trace); err == nil {
			t.Errorf("trace=%v: a missing metric went unreported", trace)
		}
	}
}

// TestCheckCatchesMismatchAndZeroWork injects a payload digest mismatch
// and a result that completed no work.
func TestCheckCatchesMismatchAndZeroWork(t *testing.T) {
	specs, err := genSpecs(wlServe, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := executeSpec(specs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	book := newDigestBook(1)
	outputs := make([][2]float64, 1)
	for k := 0; k < 2; k++ {
		if err := checkExecution(e, 0, book, outputs, false); err != nil {
			t.Fatalf("execution %d: %v", k, err)
		}
	}
	bad := append([]byte(nil), e.payload...)
	bad[len(bad)/2] ^= 1
	if err := book.check(0, "injected", bad); err == nil || !strings.Contains(err.Error(), "differs") {
		t.Fatalf("digest mismatch not caught: %v", err)
	}

	idle := *e.res
	idle.Workloads = []scenario.WorkloadResult{{Kind: scenario.KindRPC}}
	if err := checkWork(&idle); err == nil {
		t.Fatal("zero-work result not caught")
	}
	if err := checkPayload(idle.Canonical(), 0, newDigestBook(1), &sync.Mutex{}); err == nil {
		t.Fatal("zero-work payload not caught")
	}

	rep := newReport()
	rep.op(nil)
	rep.op(checkWork(&idle))
	if rep.failed != 1 || rep.attempted != 2 {
		t.Fatalf("report counted %d of %d failed", rep.failed, rep.attempted)
	}
	for _, d := range endToEnd {
		rep.values[d.name] = 1
	}
	if line, err := rep.result(false); err != nil || line.Correct {
		t.Fatalf("a failed op left the result correct (err %v)", err)
	}
}

// TestCPUSplit profiles a busy loop and reads the profile back: the
// labelled samples must decode, and the layer shares cannot exceed 1.
func TestCPUSplit(t *testing.T) {
	var c cpuSplit
	err := c.profiled("phase", "execute", func() {
		var buf bytes.Buffer
		pprof.Do(t.Context(), pprof.Labels("phase", "execute"), func(context.Context) {
			for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
				buf.Reset()
				for i := 0; i < 1000; i++ {
					buf.WriteByte(byte(i))
				}
				_ = make([]byte, 4096)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.total == 0 {
		t.Skip("no CPU samples taken")
	}
	v := map[string]float64{}
	c.set(v)
	var sum float64
	for _, l := range cpuLayers {
		sum += v["cpu."+l]
	}
	if sum > 1+1e-9 {
		t.Fatalf("layer shares sum to %g", sum)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"flextoe/internal/sim.(*Engine).Run":                                  "sim",
		"flextoe/internal/core.(*TOE).rxPipeline":                             "core",
		"flextoe/internal/fabric/workload.(*IncastGroup).roundDone":           "apps",
		"flextoe/internal/fabric.(*Fabric).Drops":                             "fabric",
		"flextoe/internal/packet.(*Pool).Get":                                 "runtime",
		"flextoe/internal/conntab.(*Index[flextoe/internal/packet.Flow]).Get": "conntab",
		"flextoe/internal/flowmon/xval.Check":                                 "flowmon",
		"runtime.mallocgc":                                                    "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                        "runtime",
		"encoding/json.(*decodeState).object":                                 "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestServeSmoke drives the job service briefly, untraced and traced,
// with both clients at once (run it with -race), and requires every job
// to pass its checks and every metric of the mode to be produced.
func TestServeSmoke(t *testing.T) {
	specs, err := genSpecs(wlServe, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		rep := newReport()
		cfg := config{workload: wlServe, seed: 3, seconds: 0.5, trace: traced}
		if err := runServe(cfg, specs, t.TempDir(), tr, rep); err != nil {
			t.Fatal(err)
		}
		if rep.failed != 0 {
			t.Fatalf("traced=%v: %d of %d ops failed: %v", traced, rep.failed, rep.attempted, rep.notes)
		}
		line, err := rep.result(traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		for name, m := range line.Metrics {
			if !traced && m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %g, want > 0", name, m.Value)
			}
		}
	}
}
