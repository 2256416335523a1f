package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"flextoe/internal/scenario"
	"flextoe/internal/scenario/server"
)

// Job-service shape: two closed-loop clients against two workers, the
// CPU count of the machine the benchmark was sized on.
const (
	serveClients  = 2
	serveWorkers  = 2
	serveSegments = 10 // stretches the untraced run's service phase is cut into
	serveSetups   = 10 // service restarts timed for setup_s before each stretch
)

// service is one in-process job server on a loopback listener.
type service struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	dir    string
	served chan struct{} // closed when Serve returns
}

// startService runs server.New on an existing persistence directory
// and serves it on a loopback port. The returned set-up time
// runs from server.New until the listener is bound and accepting; the
// directory is created before it, so a busy file-system journal does
// not land in the figure. The service is then checked to answer GET
// /jobs before it is returned. The check uses its own connection, so no
// client goroutine outlives the call (and inherits profiler labels).
func startService(dir string) (*service, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	srv, err := server.New(server.Config{Dir: dir, Workers: serveWorkers, Log: os.Stderr})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	setup := time.Since(t0)
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(),
		dir: dir, served: make(chan struct{})}
	go func() {
		s.hs.Serve(ln)
		close(s.served)
	}()
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	resp, err := probe.Get(s.base + "/jobs")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /jobs: %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, 0, err
	}
	return s, setup, nil
}

// close stops the HTTP server, waits for Serve to return, then stops
// the worker pool.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.hs.Shutdown(ctx) != nil {
		s.hs.Close()
	}
	<-s.served
	s.srv.Close()
}

// jobRec is one job's client-side timeline.
type jobRec struct {
	spec                              int
	submit, queue, run, result, total time.Duration
	payload                           []byte
	err                               error
}

// runJob submits one spec, follows its NDJSON stream to the terminal
// line, and fetches the result: the walk a waiting caller makes.
func runJob(c *http.Client, base string, spec []byte, tr *tracer) (rec jobRec) {
	jobID := tr.newID()
	t0 := time.Now()
	resp, err := c.Post(base+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	var sub struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("%s: %s", resp.Status, sub.Error)
	}
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	t1 := time.Now()

	resp, err = c.Get(base + "/jobs/" + sub.ID + "/stream")
	if err != nil {
		rec.err = fmt.Errorf("job %s: stream: %w", sub.ID, err)
		return rec
	}
	var tq, tt time.Time
	var last struct {
		Type  string `json:"type"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		last.Type, last.State, last.Error = "", "", ""
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			break
		}
		if tq.IsZero() {
			tq = time.Now()
		}
		if last.Type != "progress" && last.Type != "flow" {
			tt = time.Now()
			break
		}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if tt.IsZero() || last.Type != server.StateDone {
		rec.err = fmt.Errorf("job %s ended %q (%s), want %q", sub.ID, last.Type, last.Error, server.StateDone)
		return rec
	}

	resp, err = c.Get(base + "/jobs/" + sub.ID + "/result")
	if err == nil {
		rec.payload, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s", resp.Status)
		}
	}
	if err != nil {
		rec.err = fmt.Errorf("job %s: result: %w", sub.ID, err)
		return rec
	}
	t3 := time.Now()
	rec.submit, rec.queue, rec.run, rec.result, rec.total = t1.Sub(t0), tq.Sub(t1), tt.Sub(tq), t3.Sub(tt), t3.Sub(t0)
	tr.record(tr.newID(), jobID, jobID, "job.submit", t0, t1)
	tr.record(tr.newID(), jobID, jobID, "job.queue", t1, tq)
	tr.record(tr.newID(), jobID, jobID, "job.run", tq, tt)
	tr.record(tr.newID(), jobID, jobID, "job.result", tt, t3)
	tr.record(jobID, 0, jobID, "job", t0, t3)
	return rec
}

// checkPayload applies the correctness checks to one job's result
// payload: it must decode, show completed work, and match the digest
// of the spec's other executions.
func checkPayload(payload []byte, i int, book *digestBook, mu *sync.Mutex) error {
	var res scenario.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		return fmt.Errorf("spec %d: result payload: %w", i, err)
	}
	if err := checkWork(&res); err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	return book.check(i, res.Name, payload)
}

// servePhase is one or more closed-loop stretches against a service.
type servePhase struct {
	recs []jobRec // successful jobs
	wall time.Duration
	gcs  uint64
	next atomic.Int64 // the next job's place in the mix, kept across stretches
}

// runServePhase drives the service with closed-loop clients, cycling
// through the mix, until budget has passed (no client starts a job after
// it), and adds the jobs to p.
func runServePhase(p *servePhase, svc *service, c *http.Client, specs [][]byte, budget time.Duration,
	tr *tracer, rep *report, book *digestBook) {
	next := &p.next
	var mu sync.Mutex
	var wg sync.WaitGroup
	per := make([][]jobRec, serveClients)
	m0 := readMem()
	start := time.Now()
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < budget {
				i := int(next.Add(1)-1) % len(specs)
				rec := runJob(c, svc.base, specs[i], tr)
				rec.spec = i
				if rec.err == nil {
					rec.err = checkPayload(rec.payload, i, book, &mu)
				}
				rec.payload = nil
				per[k] = append(per[k], rec)
			}
		}()
	}
	wg.Wait()
	p.wall += time.Since(start)
	p.gcs += readMem().sub(m0).gcCycles
	for _, recs := range per {
		for _, r := range recs {
			rep.op(r.err)
			if r.err == nil {
				p.recs = append(p.recs, r)
			}
		}
	}
}

// simRate is simulated µs the service advanced per host second.
func (p *servePhase) simRate(simUs []int64) float64 {
	var us float64
	for _, r := range p.recs {
		us += float64(simUs[r.spec])
	}
	return us / p.wall.Seconds()
}

func (p *servePhase) ms(f func(r jobRec) time.Duration) []float64 {
	out := make([]float64, len(p.recs))
	for i, r := range p.recs {
		out[i] = ms(f(r))
	}
	return out
}

// dirKB is the size of the files under dir in KB.
func dirKB(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n) / 1024
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}, Timeout: 60 * time.Second}
}

// runServe measures the job service. Untraced it reports the end-to-end
// metrics: the service gets the budget but a fifth, which goes to
// in-process executions of the mix that give the chunk metrics. Traced
// it splits the budget as runSim does, on a fresh service per part, and
// takes the simulation layers' counts from one in-process execution of
// each spec in the mix. Every in-process payload must equal the
// service's.
func runServe(cfg config, specs [][]byte, work string, tr *tracer, rep *report) error {
	c := newClient()
	defer c.CloseIdleConnections()
	book := newDigestBook(len(specs))
	simUs := make([]int64, len(specs))
	for i, b := range specs {
		sp, err := scenario.Parse(b)
		if err != nil {
			return err
		}
		simUs[i] = sp.WarmupUs + sp.DurationUs
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var refBudget time.Duration
	if tr == nil {
		refBudget = budget / 5
		budget -= refBudget
	}
	v := rep.values
	dirN := 0
	newDir := func() string {
		dirN++
		return filepath.Join(work, fmt.Sprintf("jobs%d", dirN))
	}

	if tr == nil {
		// Set-up is a restart on a directory holding the mix's finished
		// jobs, which server.New reloads: a fixed amount of work, where an
		// empty directory leaves only a few system calls and goroutine
		// wake-ups to time. Each spec runs once to fill it.
		restartDir := newDir()
		if err := fillDir(restartDir, c, specs, rep, book); err != nil {
			return err
		}
		// The service phase runs in stretches on one service. Before each,
		// with the service idle, spare services are restarted on that
		// directory and closed: set-up samples spread over the run, not
		// one moment of it.
		svc, _, err := startService(newDir())
		if err != nil {
			return err
		}
		var setups []float64
		p := &servePhase{}
		for k := 0; k < serveSegments; k++ {
			for j := 0; j < serveSetups; j++ {
				spare, d, err := startService(restartDir)
				if err != nil {
					svc.close()
					return err
				}
				spare.close()
				setups = append(setups, d.Seconds())
			}
			runServePhase(p, svc, c, specs, budget/serveSegments, nil, rep, book)
		}
		runtime.GC()
		var mst runtime.MemStats
		runtime.ReadMemStats(&mst)
		runtime.KeepAlive(svc)
		svc.close()
		total := p.ms(func(r jobRec) time.Duration { return r.total })
		v["setup_s"] = quantile(setups, 0.5)
		rep.notef("setup: %d service restarts reloading %d jobs, min %.3f ms, max %.3f ms",
			len(setups), len(specs), 1e3*quantile(setups, 0), 1e3*quantile(setups, 1))
		v["sim_us_per_s"] = p.simRate(simUs)
		v["heap_mb"] = float64(mst.HeapAlloc) / 1e6
		v["jobs_per_s"] = float64(len(p.recs)) / p.wall.Seconds()
		v["job_ms_p50"] = quantile(total, 0.5)
		v["job_ms_p90"] = quantile(total, 0.9)
		rep.notef("samples: jobs=%d", len(p.recs))
	} else {
		// Alternate untraced and traced slices as runSim does, each on a
		// fresh service so the job list starts empty on both sides, after
		// an untimed pass over the mix.
		if err := fillDir(newDir(), c, specs, rep, book); err != nil {
			return err
		}
		a, b := &servePhase{}, &servePhase{}
		var cpu cpuSplit
		var persistKB float64
		for k := 0; k < traceRounds; k++ {
			svc, _, err := startService(newDir())
			if err != nil {
				return err
			}
			runServePhase(a, svc, c, specs, budget/(3*traceRounds), nil, rep, book)
			svc.close()
			// Server goroutines inherit the label; the clients' do not.
			pprof.Do(context.Background(), pprof.Labels("role", "server"), func(context.Context) {
				svc, _, err = startService(newDir())
			})
			if err != nil {
				return err
			}
			err = cpu.profiled("role", "server", func() {
				runServePhase(b, svc, c, specs, 2*budget/(3*traceRounds), tr, rep, book)
			})
			persistKB += dirKB(svc.dir)
			svc.close()
			if err != nil {
				return err
			}
		}
		if len(b.recs) == 0 {
			return fmt.Errorf("no traced job succeeded")
		}
		cpu.set(v)
		rep.notef("tracing overhead on sim_us_per_s: untraced %.1f, traced %.1f, overhead %.2f%% (%d and %d jobs)",
			a.simRate(simUs), b.simRate(simUs), 100*(1-b.simRate(simUs)/a.simRate(simUs)), len(a.recs), len(b.recs))
		rep.notef("samples: traced jobs=%d cpu_samples=%d", len(b.recs), cpu.total)
		v["server.submit_ms"] = quantile(b.ms(func(r jobRec) time.Duration { return r.submit }), 0.5)
		v["server.queue_ms"] = quantile(b.ms(func(r jobRec) time.Duration { return r.queue }), 0.5)
		v["server.run_ms"] = quantile(b.ms(func(r jobRec) time.Duration { return r.run }), 0.5)
		v["server.result_ms"] = quantile(b.ms(func(r jobRec) time.Duration { return r.result }), 0.5)
		v["server.persist_kb"] = persistKB / float64(len(b.recs))
		v["mem.gc_cycles"] = float64(b.gcs) / float64(len(b.recs))
	}

	// Reference executions: each spec at least once in process, whose
	// payload must be byte-identical to the service's. Untraced they fill
	// refBudget, and their Execute progress chunks give the chunk metrics:
	// a job's time on the service has no chunks of its own, and the
	// client sees its end only after racing the worker to open the stream.
	r := &simRunner{specs: specs, tail: func(i int) bool { return isRPC(specs[i]) }, rep: rep, book: book,
		outputs: make([][2]float64, len(specs)), counts: make([]layerCounts, len(specs))}
	// Whole passes over the mix only, so every spec gives the chunk
	// quantiles the same share of samples whatever the seed's order.
	ref := &simPhase{}
	for start := time.Now(); ; {
		r.slice(ref, 0, len(specs), nil)
		if time.Since(start) >= refBudget {
			break
		}
	}
	if tr == nil {
		v["chunk_ms_p50"] = specQuantile(ref.chunkMs, 0.5)
		v["chunk_ms_p90"] = specQuantile(ref.chunkMs, 0.9)
		rep.notef("samples: in-process executions=%d chunks=%d", len(ref.jobMs), ref.chunks)
	} else {
		if len(ref.jobMs) == 0 {
			return fmt.Errorf("no reference execution succeeded")
		}
		ref.setLayers(v, r.counts)
	}
	setModelled(v, r.outputs, r.tail)
	for _, l := range book.lines() {
		rep.notef("%s", l)
	}
	return nil
}

// fillDir runs each spec once, checked, through a service persisting to
// dir, and closes it, leaving dir with every spec's finished job.
func fillDir(dir string, c *http.Client, specs [][]byte, rep *report, book *digestBook) error {
	svc, _, err := startService(dir)
	if err != nil {
		return err
	}
	defer svc.close()
	var mu sync.Mutex
	for i, spec := range specs {
		r := runJob(c, svc.base, spec, nil)
		if r.err == nil {
			r.err = checkPayload(r.payload, i, book, &mu)
		}
		rep.op(r.err)
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

// isRPC reports whether a mix spec runs rpc (and so has an RTT tail).
func isRPC(spec []byte) bool { return bytes.Contains(spec, []byte(`"kind":"rpc"`)) }

// serviceProbe sends one spec through a fresh job service and requires
// its payload to equal the in-process executions'. It gives the
// simulation workloads their server.* metrics.
func serviceProbe(spec []byte, work string, tr *tracer, rep *report, book *digestBook) error {
	c := newClient()
	defer c.CloseIdleConnections()
	svc, _, err := startService(filepath.Join(work, "probe"))
	if err != nil {
		return err
	}
	defer svc.close()
	r := runJob(c, svc.base, spec, tr)
	if r.err == nil {
		r.err = checkPayload(r.payload, 0, book, &sync.Mutex{})
	}
	rep.op(r.err)
	if r.err != nil {
		return nil
	}
	v := rep.values
	v["server.submit_ms"] = ms(r.submit)
	v["server.queue_ms"] = ms(r.queue)
	v["server.run_ms"] = ms(r.run)
	v["server.result_ms"] = ms(r.result)
	v["server.persist_kb"] = dirKB(svc.dir)
	return nil
}
