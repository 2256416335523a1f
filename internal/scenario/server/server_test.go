package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallSpec is a quick bulk run with per-flow records — finishes in well
// under a second of host time.
const smallSpec = `{
  "name": "srv-bulk",
  "seed": 155,
  "duration_us": 1500,
  "topology": {"kind": "testbed", "switch": {"loss_prob": 0.001}},
  "machines": [
    {"name": "server", "stack": "flextoe", "cores": 2, "buf_bytes": 262144, "sack": true, "seed": 155},
    {"name": "client", "stack": "flextoe", "cores": 2, "buf_bytes": 262144, "sack": true, "seed": 156}
  ],
  "workloads": [
    {"kind": "bulk", "bulk": {"server": "server", "port": 9000, "clients": ["client"], "conns": 4}}
  ],
  "measure": {"flowmon": [{"machine": "client"}], "per_flow": true}
}`

// slowSpec runs long enough (32 progress chunks of 8 ms simulated bulk
// transfer each) that a cancel issued after the first progress line
// always lands before completion.
const slowSpec = `{
  "name": "srv-slow",
  "seed": 7,
  "duration_us": 250000,
  "topology": {"kind": "testbed"},
  "machines": [
    {"name": "server", "stack": "flextoe", "cores": 2, "buf_bytes": 262144, "seed": 7},
    {"name": "client", "stack": "flextoe", "cores": 2, "buf_bytes": 262144, "seed": 8}
  ],
  "workloads": [
    {"kind": "bulk", "bulk": {"server": "server", "port": 9000, "clients": ["client"], "conns": 8}}
  ]
}`

func newTestServer(t *testing.T, workers int, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{Dir: dir, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func submit(t *testing.T, base, spec string) string {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, b)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.ID == "" {
		t.Fatalf("submit response: %v %q", err, out.ID)
	}
	return out.ID
}

// followStream reads the NDJSON stream until the terminal line and
// returns (finalState, flowLines, progressLines). This is the blocking
// wait primitive the tests use instead of sleep/poll loops.
func followStream(t *testing.T, base, id string) (string, int, int) {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return scanStream(t, resp.Body)
}

func scanStream(t *testing.T, body io.Reader) (string, int, int) {
	t.Helper()
	var state string
	var flows, progress int
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var line struct {
			Type  string `json:"type"`
			State string `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch line.Type {
		case "progress":
			progress++
		case "flow":
			flows++
		default:
			state = line.Type
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if state == "" {
		t.Fatal("stream ended without a terminal line")
	}
	return state, flows, progress
}

func fetchResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s: %s", resp.Status, b)
	}
	return b
}

func TestSubmitRunStream(t *testing.T) {
	_, ts := newTestServer(t, 2, t.TempDir())
	id := submit(t, ts.URL, smallSpec)
	state, flows, progress := followStream(t, ts.URL, id)
	if state != StateDone {
		t.Fatalf("terminal state %q", state)
	}
	if progress < 2 {
		t.Fatalf("only %d progress lines", progress)
	}
	if flows == 0 {
		t.Fatalf("per_flow spec streamed no flow records")
	}
	res := fetchResult(t, ts.URL, id)
	var r struct {
		Name  string `json:"name"`
		Flows []any  `json:"flows"`
	}
	if err := json.Unmarshal(res, &r); err != nil || r.Name != "srv-bulk" {
		t.Fatalf("result payload: %v %q", err, r.Name)
	}
	if len(r.Flows) != flows {
		t.Fatalf("stream sent %d flow records, result holds %d", flows, len(r.Flows))
	}
}

func TestRepeatSubmissionsAndPoolWidthsAreByteIdentical(t *testing.T) {
	_, narrow := newTestServer(t, 1, t.TempDir())
	sWide, wide := newTestServer(t, 4, t.TempDir())
	if sWide.Workers() < 1 {
		t.Fatal("worker clamp broke")
	}

	var payloads [][]byte
	for _, run := range []struct {
		base string
		n    int
	}{{narrow.URL, 2}, {wide.URL, 2}} {
		ids := make([]string, run.n)
		for i := range ids {
			ids[i] = submit(t, run.base, smallSpec)
		}
		for _, id := range ids {
			if st, _, _ := followStream(t, run.base, id); st != StateDone {
				t.Fatalf("job %s finished %q", id, st)
			}
			payloads = append(payloads, fetchResult(t, run.base, id))
		}
	}
	for i := 1; i < len(payloads); i++ {
		if !bytes.Equal(payloads[0], payloads[i]) {
			t.Fatalf("payload %d diverged from payload 0:\n%s\n---\n%s",
				i, payloads[0], payloads[i])
		}
	}
}

func TestCancelMidRun(t *testing.T) {
	_, ts := newTestServer(t, 1, t.TempDir())
	id := submit(t, ts.URL, slowSpec)

	resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("stream produced nothing: %v", sc.Err())
	}
	// First progress line seen — the job is live; cancel it.
	cresp, err := http.Post(ts.URL+"/jobs/"+id+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()

	state, _, _ := scanStream(t, resp.Body)
	if state != StateCanceled {
		t.Fatalf("terminal state %q, want canceled", state)
	}
	rr, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("result of canceled job: %s, want 409", rr.Status)
	}
}

func TestPersistenceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	id := submit(t, ts1.URL, smallSpec)
	if st, _, _ := followStream(t, ts1.URL, id); st != StateDone {
		t.Fatalf("first run finished %q", st)
	}
	want := fetchResult(t, ts1.URL, id)
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, 2, dir)
	_ = s2
	got := fetchResult(t, ts2.URL, id)
	if !bytes.Equal(want, got) {
		t.Fatalf("restarted server served a different payload")
	}
	resp, err := http.Get(ts2.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != id || list[0].State != StateDone {
		t.Fatalf("restarted job list: %+v", list)
	}
}

// TestReloadSpecThatNoLongerParses restarts over a job directory whose
// specs carry a field later removed from the format (the top-level
// engine "cores" count). The server must still start: a job with a
// stored result stays done and serves it, a job without one reloads as
// failed with the parse error instead of running.
func TestReloadSpecThatNoLongerParses(t *testing.T) {
	dir := t.TempDir()
	old := strings.Replace(smallSpec, `"duration_us": 1500,`, `"duration_us": 1500, "cores": 2,`, 1)
	stored := []byte("{\n  \"name\": \"srv-bulk\",\n  \"cores\": 2\n}\n")
	files := map[string][]byte{
		"j000000-00000001.spec.json":   []byte(old),
		"j000000-00000001.result.json": stored,
		"j000001-00000002.spec.json":   []byte(old),
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newTestServer(t, 1, dir)

	if got := fetchResult(t, ts.URL, "j000000-00000001"); !bytes.Equal(got, stored) {
		t.Fatalf("done job served %q, want the stored result", got)
	}
	for id, want := range map[string]string{"j000000-00000001": StateDone, "j000001-00000002": StateFailed} {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != want {
			t.Fatalf("job %s reloaded as %q, want %q", id, st.State, want)
		}
		if want == StateFailed && !strings.Contains(st.Error, "unknown field") {
			t.Fatalf("job %s error %q does not carry the parse error", id, st.Error)
		}
	}
}

func TestBadSpecRejected(t *testing.T) {
	_, ts := newTestServer(t, 1, "")
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %s, want 400", resp.Status)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("error body: %v %+v", err, e)
	}
}

// TestStreamEndsOnShutdown parks a stream on a queued job behind a busy
// single-worker pool, then closes the server: the stream must end with a
// "shutdown" line instead of waiting on the cond forever.
func TestStreamEndsOnShutdown(t *testing.T) {
	s, ts := newTestServer(t, 1, t.TempDir())
	busy := submit(t, ts.URL, slowSpec)    // claims the only worker
	queued := submit(t, ts.URL, smallSpec) // stays queued behind it

	resp, err := http.Get(ts.URL + "/jobs/" + queued + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("stream produced nothing: %v", sc.Err())
	}
	// The queued job's stream is live. Shut down (Close drains the
	// running job) and cancel the busy job so the drain is quick.
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	cresp, err := http.Post(ts.URL+"/jobs/"+busy+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()

	state, _, _ := scanStream(t, resp.Body)
	if state != "shutdown" {
		t.Fatalf("terminal line %q, want shutdown", state)
	}
	<-closed
}

// TestSubmitPersistFailure breaks the persistence directory and submits:
// the spec cannot be written, so the submission must fail loudly (500)
// rather than accept a job that would vanish on restart.
func TestSubmitPersistFailure(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, 1, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(smallSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("submit with broken dir: %s, want 500", resp.Status)
	}
	list, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Body.Close()
	var jobs []json.RawMessage
	if err := json.NewDecoder(list.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("unpersisted job was enqueued anyway: %d jobs listed", len(jobs))
	}
}

func TestUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, 1, "")
	for _, path := range []string{"/jobs/nope", "/jobs/nope/result", "/jobs/nope/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %s, want 404", path, resp.Status)
		}
	}
}
