package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed step at a layer boundary. Spans of one run or job
// share Trace, the id of their root span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how untraced runs call it.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id, so children can name a parent that has not
// ended yet. Zero when tracing is off.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span under an id from newID.
func (t *tracer) record(id, parent, trace uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// summary gives, per span name, the count, the total time and the self
// time: a span's duration less the part its children cover.
func (t *tracer) summary() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[uint64]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type agg struct {
		n           int
		total, self int64
	}
	by := make(map[string]*agg)
	var names []string
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		d := s.End - s.Start
		a.n++
		a.total += d
		a.self += max(d-child[s.ID], 0)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, n := range names {
		a := by[n]
		out = append(out, fmt.Sprintf("%s n=%d total_ms=%.3f self_ms=%.3f", n, a.n, float64(a.total)/1e6, float64(a.self)/1e6))
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// memSample is the runtime's cumulative allocation and GC counts.
type memSample struct{ allocs, allocBytes, gcCycles uint64 }

var memMetrics = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readMem() memSample {
	s := make([]metrics.Sample, len(memMetrics))
	for i, n := range memMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return memSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func (a memSample) sub(b memSample) memSample {
	return memSample{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles}
}

// layerOf maps a profiled function name to the layer it is charged to,
// "" for code outside the reported layers. fabric/workload counts as
// apps; the packet and shm pools count with the Go runtime.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments hold paths too
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "flextoe/internal/"):
		rel := strings.TrimPrefix(pkg, "flextoe/internal/")
		switch rel {
		case "fabric/workload":
			return "apps"
		case "packet", "shm":
			return "runtime"
		}
		if i := strings.IndexByte(rel, '/'); i >= 0 {
			rel = rel[:i]
		}
		return rel
	}
	return ""
}

// cpuSplit accumulates self time per layer (samples charged to the
// innermost frame) over CPU profiles.
type cpuSplit struct {
	byLayer map[string]int64
	total   int64
}

// add reads a gzipped pprof CPU profile and counts the samples carrying
// the label key=val, or every sample when key is empty.
func (c *cpuSplit) add(prof []byte, key, val string) error {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(p.strings) {
			return ""
		}
		return p.strings[i]
	}
	if c.byLayer == nil {
		c.byLayer = make(map[string]int64)
	}
	for _, s := range p.samples {
		if key != "" {
			ok := false
			for _, l := range s.labels {
				if str(l[0]) == key && str(l[1]) == val {
					ok = true
				}
			}
			if !ok {
				continue
			}
		}
		if len(s.values) == 0 || len(s.locs) == 0 {
			continue
		}
		n := s.values[0]
		c.total += n
		if fn, ok := p.leafFn[s.locs[0]]; ok {
			c.byLayer[layerOf(str(p.fnName[fn]))] += n
		}
	}
	return nil
}

// set reports each layer's share as cpu.<layer>.
func (c *cpuSplit) set(v map[string]float64) {
	for _, l := range cpuLayers {
		v["cpu."+l] = 0
		if c.total > 0 {
			v["cpu."+l] = float64(c.byLayer[l]) / float64(c.total)
		}
	}
}

// profiled runs f with the CPU profiler on and adds its samples.
func (c *cpuSplit) profiled(key, val string, f func()) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	f()
	pprof.StopCPUProfile()
	return c.add(buf.Bytes(), key, val)
}

// profile is the part of a pprof profile.proto message the CPU split
// needs.
type profile struct {
	samples []profSample
	leafFn  map[uint64]uint64 // location id -> innermost function id
	fnName  map[uint64]int64  // function id -> name string index
	strings []string
}

type profSample struct {
	locs   []uint64
	values []int64
	labels [][2]int64 // key, str string indexes
}

// pb is a minimal protobuf wire-format reader (the module may import
// only the standard library).
type pb struct{ b []byte }

var errTruncated = errors.New("truncated protobuf")

func (p *pb) varint() (uint64, error) {
	var v uint64
	for i := 0; i < 10; i++ {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("protobuf varint overflow")
}

// next returns the next field: its number, and either its varint value
// or its length-delimited bytes.
func (p *pb) next() (num int, v uint64, data []byte, err error) {
	tag, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(tag >> 3)
	switch tag & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, nil, errTruncated
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("protobuf wire type %d", tag&7)
	}
	return num, v, data, err
}

// uints appends a repeated integer field, packed (data) or not (v).
func uints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	q := pb{data}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{leafFn: make(map[uint64]uint64), fnName: make(map[uint64]int64)}
	top := pb{raw}
	for len(top.b) > 0 {
		num, _, data, err := top.next()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			s, err := decodeSample(data)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id, fn uint64
			haveLine := false
			q := pb{data}
			for len(q.b) > 0 {
				n, v, d, err := q.next()
				if err != nil {
					return nil, err
				}
				switch {
				case n == 1:
					id = v
				case n == 4 && !haveLine: // first Line is the innermost frame
					haveLine = true
					l := pb{d}
					for len(l.b) > 0 {
						ln, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fn = lv
						}
					}
				}
			}
			if haveLine {
				p.leafFn[id] = fn
			}
		case 5: // Function
			var id uint64
			var name int64
			q := pb{data}
			for len(q.b) > 0 {
				n, v, _, err := q.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.fnName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
	}
	return p, nil
}

func decodeSample(data []byte) (profSample, error) {
	var s profSample
	q := pb{data}
	for len(q.b) > 0 {
		n, v, d, err := q.next()
		if err != nil {
			return s, err
		}
		switch n {
		case 1:
			if s.locs, err = uints(s.locs, v, d); err != nil {
				return s, err
			}
		case 2:
			var vals []uint64
			if vals, err = uints(nil, v, d); err != nil {
				return s, err
			}
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
		case 3:
			var kv [2]int64
			l := pb{d}
			for len(l.b) > 0 {
				ln, lv, _, err := l.next()
				if err != nil {
					return s, err
				}
				if ln == 1 || ln == 2 {
					kv[ln-1] = int64(lv)
				}
			}
			s.labels = append(s.labels, kv)
		}
	}
	return s, nil
}
