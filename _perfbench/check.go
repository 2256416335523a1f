package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	"flextoe/internal/scenario"
)

// checkWork fails a result in which some workload completed nothing: no
// operations, bytes, flows or rounds over the measured window. A stalled
// workload still yields a well-formed, deterministic payload, so the
// digest check alone would not catch it.
func checkWork(r *scenario.Result) error {
	if len(r.Workloads) == 0 {
		return fmt.Errorf("%s: result has no workloads", r.Name)
	}
	for i, w := range r.Workloads {
		if w.Ops == 0 && w.Bytes == 0 && w.Completed == 0 && w.Rounds == 0 {
			return fmt.Errorf("%s: workload %d (%s) completed no work", r.Name, i, w.Kind)
		}
	}
	return nil
}

// digestBook requires every execution of one spec to produce the same
// canonical payload bytes.
type digestBook struct {
	names []string
	first [][32]byte
	seen  []int
}

func newDigestBook(n int) *digestBook {
	return &digestBook{names: make([]string, n), first: make([][32]byte, n), seen: make([]int, n)}
}

// check records the payload digest of one execution of spec i.
func (d *digestBook) check(i int, name string, payload []byte) error {
	sum := sha256.Sum256(payload)
	d.seen[i]++
	if d.seen[i] == 1 {
		d.names[i], d.first[i] = name, sum
		return nil
	}
	if sum != d.first[i] {
		return fmt.Errorf("%s: payload sha256 %s differs from first execution's %s",
			name, hex.EncodeToString(sum[:8]), hex.EncodeToString(d.first[i][:8]))
	}
	return nil
}

// lines prints each spec's digest and execution count; a spec seen once
// was never compared.
func (d *digestBook) lines() []string {
	var out []string
	for i := range d.first {
		if d.seen[i] == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("digest %s sha256=%s executions=%d",
			d.names[i], hex.EncodeToString(d.first[i][:]), d.seen[i]))
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// specQuantile is the geometric mean over specs of the q-quantile of
// each spec's samples. Chunk times differ between a workload's specs by
// up to tenfold, so a quantile of the pooled chunks sits in the gap
// between two specs' clusters and jumps with the share of executions
// each spec got before the budget ran out; each spec's own quantile
// does not.
func specQuantile(bySpec [][]float64, q float64) float64 {
	qs := make([]float64, len(bySpec))
	for i, xs := range bySpec {
		qs[i] = quantile(xs, q)
	}
	return geomean(qs)
}

// geomean is the geometric mean: each value's relative change moves it
// alike, however large the value.
func geomean(xs []float64) float64 {
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
