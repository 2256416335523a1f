package experiments

import (
	"testing"

	"flextoe/internal/sim"
)

// Per-core-count harness benchmark: the (server cores × stack) Fig 8
// sweep's independent seeded testbeds run on a worker pool (runCells),
// each testbed on its own engine. Results are bit-identical at every core
// count; only wall-clock changes. Speedup requires actual CPUs: runCells
// clamps its pool to GOMAXPROCS, so on a single-CPU host the curve is
// flat by design.

func benchFig8Sweep(b *testing.B, cores int) {
	rows := []int{2, 4, 8, 16}
	const d = 15 * sim.Millisecond // Quick-scale duration (see Fig8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig8Cells(rows, d, cores)
	}
}

func BenchmarkFig8SweepCores1(b *testing.B) { benchFig8Sweep(b, 1) }
func BenchmarkFig8SweepCores2(b *testing.B) { benchFig8Sweep(b, 2) }
func BenchmarkFig8SweepCores4(b *testing.B) { benchFig8Sweep(b, 4) }
func BenchmarkFig8SweepCores8(b *testing.B) { benchFig8Sweep(b, 8) }
