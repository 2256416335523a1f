package experiments

import (
	"testing"

	"flextoe/internal/ctrl"
	"flextoe/internal/flowmon"
	"flextoe/internal/sim"
)

// TestFig17IncastDCTCPBeatsCCOff is the Fig. 17a acceptance gate at
// 16-way fan-in: with the control plane's DCTCP on, the leaf incast
// queue stays near K (documented bound: peak <= 1.5*K after warmup)
// while CC-off fills the shallow buffer to its cap and pays RTO-scale
// round tails; DCTCP must beat CC-off on p99 FCT and goodput, and must
// actually be reacting to CE marks.
func TestFig17IncastDCTCPBeatsCCOff(t *testing.T) {
	d := 8 * sim.Millisecond
	none := fig17IncastPoint(16, ctrl.CCNone, d)
	dctcp := fig17IncastPoint(16, ctrl.CCDCTCP, d)

	if dctcp.peakQ > fig17K*3/2 {
		t.Errorf("DCTCP peak leaf queue %d B exceeds 1.5*K = %d B", dctcp.peakQ, fig17K*3/2)
	}
	if none.peakQ < fig17QueueCap*9/10 {
		t.Errorf("CC-off peak leaf queue %d B never approached the %d B cap; incast not overwhelming the buffer", none.peakQ, fig17QueueCap)
	}
	if dctcp.p99us >= none.p99us {
		t.Errorf("DCTCP p99 FCT %.1f us does not beat CC-off %.1f us", dctcp.p99us, none.p99us)
	}
	if dctcp.goodputGbps <= none.goodputGbps {
		t.Errorf("DCTCP goodput %.2f G does not beat CC-off %.2f G", dctcp.goodputGbps, none.goodputGbps)
	}
	if dctcp.ecnMarks == 0 {
		t.Error("DCTCP run saw no ECN marks: the control loop had nothing to react to")
	}
	if none.retxKB == 0 {
		t.Error("CC-off run retransmitted nothing: queue cap never enforced")
	}
	if dctcp.retxKB >= none.retxKB {
		t.Errorf("DCTCP retransmitted %.1f KB, not less than CC-off %.1f KB", dctcp.retxKB, none.retxKB)
	}
}

// TestFig17ECMPBalanceWithinBound is the Fig. 17b acceptance gate: for
// >= 64 equal-size cross-rack flows, every spine carries traffic and the
// heaviest spine stays within the documented imbalance bound (max spine
// load <= 1.45x the fair share; runs are seeded, so the bound is exact).
func TestFig17ECMPBalanceWithinBound(t *testing.T) {
	for _, spines := range []int{2, 4} {
		bytes, maxOverFair, racks := fig17ECMPPoint(spines, 64, 20*sim.Millisecond)
		for s, b := range bytes {
			if b == 0 {
				t.Fatalf("spines=%d: spine %d carried nothing", spines, s)
			}
		}
		if maxOverFair > 1.45 {
			t.Errorf("spines=%d: max spine load %.2fx fair share exceeds the 1.45 bound", spines, maxOverFair)
		}
		// The per-rack flowmon fleets ride along: every rack observed
		// flows, and the per-spine split partitions them exactly.
		for r, rep := range racks {
			tot := rep.Totals()
			if tot.Flows == 0 {
				t.Fatalf("spines=%d: rack %d fleet saw no flows", spines, r)
			}
			var split uint64
			for _, g := range rep.GroupTotals(spines, func(f *flowmon.FlowReport) int {
				return int(f.Flow.Hash() % uint32(spines))
			}) {
				split += g.Flows
			}
			if split != tot.Flows {
				t.Errorf("spines=%d: rack %d spine splits cover %d of %d flows", spines, r, split, tot.Flows)
			}
		}
	}
}

// TestFig17OversubscribedTrunkMovesCongestion is the Fig. 17c acceptance
// gate: the same 8-way incast over a single-spine fabric must congest
// the aggregator's leaf egress when the fabric is non-blocking (200 G
// trunk ≥ 4 hosts × 40 G) and the leaf→spine uplink when the trunk is
// oversubscribed (30 G) — with the deep queue AND the CE marks DCTCP
// reacts to moving together. Measured at the pinned seed: 200 G puts
// ~107 KB ≈ K at the host port (uplink ~18 KB, zero uplink marks);
// 30 G puts ~110 KB ≈ K on the uplink (host port ~5 KB, zero host
// marks).
func TestFig17OversubscribedTrunkMovesCongestion(t *testing.T) {
	d := 8 * sim.Millisecond
	nb := fig17OversubPoint(200, d)
	ov := fig17OversubPoint(30, d)

	if nb.peakHostQ <= nb.peakUplinkQ {
		t.Errorf("non-blocking: host-port queue %d B not deeper than uplink %d B", nb.peakHostQ, nb.peakUplinkQ)
	}
	if nb.uplinkMarks != 0 {
		t.Errorf("non-blocking: %d CE marks at the 200 G uplink (expected none)", nb.uplinkMarks)
	}
	if nb.hostMarks == 0 {
		t.Error("non-blocking: no CE marks at the host port — incast not biting")
	}
	if ov.peakUplinkQ <= ov.peakHostQ {
		t.Errorf("oversubscribed: uplink queue %d B not deeper than host port %d B — congestion did not move", ov.peakUplinkQ, ov.peakHostQ)
	}
	if ov.uplinkMarks == 0 {
		t.Error("oversubscribed: no CE marks at the trunk — DCTCP has nothing to react to at the new bottleneck")
	}
	if ov.hostMarks != 0 {
		t.Errorf("oversubscribed: %d CE marks still at the host port", ov.hostMarks)
	}
	// DCTCP should hold the moved queue near K, same bound as Fig. 17a.
	if ov.peakUplinkQ > fig17K*3/2 {
		t.Errorf("oversubscribed: uplink peak %d B exceeds 1.5*K = %d B", ov.peakUplinkQ, fig17K*3/2)
	}

	// Determinism: the oversubscribed point is bit-identical on rerun.
	if again := fig17OversubPoint(30, d); again != ov {
		t.Errorf("oversubscribed point diverged across identical runs:\n%+v\n%+v", ov, again)
	}
}

// TestFig17Determinism: the incast point (including CC-off's RTO storm,
// the regime where event order is most fragile) and the ECMP point must
// be bit-identical across reruns with the same seed.
func TestFig17Determinism(t *testing.T) {
	for _, cc := range []ctrl.CCAlgo{ctrl.CCNone, ctrl.CCDCTCP} {
		a := fig17IncastPoint(16, cc, 4*sim.Millisecond)
		b := fig17IncastPoint(16, cc, 4*sim.Millisecond)
		if a != b {
			t.Errorf("cc=%v: incast results diverged across identical runs:\n%+v\n%+v", cc, a, b)
		}
	}
	a1, m1, _ := fig17ECMPPoint(2, 64, 10*sim.Millisecond)
	a2, m2, _ := fig17ECMPPoint(2, 64, 10*sim.Millisecond)
	if m1 != m2 || len(a1) != len(a2) {
		t.Fatalf("ECMP imbalance diverged: %.4f vs %.4f", m1, m2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Errorf("spine %d bytes diverged: %d vs %d", i, a1[i], a2[i])
		}
	}
}

// TestConcurrentCellsMatchSerial: sweep cells run concurrently by
// runCells — each its own testbed on its own engine — must reproduce the
// serial results exactly. Under -race it also shows that concurrent
// cells share no mutable state.
func TestConcurrentCellsMatchSerial(t *testing.T) {
	fanIns := []int{4, 8}
	ccs := []ctrl.CCAlgo{ctrl.CCNone, ctrl.CCDCTCP}
	cell := func(i int) fig17IncastResult {
		return fig17IncastPoint(fanIns[i/len(ccs)], ccs[i%len(ccs)], 2*sim.Millisecond)
	}
	serial := make([]fig17IncastResult, len(fanIns)*len(ccs))
	for i := range serial {
		serial[i] = cell(i)
	}
	par := make([]fig17IncastResult, len(serial))
	runCells(len(par), len(par), func(i int) { par[i] = cell(i) })
	for i := range serial {
		if serial[i] != par[i] {
			t.Errorf("cell %d: concurrent run diverged from serial:\n%+v\n%+v", i, serial[i], par[i])
		}
		if serial[i].rounds == 0 {
			t.Errorf("cell %d completed no incast rounds", i)
		}
	}
}
