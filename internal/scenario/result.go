package scenario

import "encoding/json"

// Result is the canonical readout of one executed scenario. Every field
// is computed from simulation state with the exact arithmetic the
// hand-written experiment runners use, and the struct marshals with a
// fixed field order, so the same spec produces byte-identical payloads
// on every rerun and at any service worker-pool width. The payload
// carries no timestamps, host names, or other run-environment state by
// design.
type Result struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	// Cores is always 1: every scenario runs on one engine. It stays in
	// the payload because dropping it would change every payload digest
	// (TestPayloadDigestsPinned), a payload-format change of its own.
	Cores      int   `json:"cores"`
	DurationUs int64 `json:"duration_us"`
	WarmupUs   int64 `json:"warmup_us"`

	Machines  []MachineResult  `json:"machines,omitempty"`
	Switch    *SwitchResult    `json:"switch,omitempty"`
	Fabric    *FabricResult    `json:"fabric,omitempty"`
	Workloads []WorkloadResult `json:"workloads"`
	Flowmon   []FlowmonResult  `json:"flowmon,omitempty"`
	Racks     []RackResult     `json:"racks,omitempty"`
	Flows     []FlowRecord     `json:"flows,omitempty"`
}

// Canonical returns the result's canonical byte encoding — the payload
// the determinism-over-HTTP guarantee is stated over.
func (r *Result) Canonical() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// Result holds only plain scalars and slices; this cannot fail.
		panic("scenario: canonical encode: " + err.Error())
	}
	return append(b, '\n')
}

// MachineResult is one machine's stack counters over the measured
// window (post-warmup deltas).
type MachineResult struct {
	Name        string `json:"name"`
	Stack       string `json:"stack"`
	RxSegs      uint64 `json:"rx_segs"`
	TxSegs      uint64 `json:"tx_segs"`
	RetxSegs    uint64 `json:"retx_segs"`
	RetxBytes   uint64 `json:"retx_bytes"`
	DupAcks     uint64 `json:"dup_acks"`
	OOOAccepted uint64 `json:"ooo_accepted"`
	OOODropped  uint64 `json:"ooo_dropped"`
}

// SwitchResult is the single-switch testbed's counters over the
// measured window.
type SwitchResult struct {
	Forwarded   uint64 `json:"forwarded"`
	LossDrops   uint64 `json:"loss_drops"`
	QueueDrops  uint64 `json:"queue_drops"`
	WREDDrops   uint64 `json:"wred_drops"`
	ECNMarks    uint64 `json:"ecn_marks"`
	DupInjected uint64 `json:"dup_injected"`
	Reordered   uint64 `json:"reordered"`
}

// FabricResult is the leaf–spine fabric's counters over the measured
// window. Peaks cover the post-warmup window (queue stats reset at the
// warmup boundary); SpineTxBytes is the per-spine delta, the ECMP
// balance readout.
type FabricResult struct {
	LeafECNMarks         uint64   `json:"leaf_ecn_marks"`
	SpineECNMarks        uint64   `json:"spine_ecn_marks"`
	Drops                uint64   `json:"drops"`
	PeakLeafQueueBytes   int      `json:"peak_leaf_queue_bytes"`
	PeakUplinkQueueBytes int      `json:"peak_uplink_queue_bytes"`
	SpineTxBytes         []uint64 `json:"spine_tx_bytes"`
}

// WorkloadResult is one workload's measured-window readout; which
// fields are meaningful depends on Kind.
type WorkloadResult struct {
	Kind        string  `json:"kind"`
	GoodputGbps float64 `json:"goodput_gbps,omitempty"`
	Bytes       uint64  `json:"bytes,omitempty"`
	Ops         uint64  `json:"ops,omitempty"`
	Started     uint64  `json:"started,omitempty"`
	Completed   uint64  `json:"completed,omitempty"`
	Rounds      uint64  `json:"rounds,omitempty"`
	P50Us       float64 `json:"p50_us,omitempty"`
	P99Us       float64 `json:"p99_us,omitempty"`
}

// FlowmonResult is one attach point's merged totals (whole run — the
// passive analyzer observes from attach, not from the warmup boundary).
type FlowmonResult struct {
	Machine      string `json:"machine"`
	Flows        uint64 `json:"flows"`
	Pkts         uint64 `json:"pkts"`
	AckedBytes   uint64 `json:"acked_bytes"`
	RetxSegs     uint64 `json:"retx_segs"`
	RetxBytes    uint64 `json:"retx_bytes"`
	RetxGBNBytes uint64 `json:"retx_gbn_bytes"`
	RetxSelBytes uint64 `json:"retx_sel_bytes"`
	DupAcks      uint64 `json:"dup_acks"`
	OOOAccepts   uint64 `json:"ooo_accepts"`
	OOODrops     uint64 `json:"ooo_drops"`
	CEPkts       uint64 `json:"ce_pkts"`
	RTTSamples   uint64 `json:"rtt_samples"`
	RTTP50Us     int    `json:"rtt_p50_us"`
	RTTP99Us     int    `json:"rtt_p99_us"`
	RTTMaxUs     int    `json:"rtt_max_us"`
}

// RackResult is one rack fleet's merged totals with per-spine splits:
// every host NIC in the rack feeds one analyzer, and flows group by the
// same CRC-32 hash the fabric's ECMP stage uses to pick uplinks.
type RackResult struct {
	Rack         int          `json:"rack"`
	Flows        uint64       `json:"flows"`
	Pkts         uint64       `json:"pkts"`
	AckedBytes   uint64       `json:"acked_bytes"`
	RetxBytes    uint64       `json:"retx_bytes"`
	RetxSelBytes uint64       `json:"retx_sel_bytes"`
	DupAcks      uint64       `json:"dup_acks"`
	RTTSamples   uint64       `json:"rtt_samples"`
	RTTP50Us     int          `json:"rtt_p50_us"`
	RTTP99Us     int          `json:"rtt_p99_us"`
	Spines       []SpineSplit `json:"spines"`
}

// SpineSplit is the slice of a rack's flows that hashed onto one spine.
type SpineSplit struct {
	Spine      int     `json:"spine"`
	Flows      uint64  `json:"flows"`
	RetxSegs   uint64  `json:"retx_segs"`
	RetxBytes  uint64  `json:"retx_bytes"`
	DupAcks    uint64  `json:"dup_acks"`
	RTTSamples uint64  `json:"rtt_samples"`
	RTTMeanUs  float64 `json:"rtt_mean_us"`
}

// FlowRecord is one directed flow as observed at one analyzer — the
// per-flow records the job service streams over NDJSON.
type FlowRecord struct {
	Machine     string  `json:"machine"`
	Src         string  `json:"src"`
	Dst         string  `json:"dst"`
	Pkts        uint64  `json:"pkts"`
	AckedBytes  uint64  `json:"acked_bytes"`
	RetxSegs    uint64  `json:"retx_segs"`
	RetxBytes   uint64  `json:"retx_bytes"`
	DupAcks     uint64  `json:"dup_acks"`
	OOOAccepts  uint64  `json:"ooo_accepts"`
	OOODrops    uint64  `json:"ooo_drops"`
	RTTSamples  uint64  `json:"rtt_samples"`
	RTTMeanUs   float64 `json:"rtt_mean_us"`
	GoodputGbps float64 `json:"goodput_gbps"`
}
