// Package fleet scales the single-host capture stack to a resilient
// capture fleet: H hosts tap the same wire, a flow-consistent steering
// layer (Toeplitz hash + host-level indirection table, the same
// machinery commodity NICs use for queues) assigns every flow to
// exactly one host, and a loss-accounted aggregation plane merges the
// per-host capture streams into one globally ordered feed.
//
// The package is built around three invariants:
//
//   - Conservation. Every packet a host records into an aggregation
//     batch is accounted for exactly once at drain:
//     FleetReceived == Aggregated + HostLost + InFlightDropped.
//     Mailbox delivery is reliable, so the only loss points are host
//     crashes (open batch + unsent link queue, state loss), the bounded
//     link retry/backoff giving up, and the aggregator rejecting
//     packets staler than the emitted frontier — each counted where it
//     happens. Run returns an error if the books do not balance.
//
//   - Placement independence. Hosts are logical domains of the
//     conservative parallel executive (internal/vtime/domain); the
//     aggregator lives in domain 0. Reports — including the
//     order-sensitive feed ledger — are byte-identical for every
//     Domains/Workers setting.
//
//   - Order-preserving failover. Steering rewrites are broadcast as a
//     deterministic op log applied by every replica at the same virtual
//     time, so a failover moves each flow to exactly one new host and
//     the merged feed keeps per-flow order (gaps where packets were
//     lost, never inversions).
//
// Degradation is graceful and measured: per-host health scoring at the
// aggregator drives quarantine and re-steer; restarted hosts are
// readmitted after a hello handshake; an overloaded or partitioned
// aggregation link sheds analytics messages before capture batches.
package fleet

import (
	"encoding/json"
	"fmt"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/vtime"
)

// Config sizes a fleet run. Zero values take the documented defaults.
type Config struct {
	// Hosts is the number of capture hosts (default 4).
	Hosts int
	// Packets is the total offered frame count fleet-wide (default
	// 20_000), Flows the distinct flow population (default 256), and
	// PacketsPerSec the offered rate (default 1e6).
	Packets       uint64
	Flows         int
	PacketsPerSec float64
	// Seed drives the traffic stream and nothing else.
	Seed uint64

	// CaptureCost is the per-packet host processing budget (default
	// 400ns); HostBrownout multiplies it. BacklogCap bounds how far a
	// host may fall behind before it sheds at capture (default 50µs).
	CaptureCost vtime.Time
	BacklogCap  vtime.Time

	// BatchPackets closes an aggregation batch by count (default 32);
	// FlushInterval closes a non-empty batch by age (default 200µs).
	BatchPackets  int
	FlushInterval vtime.Time

	// LinkLatency is the host->aggregator mailbox latency, CtrlLatency
	// the aggregator->host control latency (defaults 20µs each; both are
	// conservative-lookahead sources for the parallel executive).
	LinkLatency vtime.Time
	CtrlLatency vtime.Time
	// LinkBytesPerSec / LinkBurst / MsgOverhead parameterize each host's
	// aggregation-link token bucket (internal/bus): defaults 400 MB/s,
	// 64 KB burst, 64 B per-message overhead. Zero LinkBytesPerSec means
	// an unlimited link.
	LinkBytesPerSec float64
	LinkBurst       int
	MsgOverhead     int

	// BackoffBase is the first retry delay after a failed send; attempt
	// n waits min(BackoffBase << (n-1), BackoffMax). The schedule is
	// jitter-free: deterministic replay is worth more to this simulator
	// than decorrelating retries. MaxAttempts bounds the retries per
	// batch before it is dropped as InFlightDropped. Defaults: 50µs,
	// 3.2ms, 8.
	BackoffBase vtime.Time
	BackoffMax  vtime.Time
	MaxAttempts int
	// SoftCap is the pending-queue depth beyond which the host enters
	// degraded mode and sheds analytics (default 4); HardCap is the
	// depth at which the oldest capture batch is dropped (default 16).
	SoftCap int
	HardCap int

	// AnalyticsEvery emits one analytics summary per that many captured
	// packets (default 256; 0 disables).
	AnalyticsEvery uint64

	// SuspectAfter is how long a host may stay silent — while other
	// hosts are heard from — before each further arrival scores a
	// health strike against it (default 1ms). QuarantineScore strikes
	// quarantine it (default 3). HelloReadmit post-restart hellos,
	// HelloInterval apart, readmit it (defaults 3, 500µs).
	SuspectAfter    vtime.Time
	QuarantineScore int
	HelloInterval   vtime.Time
	HelloReadmit    int

	// Faults is the fleet-wide chaos schedule: Event.NIC names the host
	// (host h's NIC has ID h). Each host installs its own slice of the
	// schedule on its own injector, seeded SplitSeed(FaultSeed, host).
	Faults    faults.Schedule
	FaultSeed uint64

	// Domains is the execution domain count (default 1), Workers the
	// in-window parallelism bound — pure placement, never observable.
	Domains int
	Workers int

	// CollectFeed keeps the merged feed in memory on the Result for
	// property tests. Off for gate runs (the ledger digest stands in).
	CollectFeed bool
	// Traced attaches flight recorders (pure observers) to every host
	// and the aggregator; Result.Actions then carries the control-plane
	// action log.
	Traced bool
	// HealthInterval is the health time-series sampling interval
	// (default 250µs) and the forensics-ledger bucket width;
	// HealthMaxIntervals bounds the per-lane delta ring (default 4096).
	// Both only matter when Traced.
	HealthInterval     vtime.Time
	HealthMaxIntervals int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Hosts <= 0 {
		c.Hosts = 4
	}
	if c.Packets == 0 {
		c.Packets = 20_000
	}
	if c.Flows <= 0 {
		c.Flows = 256
	}
	if c.PacketsPerSec == 0 {
		c.PacketsPerSec = 1e6
	}
	if c.CaptureCost == 0 {
		c.CaptureCost = 400 * vtime.Nanosecond
	}
	if c.BacklogCap == 0 {
		c.BacklogCap = 50 * vtime.Microsecond
	}
	if c.BatchPackets <= 0 {
		c.BatchPackets = 32
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 200 * vtime.Microsecond
	}
	if c.LinkLatency == 0 {
		c.LinkLatency = 20 * vtime.Microsecond
	}
	if c.CtrlLatency == 0 {
		c.CtrlLatency = 20 * vtime.Microsecond
	}
	if c.LinkBytesPerSec == 0 {
		c.LinkBytesPerSec = 400e6
	}
	if c.LinkBurst == 0 {
		c.LinkBurst = 64 * 1024
	}
	if c.MsgOverhead == 0 {
		c.MsgOverhead = 64
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 50 * vtime.Microsecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 3200 * vtime.Microsecond
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 8
	}
	if c.SoftCap == 0 {
		c.SoftCap = 4
	}
	if c.HardCap == 0 {
		c.HardCap = 16
	}
	if c.AnalyticsEvery == 0 {
		c.AnalyticsEvery = 256
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = vtime.Millisecond
	}
	if c.QuarantineScore == 0 {
		c.QuarantineScore = 3
	}
	if c.HelloInterval == 0 {
		c.HelloInterval = 500 * vtime.Microsecond
	}
	if c.HelloReadmit == 0 {
		c.HelloReadmit = 3
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 250 * vtime.Microsecond
	}
	if c.HealthMaxIntervals == 0 {
		c.HealthMaxIntervals = 4096
	}
	return c
}

// Packet is one captured record in the aggregation plane.
type Packet struct {
	Host    int            `json:"host"`
	Flow    packet.FlowKey `json:"-"`
	FlowSeq uint64         `json:"flow_seq"`
	Seq     uint64         `json:"seq"` // per-host capture sequence
	TS      vtime.Time     `json:"ts"`
	Len     int            `json:"len"`
}

// msgKind discriminates aggregation-link messages.
type msgKind uint8

const (
	msgBatch msgKind = iota
	msgAnalytics
	msgHello
)

// aggMsg is one host->aggregator mailbox message.
type aggMsg struct {
	kind        msgKind
	host        int
	incarnation int
	pkts        []Packet   // msgBatch
	watermark   vtime.Time // msgBatch: max capture TS in the batch
	processed   uint64     // msgAnalytics: host lifetime capture count
}

// HostReport is one host's contribution to the fleet books.
type HostReport struct {
	Host            int    `json:"host"`
	Offered         uint64 `json:"offered"`
	WireDropped     uint64 `json:"wire_dropped"`
	CaptureDropped  uint64 `json:"capture_dropped"`
	Received        uint64 `json:"received"`
	HostLost        uint64 `json:"host_lost"`
	InFlightDropped uint64 `json:"inflight_dropped"`
	// Aggregated and StaleRejected are the aggregator-side view of this
	// host's stream; Received == Aggregated + HostLost + InFlightDropped
	// + StaleRejected holds per host, not just fleet-wide.
	Aggregated     uint64 `json:"aggregated"`
	StaleRejected  uint64 `json:"stale_rejected"`
	Batches        uint64 `json:"batches"`
	Retries        uint64 `json:"retries"`
	AnalyticsSent  uint64 `json:"analytics_sent"`
	AnalyticsShed  uint64 `json:"analytics_shed"`
	Incarnations   int    `json:"incarnations"`
	DegradedEnters uint64 `json:"degraded_enters"`
}

// Report is the deterministic record of a fleet run. Identical configs
// produce byte-identical reports for every Domains/Workers setting.
type Report struct {
	Scenario string `json:"scenario"`
	Hosts    int    `json:"hosts"`

	// The conservation books. FleetSent is the offered frame count;
	// WireDropped fell at the wire of a dead host; CaptureDropped was
	// shed by an overloaded host before batching. FleetReceived counts
	// packets recorded into aggregation batches, and decomposes exactly
	// into Aggregated + HostLost + InFlightDropped.
	FleetSent       uint64 `json:"fleet_sent"`
	WireDropped     uint64 `json:"wire_dropped"`
	CaptureDropped  uint64 `json:"capture_dropped"`
	FleetReceived   uint64 `json:"fleet_received"`
	Aggregated      uint64 `json:"aggregated"`
	HostLost        uint64 `json:"host_lost"`
	InFlightDropped uint64 `json:"inflight_dropped"`
	// StaleRejected is the aggregator-side share of InFlightDropped
	// (already included in it): packets that arrived older than the
	// emitted frontier — typically a false-positive quarantine's backlog
	// landing after its flows were re-steered — and were rejected rather
	// than merged out of order.
	StaleRejected uint64 `json:"stale_rejected"`

	// Delivery is Aggregated / FleetSent — the fleet-level delivery
	// ratio the chaos scenarios gate (≥95% under the two-host-kill
	// storm).
	Delivery float64 `json:"delivery"`

	// LateMerges counts feed emissions that violated global order; the
	// watermark merge makes it structurally zero and the baselines pin
	// that.
	LateMerges uint64 `json:"late_merges"`

	// Control-plane activity.
	Quarantines  uint64 `json:"quarantines"`
	Readmissions uint64 `json:"readmissions"`
	ReSteers     uint64 `json:"resteers"`
	SteerMoves   uint64 `json:"steer_moves"`

	// Analytics plane (shed before capture under degradation).
	AnalyticsAggregated uint64 `json:"analytics_aggregated"`
	AnalyticsShed       uint64 `json:"analytics_shed"`

	Batches uint64     `json:"batches"`
	EndNs   vtime.Time `json:"end_ns"`

	// Ledger is the order-sensitive FNV-1a checksum of the merged feed:
	// it witnesses not just how many packets aggregated but their exact
	// global order.
	Ledger string `json:"ledger"`

	PerHost []HostReport     `json:"per_host"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// Conserved reports whether the aggregation books balance exactly.
func (r Report) Conserved() bool {
	return r.FleetReceived == r.Aggregated+r.HostLost+r.InFlightDropped
}

// Digest is the report's stable fingerprint: FNV-1a over the compact
// JSON encoding, as bench.RunReport.Digest.
func (r Report) Digest() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("fleet: marshaling Report: %v", err))
	}
	h := newFNV()
	h.write(b)
	return h.sum()
}

// fnv is an incremental FNV-1a state (the ledger and digest hash).
type fnv struct{ h uint64 }

func newFNV() *fnv { return &fnv{h: 0xcbf29ce484222325} }

func (f *fnv) write(p []byte) {
	h := f.h
	for _, b := range p {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	f.h = h
}

func (f *fnv) sum() string { return fmt.Sprintf("%016x", f.h) }
