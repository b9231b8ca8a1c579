package fleet

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/packet"
	"repro/internal/vtime"
)

// testConfig is a small, fast fleet sized so every test finishes in
// well under a second while still exercising batching, flushing, and
// the merge frontier.
func testConfig() Config {
	return Config{
		Hosts:       4,
		Packets:     12_000,
		Flows:       128,
		Seed:        7,
		CollectFeed: true,
	}
}

// crashSchedule is the canonical two-host-kill chaos storm used across
// the tests: one permanent kill, one crash-with-restart, and a link
// flap on a survivor.
func crashSchedule() faults.Schedule {
	return faults.Schedule{
		{Kind: faults.HostCrash, NIC: 1, At: 3 * vtime.Millisecond},
		{Kind: faults.HostCrash, NIC: 3, At: 5 * vtime.Millisecond, Dur: 3 * vtime.Millisecond},
		{Kind: faults.AggLinkDown, NIC: 2, At: 4 * vtime.Millisecond, Dur: 400 * vtime.Microsecond},
	}
}

func TestSteadyStateDeliversEverything(t *testing.T) {
	res, err := Run("steady", testConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	if r.FleetSent != 12_000 {
		t.Fatalf("FleetSent = %d, want 12000", r.FleetSent)
	}
	if r.WireDropped != 0 || r.CaptureDropped != 0 || r.HostLost != 0 || r.InFlightDropped != 0 {
		t.Fatalf("steady state dropped packets: %+v", r)
	}
	if r.Aggregated != r.FleetSent {
		t.Fatalf("Aggregated = %d, want %d", r.Aggregated, r.FleetSent)
	}
	if r.Delivery != 1 {
		t.Fatalf("Delivery = %v, want 1", r.Delivery)
	}
	if r.LateMerges != 0 {
		t.Fatalf("LateMerges = %d, want 0", r.LateMerges)
	}
	if r.Quarantines != 0 || r.ReSteers != 0 {
		t.Fatalf("steady state ran the control plane: %+v", r)
	}
	// Every host should have captured something: the steering table
	// spreads 128 flows over 4 hosts.
	for _, h := range r.PerHost {
		if h.Received == 0 {
			t.Errorf("host %d captured nothing", h.Host)
		}
	}
}

func TestFeedGloballyOrdered(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = crashSchedule()
	res, err := Run("ordered", cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Feed) == 0 {
		t.Fatal("CollectFeed produced no feed")
	}
	var last vtime.Time
	for i, p := range res.Feed {
		if p.TS < last {
			t.Fatalf("feed[%d]: TS %d < previous %d", i, p.TS, last)
		}
		last = p.TS
	}
	if res.Report.LateMerges != 0 {
		t.Fatalf("LateMerges = %d, want 0", res.Report.LateMerges)
	}
}

// TestPerFlowOrderAcrossFailover is the order-preserving-failover
// property: after a crash re-steers a dead host's flows, the merged
// feed may have per-flow gaps (lost packets) but never inversions or
// duplicates — each flow's generator sequence numbers appear strictly
// increasing.
func TestPerFlowOrderAcrossFailover(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = crashSchedule()
	res, err := Run("flow_order", cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Report.Quarantines == 0 {
		t.Fatal("schedule produced no quarantine; the property is vacuous")
	}
	lastSeq := make(map[packet.FlowKey]uint64)
	owners := make(map[packet.FlowKey]map[int]bool)
	for i, p := range res.Feed {
		if prev := lastSeq[p.Flow]; p.FlowSeq <= prev {
			t.Fatalf("feed[%d]: flow %v seq %d after %d (inversion or duplicate)",
				i, p.Flow, p.FlowSeq, prev)
		}
		lastSeq[p.Flow] = p.FlowSeq
		if owners[p.Flow] == nil {
			owners[p.Flow] = map[int]bool{}
		}
		owners[p.Flow][p.Host] = true
	}
	// The failover must actually have moved flows between hosts, or the
	// property was never stressed.
	moved := 0
	for _, hs := range owners {
		if len(hs) > 1 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no flow was captured by more than one host; failover never engaged")
	}
}

func TestPlacementEquivalence(t *testing.T) {
	cfg := testConfig()
	cfg.CollectFeed = false
	cfg.Faults = crashSchedule()
	base, err := Run("placement", cfg)
	if err != nil {
		t.Fatalf("Run(domains=1): %v", err)
	}
	want := base.Report.Digest()
	// Workers both below and above Domains, and a domain count (3) that
	// does not divide the four hosts evenly.
	for _, p := range []struct{ domains, workers int }{
		{1, 4}, {2, 1}, {2, 2}, {3, 3}, {4, 4},
	} {
		c := cfg
		c.Domains = p.domains
		c.Workers = p.workers
		res, err := Run("placement", c)
		if err != nil {
			t.Fatalf("Run(domains=%d workers=%d): %v", p.domains, p.workers, err)
		}
		if got := res.Report.Digest(); got != want {
			t.Errorf("domains=%d workers=%d digest %s != domains=1 digest %s\nbase: %+v\ngot:  %+v",
				p.domains, p.workers, got, want, base.Report, res.Report)
		}
	}
}

// TestDigestSensitivity proves the report digest covers the run:
// changing the offered rate or the host count must change it.
func TestDigestSensitivity(t *testing.T) {
	run := func(mutate func(*Config)) string {
		cfg := testConfig()
		cfg.CollectFeed = false
		mutate(&cfg)
		res, err := Run("sensitivity", cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.Report.Digest()
	}
	base := run(func(*Config) {})
	if run(func(c *Config) { c.PacketsPerSec = 750_000 }) == base {
		t.Error("fleet digest unchanged across offered rates")
	}
	if run(func(c *Config) { c.Hosts = 5 }) == base {
		t.Error("fleet digest unchanged across host counts")
	}
}

func TestCrashQuarantineAndReadmission(t *testing.T) {
	cfg := testConfig()
	cfg.Packets = 20_000 // ~20ms: room for crash, detection, restart, readmission
	cfg.Faults = faults.Schedule{
		{Kind: faults.HostCrash, NIC: 2, At: 3 * vtime.Millisecond, Dur: 4 * vtime.Millisecond},
	}
	cfg.Traced = true
	res, err := Run("readmit", cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	if r.Quarantines == 0 {
		t.Fatal("crash was never quarantined")
	}
	if r.Readmissions == 0 {
		t.Fatal("restarted host was never readmitted")
	}
	if r.PerHost[2].Incarnations != 1 {
		t.Fatalf("host 2 incarnations = %d, want 1", r.PerHost[2].Incarnations)
	}
	if r.LateMerges != 0 {
		t.Fatalf("LateMerges = %d, want 0 (readmission watermark floor failed)", r.LateMerges)
	}
	// After readmission the host must capture again: its wire books keep
	// growing past the restart.
	if got := r.PerHost[2].Received; got == 0 {
		t.Fatal("host 2 never captured after readmission")
	}
	// The trace carries the control-plane action log.
	kinds := map[string]int{}
	for _, a := range res.Record.Actions {
		kinds[a.Kind]++
	}
	for _, k := range []string{"fleet_host_crash", "fleet_host_restart", "fleet_quarantine", "fleet_resteer", "fleet_readmit", "fleet_restore"} {
		if kinds[k] == 0 {
			t.Errorf("trace has no %q action; got %v", k, kinds)
		}
	}
}

func TestPartitionShedsAnalyticsBeforeCapture(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = faults.Schedule{
		{Kind: faults.AggLinkDown, NIC: 1, At: 2 * vtime.Millisecond, Dur: 2 * vtime.Millisecond},
	}
	res, err := Run("shed", cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	h := r.PerHost[1]
	if h.Retries == 0 {
		t.Fatal("partitioned host never retried")
	}
	if r.AnalyticsShed == 0 {
		t.Fatal("degraded host shed no analytics")
	}
	if h.DegradedEnters == 0 {
		t.Fatal("host never entered degraded mode")
	}
	// Graceful degradation: analytics dies first. If the partition cost
	// capture batches, it must have shed strictly more analytics traffic
	// relative to its plane's volume than capture lost; in this short
	// partition with generous retry budget, capture survives entirely.
	if h.InFlightDropped != 0 || h.HostLost != 0 {
		t.Fatalf("short partition lost capture data: %+v", h)
	}
}

func TestBrownoutShedsAtCapture(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = faults.Schedule{
		{Kind: faults.HostBrownout, NIC: 0, At: 2 * vtime.Millisecond,
			Dur: 4 * vtime.Millisecond, Severity: 24},
	}
	res, err := Run("brownout", cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := res.Report.PerHost[0]
	if h.CaptureDropped == 0 {
		t.Fatalf("brownout host shed nothing at capture: %+v", h)
	}
	if res.Report.HostLost != 0 {
		t.Fatalf("brownout must not lose aggregation state: %+v", res.Report)
	}
}

// TestConservationUnderRandomChaos fuzzes the books: any schedule of
// host-level faults must leave FleetReceived exactly decomposed, unique
// ownership intact (Run errors otherwise), and the feed ordered.
func TestConservationUnderRandomChaos(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := testConfig()
			cfg.Packets = 8_000
			cfg.FaultSeed = seed
			cfg.Faults = faults.RandomSchedule(seed, faults.RandomConfig{
				NICs: cfg.Hosts, Events: 6,
				Horizon: 8 * vtime.Millisecond,
				MaxDur:  2 * vtime.Millisecond,
				Kinds: []faults.Kind{
					faults.HostCrash, faults.AggLinkDown, faults.HostBrownout,
				},
			})
			res, err := Run("random_chaos", cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			lastSeq := make(map[packet.FlowKey]uint64)
			for i, p := range res.Feed {
				if prev := lastSeq[p.Flow]; p.FlowSeq <= prev {
					t.Fatalf("feed[%d]: flow seq %d after %d", i, p.FlowSeq, prev)
				}
				lastSeq[p.Flow] = p.FlowSeq
			}
		})
	}
}

func TestSteeringReSteerRestoreRoundTrip(t *testing.T) {
	s := NewSteering(4)
	before := make([]int, 0, 4)
	for h := 0; h < 4; h++ {
		before = append(before, s.Owned(h))
	}
	moved := s.Apply(SteerOp{Kind: OpReSteer, Host: 2, Healthy: []int{0, 1, 3}})
	if moved != before[2] {
		t.Fatalf("ReSteer moved %d entries, want %d", moved, before[2])
	}
	if s.Owned(2) != 0 {
		t.Fatalf("host 2 still owns %d entries after re-steer", s.Owned(2))
	}
	s.Apply(SteerOp{Kind: OpRestore, Host: 2})
	for h := 0; h < 4; h++ {
		if s.Owned(h) != before[h] {
			t.Fatalf("host %d owns %d after restore, want %d", h, s.Owned(h), before[h])
		}
	}
}

// TestSharedWireMatchesGenerator pins the shared offered stream to the
// frames the per-host generator replicas emitted before the stream was
// drawn once up front: same RNG, same draw order, same flow sequence
// numbers. The first frames are spelled out; a digest covers all 500.
func TestSharedWireMatchesGenerator(t *testing.T) {
	flows := newFlowPool(42, 16)
	w := drawWire(42, flows, 500, vtime.Microsecond, NewSteering(4))
	if len(w.frames) != 500 {
		t.Fatalf("wire holds %d frames, want 500", len(w.frames))
	}
	first := []wireFrame{
		{flow: 1, flowSeq: 1, len: 172},
		{flow: 12, flowSeq: 1, len: 595},
		{flow: 13, flowSeq: 1, len: 985},
		{flow: 15, flowSeq: 1, len: 1213},
		{flow: 12, flowSeq: 2, len: 184},
		{flow: 11, flowSeq: 1, len: 961},
	}
	for i, want := range first {
		if w.frames[i] != want {
			t.Fatalf("frame %d = %+v, want %+v", i, w.frames[i], want)
		}
	}
	h := newFNV()
	for _, fr := range w.frames {
		h.write(fmt.Appendf(nil, "%v|%d|%d;", flows[fr.flow], fr.flowSeq, fr.len))
	}
	if got, want := h.sum(), "59b1193082f7117e"; got != want {
		t.Fatalf("stream digest %s, want %s", got, want)
	}
}

// TestHostByHashMatchesHost: steering by the wire's precomputed per-flow
// hash picks the same host as hashing the tuple, in the canonical table
// and after a re-steer and after the restore that undoes it.
func TestHostByHashMatchesHost(t *testing.T) {
	flows := newFlowPool(9, 512)
	s := NewSteering(4)
	w := drawWire(9, flows, 20_000, vtime.Microsecond, s)
	check := func(state string) {
		t.Helper()
		for i, f := range flows {
			if got, want := s.HostByHash(w.hash[i]), s.Host(f); got != want {
				t.Fatalf("%s: flow %d steered to host %d by hash, %d by tuple", state, i, got, want)
			}
		}
	}
	check("canonical")
	s.Apply(SteerOp{Kind: OpReSteer, Host: 2, Healthy: []int{0, 1, 3}})
	check("re-steered")
	s.Apply(SteerOp{Kind: OpRestore, Host: 2})
	check("restored")
}

// TestLedgerRecordMatchesSprintf: the allocation-free ledger encoder
// must hash exactly the bytes fmt rendered, or every fleet digest moves.
func TestLedgerRecordMatchesSprintf(t *testing.T) {
	for _, p := range []Packet{
		{},
		{TS: 1, Host: 3, Seq: 7, FlowSeq: 9, Len: 60},
		{TS: vtime.Time(math.MaxInt64), Host: 127, Seq: math.MaxUint64, FlowSeq: math.MaxUint64, Len: 1259},
		{TS: 98_765_432_101_234, Host: 0, Seq: math.MaxUint64, FlowSeq: 0, Len: 0},
	} {
		want := fmt.Sprintf("%d|%d|%d|%d|%d;", p.TS, p.Host, p.Seq, p.FlowSeq, p.Len)
		if got := string(appendLedger([]byte("x"), &p)[1:]); got != want {
			t.Fatalf("ledger record %q, want %q", got, want)
		}
	}
}

// TestRunPacketPathAllocations keeps the fleet packet path
// allocation-free: a whole storm run — set-up included — must stay under
// half a heap object per offered packet. A per-event method value, a
// formatted ledger record or a re-grown buffer each cost at least one.
func TestRunPacketPathAllocations(t *testing.T) {
	const packets = 100_000
	dur := vtime.Time(packets) * vtime.Microsecond
	at := func(pct int64) vtime.Time { return dur * vtime.Time(pct) / 100 }
	cfg := Config{
		Hosts: 8, Packets: packets, Flows: 4096, Seed: 1, Domains: 1,
		Faults: faults.Schedule{
			{Kind: faults.HostCrash, NIC: 1, At: at(25)},
			{Kind: faults.HostCrash, NIC: 4, At: at(45), Dur: at(20)},
			{Kind: faults.AggLinkDown, NIC: 2, At: at(65), Dur: 600 * vtime.Microsecond},
		},
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Run("storm", cfg); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / packets
	t.Logf("%.0f objects, %.3f per offered packet", allocs, per)
	if per >= 0.5 {
		t.Fatalf("fleet storm allocates %.3f objects per offered packet (%.0f total), want < 0.5", per, allocs)
	}
}
