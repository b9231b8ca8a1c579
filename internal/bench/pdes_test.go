package bench

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/fleet"
)

// fleetCfg is the shared base fleet every placement-equivalence test
// perturbs: six hosts so domain counts 1/2/3/6 all divide the work
// differently, and small enough to run many placements per test.
func fleetCfg() fleet.Config {
	return fleet.Config{Hosts: 6, Packets: 6_000, Flows: 256, Seed: 41}
}

// TestFleetPlacementEquivalence pins placement independence on the
// bench's fleet path, where cross-domain mailbox traffic is real: the
// flattened RunReport — per-host books, the metrics snapshot, and its
// digest — is byte-identical for every execution domain and worker
// count, including workers below and above the domain count.
func TestFleetPlacementEquivalence(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	run := func(domains, workers int) ([]byte, string) {
		cfg := fleetCfg()
		cfg.Domains = domains
		cfg.Workers = workers
		rep, _, err := fleetRunReport("fleet_equiv", cfg)
		if err != nil {
			t.Fatalf("fleetRunReport(domains=%d workers=%d): %v", domains, workers, err)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b, rep.Digest()
	}
	refJSON, refDigest := run(1, 1)
	for _, c := range []struct{ domains, workers int }{
		{1, 4}, {2, 1}, {2, 4}, {3, 4}, {6, 1}, {6, 4},
	} {
		gotJSON, gotDigest := run(c.domains, c.workers)
		if gotDigest != refDigest {
			t.Errorf("domains=%d workers=%d digest %s != sequential %s",
				c.domains, c.workers, gotDigest, refDigest)
		}
		if !bytes.Equal(gotJSON, refJSON) {
			t.Errorf("domains=%d workers=%d report JSON diverged from sequential", c.domains, c.workers)
		}
	}
}

// TestFleetTracedMergeEquivalence extends placement equivalence to the
// merged flight-recorder record: per-host recorders tagged by host and
// merged canonically must export byte-identical JSON for every
// placement, and tracing must not perturb the report digest.
func TestFleetTracedMergeEquivalence(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	run := func(domains int, traced bool) (string, []byte) {
		cfg := fleetCfg()
		cfg.Domains = domains
		cfg.Workers = domains
		cfg.Traced = traced
		rep, res, err := fleetRunReport("fleet_traced", cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rec []byte
		if traced {
			rec, err = json.Marshal(res.Record)
			if err != nil {
				t.Fatal(err)
			}
		}
		return rep.Digest(), rec
	}
	untraced, _ := run(1, false)
	seqDigest, seqRec := run(1, true)
	if seqDigest != untraced {
		t.Errorf("tracing perturbed the fleet digest: %s vs %s", seqDigest, untraced)
	}
	if len(seqRec) == 0 {
		t.Fatal("traced fleet produced an empty merged record")
	}
	for _, domains := range []int{2, 3, 6} {
		gotDigest, gotRec := run(domains, true)
		if gotDigest != seqDigest {
			t.Errorf("domains=%d traced digest %s != sequential %s", domains, gotDigest, seqDigest)
		}
		if !bytes.Equal(gotRec, seqRec) {
			t.Errorf("domains=%d merged record JSON diverged from sequential", domains)
		}
	}
}

// TestFleetChaosEquivalence runs the fleet under the headline fault
// storm — a permanent host kill, a crash-restart and a link flap —
// so quarantine, re-steering and readmission travel the mailbox fabric
// between domains, and the whole thing must still be
// placement-independent.
func TestFleetChaosEquivalence(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	run := func(domains int) RunReport {
		cfg := fleetCfg()
		cfg.Packets = 30_000
		cfg.Domains = domains
		cfg.Workers = domains
		cfg.FaultSeed = 97
		cfg.Faults = fleetStormSchedule()
		rep, _, err := fleetRunReport("fleet_chaos", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq := run(1)
	if seq.Metrics.CounterTotal("wirecap_fleet_quarantines_total") == 0 {
		t.Fatal("chaos fleet reported no quarantines; the cross-domain control path is dead")
	}
	if seq.Metrics.CounterTotal("wirecap_fleet_readmissions_total") == 0 {
		t.Fatal("chaos fleet reported no readmissions; the crash-restart never came back")
	}
	for _, domains := range []int{2, 4, 6} {
		got := run(domains)
		if got.Digest() != seq.Digest() {
			t.Errorf("domains=%d chaos digest %s != sequential %s", domains, got.Digest(), seq.Digest())
		}
	}
}
