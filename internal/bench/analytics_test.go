package bench

import (
	"testing"

	"repro/internal/obs"
)

// TestAnalyticsScenarioDeterminism: each analytics scenario renders the
// same digest — sketch contents included — when re-run and when traced.
func TestAnalyticsScenarioDeterminism(t *testing.T) {
	for _, sc := range AnalyticsScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			base, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if base.Analytics == nil {
				t.Fatal("analytics scenario produced no analytics report")
			}
			if base.Analytics.Updates == 0 {
				t.Fatal("stage saw no packets")
			}
			digest := base.Digest()
			again, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if again.Digest() != digest {
				t.Fatalf("re-run digest %s != %s", again.Digest(), digest)
			}
			traced, err := sc.RunTraced(NewRecorder())
			if err != nil {
				t.Fatal(err)
			}
			if traced.Digest() != digest {
				t.Fatalf("traced digest %s != untraced %s", traced.Digest(), digest)
			}
		})
	}
}

// TestAnalyticsChaosLedgeredDrops: under the composite storm, every
// packet the stage did NOT see is accounted for by an explicit cause —
// a drop class or the chunk filter — never silently lost, and the
// filtered count shows the batch filter actually ran.
func TestAnalyticsChaosLedgeredDrops(t *testing.T) {
	sc, ok := ScenarioByName("analytics_chaos_storm")
	if !ok {
		t.Fatal("analytics_chaos_storm not registered")
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	tot := rep.Totals
	if tot.TotalDrops() == 0 {
		t.Fatal("composite storm produced no drops")
	}
	filtered := rep.Metrics.CounterTotal("wirecap_chunk_filtered_total")
	if filtered == 0 {
		t.Fatal("chunk filter rejected nothing on the border trace")
	}
	// Stage updates + undecodable == delivered; received decomposes into
	// delivered + filtered (+ nothing else: delivery/corrupt/reclaim
	// drops happen before receive accounting or are counted in Received).
	a := rep.Analytics
	if a.Updates+a.Undecodable != tot.Delivered {
		t.Fatalf("stage saw %d+%d, engine delivered %d",
			a.Updates, a.Undecodable, tot.Delivered)
	}
	if tot.Received != tot.Delivered+filtered+tot.DeliveryDrops+tot.CorruptDrops+tot.ReclaimDrops {
		t.Fatalf("unledgered packets: received %d, delivered %d, filtered %d, delivery %d, corrupt %d, reclaim %d",
			tot.Received, tot.Delivered, filtered,
			tot.DeliveryDrops, tot.CorruptDrops, tot.ReclaimDrops)
	}
	if tot.Received+tot.CaptureDrops != rep.Sent {
		t.Fatalf("wire conservation: received %d + capture drops %d != sent %d",
			tot.Received, tot.CaptureDrops, rep.Sent)
	}
}

// TestAnalyticsScenariosRegistered: the gate suite contains both
// analytics scenarios and their traced variant is non-nil.
func TestAnalyticsScenariosRegistered(t *testing.T) {
	for _, name := range []string{"analytics_border_wirecapa", "analytics_chaos_storm"} {
		sc, ok := ScenarioByName(name)
		if !ok {
			t.Fatalf("%s missing from CIScenarios", name)
		}
		if sc.RunTraced == nil {
			t.Fatalf("%s lacks its traced variant", name)
		}
	}
	var _ func(*obs.Recorder) (RunReport, error) // keep obs import honest
}
