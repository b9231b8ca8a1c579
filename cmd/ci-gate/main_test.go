package main

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
)

// gateReport runs one cheap scenario once per test binary.
var gateReport *bench.RunReport

func report(t *testing.T) bench.RunReport {
	t.Helper()
	if gateReport == nil {
		sc := bench.CIScenarios()[0]
		rep, err := sc.Report()
		if err != nil {
			t.Fatal(err)
		}
		gateReport = &rep
	}
	return *gateReport
}

func cleanBaseline(t *testing.T) Baselines {
	rep := report(t)
	return Baselines{
		Scenarios: []ScenarioBaseline{{
			Name:    rep.Scenario,
			Digest:  rep.Digest(),
			Metrics: rep.KeyMetrics(),
		}},
		Allocs: map[string]float64{"metrics_counter_inc": 0},
		Perf:   PerfBaseline{MinSimPktsPerSec: 1},
	}
}

// TestGatePassesClean: an untampered baseline produces zero failures.
func TestGatePassesClean(t *testing.T) {
	rep := report(t)
	allocs := map[string]float64{"metrics_counter_inc": 0}
	failures, checks := compare(cleanBaseline(t), []bench.RunReport{rep}, TracedResult{}, FleetTracedResult{}, allocs, 100, false)
	if len(failures) != 0 {
		t.Fatalf("clean comparison failed: %v", failures)
	}
	if len(checks) == 0 {
		t.Fatal("no checks performed")
	}
}

// TestGateDetectsSeededRegressions perturbs the baseline one axis at a
// time and requires the gate to flag each: digest drift, metric drift,
// a missing scenario, an alloc budget bust, and a perf floor miss.
func TestGateDetectsSeededRegressions(t *testing.T) {
	rep := report(t)
	allocs := map[string]float64{"metrics_counter_inc": 0}

	cases := []struct {
		name    string
		mutate  func(*Baselines)
		allocs  map[string]float64
		perf    float64
		skip    bool
		wantSub string
	}{
		{
			name:    "digest drift",
			mutate:  func(b *Baselines) { b.Scenarios[0].Digest = "0000000000000000" },
			wantSub: "report digest",
		},
		{
			name:    "metric drift",
			mutate:  func(b *Baselines) { b.Scenarios[0].Metrics["sent"]++ },
			wantSub: "metric sent",
		},
		{
			name: "scenario missing from build",
			mutate: func(b *Baselines) {
				b.Scenarios = append(b.Scenarios, ScenarioBaseline{Name: "ghost_scenario"})
			},
			wantSub: "not produced by this build",
		},
		{
			name:    "alloc budget bust",
			mutate:  func(b *Baselines) {},
			allocs:  map[string]float64{"metrics_counter_inc": 3},
			wantSub: "exceeds budget",
		},
		{
			name:    "perf floor miss",
			mutate:  func(b *Baselines) { b.Perf.MinSimPktsPerSec = 1e18 },
			wantSub: "below floor",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := cleanBaseline(t)
			tc.mutate(&base)
			a := tc.allocs
			if a == nil {
				a = allocs
			}
			perf := tc.perf
			if perf == 0 {
				perf = 100
			}
			failures, _ := compare(base, []bench.RunReport{rep}, TracedResult{}, FleetTracedResult{}, a, perf, tc.skip)
			if len(failures) == 0 {
				t.Fatal("tampered baseline passed the gate")
			}
			found := false
			for _, f := range failures {
				if strings.Contains(f, tc.wantSub) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no failure mentions %q; got %v", tc.wantSub, failures)
			}
		})
	}
}

// TestSkipPerfSuppressesFloor: -skip-perf must disable only the
// wall-clock check, which is the one legitimately environment-dependent
// check the gate has.
func TestSkipPerfSuppressesFloor(t *testing.T) {
	rep := report(t)
	base := cleanBaseline(t)
	base.Perf.MinSimPktsPerSec = 1e18
	allocs := map[string]float64{"metrics_counter_inc": 0}
	failures, _ := compare(base, []bench.RunReport{rep}, TracedResult{}, FleetTracedResult{}, allocs, 1, true)
	if len(failures) != 0 {
		t.Fatalf("skip-perf still failed: %v", failures)
	}
}

// TestTracedStabilityChecks: when the baseline carries the traced
// scenario, the gate must flag a traced-digest mismatch and unstable
// exports, and pass a matching stable probe.
func TestTracedStabilityChecks(t *testing.T) {
	base := Baselines{Scenarios: []ScenarioBaseline{{Name: tracedScenario, Digest: "abc"}}}
	tracedFailures := func(tr TracedResult) []string {
		failures, _ := compare(base, nil, tr, FleetTracedResult{}, nil, 0, true)
		var out []string
		for _, f := range failures {
			if strings.Contains(f, "traced") {
				out = append(out, f)
			}
		}
		return out
	}
	if fs := tracedFailures(TracedResult{Digest: "abc", Stable: true}); len(fs) != 0 {
		t.Fatalf("matching stable probe failed: %v", fs)
	}
	fs := tracedFailures(TracedResult{Digest: "xyz", Stable: false})
	if len(fs) != 2 {
		t.Fatalf("mismatching unstable probe produced %d traced failures, want 2: %v", len(fs), fs)
	}
	if !strings.Contains(fs[0], "perturbed") || !strings.Contains(fs[1], "different Chrome traces") {
		t.Fatalf("unexpected traced failure wording: %v", fs)
	}
}

// fleetFailures runs compare on the fleet family alone and keeps the
// failures whose text contains substr.
func fleetFailures(b Baselines, ftr FleetTracedResult, substr string) []string {
	failures, _ := compare(b, nil, TracedResult{}, ftr, nil, 0, true)
	var out []string
	for _, f := range failures {
		if strings.Contains(f, substr) {
			out = append(out, f)
		}
	}
	return out
}

// TestParallelEquivalenceChecks: the fleet family also records each
// fleet scenario's untraced parallel digest, and the gate must flag one
// that drifts from the committed baseline or was not produced — and pass
// a matching digest, and a single-host baseline with no parallel form,
// silently.
func TestParallelEquivalenceChecks(t *testing.T) {
	base := Baselines{Scenarios: []ScenarioBaseline{{Name: "fleet_chaos_host_kill", Digest: "abc"}}}
	parFailures := func(b Baselines, ftr FleetTracedResult) []string {
		return fleetFailures(b, ftr, "domains=")
	}
	clean := FleetTracedResult{Domains: 4, Scenarios: map[string]FleetTracedScenario{
		"fleet_chaos_host_kill": {Digest: "abc", Stable: true, ParallelDigest: "abc"},
	}}
	if fs := parFailures(base, clean); len(fs) != 0 {
		t.Fatalf("matching parallel digest failed: %v", fs)
	}
	drift := FleetTracedResult{Domains: 4, Scenarios: map[string]FleetTracedScenario{
		"fleet_chaos_host_kill": {Digest: "abc", Stable: true, ParallelDigest: "xyz"},
	}}
	if fs := parFailures(base, drift); len(fs) != 1 || !strings.Contains(fs[0], "parallel executive changed the run") {
		t.Fatalf("parallel digest drift not flagged: %v", fs)
	}
	missing := FleetTracedResult{Domains: 4, Scenarios: map[string]FleetTracedScenario{}}
	if fs := parFailures(base, missing); len(fs) != 1 || !strings.Contains(fs[0], "not produced by the parallel family") {
		t.Fatalf("missing parallel digest not flagged: %v", fs)
	}
	single := Baselines{Scenarios: []ScenarioBaseline{{Name: "constant_wirecapb_x300", Digest: "abc"}}}
	if fs := parFailures(single, missing); len(fs) != 0 {
		t.Fatalf("single-host baseline with no parallel digest failed: %v", fs)
	}
	if fs := parFailures(base, FleetTracedResult{}); len(fs) != 0 {
		t.Fatalf("skipped fleet family still produced failures: %v", fs)
	}
}

// TestFleetTracedChecks: when the fleet family ran, the gate must flag
// a traced digest that drifts from the committed baseline, exports that
// differ across domain counts, and a forensics ledger that fails to
// partition the books — and pass a clean probe silently.
func TestFleetTracedChecks(t *testing.T) {
	base := Baselines{Scenarios: []ScenarioBaseline{{Name: "fleet_chaos_host_kill", Digest: "abc"}}}
	tracedFailures := func(ftr FleetTracedResult) []string {
		return fleetFailures(base, ftr, "fleet traced")
	}
	clean := FleetTracedResult{Domains: 4, Scenarios: map[string]FleetTracedScenario{
		"fleet_chaos_host_kill": {Digest: "abc", Stable: true, ParallelDigest: "abc"},
	}}
	if fs := tracedFailures(clean); len(fs) != 0 {
		t.Fatalf("clean fleet probe failed: %v", fs)
	}
	broken := FleetTracedResult{Domains: 4, Scenarios: map[string]FleetTracedScenario{
		"fleet_chaos_host_kill": {Digest: "xyz", Stable: false, LedgerErr: fmt.Errorf("host 0 off by 1"), ParallelDigest: "abc"},
	}}
	fs := tracedFailures(broken)
	if len(fs) != 3 {
		t.Fatalf("broken fleet probe produced %d failures, want 3: %v", len(fs), fs)
	}
	if !strings.Contains(fs[0], "perturbed") ||
		!strings.Contains(fs[1], "differ between 1 and 4 domains") ||
		!strings.Contains(fs[2], "not a partition") {
		t.Fatalf("unexpected fleet traced failure wording: %v", fs)
	}
	if fs := tracedFailures(FleetTracedResult{}); len(fs) != 0 {
		t.Fatalf("skipped fleet family still produced failures: %v", fs)
	}
}

// TestFleetLedgerCheckRederives: the external ledger re-derivation must
// accept the real storm record and reject a tampered one.
func TestFleetLedgerCheckRederives(t *testing.T) {
	sc, ok := bench.ScenarioByName("fleet_chaos_host_kill")
	if !ok {
		t.Fatal("fleet_chaos_host_kill not in CIScenarios")
	}
	rep, rec, err := sc.TracedRecord(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fleetLedgerCheck(rep, &rec); err != nil {
		t.Fatalf("real storm record failed the ledger check: %v", err)
	}
	tampered := rep
	tampered.Totals.Delivered++
	if err := fleetLedgerCheck(tampered, &rec); err == nil {
		t.Fatal("tampered books passed the ledger check")
	}
}

// TestMeasuredAllocsAreZero pins the zero-allocation contract the
// committed budgets rely on.
func TestMeasuredAllocsAreZero(t *testing.T) {
	for name, v := range measureAllocs() {
		if v != 0 {
			t.Errorf("%s: %g allocs/op on a hot path budgeted at zero", name, v)
		}
	}
}
