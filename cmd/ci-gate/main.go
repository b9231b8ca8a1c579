// Command ci-gate is the deterministic regression gate: it re-runs the
// bench CI scenarios and compares the resulting RunReports against the
// committed baselines.json. Because the simulator is deterministic, the
// functional comparison is exact — a report digest or a headline metric
// that moves at all is a regression (or an intentional change, in which
// case refresh the baseline with -update and commit the diff).
//
// Four check families, in decreasing strictness:
//
//   - Scenario digests and key metrics: exact. Covers every counter,
//     per-queue fate, latency histogram bucket, and metric series the
//     simulator exports.
//   - Allocation budgets: measured with testing.AllocsPerRun, must not
//     exceed the committed budget. Guards the zero-allocation hot paths
//     (metrics instruments, scheduler, capture loop, disabled flight-
//     recorder hooks).
//   - Traced stability: one scenario re-runs with the flight recorder
//     attached; its digest must equal the scenario's baseline digest
//     (the recorder is a pure observer) and two traced runs must export
//     byte-identical Chrome traces. The fleet scenarios extend this:
//     every fleet_chaos_* run re-runs traced at 1 and -domains time
//     domains and untraced at -domains, each must reproduce the
//     committed untraced digest, the journey dump / Chrome export /
//     health series must be byte-identical across the two domain
//     counts, and the forensics ledger must re-derive the conservation
//     books exactly — independently of the identical check fleet.Run
//     performs inside. Parallelism is an execution detail, so
//     baselines.json is shared across domain counts, never forked. A
//     single-host scenario is one structural unit with nothing to
//     split, so it has no parallel form.
//   - Performance floor: simulated packets per wall-clock second must
//     stay above a deliberately conservative floor (the baseline records
//     measured/8), so only order-of-magnitude slowdowns trip it. Skip on
//     wildly variable machines with -skip-perf.
//
// Usage:
//
//	ci-gate [-baselines FILE] [-update] [-skip-perf] [-domains N] [-summary FILE] [-v]
//
// Exit status 0 when every check passes, 1 on any regression, 2 on
// operational errors (unreadable baseline, scenario failure).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/walltime"
)

// Baselines is the committed gate state. Regenerate with -update.
type Baselines struct {
	// Comment documents the refresh procedure inside the JSON itself.
	Comment   string             `json:"_comment"`
	Scenarios []ScenarioBaseline `json:"scenarios"`
	// Allocs maps check name to the maximum allocations per operation.
	Allocs map[string]float64 `json:"allocs"`
	Perf   PerfBaseline       `json:"perf"`
}

// ScenarioBaseline pins one scenario's expected outcome.
type ScenarioBaseline struct {
	Name    string             `json:"name"`
	About   string             `json:"about,omitempty"`
	Digest  string             `json:"digest"`
	Metrics map[string]float64 `json:"metrics"`
}

// PerfBaseline is the wall-clock guard.
type PerfBaseline struct {
	// MinSimPktsPerSec is the conservative throughput floor: the gate
	// replays the first constant-rate scenario and requires simulated
	// packets per wall second to stay above it. -update records
	// measured/8.
	MinSimPktsPerSec float64 `json:"min_sim_pkts_per_sec"`
	// MeasuredSimPktsPerSec records the throughput observed at refresh
	// time, for human context only; the gate never compares against it.
	MeasuredSimPktsPerSec float64 `json:"measured_sim_pkts_per_sec,omitempty"`
}

func main() {
	baselinesPath := flag.String("baselines", "baselines.json", "committed baseline file")
	update := flag.Bool("update", false, "regenerate the baseline file from the current build")
	skipPerf := flag.Bool("skip-perf", false, "skip the wall-clock throughput floor")
	domains := flag.Int("domains", 4, "time domains for the fleet parallel and traced checks (0 skips them)")
	summary := flag.String("summary", "", "write a plain-text check summary to FILE (for CI artifacts)")
	verbose := flag.Bool("v", false, "print every check, not just failures")
	flag.Parse()

	reports, err := runScenarios()
	if err != nil {
		fatal(err)
	}
	traced, err := measureTraced()
	if err != nil {
		fatal(err)
	}
	var ftr FleetTracedResult
	if *domains > 0 && !*update {
		ftr, err = measureFleetTraced(*domains)
		if err != nil {
			fatal(err)
		}
	}
	allocs := measureAllocs()
	var perf float64
	if !*skipPerf || *update {
		perf = measurePerf()
	}

	if *update {
		b := buildBaselines(reports, allocs, perf)
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*baselinesPath, data, 0o644); err != nil {
			fatal(err)
		}
		//wirelint:allow determinism perf floor is wall-clock by design; it gates throughput, never golden digests
		fmt.Printf("ci-gate: wrote %s (%d scenarios, %d alloc budgets, perf floor %.0f pkts/s)\n",
			*baselinesPath, len(b.Scenarios), len(b.Allocs), b.Perf.MinSimPktsPerSec)
		return
	}

	data, err := os.ReadFile(*baselinesPath)
	if err != nil {
		fatal(fmt.Errorf("reading baselines (run `go run ./cmd/ci-gate -update` to create them): %w", err))
	}
	var base Baselines
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *baselinesPath, err))
	}

	failures, checks := compare(base, reports, traced, ftr, allocs, perf, *skipPerf)
	if *summary != "" {
		//wirelint:allow determinism perf floor is wall-clock by design; it gates throughput, never golden digests
		if err := writeSummary(*summary, *domains, checks, failures); err != nil {
			fatal(err)
		}
	}
	if *verbose {
		for _, c := range checks {
			//wirelint:allow determinism perf floor is wall-clock by design; it gates throughput, never golden digests
			fmt.Println("  ok:", c)
		}
	}
	if len(failures) > 0 {
		fmt.Printf("ci-gate: %d regression(s) against %s:\n", len(failures), *baselinesPath)
		for _, f := range failures {
			//wirelint:allow determinism perf floor is wall-clock by design; it gates throughput, never golden digests
			fmt.Println("  FAIL:", f)
		}
		fmt.Println("If the change is intentional, refresh with `go run ./cmd/ci-gate -update` and commit baselines.json.")
		os.Exit(1)
	}
	fmt.Printf("ci-gate: %d checks passed (%d scenarios, %d alloc budgets%s)\n",
		len(checks), len(reports), len(base.Allocs),
		map[bool]string{true: ", perf skipped", false: ", perf floor"}[*skipPerf])
}

// writeSummary records every check's verdict in a plain-text file CI
// uploads as an artifact, so a failed gate run is diagnosable from the
// artifact alone. Failed checks lead; the full pass list follows.
func writeSummary(path string, domains int, checks, failures []string) error {
	var buf bytes.Buffer
	verdict := "PASS"
	if len(failures) > 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(&buf, "ci-gate %s: %d checks, %d failure(s), domains=%d\n",
		verdict, len(checks), len(failures), domains)
	for _, f := range failures {
		fmt.Fprintf(&buf, "FAIL %s\n", f)
	}
	for _, c := range checks {
		fmt.Fprintf(&buf, "ok   %s\n", c)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func runScenarios() ([]bench.RunReport, error) {
	scenarios := bench.CIScenarios()
	reports := make([]bench.RunReport, 0, len(scenarios))
	for _, sc := range scenarios {
		rep, err := sc.Report()
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// tracedScenario is the scenario the traced-stability probe replays
// with the flight recorder attached.
const tracedScenario = "chaos_queue_hang"

// TracedResult is the traced-stability probe's outcome.
type TracedResult struct {
	// Digest is the first traced run's report digest; it must equal the
	// scenario's committed (untraced) baseline digest.
	Digest string
	// Stable is whether two traced runs exported byte-identical Chrome
	// trace JSON.
	Stable bool
}

// measureTraced runs tracedScenario twice with a fresh flight recorder
// each time and compares the exports.
func measureTraced() (TracedResult, error) {
	sc, ok := bench.ScenarioByName(tracedScenario)
	if !ok {
		return TracedResult{}, fmt.Errorf("traced scenario %s not in CIScenarios", tracedScenario)
	}
	run := func() (string, []byte, error) {
		rec := bench.NewRecorder()
		rep, err := sc.RunTraced(rec)
		if err != nil {
			return "", nil, err
		}
		var buf bytes.Buffer
		record := rec.Record(tracedScenario, rep.EndNs)
		if err := record.WriteChrome(&buf); err != nil {
			return "", nil, err
		}
		return rep.Digest(), buf.Bytes(), nil
	}
	da, ea, err := run()
	if err != nil {
		return TracedResult{}, err
	}
	db, eb, err := run()
	if err != nil {
		return TracedResult{}, err
	}
	return TracedResult{Digest: da, Stable: da == db && bytes.Equal(ea, eb)}, nil
}

// FleetTracedScenario is one fleet scenario's traced-observability
// outcome.
type FleetTracedScenario struct {
	// Digest is the traced run's report digest; it must equal the
	// scenario's committed (untraced) baseline digest.
	Digest string
	// Stable is whether the 1-domain and n-domain traced runs agreed on
	// the report digest and exported byte-identical journey dumps,
	// Chrome traces, and health series.
	Stable bool
	// LedgerErr is the forensics-ledger re-derivation's verdict: nil
	// when the ledger partitions the RunReport books exactly.
	LedgerErr error
	// ParallelDigest is the digest of the untraced run at n domains; it
	// must equal the committed baseline digest.
	ParallelDigest string
}

// FleetTracedResult maps fleet scenario name to its traced outcome.
type FleetTracedResult struct {
	Domains   int
	Scenarios map[string]FleetTracedScenario
}

// measureFleetTraced re-runs every fleet scenario with the fleet
// observability plane attached (journeys, health lanes, forensics
// ledger), at 1 time domain and again at n, and renders every artifact
// both times; then once more untraced at n domains.
func measureFleetTraced(n int) (FleetTracedResult, error) {
	res := FleetTracedResult{Domains: n, Scenarios: make(map[string]FleetTracedScenario)}
	for _, sc := range bench.CIScenarios() {
		if sc.TracedRecord == nil {
			continue
		}
		rep1, rec1, err := sc.TracedRecord(0)
		if err != nil {
			return res, fmt.Errorf("fleet traced %s: %w", sc.Name, err)
		}
		repN, recN, err := sc.TracedRecord(n)
		if err != nil {
			return res, fmt.Errorf("fleet traced %s at %d domains: %w", sc.Name, n, err)
		}
		stable := rep1.Digest() == repN.Digest()
		renders := []func(*bytes.Buffer, *obs.Record) error{
			func(b *bytes.Buffer, r *obs.Record) error { return r.WriteJourneys(b) },
			func(b *bytes.Buffer, r *obs.Record) error { return r.WriteChrome(b) },
			func(b *bytes.Buffer, r *obs.Record) error { return obs.WriteHealth(b, r.Health) },
		}
		for _, render := range renders {
			var b1, bn bytes.Buffer
			if err := render(&b1, &rec1); err != nil {
				return res, fmt.Errorf("fleet traced %s: %w", sc.Name, err)
			}
			if err := render(&bn, &recN); err != nil {
				return res, fmt.Errorf("fleet traced %s: %w", sc.Name, err)
			}
			stable = stable && bytes.Equal(b1.Bytes(), bn.Bytes())
		}
		par, err := sc.RunDomains(n)
		if err != nil {
			return res, fmt.Errorf("scenario %s at %d domains: %w", sc.Name, n, err)
		}
		res.Scenarios[sc.Name] = FleetTracedScenario{
			Digest:         rep1.Digest(),
			Stable:         stable,
			LedgerErr:      fleetLedgerCheck(rep1, &rec1),
			ParallelDigest: par.Digest(),
		}
	}
	return res, nil
}

// fleetLedgerCheck re-derives the fleet conservation equation from the
// merged flight record alone and compares it against the flattened
// RunReport books: per host, the three aggregation-plane loss causes
// must sum to that host's delivery drops and the two capture-side
// causes to its capture drops; fleet-wide, the loss causes must sum
// exactly to received − delivered. fleet.Run asserts the same equality
// against its own books — re-deriving it here from the committed report
// shape keeps the gate honest even if that layer changes.
func fleetLedgerCheck(rep bench.RunReport, rec *obs.Record) error {
	led := rec.FleetLedger(0)
	for h, q := range rep.PerQueue {
		lost := obs.SumCause(led, obs.DropHostLostCrash, h) +
			obs.SumCause(led, obs.DropInFlightHeadDrop, h) +
			obs.SumCause(led, obs.DropStalenessReject, h)
		if lost != q.DeliveryDrops {
			return fmt.Errorf("host %d: ledger loss causes sum to %d, books say delivery drops %d",
				h, lost, q.DeliveryDrops)
		}
		shed := obs.SumCause(led, obs.DropHostBrownoutShed, h) +
			obs.SumCause(led, obs.DropLink, h)
		if shed != q.CaptureDrops {
			return fmt.Errorf("host %d: ledger capture causes sum to %d, books say capture drops %d",
				h, shed, q.CaptureDrops)
		}
	}
	lost := obs.SumCause(led, obs.DropHostLostCrash, -1) +
		obs.SumCause(led, obs.DropInFlightHeadDrop, -1) +
		obs.SumCause(led, obs.DropStalenessReject, -1)
	if want := rep.Totals.Received - rep.Totals.Delivered; lost != want {
		return fmt.Errorf("fleet: ledger loss causes sum to %d, received-delivered = %d", lost, want)
	}
	return nil
}

// buildBaselines snapshots the current build's behavior. Alloc budgets
// are committed exactly as measured (the hot paths are zero-allocation
// by design, so any budget > 0 is already meaningful); the perf floor
// is measured/8 so only order-of-magnitude slowdowns fail.
func buildBaselines(reports []bench.RunReport, allocs map[string]float64, perf float64) Baselines {
	b := Baselines{
		Comment: "Committed regression-gate state. Refresh after intentional behavior changes with: go run ./cmd/ci-gate -update (then commit the diff).",
		Allocs:  allocs,
		Perf: PerfBaseline{
			MinSimPktsPerSec:      math.Floor(perf / 8),
			MeasuredSimPktsPerSec: math.Floor(perf),
		},
	}
	scenarios := bench.CIScenarios()
	for i, rep := range reports {
		b.Scenarios = append(b.Scenarios, ScenarioBaseline{
			Name:    rep.Scenario,
			About:   scenarios[i].About,
			Digest:  rep.Digest(),
			Metrics: rep.KeyMetrics(),
		})
	}
	return b
}

// compare returns human-readable failure lines and the names of all
// checks performed. Deterministic metrics are compared exactly; alloc
// budgets as measured <= budget; perf as measured >= floor.
func compare(base Baselines, reports []bench.RunReport, traced TracedResult, ftr FleetTracedResult, allocs map[string]float64, perf float64, skipPerf bool) (failures, checks []string) {
	byName := make(map[string]bench.RunReport, len(reports))
	for _, rep := range reports {
		byName[rep.Scenario] = rep
	}
	for _, sb := range base.Scenarios {
		rep, ok := byName[sb.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("scenario %s: in baseline but not produced by this build", sb.Name))
			continue
		}
		delete(byName, sb.Name)
		checks = append(checks, "digest "+sb.Name)
		if d := rep.Digest(); d != sb.Digest {
			failures = append(failures, fmt.Sprintf("scenario %s: report digest %s != baseline %s (%s)",
				sb.Name, d, sb.Digest, sb.About))
		}
		cur := rep.KeyMetrics()
		names := make([]string, 0, len(sb.Metrics))
		for name := range sb.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			want := sb.Metrics[name]
			got, ok := cur[name]
			checks = append(checks, fmt.Sprintf("metric %s/%s", sb.Name, name))
			if !ok {
				failures = append(failures, fmt.Sprintf("scenario %s: metric %s missing (baseline %g)", sb.Name, name, want))
				continue
			}
			if got != want {
				failures = append(failures, fmt.Sprintf("scenario %s: metric %s = %g, baseline %g (delta %+g)",
					sb.Name, name, got, want, got-want))
			}
		}
	}
	leftovers := make([]string, 0, len(byName))
	for name := range byName {
		leftovers = append(leftovers, name)
	}
	sort.Strings(leftovers)
	for _, name := range leftovers {
		failures = append(failures, fmt.Sprintf("scenario %s: produced by this build but missing from baseline (refresh with -update)", name))
	}

	// Fleet resilience: the fleet_chaos_* reports must balance their loss
	// books exactly and clear the delivery floor. The fleet runtime and
	// the bench flattening each assert this internally; re-deriving it
	// here from the committed RunReport shape keeps the gate honest even
	// if those layers change.
	for _, rep := range reports {
		if !isFleet(rep.Scenario) {
			continue
		}
		t := rep.Totals
		checks = append(checks, "fleet conservation "+rep.Scenario)
		if t.Received != t.Delivered+t.DeliveryDrops || rep.Sent != t.Received+t.CaptureDrops {
			failures = append(failures, fmt.Sprintf(
				"fleet %s: books unbalanced: sent %d, received %d, delivered %d, capture drops %d, delivery drops %d",
				rep.Scenario, rep.Sent, t.Received, t.Delivered, t.CaptureDrops, t.DeliveryDrops))
		}
		checks = append(checks, "fleet delivery "+rep.Scenario)
		if rep.Sent > 0 {
			if got := float64(t.Delivered) / float64(rep.Sent); got < bench.FleetDeliveryFloor {
				failures = append(failures, fmt.Sprintf(
					"fleet %s: delivery %.4f below floor %.2f", rep.Scenario, got, bench.FleetDeliveryFloor))
			}
		}
	}

	budgets := make([]string, 0, len(base.Allocs))
	for name := range base.Allocs {
		budgets = append(budgets, name)
	}
	sort.Strings(budgets)
	for _, name := range budgets {
		budget := base.Allocs[name]
		got, ok := allocs[name]
		checks = append(checks, "allocs "+name)
		if !ok {
			failures = append(failures, fmt.Sprintf("allocs %s: check not implemented in this build (baseline %g)", name, budget))
			continue
		}
		if got > budget {
			failures = append(failures, fmt.Sprintf("allocs %s: %g allocs/op exceeds budget %g", name, got, budget))
		}
	}

	for _, sb := range base.Scenarios {
		if sb.Name != tracedScenario {
			continue
		}
		checks = append(checks, "traced digest "+tracedScenario)
		if traced.Digest != sb.Digest {
			failures = append(failures, fmt.Sprintf(
				"traced %s: digest %s != baseline %s (the flight recorder perturbed the run)",
				tracedScenario, traced.Digest, sb.Digest))
		}
		checks = append(checks, "traced export determinism")
		if !traced.Stable {
			failures = append(failures, fmt.Sprintf(
				"traced %s: two seeded runs exported different Chrome traces", tracedScenario))
		}
	}

	for _, sb := range base.Scenarios {
		ft, ok := ftr.Scenarios[sb.Name]
		if ftr.Domains > 0 && isFleet(sb.Name) {
			checks = append(checks, fmt.Sprintf("domains=%d digest %s", ftr.Domains, sb.Name))
			switch {
			case ft.ParallelDigest == "":
				failures = append(failures, fmt.Sprintf(
					"domains=%d %s: scenario not produced by the parallel family", ftr.Domains, sb.Name))
			case ft.ParallelDigest != sb.Digest:
				failures = append(failures, fmt.Sprintf(
					"domains=%d %s: digest %s != baseline %s (the parallel executive changed the run)",
					ftr.Domains, sb.Name, ft.ParallelDigest, sb.Digest))
			}
		}
		if !ok {
			continue
		}
		checks = append(checks, "fleet traced digest "+sb.Name)
		if ft.Digest != sb.Digest {
			failures = append(failures, fmt.Sprintf(
				"fleet traced %s: digest %s != baseline %s (the observability plane perturbed the run)",
				sb.Name, ft.Digest, sb.Digest))
		}
		checks = append(checks, fmt.Sprintf("fleet traced domains=%d exports %s", ftr.Domains, sb.Name))
		if !ft.Stable {
			failures = append(failures, fmt.Sprintf(
				"fleet traced %s: journey dump / Chrome export / health series differ between 1 and %d domains",
				sb.Name, ftr.Domains))
		}
		checks = append(checks, "fleet forensics ledger "+sb.Name)
		if ft.LedgerErr != nil {
			failures = append(failures, fmt.Sprintf(
				"fleet traced %s: forensics ledger not a partition: %v", sb.Name, ft.LedgerErr))
		}
	}

	if !skipPerf && base.Perf.MinSimPktsPerSec > 0 {
		checks = append(checks, "perf floor")
		if perf < base.Perf.MinSimPktsPerSec {
			failures = append(failures, fmt.Sprintf("perf: %.0f simulated pkts per wall second below floor %.0f",
				perf, base.Perf.MinSimPktsPerSec))
		}
	}
	return failures, checks
}

// isFleet reports whether a scenario is one of the multi-host fleet
// runs, the only scenarios with a parallel form.
func isFleet(name string) bool { return strings.HasPrefix(name, "fleet_chaos_") }

// measurePerf times one constant-rate WireCAP run and reports simulated
// packets per wall-clock second.
func measurePerf() float64 {
	const packets = 200_000
	sw := walltime.Start()
	_, err := bench.RunConstant(bench.ConstantRun{
		Spec: bench.WireCAPB(256, 100), Packets: packets, X: 300, Seed: 7,
	})
	if err != nil {
		fatal(err)
	}
	return packets / sw.Seconds()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ci-gate:", err)
	os.Exit(2)
}
