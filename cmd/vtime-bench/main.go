// Command vtime-bench measures the simulation engine's hot paths and
// writes the results to BENCH_vtime.json: scheduler microbenchmarks
// (schedule, cancel, and the self-rescheduling schedule+step cycle, each
// against one million pending events), an end-to-end wall-clock run of
// bench.RunConstant, and the pdes_scaling family: an eight-host fleet.Run
// under the parallel discrete-event executive at 1/2/4/8 time domains
// (plus a chaos variant), whose entries carry the run digest and the
// measuring machine's GOMAXPROCS. Scheduler entries carry the
// corresponding measurement taken at the container/heap-based scheduler
// this engine replaced, so the file documents the before/after directly.
//
// Usage:
//
//	vtime-bench [-o BENCH_vtime.json]
//	vtime-bench -check [-baseline BENCH_vtime.json] [-tolerance 4.0]
//	vtime-bench -only NAME [-cpuprofile FILE] [-check]
//
// -check is the CI mode: instead of overwriting the committed file it
// re-measures and compares against it read-only — allocs/op must not
// exceed the committed value beyond a 1% jitter allowance, ns/op must
// stay within the tolerance factor (wall-clock-safe: only
// order-of-magnitude slowdowns fail at the default 4.0x), and without
// -only every committed entry must still be measured. Exit status 1 on
// regression.
//
// -only NAME measures a single entry and prints it without writing the
// output file; with -cpuprofile FILE it also writes a CPU profile of
// that entry's measurement, for `go tool pprof`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/vtime"
)

// baseline holds the same benchmarks measured at the pre-rewrite revision
// (container/heap scheduler, per-event closure allocation), on the same
// class of host this tool runs on. They are retained here so regenerating
// the JSON keeps the before/after comparison.
var baseline = map[string]Entry{
	"schedule_1m_pending":      {NsPerOp: 347.5, AllocsPerOp: 1, BytesPerOp: 57},
	"cancel_1m_pending":        {NsPerOp: 150.4, AllocsPerOp: 1, BytesPerOp: 48},
	"schedule_step_1m_pending": {NsPerOp: 472.8, AllocsPerOp: 1, BytesPerOp: 47},
	"run_constant_200k":        {NsPerOp: 129.28e6, SimPktsPerSec: 1_547_001},
}

// Entry is one benchmark measurement.
type Entry struct {
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	SimPktsPerSec float64 `json:"sim_pkts_per_sec,omitempty"`
	// Digest is the run's deterministic report digest (pdes_scaling
	// entries only). Unlike wall-clock numbers it is machine-independent,
	// so -check compares it exactly — both against the committed value
	// and across domain counts.
	Digest string `json:"digest,omitempty"`
	// GoMaxProcs and NumCPU record the machine every entry was measured
	// on: wall-clock numbers, scaling above all, are only meaningful
	// relative to it, and the -check pdes speedup gate is waived below 4
	// CPUs.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"num_cpu,omitempty"`
	// Tolerance, when > 0, overrides the global -tolerance factor for
	// this entry in -check mode. Families whose wall-clock noise differs
	// structurally (tight microbench loops vs goroutine fan-out) commit
	// their own window instead of sharing one fixed 4x band.
	Tolerance float64 `json:"tolerance,omitempty"`
}

// Record pairs a current measurement with its pre-rewrite baseline.
type Record struct {
	Name     string  `json:"name"`
	Current  Entry   `json:"current"`
	Baseline Entry   `json:"baseline"`
	Speedup  float64 `json:"speedup"`
}

const pendingEvents = 1_000_000

func fill(s *vtime.Scheduler, n int) {
	nop := func() {}
	r := vtime.NewRand(1)
	for i := 0; i < n; i++ {
		s.At(vtime.Time(1+r.Intn(1<<30)), nop)
	}
}

func benchSchedule(b *testing.B) {
	s := vtime.NewScheduler()
	fill(s, pendingEvents)
	nop := func() {}
	r := vtime.NewRand(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+vtime.Time(1+r.Intn(1<<30)), nop)
		if s.Pending() >= 2*pendingEvents {
			b.StopTimer()
			for s.Pending() > pendingEvents {
				s.Step()
			}
			b.StartTimer()
		}
	}
}

func benchCancel(b *testing.B) {
	s := vtime.NewScheduler()
	fill(s, pendingEvents)
	nop := func() {}
	r := vtime.NewRand(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := s.At(s.Now()+vtime.Time(1+r.Intn(1<<30)), nop)
		if !s.Cancel(id) {
			b.Fatal("cancel failed")
		}
	}
}

func benchScheduleStep(b *testing.B) {
	s := vtime.NewScheduler()
	fill(s, pendingEvents)
	var tick func()
	tick = func() { s.At(s.Now()+1, tick) }
	s.At(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

const runConstantPackets = 200_000

func benchRunConstant(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunConstant(bench.ConstantRun{
			Spec: bench.WireCAPB(256, 100), Packets: runConstantPackets, X: 0, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Sent != runConstantPackets {
			b.Fatalf("sent %d packets, want %d", res.Sent, runConstantPackets)
		}
	}
}

// ---- pdes_scaling: the parallel executive over fleet.Run ----
//
// Eight capture hosts tap one shared wire and feed the aggregation
// plane over the cross-domain mailbox fabric; the chaos variant adds a
// host kill, a crash-restart and an aggregation-link flap so failover,
// re-steering and readmission are on the measured path. The same fleet
// runs at every domain count — only placement changes — so the digests
// must match across entries, which -check enforces alongside the
// committed values.

const fleetPackets = 160_000

// pdesTolerance is the committed -check window for the pdes_scaling
// family (see Entry.Tolerance).
const pdesTolerance = 8.0

// fleetRun is the fleet configuration of one pdes_scaling entry. The
// chaos storm sits at fixed fractions of the run (at the default 1 Mp/s
// offered rate): a permanent host kill at 25%, a crash at 45% that
// restarts 20% of the run later, and a link flap at 65%.
func fleetRun(domains int, chaos bool) fleet.Config {
	cfg := fleet.Config{
		Hosts: 8, Packets: fleetPackets, Flows: 4096, Seed: 41,
		Domains: domains, Workers: domains,
	}
	if chaos {
		dur := vtime.Time(fleetPackets) * vtime.Microsecond
		at := func(pct int64) vtime.Time { return dur * vtime.Time(pct) / 100 }
		cfg.Faults = faults.Schedule{
			{Kind: faults.HostCrash, NIC: 1, At: at(25)},
			{Kind: faults.HostCrash, NIC: 4, At: at(45), Dur: at(20)},
			{Kind: faults.AggLinkDown, NIC: 2, At: at(65), Dur: 600 * vtime.Microsecond},
		}
	}
	return cfg
}

// measurePDES benchmarks one fleet configuration and stamps the entry
// with the run's digest. The
// fleet scenario name is constant per family — never derived from the
// entry name — because it is embedded in every report the digest
// covers; encoding the domain count there would make the cross-entry
// digest comparison fail by construction.
func measurePDES(name string, domains int, chaos bool) Record {
	scenario := "pdes_fleet_constant"
	if chaos {
		scenario = "pdes_fleet_chaos"
	}
	var digest string
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := fleet.Run(scenario, fleetRun(domains, chaos))
			if err != nil {
				b.Fatal(err)
			}
			digest = res.Report.Digest()
		}
	})
	cur := Entry{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Digest:      digest,
		// Goroutine fan-out makes these entries the noisiest family in
		// the file; their exact regression signal is the digest.
		Tolerance: pdesTolerance,
	}
	cur.SimPktsPerSec = fleetPackets / (cur.NsPerOp / 1e9)
	return Record{Name: name, Current: cur}
}

func pdesEntries() []entry {
	var es []entry
	for _, p := range []struct {
		name    string
		domains int
		chaos   bool
	}{
		{"pdes_scaling_constant_d1", 1, false},
		{"pdes_scaling_constant_d2", 2, false},
		{"pdes_scaling_constant_d4", 4, false},
		{"pdes_scaling_constant_d8", 8, false},
		{"pdes_scaling_chaos_d1", 1, true},
		{"pdes_scaling_chaos_d4", 4, true},
	} {
		es = append(es, entry{p.name, func() Record { return measurePDES(p.name, p.domains, p.chaos) }})
	}
	return es
}

func measure(name string, fn func(*testing.B)) Record {
	r := testing.Benchmark(fn)
	cur := Entry{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if name == "run_constant_200k" {
		cur.SimPktsPerSec = runConstantPackets / (cur.NsPerOp / 1e9)
	}
	base := baseline[name]
	rec := Record{Name: name, Current: cur, Baseline: base}
	if cur.NsPerOp > 0 && base.NsPerOp > 0 {
		rec.Speedup = base.NsPerOp / cur.NsPerOp
	}
	return rec
}

// entry is one named measurement; run performs it.
type entry struct {
	name string
	run  func() Record
}

func microEntry(name string, fn func(*testing.B)) entry {
	return entry{name, func() Record { return measure(name, fn) }}
}

// entries lists every measurement in the order BENCH_vtime.json holds
// them.
func entries() []entry {
	es := []entry{
		microEntry("schedule_1m_pending", benchSchedule),
		microEntry("cancel_1m_pending", benchCancel),
		microEntry("schedule_step_1m_pending", benchScheduleStep),
		microEntry("run_constant_200k", benchRunConstant),
	}
	es = append(es, filterPathEntries()...)
	return append(es, pdesEntries()...)
}

// selectEntries returns the entry called only, or every entry when only
// is empty.
func selectEntries(all []entry, only string) ([]entry, error) {
	if only == "" {
		return all, nil
	}
	names := make([]string, len(all))
	for i, e := range all {
		if e.name == only {
			return []entry{e}, nil
		}
		names[i] = e.name
	}
	return nil, fmt.Errorf("unknown entry %q; valid: %s", only, strings.Join(names, ", "))
}

// benchDoc is the file layout of BENCH_vtime.json.
type benchDoc struct {
	Note    string   `json:"note"`
	Results []Record `json:"results"`
}

// check compares fresh measurements against the committed file without
// touching it. Allocations are deterministic up to runtime jitter, so
// any increase beyond allocBudget fails; ns/op is wall-clock and noisy,
// so it only fails beyond tolerance×. When all is set the records are
// the full run, and a committed entry none of them measured — a retired
// benchmark whose committed numbers would otherwise linger unchecked —
// fails too.
func check(records []Record, committedPath string, tolerance float64, all bool) int {
	data, err := os.ReadFile(committedPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vtime-bench:", err)
		return 2
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		fmt.Fprintf(os.Stderr, "vtime-bench: parsing %s: %v\n", committedPath, err)
		return 2
	}
	committed := make(map[string]Entry, len(doc.Results))
	for _, r := range doc.Results {
		committed[r.Name] = r.Current
	}
	status := 0
	if all {
		measured := make(map[string]bool, len(records))
		for _, r := range records {
			measured[r.Name] = true
		}
		for _, r := range doc.Results {
			if !measured[r.Name] {
				fmt.Printf("FAIL %-26s in %s but no longer measured (regenerate with -o)\n", r.Name, committedPath)
				status = 1
			}
		}
	}
	for _, r := range records {
		want, ok := committed[r.Name]
		if !ok {
			fmt.Printf("FAIL %-26s not in %s (regenerate with -o)\n", r.Name, committedPath)
			status = 1
			continue
		}
		switch {
		case r.Current.AllocsPerOp > allocBudget(want.AllocsPerOp):
			fmt.Printf("FAIL %-26s %d allocs/op, committed %d\n",
				r.Name, r.Current.AllocsPerOp, want.AllocsPerOp)
			status = 1
		case want.Digest != "" && r.Current.Digest != want.Digest:
			fmt.Printf("FAIL %-26s digest %s, committed %s (determinism regression)\n",
				r.Name, r.Current.Digest, want.Digest)
			status = 1
		case want.NsPerOp > 0 && r.Current.NsPerOp > want.NsPerOp*tol(want, tolerance):
			fmt.Printf("FAIL %-26s %.1f ns/op exceeds committed %.1f x tolerance %.1f\n",
				r.Name, r.Current.NsPerOp, want.NsPerOp, tol(want, tolerance))
			status = 1
		default:
			fmt.Printf("ok   %-26s %12.1f ns/op  %3d allocs/op  (committed %12.1f, %d)\n",
				r.Name, r.Current.NsPerOp, r.Current.AllocsPerOp, want.NsPerOp, want.AllocsPerOp)
		}
	}
	if s := checkPDES(records); s > status {
		status = s
	}
	if s := checkFilterPath(records); s > status {
		status = s
	}
	if status == 1 {
		fmt.Printf("If intentional, regenerate with `go run ./cmd/vtime-bench -o %s` and commit the diff.\n", committedPath)
	}
	return status
}

// tol returns the entry's committed tolerance window, falling back to
// the global -tolerance flag.
func tol(e Entry, global float64) float64 {
	if e.Tolerance > 0 {
		return e.Tolerance
	}
	return global
}

// allocBudget is the allocation ceiling for a committed count: exact
// for zero-alloc entries (the hot-path guarantee), plus 1% headroom
// (minimum 2) otherwise — large runs jitter by a few allocations with
// runtime internals (stack growth, map rehash timing) that are not
// regressions.
func allocBudget(committed int64) int64 {
	if committed == 0 {
		return 0
	}
	slack := committed / 100
	if slack < 2 {
		slack = 2
	}
	return committed + slack
}

// checkPDES enforces the parallel-executive properties across the fresh
// pdes_scaling measurements themselves:
//
//   - Placement invariance, unconditionally: every domain count of a
//     family must produce the identical digest.
//   - Scaling, only where physics allows: with >= 4 usable CPUs the
//     4-domain constant fleet must run >= 2x faster than the 1-domain
//     one. On smaller machines the gate is waived (and says so) — the
//     digests still pin that the parallel path executed correctly.
func checkPDES(records []Record) int {
	byName := make(map[string]Entry, len(records))
	for _, r := range records {
		byName[r.Name] = r.Current
	}
	status := 0
	for _, family := range [][]string{
		{"pdes_scaling_constant_d1", "pdes_scaling_constant_d2", "pdes_scaling_constant_d4", "pdes_scaling_constant_d8"},
		{"pdes_scaling_chaos_d1", "pdes_scaling_chaos_d4"},
	} {
		ref, ok := byName[family[0]]
		if !ok {
			continue
		}
		for _, name := range family[1:] {
			e, ok := byName[name]
			if !ok {
				continue
			}
			if e.Digest != ref.Digest {
				fmt.Printf("FAIL %-26s digest %s != %s's %s (placement leaked into output)\n",
					name, e.Digest, family[0], ref.Digest)
				status = 1
			}
		}
	}
	d1, ok1 := byName["pdes_scaling_constant_d1"]
	d4, ok4 := byName["pdes_scaling_constant_d4"]
	if ok1 && ok4 {
		speedup := d1.NsPerOp / d4.NsPerOp
		switch {
		case runtime.NumCPU() < 4:
			fmt.Printf("skip pdes speedup gate: %d CPU(s) available, need >= 4 (measured %.2fx at 4 domains)\n",
				runtime.NumCPU(), speedup)
		case speedup < 2.0:
			fmt.Printf("FAIL pdes_scaling_constant_d4 speedup %.2fx over d1, want >= 2.0x on %d CPUs\n",
				speedup, runtime.NumCPU())
			status = 1
		default:
			fmt.Printf("ok   pdes speedup gate: %.2fx at 4 domains on %d CPUs\n", speedup, runtime.NumCPU())
		}
	}
	return status
}

func main() {
	out := flag.String("o", "BENCH_vtime.json", "output file (- for stdout)")
	checkMode := flag.Bool("check", false, "compare against the committed file instead of overwriting it")
	checkPath := flag.String("baseline", "BENCH_vtime.json", "committed file -check compares against")
	tolerance := flag.Float64("tolerance", 4.0, "allowed ns/op slowdown factor in -check mode")
	only := flag.String("only", "", "measure only the named entry and print it instead of writing -o")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the -only entry's measurement to `file`")
	flag.Parse()

	selected, err := selectEntries(entries(), *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vtime-bench:", err)
		os.Exit(2)
	}
	var prof *os.File
	if *cpuProfile != "" {
		if *only == "" {
			fmt.Fprintln(os.Stderr, "vtime-bench: -cpuprofile needs -only NAME")
			os.Exit(2)
		}
		if prof, err = os.Create(*cpuProfile); err == nil {
			err = pprof.StartCPUProfile(prof)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "vtime-bench:", err)
			os.Exit(2)
		}
	}
	records := make([]Record, 0, len(selected))
	for _, e := range selected {
		r := e.run()
		r.Current.GoMaxProcs = runtime.GOMAXPROCS(0)
		r.Current.NumCPU = runtime.NumCPU()
		records = append(records, r)
	}
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "vtime-bench:", err)
			os.Exit(1)
		}
	}
	if *checkMode {
		os.Exit(check(records, *checkPath, *tolerance, *only == ""))
	}
	if *only != "" {
		printRecords(records)
		return
	}
	doc := benchDoc{
		Note:    "generated by cmd/vtime-bench; baseline = container/heap scheduler before the allocation-free rewrite",
		Results: records,
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "vtime-bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "vtime-bench:", err)
		os.Exit(1)
	}
	printRecords(records)
}

func printRecords(records []Record) {
	for _, r := range records {
		fmt.Printf("%-26s %12.1f ns/op  %3d allocs/op  (baseline %12.1f ns/op, %.2fx)\n",
			r.Name, r.Current.NsPerOp, r.Current.AllocsPerOp, r.Baseline.NsPerOp, r.Speedup)
	}
}
