// Command wirebench is the repository benchmark: it runs one named
// workload of the WireCAP reproduction for a fixed wall-clock budget,
// checks every run's output, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics of a separate traced run) as one
// JSON object on the last line of standard output.
//
//	bash _wirebench/run.sh --workload border_analytics --seed 3 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// how to read the span files of a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// machine records what a run measured on; every output carries it.
type machine struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// runner is the state of one benchmark invocation.
type runner struct {
	m         machine
	budget    time.Duration
	committed committedRun
	hasCommit bool
	attempted int
	failed    int
	correct   bool
	metrics   map[string]metric
	store     spanStore
}

// check records one checked run: a nil error passes, anything else is a
// failed operation and is reported on standard error.
func (b *runner) check(what string, err error) bool {
	b.attempted++
	if err == nil {
		return true
	}
	b.failed++
	fmt.Fprintf(os.Stderr, "wirebench: %s: %v\n", what, err)
	return false
}

// fail marks the whole invocation incorrect (a reference or equivalence
// check failed) without counting a run.
func (b *runner) fail(format string, args ...any) {
	b.correct = false
	fmt.Fprintf(os.Stderr, "wirebench: "+format+"\n", args...)
}

func (b *runner) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	workload := flag.String("workload", "", "workload: wire_min64, border_analytics or fleet_storm")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", runSeconds, "wall-clock seconds to measure")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory the traced run writes its span file into")
	writeCommit := flag.String("write-committed", "", "regenerate the committed digests and counts into this file and exit")
	writeBench := flag.String("write-benchmark-json", "", "write the repository's BENCHMARK.json to this file and exit")
	flag.Parse()

	if *writeBench != "" {
		if err := writeBenchmarkJSON(*writeBench); err != nil {
			fmt.Fprintln(os.Stderr, "wirebench:", err)
			os.Exit(1)
		}
		return
	}

	if *writeCommit != "" {
		if err := writeCommitted(*writeCommit); err != nil {
			fmt.Fprintln(os.Stderr, "wirebench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, *seconds, *traceMode, *out); err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, traceMode int, out string) error {
	known := false
	for _, w := range workloads {
		known = known || w.Name == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want wire_min64, border_analytics or fleet_storm)", workload)
	}
	if seconds < 1 || traceMode < 0 || traceMode > 1 {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	set, err := loadCommitted()
	if err != nil {
		return err
	}
	b := &runner{
		m: machine{
			Workload: workload, Seed: seed, Seconds: seconds, Trace: traceMode,
			GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		},
		budget:  time.Duration(seconds) * time.Second,
		correct: true,
		metrics: map[string]metric{},
		store:   spanStore{limit: 1 << 16},
	}
	b.committed, b.hasCommit = set.lookup(workload, seed)
	mj, err := json.Marshal(b.m)
	if err != nil {
		return err
	}
	fmt.Printf("machine %s\n", mj)
	if !b.hasCommit {
		fmt.Printf("note: seed %d has no committed digest; runs are checked against the reference entry point only\n", seed)
	}

	if workload == "fleet_storm" {
		err = b.runFleet(seed, traceMode == 1)
	} else {
		err = b.runHost(workload, seed, traceMode == 1)
	}
	if err != nil {
		return err
	}
	if traceMode == 1 {
		path := filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.json", workload, seed))
		if err := writeSpans(path, b.m, &b.store); err != nil {
			return err
		}
		fmt.Printf("spans %s (%d spans)\n", path, len(b.store.spans))
	}

	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %16.6g %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	fmt.Printf("runs: %d attempted, %d failed\n", b.attempted, b.failed)
	res := result{
		Correct:   b.correct && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
