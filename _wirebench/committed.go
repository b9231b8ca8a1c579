package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// counts are per-layer event counts, keyed by metric name. They are
// deterministic per workload and seed.
type counts map[string]float64

// firstDiff names the first key, in sorted order, on which c and o
// differ, or returns "" when they agree. A key missing on one side
// reads as 0.
func (c counts) firstDiff(o counts) string {
	keys := make([]string, 0, len(c)+len(o))
	for k := range c {
		keys = append(keys, k)
	}
	for k := range o {
		if _, ok := c[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if c[k] != o[k] {
			return fmt.Sprintf("%s: got %v, want %v", k, c[k], o[k])
		}
	}
	return ""
}

// committedRun is the expected outcome of one workload at one seed. Key
// metrics are the report's flattened headline numbers; they let a digest
// mismatch name what moved.
type committedRun struct {
	Digest     string `json:"digest"`
	Counts     counts `json:"counts"`
	KeyMetrics counts `json:"key_metrics"`
}

// committedSet maps workload -> seed -> expected outcome.
type committedSet map[string]map[string]committedRun

//go:embed committed.json
var committedJSON []byte

func loadCommitted() (committedSet, error) {
	var set committedSet
	if err := json.Unmarshal(committedJSON, &set); err != nil {
		return nil, fmt.Errorf("committed.json: %w", err)
	}
	return set, nil
}

// lookup returns the committed outcome for a workload and seed, if any.
func (s committedSet) lookup(workload string, seed uint64) (committedRun, bool) {
	run, ok := s[workload][strconv.FormatUint(seed, 10)]
	return run, ok
}

// check compares a run against its committed outcome: counts first, so a
// mismatch names the diverging layer, then the key metrics, then the
// digest.
func (c committedRun) check(got committedRun) error {
	if d := got.Counts.firstDiff(c.Counts); d != "" {
		return fmt.Errorf("count differs from committed.json: %s", d)
	}
	if d := got.KeyMetrics.firstDiff(c.KeyMetrics); d != "" {
		return fmt.Errorf("key metric differs from committed.json: %s", d)
	}
	if got.Digest != c.Digest {
		return fmt.Errorf("digest %s differs from committed %s with every count and key metric equal", got.Digest, c.Digest)
	}
	return nil
}

// committedSeeds is how many seeds, from 0, committed.json covers.
const committedSeeds = 64

// writeCommitted regenerates committed.json for every workload and
// seed below committedSeeds. Each entry comes from the reference entry point (bench.Run*,
// or fleet.Run at one domain), never from the composed runs it checks.
func writeCommitted(path string) error {
	set := committedSet{}
	for _, wl := range workloads {
		name := wl.Name
		set[name] = map[string]committedRun{}
		for seed := uint64(0); seed < committedSeeds; seed++ {
			run, err := referenceOutcome(name, seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			set[name][strconv.FormatUint(seed, 10)] = run
		}
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// referenceOutcome computes a workload's expected outcome at a seed.
func referenceOutcome(name string, seed uint64) (committedRun, error) {
	if name == "fleet_storm" {
		rep, err := runFleet(fleetStorm(seed, fleetPackets, 1))
		if err != nil {
			return committedRun{}, err
		}
		return fleetOutcome(rep), nil
	}
	w, err := newHostWorkload(name, seed)
	if err != nil {
		return committedRun{}, err
	}
	rep, err := w.reference()
	if err != nil {
		return committedRun{}, err
	}
	return hostOutcome(rep), nil
}
