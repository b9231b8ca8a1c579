package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// writeCommitted writes records as a committed BENCH_vtime.json in a
// temp directory and returns its path.
func writeCommitted(t *testing.T, records ...Record) string {
	t.Helper()
	b, err := json.Marshal(benchDoc{Note: "test", Results: records})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_vtime.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func rec(name string, allocs int64, digest string) Record {
	return Record{Name: name, Current: Entry{NsPerOp: 1000, AllocsPerOp: allocs, Digest: digest}}
}

// TestCheckFailsOnUnmeasuredEntry: a committed entry the full run no
// longer measures is a retired benchmark and must fail -check; with
// -only, entries outside the selection are not expected.
func TestCheckFailsOnUnmeasuredEntry(t *testing.T) {
	path := writeCommitted(t, rec("schedule_1m_pending", 1, ""), rec("filter_path_retired", 0, "d"))
	measured := []Record{rec("schedule_1m_pending", 1, "")}
	if got := check(measured, path, 4.0, true); got != 1 {
		t.Errorf("full run missing a committed entry: status %d, want 1", got)
	}
	if got := check(measured, path, 4.0, false); got != 0 {
		t.Errorf("-only run: status %d, want 0", got)
	}
	all := append(measured, rec("filter_path_retired", 0, "d"))
	if got := check(all, path, 4.0, true); got != 0 {
		t.Errorf("full run measuring every committed entry: status %d, want 0", got)
	}
}

// TestCheckGatesPDESAllocations: pdes_scaling entries get the same
// allocation budget as every other entry.
func TestCheckGatesPDESAllocations(t *testing.T) {
	const committed = 15_300
	path := writeCommitted(t, rec("pdes_scaling_constant_d1", committed, "abc"))
	over := []Record{rec("pdes_scaling_constant_d1", allocBudget(committed)+1, "abc")}
	if got := check(over, path, 4.0, true); got != 1 {
		t.Errorf("pdes entry over its alloc budget: status %d, want 1", got)
	}
	within := []Record{rec("pdes_scaling_constant_d1", allocBudget(committed), "abc")}
	if got := check(within, path, 4.0, true); got != 0 {
		t.Errorf("pdes entry at its alloc budget: status %d, want 0", got)
	}
}
