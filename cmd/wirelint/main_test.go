package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// sharedModule type-checks the module once per test binary. TestSelfLint
// and the first TestJSONByteDeterministic run analyze this one load.
var sharedModule = sync.OnceValues(func() (*lint.Module, error) {
	return lint.LoadModule("../..")
})

// runShared runs the command over sharedModule instead of a fresh load.
func runShared(argv []string, stdout, stderr io.Writer) int {
	defer func(prev func(string) (*lint.Module, error)) { loadModule = prev }(loadModule)
	loadModule = func(string) (*lint.Module, error) { return sharedModule() }
	return run(argv, stdout, stderr)
}

// TestJSONByteDeterministic pins the -json contract: two runs over the
// same tree produce identical bytes. Findings and the allow inventory
// are position-sorted by the runner and JSON map keys encode in sorted
// order, so any divergence means nondeterminism crept into the
// pipeline itself — the one place the determinism analyzer cannot
// check from the inside. The second run loads the module afresh, so
// the two outputs share no type-check state.
func TestJSONByteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module twice; skipped in -short")
	}
	runOnce := func(runner func([]string, io.Writer, io.Writer) int) []byte {
		var out, errb bytes.Buffer
		if code := runner([]string{"-root", "../..", "-json"}, &out, &errb); code != 0 {
			t.Fatalf("wirelint exited %d: %s", code, errb.String())
		}
		return out.Bytes()
	}
	a := runOnce(runShared)
	b := runOnce(run)
	if !bytes.Equal(a, b) {
		t.Fatalf("two -json runs differ:\nfirst %d bytes, second %d bytes", len(a), len(b))
	}
	var doc struct {
		Findings []json.RawMessage `json:"findings"`
		Summary  struct {
			Packages    int               `json:"packages"`
			Allowed     int               `json:"allowed"`
			AllowedList []json.RawMessage `json:"allowed_list"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.Findings) != 0 {
		t.Errorf("module has %d live findings; expected clean", len(doc.Findings))
	}
	if doc.Summary.Packages == 0 {
		t.Error("no packages analyzed")
	}
	// The full allow inventory rides along: every exception is visible
	// in the artifact CI uploads.
	if len(doc.Summary.AllowedList) != doc.Summary.Allowed {
		t.Errorf("allow inventory has %d entries, summary says %d",
			len(doc.Summary.AllowedList), doc.Summary.Allowed)
	}
}

// TestSelfLint pins the CI self-lint step: the analyzer package itself
// carries zero findings and zero allow directives.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	var out, errb bytes.Buffer
	code := runShared([]string{"-root", "../..", "-only", "internal/lint", "-noallow"}, &out, &errb)
	if code != 0 {
		t.Fatalf("self-lint over internal/lint exited %d:\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "0 findings, 0 allowlisted") {
		t.Fatalf("self-lint summary not clean:\n%s", out.String())
	}
}
