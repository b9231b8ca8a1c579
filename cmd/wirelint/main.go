// Command wirelint runs the repository's static-analysis suite
// (internal/lint) over the whole module and reports every live finding
// plus a summary of allowlisted exceptions with their reasons.
//
// Usage:
//
//	wirelint [-root dir] [-rules walltime,maporder,...] [-only path] [-noallow] [-json]
//
// -only restricts the report to findings and allowlisted exceptions in
// files under the given module-relative path prefix. -noallow treats
// allowlisted exceptions in scope as failures — the self-lint mode: CI
// runs `wirelint -only internal/lint -noallow` so the analyzers
// themselves stay finding-free without a single directive.
//
// The -json output is byte-deterministic for a given tree: findings
// and the allow inventory are sorted by position, and map keys encode
// in sorted order, so two runs produce identical bytes (pinned by a
// regression test).
//
// Exit status: 0 when clean, 1 when findings are live (or, with
// -noallow, exceptions are allowlisted in scope), 2 on load or
// analysis errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// loadModule is the loader run type-checks the module with. lint.Run
// only reads the Module, so tests swap in a memoized loader to let
// several runs over one tree share a single type-check.
var loadModule = lint.LoadModule

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wirelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "", "module root (default: nearest parent directory containing go.mod)")
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	only := fs.String("only", "", "restrict the report to files under this module-relative path prefix")
	noAllow := fs.Bool("noallow", false, "treat allowlisted exceptions in scope as failures (self-lint mode)")
	asJSON := fs.Bool("json", false, "emit findings and summary as JSON")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	dir := *root
	if dir == "" {
		var err error
		dir, err = findModuleRoot()
		if err != nil {
			fmt.Fprintf(stderr, "wirelint: %v\n", err)
			return 2
		}
	}

	azs, err := selectRules(*rules)
	if err != nil {
		fmt.Fprintf(stderr, "wirelint: %v\n", err)
		return 2
	}

	mod, err := loadModule(dir)
	if err != nil {
		fmt.Fprintf(stderr, "wirelint: %v\n", err)
		return 2
	}
	findings, sum, err := lint.Run(mod, azs)
	if err != nil {
		fmt.Fprintf(stderr, "wirelint: %v\n", err)
		return 2
	}
	if *only != "" {
		findings, sum = restrict(findings, sum, *only)
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Findings []lint.Finding `json:"findings"`
			Summary  lint.Summary   `json:"summary"`
		}{findings, sum}); err != nil {
			fmt.Fprintf(stderr, "wirelint: %v\n", err)
			return 2
		}
	} else {
		printReport(stdout, findings, sum)
	}
	if *noAllow && sum.Allowed > 0 {
		fmt.Fprintf(stderr, "wirelint: %d allowlisted exceptions in scope with -noallow\n", sum.Allowed)
		return 1
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// restrict narrows findings and the allow inventory to files under the
// given module-relative prefix, recomputing the summary counts so the
// report stays self-consistent.
func restrict(findings []lint.Finding, sum lint.Summary, prefix string) ([]lint.Finding, lint.Summary) {
	prefix = strings.TrimSuffix(filepath.ToSlash(prefix), "/")
	in := func(f lint.Finding) bool {
		file := filepath.ToSlash(f.File)
		return file == prefix || strings.HasPrefix(file, prefix+"/")
	}
	var live []lint.Finding
	for _, f := range findings {
		if in(f) {
			live = append(live, f)
		}
	}
	out := lint.Summary{
		Packages:      sum.Packages,
		ByRule:        make(map[string]int),
		AllowedByRule: make(map[string]int),
	}
	for _, f := range live {
		out.ByRule[f.Rule]++
	}
	for _, f := range sum.AllowedList {
		if in(f) {
			out.AllowedList = append(out.AllowedList, f)
			out.AllowedByRule[f.Rule]++
		}
	}
	out.Findings = len(live)
	out.Allowed = len(out.AllowedList)
	return live, out
}

func printReport(out io.Writer, findings []lint.Finding, sum lint.Summary) {
	for _, f := range findings {
		fmt.Fprintln(out, f)
	}
	fmt.Fprintf(out, "wirelint: %d packages, %d findings, %d allowlisted\n",
		sum.Packages, sum.Findings, sum.Allowed)
	for _, rule := range sortedKeys(sum.ByRule) {
		fmt.Fprintf(out, "  %-14s %d\n", rule, sum.ByRule[rule])
	}
	if sum.Allowed > 0 {
		fmt.Fprintln(out, "allowlisted exceptions:")
		for _, f := range sum.AllowedList {
			fmt.Fprintf(out, "  %s:%d [%s] %s\n", f.File, f.Line, f.Rule, f.Reason)
		}
	}
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func selectRules(csv string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if csv == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*lint.Analyzer
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			have := make([]string, len(all))
			for i, a := range all {
				have[i] = a.Name
			}
			return nil, fmt.Errorf("unknown rule %q (have: %s)", name, strings.Join(have, ", "))
		}
		picked = append(picked, a)
	}
	return picked, nil
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found in any parent of the working directory (use -root)")
		}
		dir = parent
	}
}
