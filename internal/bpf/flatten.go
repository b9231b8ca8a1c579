package bpf

// Compiled expression filters: the filter type every capture path
// runs. FlattenExpr first tries to fuse the expression into a
// straight-line Go predicate (fuse.go); shapes the fuser does not
// cover fall back to the VM interpreter (bpf.go) on the expression's
// compiled program. Eval (eval.go) stays the independent oracle both
// tiers are tested against.

import "fmt"

// FlatProgram is a compiled expression filter: a fused predicate when
// the shape allows, the VM otherwise. It is immutable once compiled and
// Run, Match and FilterChunk keep no state between calls, so one
// program may serve any number of packets and goroutines at once.
type FlatProgram struct {
	fused *fusedMatcher // non-nil: specialized straight-line predicate
	// fast is fused's shape-specialized predicate, hoisted here at
	// compile time so Run reaches it in one load instead of two.
	fast func([]byte) uint32
	vm   *VM // otherwise: the compiled program on the interpreter
}

// FlattenExpr compiles a parsed expression, fusing it into a
// straight-line Go predicate when the shape allows and running its
// compiled program on the VM otherwise. A nil expression matches
// everything (returns snaplen).
func FlattenExpr(e Expr, snaplen uint32) (*FlatProgram, error) {
	if snaplen == 0 {
		snaplen = DefaultSnapLen
	}
	if m, ok := fuseExpr(e, snaplen); ok {
		return &FlatProgram{fused: m, fast: m.fast}, nil
	}
	p, err := CompileExpr(e, snaplen)
	if err != nil {
		return nil, err
	}
	vm, err := NewVM(p)
	if err != nil {
		return nil, err
	}
	return &FlatProgram{vm: vm}, nil
}

// CompileFlat parses a filter expression and compiles it (fused
// predicate or VM).
func CompileFlat(expr string, snaplen uint32) (*FlatProgram, error) {
	e, err := Parse(expr)
	if err != nil {
		return nil, err
	}
	return FlattenExpr(e, snaplen)
}

// MustCompileFlat is CompileFlat, panicking on error.
func MustCompileFlat(expr string, snaplen uint32) *FlatProgram {
	f, err := CompileFlat(expr, snaplen)
	if err != nil {
		panic(fmt.Sprintf("bpf: compiling %q: %v", expr, err))
	}
	return f
}

// Fused reports whether the filter runs as a specialized straight-line
// predicate rather than on the VM.
func (f *FlatProgram) Fused() bool { return f.fused != nil }

// Len returns the compiled program's instruction count (0 for fused
// filters).
func (f *FlatProgram) Len() int {
	if f.vm == nil {
		return 0
	}
	return f.vm.Len()
}

// Run executes the filter over pkt and returns the snapshot length to
// accept (0 rejects), the same value VM.Run returns on the expression's
// compiled program. One exception: on a frame too short for a field a
// fused condition reads, the fused tier treats the condition as false
// where the VM rejects the packet outright (DESIGN.md §12).
//
//wirecap:hotpath
func (f *FlatProgram) Run(pkt []byte) uint32 {
	if f.fast != nil {
		return f.fast(pkt)
	}
	if m := f.fused; m != nil {
		return m.run(pkt)
	}
	return f.vm.Run(pkt)
}

// Match reports whether the filter accepts the packet.
//
//wirecap:hotpath
func (f *FlatProgram) Match(pkt []byte) bool { return f.Run(pkt) != 0 }
