package wirecap

import "repro/internal/bpf"

// Filter is a compiled BPF program usable standalone, the
// pcap_offline_filter analogue: IDS-style applications compile a rule set
// once and match captured packets against it in their callbacks. Common
// matchers run fused to native Go predicates and every other shape runs
// on the BPF interpreter; either way the filter also exposes a per-chunk
// batch entry point.
type Filter struct {
	flt  *bpf.FlatProgram
	expr string
}

// CompileFilter compiles a filter expression ("udp and net 131.225.2",
// "tcp port 80 or tcp port 443", ...) into an executable program.
func CompileFilter(expr string) (*Filter, error) {
	flt, err := bpf.CompileFlat(expr, 65535)
	if err != nil {
		return nil, err
	}
	return &Filter{flt: flt, expr: expr}, nil
}

// MustCompileFilter is CompileFilter for constant expressions; it panics
// on error.
func MustCompileFilter(expr string) *Filter {
	f, err := CompileFilter(expr)
	if err != nil {
		panic(err)
	}
	return f
}

// Match runs the program over a raw Ethernet frame.
func (f *Filter) Match(frame []byte) bool { return f.flt.Match(frame) }

// MatchBatch filters a batch of frames in one call, setting bit i of
// accept when frames[i] passes, and returns the accept count. accept
// must hold at least (len(frames)+63)/64 words; every word it touches
// is overwritten. This is the per-chunk fast path the engine itself
// uses for Options.BatchFilter.
func (f *Filter) MatchBatch(frames [][]byte, accept []uint64) int {
	return f.flt.FilterChunk(frames, accept)
}

// Flat exposes the compiled program for direct engine wiring.
func (f *Filter) Flat() *bpf.FlatProgram { return f.flt }

// String returns the source expression.
func (f *Filter) String() string { return f.expr }

// Disassemble renders the compiled program in tcpdump -d style.
func (f *Filter) Disassemble() string {
	prog, _ := bpf.Compile(f.expr, 65535)
	return bpf.Disassemble(prog)
}
