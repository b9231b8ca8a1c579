package bpf

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// matcherCorpus is the set of filter expressions the fast path is
// specialized for: the shapes capture applications actually deploy.
// cmd/vtime-bench commits the interpreter-vs-compiled speedup over
// this corpus to BENCH_vtime.json.
var matcherCorpus = []string{
	"ip",
	"udp",
	"tcp",
	"udp and net 131.225.2",
	"tcp port 80 or tcp port 443",
	"src net 10.0.0.0/8 and dst port 53",
	"host 131.225.2.4",
	"udp dst port 53",
	"greater 128",
	"tcp and (port 80 or port 443) and net 131.225.0.0/16",
	"tcp port 80 or tcp port 443 or tcp port 8080 or udp port 53",
	"udp and dst net 224.0.0.0/4",
	"src net 131.225.0.0/16 and tcp",
	"ip and udp",
	"ip and dst port 53",
	"src host 131.225.2.4 and dst host 131.225.2.5",
	"port 4789",
	"icmp and port 80",
}

// nonFusingCorpus holds shapes the fuser never covers (a negation and
// arithmetic relations): compiled, they run on the VM fallback.
var nonFusingCorpus = []string{
	"not udp",
	"ip[8] < 5",
	"tcp[13] & 2 != 0",
	"len - 14 >= 1000",
}

// wiregenCorpus returns a deterministic sample of frames from the
// border-router workload generator (the "wiregen corpus": what
// cmd/wiregen emits), copied out of the generator's reused scratch.
func wiregenCorpus(tb testing.TB, n int) [][]byte {
	tb.Helper()
	src := trace.NewBorder(trace.BorderConfig{Queues: 4, Duration: 2 * vtime.Second, Seed: 42})
	frames := make([][]byte, 0, n)
	for len(frames) < n {
		data, _, ok := src.Next()
		if !ok {
			break
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		frames = append(frames, cp)
	}
	if len(frames) == 0 {
		tb.Fatal("wiregen corpus is empty")
	}
	return frames
}

// backendsFor compiles expr for the interpreter and as a compiled
// filter (fused, or the VM fallback).
func backendsFor(tb testing.TB, expr string, snaplen uint32) (*VM, *FlatProgram) {
	tb.Helper()
	prog, err := Compile(expr, snaplen)
	if err != nil {
		tb.Fatalf("Compile(%q): %v", expr, err)
	}
	vm, err := NewVM(prog)
	if err != nil {
		tb.Fatal(err)
	}
	compiled, err := CompileFlat(expr, snaplen)
	if err != nil {
		tb.Fatalf("CompileFlat(%q): %v", expr, err)
	}
	return vm, compiled
}

// TestFlattenDifferentialExprs cross-checks the compiled filter
// against the interpreter and the Eval oracle over random expressions
// and packets.
func TestFlattenDifferentialExprs(t *testing.T) {
	r := vtime.NewRand(9091)
	b := packet.NewBuilder()
	buf := make([]byte, packet.MaxFrameLen)
	for i := 0; i < 1500; i++ {
		e := randomExpr(r, 3)
		prog, err := CompileExpr(e, 65535)
		if err != nil {
			t.Fatalf("CompileExpr(%s): %v", e, err)
		}
		vm, err := NewVM(prog)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := FlattenExpr(e, 65535)
		if err != nil {
			t.Fatalf("FlattenExpr(%s): %v", e, err)
		}
		for j := 0; j < 8; j++ {
			frame := b.Build(buf, randFlow(r), make([]byte, r.Intn(300)))
			want := vm.Run(frame)
			if got := compiled.Run(frame); got != want {
				t.Fatalf("FlattenExpr (fused=%v) diverges on %q: %d != %d\n%s", compiled.Fused(), e, got, want, Disassemble(prog))
			}
			if got := Eval(e, frame); got != (want != 0) {
				t.Fatalf("Eval oracle diverges on %q", e)
			}
		}
	}
}

// TestFlattenMatcherCorpus runs every corpus filter, fusing or not,
// over the wiregen corpus plus adversarial frames: a truncated final
// frame, zero-length packets, and sub-header runts. The compiled
// filter must agree with the interpreter and the Eval oracle on each.
func TestFlattenMatcherCorpus(t *testing.T) {
	frames := wiregenCorpus(t, 512)
	last := frames[len(frames)-1]
	frames = append(frames,
		last[:10], // truncated final frame: mid-ethernet-header
		[]byte{},  // zero-length packet
		nil,       // tombstoned cell
		last[:14], // exactly the L2 header
		last[:23], // one byte short of the IPv4 protocol field
		make([]byte, 1),
	)
	for _, expr := range slices.Concat(matcherCorpus, nonFusingCorpus) {
		vm, compiled := backendsFor(t, expr, 65535)
		e, err := Parse(expr)
		if err != nil {
			t.Fatal(err)
		}
		for i, frame := range frames {
			want := vm.Run(frame)
			if got := compiled.Run(frame); got != want {
				t.Fatalf("%q frame %d: compiled (fused=%v) %d != VM %d", expr, i, compiled.Fused(), got, want)
			}
			// Eval reads a field past the frame's end as a false
			// primitive; the VM rejects the packet on the out-of-bounds
			// load, as the kernel does. They part ways only where a
			// negation turns that false into a match: "not udp" on a
			// frame too short to hold the IPv4 protocol byte.
			runtGap := expr == "not udp" && len(frame) <= offIPv4Proto
			if got := Eval(e, frame); got != (want != 0) && !runtGap {
				t.Fatalf("%q frame %d: Eval %v != VM %d", expr, i, got, want)
			}
		}
	}
}

// TestFuseCoverage pins which corpus shapes fuse: every corpus entry
// must take the straight-line path, and unsupported shapes must not.
func TestFuseCoverage(t *testing.T) {
	for _, expr := range matcherCorpus {
		f := MustCompileFlat(expr, 65535)
		if !f.Fused() {
			t.Errorf("%q did not fuse", expr)
		}
	}
	for _, expr := range nonFusingCorpus {
		f := MustCompileFlat(expr, 65535)
		if f.Fused() {
			t.Errorf("%q unexpectedly fused", expr)
		}
		if f.Len() == 0 {
			t.Errorf("%q: VM fallback reports no instructions", expr)
		}
	}
}

// TestFilterChunkMatchesPerPacket is the golden batch test: over the
// wiregen corpus, the batch path must produce exactly the bitmap the
// per-packet path produces, with tail bits cleared and the count
// matching the popcount.
func TestFilterChunkMatchesPerPacket(t *testing.T) {
	frames := wiregenCorpus(t, 300)
	// Edge shapes inside the batch, including a truncated final frame.
	frames[17] = frames[17][:10]
	frames[33] = []byte{}
	frames[49] = nil
	frames[len(frames)-1] = frames[len(frames)-1][:26]
	for _, expr := range append([]string{"udp[1000:2] != 0", "less 64", "not udp"}, matcherCorpus...) {
		f := MustCompileFlat(expr, 65535)
		words := (len(frames) + 63) / 64
		accept := make([]uint64, words)
		// Poison the bitmap: every word, including the tail, must be
		// fully overwritten.
		for i := range accept {
			accept[i] = ^uint64(0)
		}
		n := f.FilterChunk(frames, accept)
		count := 0
		for i, frame := range frames {
			want := f.Run(frame) != 0
			got := accept[i>>6]>>(uint(i)&63)&1 == 1
			if got != want {
				t.Fatalf("%q: bit %d = %v, per-packet = %v", expr, i, got, want)
			}
			if want {
				count++
			}
		}
		if n != count {
			t.Fatalf("%q: FilterChunk returned %d, popcount is %d", expr, n, count)
		}
		tail := accept[words-1] >> (uint(len(frames)-(words-1)*64) & 63)
		if len(frames)%64 != 0 && tail != 0 {
			t.Fatalf("%q: tail bits not cleared: %#x", expr, accept[words-1])
		}
	}
}

// TestFlatProgramSharedAcrossGoroutines pins the FlatProgram contract
// that one compiled filter, fused or on the VM, serves concurrent
// callers: run under -race, each goroutine's bitmap must match the
// sequential one.
func TestFlatProgramSharedAcrossGoroutines(t *testing.T) {
	frames := wiregenCorpus(t, 256)
	for _, expr := range []string{"udp", "not udp"} {
		f := MustCompileFlat(expr, 65535)
		want := make([]uint64, 4)
		f.FilterChunk(frames, want)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := make([]uint64, 4)
				for i := 0; i < 20; i++ {
					f.FilterChunk(frames, got)
					if !slices.Equal(got, want) {
						t.Errorf("%q: concurrent bitmap %x != sequential %x", expr, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestFilterChunkSizing pins the bitmap-sizing contract.
func TestFilterChunkSizing(t *testing.T) {
	f := MustCompileFlat("ip", 65535)
	frames := make([][]byte, 65)
	if n := f.FilterChunk(nil, nil); n != 0 {
		t.Fatalf("empty batch accepted %d", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("undersized bitmap did not panic")
		}
	}()
	f.FilterChunk(frames, make([]uint64, 1))
}
