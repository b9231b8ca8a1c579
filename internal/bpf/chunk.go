package bpf

// FilterChunk is the batch entry point for compiled filters: one
// call evaluates every frame of a handed chunk and writes an accept
// bitmap, so the consumer path pays one bounds-checked virtual call per
// chunk instead of one interface dispatch per packet.

// FilterChunk evaluates the filter over every frame and sets bit i of
// accept when frames[i] is accepted (filter returns non-zero). A nil
// frame (a tombstoned cell) is evaluated as an empty packet, exactly
// like Run(nil) — callers that must never deliver tombstones skip them
// independently of the bitmap. All bitmap words spanning the batch are
// fully overwritten, including tail bits past len(frames), which are
// cleared. Returns the number of accepted frames.
//
// accept must hold at least (len(frames)+63)/64 words; shorter bitmaps
// panic (a sizing bug, not a data-dependent condition).
//
//wirecap:hotpath
func (f *FlatProgram) FilterChunk(frames [][]byte, accept []uint64) int {
	words := (len(frames) + 63) / 64
	if len(accept) < words {
		panic("bpf: FilterChunk accept bitmap too small")
	}
	// Hoist the backend dispatch out of the per-frame loop: a fused
	// filter's specialized predicate is called directly, one indirect
	// call per frame instead of Run's dispatch.
	fast := f.fast
	n := 0
	for w := 0; w < words; w++ {
		var bits uint64
		base := w * 64
		end := len(frames) - base
		if end > 64 {
			end = 64
		}
		for i := 0; i < end; i++ {
			var v uint32
			if fast != nil {
				v = fast(frames[base+i])
			} else {
				v = f.Run(frames[base+i])
			}
			if v != 0 {
				bits |= 1 << uint(i)
				n++
			}
		}
		accept[w] = bits
	}
	return n
}
