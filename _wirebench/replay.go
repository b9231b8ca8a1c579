package main

import (
	"bytes"
	"hash/maphash"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// Replay is a recorded frame stream: the bytes and arrival time of every
// frame a trace.Source produced. Recording happens before any timed
// region, so the timed runs pay only for replay, never for synthesis.
//
// Identical frames are stored once: the constant-rate generator cycles a
// handful of frames, so a million-packet wire_min64 stream costs a few
// megabytes of indices instead of 60 MB of copies. Frames of the border
// trace are nearly all distinct and are stored once each.
type Replay struct {
	arena []byte
	offs  []uint32 // start of distinct frame i in arena
	lens  []uint32
	order []uint32 // per packet: index of its distinct frame
	ts    []vtime.Time
}

// Record drains src into a new Replay.
func Record(src trace.Source) *Replay {
	r := &Replay{}
	seed := maphash.MakeSeed()
	seen := map[uint64]uint32{} // content hash -> first distinct frame with it
	for {
		frame, ts, ok := src.Next()
		if !ok {
			break
		}
		h := maphash.Bytes(seed, frame)
		idx, hit := seen[h]
		if !hit || !bytes.Equal(r.distinct(int(idx)), frame) {
			idx = uint32(len(r.offs))
			r.offs = append(r.offs, uint32(len(r.arena)))
			r.lens = append(r.lens, uint32(len(frame)))
			r.arena = append(r.arena, frame...)
			if !hit {
				seen[h] = idx
			}
		}
		r.order = append(r.order, idx)
		r.ts = append(r.ts, ts)
	}
	return r
}

func (r *Replay) distinct(i int) []byte {
	off := r.offs[i]
	end := off + r.lens[i]
	return r.arena[off:end:end]
}

// Len is the number of recorded packets.
func (r *Replay) Len() int { return len(r.order) }

// Frame returns packet i's bytes. The slice aliases the replay's arena
// and must not be modified.
func (r *Replay) Frame(i int) []byte { return r.distinct(int(r.order[i])) }

// TS returns packet i's arrival time.
func (r *Replay) TS(i int) vtime.Time { return r.ts[i] }

// Bytes is the memory the recording holds.
func (r *Replay) Bytes() int {
	return len(r.arena) + 4*(len(r.offs)+len(r.lens)+len(r.order)) + 8*len(r.ts)
}

// Source returns a fresh trace.Source positioned at the first packet.
func (r *Replay) Source() *ReplaySource { return &ReplaySource{r: r} }

// ReplaySource replays a Replay in recorded order.
type ReplaySource struct {
	r *Replay
	i int
}

// Next implements trace.Source.
func (s *ReplaySource) Next() ([]byte, vtime.Time, bool) {
	if s.i >= len(s.r.order) {
		return nil, 0, false
	}
	i := s.i
	s.i++
	return s.r.Frame(i), s.r.ts[i], true
}
