package main

import (
	"bytes"
	"testing"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// sliceSource is a trace.Source over fixed frames that, like the real
// generators, reuses one buffer between calls.
type sliceSource struct {
	frames [][]byte
	ts     []vtime.Time
	buf    []byte
	i      int
}

func (s *sliceSource) Next() ([]byte, vtime.Time, bool) {
	if s.i >= len(s.frames) {
		return nil, 0, false
	}
	s.buf = append(s.buf[:0], s.frames[s.i]...)
	ts := s.ts[s.i]
	s.i++
	return s.buf, ts, true
}

// drain copies every frame and timestamp out of src.
func drain(src trace.Source) ([][]byte, []vtime.Time) {
	var frames [][]byte
	var ts []vtime.Time
	for {
		f, t, ok := src.Next()
		if !ok {
			return frames, ts
		}
		frames = append(frames, append([]byte(nil), f...))
		ts = append(ts, t)
	}
}

func checkSame(t *testing.T, gotF, wantF [][]byte, gotTS, wantTS []vtime.Time) {
	t.Helper()
	if len(gotF) != len(wantF) || len(gotTS) != len(wantTS) {
		t.Fatalf("replayed %d frames, recorded %d", len(gotF), len(wantF))
	}
	for i := range wantF {
		if !bytes.Equal(gotF[i], wantF[i]) {
			t.Fatalf("frame %d differs:\n got %x\nwant %x", i, gotF[i], wantF[i])
		}
		if gotTS[i] != wantTS[i] {
			t.Fatalf("frame %d at %v, recorded at %v", i, gotTS[i], wantTS[i])
		}
	}
}

func TestReplayReturnsRecordedFramesByteForByte(t *testing.T) {
	// Repeats, distinct frames of equal length, and differing lengths:
	// deduplication must never merge two different frames.
	frames := [][]byte{
		{1, 2, 3}, {1, 2, 4}, {1, 2, 3}, {9}, {}, {1, 2, 4, 0}, {9}, {1, 2, 3},
	}
	ts := []vtime.Time{0, 5, 5, 7, 8, 100, 101, 1 << 40}
	r := Record(&sliceSource{frames: frames, ts: ts})
	if r.Len() != len(frames) {
		t.Fatalf("Len %d, want %d", r.Len(), len(frames))
	}
	gotF, gotTS := drain(r.Source())
	checkSame(t, gotF, frames, gotTS, ts)
	// A second source replays from the start, independent of the first.
	gotF, gotTS = drain(r.Source())
	checkSame(t, gotF, frames, gotTS, ts)
}

func TestReplayMatchesGenerators(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() trace.Source
	}{
		{"constant", func() trace.Source {
			return trace.NewConstantRate(trace.ConstantRateConfig{Packets: 5000, FrameLen: 60, Seed: 3})
		}},
		{"border", func() trace.Source {
			return trace.NewBorder(trace.BorderConfig{Queues: 4, Duration: 50 * vtime.Millisecond, Seed: 3})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantF, wantTS := drain(tc.mk())
			if len(wantF) == 0 {
				t.Fatal("generator produced no frames")
			}
			r := Record(tc.mk())
			gotF, gotTS := drain(r.Source())
			checkSame(t, gotF, wantF, gotTS, wantTS)
		})
	}
}

func TestReplayDeduplicatesRepeatedFrames(t *testing.T) {
	src := trace.NewConstantRate(trace.ConstantRateConfig{Packets: 10_000, FrameLen: 60, Seed: 1})
	r := Record(src)
	// 16 flows, one frame each: the arena holds 16 frames, not 10,000.
	if got, want := len(r.arena), 16*60; got != want {
		t.Fatalf("arena holds %d bytes, want %d", got, want)
	}
}
