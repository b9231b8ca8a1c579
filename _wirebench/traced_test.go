package main

import (
	"math"
	"testing"
)

func TestSamplerHitsOneInEvery(t *testing.T) {
	s := sampler{every: 4}
	var hits []int
	for i := 0; i < 10; i++ {
		if s.hit() {
			hits = append(hits, i)
		}
	}
	if want := []int{0, 4, 8}; len(hits) != len(want) || hits[0] != 0 || hits[1] != 4 || hits[2] != 8 {
		t.Fatalf("sampled calls %v, want %v", hits, want)
	}
	if s.calls != 10 || s.sampled != 3 {
		t.Fatalf("calls %d sampled %d, want 10 and 3", s.calls, s.sampled)
	}
}

func TestSamplerScalesSampledTimeToAllCalls(t *testing.T) {
	for _, tc := range []struct {
		every, calls uint64
		perCall      float64
	}{
		{1, 7, 100},   // every call timed: no scaling
		{16, 160, 50}, // whole number of periods
		{16, 170, 50}, // partial last period: 11 sampled of 170
		{4, 3, 20},    // fewer calls than one period
	} {
		s := sampler{every: tc.every}
		for i := uint64(0); i < tc.calls; i++ {
			if s.hit() {
				s.selfNs += tc.perCall
			}
		}
		// Every call costs the same, so the estimate must be exact.
		if got, want := s.total(), tc.perCall*float64(tc.calls); math.Abs(got-want) > 1e-9 {
			t.Errorf("every %d, %d calls: total %v, want %v", tc.every, tc.calls, got, want)
		}
		if got := s.perCall(); math.Abs(got-tc.perCall) > 1e-9 {
			t.Errorf("every %d, %d calls: perCall %v, want %v", tc.every, tc.calls, got, tc.perCall)
		}
	}
	var empty sampler
	if empty.total() != 0 || empty.perCall() != 0 {
		t.Fatal("a sampler with no calls must estimate 0")
	}
}

func TestSelfTimeSubtractsChildrenAndClockReads(t *testing.T) {
	const clock = 40.0
	// A leaf of 10 ns work between two reads measures work + one clock.
	if got := selfTime(10+40, 0, 0, clock); got != 10 {
		t.Fatalf("leaf self %v, want 10", got)
	}
	// A parent doing 100 ns itself around a child doing 30 ns: the
	// parent's interval holds its work, the child's work, the child's two
	// reads and one clock of its own bracketing reads; the child's
	// interval holds the child's work plus one clock.
	parentDur := int64(100 + 30 + 2*40 + 40)
	childDur := int64(30 + 40)
	if got := selfTime(parentDur, childDur, 1, clock); got != 100 {
		t.Fatalf("parent self %v, want 100", got)
	}
}

func TestFirstDiffNamesTheFirstDifferingKey(t *testing.T) {
	a := counts{"b": 1, "c": 2, "a": 0}
	b := counts{"b": 1, "c": 3, "d": 4}
	if got, want := a.firstDiff(b), "c: got 2, want 3"; got != want {
		t.Fatalf("firstDiff %q, want %q", got, want)
	}
	if got := a.firstDiff(counts{"b": 1, "c": 2}); got != "" {
		t.Fatalf("a missing key reads as 0, got %q", got)
	}
}
