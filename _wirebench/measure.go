package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// epoch anchors every host timestamp the benchmark takes, so spans and
// phases share one monotonic time base.
var epoch = time.Now()

// now is nanoseconds since epoch on the monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// cpuNs is the process's user plus system CPU time, all threads.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heap is the pair of allocation counters a phase is charged with.
type heap struct{ bytes, objects uint64 }

func readHeap() heap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heap{ms.TotalAlloc, ms.Mallocs}
}

func (h heap) sub(o heap) heap { return heap{h.bytes - o.bytes, h.objects - o.objects} }

// clockCost measures what one now() call costs, so sampled spans can
// subtract the reads that bracket them. It is the best of five loops,
// the cost with the least interference.
func clockCost() float64 {
	const n = 200_000
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		t0 := now()
		for i := 0; i < n; i++ {
			sinkNs += now()
		}
		per := float64(now()-t0) / n
		if rep == 0 || per < best {
			best = per
		}
	}
	return best
}

// sinkNs keeps the clock reads of clockCost observable.
var sinkNs int64

// median returns the middle value (mean of the two middles for an even
// count) of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// repeatFor runs body until it has run at least min times and the
// budget is spent, and returns the iteration count.
func repeatFor(budget time.Duration, min int, body func(i int)) int {
	end := now() + int64(budget)
	i := 0
	for ; i < min || now() < end; i++ {
		body(i)
	}
	return i
}
