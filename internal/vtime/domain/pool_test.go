package domain

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsAllJobs(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	var hit [100]atomic.Int32
	if err := ForEach(len(hit), 0, func(i int) error {
		hit[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hit {
		if n := hit[i].Load(); n != 1 {
			t.Fatalf("job %d ran %d times", i, n)
		}
	}
}

func TestForEachFirstError(t *testing.T) {
	want := errors.New("job 3 failed")
	err := ForEach(10, 2, func(i int) error {
		if i == 3 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

func TestForEachSequentialFallback(t *testing.T) {
	// With GOMAXPROCS=1 the budget is empty: ForEach must still finish
	// all jobs on the calling goroutine.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	n := 0
	if err := ForEach(25, 8, func(i int) error {
		if i != n {
			t.Fatalf("sequential fallback ran job %d before %d", i, n)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 25 {
		t.Fatalf("ran %d jobs, want 25", n)
	}
}

// TestForEachNestedBudget: the total number of borrowed workers across
// nested fan-outs stays within the process budget — inner ForEach calls
// find the budget drained and degrade gracefully instead of multiplying
// goroutines.
func TestForEachNestedBudget(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	var peak, cur atomic.Int64
	err := ForEach(8, 0, func(i int) error {
		return ForEach(8, 0, func(j int) error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			for k := 0; k < 1000; k++ { // widen the overlap window
				_ = k
			}
			cur.Add(-1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Borrowed workers <= GOMAXPROCS-1 = 3, plus up to 8 outer callers
	// participating themselves: concurrency can never exceed outer
	// participants + borrowed budget.
	if p := peak.Load(); p > 4+3 {
		t.Fatalf("peak concurrency %d exceeds budget bound", p)
	}
	if got := borrowed.Load(); got != 0 {
		t.Fatalf("borrowed tokens leaked: %d", got)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not propagate")
		}
		if got := borrowed.Load(); got != 0 {
			t.Fatalf("borrowed tokens leaked after panic: %d", got)
		}
	}()
	_ = ForEach(16, 4, func(i int) error {
		if i == 7 {
			panic("boom")
		}
		return nil
	})
}

// TestForEachSerialStopsOnError: with one worker the jobs run in index
// order on the caller, and the first failure stops the fan-out before
// the next job starts.
func TestForEachSerialStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int32
	err := ForEach(100, 1, func(i int) error {
		started.Add(1)
		if i == 2 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got := started.Load(); got != 3 {
		t.Fatalf("started %d jobs, want 3", got)
	}
}

// TestForEachStopsWorkersAfterError verifies that once one job fails, the
// other workers stop at their current job boundary instead of draining the
// remaining work: with 4 workers and 64 jobs, exactly the 4 in-flight jobs
// run.
func TestForEachStopsWorkersAfterError(t *testing.T) {
	const workers = 4
	// The budget is capped by GOMAXPROCS; widen it so all four really
	// run concurrently even on a small machine.
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	boom := errors.New("boom")
	var started atomic.Int32
	var gate sync.WaitGroup
	gate.Add(workers) // released when every worker holds a job
	err := ForEach(64, workers, func(i int) error {
		started.Add(1)
		gate.Done()
		gate.Wait()
		if i == 0 {
			return boom // fails while the others sleep below
		}
		// Give the failure ample time to set the stop flag before these
		// workers look for their next job.
		time.Sleep(100 * time.Millisecond)
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got := started.Load(); got != workers {
		t.Fatalf("started %d jobs after error, want %d", got, workers)
	}
}
