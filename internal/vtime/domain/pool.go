package domain

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/vtime"
)

// The process-wide worker budget. Every parallel construct in the
// repository — Sim windows, bench's cross-run fan-out — borrows extra
// workers from this one budget instead of spawning its own goroutines,
// so nested parallelism (parallel runs of parallel simulations)
// degrades to sequential execution instead of oversubscribing cores:
// the total number of borrowed workers can never exceed GOMAXPROCS-1,
// and every borrower also works with its own calling goroutine.
//
// The budget is read from GOMAXPROCS at each acquisition, so tests can
// widen it (runtime.GOMAXPROCS) to exercise real concurrency under the
// race detector even on small machines.
var borrowed atomic.Int64

// tryBorrow takes one worker from the budget, failing (never blocking)
// when the budget is exhausted. Blocking here could deadlock nested
// fan-outs; failing just means the caller runs more of the work itself.
func tryBorrow() bool {
	for {
		cur := borrowed.Load()
		if cur >= int64(runtime.GOMAXPROCS(0)-1) {
			return false
		}
		if borrowed.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// ForEach runs n independent jobs, at most max concurrently (0 means up
// to GOMAXPROCS), drawing extra workers from the process-wide budget.
// The calling goroutine always participates, so ForEach makes progress
// even with an empty budget. It returns the first error; after a
// failure, running workers stop at their next job boundary. A panicking
// job stops the fan-out and the panic is re-raised on the caller's
// goroutine once all workers have parked — a worker goroutine never
// takes the process down without the caller's stack attached.
//
// Job indices are claimed dynamically, so which worker runs which job is
// scheduling-dependent; jobs must be independent, and anything
// deterministic must be keyed by job index, not execution order.
func ForEach(n, max int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if max <= 0 {
		max = runtime.GOMAXPROCS(0)
	}
	if max > n {
		max = n
	}
	extra := 0
	for extra < max-1 && tryBorrow() {
		extra++
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
		panicked any
	)
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if panicked == nil {
					panicked = r
				}
				mu.Unlock()
				stop.Store(true)
			}
		}()
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := job(i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				stop.Store(true)
				return
			}
		}
	}
	if extra == 0 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < extra; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		wg.Wait()
		borrowed.Add(int64(-extra))
	}
	if panicked != nil {
		panic(fmt.Sprintf("domain: worker panicked: %v", panicked))
	}
	return firstErr
}

// crew is the worker set one Sim.Run parks for its whole duration. A
// parallel window then costs a channel send and receive per borrowed
// worker instead of a fresh ForEach fan-out (goroutines, a job closure,
// escaping sync state) per window. Workers still draw from the
// process-wide budget window by window, as ForEach does: a parked
// worker holds no budget, so nested parallelism degrades as before.
type crew struct {
	s *Sim
	// Both channels are sized to the parked goroutines, the most sends
	// either sees per window, so neither side ever blocks on a send.
	wake chan struct{}
	done chan struct{}
	size int // parked goroutines: the most extra workers a window can use
	exit sync.WaitGroup

	// Per-window state. The caller writes it before waking anyone; the
	// wake send orders those writes before every worker's reads, and
	// each done send orders the worker's writes before the caller's.
	active   []int
	limit    vtime.Time
	next     atomic.Int64
	stop     atomic.Bool
	mu       sync.Mutex
	panicked any
}

// newCrew parks size worker goroutines for s.
func newCrew(s *Sim, size int) *crew {
	c := &crew{
		s:    s,
		wake: make(chan struct{}, size),
		done: make(chan struct{}, size),
		size: size,
	}
	c.exit.Add(size)
	for i := 0; i < size; i++ {
		go func() {
			defer c.exit.Done()
			for range c.wake {
				c.work()
				c.done <- struct{}{}
			}
		}()
	}
	return c
}

// close releases the parked goroutines and returns once they have
// exited.
func (c *crew) close() {
	close(c.wake)
	c.exit.Wait()
}

// run executes the window [.., limit) of every active domain, on as many
// workers as the budget lends, the calling goroutine included. A panic
// in any domain is re-raised here once every woken worker has parked
// again, as ForEach does.
func (c *crew) run(active []int, limit vtime.Time) {
	c.active, c.limit = active, limit
	c.next.Store(0)
	c.stop.Store(false)
	extra := 0
	for extra < c.size && extra < len(active)-1 && tryBorrow() {
		extra++
	}
	for i := 0; i < extra; i++ {
		c.wake <- struct{}{}
	}
	c.work()
	for i := 0; i < extra; i++ {
		<-c.done
	}
	borrowed.Add(int64(-extra))
	if c.panicked != nil {
		panic(fmt.Sprintf("domain: worker panicked: %v", c.panicked))
	}
}

// work claims active domains until none is left, recording the first
// panic and stopping the other workers at their next claim.
func (c *crew) work() {
	defer func() {
		if r := recover(); r != nil {
			c.mu.Lock()
			if c.panicked == nil {
				c.panicked = r
			}
			c.mu.Unlock()
			c.stop.Store(true)
		}
	}()
	for !c.stop.Load() {
		j := int(c.next.Add(1)) - 1
		if j >= len(c.active) {
			return
		}
		c.s.domains[c.active[j]].runWindow(c.limit)
	}
}
