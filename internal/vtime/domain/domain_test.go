package domain

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/vtime"
)

// buildPingPong wires k "node" entities that bounce counters at each
// other through mailboxes, each node generating its own paced events
// too, and returns the transcript the collector observed. Placement is
// by node index modulo domain count, so the construction order — and
// therefore every port/tx id — is identical for any domain count.
func runPingPong(t *testing.T, nodes, domains, workers int, seed uint64, rounds int) string {
	t.Helper()
	sim := New(Config{Domains: domains, Workers: workers})
	transcript := ""
	collectorDom := sim.Domain(0)
	collect := sim.NewPort(collectorDom, 5*vtime.Microsecond, func(at vtime.Time, p any) {
		transcript += fmt.Sprintf("%v %v\n", at, p)
	})
	type node struct {
		tx   *Tx
		port *Port
		r    *vtime.Rand
		seen int
	}
	ns := make([]*node, nodes)
	// Two construction passes so every node can address its successor's
	// port; pass order is node order, independent of placement.
	for i := range ns {
		ns[i] = &node{r: vtime.NewRand(vtime.SplitSeed(seed, uint64(i)))}
	}
	for i, n := range ns {
		d := sim.Domain(i % domains)
		n.tx = sim.NewTx(d)
		i := i
		n.port = sim.NewPort(d, 10*vtime.Microsecond, func(at vtime.Time, p any) {
			hop := p.(int)
			ns[i].seen++
			n.tx.Send(collect, fmt.Sprintf("node%d got hop %d", i, hop))
			if hop < rounds {
				n.tx.Send(ns[(i+1)%nodes].port, hop+1)
			}
		})
	}
	// Each node also runs a private paced activity on its own scheduler
	// with a per-node RNG, and kicks off one ping.
	for i, n := range ns {
		d := sim.Domain(i % domains)
		sched := d.Scheduler()
		i, n := i, n
		var tick func()
		left := rounds
		tick = func() {
			n.tx.Send(collect, fmt.Sprintf("node%d tick", i))
			if left--; left > 0 {
				sched.After(vtime.Time(1+n.r.Intn(50))*vtime.Microsecond, tick)
			}
		}
		sched.After(vtime.Time(1+n.r.Intn(20))*vtime.Microsecond, tick)
		sched.At(0, func() { n.tx.Send(ns[(i+1)%nodes].port, 1) })
	}
	sim.Run()
	total := 0
	for _, n := range ns {
		total += n.seen
	}
	if total != nodes*rounds {
		t.Fatalf("hops seen %d, want %d", total, nodes*rounds)
	}
	return fmt.Sprintf("end=%v\n%s", sim.Now(), transcript)
}

// TestPlacementEquivalence is the heart of the PDES determinism
// argument: the same construction must produce byte-identical
// transcripts for every domain count and worker count, sequential or
// parallel.
func TestPlacementEquivalence(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // allow real concurrency under -race
	defer runtime.GOMAXPROCS(prev)
	want := runPingPong(t, 6, 1, 1, 42, 8)
	for _, domains := range []int{2, 3, 6} {
		for _, workers := range []int{1, 4} {
			got := runPingPong(t, 6, domains, workers, 42, 8)
			if got != want {
				t.Errorf("domains=%d workers=%d transcript diverged from sequential:\n got: %q\nwant: %q",
					domains, workers, got, want)
			}
		}
	}
}

// TestPlacementEquivalenceFuzz fuzzes seeds and topology sizes over the
// same invariant.
func TestPlacementEquivalenceFuzz(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	r := vtime.NewRand(7)
	for trial := 0; trial < 12; trial++ {
		nodes := 2 + r.Intn(5)
		seed := r.Uint64()
		rounds := 3 + r.Intn(6)
		want := runPingPong(t, nodes, 1, 1, seed, rounds)
		domains := 2 + r.Intn(nodes)
		got := runPingPong(t, nodes, domains, 4, seed, rounds)
		if got != want {
			t.Fatalf("trial %d (nodes=%d domains=%d seed=%d rounds=%d): transcript diverged",
				trial, nodes, domains, seed, rounds)
		}
	}
}

// TestDeliveryOrderCanonical pins the merge tiebreak: deliveries at the
// same virtual instant arrive ordered by (port, tx, seq) and before any
// internal event at that instant, regardless of which domain sent them
// or in which order the senders ran.
func TestDeliveryOrderCanonical(t *testing.T) {
	run := func(domains int) string {
		sim := New(Config{Domains: domains, Workers: 1})
		out := ""
		target := sim.Domain(0)
		pa := sim.NewPort(target, vtime.Microsecond, func(at vtime.Time, p any) {
			out += fmt.Sprintf("A:%v:%v ", at, p)
		})
		pb := sim.NewPort(target, vtime.Microsecond, func(at vtime.Time, p any) {
			out += fmt.Sprintf("B:%v:%v ", at, p)
		})
		// Internal event at the exact delivery instant must run after
		// both deliveries.
		target.Scheduler().At(vtime.Microsecond, func() { out += "internal " })
		// Senders constructed in reverse placement order; ids still fix
		// the merge.
		n := 3
		txs := make([]*Tx, n)
		for i := 0; i < n; i++ {
			txs[i] = sim.NewTx(sim.Domain(i % domains))
		}
		for i := n - 1; i >= 0; i-- {
			i := i
			sim.Domain(i%domains).Scheduler().At(0, func() {
				txs[i].Send(pb, i)
				txs[i].Send(pa, i)
			})
		}
		sim.Run()
		return out
	}
	want := "A:0.000001s:0 A:0.000001s:1 A:0.000001s:2 B:0.000001s:0 B:0.000001s:1 B:0.000001s:2 internal "
	for _, domains := range []int{1, 2, 3} {
		if got := run(domains); got != want {
			t.Errorf("domains=%d: merge order %q, want %q", domains, got, want)
		}
	}
}

// TestHorizonStopsBatching proves the AdvanceIfIdle guard: a batching
// event must not skip past a pending mailbox delivery, so a generator
// that batches aggressively still interleaves correctly with deliveries.
func TestHorizonStopsBatching(t *testing.T) {
	sim := New(Config{Domains: 2, Workers: 1})
	gen := sim.Domain(0)
	var log string
	sim.NewPort(gen, vtime.Microsecond, func(at vtime.Time, p any) {
		log += fmt.Sprintf("deliver@%v ", at)
	})
	port0 := sim.ports[0]
	tx := sim.NewTx(sim.Domain(1))
	sim.Domain(1).Scheduler().At(0, func() { tx.Send(port0, "x") })
	// The generator tries to batch from t=0 far past the delivery at
	// 1 µs; the horizon must force it back onto scheduled events.
	sched := gen.Scheduler()
	var step func()
	n := 0
	step = func() {
		log += fmt.Sprintf("gen@%v ", sched.Now())
		n++
		if n >= 3 {
			return
		}
		next := sched.Now() + 700*vtime.Nanosecond
		if !sched.AdvanceIfIdle(next) {
			sched.At(next, step)
			return
		}
		step()
	}
	sched.At(0, step)
	sim.Run()
	want := "gen@0.000000s gen@0.000001s deliver@0.000001s gen@0.000001s "
	if log != want {
		t.Errorf("interleaving %q, want %q", log, want)
	}
}

// TestSingleDomainMatchesPlainScheduler: with one domain and no ports,
// Run is exactly the ordinary scheduler loop.
func TestSingleDomainMatchesPlainScheduler(t *testing.T) {
	plainSched := vtime.NewScheduler()
	plain := scheduleCounters(plainSched)
	plainSched.Run()

	sim := New(Config{Domains: 1})
	viaDomain := scheduleCounters(sim.Domain(0).Scheduler())
	sim.Run()

	if *plain != *viaDomain {
		t.Errorf("plain %q != single-domain %q", *plain, *viaDomain)
	}
	if plainSched.Now() != sim.Now() {
		t.Errorf("end times diverged: %v vs %v", plainSched.Now(), sim.Now())
	}
}

// scheduleCounters schedules a deterministic self-rescheduling workload
// on s and returns a pointer to its (growing) trace.
func scheduleCounters(s *vtime.Scheduler) *string {
	out := new(string)
	r := vtime.NewRand(3)
	for i := 0; i < 4; i++ {
		i := i
		left := 5
		var tick func()
		tick = func() {
			*out += fmt.Sprintf("%d@%v ", i, s.Now())
			if left--; left > 0 {
				s.After(vtime.Time(1+r.Intn(30)), tick)
			}
		}
		s.After(vtime.Time(1+r.Intn(10)), tick)
	}
	return out
}

// TestPortLatencyFloor: a zero-latency port would break conservative
// lookahead and must be rejected loudly.
func TestPortLatencyFloor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPort with zero latency did not panic")
		}
	}()
	sim := New(Config{Domains: 2})
	sim.NewPort(sim.Domain(0), 0, func(vtime.Time, any) {})
}

// TestWorkerPanicPropagates: a panic inside a parallel window must
// surface on the calling goroutine, not crash the process from a
// worker.
func TestWorkerPanicPropagates(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	defer func() {
		if recover() == nil {
			t.Fatal("panic in a domain event did not propagate out of Run")
		}
	}()
	sim := New(Config{Domains: 4, Workers: 4})
	// Ports force windowed execution with all domains active.
	for i := 0; i < 4; i++ {
		sim.NewPort(sim.Domain(i), vtime.Microsecond, func(vtime.Time, any) {})
	}
	for i := 0; i < 4; i++ {
		i := i
		sim.Domain(i).Scheduler().At(vtime.Time(i), func() {
			if i == 3 {
				panic("boom")
			}
		})
	}
	sim.Run()
}

// TestParallelWindowsAllocationFree: a parallel window must cost no heap
// objects — the workers are parked once per Run, not re-spawned per
// window. Two busy domains exchange nothing but tick through thousands
// of lookahead windows; the whole Run may only allocate its fixed
// set-up.
func TestParallelWindowsAllocationFree(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const ticks = 5000
	run := func(workers int) uint64 {
		sim := New(Config{Domains: 2, Workers: workers})
		for i := 0; i < 2; i++ {
			sched := sim.Domain(i).Scheduler()
			// A port sets the lookahead, so every tick is its own window.
			sim.NewPort(sim.Domain(i), vtime.Microsecond, func(vtime.Time, any) {})
			left := ticks
			var tick func()
			tick = func() {
				if left--; left > 0 {
					sched.After(vtime.Microsecond, tick)
				}
			}
			sched.After(vtime.Microsecond, tick)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sim.Run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	seq, par := run(1), run(2)
	if par > seq+64 {
		t.Fatalf("parallel run allocated %d objects, sequential %d: windows allocate", par, seq)
	}
}
