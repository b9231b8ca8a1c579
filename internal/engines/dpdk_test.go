package engines

import (
	"testing"

	"repro/internal/nic"
	"repro/internal/trace"
	"repro/internal/vtime"
)

func TestDPDKWireRateNoLoad(t *testing.T) {
	e, h, st := runConstant(t, 30000, 10*vtime.Nanosecond,
		func(s *vtime.Scheduler, n *nic.NIC, h Handler) Engine {
			return NewDPDK(s, n, DefaultCosts(), h, DPDKConfig{})
		})
	if h.processed != st.Sent {
		t.Fatalf("processed %d of %d", h.processed, st.Sent)
	}
	if drops := e.Stats().Totals().TotalDrops(); drops != 0 {
		t.Fatalf("drops = %d", drops)
	}
}

func TestDPDKMempoolBuffersBeyondRing(t *testing.T) {
	// A 20k burst at wire rate against a slow consumer: the ring is
	// 1,024 but the mempool is 25,600, so DPDK absorbs the burst like
	// WireCAP-B-(256,100) does — and unlike DNA.
	cost := 25744 * vtime.Nanosecond
	e, h, st := runConstant(t, 20000, cost,
		func(s *vtime.Scheduler, n *nic.NIC, h Handler) Engine {
			return NewDPDK(s, n, DefaultCosts(), h, DPDKConfig{})
		})
	if drops := e.Stats().Totals().TotalDrops(); drops != 0 {
		t.Fatalf("drops = %d, want 0 (mempool should absorb burst)", drops)
	}
	if h.processed != st.Sent {
		t.Fatalf("processed %d of %d", h.processed, st.Sent)
	}
	// A small mempool behaves like a Type-II ring.
	e2, _, st2 := runConstant(t, 20000, cost,
		func(s *vtime.Scheduler, n *nic.NIC, h Handler) Engine {
			return NewDPDK(s, n, DefaultCosts(), h, DPDKConfig{MempoolSize: 2048})
		})
	if drops := e2.Stats().Totals().TotalDrops(); drops == 0 {
		t.Fatalf("small mempool absorbed a %d burst", st2.Sent)
	}
}

func TestDPDKAppOffloadSpreadsLoad(t *testing.T) {
	run := func(offload bool) (float64, uint64, *testHandler) {
		sched := vtime.NewScheduler()
		n := nic.New(sched, nic.Config{ID: 0, RxQueues: 4, RingSize: 1024, Promiscuous: true})
		h := &testHandler{cost: 25744 * vtime.Nanosecond}
		e := NewDPDK(sched, n, DefaultCosts(), h, DPDKConfig{AppOffload: offload})
		src := trace.NewConstantRate(trace.ConstantRateConfig{
			Packets: 150_000, Queues: 4, SingleQueue: true,
			LineRateBps: 100_000 * 84 * 8,
		})
		st := trace.Drive(sched, n, src, nil)
		sched.Run()
		var steered uint64
		for q := 0; q < 4; q++ {
			steered += e.Steered(q)
		}
		return e.Stats().DropRate(st.Sent), steered, h
	}
	noOff, steered0, _ := run(false)
	withOff, steered1, h := run(true)
	if steered0 != 0 {
		t.Fatalf("steering without AppOffload: %d", steered0)
	}
	if noOff < 0.3 {
		t.Fatalf("no-offload drop rate %.2f, want heavy", noOff)
	}
	if withOff > 0.02 {
		t.Fatalf("app-offload drop rate %.2f, want ~0", withOff)
	}
	if steered1 == 0 {
		t.Fatal("app offload steered nothing")
	}
	if h.processed != 150_000 {
		t.Fatalf("processed %d", h.processed)
	}
}

func TestDPDKExactlyOnceWithOffload(t *testing.T) {
	// Conservation under steering: every received packet processed once,
	// every mbuf returned to its owner's mempool.
	sched := vtime.NewScheduler()
	n := nic.New(sched, nic.Config{ID: 0, RxQueues: 3, RingSize: 512, Promiscuous: true})
	h := &testHandler{cost: 5 * vtime.Microsecond}
	e := NewDPDK(sched, n, DefaultCosts(), h, DPDKConfig{AppOffload: true, MempoolSize: 4096, ThresholdPct: 10})
	src := trace.NewConstantRate(trace.ConstantRateConfig{
		Packets: 50_000, Queues: 3, SingleQueue: true,
		LineRateBps: 500_000 * 84 * 8,
	})
	st := trace.Drive(sched, n, src, nil)
	sched.Run()
	tot := e.Stats().Totals()
	if tot.Received+tot.CaptureDrops != st.Sent {
		t.Fatal("conservation violated")
	}
	if h.processed != tot.Received {
		t.Fatalf("processed %d != received %d", h.processed, tot.Received)
	}
	// All mbufs home: every queue's free descriptors + spare mbufs add
	// back up (no starved descriptors left).
	for q := 0; q < 3; q++ {
		if len(e.queues[q].starved) != 0 {
			t.Fatalf("queue %d has %d starved descriptors after drain", q, len(e.queues[q].starved))
		}
	}
}

func TestDPDKNames(t *testing.T) {
	sched := vtime.NewScheduler()
	n := nic.New(sched, nic.Config{ID: 0, RxQueues: 1, RingSize: 64, Promiscuous: true})
	h := &testHandler{}
	if got := NewDPDK(sched, n, DefaultCosts(), h, DPDKConfig{}).Name(); got != "DPDK" {
		t.Fatalf("name %q", got)
	}
	sched2 := vtime.NewScheduler()
	n2 := nic.New(sched2, nic.Config{ID: 0, RxQueues: 1, RingSize: 64, Promiscuous: true})
	if got := NewDPDK(sched2, n2, DefaultCosts(), h, DPDKConfig{AppOffload: true}).Name(); got != "DPDK+app-offload" {
		t.Fatalf("name %q", got)
	}
}

// TestMbufFIFOBoundedUnderBacklog: a FIFO that never drains — the
// overloaded rx_burst queue — keeps FIFO order and keeps its backing
// array within a small multiple of the live backlog, however many
// packets pass through.
func TestMbufFIFOBoundedUnderBacklog(t *testing.T) {
	const backlog, packets = 1000, 100_000
	var f mbufFIFO
	next, want := 0, 0
	for ; next < backlog; next++ {
		f.push(dpdkMbuf{n: next})
	}
	for ; next < packets; next++ {
		f.push(dpdkMbuf{n: next})
		if m := f.pop(); m.n != want {
			t.Fatalf("popped %d, want %d", m.n, want)
		}
		want++
	}
	if got := f.len(); got != backlog {
		t.Fatalf("len = %d, want %d", got, backlog)
	}
	if c := cap(f.bufs); c > 4*(backlog+1) {
		t.Fatalf("backing array grew to %d for a backlog of %d", c, backlog)
	}
	for ; want < packets; want++ {
		if m := f.pop(); m.n != want {
			t.Fatalf("drain popped %d, want %d", m.n, want)
		}
	}
	if f.len() != 0 || f.head != 0 {
		t.Fatalf("drained FIFO not reset: len %d head %d", f.len(), f.head)
	}
}
