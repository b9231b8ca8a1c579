package main

import (
	"repro/internal/engines"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Span names. A traced run records spans only from the benchmark's own
// code, around its calls into each layer's public functions.
const (
	spanRun      = iota // vtime.Scheduler.Run: the run phase, root of a run's spans
	spanDeliver         // nic.NIC.Deliver, called from the benchmark's feed loop
	spanCost            // engines.Handler.Cost of the workload's consumer
	spanHandle          // engines.Handler.Handle of the workload's consumer
	spanDone            // the engine's release callback, called inside Handle
	spanFleetRun        // fleet.Run of one fleet_storm run
)

var spanNames = [...]string{
	spanRun:      "vtime.Scheduler.Run",
	spanDeliver:  "nic.NIC.Deliver",
	spanCost:     "handler.Cost",
	spanHandle:   "handler.Handle",
	spanDone:     "engine.release",
	spanFleetRun: "fleet.Run",
}

// span is one timed call. Start and end are ns since the benchmark's
// epoch; parent indexes the enclosing span in the same store (-1 for a
// root); run numbers the traced run the span belongs to.
type span struct {
	name       uint8
	run        int32
	parent     int32
	start, end int64
}

// spanStore keeps spans in memory until the benchmark ends. It stops
// storing at its cap, but timing and counting go on: the cap bounds
// memory, not the statistics.
type spanStore struct {
	spans []span
	limit int
}

func (s *spanStore) add(sp span) int32 {
	if len(s.spans) >= s.limit {
		return -1
	}
	s.spans = append(s.spans, sp)
	return int32(len(s.spans) - 1)
}

// sampler times a deterministic 1-in-every subset of one call site's
// calls — the first call and every every-th after it — and scales the
// sampled self time up to an estimate over all calls.
type sampler struct {
	every   uint64
	calls   uint64
	sampled uint64
	selfNs  float64 // sum of sampled self times, clock reads subtracted
}

// hit counts a call and reports whether to time it.
func (s *sampler) hit() bool {
	h := s.calls%s.every == 0
	s.calls++
	if h {
		s.sampled++
	}
	return h
}

// total estimates the self time of all calls, in ns.
func (s *sampler) total() float64 {
	if s.sampled == 0 {
		return 0
	}
	return s.selfNs * float64(s.calls) / float64(s.sampled)
}

// perCall estimates the mean self time of one call, in ns.
func (s *sampler) perCall() float64 {
	if s.calls == 0 {
		return 0
	}
	return s.total() / float64(s.calls)
}

// selfTime is a span's own time: its duration less its children's and
// less the clock reads inside it. A now() call returns a time from the
// middle of its own execution, so a span's bracketing reads add one
// clock cost to its duration. Each child's two reads add two more, one
// of which the child's own duration already carries.
func selfTime(dur, childDur int64, children int, clock float64) float64 {
	return float64(dur-childDur) - clock*float64(1+children)
}

// tracer is one traced run's instrumentation: samplers at every layer
// boundary the benchmark calls through, the span store, and the
// scheduler's pending-event depth sampled at each wrapped call.
type tracer struct {
	clock float64
	store *spanStore
	run   int32
	root  int32
	sched *vtime.Scheduler

	deliver, cost, handle sampler

	pendSum, pendN uint64
	pendMax        int
}

func newTracer(every uint64, clock float64, store *spanStore, run int32) *tracer {
	t := &tracer{clock: clock, store: store, run: run, root: -1}
	for _, s := range []*sampler{&t.deliver, &t.cost, &t.handle} {
		s.every = every
	}
	return t
}

func (t *tracer) record(name uint8, parent int32, start, end int64) int32 {
	return t.store.add(span{name: name, run: t.run, parent: parent, start: start, end: end})
}

func (t *tracer) notePending() {
	p := t.sched.Pending()
	t.pendSum += uint64(p)
	t.pendN++
	if p > t.pendMax {
		t.pendMax = p
	}
}

// drive is the benchmark's own copy of trace.Drive's loop, with
// nic.Deliver timed on sampled calls. Event order — batching through
// AdvanceIfIdle included — is exactly trace.Drive's, so the traced run's
// digest equals the untraced one's.
func (t *tracer) drive(sched *vtime.Scheduler, n *nic.NIC, src trace.Source) *trace.DriveStats {
	t.sched = sched
	st := &trace.DriveStats{}
	frame, ts, ok := src.Next()
	if !ok {
		return st
	}
	pending := append(make([]byte, 0, packet.MaxFrameLen), frame...)
	var deliver func()
	deliver = func() {
		for {
			st.Sent++
			st.Bytes += uint64(len(pending))
			st.Last = sched.Now()
			t.notePending()
			if t.deliver.hit() {
				t0 := now()
				n.Deliver(pending, sched.Now())
				t1 := now()
				t.deliver.selfNs += selfTime(t1-t0, 0, 0, t.clock)
				t.record(spanDeliver, t.root, t0, t1)
			} else {
				n.Deliver(pending, sched.Now())
			}
			next, nts, ok := src.Next()
			if !ok {
				return
			}
			if nts < sched.Now() {
				nts = sched.Now()
			}
			pending = append(pending[:0], next...)
			if !sched.AdvanceIfIdle(nts) {
				sched.At(nts, deliver)
				return
			}
		}
	}
	sched.At(ts, deliver)
	return st
}

// runPhase runs the scheduler to exhaustion under the root span and
// returns its wall time in ns.
func (t *tracer) runPhase() int64 {
	t.root = t.store.add(span{name: spanRun, run: t.run, parent: -1})
	t0 := now()
	t.sched.Run()
	t1 := now()
	if t.root >= 0 {
		t.store.spans[t.root].start, t.store.spans[t.root].end = t0, t1
	}
	return t1 - t0
}

// loopSelf is the run phase's time outside the timed layer calls: the
// scheduler plus the core/mem/engines event work, which is not separable
// from outside yet, and the feed loop itself.
func (t *tracer) loopSelf(runNs int64) float64 {
	return float64(runNs) - t.deliver.total() - t.cost.total() - t.handle.total()
}

// handlerPerPacket is the consumer's self time per handled packet: Cost
// plus Handle, less the engine release Handle calls back into.
func (t *tracer) handlerPerPacket() float64 {
	if t.handle.calls == 0 {
		return 0
	}
	return (t.cost.total() + t.handle.total()) / float64(t.handle.calls)
}

// tracedHandler wraps the workload's consumer with sampled timing.
type tracedHandler struct {
	inner engines.Handler
	t     *tracer

	release          func() // the engine's release for the timed Handle call
	releaseHook      func() // h.timedRelease, bound once
	relStart, relEnd int64
}

func (t *tracer) wrap(h engines.Handler) engines.Handler {
	th := &tracedHandler{inner: h, t: t}
	th.releaseHook = th.timedRelease
	return th
}

func (h *tracedHandler) Cost(q int, data []byte) vtime.Time {
	t := h.t
	t.notePending()
	if !t.cost.hit() {
		return h.inner.Cost(q, data)
	}
	t0 := now()
	c := h.inner.Cost(q, data)
	t1 := now()
	t.cost.selfNs += selfTime(t1-t0, 0, 0, t.clock)
	t.record(spanCost, t.root, t0, t1)
	return c
}

func (h *tracedHandler) Handle(q int, data []byte, ts vtime.Time, done func()) {
	t := h.t
	t.notePending()
	if !t.handle.hit() {
		h.inner.Handle(q, data, ts, done)
		return
	}
	h.release, h.relStart, h.relEnd = done, 0, 0
	t0 := now()
	h.inner.Handle(q, data, ts, h.releaseHook)
	t1 := now()
	if h.release != nil {
		// Both consumers release before returning; a deferred release
		// would leave this span without its child.
		panic("wirebench: handler deferred its release")
	}
	t.handle.selfNs += selfTime(t1-t0, h.relEnd-h.relStart, 1, t.clock)
	parent := t.record(spanHandle, t.root, t0, t1)
	t.record(spanDone, parent, h.relStart, h.relEnd)
}

func (h *tracedHandler) timedRelease() {
	done := h.release
	h.release = nil
	h.relStart = now()
	done()
	h.relEnd = now()
}
