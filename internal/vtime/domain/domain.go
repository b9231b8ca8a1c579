// Package domain is the parallel discrete-event runtime: it partitions
// a simulation into time domains — independent vtime.Scheduler instances
// that may advance concurrently on separate goroutines — and keeps the
// whole composition exactly as deterministic as a single scheduler.
//
// The design is classic conservative PDES (parallel discrete-event
// simulation) with synchronous lookahead windows:
//
//   - Each Domain owns one scheduler and every simulation component
//     assigned to it. Within a domain, execution is the ordinary
//     sequential event loop, bit-identical to a standalone scheduler.
//   - Domains interact only through mailbox messages sent via a Tx
//     (a stable sending endpoint) to a Port (a stable receiving
//     endpoint). A port declares a minimum delivery latency >= 1 ns; a
//     message sent at virtual time t is delivered at exactly t+latency.
//   - The executive repeatedly computes the global lower bound LB (the
//     earliest pending event or undelivered message anywhere) and lets
//     every domain run all work with timestamps in [LB, LB+lookahead)
//     in parallel, where lookahead is the minimum port latency. Any
//     message sent inside the window arrives at or after the window's
//     end, so domains cannot affect each other mid-window; sends are
//     buffered and routed at the barrier.
//   - Deliveries are merged in a canonical order that depends only on
//     stable identities, never on placement or goroutine scheduling:
//     (deliver-at, port id, tx id, per-tx sequence), with all deliveries
//     at a timestamp running before any internal event at that
//     timestamp. Port and tx ids are assigned in creation order, which
//     the simulation's construction fixes.
//
// The combination makes the output of a Sim a pure function of its
// construction: the same components produce byte-identical results for
// any domain count, any worker count, and any host machine — a Sim with
// one domain and a Sim with eight running on eight cores digest
// identically. That is the property the bench equivalence tests and
// cmd/ci-gate's domains checks pin.
//
// Hot-path batching (vtime.Scheduler.AdvanceIfIdle) stays safe because
// the window loop sets the scheduler's horizon to the earlier of the
// window end and the next pending delivery, so a batching event can
// never skip past a barrier or a mailbox message.
package domain

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/vtime"
)

// Config sizes a Sim.
type Config struct {
	// Domains is the number of time domains. Default 1 — the sequential
	// configuration, whose execution is exactly a lone vtime.Scheduler.
	Domains int
	// Workers bounds how many domains run concurrently within a window.
	// 0 draws up to GOMAXPROCS from the process-wide worker budget
	// (shared with ForEach); 1 forces sequential execution, which must
	// and does produce the same output as any parallel setting.
	Workers int
}

// Sim is the parallel discrete-event executive.
type Sim struct {
	domains   []*Domain
	ports     []*Port
	txs       int // txs ever created, for stable id assignment
	lookahead vtime.Time
	workers   int
	running   bool
}

// Domain is one time domain: a scheduler plus the inbox of cross-domain
// messages addressed to its ports and the outbox of messages its
// components sent in the current window.
type Domain struct {
	id    int
	sim   *Sim
	sched *vtime.Scheduler
	inbox msgHeap
	out   []message
}

// Port is a stable inbound mailbox endpoint on a domain. Messages from
// any domain are delivered to its handler exactly latency after the
// send, merged canonically with all other traffic to the same domain.
type Port struct {
	id      int
	dom     *Domain
	latency vtime.Time
	handler func(at vtime.Time, payload any)
}

// Tx is a stable sending endpoint owned by one domain. Its id and
// per-message sequence numbers provide the placement-independent
// tiebreak for deliveries that share a timestamp.
type Tx struct {
	id  int
	dom *Domain
	seq uint64
}

// message is one in-flight cross-domain event.
type message struct {
	at      vtime.Time
	port    int32
	tx      int32
	seq     uint64
	payload any
}

// New builds a Sim with cfg.Domains empty time domains.
func New(cfg Config) *Sim {
	n := cfg.Domains
	if n <= 0 {
		n = 1
	}
	s := &Sim{lookahead: vtime.Time(math.MaxInt64), workers: cfg.Workers}
	for i := 0; i < n; i++ {
		s.domains = append(s.domains, &Domain{id: i, sim: s, sched: vtime.NewScheduler()})
	}
	return s
}

// Domains returns the number of time domains.
func (s *Sim) Domains() int { return len(s.domains) }

// Domain returns time domain i. Components are assigned to a domain by
// being built against its Scheduler; the assignment is structural and
// must be the same for every domain count a workload supports (a
// canonical rule such as host-index modulo domain count).
func (s *Sim) Domain(i int) *Domain { return s.domains[i] }

// ID returns the domain's index.
func (d *Domain) ID() int { return d.id }

// Scheduler returns the domain's event scheduler. All components of the
// domain schedule exclusively here.
func (d *Domain) Scheduler() *vtime.Scheduler { return d.sched }

// NewPort creates an inbound mailbox endpoint on domain d. latency is
// the fixed delivery delay and must be at least 1 ns: it is the
// cross-domain link's propagation time and the source of the
// conservative lookahead that lets domains run concurrently. handler
// runs inside d at exactly send-time+latency. Ports must be created
// before Run, in an order that does not depend on domain count.
func (s *Sim) NewPort(d *Domain, latency vtime.Time, handler func(at vtime.Time, payload any)) *Port {
	if s.running {
		panic("domain: NewPort during Run")
	}
	if latency < vtime.Nanosecond {
		panic(fmt.Sprintf("domain: port latency %v below 1ns lookahead floor", latency))
	}
	if handler == nil {
		panic("domain: nil port handler")
	}
	p := &Port{id: len(s.ports), dom: d, latency: latency, handler: handler}
	s.ports = append(s.ports, p)
	if latency < s.lookahead {
		s.lookahead = latency
	}
	return p
}

// NewTx creates a sending endpoint owned by domain d. Like ports, txs
// must be created before Run in a placement-independent order.
func (s *Sim) NewTx(d *Domain) *Tx {
	if s.running {
		panic("domain: NewTx during Run")
	}
	t := &Tx{id: s.txs, dom: d}
	s.txs++
	return t
}

// Send posts payload to port p, to be delivered at now+p.latency. It
// must be called from within the owning domain's execution (an event or
// delivery handler running in tx.dom), which is what makes the send
// time — and therefore the delivery time — deterministic. Sends are
// buffered and routed at the next barrier; co-located sender and
// receiver go through the identical path, so placement cannot reorder
// anything.
func (tx *Tx) Send(p *Port, payload any) {
	tx.dom.out = append(tx.dom.out, message{
		at:   tx.dom.sched.Now() + p.latency,
		port: int32(p.id), tx: int32(tx.id), seq: tx.seq,
		payload: payload,
	})
	tx.seq++
}

// next returns the earliest pending work in the domain — internal event
// or undelivered message — or ok=false when idle.
func (d *Domain) next() (vtime.Time, bool) {
	t, ok := d.sched.NextAt()
	if mt, mok := d.inbox.min(); mok && (!ok || mt < t) {
		return mt, true
	}
	return t, ok
}

// runWindow executes all of the domain's work with timestamps strictly
// below limit: mailbox deliveries and internal events interleaved in
// timestamp order, deliveries first at ties (in canonical message
// order). Outgoing sends are buffered in d.out for the barrier.
func (d *Domain) runWindow(limit vtime.Time) {
	for {
		// Keep AdvanceIfIdle honest: batching may not cross the window
		// end or the next pending delivery.
		horizon := limit
		mt, mok := d.inbox.min()
		if mok && mt < horizon {
			horizon = mt
		}
		if horizon == vtime.Time(math.MaxInt64) {
			d.sched.SetHorizon(0)
		} else {
			d.sched.SetHorizon(horizon)
		}
		et, eok := d.sched.NextAt()
		switch {
		case mok && mt < limit && (!eok || mt <= et):
			m := d.inbox.pop()
			d.sched.AdvanceTo(m.at)
			d.sim.ports[m.port].handler(m.at, m.payload)
		case eok && et < limit:
			d.sched.Step()
		default:
			d.sched.SetHorizon(0)
			return
		}
	}
}

// Run executes the simulation to completion: windows of [LB,
// LB+lookahead) are run across all domains (in parallel when Workers
// and the machine allow) with a barrier and canonical message routing
// between windows. With a single domain and no ports this degenerates
// to exactly vtime.Scheduler.Run.
func (s *Sim) Run() {
	if s.running {
		panic("domain: Run re-entered")
	}
	s.running = true
	defer func() { s.running = false }()
	var c *crew
	if n := s.parallelism(); n > 1 {
		c = newCrew(s, n-1)
		defer c.close()
	}
	active := make([]int, 0, len(s.domains))
	for {
		// Route the previous window's sends (and any setup-time sends) in
		// canonical order. Heap insertion order is irrelevant to delivery
		// order, but iterating domains by index keeps routing itself
		// deterministic and single-threaded.
		for _, d := range s.domains {
			for _, m := range d.out {
				s.ports[m.port].dom.inbox.push(m)
			}
			d.out = d.out[:0]
		}
		// Global lower bound over every domain's pending work.
		lb := vtime.Time(math.MaxInt64)
		idle := true
		for _, d := range s.domains {
			if t, ok := d.next(); ok {
				idle = false
				if t < lb {
					lb = t
				}
			}
		}
		if idle {
			return
		}
		limit := vtime.Time(math.MaxInt64)
		if s.lookahead < limit-lb {
			limit = lb + s.lookahead
		}
		active = active[:0]
		for i, d := range s.domains {
			if t, ok := d.next(); ok && t < limit {
				active = append(active, i)
			}
		}
		if len(active) == 1 || c == nil {
			for _, i := range active {
				s.domains[i].runWindow(limit)
			}
			continue
		}
		c.run(active, limit)
	}
}

// parallelism is how many domains a window may run at once: the Workers
// bound (GOMAXPROCS when 0), capped at the domain count.
func (s *Sim) parallelism() int {
	n := s.workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return min(n, len(s.domains))
}

// Now returns the furthest-advanced domain clock — the global virtual
// time at which the simulation drained. It is placement-independent:
// the maximum event timestamp does not depend on how components were
// spread over domains.
func (s *Sim) Now() vtime.Time {
	var t vtime.Time
	for _, d := range s.domains {
		if n := d.sched.Now(); n > t {
			t = n
		}
	}
	return t
}

// msgHeap is a binary min-heap of messages in canonical delivery order:
// (deliver-at, port, tx, seq). Every key component is stable across
// placements, so two Sims with different domain counts pop identical
// sequences.
type msgHeap struct{ h []message }

func msgLess(a, b message) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.port != b.port {
		return a.port < b.port
	}
	if a.tx != b.tx {
		return a.tx < b.tx
	}
	return a.seq < b.seq
}

func (m *msgHeap) min() (vtime.Time, bool) {
	if len(m.h) == 0 {
		return 0, false
	}
	return m.h[0].at, true
}

func (m *msgHeap) push(x message) {
	m.h = append(m.h, x)
	i := len(m.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !msgLess(x, m.h[p]) {
			break
		}
		m.h[i] = m.h[p]
		i = p
	}
	m.h[i] = x
}

func (m *msgHeap) pop() message {
	root := m.h[0]
	n := len(m.h) - 1
	x := m.h[n]
	m.h[n] = message{} // release payload reference
	m.h = m.h[:n]
	if n > 0 {
		i := 0
		for {
			c := i*2 + 1
			if c >= n {
				break
			}
			if c+1 < n && msgLess(m.h[c+1], m.h[c]) {
				c++
			}
			if !msgLess(m.h[c], x) {
				break
			}
			m.h[i] = m.h[c]
			i = c
		}
		m.h[i] = x
	}
	return root
}
