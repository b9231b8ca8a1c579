// Package wirecap is the public, libpcap-flavoured API of the WireCAP
// reproduction: lossless zero-copy packet capture and delivery over
// simulated commodity multi-queue NICs, with ring-buffer pools for
// short-term bursts, buddy-group offloading for long-term load imbalance,
// BPF filtering, and zero-copy forwarding for middlebox applications.
//
// Everything runs inside a deterministic discrete-event simulation (see
// DESIGN.md for why): a Sim owns virtual time, NICs attach to it, an
// Engine captures from a NIC, and per-queue Handles deliver packets to
// callbacks the way pcap_loop does.
//
//	sim := wirecap.NewSim()
//	nic := sim.NewNIC(wirecap.NICConfig{Queues: 4})
//	eng, _ := sim.NewEngine(nic, wirecap.Options{M: 256, R: 100, Advanced: true})
//	h := eng.Queue(0)
//	h.SetFilter("udp and net 131.225.2")
//	h.Loop(func(p *wirecap.Packet) { fmt.Println(p.Timestamp, len(p.Data)) })
//	sim.ReplayBorder(nic, wirecap.BorderOptions{Seconds: 2})
//	sim.Run()
package wirecap

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bpf"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/nic"
	"repro/internal/vtime"
)

// Sim owns the virtual clock every simulated component advances on.
type Sim struct {
	sched *vtime.Scheduler
}

// NewSim creates a simulation at virtual time zero.
func NewSim() *Sim { return &Sim{sched: vtime.NewScheduler()} }

// Run executes the simulation until no work remains.
func (s *Sim) Run() { s.sched.Run() }

// RunFor advances the simulation by d of virtual time.
func (s *Sim) RunFor(d time.Duration) {
	s.sched.RunUntil(s.sched.Now() + vtime.Duration(d))
}

// Now returns the current virtual time since the simulation began.
func (s *Sim) Now() time.Duration { return time.Duration(s.sched.Now()) }

// NICConfig configures a simulated NIC.
type NICConfig struct {
	// Queues is the number of receive queues; each is served by one
	// capture handle. Default 1.
	Queues int
	// RingSize is the per-queue receive descriptor ring size. Default
	// 1,024 (the paper's experiment setting).
	RingSize int
	// TxQueues enables transmit rings for forwarding. Default 0.
	TxQueues int
	// LineRateGbps is the wire speed. Default 10.
	LineRateGbps float64
	// BusGBps caps the shared host bus in gigabytes per second; 0 means
	// unlimited. Use it for scalability studies (Figure 14).
	BusGBps float64
	// RoundRobin replaces RSS steering with round-robin (which balances
	// load but breaks flow affinity; see the ablation benches).
	RoundRobin bool
}

// NIC is a simulated multi-queue NIC attached to a Sim.
type NIC struct {
	sim   *Sim
	inner *nic.NIC
	bus   *bus.Bus
}

var nextNICID int

// NewNIC attaches a NIC to the simulation. Capture NICs run in
// promiscuous mode, as packet capture requires.
func (s *Sim) NewNIC(cfg NICConfig) *NIC {
	if cfg.Queues <= 0 {
		cfg.Queues = 1
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	if cfg.LineRateGbps == 0 {
		cfg.LineRateGbps = 10
	}
	var b *bus.Bus
	if cfg.BusGBps > 0 {
		b = bus.New(bus.Config{BytesPerSec: cfg.BusGBps * 1e9, PerTransferOverhead: 16})
	} else {
		b = bus.Unlimited()
	}
	var steering nic.Steering
	if cfg.RoundRobin {
		steering = nic.NewRoundRobin(cfg.Queues)
	}
	id := nextNICID
	nextNICID++
	inner := nic.New(s.sched, nic.Config{
		ID:          id,
		RxQueues:    cfg.Queues,
		RingSize:    cfg.RingSize,
		TxQueues:    cfg.TxQueues,
		Steering:    steering,
		LineRateBps: cfg.LineRateGbps * 1e9,
		Bus:         b,
		Promiscuous: true,
	})
	return &NIC{sim: s, inner: inner, bus: b}
}

// Queues returns the NIC's receive-queue count.
func (n *NIC) Queues() int { return n.inner.RxQueues() }

// WireStats reports what the NIC saw on the wire.
type WireStats struct {
	Offered  uint64 // frames the generator put on the wire
	Received uint64 // frames that reached host memory
	Dropped  uint64 // frames lost before host memory (capture drops)
}

// WireStats snapshots NIC-level accounting.
func (n *NIC) WireStats() WireStats {
	st := n.inner.Stats()
	return WireStats{
		Offered:  st.Delivered,
		Received: st.TotalReceived(),
		Dropped:  st.TotalWireDrops(),
	}
}

// Options configures a WireCAP capture engine, following the paper's
// WireCAP-B-(M, R) / WireCAP-A-(M, R, T) naming.
type Options struct {
	// M is the descriptor-segment size (cells per chunk). Default 256.
	M int
	// R is the ring-buffer-pool size in chunks. Default 100. Buffering
	// capacity is R*M packets per queue.
	R int
	// Advanced enables buddy-group-based offloading.
	Advanced bool
	// ThresholdPct is the offloading threshold T as a percentage of the
	// capture queue capacity. Default 60.
	ThresholdPct int
	// BuddyGroups partitions queues into offload domains, one per
	// application. nil means one group containing every queue.
	BuddyGroups [][]int
	// FlushTimeout bounds packet delivery latency for partially filled
	// chunks. Default 2 ms.
	FlushTimeout time.Duration
	// BatchFilter, when non-empty, installs a BPF expression that the
	// engine applies per chunk on the consumer fast path (the compiled
	// filter's batch entry point), before any packet reaches a handle. Rejected
	// packets never surface in callbacks and are counted in
	// Stats.BatchFiltered — they are not capture drops. Per-handle
	// SetFilter still applies on top, per packet.
	BatchFilter string
}

// Engine is a WireCAP capture engine bound to one NIC.
type Engine struct {
	sim     *Sim
	nic     *NIC
	inner   *core.Engine
	mux     *mux
	handles []*Handle
}

// NewEngine opens every receive queue of n for capture.
func (s *Sim) NewEngine(n *NIC, opt Options) (*Engine, error) {
	if opt.M == 0 {
		opt.M = 256
	}
	if opt.R == 0 {
		opt.R = 100
	}
	mode := core.Basic
	if opt.Advanced {
		mode = core.Advanced
	}
	var chunkFilter *bpf.FlatProgram
	if opt.BatchFilter != "" {
		f, err := bpf.CompileFlat(opt.BatchFilter, 65535)
		if err != nil {
			return nil, fmt.Errorf("wirecap: batch filter %q: %w", opt.BatchFilter, err)
		}
		chunkFilter = f
	}
	e := &Engine{sim: s, nic: n}
	e.mux = &mux{engine: e, costs: engines.DefaultCosts()}
	for q := 0; q < n.Queues(); q++ {
		h := &Handle{engine: e, queue: q, snaplen: 65535}
		e.handles = append(e.handles, h)
	}
	inner, err := core.New(s.sched, n.inner, core.Config{
		M:            opt.M,
		R:            opt.R,
		Mode:         mode,
		ThresholdPct: opt.ThresholdPct,
		BuddyGroups:  opt.BuddyGroups,
		FlushTimeout: vtime.Duration(opt.FlushTimeout),
		ChunkFilter:  chunkFilter,
		Costs:        engines.DefaultCosts(),
	}, e.mux)
	if err != nil {
		return nil, err
	}
	e.inner = inner
	return e, nil
}

// Queue returns the capture handle for receive queue q.
func (e *Engine) Queue(q int) *Handle { return e.handles[q] }

// Name returns the engine's paper-style name, e.g. "WireCAP-A-(256,100,60%)".
func (e *Engine) Name() string { return e.inner.Name() }

// Close stops capture on every queue and unmaps the ring buffer pools
// (pcap_close). Packets still held by callbacks or transmit rings stay
// valid until released. Idempotent.
func (e *Engine) Close() error { return e.inner.Close() }

// Stats aggregates capture accounting across all queues.
func (e *Engine) Stats() Stats {
	t := e.inner.Stats().Totals()
	s := Stats{
		Received:      t.Received,
		CaptureDrops:  t.CaptureDrops,
		Delivered:     t.Delivered,
		BatchFiltered: e.inner.ChunkFiltered(),
	}
	for _, h := range e.handles {
		s.Accepted += h.accepted
		s.FilterRejected += h.filtered
	}
	return s
}

// Stats is the pcap_stats analogue, extended with WireCAP detail.
type Stats struct {
	Received       uint64 // packets captured into host memory
	CaptureDrops   uint64 // packets lost at the wire (ps_drop)
	Delivered      uint64 // packets handed to user space
	Accepted       uint64 // packets that passed the handle filters
	FilterRejected uint64 // packets rejected by the handle filters
	BatchFiltered  uint64 // packets rejected per chunk by Options.BatchFilter
}

// Packet is one captured packet as seen by a callback. Data aliases the
// ring-buffer-pool cell (zero-copy): it is valid only during the callback
// unless the packet is forwarded, in which case the cell lives until the
// NIC transmits it.
type Packet struct {
	Data      []byte
	Timestamp time.Duration // hardware arrival time
	Queue     int           // receive queue that captured it

	done      func()
	forwarded bool
	engine    *Engine
}

// TxQueue names a transmit ring for forwarding.
type TxQueue struct {
	ring *nic.TxRing
}

// Tx returns transmit queue q of the NIC, for forwarding.
func (n *NIC) Tx(q int) *TxQueue {
	if q < 0 || q >= n.inner.TxQueues() {
		panic(fmt.Sprintf("wirecap: NIC has no TX queue %d", q))
	}
	return &TxQueue{ring: n.inner.Tx(q)}
}

// Sent returns the number of packets the TX queue has put on the wire.
func (t *TxQueue) Sent() uint64 { return t.ring.Stats().Sent }

// ErrTxFull reports a full transmit ring.
var ErrTxFull = errors.New("wirecap: transmit ring full")

// Forward attaches the packet to a transmit queue with zero copy. The
// underlying buffer is retained until the NIC serializes the frame. A
// packet can be forwarded at most once.
func (p *Packet) Forward(tx *TxQueue) error {
	if p.forwarded {
		return errors.New("wirecap: packet already forwarded")
	}
	if tx.ring.Attach(nic.TxPacket{Data: p.Data, Release: p.done}) {
		p.forwarded = true
		return nil
	}
	return ErrTxFull
}

// Handle is a per-receive-queue capture handle: the pcap_t analogue.
type Handle struct {
	engine  *Engine
	queue   int
	snaplen int
	flt     *bpf.FlatProgram
	cb      func(*Packet)
	cost    vtime.Time
	broken  bool

	accepted uint64
	filtered uint64
	pkt      Packet // reused across callbacks

	dumper  *Dumper
	dumpErr error
}

// SetFilter compiles and installs a BPF filter expression
// (pcap_setfilter). An empty expression removes the filter.
func (h *Handle) SetFilter(expr string) error {
	if expr == "" {
		h.flt = nil
		return nil
	}
	flt, err := bpf.CompileFlat(expr, uint32(h.snaplen))
	if err != nil {
		return err
	}
	h.flt = flt
	return nil
}

// SetSnapLen sets the snapshot length delivered to the callback
// (default 65,535).
func (h *Handle) SetSnapLen(n int) {
	if n <= 0 {
		n = 65535
	}
	h.snaplen = n
}

// SetProcessingCost declares the virtual CPU time the callback consumes
// per packet, so capture dynamics under application load are modeled
// faithfully. Zero (the default) models a negligible-cost consumer.
func (h *Handle) SetProcessingCost(d time.Duration) { h.cost = vtime.Duration(d) }

// Loop registers the packet callback (pcap_loop with cnt = -1). Callbacks
// run as packets are delivered while the simulation runs.
func (h *Handle) Loop(fn func(*Packet)) { h.cb = fn }

// BreakLoop stops delivering packets to the callback (pcap_breakloop);
// subsequent packets are consumed and discarded.
func (h *Handle) BreakLoop() { h.broken = true }

// Accepted returns the number of packets that reached the callback.
func (h *Handle) Accepted() uint64 { return h.accepted }

// mux adapts the per-queue handles onto the engine's Handler interface.
type mux struct {
	engine *Engine
	costs  engines.CostModel
}

func (m *mux) Cost(q int, data []byte) vtime.Time {
	return m.costs.AppBase + m.engine.handles[q].cost
}

func (m *mux) Handle(q int, data []byte, ts vtime.Time, done func()) {
	h := m.engine.handles[q]
	if h.broken || h.cb == nil {
		done()
		return
	}
	if h.flt != nil && !h.flt.Match(data) {
		h.filtered++
		done()
		return
	}
	h.accepted++
	if len(data) > h.snaplen {
		data = data[:h.snaplen]
	}
	if h.dumper != nil {
		h.writeDump(data, ts)
	}
	h.pkt = Packet{Data: data, Timestamp: time.Duration(ts), Queue: q, done: done, engine: m.engine}
	h.cb(&h.pkt)
	if !h.pkt.forwarded {
		done()
	}
}
