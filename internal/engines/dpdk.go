package engines

import (
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/vtime"
)

// DPDK models an Intel-DPDK-style packet I/O framework (paper §6): packet
// buffer pools (mempools) allocated in user space, descriptors re-armed
// from the mempool so buffering capacity is the mempool size rather than
// the ring size, run-to-completion polling by the application thread
// itself, and zero-copy mbuf hand-off.
//
// DPDK "does not provide an offloading mechanism as WireCAP. To avoid
// packet drops, a DPDK-based application must implement an offloading
// mechanism in the application layer." The AppOffload option models
// exactly that: the application thread re-steers packet references to the
// least-loaded peer's software ring (rte_ring style), paying per-packet
// steering and synchronization costs — versus WireCAP's chunk-granular
// engine-level offload, which amortizes those costs over M packets. The
// future-work comparison the paper calls for lives in
// bench.ExtensionDPDK.
type DPDK struct {
	sched  *vtime.Scheduler
	n      *nic.NIC
	costs  CostModel
	h      Handler
	queues []*dpdkQueue

	appOffload   bool
	thresholdPct int
}

// DPDKConfig tunes the engine.
type DPDKConfig struct {
	// MempoolSize is the per-queue mbuf count (buffering capacity).
	// Default 25,600, matching WireCAP-B-(256,100).
	MempoolSize int
	// AppOffload enables application-layer software steering to peer
	// threads' software rings.
	AppOffload bool
	// ThresholdPct is the software-steering trigger, as a percentage of
	// MempoolSize of outstanding work. Default 60.
	ThresholdPct int
	// SteerCost is charged to the donor thread per re-steered packet
	// (hashing + rte_ring multi-producer enqueue). Default 150 ns.
	SteerCost vtime.Time
	// SyncCost is charged to the receiver per dequeued packet. Default
	// 100 ns.
	SyncCost vtime.Time
	// PollCost is the rx_burst cost per polled packet. Default 15 ns.
	PollCost vtime.Time
}

type dpdkMbuf struct {
	data  []byte
	n     int
	ts    vtime.Time
	owner *dpdkQueue // mempool the buffer returns to when freed
	tid   int32      // flight-recorder token; 0 when the packet is untraced
}

// mbufFIFO is a FIFO of mbufs over a reused backing array. pop advances
// a head index instead of shifting the tail down, and push compacts the
// live entries to the front once the array is full and at least half
// dead, so a backlog as deep as the mempool costs O(1) per packet and
// the array stays bounded under sustained overload.
type mbufFIFO struct {
	bufs []dpdkMbuf
	head int
}

func (f *mbufFIFO) len() int { return len(f.bufs) - f.head }

//wirecap:hotpath
func (f *mbufFIFO) pop() dpdkMbuf {
	m := f.bufs[f.head]
	f.head++
	if f.head == len(f.bufs) {
		f.bufs, f.head = f.bufs[:0], 0
	}
	return m
}

//wirecap:hotpath
func (f *mbufFIFO) push(m dpdkMbuf) {
	if len(f.bufs) == cap(f.bufs) && f.head > 0 && 2*f.head >= len(f.bufs) {
		n := copy(f.bufs, f.bufs[f.head:])
		f.bufs, f.head = f.bufs[:n], 0
	}
	f.bufs = append(f.bufs, m) //wirelint:allow hotpath FIFO reaches steady-state capacity; bounded by the mempool size
}

type dpdkQueue struct {
	e     *DPDK
	queue int
	ring  *nic.RxRing
	sv    *vtime.Server

	// mempool accounting: free mbufs available for re-arming.
	free    int
	mbufs   [][]byte // spare buffers for re-arming
	starved []int    // descriptors awaiting mbufs

	// rxq holds mbufs pulled off the hardware ring by rx_burst, awaiting
	// processing or steering; swq is the software ring peers steer
	// packets into.
	rxq mbufFIFO
	swq mbufFIFO

	tail     int
	consumed uint64 // packets polled off the hardware ring so far
	steered  uint64 // packets re-steered to peers (app offloading)
	active   bool
	stats    QueueStats
	instr    instr

	steerCost, syncCost, pollCost vtime.Time
	threshold                     int

	trace     *obs.Recorder
	traceName string
	nicID     int
}

// NewDPDK builds the engine on every queue of n.
func NewDPDK(sched *vtime.Scheduler, n *nic.NIC, costs CostModel, h Handler, cfg DPDKConfig) *DPDK {
	if cfg.MempoolSize <= 0 {
		cfg.MempoolSize = 25600
	}
	if cfg.ThresholdPct <= 0 {
		cfg.ThresholdPct = 60
	}
	if cfg.SteerCost == 0 {
		cfg.SteerCost = 150 * vtime.Nanosecond
	}
	if cfg.SyncCost == 0 {
		cfg.SyncCost = 100 * vtime.Nanosecond
	}
	if cfg.PollCost == 0 {
		cfg.PollCost = 15 * vtime.Nanosecond
	}
	e := &DPDK{
		sched: sched, n: n, costs: costs, h: h,
		appOffload: cfg.AppOffload, thresholdPct: cfg.ThresholdPct,
	}
	for qi := 0; qi < n.RxQueues(); qi++ {
		q := &dpdkQueue{
			e: e, queue: qi, ring: n.Rx(qi),
			sv:        vtime.NewServer(sched, nil),
			steerCost: cfg.SteerCost, syncCost: cfg.SyncCost, pollCost: cfg.PollCost,
			threshold: cfg.ThresholdPct * cfg.MempoolSize / 100,
			instr:     newInstr(n, e.Name(), qi),
			trace:     n.Trace(), traceName: e.Name(), nicID: n.ID(),
		}
		armPrivate(q.ring)
		// The ring's descriptors hold ring-size mbufs; the rest of the
		// mempool is spare.
		q.free = cfg.MempoolSize - q.ring.Size()
		if q.free < 0 {
			q.free = 0
		}
		q.ring.OnRx(func(int) { q.kick() })
		e.queues = append(e.queues, q)
	}
	return e
}

// Name implements Engine.
func (e *DPDK) Name() string {
	if e.appOffload {
		return "DPDK+app-offload"
	}
	return "DPDK"
}

//wirecap:hotpath
func (q *dpdkQueue) kick() {
	if q.active {
		return
	}
	q.active = true
	q.step()
}

// backlog is the thread's outstanding work: pulled-but-unprocessed mbufs,
// its software ring, and anything still sitting in the hardware ring.
func (q *dpdkQueue) backlog() int {
	ringBacklog := int(q.ring.Stats().Received - q.consumed)
	return ringBacklog + q.rxq.len() + q.swq.len()
}

// pullBurst is rx_burst: it moves every used descriptor into the local
// rxq (bounded by mbuf supply), re-arming descriptors from the mempool as
// it goes, and charges the per-packet poll cost. This is what decouples
// the hardware ring from the processing rate — DPDK's buffering capacity
// is the mempool, not the ring.
//
//wirecap:hotpath
func (q *dpdkQueue) pullBurst() {
	pulled := 0
	for {
		d := q.ring.Desc(q.tail)
		if d.State != nic.DescUsed {
			break
		}
		idx := q.tail
		q.tail = (q.tail + 1) % q.ring.Size()
		q.consumed++
		// The descriptor is re-armed immediately, so a traced packet's
		// identity rides the mbuf as a token until it is processed.
		tid := q.trace.DescClaim(q.nicID, q.queue, idx, q.e.sched.Now())
		q.rxq.push(dpdkMbuf{data: d.Buf, n: d.Len, ts: d.TS, owner: q, tid: tid})
		q.rearm(idx)
		pulled++
	}
	if pulled > 0 {
		q.instr.pollsOK.Inc()
		q.trace.StageCost(q.traceName, q.queue, "poll", vtime.Time(pulled)*q.pollCost)
		q.sv.Charge(vtime.Time(pulled) * q.pollCost)
	} else {
		q.instr.pollsEmpty.Inc()
	}
}

// step is the worker loop: pull a burst, steer if overloaded, then
// process one packet (peers' steered work first, rte_ring style).
//
//wirecap:hotpath
func (q *dpdkQueue) step() {
	q.pullBurst()
	// Application-layer offloading: above the backlog threshold, steer a
	// packet to the least-loaded peer's software ring, paying the
	// per-packet steering cost instead of the processing cost.
	if q.e.appOffload && q.rxq.len() > 0 && q.backlog() > q.threshold {
		target := q
		for _, p := range q.e.queues {
			if p.backlog() < target.backlog() {
				target = p
			}
		}
		if target != q {
			m := q.rxq.pop()
			q.steered++
			q.trace.StageCost(q.traceName, q.queue, "steer", q.steerCost)
			q.sv.ChargeAndCall(q.steerCost, func() { //wirelint:allow hotpath app-offload steering path; closure must capture the steered mbuf
				target.swq.push(m)
				target.kick()
				q.step()
			})
			return
		}
	}
	var m dpdkMbuf
	var sync vtime.Time
	switch {
	case q.swq.len() > 0:
		m = q.swq.pop()
		sync = q.syncCost
	case q.rxq.len() > 0:
		m = q.rxq.pop()
	default:
		q.active = false
		return
	}
	q.stats.Delivered++
	q.trace.IDDeliver(m.tid, q.e.sched.Now())
	cost := sync + q.e.h.Cost(q.queue, m.data[:m.n])
	q.trace.StageCost(q.traceName, q.queue, "process", cost)
	q.sv.ChargeAndCall(cost, func() { //wirelint:allow hotpath models DPDK per-packet processing; simulator charges cost in vtime
		q.e.h.Handle(q.queue, m.data[:m.n], m.ts, func() { m.owner.freeMbuf(m.data) }) //wirelint:allow hotpath release must capture the mbuf for zero-copy handoff to TX
		q.trace.IDProcessed(m.tid, q.e.sched.Now())
		q.step()
	})
}

// rearm gives descriptor idx a fresh mbuf from the mempool.
//
//wirecap:hotpath
func (q *dpdkQueue) rearm(idx int) {
	if n := len(q.mbufs); n > 0 {
		buf := q.mbufs[n-1]
		q.mbufs = q.mbufs[:n-1]
		q.ring.Refill(idx, buf)
		return
	}
	if q.free > 0 {
		q.free--
		q.ring.Refill(idx, make([]byte, 2048)) //wirelint:allow hotpath mempool is populated lazily up to its fixed budget
		return
	}
	q.ring.Invalidate(idx)
	q.starved = append(q.starved, idx) //wirelint:allow hotpath starved list is bounded by ring size; backing array is reused
}

// freeMbuf returns a consumed buffer to the mempool, re-arming a starved
// descriptor if one is waiting.
//
//wirecap:hotpath
func (q *dpdkQueue) freeMbuf(buf []byte) {
	if len(q.starved) > 0 {
		idx := q.starved[0]
		q.starved = q.starved[1:]
		q.ring.Refill(idx, buf[:cap(buf)])
		return
	}
	q.mbufs = append(q.mbufs, buf[:cap(buf)]) //wirelint:allow hotpath mempool free list is bounded by the mempool budget
}

// QueueBusy returns the cumulative CPU time queue q's thread has
// consumed (processing + steering + sync).
func (e *DPDK) QueueBusy(q int) vtime.Time { return e.queues[q].sv.Charged() }

// Steered returns how many packets queue q's thread re-steered to peers.
func (e *DPDK) Steered(q int) uint64 { return e.queues[q].steered }

// Stats implements Engine.
func (e *DPDK) Stats() Stats {
	s := Stats{Engine: e.Name()}
	for _, q := range e.queues {
		qs := q.stats
		rs := q.ring.Stats()
		qs.Received = rs.Received
		qs.CaptureDrops = rs.Drops()
		s.PerQueue = append(s.PerQueue, qs)
	}
	return s
}
