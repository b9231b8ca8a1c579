package main

import (
	"time"

	"repro/internal/analytics"
	"repro/internal/app"
	"repro/internal/bpf"
	"repro/internal/engines"
	"repro/internal/fleet"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/vtime"
)

// isoFrames caps how many of a workload's frames one isolated pass
// replays.
const isoFrames = 1 << 16

// frameSet is the input of the isolated replays: a workload's frames in
// arrival order, with their decoded form and flow keys precomputed so
// each replay times only its own layer.
type frameSet struct {
	frames [][]byte
	ts     []vtime.Time
	// The frames that decode, with their flow, arrival time and RSS queue
	// on a 4-queue NIC.
	dec   []packet.Decoded
	flows []packet.FlowKey
	decTS []vtime.Time
	queue []int
}

func newFrameSet(frames [][]byte, ts []vtime.Time) *frameSet {
	fs := &frameSet{frames: frames, ts: ts}
	hasher := nic.NewFlowHasher(nic.DefaultRSSKey)
	for i, f := range frames {
		var d packet.Decoded
		if err := packet.Decode(f, &d); err != nil {
			continue
		}
		fs.dec = append(fs.dec, d)
		fs.flows = append(fs.flows, d.Flow)
		fs.decTS = append(fs.decTS, ts[i])
		fs.queue = append(fs.queue, int(hasher.Hash(d.Flow)%nic.IndirectionEntries)%4)
	}
	return fs
}

// replayFrames takes the first isoFrames packets of a replay.
func replayFrames(r *Replay) *frameSet {
	n := min(r.Len(), isoFrames)
	frames := make([][]byte, n)
	ts := make([]vtime.Time, n)
	for i := range frames {
		frames[i], ts[i] = r.Frame(i), r.TS(i)
	}
	return newFrameSet(frames, ts)
}

// fleetFrames builds the isolated-replay input of fleet_storm, whose
// hosts model frames by length only: frames of a seeded 4096-flow
// population, one per packet at 1 Mp/s, sized like the fleet's own
// generator (60 to 1259 bytes).
func fleetFrames(seed uint64) *frameSet {
	r := vtime.NewRand(vtime.SplitSeed(seed, 0xbe7c))
	flows := make([]packet.FlowKey, fleetFlows)
	for i := range flows {
		proto := packet.ProtoUDP
		if r.Intn(2) == 0 {
			proto = packet.ProtoTCP
		}
		flows[i] = packet.FlowKey{
			Src:     packet.IPv4{10, byte(r.Intn(4)), byte(r.Intn(256)), byte(r.Intn(256))},
			Dst:     packet.IPv4{192, 168, byte(r.Intn(16)), byte(r.Intn(256))},
			SrcPort: uint16(1024 + r.Intn(60000)),
			DstPort: uint16(1 + r.Intn(1024)),
			Proto:   proto,
		}
	}
	b := packet.NewBuilder()
	zeros := make([]byte, packet.MaxFrameLen)
	frames := make([][]byte, isoFrames)
	ts := make([]vtime.Time, isoFrames)
	for i := range frames {
		f := flows[r.Intn(len(flows))]
		hdr := packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen
		if f.Proto == packet.ProtoTCP {
			hdr = packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.TCPHeaderLen
		}
		payload := max(0, 60+r.Intn(1200)-hdr)
		if f.Proto == packet.ProtoTCP {
			frames[i] = b.BuildTCPSeg(make([]byte, packet.MaxFrameLen), f, uint32(i), packet.TCPAck, zeros[:payload])
		} else {
			frames[i] = b.Build(make([]byte, packet.MaxFrameLen), f, zeros[:payload])
		}
		ts[i] = vtime.Time(i+1) * vtime.Microsecond
	}
	return newFrameSet(frames, ts)
}

// isoResult is one isolated replay's cost per call.
type isoResult struct{ ns, allocs float64 }

// isoPass accumulates the timed regions of one isolated pass; set-up
// between start and stop calls is neither timed nor charged allocations.
type isoPass struct {
	ns      int64
	objects uint64
	calls   int
	t0      int64
	h0      heap
}

func (p *isoPass) start() {
	p.h0 = readHeap()
	p.t0 = now()
}

func (p *isoPass) stop(calls int) {
	t1 := now()
	p.ns += t1 - p.t0
	p.objects += readHeap().sub(p.h0).objects
	p.calls += calls
}

// isolate repeats pass until budget is spent (at least three passes) and
// returns the median per-call time over passes and the mean allocations
// per call.
func isolate(budget time.Duration, pass func(p *isoPass)) isoResult {
	var perCall []float64
	var calls, objects uint64
	repeatFor(budget, 3, func(int) {
		var p isoPass
		pass(&p)
		calls += uint64(p.calls)
		objects += p.objects
		if p.calls > 0 {
			perCall = append(perCall, float64(p.ns)/float64(p.calls))
		}
	})
	if calls == 0 {
		return isoResult{}
	}
	return isoResult{ns: median(perCall), allocs: float64(objects) / float64(calls)}
}

var sinkU32 uint32

// isoDecode times packet.Decode over the frames.
func (fs *frameSet) isoDecode(budget time.Duration) isoResult {
	var d packet.Decoded
	return isolate(budget, func(p *isoPass) {
		p.start()
		for _, f := range fs.frames {
			if packet.Decode(f, &d) == nil {
				sinkU32 += uint32(d.Flow.SrcPort)
			}
		}
		p.stop(len(fs.frames))
	})
}

// isoRSS times the NIC's Toeplitz flow hash over the frames' flows.
func (fs *frameSet) isoRSS(budget time.Duration) isoResult {
	h := nic.NewFlowHasher(nic.DefaultRSSKey)
	return isolate(budget, func(p *isoPass) {
		p.start()
		for _, f := range fs.flows {
			sinkU32 += h.Hash(f)
		}
		p.stop(len(fs.flows))
	})
}

// isoMatch times the paper's pkt_handler filter, flattened backend.
func (fs *frameSet) isoMatch(budget time.Duration) isoResult {
	flt := bpf.MustCompileFlat("131.225.2 and udp", 65535)
	return isolate(budget, func(p *isoPass) {
		p.start()
		for _, f := range fs.frames {
			if flt.Match(f) {
				sinkU32++
			}
		}
		p.stop(len(fs.frames))
	})
}

// isoFilterChunk times the chunk batch filter "udp" over chunk-sized
// batches; the result is per packet.
func (fs *frameSet) isoFilterChunk(budget time.Duration, chunk int) isoResult {
	flt := bpf.MustCompileFlat("udp", 65535)
	accept := make([]uint64, (chunk+63)/64)
	return isolate(budget, func(p *isoPass) {
		p.start()
		for i := 0; i < len(fs.frames); i += chunk {
			sinkU32 += uint32(flt.FilterChunk(fs.frames[i:min(i+chunk, len(fs.frames))], accept))
		}
		p.stop(len(fs.frames))
	})
}

// isoUpdate times analytics.Stage.Update of the decoded frames into a
// fresh stage of the border_analytics geometry.
func (fs *frameSet) isoUpdate(budget time.Duration) isoResult {
	return isolate(budget, func(p *isoPass) {
		stage := analytics.New(borderAnalytics, nil, nil)
		p.start()
		for i := range fs.dec {
			stage.Update(fs.queue[i], &fs.dec[i], fs.decTS[i])
		}
		p.stop(len(fs.dec))
	})
}

// isoSteer times fleet.Steering.Host, the fleet's per-frame host choice,
// over the frames' flows.
func (fs *frameSet) isoSteer(budget time.Duration) isoResult {
	s := fleet.NewSteering(fleetHosts)
	return isolate(budget, func(p *isoPass) {
		p.start()
		for _, f := range fs.flows {
			sinkU32 += uint32(s.Host(f))
		}
		p.stop(len(fs.flows))
	})
}

// The isolated forms below stand in for a traced-run span on workloads
// whose composed run does not call that layer.

// isoPktHandler times app.PktHandler (X=0, the paper's filter) Cost plus
// Handle per frame.
func (fs *frameSet) isoPktHandler(budget time.Duration) isoResult {
	release := func() {}
	return isolate(budget, func(p *isoPass) {
		h := app.NewPktHandler(0, engines.DefaultCosts(), 1)
		p.start()
		for i, f := range fs.frames {
			sinkU32 += uint32(h.Cost(0, f))
			h.Handle(0, f, fs.ts[i], release)
		}
		p.stop(len(fs.frames))
	})
}

// isoAnalyticsHandler times the border_analytics consumer (decode plus
// stage update) per frame.
func (fs *frameSet) isoAnalyticsHandler(budget time.Duration) isoResult {
	costs := engines.DefaultCosts()
	release := func() {}
	return isolate(budget, func(p *isoPass) {
		h := &analyticsHandler{
			stage: analytics.New(borderAnalytics, nil, nil),
			cost:  costs.AppBase + analytics.DefaultUpdateCost,
			dec:   make([]packet.Decoded, 1),
		}
		p.start()
		for i, f := range fs.frames {
			sinkU32 += uint32(h.Cost(0, f))
			h.Handle(0, f, fs.ts[i], release)
		}
		p.stop(len(fs.frames))
	})
}

// isoDeliver times nic.NIC.Deliver into a 4-queue NIC under a DNA
// engine. Frames are offered in batches of one ring, and the engine
// drains between batches, untimed, so timed calls take the receive
// path rather than the ring-full drop.
func (fs *frameSet) isoDeliver(budget time.Duration) isoResult {
	const ring = 1024
	costs := engines.DefaultCosts()
	return isolate(budget, func(p *isoPass) {
		sched := vtime.NewScheduler()
		n := nic.New(sched, nic.Config{ID: 0, RxQueues: 4, RingSize: ring, Promiscuous: true})
		engines.NewDNA(sched, n, costs, app.NewPktHandler(0, costs, 4))
		for i := 0; i < len(fs.frames); i += ring {
			end := min(i+ring, len(fs.frames))
			p.start()
			for j := i; j < end; j++ {
				n.Deliver(fs.frames[j], sched.Now())
			}
			p.stop(end - i)
			sched.Run()
		}
	})
}
