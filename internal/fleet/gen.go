package fleet

import (
	"repro/internal/packet"
	"repro/internal/vtime"
)

// wireFrame is one offered frame of the shared stream, stored compactly:
// the flow-local sequence number the stream stamped (the ground truth
// the per-flow order property is checked against), the flow's index in
// the flow population, and the frame length.
type wireFrame struct {
	flowSeq uint64
	flow    uint32
	len     uint32
}

// wire is the fleet's shared traffic: a constant-rate stream over a
// fixed flow population with seeded per-packet flow choice and sizes,
// drawn once before the run. It models one tapped wire fanned out to
// every capture box: each host walks the same frames at the same
// virtual times and captures exactly those its steering replica assigns
// to it, so the offered stream can never depend on placement. Hosts
// only read it during the run, so domains share it without
// synchronization.
type wire struct {
	flows []packet.FlowKey
	// hash is each flow's steering hash, filled in when the flow is
	// first drawn; hosts look ownership up by it instead of re-hashing
	// the tuple per frame.
	hash     []uint32
	frames   []wireFrame
	interval vtime.Time
}

// newFlowPool derives the deterministic flow population.
func newFlowPool(seed uint64, flows int) []packet.FlowKey {
	r := vtime.NewRand(vtime.SplitSeed(seed, 0xf10))
	pool := make([]packet.FlowKey, flows)
	for i := range pool {
		proto := packet.ProtoUDP
		if r.Intn(2) == 0 {
			proto = packet.ProtoTCP
		}
		pool[i] = packet.FlowKey{
			Src:     packet.IPv4{10, byte(r.Intn(4)), byte(r.Intn(256)), byte(r.Intn(256))},
			Dst:     packet.IPv4{192, 168, byte(r.Intn(16)), byte(r.Intn(256))},
			SrcPort: uint16(1024 + r.Intn(60000)),
			DstPort: uint16(1 + r.Intn(1024)),
			Proto:   proto,
		}
	}
	return pool
}

// drawWire draws the whole offered stream: per frame a flow, then a
// length, from one RNG split off the traffic seed. Only drawn flows are
// hashed, so the cost scales with packets, not with the population.
func drawWire(seed uint64, flows []packet.FlowKey, packets uint64,
	interval vtime.Time, steer *Steering) *wire {
	r := vtime.NewRand(vtime.SplitSeed(seed, 0x9e1))
	w := &wire{
		flows:    flows,
		hash:     make([]uint32, len(flows)),
		frames:   make([]wireFrame, packets),
		interval: interval,
	}
	seq := make([]uint64, len(flows))
	for i := range w.frames {
		idx := r.Intn(len(flows))
		if seq[idx] == 0 {
			w.hash[idx] = steer.Hash(flows[idx])
		}
		seq[idx]++
		w.frames[i] = wireFrame{flowSeq: seq[idx], flow: uint32(idx), len: uint32(60 + r.Intn(1200))}
	}
	return w
}
