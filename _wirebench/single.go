package main

import (
	"fmt"

	"repro/internal/analytics"
	"repro/internal/app"
	"repro/internal/bench"
	"repro/internal/bpf"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// hostWorkload is a single-host workload: one engine over one NIC, fed
// from a replay recorded off the program's own generator. Exactly one of
// constant and border is set; it is also the reference configuration the
// composed run must reproduce bit for bit.
type hostWorkload struct {
	name     string
	constant *bench.ConstantRun
	border   *bench.AnalyticsRun
	replay   *Replay
}

const (
	// wireMin64Packets is one wire_min64 run: 1/30 s of 10 GbE line rate.
	wireMin64Packets = 500_000
	// borderSeconds is one border_analytics run in virtual seconds: about
	// 93 000 frames, a 38 MB replay.
	borderSeconds = 0.8
)

// borderAnalytics is the analytics stage geometry of border_analytics.
var borderAnalytics = analytics.Config{FlowCapacity: 512, TopK: 16, Superspreaders: 16}

func wireConfig(seed uint64) *bench.ConstantRun {
	return &bench.ConstantRun{
		Spec: bench.WireCAPB(256, 100), Packets: wireMin64Packets, X: 0,
		FrameLen: 60, Seed: seed,
	}
}

func borderConfig(seed uint64) *bench.AnalyticsRun {
	return &bench.AnalyticsRun{
		Spec: bench.WireCAPA(128, 64, 60), Queues: 4,
		Seconds: borderSeconds, Scale: 1, Seed: seed,
		Filter: "udp", Analytics: borderAnalytics,
	}
}

// newHostWorkload configures a single-host workload; record fills its
// replay.
func newHostWorkload(name string, seed uint64) (*hostWorkload, error) {
	switch name {
	case "wire_min64":
		return &hostWorkload{name: name, constant: wireConfig(seed)}, nil
	case "border_analytics":
		return &hostWorkload{name: name, border: borderConfig(seed)}, nil
	}
	return nil, fmt.Errorf("%q is not a single-host workload", name)
}

// record runs the program's own generator for the workload's config and
// seed into the replay buffer.
func (w *hostWorkload) record() {
	if c := w.constant; c != nil {
		w.replay = Record(trace.NewConstantRate(trace.ConstantRateConfig{
			Packets: c.Packets, FrameLen: c.FrameLen,
			LineRateBps: nic.LineRate10G, Seed: c.Seed,
		}))
		return
	}
	c := w.border
	w.replay = Record(trace.NewBorder(trace.BorderConfig{
		Queues:   c.Queues,
		Duration: vtime.Time(c.Seconds * float64(vtime.Second)),
		Scale:    c.Scale, Seed: c.Seed,
	}))
}

func (w *hostWorkload) spec() bench.EngineSpec {
	if w.constant != nil {
		return w.constant.Spec
	}
	return w.border.Spec
}

// reference runs the unmodified harness entry point for the same config
// and seed. It regenerates the traffic itself, so it is never timed.
func (w *hostWorkload) reference() (bench.RunReport, error) {
	var res bench.Result
	var err error
	if w.constant != nil {
		res, err = bench.RunConstant(*w.constant)
	} else {
		res, err = bench.RunAnalytics(*w.border)
	}
	if err != nil {
		return bench.RunReport{}, err
	}
	return res.Report(w.name), nil
}

// ctorTimes are the set-up constructor times of one run, in ns.
type ctorTimes struct{ nic, core, bpf, analytics int64 }

// buildOpts selects a run's observers. The zero value is the plain,
// untraced run.
type buildOpts struct {
	rec *obs.Recorder // flight recorder (obs.record_ns)
	tr  *tracer       // traced run: wraps the consumer and feeds the NIC
}

// hostRun is one composed run, assembled from the layers' public APIs in
// the construction order of bench.RunConstant / bench.RunAnalytics.
type hostRun struct {
	w     *hostWorkload
	sched *vtime.Scheduler
	reg   *metrics.Registry
	eng   engines.Engine
	pkt   *app.PktHandler
	stage *analytics.Stage
	drive *trace.DriveStats
	ctor  ctorTimes
}

// build is the set-up phase: from config to the first pending event.
func (w *hostWorkload) build(o buildOpts) (*hostRun, error) {
	r := &hostRun{w: w}
	t0 := now()
	r.sched = vtime.NewScheduler()
	r.reg = metrics.NewRegistry()
	queues := 1
	if w.border != nil {
		queues = w.border.Queues
	}
	n := nic.New(r.sched, nic.Config{
		ID: 0, RxQueues: queues, RingSize: 1024, Promiscuous: true,
		Metrics: r.reg, Trace: o.rec,
	})
	t1 := now()
	r.ctor.nic = t1 - t0
	costs := engines.DefaultCosts()
	var h engines.Handler
	var mutate func(*core.Config)
	if c := w.constant; c != nil {
		r.pkt = app.NewPktHandler(c.X, costs, 1) // compiles the paper's filter
		r.ctor.bpf = now() - t1
		h = r.pkt
	} else {
		c := w.border
		r.stage = analytics.New(c.Analytics, r.reg, o.rec)
		t2 := now()
		r.ctor.analytics = t2 - t1
		h = &analyticsHandler{
			stage: r.stage,
			cost:  costs.AppBase + analytics.DefaultUpdateCost,
			dec:   make([]packet.Decoded, queues),
		}
		flt, err := bpf.CompileFlat(c.Filter, 65535)
		if err != nil {
			return nil, err
		}
		r.ctor.bpf = now() - t2
		mutate = func(cc *core.Config) { cc.ChunkFilter = flt }
	}
	if o.tr != nil {
		h = o.tr.wrap(h)
	}
	t3 := now()
	eng, err := w.spec().BuildWith(r.sched, n, costs, h, mutate)
	if err != nil {
		return nil, err
	}
	r.eng = eng
	r.ctor.core = now() - t3
	if o.tr != nil {
		r.drive = o.tr.drive(r.sched, n, w.replay.Source())
	} else {
		r.drive = trace.Drive(r.sched, n, w.replay.Source(), nil)
	}
	return r, nil
}

// report assembles the same RunReport the reference entry point returns.
func (r *hostRun) report() bench.RunReport {
	res := bench.Result{
		Spec: r.w.spec(), Sent: r.drive.Sent, Stats: r.eng.Stats(),
		Handler: r.pkt, Metrics: r.reg, End: r.sched.Now(),
	}
	if r.stage != nil {
		res.Analytics = r.stage.Report()
	}
	return res.Report(r.w.name)
}

// analyticsHandler is the consumer of border_analytics: one decode and
// one stage update per delivered packet, the same work and virtual cost
// as the harness's own analytics consumer.
type analyticsHandler struct {
	stage *analytics.Stage
	cost  vtime.Time
	dec   []packet.Decoded
}

func (h *analyticsHandler) Cost(int, []byte) vtime.Time { return h.cost }

func (h *analyticsHandler) Handle(q int, data []byte, ts vtime.Time, done func()) {
	d := &h.dec[q]
	if err := packet.Decode(data, d); err != nil {
		h.stage.NoteUndecodable()
		done()
		return
	}
	h.stage.Update(q, d, ts)
	done()
}

// hostCounts reads the per-layer counts of a single-host run.
func hostCounts(rep bench.RunReport) counts {
	km := rep.KeyMetrics()
	return counts{
		"nic.capture_drops":        km["capture_drops"],
		"core.chunks_captured":     km["chunks_captured"],
		"core.chunks_offloaded":    km["chunks_offloaded"],
		"core.chunk_filtered":      km["chunk_filtered"],
		"core.delivery_drops":      km["delivery_drops"],
		"app.processed":            km["processed"],
		"analytics.updates":        km["analytics_updates"],
		"analytics.flow_evictions": km["analytics_flow_evictions"],
	}
}

// hostOutcome is what committed.json records of a single-host run.
func hostOutcome(rep bench.RunReport) committedRun {
	return committedRun{Digest: rep.Digest(), Counts: hostCounts(rep), KeyMetrics: rep.KeyMetrics()}
}

// diffReports names the first KeyMetrics entry on which two reports
// disagree, so a digest mismatch is never reported as a bare hash.
func diffReports(got, want bench.RunReport) string {
	g, w := got.KeyMetrics(), want.KeyMetrics()
	if d := counts(g).firstDiff(counts(w)); d != "" {
		return d
	}
	return fmt.Sprintf("digest %s != %s with every KeyMetrics entry equal", got.Digest(), want.Digest())
}
