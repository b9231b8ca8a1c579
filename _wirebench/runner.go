package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/fleet"
)

// sampleEvery is the traced run's sampling period: one call in this
// many is timed at each layer boundary.
const sampleEvery = 16

// Shares of the budget of a traced (-trace 1) invocation.
const (
	shareUntraced = 0.25 // plain runs: constructor times, overhead baseline
	shareTraced   = 0.35 // sampled-span runs (fleet: d1/d2 pairs)
	shareObs      = 0.15 // flight-recorder on/off pairs
	shareIsolated = 0.25 // isolated per-layer replays
)

func (b *runner) share(f float64) time.Duration { return time.Duration(float64(b.budget) * f) }

// hostSample is one single-host run's measurements.
type hostSample struct {
	setupNs, runNs, cpuNs int64
	total, run            heap // set-up plus run; run phase alone
	sent                  uint64
	ctor                  ctorTimes
	rep                   bench.RunReport
	tr                    *tracer // the traced run's instrumentation, if any
}

// hostRep builds and runs the workload once. The heap is collected first
// so no run pays for the previous one's garbage.
func (b *runner) hostRep(w *hostWorkload, o buildOpts) (hostSample, error) {
	runtime.GC()
	h0 := readHeap()
	t0 := now()
	r, err := w.build(o)
	if err != nil {
		return hostSample{}, err
	}
	t1 := now()
	h1 := readHeap()
	c0 := cpuNs()
	t2 := now()
	if o.tr != nil {
		o.tr.runPhase()
	} else {
		r.sched.Run()
	}
	t3 := now()
	c1 := cpuNs()
	h2 := readHeap()
	return hostSample{
		setupNs: t1 - t0, runNs: t3 - t2, cpuNs: c1 - c0,
		total: h2.sub(h0), run: h2.sub(h1),
		sent: r.drive.Sent, ctor: r.ctor, rep: r.report(), tr: o.tr,
	}, nil
}

// hostCheck verifies one run against the reference report and, when the
// seed has one, the committed outcome.
func (b *runner) hostCheck(what string, s hostSample, err error, ref bench.RunReport) bool {
	if err == nil && s.rep.Digest() != ref.Digest() {
		err = fmt.Errorf("digest %s != reference %s: %s", s.rep.Digest(), ref.Digest(), diffReports(s.rep, ref))
	}
	if err == nil && b.hasCommit {
		err = b.committed.check(hostOutcome(s.rep))
	}
	return b.check(what, err)
}

// hostReps repeats runs with the given options for the budget (at least
// min runs) and returns the samples of the runs that passed their check.
func (b *runner) hostReps(what string, w *hostWorkload, budget time.Duration, min int,
	opts func(i int) buildOpts, ref bench.RunReport) []hostSample {
	var out []hostSample
	repeatFor(budget, min, func(i int) {
		s, err := b.hostRep(w, opts(i))
		if b.hostCheck(fmt.Sprintf("%s run %d", what, i), s, err, ref) {
			out = append(out, s)
		}
	})
	return out
}

func plain(int) buildOpts { return buildOpts{} }

func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return median(v)
}

func (b *runner) runHost(name string, seed uint64, traced bool) error {
	w, err := newHostWorkload(name, seed)
	if err != nil {
		return err
	}
	t0 := now()
	w.record()
	fmt.Printf("replay: %d packets, %.1f MB, recorded in %.2f s (not timed)\n",
		w.replay.Len(), float64(w.replay.Bytes())/1e6, float64(now()-t0)/1e9)
	ref, err := w.reference()
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if b.hasCommit {
		if err := b.committed.check(hostOutcome(ref)); err != nil {
			b.fail("reference run vs committed.json: %v", err)
		}
	}
	// Equivalence: the replay-fed composed run must reproduce the
	// harness entry point exactly before anything is timed.
	s, err := b.hostRep(w, buildOpts{})
	if err == nil && s.rep.Digest() != ref.Digest() {
		b.fail("composed run does not reproduce the reference entry point: %s", diffReports(s.rep, ref))
	}
	b.hostCheck("equivalence run", s, err, ref)
	if traced {
		return b.hostTraced(w, ref)
	}
	samples := b.hostReps("timed", w, b.budget, 5, plain, ref)
	b.set("sim_pkts_per_s", medianOf(samples, func(s hostSample) float64 {
		return float64(s.sent) / (float64(s.runNs) / 1e9)
	}), "pkt/s")
	b.set("setup_s", medianOf(samples, func(s hostSample) float64 { return float64(s.setupNs) / 1e9 }), "s")
	b.set("cpu_ns_per_pkt", medianOf(samples, func(s hostSample) float64 {
		return float64(s.cpuNs) / float64(s.sent)
	}), "ns")
	b.set("alloc_mb", medianOf(samples, func(s hostSample) float64 { return float64(s.total.bytes) / 1e6 }), "MB")
	b.set("allocs_per_pkt", medianOf(samples, func(s hostSample) float64 {
		return float64(s.run.objects) / float64(s.sent)
	}), "objects")
	b.set("sim_delivery_ratio", 1-ref.DropRate, "ratio")
	return b.checkMetricSet(false)
}

// hostTraced is the -trace 1 invocation of a single-host workload.
func (b *runner) hostTraced(w *hostWorkload, ref bench.RunReport) error {
	clock := clockCost()
	b.set("trace.clock_ns", clock, "ns")

	plainRuns := b.hostReps("untraced", w, b.share(shareUntraced), 3, plain, ref)
	b.setCtors(plainRuns, w)

	tracedRuns := b.hostReps("traced", w, b.share(shareTraced), 3, func(i int) buildOpts {
		tr := newTracer(sampleEvery, clock, &b.store, int32(i))
		return buildOpts{tr: tr}
	}, ref)
	if len(tracedRuns) == 0 {
		return fmt.Errorf("every traced run failed its check")
	}
	b.set("nic.deliver_ns", medianOf(tracedRuns, func(s hostSample) float64 { return s.tr.deliver.perCall() }), "ns")
	b.set("vtime.loop_self_ns", medianOf(tracedRuns, func(s hostSample) float64 {
		return s.tr.loopSelf(s.runNs) / float64(s.sent)
	}), "ns")
	// The event-queue depth at each call is deterministic: one run says it all.
	t0 := tracedRuns[0].tr
	b.set("vtime.pending_mean", float64(t0.pendSum)/float64(max(1, t0.pendN)), "events")
	b.set("vtime.pending_max", float64(t0.pendMax), "events")
	handler := medianOf(tracedRuns, func(s hostSample) float64 { return s.tr.handlerPerPacket() })
	b.set("trace.overhead_ratio",
		medianOf(tracedRuns, func(s hostSample) float64 { return float64(s.runNs) })/
			medianOf(plainRuns, func(s hostSample) float64 { return float64(s.runNs) }), "ratio")

	b.hostObs(w, ref)

	fs := replayFrames(w.replay)
	iso := b.isolated(fs, w.spec().R, 7)
	if w.constant != nil {
		b.set("app.handler_ns", handler, "ns")
		b.set("analytics.handler_ns", fs.isoAnalyticsHandler(iso).ns, "ns")
	} else {
		b.set("analytics.handler_ns", handler, "ns")
		b.set("app.handler_ns", fs.isoPktHandler(iso).ns, "ns")
	}
	b.set("domain.speedup", 0, "x") // one host is one structural unit: nothing to parallelize
	b.setCounts(hostCounts(ref))
	return b.checkMetricSet(true)
}

// hostObs measures the flight recorder's cost: alternating runs without
// and with a recorder on the NIC (and, on border_analytics, the stage).
func (b *runner) hostObs(w *hostWorkload, ref bench.RunReport) {
	var off, on []float64
	var sent uint64
	repeatFor(b.share(shareObs), 2, func(i int) {
		for _, rec := range []bool{false, true} {
			o := buildOpts{}
			if rec {
				o.rec = bench.NewRecorder()
			}
			s, err := b.hostRep(w, o)
			if !b.hostCheck(fmt.Sprintf("recorder=%v run %d", rec, i), s, err, ref) {
				continue
			}
			sent = s.sent
			if rec {
				on = append(on, float64(s.runNs))
			} else {
				off = append(off, float64(s.runNs))
			}
		}
	})
	b.set("obs.record_ns", (median(on)-median(off))/float64(max(1, sent)), "ns")
}

// setCtors reports the constructor times. A layer the workload does not
// build is timed at the border_analytics geometry, so every workload
// reports every constructor.
func (b *runner) setCtors(runs []hostSample, w *hostWorkload) {
	med := func(f func(c ctorTimes) int64) float64 {
		return medianOf(runs, func(s hostSample) float64 { return float64(f(s.ctor)) / 1e9 })
	}
	var probe func(f func(c ctorTimes) int64) float64
	if w == nil || w.border == nil {
		probe = b.probeCtors()
	}
	pick := func(built bool, f func(c ctorTimes) int64) float64 {
		if built {
			return med(f)
		}
		return probe(f)
	}
	b.set("nic.new_s", pick(w != nil, func(c ctorTimes) int64 { return c.nic }), "s")
	b.set("core.new_s", pick(w != nil, func(c ctorTimes) int64 { return c.core }), "s")
	b.set("bpf.compile_s", pick(w != nil, func(c ctorTimes) int64 { return c.bpf }), "s")
	b.set("analytics.new_s", pick(w != nil && w.border != nil, func(c ctorTimes) int64 { return c.analytics }), "s")
}

// probeCtors times the set-up of a border_analytics-geometry host over
// an empty replay, several times, and returns a median reader.
func (b *runner) probeCtors() func(f func(c ctorTimes) int64) float64 {
	w := &hostWorkload{name: "ctor_probe", border: borderConfig(0), replay: &Replay{}}
	var ctors []ctorTimes
	for i := 0; i < 9; i++ {
		runtime.GC()
		r, err := w.build(buildOpts{})
		if err != nil {
			panic(err) // the fixed border geometry always builds
		}
		ctors = append(ctors, r.ctor)
	}
	return func(f func(c ctorTimes) int64) float64 {
		return medianOf(ctors, func(c ctorTimes) float64 { return float64(f(c)) / 1e9 })
	}
}

// isolated runs the six isolated per-layer replays over fs, FilterChunk
// in batches of chunk frames (the engine's cells per chunk). It splits
// the isolated share of the budget into parts equal slices, six for
// itself, and returns the slice each further stand-in replay gets.
func (b *runner) isolated(fs *frameSet, chunk, parts int) time.Duration {
	slice := b.share(shareIsolated) / time.Duration(parts)
	set := func(name string, r isoResult) {
		b.set(name+"_ns", r.ns, "ns")
		b.set(name+"_allocs", r.allocs, "objects")
	}
	set("packet.decode", fs.isoDecode(slice))
	set("nic.rss", fs.isoRSS(slice))
	set("bpf.match", fs.isoMatch(slice))
	set("bpf.filter_chunk", fs.isoFilterChunk(slice, chunk))
	set("analytics.update", fs.isoUpdate(slice))
	set("fleet.steer", fs.isoSteer(slice))
	return slice
}

func (b *runner) setCounts(c counts) {
	all := allCounts()
	for k, v := range c {
		all[k] = v
	}
	for k, v := range all {
		b.set(k, v, "count")
	}
}

// fleetSample is one fleet_storm run's measurements.
type fleetSample struct {
	start                 int64 // when the timed fleet.Run began
	setupNs, runNs, cpuNs int64
	run                   heap
	rep                   fleet.Report
}

// fleetRep runs fleet_storm once. With setup, it first times the same
// configuration over a one-packet stream: fleet.Run has no seam between
// building and running, so that stands in for set-up time.
func (b *runner) fleetRep(seed uint64, domains int, traced, setup bool) (fleetSample, error) {
	runtime.GC()
	var s fleetSample
	if setup {
		t0 := now()
		if _, err := runFleet(fleetStorm(seed, 1, domains)); err != nil {
			return s, err
		}
		s.setupNs = now() - t0
	}
	cfg := fleetStorm(seed, fleetPackets, domains)
	cfg.Traced = traced
	h0 := readHeap()
	c0 := cpuNs()
	t0 := now()
	rep, err := runFleet(cfg)
	t1 := now()
	c1 := cpuNs()
	s.run = readHeap().sub(h0)
	s.start, s.runNs, s.cpuNs, s.rep = t0, t1-t0, c1-c0, rep
	return s, err
}

func (b *runner) fleetCheck(what string, s fleetSample, err error, ref fleet.Report) bool {
	if err == nil {
		err = checkFleet(s.rep, ref)
	}
	if err == nil && s.rep.LateMerges != 0 {
		err = fmt.Errorf("%d late merges: the merged feed left global order", s.rep.LateMerges)
	}
	if err == nil && b.hasCommit {
		err = b.committed.check(fleetOutcome(s.rep))
	}
	return b.check(what, err)
}

func (b *runner) runFleet(seed uint64, traced bool) error {
	d := fleetDomains()
	// The reference is the sequential executive; every timed run is at
	// d domains and must digest identically.
	ref, err := runFleet(fleetStorm(seed, fleetPackets, 1))
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if b.hasCommit {
		if err := b.committed.check(fleetOutcome(ref)); err != nil {
			b.fail("reference run vs committed.json: %v", err)
		}
	}
	if traced {
		return b.fleetTraced(seed, d, ref)
	}
	var samples []fleetSample
	repeatFor(b.budget, 5, func(i int) {
		s, err := b.fleetRep(seed, d, false, true)
		if b.fleetCheck(fmt.Sprintf("timed run %d (%d domains)", i, d), s, err, ref) {
			samples = append(samples, s)
		}
	})
	sent := float64(ref.FleetSent)
	b.set("sim_pkts_per_s", medianOf(samples, func(s fleetSample) float64 {
		return sent / (float64(s.runNs) / 1e9)
	}), "pkt/s")
	b.set("setup_s", medianOf(samples, func(s fleetSample) float64 { return float64(s.setupNs) / 1e9 }), "s")
	b.set("cpu_ns_per_pkt", medianOf(samples, func(s fleetSample) float64 { return float64(s.cpuNs) / sent }), "ns")
	b.set("alloc_mb", medianOf(samples, func(s fleetSample) float64 { return float64(s.run.bytes) / 1e6 }), "MB")
	b.set("allocs_per_pkt", medianOf(samples, func(s fleetSample) float64 { return float64(s.run.objects) / sent }), "objects")
	b.set("sim_delivery_ratio", ref.Delivery, "ratio")
	return b.checkMetricSet(false)
}

// fleetTraced is the -trace 1 invocation of fleet_storm. The fleet's
// layers run inside fleet.Run, so its traced run is a root span per run;
// the single-host layers it bypasses are measured in isolation.
func (b *runner) fleetTraced(seed uint64, d int, ref fleet.Report) error {
	clock := clockCost()
	b.set("trace.clock_ns", clock, "ns")
	sent := float64(ref.FleetSent)
	wall := func(ss []fleetSample) float64 {
		return medianOf(ss, func(s fleetSample) float64 { return float64(s.runNs) })
	}

	var plainRuns []fleetSample
	repeatFor(b.share(shareUntraced), 3, func(i int) {
		s, err := b.fleetRep(seed, d, false, false)
		if b.fleetCheck(fmt.Sprintf("untraced run %d", i), s, err, ref) {
			plainRuns = append(plainRuns, s)
		}
	})

	// Sequential against parallel executive, alternating; the digests
	// must agree (placement independence).
	var d1, dN []fleetSample
	repeatFor(b.share(shareTraced), 2, func(i int) {
		for _, dom := range []int{1, d} {
			s, err := b.fleetRep(seed, dom, false, false)
			if !b.fleetCheck(fmt.Sprintf("%d-domain run %d", dom, i), s, err, ref) {
				continue
			}
			run := int32(len(d1) + len(dN))
			b.store.add(span{name: spanFleetRun, run: run, parent: -1, start: s.start, end: s.start + s.runNs})
			if dom == 1 {
				d1 = append(d1, s)
			} else {
				dN = append(dN, s)
			}
		}
	})
	b.set("domain.speedup", wall(d1)/wall(dN), "x")
	b.set("vtime.loop_self_ns", wall(dN)/sent, "ns")
	b.set("trace.overhead_ratio", wall(dN)/wall(plainRuns), "ratio")
	b.set("vtime.pending_mean", 0, "events") // the fleet's schedulers are internal to fleet.Run
	b.set("vtime.pending_max", 0, "events")

	var off, on []fleetSample
	repeatFor(b.share(shareObs), 2, func(i int) {
		for _, traced := range []bool{false, true} {
			s, err := b.fleetRep(seed, d, traced, false)
			if !b.fleetCheck(fmt.Sprintf("traced=%v run %d", traced, i), s, err, ref) {
				continue
			}
			if traced {
				on = append(on, s)
			} else {
				off = append(off, s)
			}
		}
	})
	b.set("obs.record_ns", (wall(on)-wall(off))/sent, "ns")

	b.setCtors(nil, nil)
	fs := fleetFrames(seed)
	iso := b.isolated(fs, borderConfig(0).Spec.R, 9)
	b.set("nic.deliver_ns", fs.isoDeliver(iso).ns, "ns")
	b.set("app.handler_ns", fs.isoPktHandler(iso).ns, "ns")
	b.set("analytics.handler_ns", fs.isoAnalyticsHandler(iso).ns, "ns")
	b.setCounts(fleetCounts(ref))
	return b.checkMetricSet(true)
}
