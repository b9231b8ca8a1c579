package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// runSeconds is how long one benchmark run measures.
const runSeconds = 30

// workloadSpec names a workload and why it is in the benchmark.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"wire_min64", "64-byte frames at 10 GbE line rate into WireCAP-B-(256,100), X=0: per-packet capture cost shows undiluted (nic, core, engines, app, vtime)"},
	{"border_analytics", "border-router trace into WireCAP-A-(128,64,60%) on 4 queues with the udp chunk filter and the analytics stage: the consumer path (bpf, packet, analytics) does the work"},
	{"fleet_storm", "8-host fleet, 4096 flows, at 2 domains through a host kill, a crash-restart and a link flap: steering, aggregation, bus, faults and the PDES executive do the work"},
}

// endToEndMetric is a metric a user of the simulator sees, with the
// share of the parent's median by which it may worsen.
type endToEndMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var endToEnd = []endToEndMetric{
	{"sim_pkts_per_s", "pkt/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"cpu_ns_per_pkt", "ns", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"allocs_per_pkt", "objects", "lower", 0.2},
	{"sim_delivery_ratio", "ratio", "higher", 0.002},
}

// layerMetric is a metric of one layer, reported by the traced run.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var perLayer = []layerMetric{
	{"nic.new_s", "s", "lower"},
	{"core.new_s", "s", "lower"},
	{"bpf.compile_s", "s", "lower"},
	{"analytics.new_s", "s", "lower"},
	{"nic.deliver_ns", "ns", "lower"},
	{"app.handler_ns", "ns", "lower"},
	{"analytics.handler_ns", "ns", "lower"},
	{"vtime.loop_self_ns", "ns", "lower"},
	{"vtime.pending_mean", "events", "lower"},
	{"vtime.pending_max", "events", "lower"},
	{"packet.decode_ns", "ns", "lower"},
	{"packet.decode_allocs", "objects", "lower"},
	{"nic.rss_ns", "ns", "lower"},
	{"nic.rss_allocs", "objects", "lower"},
	{"bpf.match_ns", "ns", "lower"},
	{"bpf.match_allocs", "objects", "lower"},
	{"bpf.filter_chunk_ns", "ns", "lower"},
	{"bpf.filter_chunk_allocs", "objects", "lower"},
	{"analytics.update_ns", "ns", "lower"},
	{"analytics.update_allocs", "objects", "lower"},
	{"fleet.steer_ns", "ns", "lower"},
	{"fleet.steer_allocs", "objects", "lower"},
	{"domain.speedup", "x", "higher"},
	{"obs.record_ns", "ns", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.clock_ns", "ns", "lower"},
	{"nic.capture_drops", "count", "lower"},
	{"core.chunks_captured", "count", "higher"},
	{"core.chunks_offloaded", "count", "higher"},
	{"core.chunk_filtered", "count", "higher"},
	{"core.delivery_drops", "count", "lower"},
	{"app.processed", "count", "higher"},
	{"analytics.updates", "count", "higher"},
	{"analytics.flow_evictions", "count", "lower"},
	{"fleet.aggregated", "count", "higher"},
	{"fleet.host_lost", "count", "lower"},
	{"fleet.inflight_dropped", "count", "lower"},
	{"fleet.batches", "count", "lower"},
	{"fleet.retries", "count", "lower"},
	{"fleet.resteers", "count", "lower"},
	{"fleet.late_merges", "count", "lower"},
}

// allCounts is every per-layer count at zero; a workload overwrites the
// counts of the layers it runs.
func allCounts() counts {
	c := counts{}
	for _, m := range perLayer {
		if m.Unit == "count" {
			c[m.Name] = 0
		}
	}
	return c
}

// checkMetricSet fails unless b reports exactly the metrics of its mode,
// each with its declared unit.
func (b *runner) checkMetricSet(traced bool) error {
	want := map[string]string{}
	if traced {
		for _, m := range perLayer {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range endToEnd {
			want[m.Name] = m.Unit
		}
	}
	for name, unit := range want {
		got, ok := b.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s not measured", name)
		}
		if got.Unit != unit {
			return fmt.Errorf("metric %s in %s, declared %s", name, got.Unit, unit)
		}
	}
	if len(b.metrics) != len(want) {
		return fmt.Errorf("%d metrics measured, %d declared", len(b.metrics), len(want))
	}
	return nil
}

// writeBenchmarkJSON writes the repository's BENCHMARK.json from the
// tables above, so the file and the program cannot drift apart.
func writeBenchmarkJSON(path string) error {
	doc := struct {
		Command    []string         `json:"command"`
		Paths      []string         `json:"paths"`
		RunSeconds int              `json:"run_seconds"`
		Workloads  []workloadSpec   `json:"workloads"`
		EndToEnd   []endToEndMetric `json:"end_to_end"`
		PerLayer   []layerMetric    `json:"per_layer"`
	}{
		Command:    []string{"bash", "_wirebench/run.sh"},
		Paths:      []string{"_wirebench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
