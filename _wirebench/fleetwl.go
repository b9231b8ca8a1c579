package main

import (
	"fmt"
	"runtime"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/vtime"
)

const (
	// fleetPackets is one fleet_storm run: 100 ms of virtual time at the
	// fleet's default 1 Mp/s.
	fleetPackets = 100_000
	fleetHosts   = 8
	fleetFlows   = 4096
)

// fleetDomains is the parallel executive's domain count for the timed
// runs: one per CPU, never more workers than CPUs.
func fleetDomains() int { return max(1, min(2, runtime.NumCPU())) }

// fleetStorm is the fleet_storm configuration for a seed and domain
// count. The storm is placed at fixed fractions of the run: a permanent
// host kill at 25%, a crash of another host at 45% that restarts 20% of
// the run later, and an aggregation-link flap at 65%.
func fleetStorm(seed uint64, packets uint64, domains int) fleet.Config {
	dur := vtime.Time(fleetPackets) * vtime.Microsecond // 1 Mp/s
	at := func(pct int64) vtime.Time { return dur * vtime.Time(pct) / 100 }
	return fleet.Config{
		Hosts: fleetHosts, Packets: packets, Flows: fleetFlows, Seed: seed,
		Domains: domains, Workers: domains,
		Faults: faults.Schedule{
			{Kind: faults.HostCrash, NIC: 1, At: at(25)},
			{Kind: faults.HostCrash, NIC: 4, At: at(45), Dur: at(20)},
			{Kind: faults.AggLinkDown, NIC: 2, At: at(65), Dur: 600 * vtime.Microsecond},
		},
	}
}

// runFleet executes one fleet_storm run.
func runFleet(cfg fleet.Config) (fleet.Report, error) {
	res, err := fleet.Run("fleet_storm", cfg)
	if err != nil {
		return fleet.Report{}, err
	}
	return res.Report, nil
}

// fleetCounts reads the per-layer counts of a fleet run.
func fleetCounts(r fleet.Report) counts {
	var retries uint64
	for _, h := range r.PerHost {
		retries += h.Retries
	}
	return counts{
		"fleet.aggregated":       float64(r.Aggregated),
		"fleet.host_lost":        float64(r.HostLost),
		"fleet.inflight_dropped": float64(r.InFlightDropped),
		"fleet.batches":          float64(r.Batches),
		"fleet.retries":          float64(retries),
		"fleet.resteers":         float64(r.ReSteers),
		"fleet.late_merges":      float64(r.LateMerges),
	}
}

// fleetKeyMetrics flattens a fleet report's headline numbers, the fleet
// counterpart of RunReport.KeyMetrics.
func fleetKeyMetrics(r fleet.Report) counts {
	return counts{
		"fleet_sent":           float64(r.FleetSent),
		"wire_dropped":         float64(r.WireDropped),
		"capture_dropped":      float64(r.CaptureDropped),
		"fleet_received":       float64(r.FleetReceived),
		"aggregated":           float64(r.Aggregated),
		"host_lost":            float64(r.HostLost),
		"inflight_dropped":     float64(r.InFlightDropped),
		"stale_rejected":       float64(r.StaleRejected),
		"delivery":             r.Delivery,
		"late_merges":          float64(r.LateMerges),
		"quarantines":          float64(r.Quarantines),
		"readmissions":         float64(r.Readmissions),
		"resteers":             float64(r.ReSteers),
		"steer_moves":          float64(r.SteerMoves),
		"analytics_aggregated": float64(r.AnalyticsAggregated),
		"analytics_shed":       float64(r.AnalyticsShed),
		"batches":              float64(r.Batches),
		"end_ns":               float64(r.EndNs),
	}
}

// fleetOutcome is what committed.json records of a fleet run.
func fleetOutcome(r fleet.Report) committedRun {
	return committedRun{Digest: r.Digest(), Counts: fleetCounts(r), KeyMetrics: fleetKeyMetrics(r)}
}

// checkFleet compares a fleet report against the reference run's.
func checkFleet(got, want fleet.Report) error {
	if got.Digest() == want.Digest() {
		return nil
	}
	if d := fleetKeyMetrics(got).firstDiff(fleetKeyMetrics(want)); d != "" {
		return fmt.Errorf("fleet digest %s != reference %s: %s", got.Digest(), want.Digest(), d)
	}
	return fmt.Errorf("fleet digest %s != reference %s with every key metric equal: feed ledger %s vs %s",
		got.Digest(), want.Digest(), got.Ledger, want.Ledger)
}
