// IDS: a snort-like intrusion detection monitor — the heavy-load
// application class the paper's x=300 pkt_handler emulates — rebuilt on
// the line-rate consumer path. The engine batch-filters whole chunks
// down to IP traffic before anything reaches the callback (the compiled
// filter's per-chunk entry point), each surviving packet runs a rule set
// of compiled filters (fused predicates, or the BPF interpreter for the
// negated and arithmetic rules), and a streaming analytics stage tracks
// superspreaders so port scans surface even when no single rule fires.
// The per-packet inspection cost is declared so the capture engine sees
// a realistic ~39 kp/s consumer, and WireCAP's advanced mode keeps the
// monitor lossless across load imbalance where basic mode drops packets
// (and therefore misses alerts).
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/analytics"
	"repro/internal/packet"
	"repro/internal/vtime"
	"repro/wirecap"
)

// rule is one detection signature: a compiled BPF filter plus a name.
type rule struct {
	name   string
	filter *wirecap.Filter
	hits   uint64
}

func newRules() []*rule {
	specs := []struct{ name, expr string }{
		{"dns-from-outside", "udp and dst port 53 and not src net 131.225"},
		{"telnet", "tcp port 23"},
		{"lab-udp", "udp and net 131.225.2"},
		{"syn-segments", "tcp[13] & 2 != 0"}, // arithmetic filter: SYN bit
		{"low-ttl", "ip[8] < 5"},
		{"web", "tcp and (port 80 or port 443)"},
	}
	var rules []*rule
	for _, s := range specs {
		f, err := wirecap.CompileFilter(s.expr)
		if err != nil {
			log.Fatalf("rule %s: %v", s.name, err)
		}
		rules = append(rules, &rule{name: s.name, filter: f})
	}
	return rules
}

// run replays the border-router workload through the IDS and reports
// drops, alert counts, and the analytics stage's scan report.
func run(advanced bool) (st wirecap.Stats, offered uint64, rules []*rule, rep *analytics.Report) {
	sim := wirecap.NewSim()
	nic := sim.NewNIC(wirecap.NICConfig{Queues: 6})
	eng, err := sim.NewEngine(nic, wirecap.Options{
		M: 256, R: 100, Advanced: advanced,
		// The rule set only inspects IP traffic, so reject everything
		// else chunk-at-a-time before it costs a callback.
		BatchFilter: "ip",
	})
	if err != nil {
		log.Fatal(err)
	}
	rules = newRules()
	stage := analytics.New(analytics.Config{Superspreaders: 16}, nil, nil)
	for q := 0; q < nic.Queues(); q++ {
		queue := q
		h := eng.Queue(q)
		// Declare the snort-like inspection cost: ~25.7 us/packet, the
		// paper's x=300 calibration point (38,844 p/s per core).
		h.SetProcessingCost(25744 * time.Nanosecond)
		var dec packet.Decoded
		h.Loop(func(p *wirecap.Packet) {
			for _, r := range rules {
				if r.filter.Match(p.Data) {
					r.hits++
				}
			}
			if packet.Decode(p.Data, &dec) == nil {
				stage.Update(queue, &dec, vtime.Time(p.Timestamp))
			}
		})
	}
	traffic := sim.ReplayBorder(nic, wirecap.BorderOptions{Seconds: 3, Seed: 7})
	sim.Run()
	return eng.Stats(), traffic.Sent(), rules, stage.Report()
}

func report(st wirecap.Stats, offered uint64, rules []*rule, rep *analytics.Report) {
	fmt.Printf("offered %d, dropped %d (%.1f%%), batch-filtered %d non-IP\n",
		offered, st.CaptureDrops, 100*float64(st.CaptureDrops)/float64(offered),
		st.BatchFiltered)
	for _, r := range rules {
		fmt.Printf("  %-18s %8d\n", r.name, r.hits)
	}
	fmt.Println("  scan candidates (distinct destinations per source):")
	for i, sp := range rep.Superspreaders {
		if i >= 3 {
			break
		}
		fmt.Printf("    %-18s ~%d destinations\n", sp.Src, sp.Estimate)
	}
}

func main() {
	fmt.Println("=== basic mode (no offloading) — alerts below are incomplete ===")
	report(run(false))

	fmt.Println("\n=== advanced mode (buddy-group offloading) ===")
	report(run(true))
}
