package bench

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// The tests here assert the qualitative claims of each paper artifact at
// reduced scale; cmd/experiments regenerates the full tables.

var fast = Options{Scale: 0.05, PMax: 100_000, ScalePackets: 100_000, Seed: 2014}

func TestSpecNames(t *testing.T) {
	cases := map[string]EngineSpec{
		"DNA":                     DNA,
		"NETMAP":                  NETMAP,
		"PF_RING":                 PFRing,
		"PSIOE":                   PSIOE,
		"PF_PACKET":               RawSocket,
		"WireCAP-B-(256,100)":     WireCAPB(256, 100),
		"WireCAP-A-(256,500,60%)": WireCAPA(256, 500, 60),
	}
	for want, spec := range cases {
		if got := spec.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestForwardingSupportMatchesPaper(t *testing.T) {
	if NETMAP.SupportsForwarding() {
		t.Error("NETMAP claims forwarding support; the paper could not run it")
	}
	for _, s := range []EngineSpec{DNA, PFRing, WireCAPB(256, 100), WireCAPA(256, 100, 60)} {
		if !s.SupportsForwarding() {
			t.Errorf("%s should support forwarding", s.Name())
		}
	}
}

// TestForEachRunsAll: an experiment table fans its cells out over the
// process-wide worker budget, and every cell must be filled with the
// result of its own (engine, P) run — the same string a serial run of
// that cell gives — whichever worker ran it.
func TestForEachRunsAll(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	specs := []EngineSpec{DNA, WireCAPB(256, 100)}
	opt := Options{PMax: 10_000, Seed: fast.Seed}
	tab, err := burstTable("t", "fan-out", specs, 300, opt)
	if err != nil {
		t.Fatal(err)
	}
	ps := pSweep(opt.PMax)
	if len(tab.Rows) != len(specs) || len(ps) < 2 {
		t.Fatalf("got %d rows for %d specs, %d burst lengths", len(tab.Rows), len(specs), len(ps))
	}
	for si, spec := range specs {
		for pi, p := range ps {
			res, err := RunConstant(ConstantRun{Spec: spec, Packets: p, X: 300, Seed: opt.Seed})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := tab.Rows[si][1+pi], pct(res.DropRate()); got != want {
				t.Errorf("%s P=%d: fan-out cell %q, serial run %q", spec.Name(), p, got, want)
			}
		}
	}
}

func TestFig3Shape(t *testing.T) {
	table, prof, err := Fig3(fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 7 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// Hot queue 0 dominates; queue 3 above background; bursts visible.
	if prof.Total(0) <= prof.Total(3) || prof.Total(3) <= prof.Total(1) {
		t.Fatalf("imbalance shape wrong: %d %d %d", prof.Total(0), prof.Total(3), prof.Total(1))
	}
	if prof.Peak(3) < 3*prof.Total(3)/uint64(len(prof.Series(3))+1) {
		t.Fatal("no short-term bursts on the warm queue")
	}
}

func TestTable1Shape(t *testing.T) {
	// Type-II engines suffer capture drops on the overloaded queue while
	// PF_RING converts them into delivery drops.
	res := map[string]Result{}
	offered := map[string][]uint64{}
	for _, spec := range []EngineSpec{NETMAP, DNA, PFRing} {
		r, off, err := RunBorder(BorderRun{Spec: spec, Queues: 6, X: 300, Scale: fast.Scale, Seed: fast.Seed})
		if err != nil {
			t.Fatal(err)
		}
		res[spec.Name()] = r
		offered[spec.Name()] = off
	}
	for _, name := range []string{"NETMAP", "DNA"} {
		r := res[name]
		if r.CaptureDropRate(0, offered[name][0]) < 0.25 {
			t.Errorf("%s q0 capture drops %.2f, want heavy", name, r.CaptureDropRate(0, offered[name][0]))
		}
		if r.DeliveryDropRate(0, offered[name][0]) != 0 {
			t.Errorf("%s reported delivery drops", name)
		}
	}
	pf := res["PF_RING"]
	if pf.CaptureDropRate(0, offered["PF_RING"][0]) > 0.05 {
		t.Errorf("PF_RING q0 capture drops %.2f, want ~0", pf.CaptureDropRate(0, offered["PF_RING"][0]))
	}
	if pf.DeliveryDropRate(0, offered["PF_RING"][0]) < 0.25 {
		t.Errorf("PF_RING q0 delivery drops %.2f, want heavy", pf.DeliveryDropRate(0, offered["PF_RING"][0]))
	}
	// NETMAP's bursty-queue capture drops exceed DNA's (batch release).
	nm := res["NETMAP"].CaptureDropRate(3, offered["NETMAP"][3])
	dna := res["DNA"].CaptureDropRate(3, offered["DNA"][3])
	if nm < dna {
		t.Errorf("NETMAP q3 %.3f < DNA q3 %.3f", nm, dna)
	}
}

func TestFig8Shape(t *testing.T) {
	// x=0 at wire rate: WireCAP and Type-II lossless, PF_RING drops.
	for _, spec := range []EngineSpec{DNA, NETMAP, WireCAPB(64, 100), WireCAPB(256, 500)} {
		r, err := RunConstant(ConstantRun{Spec: spec, Packets: 50_000, X: 0, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r.DropRate() != 0 {
			t.Errorf("%s dropped %.2f at x=0", spec.Name(), r.DropRate())
		}
	}
	r, err := RunConstant(ConstantRun{Spec: PFRing, Packets: 50_000, X: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rate := r.DropRate(); rate < 0.1 {
		t.Errorf("PF_RING drop rate %.2f at wire rate, want substantial", rate)
	}
}

func TestFig9Shape(t *testing.T) {
	// x=300: buffering capability ordering at P=20,000:
	// Type-II (ring 1,024) drops heavily; WireCAP-B-(256,100) (25,600)
	// survives.
	dna, err := RunConstant(ConstantRun{Spec: DNA, Packets: 20_000, X: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := RunConstant(ConstantRun{Spec: WireCAPB(256, 100), Packets: 20_000, X: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dna.DropRate() < 0.5 {
		t.Errorf("DNA drop rate %.2f, want heavy", dna.DropRate())
	}
	if wc.DropRate() != 0 {
		t.Errorf("WireCAP-B-(256,100) drop rate %.2f, want 0", wc.DropRate())
	}
	// And (256,100) drops at 100k while (256,500) does not.
	wc100k, _ := RunConstant(ConstantRun{Spec: WireCAPB(256, 100), Packets: 100_000, X: 300, Seed: 1})
	wc500, _ := RunConstant(ConstantRun{Spec: WireCAPB(256, 500), Packets: 100_000, X: 300, Seed: 1})
	if wc100k.DropRate() < 0.5 || wc500.DropRate() != 0 {
		t.Errorf("capacity ordering wrong: (256,100)=%.2f (256,500)=%.2f",
			wc100k.DropRate(), wc500.DropRate())
	}
}

func TestFig10Shape(t *testing.T) {
	var rates []float64
	for _, spec := range []EngineSpec{WireCAPB(64, 400), WireCAPB(128, 200), WireCAPB(256, 100)} {
		r, err := RunConstant(ConstantRun{Spec: spec, Packets: 60_000, X: 300, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rates = append(rates, r.DropRate())
	}
	for i := 1; i < len(rates); i++ {
		if d := rates[i] - rates[0]; d > 0.02 || d < -0.02 {
			t.Fatalf("R*M invariance violated: %v", rates)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	run := func(spec EngineSpec) float64 {
		r, _, err := RunBorder(BorderRun{Spec: spec, Queues: 6, X: 300, Scale: fast.Scale, Seed: fast.Seed})
		if err != nil {
			t.Fatal(err)
		}
		return r.DropRate()
	}
	basic := run(WireCAPB(256, 100))
	adv := run(WireCAPA(256, 100, 60))
	dna := run(DNA)
	if basic >= dna {
		t.Errorf("WireCAP-B %.2f >= DNA %.2f", basic, dna)
	}
	if adv > 0.02 {
		t.Errorf("WireCAP-A drop rate %.2f, want near zero", adv)
	}
	if basic < 2*adv {
		t.Errorf("offloading gained too little: basic %.3f adv %.3f", basic, adv)
	}
}

func TestFig13Shape(t *testing.T) {
	// Forwarding: the advanced mode sustains near-lossless end-to-end
	// delivery while the baselines drop.
	adv, _, err := RunBorder(BorderRun{
		Spec: WireCAPA(256, 100, 60), Queues: 4, X: 300,
		Scale: fast.Scale, Seed: fast.Seed, Forward: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Forwarded == 0 {
		t.Fatal("nothing forwarded")
	}
	if adv.DropRate() > 0.02 {
		t.Errorf("advanced forwarding drop rate %.2f", adv.DropRate())
	}
	dna, _, err := RunBorder(BorderRun{
		Spec: DNA, Queues: 4, X: 300, Scale: fast.Scale, Seed: fast.Seed, Forward: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dna.DropRate() < 5*adv.DropRate() {
		t.Errorf("DNA forwarding %.2f not clearly worse than advanced %.2f",
			dna.DropRate(), adv.DropRate())
	}
}

func TestFig14Shape(t *testing.T) {
	run := func(spec EngineSpec, q, frame int) float64 {
		rate, err := RunScalability(ScalabilityRun{
			Spec: spec, QueuesPerNIC: q, FrameLen: frame,
			Packets: fast.ScalePackets, Seed: fast.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rate
	}
	// 64-byte line rate saturates the bus for both engines...
	dna64 := run(DNA, 2, 60)
	wc64 := run(WireCAPA(256, 100, 60), 2, 60)
	if dna64 < 0.02 || wc64 < 0.02 {
		t.Errorf("no bus saturation at 64B: DNA %.3f WC %.3f", dna64, wc64)
	}
	// ...with WireCAP paying more than DNA...
	if wc64 <= dna64 {
		t.Errorf("WireCAP 64B %.3f <= DNA %.3f", wc64, dna64)
	}
	// ...while 100-byte line rate fits for both.
	if r := run(DNA, 2, 96); r > 0.005 {
		t.Errorf("DNA 100B drop rate %.3f", r)
	}
	if r := run(WireCAPA(256, 100, 60), 2, 96); r > 0.005 {
		t.Errorf("WireCAP 100B drop rate %.3f", r)
	}
	// The big-memory configuration degrades at 6 queues/NIC.
	small := run(WireCAPA(256, 100, 60), 6, 60)
	big := run(WireCAPA(256, 500, 60), 6, 60)
	if big <= small {
		t.Errorf("(256,500) at 6q %.3f not worse than (256,100) %.3f", big, small)
	}
}

func TestTableWriteAndByName(t *testing.T) {
	var buf bytes.Buffer
	table := Table{ID: "X", Title: "t", Columns: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	if err := table.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"=== X: t ===", "a  bb", "1  2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if err := ByName("nope", fast, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// A tiny end-to-end run through ByName.
	buf.Reset()
	tiny := fast
	tiny.PMax = 1000
	if err := ByName("fig10", tiny, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 10") {
		t.Fatal("fig10 output missing header")
	}
}

func TestCSVRendering(t *testing.T) {
	table := Table{ID: "T", Title: "t", Columns: []string{"a", "b"},
		Rows: [][]string{{"x,1", `say "hi"`}}}
	var buf bytes.Buffer
	if err := table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# T: t", "a,b", `"x,1","say ""hi"""`} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
	// ByName honors the CSV option.
	buf.Reset()
	opt := fast
	opt.PMax = 1000
	opt.CSV = true
	if err := ByName("fig10", opt, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# Figure 10") {
		t.Fatalf("CSV output:\n%s", buf.String())
	}
}
