package nic

import (
	"bytes"
	"testing"

	"repro/internal/faults"
	"repro/internal/vtime"
)

// TestDMACorruptionDamagesOnlyTheCell pins where a DMA-corruption fault
// lands: in the cell the frame was written to, never in the caller's
// frame, which a traffic source may share across many deliveries.
func TestDMACorruptionDamagesOnlyTheCell(t *testing.T) {
	sched := vtime.NewScheduler()
	inj := faults.NewInjector(sched, 7)
	if err := inj.Install(faults.Schedule{
		{At: 10, Dur: 100, Kind: faults.DMACorrupt, NIC: 0, Queue: 0, Severity: 1},
	}); err != nil {
		t.Fatal(err)
	}
	n := New(sched, Config{ID: 0, RxQueues: 1, RingSize: 8, Promiscuous: true, Faults: inj})
	armRing(n, 0)
	frame := buildUDP(t, testFlow(), 10)
	orig := append([]byte(nil), frame...)
	sched.At(50, func() {
		if !n.Deliver(frame, sched.Now()) {
			t.Fatal("Deliver under a corruption window dropped the frame")
		}
	})
	sched.Run()

	if !bytes.Equal(frame, orig) {
		t.Fatal("DMA corruption modified the caller's frame")
	}
	d := n.Rx(0).Desc(0)
	if !d.Err || d.Len != len(orig) {
		t.Fatalf("descriptor = %+v, want the error bit and length %d", d, len(orig))
	}
	flipped := 0
	for i, b := range d.Buf[:d.Len] {
		switch b ^ orig[i] {
		case 0:
		case faults.CorruptMask:
			flipped++
		default:
			t.Fatalf("cell byte %d = %#x, frame has %#x", i, b, orig[i])
		}
	}
	if flipped != 1 {
		t.Fatalf("%d cell bytes flipped, want exactly 1", flipped)
	}
	if got := inj.CorruptedFrames(); got != 1 {
		t.Fatalf("CorruptedFrames = %d, want 1", got)
	}
}
