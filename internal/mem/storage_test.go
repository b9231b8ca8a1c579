package mem

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/vtime"
)

// TestNewPoolDefersHostMemory pins that a pool's host memory waits for
// first attach: building a 256x500 pool allocates under 1% of its
// simulated size, while MemoryBytes still reports the full R*M*CellSize.
func TestNewPoolDefersHostMemory(t *testing.T) {
	const m, r = 256, 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := NewPool(0, 0, m, r)
	runtime.ReadMemStats(&after)
	simulated := uint64(m * r * CellSize)
	if got := after.TotalAlloc - before.TotalAlloc; got >= simulated/100 {
		t.Fatalf("NewPool allocated %d host bytes, want < %d (1%% of %d simulated)", got, simulated/100, simulated)
	}
	if p.MemoryBytes() != int(simulated) {
		t.Fatalf("MemoryBytes = %d, want %d", p.MemoryBytes(), simulated)
	}
	runtime.KeepAlive(p)
}

// TestWarmChunkCycleAllocatesNothing pins that storage stays with a chunk
// once allocated: a recycled chunk's next attach reuses it.
func TestWarmChunkCycleAllocatesNothing(t *testing.T) {
	p := newMappedPool(t, 8, 4)
	cycle := func() {
		c, err := p.AllocFree()
		if err != nil {
			t.Fatal(err)
		}
		copy(c.Cell(0), "warm")
		c.SetPacket(0, 4, 1)
		meta, err := p.Capture(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Recycle(meta); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("warm AllocFree/Capture/Recycle cycle allocates %.2f/op, want 0", a)
	}
}

// TestAddressesFixedAcrossFirstAttach pins that the simulated addresses
// are assigned at construction, not by the host allocation.
func TestAddressesFixedAcrossFirstAttach(t *testing.T) {
	const m = 4
	p := newMappedPool(t, m, 3)
	type addrs struct{ dma, kernel, proc Addr }
	snapshot := func(c *Chunk) []addrs {
		out := make([]addrs, m)
		for i := range out {
			out[i] = addrs{c.DMAAddr(i), c.KernelAddr(i), c.ProcAddr(i)}
		}
		return out
	}
	before := make([][]addrs, len(p.chunks))
	for i, c := range p.chunks {
		if c.backing != nil {
			t.Fatalf("chunk %d holds host storage before its first attach", i)
		}
		before[i] = snapshot(c)
	}
	for range p.chunks {
		if _, err := p.AllocFree(); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range p.chunks {
		if c.backing == nil {
			t.Fatalf("chunk %d attached without host storage", i)
		}
		after := snapshot(c)
		for j := range after {
			if after[j] != before[i][j] {
				t.Fatalf("chunk %d cell %d addresses %+v, before first attach %+v", i, j, after[j], before[i][j])
			}
		}
	}
}

// TestCapturedPacketsSurviveLaterAttach pins that first-attach storage
// of other chunks never aliases a captured chunk's cells.
func TestCapturedPacketsSurviveLaterAttach(t *testing.T) {
	const m, r = 4, 6
	p := newMappedPool(t, m, r)
	fill := func(c *Chunk, tag byte) {
		for i := 0; i < m; i++ {
			cell := c.Cell(i)
			n := 10 + i
			for k := 0; k < n; k++ {
				cell[k] = tag + byte(i)
			}
			c.SetPacket(i, n, vtime.Time(int(tag)*100+i))
		}
	}
	held, _ := p.AllocFree()
	fill(held, 0x10)
	if _, err := p.Capture(held); err != nil {
		t.Fatal(err)
	}
	for k := 1; k < r; k++ {
		c, err := p.AllocFree()
		if err != nil {
			t.Fatal(err)
		}
		fill(c, 0x40+byte(k)*8)
	}
	for i := 0; i < m; i++ {
		data, ts := held.Packet(i)
		want := bytes.Repeat([]byte{0x10 + byte(i)}, 10+i)
		if !bytes.Equal(data, want) || ts != vtime.Time(0x10*100+i) {
			t.Fatalf("captured packet %d = %x @%d, want %x @%d", i, data, ts, want, 0x10*100+i)
		}
		if cap(data) != CellSize {
			t.Fatalf("packet %d capacity %d, want the cell's %d", i, cap(data), CellSize)
		}
	}
}
