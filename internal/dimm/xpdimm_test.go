package dimm

import (
	"testing"
	"testing/quick"

	"optanestudy/internal/mem"
	"optanestudy/internal/sim"
)

// seqWrite streams n bytes of sequential 64 B writes starting at base,
// pacing arrivals by the returned drain times (like a WPQ would).
func seqWrite(d *XPDIMM, base int64, n int64) {
	var t sim.Time
	for off := int64(0); off < n; off += mem.CacheLine {
		t = d.WriteLine(t, base+off)
	}
}

func TestXPSequentialWritesCombine(t *testing.T) {
	d := NewXPDIMM(DefaultXPConfig())
	seqWrite(d, 0, 1<<20)
	c := d.Counters()
	if ewr := c.EWR(); ewr < 0.95 || ewr > 1.05 {
		t.Fatalf("sequential EWR = %.3f, want ~1.0 (%v)", ewr, c)
	}
	if c.PartialWrites > c.MediaWriteBytes/mem.XPLine/20 {
		t.Fatalf("too many partial writes: %v", c)
	}
}

func TestXPRandom64BWritesAmplify(t *testing.T) {
	cfg := DefaultXPConfig()
	cfg.Wear.Enabled = false
	d := NewXPDIMM(cfg)
	r := sim.NewRNG(1)
	var tm sim.Time
	for i := 0; i < 50000; i++ {
		addr := r.Int63n(1<<26) &^ (mem.CacheLine - 1)
		tm = d.WriteLine(tm, addr)
	}
	ewr := d.Counters().EWR()
	// The paper measures 0.25 for random 64 B stores: every 64 B write
	// becomes a 256 B media write.
	if ewr < 0.2 || ewr > 0.35 {
		t.Fatalf("random 64B EWR = %.3f, want ~0.25", ewr)
	}
}

func TestXPRandom256BWritesEfficient(t *testing.T) {
	cfg := DefaultXPConfig()
	cfg.Wear.Enabled = false
	d := NewXPDIMM(cfg)
	r := sim.NewRNG(2)
	var tm sim.Time
	for i := 0; i < 20000; i++ {
		line := r.Int63n(1<<26) &^ (mem.XPLine - 1)
		for c := int64(0); c < 4; c++ {
			tm = d.WriteLine(tm, line+c*mem.CacheLine)
		}
	}
	ewr := d.Counters().EWR()
	// Paper: 0.98 for random 256 B accesses.
	if ewr < 0.9 {
		t.Fatalf("random 256B EWR = %.3f, want ~1.0", ewr)
	}
}

// TestXPRegionProbe reproduces the Figure 10 experiment at the DIMM level:
// write the first half of each XPLine in an N-line region, then the second
// half. Within the 64-line XPBuffer capacity the halves combine (WA ~1);
// beyond it, write amplification jumps toward 2.
func TestXPRegionProbe(t *testing.T) {
	wa := func(lines int64) float64 {
		cfg := DefaultXPConfig()
		cfg.Wear.Enabled = false
		d := NewXPDIMM(cfg)
		var tm sim.Time
		for round := 0; round < 4; round++ {
			for half := int64(0); half < 2; half++ {
				for i := int64(0); i < lines; i++ {
					base := i*mem.XPLine + half*2*mem.CacheLine
					tm = d.WriteLine(tm, base)
					tm = d.WriteLine(tm, base+mem.CacheLine)
				}
			}
		}
		return d.Counters().WriteAmplification()
	}
	small := wa(32)
	atCap := wa(64)
	big := wa(256)
	if small > 1.1 {
		t.Errorf("WA(32 lines) = %.3f, want ~1", small)
	}
	if atCap > 1.3 {
		t.Errorf("WA(64 lines) = %.3f, want near 1", atCap)
	}
	if big < 1.6 {
		t.Errorf("WA(256 lines) = %.3f, want ~2", big)
	}
	if big <= small {
		t.Errorf("WA must rise past buffer capacity: %.3f <= %.3f", big, small)
	}
}

// TestXPStreamPressure: interleaving many sequential write streams on one
// DIMM degrades EWR (paper: 0.98 at 1 thread, 0.62 at 8 threads).
func TestXPStreamPressure(t *testing.T) {
	ewrFor := func(streams int) float64 {
		cfg := DefaultXPConfig()
		cfg.Wear.Enabled = false
		d := NewXPDIMM(cfg)
		var tm sim.Time
		offs := make([]int64, streams)
		for i := range offs {
			offs[i] = int64(i) * (1 << 22) // private 4 MB regions
		}
		for n := 0; n < 200000/streams; n++ {
			for s := 0; s < streams; s++ {
				tm = d.WriteLine(tm, offs[s])
				offs[s] += mem.CacheLine
			}
		}
		return d.Counters().EWR()
	}
	one := ewrFor(1)
	two := ewrFor(2)
	four := ewrFor(4)
	eight := ewrFor(8)
	sixteen := ewrFor(16)
	if one < 0.95 {
		t.Errorf("EWR(1 stream) = %.3f, want ~1", one)
	}
	if two < 0.9 {
		t.Errorf("EWR(2 streams) = %.3f, want >= 0.9 (within engines)", two)
	}
	if four < 0.6 || four > 0.92 {
		t.Errorf("EWR(4 streams) = %.3f, want ~0.75", four)
	}
	if eight < 0.45 || eight > 0.78 {
		t.Errorf("EWR(8 streams) = %.3f, want ~0.62", eight)
	}
	if sixteen > eight+0.03 {
		t.Errorf("EWR must keep declining: EWR(16)=%.3f >> EWR(8)=%.3f", sixteen, eight)
	}
}

func TestXPReadHitAfterMiss(t *testing.T) {
	d := NewXPDIMM(DefaultXPConfig())
	// First read of an XPLine misses (media fetch), next three hit.
	t0 := d.ReadLine(0, 0)
	if t0 < 200*sim.Nanosecond {
		t.Fatalf("miss served in %v, expected media latency", t0)
	}
	t1 := d.ReadLine(t0, 64)
	hitLat := t1 - t0
	if hitLat > 100*sim.Nanosecond {
		t.Fatalf("hit latency %v, want controller-speed", hitLat)
	}
	c := d.Counters()
	if c.BufferMisses != 1 || c.BufferHits != 1 {
		t.Fatalf("hit/miss counters: %v", c)
	}
	if c.MediaReadBytes != mem.XPLine {
		t.Fatalf("media read bytes = %d", c.MediaReadBytes)
	}
}

func TestXPWriteAfterReadAvoidsRMW(t *testing.T) {
	cfg := DefaultXPConfig()
	cfg.Wear.Enabled = false
	d := NewXPDIMM(cfg)
	var tm sim.Time
	// Read the line first (RFO-like), then dirty one chunk and force
	// eviction by filling the buffer with other lines.
	tm = d.ReadLine(tm, 0)
	tm = d.WriteLine(tm, 0)
	before := d.Counters().MediaReadBytes
	for i := int64(1); i <= 80; i++ {
		tm = d.ReadLine(tm, i*mem.XPLine)
	}
	// Eviction of the valid dirty line must not have issued an RMW read.
	extraReads := d.Counters().MediaReadBytes - before
	if extraReads != 80*mem.XPLine {
		t.Fatalf("extra media reads = %d bytes, want exactly the 80 fetches", extraReads)
	}
}

func TestXPBufferCapacityInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := DefaultXPConfig()
		cfg.BufferLines = 16
		cfg.Wear.Enabled = false
		cfg.Seed = seed
		d := NewXPDIMM(cfg)
		r := sim.NewRNG(seed)
		var tm sim.Time
		for i := 0; i < 3000; i++ {
			addr := r.Int63n(1<<22) &^ (mem.CacheLine - 1)
			if r.Bool(0.5) {
				tm = d.WriteLine(tm, addr)
			} else {
				tm = d.ReadLine(tm, addr)
			}
			d.buf.full(tm) // frees the write-backs completed by tm
			if d.buf.liveCount+d.buf.inflight.Len() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: EWR never exceeds 1 + epsilon for write-only workloads without
// rewrites of buffered lines (media writes are at least as large as the
// data accepted), and media write bytes are XPLine multiples.
func TestXPEWRBounds(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := DefaultXPConfig()
		cfg.Wear.Enabled = false
		cfg.Seed = seed
		d := NewXPDIMM(cfg)
		r := sim.NewRNG(seed ^ 0xABCD)
		var tm sim.Time
		for i := 0; i < 5000; i++ {
			addr := r.Int63n(1<<24) &^ (mem.CacheLine - 1)
			tm = d.WriteLine(tm, addr)
		}
		c := d.Counters()
		if c.MediaWriteBytes%mem.XPLine != 0 {
			return false
		}
		// Some data may still sit in the buffer, so EWR can exceed 1
		// slightly; bound it by capacity slack.
		slack := float64(cfg.BufferLines*mem.XPLine) / float64(c.MediaWriteBytes+1)
		return c.EWR() <= 1.05+slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestWearModelHotspotOutliers(t *testing.T) {
	cfg := DefaultXPConfig()
	d := NewXPDIMM(cfg)
	// Hammer a single XPLine (4-chunk writes) and count remaps.
	var tm sim.Time
	const n = 400000
	for i := 0; i < n; i++ {
		for c := int64(0); c < 4; c++ {
			tm = d.WriteLine(tm, c*mem.CacheLine)
		}
	}
	remaps := d.Counters().Remaps
	rate := float64(remaps) / float64(n)
	if rate < 3e-4 || rate > 1.8e-3 {
		t.Errorf("hotspot remap rate = %.2e (%d events), want ~8e-4", rate, remaps)
	}
	if d.AIT().Remaps() == 0 {
		t.Error("AIT saw no remaps")
	}
}

func TestWearModelColdRegionClean(t *testing.T) {
	cfg := DefaultXPConfig()
	d := NewXPDIMM(cfg)
	// Spread the same write count over 64 MB: buckets never fill.
	var tm sim.Time
	const region = 64 << 20
	for i := 0; i < 400000; i++ {
		addr := (int64(i) * mem.XPLine) % region
		tm = d.WriteLine(tm, addr)
	}
	if remaps := d.Counters().Remaps; remaps > 2 {
		t.Errorf("cold region saw %d remaps, want ~0", remaps)
	}
}

func TestAIT(t *testing.T) {
	a := NewAIT()
	if a.Translate(256) != 256 {
		t.Fatal("identity translation broken")
	}
	p := a.Remap(256)
	if a.Translate(256) != p {
		t.Fatal("remap not visible")
	}
	if a.Translate(512) != 512 {
		t.Fatal("remap leaked to other lines")
	}
	p2 := a.Remap(256)
	if p2 == p {
		t.Fatal("remap reused physical line")
	}
	if a.Remaps() != 1 {
		t.Fatalf("remaps = %d, want 1 distinct line", a.Remaps())
	}
}

func TestStreamTracker(t *testing.T) {
	var s streamTracker
	s.init(128)
	// One sequential stream stays one stream even across 4 KB boundaries.
	for i := int64(0); i < 200; i++ {
		if got := s.observe(i * mem.XPLine); got != 1 {
			t.Fatalf("sequential stream counted as %d at step %d", got, i)
		}
	}
	// Four interleaved distant streams count as four.
	var s2 streamTracker
	s2.init(128)
	max := 0
	for i := int64(0); i < 200; i++ {
		for k := int64(0); k < 4; k++ {
			got := s2.observe(k*(1<<26) + i*mem.XPLine)
			if got > max {
				max = got
			}
		}
	}
	if max != 4 {
		t.Fatalf("4 interleaved streams counted as %d", max)
	}
}

func TestDRAMRowBuffer(t *testing.T) {
	d := NewDRAMDIMM(DefaultDRAMConfig())
	first := d.ReadLine(0, 0) // row miss
	second := d.ReadLine(first, 64) - first
	if first != 41*sim.Nanosecond {
		t.Fatalf("row miss = %v", first)
	}
	if second != 21*sim.Nanosecond {
		t.Fatalf("row hit = %v", second)
	}
	if d.Counters().EWR() != 1 {
		t.Fatal("DRAM EWR must be 1")
	}
}

func TestDRAMWriteThrottle(t *testing.T) {
	cfg := PMEPDRAMConfig()
	d := NewDRAMDIMM(cfg)
	var tm sim.Time
	n := 1000
	for i := 0; i < n; i++ {
		tm = d.WriteLine(tm, int64(i)*mem.CacheLine)
	}
	gbs := float64(n*mem.CacheLine) / tm.Seconds() / 1e9
	if gbs > 2.5 {
		t.Fatalf("PMEP write bandwidth = %.2f GB/s, want <= 2.3-ish", gbs)
	}
	// And reads carry the +300ns emulation penalty.
	done := d.ReadLine(tm, 0)
	if done-tm < 300*sim.Nanosecond {
		t.Fatalf("PMEP read latency = %v, want >= 300ns", done-tm)
	}
}

func TestCountersSubAdd(t *testing.T) {
	a := Counters{CtrlWriteBytes: 100, MediaWriteBytes: 200, Remaps: 3}
	b := Counters{CtrlWriteBytes: 40, MediaWriteBytes: 50, Remaps: 1}
	d := a.Sub(b)
	if d.CtrlWriteBytes != 60 || d.MediaWriteBytes != 150 || d.Remaps != 2 {
		t.Fatalf("sub = %+v", d)
	}
	var acc Counters
	acc.Add(a)
	acc.Add(b)
	if acc.CtrlWriteBytes != 140 {
		t.Fatalf("add = %+v", acc)
	}
	if ewr := d.EWR(); ewr != 0.4 {
		t.Fatalf("EWR = %v", ewr)
	}
}
