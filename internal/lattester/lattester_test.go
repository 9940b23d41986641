package lattester

import (
	"testing"

	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
	"optanestudy/internal/workload"
)

func newInterleaved(t testing.TB) (*platform.Platform, *platform.Namespace) {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.XP.Wear.Enabled = false
	p := platform.MustNew(cfg)
	ns, err := p.Optane("optane", 0, 2<<30)
	if err != nil {
		t.Fatal(err)
	}
	return p, ns
}

func TestIdleLatencyMatchesPaper(t *testing.T) {
	_, ns := newInterleaved(t)
	seq := IdleLatency(IdleLatencySpec{NS: ns, Op: OpRead, Pattern: Sequential, Ops: 3000})
	inWindow(t, "idle_seq_read_ns", seq.Mean())
	_, ns2 := newInterleaved(t)
	rnd := IdleLatency(IdleLatencySpec{NS: ns2, Op: OpRead, Pattern: Random, Ops: 3000})
	inWindow(t, "idle_rand_read_ns", rnd.Mean())
	// Sequential reads have higher relative variance (XPLine boundary
	// misses vs hits), per Section 3.2.
	if seq.Std() <= rnd.Std() {
		t.Errorf("seq std (%.1f) should exceed rand std (%.1f)", seq.Std(), rnd.Std())
	}
}

func TestBandwidthReadVsWriteAsymmetry(t *testing.T) {
	_, ns := NewNIPlatform(false)
	read := Run(Spec{NS: ns, Op: OpRead, Pattern: Sequential, AccessSize: 256, Threads: 4})
	_, ns2 := NewNIPlatform(false)
	write := Run(Spec{NS: ns2, Op: OpNTStore, Pattern: Sequential, AccessSize: 256, Threads: 1})
	inWindow(t, "ni_read_gbs", read.GBs)
	inWindow(t, "ni_ntstore_gbs", write.GBs)
	ratio := read.GBs / write.GBs
	if ratio < 2.0 || ratio > 4.0 {
		t.Errorf("read/write ratio = %.2f, paper 2.9", ratio)
	}
}

func TestWriteBandwidthNonMonotonicInThreads(t *testing.T) {
	bw := func(threads int) float64 {
		_, ns := NewNIPlatform(false)
		return Run(Spec{NS: ns, Op: OpNTStore, Pattern: Sequential,
			AccessSize: 256, Threads: threads}).GBs
	}
	one, eight := bw(1), bw(8)
	if eight >= one {
		t.Errorf("NI ntstore bandwidth must degrade with threads: 1T=%.2f, 8T=%.2f", one, eight)
	}
	if eight < one*0.4 {
		t.Errorf("degradation too extreme: 1T=%.2f, 8T=%.2f", one, eight)
	}
}

func TestSmallRandomAccessesArePoor(t *testing.T) {
	_, ns := NewNIPlatform(false)
	small := Run(Spec{NS: ns, Op: OpNTStore, Pattern: Random, AccessSize: 64, Threads: 1})
	_, ns2 := NewNIPlatform(false)
	atLine := Run(Spec{NS: ns2, Op: OpNTStore, Pattern: Random, AccessSize: 256, Threads: 1})
	if small.GBs > 0.6*atLine.GBs {
		t.Errorf("64B random (%.2f) should be far below 256B random (%.2f)", small.GBs, atLine.GBs)
	}
	inWindow(t, "ewr_rand64", small.EWR())
	inWindow(t, "ewr_rand256", atLine.EWR())
}

func TestStoreWithoutFlushLosesSequentiality(t *testing.T) {
	// A small LLC reaches steady-state evictions within the window.
	newNS := func() *platform.Namespace {
		cfg := platform.DefaultConfig()
		cfg.XP.Wear.Enabled = false
		cfg.LLC.Lines = (256 << 10) / 64
		p := platform.MustNew(cfg)
		ns, err := p.OptaneNI("ni", 0, 0, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}
	flushed := Run(Spec{NS: newNS(), Op: OpStoreCLWB, Pattern: Sequential, AccessSize: 256, Threads: 1,
		PerThreadRegion: 64 << 20, Duration: 400 * sim.Microsecond})
	plain := Run(Spec{NS: newNS(), Op: OpStore, Pattern: Sequential, AccessSize: 256, Threads: 1,
		PerThreadRegion: 64 << 20, Duration: 400 * sim.Microsecond})
	// Paper Section 5.2: flushing raises EWR from 0.26 to 0.98.
	if flushed.EWR() < 0.85 {
		t.Errorf("store+clwb EWR = %.2f, want ~0.98", flushed.EWR())
	}
	if plain.EWR() > 0.6 {
		t.Errorf("plain store EWR = %.2f, want well below flushed (paper 0.26)", plain.EWR())
	}
}

func TestLatencyUnderLoadKnee(t *testing.T) {
	// With increasing injected delay, bandwidth falls and latency recovers
	// toward idle.
	type point struct{ gbs, lat float64 }
	measure := func(delay sim.Time) point {
		_, ns := newInterleaved(t)
		res := Run(Spec{NS: ns, Op: OpRead, Pattern: Random, AccessSize: 64,
			Threads: 16, Delay: delay, RecordLatency: true})
		return point{res.GBs, res.Latency.Mean()}
	}
	loaded := measure(0)
	relaxed := measure(2 * sim.Microsecond)
	if loaded.gbs <= relaxed.gbs {
		t.Errorf("bandwidth: loaded %.2f <= relaxed %.2f", loaded.gbs, relaxed.gbs)
	}
	if loaded.lat <= relaxed.lat {
		t.Errorf("latency: loaded %.1f <= relaxed %.1f (queuing must show)", loaded.lat, relaxed.lat)
	}
}

func TestTailLatencyHotspotEffect(t *testing.T) {
	tail := func(hotspot int64) (p9999, max float64) {
		cfg := platform.DefaultConfig()
		p := platform.MustNew(cfg) // wear model ON
		ns, err := p.Optane("pm", 0, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		h := TailLatency(TailSpec{NS: ns, Hotspot: hotspot, Ops: 150000})
		return h.Percentile(0.9999), h.Max()
	}
	smallP, smallMax := tail(256)
	bigP, bigMax := tail(64 << 20)
	if smallMax < 20000 {
		t.Errorf("small hotspot max = %.0f ns, want ~50us outliers", smallMax)
	}
	if bigMax > 20000 {
		t.Errorf("64MB hotspot max = %.0f ns, want no outliers", bigMax)
	}
	if smallP <= bigP {
		t.Errorf("p99.99: small hotspot %.0f <= big hotspot %.0f", smallP, bigP)
	}
}

func TestRegionProbeFindsBufferCapacity(t *testing.T) {
	_, ns := NewNIPlatform(false)
	waSmall := RegionProbe(ns, 32, 3)
	_, ns2 := NewNIPlatform(false)
	waBig := RegionProbe(ns2, 512, 3)
	if waSmall > 1.15 {
		t.Errorf("WA(32 lines) = %.2f, want ~1", waSmall)
	}
	if waBig < 1.5 {
		t.Errorf("WA(512 lines) = %.2f, want ~2", waBig)
	}
}

func TestSfenceIntervalPeaksAt256(t *testing.T) {
	bw := func(size int, mode SfenceMode) float64 {
		_, ns := NewNIPlatform(false)
		return SfenceInterval(SfenceIntervalSpec{NS: ns, WriteSize: size, Mode: mode, Total: 8 << 20})
	}
	b64 := bw(64, CLWBEveryLine)
	b256 := bw(256, CLWBEveryLine)
	b4k := bw(4096, CLWBEveryLine)
	if b256 <= b64 {
		t.Errorf("256B interval (%.2f) must beat 64B (%.2f)", b256, b64)
	}
	if b4k < b256*0.5 {
		t.Errorf("4KB interval (%.2f) collapsed vs 256B (%.2f)", b4k, b256)
	}
}

func TestSpreadContention(t *testing.T) {
	bw := func(n int) float64 {
		_, ns := newInterleaved(t)
		return Spread(SpreadSpec{NS: ns, Threads: 6, DIMMsEach: n,
			AccessSize: 1024, Write: true, Seed: 5})
	}
	pinned := bw(1)
	spread := bw(6)
	// Figure 16: pinning threads to DIMMs maximizes bandwidth.
	if spread >= pinned {
		t.Errorf("spread (%.2f GB/s) must underperform pinned (%.2f GB/s)", spread, pinned)
	}
}

func TestMixedTrafficNUMACollapse(t *testing.T) {
	mixBW := func(socket int) float64 {
		_, ns := newInterleaved(t)
		return Run(Spec{NS: ns, Socket: socket, Pattern: Random, AccessSize: 64,
			Threads: 4, Mix: workload.NewMix(1, 1)}).GBs
	}
	local := mixBW(0)
	remote := mixBW(1)
	if remote > local/2 {
		t.Errorf("remote mixed bandwidth %.2f vs local %.2f: want >=2x collapse", remote, local)
	}
}

func TestSweepAndCorrelation(t *testing.T) {
	sc := DefaultSweepConfig()
	sc.AccessSizes = []int{64, 256, 1024}
	sc.Threads = []int{1, 4}
	sc.Duration = 60 * sim.Microsecond
	points := Sweep(sc)
	if len(points) != 3*2*3*2 {
		t.Fatalf("points = %d", len(points))
	}
	nt := CorrelateEWR(points, OpNTStore)
	// Figure 9: strong positive correlation for ntstore (r²=0.97).
	if nt.R2() < 0.5 {
		t.Errorf("ntstore EWR/BW r² = %.2f, want strong correlation", nt.R2())
	}
	if nt.Slope() <= 0 {
		t.Errorf("ntstore EWR/BW slope = %.2f, want positive", nt.Slope())
	}
}

func TestAccessWithinChunk(t *testing.T) {
	if !AccessWithinChunk(0, 4096) {
		t.Error("aligned 4KB crosses?")
	}
	if AccessWithinChunk(4095, 2) {
		t.Error("straddle not detected")
	}
}

func TestOpStrings(t *testing.T) {
	if OpRead.String() != "read" || OpNTStore.String() != "ntstore" ||
		OpStoreCLWB.String() != "store+clwb" || OpStore.String() != "store" {
		t.Error("op labels broken")
	}
	if OpRead.IsWrite() || !OpNTStore.IsWrite() {
		t.Error("IsWrite broken")
	}
	if Sequential.String() != "seq" || Random.String() != "rand" {
		t.Error("pattern labels broken")
	}
}
