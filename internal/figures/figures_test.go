package figures

import (
	"testing"
)

// Every figure's Quick run must produce non-empty series, and key
// qualitative claims from the paper must hold in the regenerated data.

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d figures, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, all[i].ID, id)
		}
	}
	if Lookup("fig9") == nil || Lookup("nope") != nil {
		t.Error("Lookup broken")
	}
}

func TestFig2Shape(t *testing.T) {
	figs := Fig2(Quick)
	f := figs[0]
	dram, opt := f.Get("DRAM"), f.Get("Optane")
	if dram == nil || opt == nil {
		t.Fatal("missing series")
	}
	// Reads: Optane 2-3x DRAM; random worse than sequential on Optane by
	// a larger factor than DRAM.
	dSeq, _ := dram.YAt(0)
	dRand, _ := dram.YAt(1)
	oSeq, _ := opt.YAt(0)
	oRand, _ := opt.YAt(1)
	if oSeq < 1.5*dSeq || oSeq > 3.5*dSeq {
		t.Errorf("Optane seq read %.0f vs DRAM %.0f: want 2-3x", oSeq, dSeq)
	}
	if oRand/oSeq < 1.4 {
		t.Errorf("Optane rand/seq = %.2f, want ~1.8", oRand/oSeq)
	}
	if dRand/dSeq > 1.5 {
		t.Errorf("DRAM rand/seq = %.2f, want ~1.2", dRand/dSeq)
	}
	// Writes commit at the ADR: similar for both media, ntstore > clwb.
	oNT, _ := opt.YAt(2)
	oCLWB, _ := opt.YAt(3)
	if oNT <= oCLWB {
		t.Errorf("ntstore (%.0f) must exceed store+clwb (%.0f)", oNT, oCLWB)
	}
}

func TestFig3Shape(t *testing.T) {
	f := Fig3(Quick)[0]
	max := f.Get("Max")
	small, _ := max.YAt(256)
	big, _ := max.YAt(64 << 20)
	if small < 10 { // µs
		t.Errorf("small-hotspot max = %.1f us, want ~20-50", small)
	}
	if big > small/3 {
		t.Errorf("64MB-hotspot max = %.1f us should be far below %.1f", big, small)
	}
}

func TestFig4Shape(t *testing.T) {
	figs := Fig4(Quick)
	if len(figs) != 3 {
		t.Fatal("want 3 panels")
	}
	// DRAM read scales monotonically to high bandwidth.
	dramRead := figs[0].Get("Read")
	_, peak := dramRead.MaxY()
	if peak < 60 {
		t.Errorf("DRAM read peak = %.1f GB/s", peak)
	}
	// Optane-NI ntstore peaks at few threads and declines.
	ni := figs[1].Get("Write(ntstore)")
	peakX, peakY := ni.MaxY()
	if peakX > 4 {
		t.Errorf("Optane-NI ntstore peaks at %d threads, want <= 4", int(peakX))
	}
	last, _ := ni.YAt(24)
	if last >= peakY {
		t.Error("Optane-NI ntstore does not decline at 24 threads")
	}
	// Interleaving lifts read bandwidth well above single-DIMM.
	_, niReadPeak := figs[1].Get("Read").MaxY()
	_, ilReadPeak := figs[2].Get("Read").MaxY()
	if ilReadPeak < 3*niReadPeak {
		t.Errorf("interleaved read peak %.1f not ~6x NI %.1f", ilReadPeak, niReadPeak)
	}
}

// §5.1: accesses smaller than the 256 B XPLine waste device bandwidth, so
// every op's random 256 B bandwidth on Optane-NI and Optane (the panels
// after DRAM's) is at least twice its 64 B one.
func TestFig5Shape(t *testing.T) {
	for _, f := range Fig5(Quick)[1:] {
		for _, s := range f.Series {
			b64, ok64 := s.YAt(64)
			b256, ok256 := s.YAt(256)
			if !ok64 || !ok256 || b256 < 2*b64 {
				t.Errorf("%s %s: 256 B random %.3g GB/s, want at least 2x 64 B (%.3g)", f.ID, s.Name, b256, b64)
			}
		}
	}
}

// §5.2: ntstore beats store+clwb for sequential writes of a full XPLine
// and more, and both instructions' latency grows with the access.
func TestFig13Shape(t *testing.T) {
	figs := Fig13(Quick)
	bw, lat := figs[0], figs[1]
	nt, clwb := bw.Get("ntstore"), bw.Get("store+clwb")
	for i, x := range nt.X {
		if c, _ := clwb.YAt(x); x >= 256 && nt.Y[i] <= c {
			t.Errorf("%g B: ntstore %.3g GB/s must beat store+clwb %.3g", x, nt.Y[i], c)
		}
	}
	for _, s := range lat.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] <= s.Y[i-1] {
				t.Errorf("%s latency falls from %.4g ns at %g B to %.4g ns at %g B", s.Name, s.Y[i-1], s.X[i-1], s.Y[i], s.X[i])
			}
		}
	}
}

// §5.2: with a fence interval of at least an XPLine, ntstore beats a clwb
// of the whole write, which beats a clwb per 64 B line; and a clwb per
// write gains as the interval grows.
func TestFig14Shape(t *testing.T) {
	f := Fig14(Quick)[0]
	per64, perWrite, nt := f.Get("clwb(every 64B)"), f.Get("clwb(write size)"), f.Get("ntstore")
	for i, x := range perWrite.X {
		w := perWrite.Y[i]
		if i > 0 && w < perWrite.Y[i-1] {
			t.Errorf("clwb(write size) falls from %.3g GB/s at %g B to %.3g at %g B", perWrite.Y[i-1], perWrite.X[i-1], w, x)
		}
		n, _ := nt.YAt(x)
		l, _ := per64.YAt(x)
		if x >= 256 && !(n >= w && w >= l) {
			t.Errorf("%g B: want ntstore (%.3g) >= clwb(write size) (%.3g) >= clwb(every 64B) (%.3g)", x, n, w, l)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	f := Fig9(Quick)[0]
	if len(f.Series) != 3 {
		t.Fatal("want 3 instruction series")
	}
	for _, s := range f.Series {
		if len(s.X) == 0 {
			t.Errorf("series %s empty", s.Name)
		}
	}
	if f.Notes == "" {
		t.Error("missing r2/slope notes")
	}
}

func TestFig10Shape(t *testing.T) {
	f := Fig10(Quick)[0]
	wa := f.Series[0]
	below, _ := wa.YAt(4 << 10)
	above, _ := wa.YAt(256 << 10)
	if below > 1.15 {
		t.Errorf("WA below capacity = %.2f, want ~1", below)
	}
	if above < 1.5 {
		t.Errorf("WA above capacity = %.2f, want ~2", above)
	}
}

func TestFig8Shape(t *testing.T) {
	figs := Fig8(Quick)
	dram := figs[0].Series[0]
	opt := figs[1].Series[0]
	dFlex, _ := dram.YAt(1)
	dSkip, _ := dram.YAt(2)
	oPosix, _ := opt.YAt(0)
	oFlex, _ := opt.YAt(1)
	oSkip, _ := opt.YAt(2)
	if dSkip <= dFlex {
		t.Errorf("DRAM: skiplist (%.0f) must beat FLEX (%.0f)", dSkip, dFlex)
	}
	if oFlex <= oSkip {
		t.Errorf("Optane: FLEX (%.0f) must beat skiplist (%.0f)", oFlex, oSkip)
	}
	if oPosix >= oFlex {
		t.Errorf("Optane: POSIX (%.0f) must trail FLEX (%.0f)", oPosix, oFlex)
	}
}

func TestFig12Shape(t *testing.T) {
	f := Fig12(Quick)[0]
	nova := f.Get("NOVA")
	datalog := f.Get("NOVA-datalog")
	ext4sync := f.Get("Ext4-DAX-sync")
	n64, _ := nova.YAt(0)
	d64, _ := datalog.YAt(0)
	e64, _ := ext4sync.YAt(0)
	if d64*3 > n64 {
		t.Errorf("datalog 64B overwrite (%.2f us) should be >=3x faster than NOVA (%.2f us)", d64, n64)
	}
	if e64 < 30 {
		t.Errorf("Ext4-DAX-sync 64B = %.1f us, paper ~57", e64)
	}
	// Read path: datalog slightly slower than NOVA.
	nRead, _ := nova.YAt(2)
	dRead, _ := datalog.YAt(2)
	if dRead < nRead {
		t.Errorf("datalog read (%.2f) should not beat NOVA read (%.2f)", dRead, nRead)
	}
}

func TestFig15Shape(t *testing.T) {
	f := Fig15(Quick)[0]
	nt := f.Get("PGL-NT")
	clwb := f.Get("PGL-CLWB")
	nt64, _ := nt.YAt(64)
	cl64, _ := clwb.YAt(64)
	nt8k, _ := nt.YAt(8 << 10)
	cl8k, _ := clwb.YAt(8 << 10)
	if cl64 >= nt64 {
		t.Errorf("64B: CLWB (%.2f us) must beat NT (%.2f us)", cl64, nt64)
	}
	if nt8k >= cl8k {
		t.Errorf("8KB: NT (%.2f us) must beat CLWB (%.2f us)", nt8k, cl8k)
	}
}

func TestFig16Shape(t *testing.T) {
	figs := Fig16(Quick)
	write := figs[1]
	one := write.Get("1 Threads")
	six := write.Get("6 Threads")
	p1, _ := one.YAt(1 << 10)
	p6, _ := six.YAt(1 << 10)
	if p6 >= p1 {
		t.Errorf("spreading writers (%.2f GB/s) must underperform pinning (%.2f GB/s)", p6, p1)
	}
}

func TestFig18Shape(t *testing.T) {
	f := Fig18(Quick)[0]
	local4 := f.Get("Optane-4")
	remote4 := f.Get("Optane-Remote-4")
	lMix, _ := local4.YAt(4) // 1:1 mix
	rMix, _ := remote4.YAt(4)
	if rMix > lMix/2 {
		t.Errorf("remote mixed (%.2f) must collapse vs local (%.2f)", rMix, lMix)
	}
	// Pure reads suffer far less remotely than mixed traffic.
	lR, _ := local4.YAt(0)
	rR, _ := remote4.YAt(0)
	if rR < lR/3 {
		t.Errorf("remote pure read (%.2f vs %.2f) should not collapse as hard", rR, lR)
	}
}

func TestFig19Shape(t *testing.T) {
	f := Fig19(Quick)[0]
	opt := f.Get("Optane")
	rem := f.Get("Optane-Remote")
	o8, _ := opt.YAt(8)
	r8, _ := rem.YAt(8)
	if r8 >= o8 {
		t.Errorf("remote pmemkv (%.3f) must trail local (%.3f) at 8 threads", r8, o8)
	}
	dram := f.Get("DRAM")
	dramRem := f.Get("DRAM-Remote")
	d8, _ := dram.YAt(8)
	dr8, _ := dramRem.YAt(8)
	if o8 > 0 && d8 > 0 {
		optLoss := o8 / r8
		dramLoss := d8 / dr8
		if optLoss <= dramLoss {
			t.Errorf("Optane NUMA loss (%.2fx) must exceed DRAM's (%.2fx)", optLoss, dramLoss)
		}
	}
}
