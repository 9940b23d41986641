package workload

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSequentialWraps(t *testing.T) {
	p := NewSequential(256, 64)
	want := []int64{0, 64, 128, 192, 0, 64}
	for i, w := range want {
		if got := p.Next(); got != w {
			t.Fatalf("access %d: got %d, want %d", i, got, w)
		}
	}
}

func TestSequentialTruncatesRegion(t *testing.T) {
	p := NewSequential(300, 64) // usable region truncates to 256
	seen := map[int64]bool{}
	for i := 0; i < 8; i++ {
		seen[p.Next()] = true
	}
	if len(seen) != 4 {
		t.Fatalf("distinct offsets = %d, want 4", len(seen))
	}
}

func TestRandomAlignedAndInRange(t *testing.T) {
	f := func(seed uint64) bool {
		p := NewRandom(1<<20, 256, seed)
		for i := 0; i < 1000; i++ {
			off := p.Next()
			if off < 0 || off >= 1<<20 || off%256 != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRandomCoversRegion(t *testing.T) {
	p := NewRandom(1024, 256, 5) // 4 blocks
	seen := map[int64]bool{}
	for i := 0; i < 200; i++ {
		seen[p.Next()] = true
	}
	if len(seen) != 4 {
		t.Fatalf("covered %d blocks, want 4", len(seen))
	}
}

func TestMixDeterministicPattern(t *testing.T) {
	m := NewMix(3, 1)
	var got []bool
	for i := 0; i < 8; i++ {
		got = append(got, m.NextIsRead())
	}
	want := []bool{true, true, true, false, true, true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mix pattern = %v, want %v", got, want)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1000, 0.99, 42)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	// Item 0 must dominate; top-10 should hold a large share.
	if counts[0] < counts[500]*10 {
		t.Errorf("item 0 (%d) not much hotter than item 500 (%d)", counts[0], counts[500])
	}
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	if float64(top10)/n < 0.3 {
		t.Errorf("top-10 share = %.3f, want >= 0.3", float64(top10)/n)
	}
}

func TestZipfLargeKeyspace(t *testing.T) {
	z := NewZipf(100_000_000, 0.99, 1)
	for i := 0; i < 1000; i++ {
		v := z.Next()
		if v < 0 || v >= 100_000_000 {
			t.Fatalf("out of range: %d", v)
		}
	}
}

// Determinism guards: the harness byte-identical contract requires that a
// generator seeded identically produces the identical stream on every run,
// no matter the schedule that interleaves it.

func TestZipfDeterministic(t *testing.T) {
	a := NewZipf(1_000_000, 0.99, 31)
	b := NewZipf(1_000_000, 0.99, 31)
	for i := 0; i < 5000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("sample %d: %d vs %d — same seed diverged", i, x, y)
		}
	}
	c := NewZipf(1_000_000, 0.99, 32)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	// Zipf streams share hot items, so some collisions are expected — but a
	// different seed must not reproduce the stream.
	if same == 1000 {
		t.Fatal("different seeds produced an identical Zipf stream")
	}
}

func TestPatternScheduleDeterministic(t *testing.T) {
	build := func(seed uint64) []Pattern {
		return []Pattern{
			NewSequential(1<<20, 256),
			NewRandom(1<<20, 256, seed),
		}
	}
	a, b := build(77), build(77)
	for i := 0; i < 2000; i++ {
		for j := range a {
			if x, y := a[j].Next(), b[j].Next(); x != y {
				t.Fatalf("pattern %d access %d: %d vs %d — same seed diverged", j, i, x, y)
			}
		}
	}
}

func TestShiftingHotspotDeterministic(t *testing.T) {
	a := NewShiftingHotspot(100000, 500, 1000, 0.9, 21)
	b := NewShiftingHotspot(100000, 500, 1000, 0.9, 21)
	for i := 0; i < 10000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("sample %d: %d vs %d — same seed diverged", i, x, y)
		}
	}
	c := NewShiftingHotspot(100000, 500, 1000, 0.9, 22)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("different seeds produced an identical hotspot stream")
	}
}

func TestShiftingHotspotSkewAndRange(t *testing.T) {
	const n, hot, period = 100000, 500, 2000
	s := NewShiftingHotspot(n, hot, period, 0.9, 7)
	base := s.Base()
	inHot, draws := 0, 0
	for i := 0; i < period; i++ {
		v := s.Next()
		if v < 0 || v >= n {
			t.Fatalf("draw %d out of range: %d", i, v)
		}
		draws++
		if v >= base && v < base+hot {
			inHot++
		}
	}
	// ~90% of draws sit inside the 0.5% hot window while it is stationary.
	if frac := float64(inHot) / float64(draws); frac < 0.8 {
		t.Errorf("hot-window share = %.3f, want >= 0.8", frac)
	}
}

func TestShiftingHotspotMoves(t *testing.T) {
	const period = 500
	s := NewShiftingHotspot(1_000_000, 100, period, 1, 3)
	bases := map[int64]bool{s.Base(): true}
	prev := s.Base()
	var moves []int
	for i := 1; i <= 8*period+1; i++ {
		s.Next()
		if b := s.Base(); b != prev {
			moves = append(moves, i)
			prev = b
			bases[b] = true
		}
	}
	// The window relocates on the first draw after each full period: calls
	// period+1, 2·period+1, ... (a move to the same base is astronomically
	// unlikely over a million ids and this seed does not hit one).
	if len(moves) != 8 {
		t.Fatalf("saw %d moves over 8 periods, want 8 (at %v)", len(moves), moves)
	}
	for j, at := range moves {
		if want := (j+1)*period + 1; at != want {
			t.Fatalf("move %d at draw %d, want %d — relocation not period-aligned", j, at, want)
		}
	}
	// Seeded-uniform bases must visit distinct windows.
	if len(bases) < 5 {
		t.Errorf("only %d distinct hot windows over 8 periods", len(bases))
	}
}

func TestRecordGenDeterministic(t *testing.T) {
	a, b := NewRecordGen(20, 100, 1<<20, 9), NewRecordGen(20, 100, 1<<20, 9)
	for i := 0; i < 1000; i++ {
		ra, rb := a.Next(), b.Next()
		if !bytes.Equal(ra.Key, rb.Key) || !bytes.Equal(ra.Value, rb.Value) {
			t.Fatalf("record %d: same seed diverged", i)
		}
	}
}

func TestRecordGenShapes(t *testing.T) {
	g := NewRecordGen(20, 100, 1<<20, 7)
	r := g.Next()
	if len(r.Key) != 20 || len(r.Value) != 100 {
		t.Fatalf("record shape = %d/%d", len(r.Key), len(r.Value))
	}
}

func TestRecordGenKeyOrdering(t *testing.T) {
	g := NewRecordGen(20, 100, 1<<20, 7)
	prev := g.KeyFor(0)
	for id := int64(1); id <= 300; id++ { // crosses the 255→256 byte carry
		cur := g.KeyFor(id)
		if bytes.Compare(prev, cur) >= 0 {
			t.Fatalf("key %d does not sort after key %d", id, id-1)
		}
		prev = cur
	}
}

func TestRecordGenKeyForDeterministic(t *testing.T) {
	g := NewRecordGen(20, 100, 1<<20, 7)
	if !bytes.Equal(g.KeyFor(12345), g.KeyFor(12345)) {
		t.Fatal("KeyFor not deterministic")
	}
	if bytes.Equal(g.KeyFor(1), g.KeyFor(2)) {
		t.Fatal("distinct ids collide")
	}
}
