package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"optanestudy/internal/sim"
)

func TestAlignment(t *testing.T) {
	if LineAddr(130) != 128 || LineAddr(128) != 128 || LineAddr(63) != 0 {
		t.Error("LineAddr broken")
	}
	if XPLineAddr(511) != 256 || XPLineAddr(256) != 256 {
		t.Error("XPLineAddr broken")
	}
	if PageAddr(8191) != 4096 {
		t.Error("PageAddr broken")
	}
}

func TestLinesIn(t *testing.T) {
	cases := []struct {
		addr int64
		size int
		want int
	}{
		{0, 64, 1},
		{0, 65, 2},
		{63, 2, 2},
		{0, 0, 0},
		{64, 128, 2},
		{100, 1, 1},
	}
	for _, c := range cases {
		if got := LinesIn(c.addr, c.size); got != c.want {
			t.Errorf("LinesIn(%d, %d) = %d, want %d", c.addr, c.size, got, c.want)
		}
	}
	if XPLinesIn(255, 2) != 2 {
		t.Error("XPLinesIn straddle broken")
	}
	if XPLinesIn(0, 256) != 1 {
		t.Error("XPLinesIn exact broken")
	}
}

func TestDataStoreReadWrite(t *testing.T) {
	var d DataStore
	msg := []byte("hello, persistent world")
	d.Write(100, msg)
	got := make([]byte, len(msg))
	d.Read(100, got)
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestDataStoreCrossPage(t *testing.T) {
	var d DataStore
	data := make([]byte, 3*Page)
	for i := range data {
		data[i] = byte(i % 251)
	}
	d.Write(Page-100, data)
	got := make([]byte, len(data))
	d.Read(Page-100, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page roundtrip failed")
	}
	if d.Pages() != 4 {
		t.Fatalf("pages = %d, want 4", d.Pages())
	}
}

func TestDataStoreUnwrittenReadsZero(t *testing.T) {
	var d DataStore
	buf := []byte{1, 2, 3, 4}
	d.Read(1<<40, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten memory not zero")
		}
	}
}

func TestDataStoreZero(t *testing.T) {
	var d DataStore
	d.Write(0, bytes.Repeat([]byte{0xFF}, 2*Page))
	d.Zero(100, Page)
	buf := make([]byte, 2*Page)
	d.Read(0, buf)
	for i, b := range buf {
		in := i >= 100 && i < 100+Page
		if in && b != 0 {
			t.Fatalf("byte %d not zeroed", i)
		}
		if !in && b != 0xFF {
			t.Fatalf("byte %d clobbered", i)
		}
	}
}

// Property: random writes then reads round-trip, even with overlaps
// (later writes win).
func TestDataStoreQuick(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		var d DataStore
		shadow := make(map[int64]byte)
		for i := 0; i < 200; i++ {
			addr := r.Int63n(3 * Page)
			n := 1 + r.Intn(300)
			data := make([]byte, n)
			for j := range data {
				data[j] = byte(r.Uint64())
				shadow[addr+int64(j)] = data[j]
			}
			d.Write(addr, data)
		}
		buf := make([]byte, 1)
		for addr, want := range shadow {
			d.Read(addr, buf)
			if buf[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Interleaved writes, reads and zeroings across pages agree with a
// byte-map model, reads of pages never written included, however the
// last-page memo is left by the previous access.
func TestDataStoreMatchesByteModel(t *testing.T) {
	r := sim.NewRNG(7)
	var d DataStore
	shadow := make(map[int64]byte)
	pages := make(map[int64]bool)
	// Five pages: four neighbours and one far away.
	addrOf := func() int64 {
		p := int64(r.Intn(5))
		if p == 4 {
			p = 1 << 30
		}
		return p*Page + r.Int63n(Page)
	}
	buf := make([]byte, 2*Page)
	for i := 0; i < 5000; i++ {
		addr, n := addrOf(), 1+r.Intn(Page+100)
		switch r.Intn(3) {
		case 0:
			data := buf[:n]
			for j := range data {
				data[j] = byte(r.Uint64())
				shadow[addr+int64(j)] = data[j]
				pages[PageAddr(addr+int64(j))] = true
			}
			d.Write(addr, data)
		case 1:
			d.Zero(addr, n)
			for j := int64(0); j < int64(n); j++ {
				shadow[addr+j] = 0
				pages[PageAddr(addr+j)] = true
			}
		case 2:
			d.Read(addr, buf[:n])
			for j := 0; j < n; j++ {
				if buf[j] != shadow[addr+int64(j)] {
					t.Fatalf("op %d: byte %#x reads %d, want %d", i, addr+int64(j), buf[j], shadow[addr+int64(j)])
				}
			}
		}
		if d.Pages() != len(pages) {
			t.Fatalf("op %d: %d pages, want %d", i, d.Pages(), len(pages))
		}
	}
}
