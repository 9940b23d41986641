package imc

import (
	"testing"
	"testing/quick"

	"optanestudy/internal/dimm"
	"optanestudy/internal/mem"
	"optanestudy/internal/sim"
)

func newXP() *dimm.XPDIMM {
	cfg := dimm.DefaultXPConfig()
	cfg.Wear.Enabled = false
	return dimm.NewXPDIMM(cfg)
}

func TestChannelReadAddsBusTime(t *testing.T) {
	ch := NewChannel(DefaultChannelConfig())
	d := dimm.NewDRAMDIMM(dimm.DefaultDRAMConfig())
	done := ch.Read(0, d, 0)
	// Row miss 41ns + bus 3.5ns.
	if done != 44500*sim.Picosecond {
		t.Fatalf("read completion = %v", done)
	}
}

func TestChannelWriteAcceptanceIsImmediateWhenEmpty(t *testing.T) {
	ch := NewChannel(DefaultChannelConfig())
	d := newXP()
	acc, drain := ch.PostWrite(100*sim.Nanosecond, d, 0)
	if acc != 100*sim.Nanosecond {
		t.Fatalf("acceptance = %v, want immediate", acc)
	}
	if drain <= acc {
		t.Fatalf("drain %v must follow acceptance %v", drain, acc)
	}
}

func TestChannelWPQBackpressure(t *testing.T) {
	cfg := DefaultChannelConfig()
	cfg.WPQEntries = 4
	ch := NewChannel(cfg)
	d := newXP()
	// Flood random 64 B writes: each is a 256 B media RMW, so the WPQ
	// fills and acceptance times fall behind the post times.
	var blocked bool
	r := sim.NewRNG(1)
	for i := 0; i < 200; i++ {
		acc, _ := ch.PostWrite(sim.Time(i)*sim.Nanosecond, d, r.Int63n(1<<30)&^63)
		if acc > sim.Time(i)*sim.Nanosecond {
			blocked = true
		}
	}
	if !blocked {
		t.Fatal("WPQ never exerted backpressure under flood")
	}
}

func TestChannelFIFODrainMonotone(t *testing.T) {
	ch := NewChannel(DefaultChannelConfig())
	d := newXP()
	var last sim.Time
	r := sim.NewRNG(2)
	for i := 0; i < 500; i++ {
		_, drain := ch.PostWrite(sim.Time(i*10)*sim.Nanosecond, d, r.Int63n(1<<28)&^63)
		if drain < last {
			t.Fatalf("drain went backwards: %v after %v", drain, last)
		}
		last = drain
	}
}

func TestChannelPerDIMMWPQs(t *testing.T) {
	cfg := DefaultChannelConfig()
	cfg.WPQEntries = 2
	ch := NewChannel(cfg)
	slow := newXP()
	fast := dimm.NewDRAMDIMM(dimm.DefaultDRAMConfig())
	// Fill the slow DIMM's WPQ.
	r := sim.NewRNG(3)
	for i := 0; i < 50; i++ {
		ch.PostWrite(0, slow, r.Int63n(1<<30)&^63)
	}
	// The fast DIMM's queue must still accept promptly (separate WPQ),
	// though it shares the bus.
	acc, _ := ch.PostWrite(0, fast, 0)
	if acc > 10*sim.Microsecond {
		t.Fatalf("fast DIMM acceptance = %v; WPQs must be per-DIMM", acc)
	}
}

func TestChannelThroughputBoundedByMedia(t *testing.T) {
	ch := NewChannel(DefaultChannelConfig())
	d := newXP()
	// Sequential stream, posted as fast as acceptance allows.
	var tm sim.Time
	total := int64(4 << 20)
	for off := int64(0); off < total; off += mem.CacheLine {
		acc, _ := ch.PostWrite(tm, d, off)
		tm = acc
	}
	gbs := float64(total) / tm.Seconds() / 1e9
	// Media write ceiling is 256B/100ns = 2.56 GB/s.
	if gbs > 2.7 || gbs < 1.8 {
		t.Fatalf("sustained sequential write bandwidth = %.2f GB/s, want ~2.4", gbs)
	}
	if ewr := d.Counters().EWR(); ewr < 0.95 {
		t.Fatalf("sequential EWR through channel = %.3f", ewr)
	}
}

func TestChannelBusSharedBetweenDIMMs(t *testing.T) {
	ch := NewChannel(DefaultChannelConfig())
	a := dimm.NewDRAMDIMM(dimm.DefaultDRAMConfig())
	// Saturate the bus with back-to-back reads at the same instant; they
	// must serialize on the bus.
	t1 := ch.Read(0, a, 0)
	t2 := ch.Read(0, a, 64)
	if want := t1 + DefaultChannelConfig().BusTime; t2 != want {
		t.Fatalf("bus must serialize responses: %v then %v, want the second at %v", t1, t2, want)
	}
}

// fakeDIMM drains each write at the time its drain function picks, so the
// WPQ tests below can script drains without a media model.
type fakeDIMM struct {
	drain func(t sim.Time, addr int64) sim.Time
	c     dimm.Counters
}

func (f *fakeDIMM) ReadLine(t sim.Time, _ int64) sim.Time     { return t }
func (f *fakeDIMM) WriteLine(t sim.Time, addr int64) sim.Time { return f.drain(t, addr) }
func (f *fakeDIMM) Kind() dimm.Kind                           { return dimm.KindXP }
func (f *fakeDIMM) Counters() *dimm.Counters                  { return &f.c }

// wpqChannel returns a channel with an n-entry WPQ and a bus that takes no
// time, in front of a DIMM whose write of address a drains at time a.
func wpqChannel(n int) (*Channel, dimm.DIMM) {
	cfg := DefaultChannelConfig()
	cfg.BusTime = 0
	cfg.WPQEntries = n
	return NewChannel(cfg), &fakeDIMM{drain: func(_ sim.Time, addr int64) sim.Time { return sim.Time(addr) }}
}

// post posts a write at t whose entry drains at drain and returns the
// time the WPQ accepted it.
func post(ch *Channel, d dimm.DIMM, t, drain sim.Time) sim.Time {
	accepted, _ := ch.PostWrite(t, d, int64(drain))
	return accepted
}

// inFlight reports how many entries d's WPQ still holds.
func inFlight(ch *Channel, d dimm.DIMM) int { return ch.wpq(d).drains.Len() }

const ns = sim.Nanosecond

func TestWPQAcceptsUpToCapacity(t *testing.T) {
	ch, d := wpqChannel(3)
	for i := 0; i < 3; i++ {
		if at := post(ch, d, 0, sim.Time(100+i*10)*ns); at != 0 {
			t.Fatalf("entry %d accepted at %v, want 0", i, at)
		}
	}
	// Queue full: the fourth entry waits for the oldest drain (100ns).
	if at := post(ch, d, 0, 200*ns); at != 100*ns {
		t.Fatalf("fourth post accepted at %v, want 100ns", at)
	}
}

func TestWPQDrainFreesSlots(t *testing.T) {
	// Two entries draining at 10ns and 20ns fill a 2-entry queue, so a
	// post at 5ns waits for the first drain.
	fill := func() (*Channel, dimm.DIMM) {
		ch, d := wpqChannel(2)
		post(ch, d, 0, 10*ns)
		post(ch, d, 0, 20*ns)
		return ch, d
	}
	ch, d := fill()
	if at := post(ch, d, 5*ns, 30*ns); at != 10*ns {
		t.Fatalf("post@5 accepted at %v, want 10ns", at)
	}
	// At 15ns the first entry has drained and freed its slot.
	ch, d = fill()
	if at := post(ch, d, 15*ns, 30*ns); at != 15*ns {
		t.Fatalf("post@15 accepted at %v, want 15ns", at)
	}
	if n := inFlight(ch, d); n != 2 {
		t.Fatalf("%d entries in flight after post@15, want 2 (the drained one must leave)", n)
	}
}

func TestWPQDeepBacklog(t *testing.T) {
	ch, d := wpqChannel(4)
	// Four entries drain every 10ns starting at 10ns.
	for i := 1; i <= 4; i++ {
		post(ch, d, 0, sim.Time(i*10)*ns)
	}
	// A post at 0 into the full queue is accepted at the first drain.
	if at := post(ch, d, 0, 50*ns); at != 10*ns {
		t.Fatalf("post accepted at %v, want 10ns", at)
	}
	// In flight now: 20, 30, 40, 50 — full again.
	if at := post(ch, d, 12*ns, 60*ns); at != 20*ns {
		t.Fatalf("post accepted at %v, want 20ns", at)
	}
	// A burst of posts at one instant queues behind one drain each.
	for i := 0; i < 20; i++ {
		want := sim.Time(30+10*i) * ns
		if at := post(ch, d, 12*ns, sim.Time(70+10*i)*ns); at != want {
			t.Fatalf("burst post %d accepted at %v, want %v", i, at, want)
		}
	}
}

// Property: fed by a DIMM that drains through a FIFO server, no acceptance
// comes before its post and none finds WPQEntries earlier entries still in
// flight, and the residency and stall integrals equal their sums.
func TestWPQInvariant(t *testing.T) {
	f := func(seed uint64, capRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		cfg := DefaultChannelConfig()
		cfg.WPQEntries = capacity
		ch := NewChannel(cfg)
		r := sim.NewRNG(seed)
		var srv sim.Server
		d := &fakeDIMM{drain: func(t sim.Time, _ int64) sim.Time {
			_, end := srv.Acquire(t, sim.Time(1+r.Intn(30))*ns)
			return end
		}}
		var now, occ, stall sim.Time
		var drains []sim.Time
		for i := 0; i < 500; i++ {
			now += sim.Time(r.Intn(20)) * ns
			at, drain := ch.PostWrite(now, d, 0)
			if at < now {
				return false
			}
			busy := 0
			for _, x := range drains {
				if x > at {
					busy++
				}
			}
			if busy >= capacity || inFlight(ch, d) > capacity {
				return false
			}
			drains = append(drains, drain)
			occ += drain - at
			stall += at - now
		}
		return ch.WPQOccupancyTime(d) == occ && ch.WPQStallTime(d) == stall
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWPQOccupancyAndStallTime(t *testing.T) {
	ch, d := wpqChannel(1)
	if ch.WPQOccupancyTime(d) != 0 || ch.WPQStallTime(d) != 0 {
		t.Fatal("fresh queue has nonzero occupancy or stall time")
	}
	// Two entries resident 10ns and 30ns: 40ns of entry-residency. The
	// second, posted at 5ns, waits 5ns for the one slot.
	post(ch, d, 0, 10*ns)
	post(ch, d, 5*ns, 40*ns)
	if got := ch.WPQOccupancyTime(d); got != 40*ns {
		t.Fatalf("occupancy time = %v, want 40ns", got)
	}
	if got := ch.WPQStallTime(d); got != 5*ns {
		t.Fatalf("stall time = %v, want 5ns", got)
	}
	// A drain at or before acceptance adds no residency, and draining
	// every entry leaves both integrals as they were.
	post(ch, d, 50*ns, 50*ns)
	post(ch, d, 70*ns, 60*ns)
	post(ch, d, 100*ns, 100*ns)
	if got := ch.WPQOccupancyTime(d); got != 40*ns {
		t.Fatalf("occupancy time after degenerate drains = %v, want 40ns", got)
	}
	if got := ch.WPQStallTime(d); got != 5*ns {
		t.Fatalf("stall time after degenerate drains = %v, want 5ns", got)
	}
}

// An entry drains at exactly its drain timestamp: a post at that instant
// finds its slot free, and a post one instant earlier waits for it.
func TestWPQEqualTimestamps(t *testing.T) {
	// Two entries drain at the same instant, 10ns.
	fill := func() (*Channel, dimm.DIMM) {
		ch, d := wpqChannel(2)
		post(ch, d, 0, 10*ns)
		post(ch, d, 0, 10*ns)
		return ch, d
	}
	ch, d := fill()
	if at := post(ch, d, 9*ns, 20*ns); at != 10*ns {
		t.Fatalf("post@9 accepted at %v, want 10ns", at)
	}
	ch, d = fill()
	for i := 0; i < 2; i++ {
		if at := post(ch, d, 10*ns, 20*ns); at != 10*ns {
			t.Fatalf("post %d @10 accepted at %v, want 10ns (drain boundary is inclusive)", i, at)
		}
	}
	if n := inFlight(ch, d); n != 2 {
		t.Fatalf("%d entries in flight, want 2 (both drained at 10ns)", n)
	}
	// Full again, both draining at 20ns: a post at 20ns does not wait.
	if at := post(ch, d, 20*ns, 30*ns); at != 20*ns {
		t.Fatalf("post@20 accepted at %v, want 20ns", at)
	}
}
