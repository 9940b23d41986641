package sim

import "testing"

func TestEngineSingleProc(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.Go("a", 0, func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Advance(10 * Nanosecond)
			trace = append(trace, p.Now())
		}
	})
	end := e.Run()
	if end != 30*Nanosecond {
		t.Fatalf("end = %v, want 30ns", end)
	}
	want := []Time{10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond}
	for i, w := range want {
		if trace[i] != w {
			t.Errorf("trace[%d] = %v, want %v", i, trace[i], w)
		}
	}
}

func TestEngineInterleavesByTime(t *testing.T) {
	e := NewEngine()
	var order []string
	// Proc a ticks every 10ns, proc b every 25ns; events must appear in
	// global time order.
	e.Go("a", 0, func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Advance(10 * Nanosecond)
			order = append(order, "a")
		}
	})
	e.Go("b", 0, func(p *Proc) {
		for i := 0; i < 2; i++ {
			p.Advance(25 * Nanosecond)
			order = append(order, "b")
		}
	})
	e.Run()
	want := []string{"a", "a", "b", "a", "a", "b", "a"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineFIFOAmongTies(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.Go("p", 0, func(p *Proc) {
			p.Advance(5 * Nanosecond)
			order = append(order, i)
		})
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("tie order = %v, want spawn order", order)
		}
	}
}

func TestEngineNestedSpawn(t *testing.T) {
	e := NewEngine()
	var childTime Time
	e.Go("parent", 0, func(p *Proc) {
		p.Advance(100 * Nanosecond)
		e.Go("child", p.Now(), func(c *Proc) {
			c.Advance(Nanosecond)
			childTime = c.Now()
		})
		p.Advance(50 * Nanosecond)
	})
	e.Run()
	if childTime != 101*Nanosecond {
		t.Fatalf("child ran at %v, want 101ns", childTime)
	}
}

func TestEngineAdvanceToPastIsNoop(t *testing.T) {
	e := NewEngine()
	e.Go("p", 0, func(p *Proc) {
		p.AdvanceTo(50 * Nanosecond)
		p.AdvanceTo(10 * Nanosecond) // must not go backwards
		if p.Now() != 50*Nanosecond {
			t.Errorf("Now = %v after backwards AdvanceTo, want 50ns", p.Now())
		}
	})
	e.Run()
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var stamps []Time
		srv := &Server{}
		for i := 0; i < 4; i++ {
			e.Go("w", 0, func(p *Proc) {
				r := NewRNG(uint64(i))
				for j := 0; j < 20; j++ {
					_, end := srv.Acquire(p.Now(), Time(r.Intn(100))*Nanosecond)
					p.AdvanceTo(end)
					stamps = append(stamps, p.Now())
				}
			})
		}
		e.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if Nanos(81).Nanoseconds() != 81 {
		t.Errorf("Nanos(81) = %v", Nanos(81))
	}
	if Micros(1.5) != 1500*Nanosecond {
		t.Errorf("Micros(1.5) = %v", Micros(1.5))
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{81 * Nanosecond, "81.00ns"},
		{1500 * Nanosecond, "1.500us"},
		{2 * Millisecond, "2.000ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}
