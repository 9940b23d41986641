package sim

import "testing"

func TestServerFIFO(t *testing.T) {
	var s Server
	start, end := s.Acquire(0, 10*Nanosecond)
	if start != 0 || end != 10*Nanosecond {
		t.Fatalf("first acquire = (%v, %v)", start, end)
	}
	// Arrives while busy: queued behind.
	start, end = s.Acquire(5*Nanosecond, 10*Nanosecond)
	if start != 10*Nanosecond || end != 20*Nanosecond {
		t.Fatalf("second acquire = (%v, %v)", start, end)
	}
	// Arrives after idle gap: starts immediately.
	start, end = s.Acquire(100*Nanosecond, Nanosecond)
	if start != 100*Nanosecond || end != 101*Nanosecond {
		t.Fatalf("third acquire = (%v, %v)", start, end)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide too often: %d/100", same)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	const n = 100000
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, c := range buckets {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Errorf("bucket %d = %d, expected ~%d", i, c, n/10)
		}
	}
}

func TestRNGBoolEdges(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if hits < n/4-n/50 || hits > n/4+n/50 {
		t.Errorf("Bool(0.25) hit rate %d/%d", hits, n)
	}
}
