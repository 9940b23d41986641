// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine uses a process model: each simulated thread of execution is a
// Proc running on its own goroutine, but exactly one Proc executes at a time
// and control transfers only at explicit time-advancing operations. This
// yields deterministic, race-free simulations while letting simulated code
// (memory kernels, file systems, key-value stores) be written as ordinary
// straight-line Go.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulated timestamp or duration, in picoseconds. Picosecond
// resolution avoids rounding artifacts when dividing nanosecond-scale
// service times across 64-byte transfer units.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanos converts a floating-point number of nanoseconds to a Time.
func Nanos(ns float64) Time { return Time(math.Round(ns * float64(Nanosecond))) }

// Micros converts a floating-point number of microseconds to a Time.
func Micros(us float64) Time { return Time(math.Round(us * float64(Microsecond))) }

// String formats t with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.2fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}
