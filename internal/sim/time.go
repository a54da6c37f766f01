// Package sim implements a deterministic discrete-event simulation kernel
// in the style of CSIM (Schwetman 1990), the simulation language the
// SPIFFI paper used.
//
// Every simulated component is an Action: a continuation the calendar
// fires at the point where a CSIM process would have resumed. A wait is
// a Schedule, or a registration on a Queue, Event or Facility that
// schedules the Action when it is released, and each Action runs to
// completion before the next. All wake-ups flow through a single event
// calendar ordered by (time, sequence number), so runs are bit-for-bit
// reproducible given deterministic component logic and seeded random
// streams.
//
// Coroutine processes (Proc, Spawn) still run on the same calendar, but
// only this package's tests and the repo benchmark's kernel
// micro-benchmarks start them.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. Using an integer representation keeps event ordering exact
// and runs reproducible across platforms.
type Time int64

// Duration is a span of simulated time in nanoseconds. It is a distinct
// type from time.Duration only to make unit errors impossible to compile;
// the scale (nanoseconds) is identical.
type Duration = time.Duration

// Common duration constructors, mirroring the time package for readability
// at call sites.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// TimeInfinity is the far-future sentinel: later than any reachable
// simulation instant, used for "never" deadlines (lowest-priority
// prefetches) and permanent failures (no repair scheduled). It is 1<<62,
// not MaxInt64, so that subtracting any realistic Time still yields a
// positive Duration; adding a positive Duration to it, however, can wrap
// negative — code must treat TimeInfinity as unreachable and never
// extend it. This is the single audited home of that overflow caveat.
const TimeInfinity Time = 1 << 62

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// DurationOfSeconds converts a floating-point second count into a Duration.
func DurationOfSeconds(s float64) Duration { return Duration(s * float64(Second)) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }
