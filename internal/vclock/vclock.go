// Package vclock abstracts the wall clock behind a Clock interface so the
// same timing-dependent code — attempt windows, retry backoff, link
// latency — runs against the real clock in production and against virtual
// time in tests and in the fault-injection harness.
//
// The clock has two faces. Real is the system clock: a timer's function
// runs in its own goroutine. Engine is virtual time, sim.Engine's event
// queue: a timer's function runs inline when the engine reaches it, so the
// code scheduled on it is as single-threaded and as deterministic as the
// engine itself. AfterFunc hands back a Timer by value, the face's own
// timer and nothing around it, so the window a connection arms per
// attempt costs the wrapper no allocation. Waiting differs with the face:
// on the real clock a caller blocks until another goroutine is done, on
// an Engine clock it steps the engine (Step) until the event it waits for
// has fired. The
// transport's driver waits for a connection either way, so faultsim's
// deterministic world runs its connections through the same
// ConnectDetail as production, and the transport's timing tests step the
// engine through a connection, reading exact engine time.
package vclock

import (
	"time"

	"p2panon/internal/sim"
)

// Clock is the timing surface the transport runtime consumes. Real()
// returns the system-clock implementation, Engine the virtual one.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns Now().Sub(t).
	Since(t time.Time) time.Duration
	// AfterFunc runs fn once the clock reaches now+d: in its own goroutine
	// on the real clock, inline on an Engine clock.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Timer is the clock-agnostic analogue of time.Timer: a value holding the
// face's own timer, so arming one allocates only what that face does.
type Timer struct {
	real *time.Timer
	ev   *sim.Timer
}

// Stop cancels the timer, reporting whether it was still pending.
func (t Timer) Stop() bool {
	if t.real != nil {
		return t.real.Stop()
	}
	return t.ev.Stop()
}

// realClock implements Clock on the system clock.
type realClock struct{}

// Real returns the system-clock implementation.
func Real() Clock { return realClock{} }

func (realClock) Now() time.Time                  { return time.Now() }
func (realClock) Since(t time.Time) time.Duration { return time.Since(t) }

func (realClock) AfterFunc(d time.Duration, fn func()) Timer {
	return Timer{real: time.AfterFunc(d, fn)}
}

// Epoch is the virtual start time: the Unix epoch, so virtual timestamps
// are recognisable in traces.
var Epoch = time.Unix(0, 0).UTC()

// engineClock is the Engine face: times are Epoch plus the engine's
// clock, and timers are engine events.
type engineClock struct{ e *sim.Engine }

// Engine returns a Clock over e that reads e's time on Epoch and schedules
// every timer as an event on e: an AfterFunc function runs inline when the
// engine reaches it. The clock is as single-threaded as the engine itself.
func Engine(e *sim.Engine) Clock { return engineClock{e} }

// Step fires the engine's earliest pending event, reporting whether there
// was one: the way a caller holding an Engine clock waits.
func (c engineClock) Step() bool { return c.e.Step() }

func (c engineClock) Now() time.Time                  { return Epoch.Add(c.e.Now().Duration()) }
func (c engineClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// AfterFunc queues fn d from now. The deadline is summed in nanoseconds,
// so deadlines that are equal as Durations are equal on the engine and
// fire in scheduling order; a non-positive d fires at the current time,
// after the events already queued for it.
func (c engineClock) AfterFunc(d time.Duration, fn func()) Timer {
	now := c.e.Now()
	at := sim.FromDuration(now.Duration() + d)
	if at < now {
		at = now
	}
	return Timer{ev: c.e.NewTimer(at, fn)}
}
