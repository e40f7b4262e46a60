// Package vclock abstracts the wall clock behind a Clock interface so the
// same timing-dependent code — attempt windows, retry backoff, link
// latency — runs against the real clock in production and against virtual
// time in tests and in the fault-injection harness.
//
// Virtual time has one implementation, sim.Engine's event queue, and two
// faces over it. Engine is the single-threaded face: a timer's function
// runs inline when the engine reaches it, which is how faultsim drives the
// live transport inside its deterministic world. Virtual is the
// concurrent face: a locked engine that only moves when told to, either
// explicitly via Advance or through AutoAdvance, which watches for
// quiescence — no clock activity for a grace period of real time — and
// then fires the earliest pending timer. Auto-advance is what lets a
// concurrent runtime like the live transport run its full backoff/timeout
// schedule in microseconds of real time: whenever every goroutine is
// waiting on the clock, the clock jumps straight to the next deadline.
package vclock

import (
	"sync"
	"time"

	"p2panon/internal/sim"
)

// Clock is the timing surface the transport runtime consumes. Real()
// returns the system-clock implementation; NewVirtual and Engine virtual
// ones.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns Now().Sub(t).
	Since(t time.Time) time.Duration
	// Until returns t.Sub(Now()).
	Until(t time.Time) time.Duration
	// NewTimer returns a timer that sends on its channel C once the clock
	// reaches now+d.
	NewTimer(d time.Duration) *Timer
	// AfterFunc runs fn once the clock reaches now+d: in its own goroutine
	// on the real and Virtual clocks, inline on an Engine clock.
	AfterFunc(d time.Duration, fn func()) *Timer
}

// Timer is the clock-agnostic analogue of time.Timer.
type Timer struct {
	// C delivers the firing time for timers made with NewTimer; it is nil
	// for AfterFunc timers.
	C <-chan time.Time

	real *time.Timer
	ev   *sim.Timer
	v    *Virtual // set when ev lives on a Virtual clock's engine
}

// Stop cancels the timer, reporting whether it was still pending.
func (t *Timer) Stop() bool {
	switch {
	case t.real != nil:
		return t.real.Stop()
	case t.ev == nil:
		return false // fired on creation
	case t.v != nil:
		t.v.mu.Lock()
		defer t.v.mu.Unlock()
		t.v.activity++
	}
	return t.ev.Stop()
}

// realClock implements Clock on the system clock.
type realClock struct{}

// Real returns the system-clock implementation.
func Real() Clock { return realClock{} }

func (realClock) Now() time.Time                  { return time.Now() }
func (realClock) Since(t time.Time) time.Duration { return time.Since(t) }
func (realClock) Until(t time.Time) time.Duration { return time.Until(t) }

func (realClock) NewTimer(d time.Duration) *Timer {
	t := time.NewTimer(d)
	return &Timer{C: t.C, real: t}
}

func (realClock) AfterFunc(d time.Duration, fn func()) *Timer {
	return &Timer{real: time.AfterFunc(d, fn)}
}

// Epoch is the default virtual start time: the Unix epoch, so virtual
// timestamps are recognisable in traces.
var Epoch = time.Unix(0, 0).UTC()

// engineClock is the Engine face: times are the epoch plus the engine's
// clock, and timers are engine events.
type engineClock struct {
	e     *sim.Engine
	epoch time.Time
}

// Engine returns a Clock over e that reads e's time on Epoch and schedules
// every timer as an event on e: an AfterFunc function runs inline when the
// engine reaches it. The clock is as single-threaded as the engine itself.
func Engine(e *sim.Engine) Clock { return newEngineClock(e, Epoch) }

func newEngineClock(e *sim.Engine, epoch time.Time) engineClock {
	if epoch.IsZero() {
		epoch = Epoch
	}
	return engineClock{e: e, epoch: epoch}
}

func (c engineClock) Now() time.Time                  { return c.epoch.Add(c.e.Now().Duration()) }
func (c engineClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }
func (c engineClock) Until(t time.Time) time.Duration { return t.Sub(c.Now()) }

// schedule queues fn d from now. The deadline is summed in nanoseconds,
// so deadlines that are equal as Durations are equal on the engine and
// fire in scheduling order; a non-positive d fires at the current time,
// after the events already queued for it.
func (c engineClock) schedule(d time.Duration, fn func()) *sim.Timer {
	at := sim.FromDuration(c.e.Now().Duration() + d)
	if now := c.e.Now(); at < now {
		at = now
	}
	return c.e.NewTimer(at, fn)
}

func (c engineClock) NewTimer(d time.Duration) *Timer {
	ch := make(chan time.Time, 1)
	return &Timer{C: ch, ev: c.schedule(d, func() { ch <- c.Now() })}
}

func (c engineClock) AfterFunc(d time.Duration, fn func()) *Timer {
	return &Timer{ev: c.schedule(d, fn)}
}

// Virtual is a deterministic manual/auto-advancing clock: an Engine face
// behind a lock whose timers hand their work off the engine — AfterFunc
// functions to their own goroutines, NewTimer firings to buffered
// channels — so no caller code runs under the lock.
type Virtual struct {
	mu  sync.Mutex
	eng *sim.Engine
	clk engineClock
	// activity counts every registration, cancellation and advance;
	// AutoAdvance uses it to detect quiescence.
	activity uint64
}

// NewVirtual returns a virtual clock starting at start (Epoch if zero).
func NewVirtual(start time.Time) *Virtual {
	eng := sim.NewEngine()
	return &Virtual{eng: eng, clk: newEngineClock(eng, start)}
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.clk.Now()
}

// Since returns the virtual time elapsed since t.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Until returns the virtual time remaining until t.
func (v *Virtual) Until(t time.Time) time.Duration { return t.Sub(v.Now()) }

// Elapsed returns the virtual time elapsed since the clock's start.
func (v *Virtual) Elapsed() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.eng.Now().Duration()
}

// Pending returns the number of live (unstopped, unfired) timers.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.eng.Pending()
}

// add registers fire d from now. A non-positive d fires at once (matching
// time.NewTimer semantics) and returns a timer that is no longer pending.
func (v *Virtual) add(d time.Duration, fire func(now time.Time)) *Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.activity++
	if d <= 0 {
		fire(v.clk.Now())
		return &Timer{}
	}
	return &Timer{ev: v.clk.schedule(d, func() { fire(v.clk.Now()) }), v: v}
}

// NewTimer returns a timer firing at virtual now+d.
func (v *Virtual) NewTimer(d time.Duration) *Timer {
	ch := make(chan time.Time, 1)
	t := v.add(d, func(now time.Time) { ch <- now })
	t.C = ch
	return t
}

// AfterFunc runs fn in its own goroutine at virtual now+d.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) *Timer {
	return v.add(d, func(time.Time) { go fn() })
}

// Advance moves the clock forward by d, firing every timer whose deadline
// falls inside the window, in deadline order.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.activity++
	v.eng.RunUntil(sim.FromDuration(v.eng.Now().Duration() + d))
}

// AutoAdvance starts a watchdog that fires the earliest pending timer
// whenever the clock has been quiescent — no registrations, cancellations
// or advances — for one grace period of real time. It returns a stop
// function (idempotent). With every goroutine waiting on the clock,
// activity stalls and the watchdog steps virtual time to the next
// deadline; while goroutines are actively using the clock, it stays out
// of the way. grace trades determinism margin against real-time speed;
// 1–2ms is plenty for in-process message passing.
func (v *Virtual) AutoAdvance(grace time.Duration) (stop func()) {
	if grace <= 0 {
		grace = time.Millisecond
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(grace)
		defer tick.Stop()
		var last uint64
		seen := false
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			v.mu.Lock()
			if seen && v.activity == last && v.eng.Step() {
				v.activity++
			}
			last, seen = v.activity, true
			v.mu.Unlock()
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
