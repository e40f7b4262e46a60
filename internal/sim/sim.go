// Package sim implements a deterministic discrete-event simulation engine:
// a virtual clock, a binary-heap future event list with stable tie-breaking,
// periodic processes, and run-until controls.
//
// The engine is single-threaded by design — determinism is a hard
// requirement for reproducing the paper's experiments — while the separate
// transport package provides a live message-passing runtime that
// exercises the same routing code.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is virtual simulation time in seconds.
type Time float64

// Seconds returns t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) }

// Minutes returns a Time representing m minutes.
func Minutes(m float64) Time { return Time(m * 60) }

// FromDuration returns d as a Time. For |d| below 2^51 ns (about 26 days)
// the conversion round-trips: FromDuration(d).Duration() == d, and equal
// nanosecond sums map to equal Times, so a nanosecond schedule keeps its
// ties on the engine.
func FromDuration(d time.Duration) Time { return Time(float64(d) / 1e9) }

// Duration returns t as a time.Duration, rounded to the nanosecond.
func (t Time) Duration() time.Duration { return time.Duration(math.Round(float64(t) * 1e9)) }

// Event is a scheduled callback. Fire runs when the simulation clock
// reaches the event's time.
type Event interface {
	Fire(e *Engine)
}

// EventFunc adapts a plain function to the Event interface.
type EventFunc func(e *Engine)

// Fire calls f.
func (f EventFunc) Fire(e *Engine) { f(e) }

// item is a heap entry. seq provides FIFO tie-breaking for simultaneous
// events so that execution order is deterministic and insertion-ordered.
type item struct {
	at  Time
	seq uint64
	ev  Event
}

type eventHeap []item

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(item)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Timer is an event that can be withdrawn before it fires; schedule one
// with NewTimer.
type Timer struct {
	e    *Engine
	fn   func()
	done bool
}

// Fire runs the timer's function.
func (t *Timer) Fire(*Engine) {
	t.done = true
	t.fn()
}

// Stop withdraws the timer, reporting whether it was still pending. The
// entry stays queued, but the engine discards it without moving the clock.
func (t *Timer) Stop() bool {
	if t.done {
		return false
	}
	t.done = true
	t.e.withdrawn++
	return true
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now       Time
	queue     eventHeap
	seq       uint64
	stopped   bool
	withdrawn int // stopped Timers still queued
}

// NewEngine returns an engine with the clock at zero and an empty event
// list.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events currently scheduled, stopped
// Timers excluded.
func (e *Engine) Pending() int { return len(e.queue) - e.withdrawn }

// Schedule enqueues ev to fire at absolute time at. Scheduling in the past
// panics: it would make the clock non-monotone.
func (e *Engine) Schedule(at Time, ev Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	if ev == nil {
		panic("sim: scheduling nil event")
	}
	e.seq++
	heap.Push(&e.queue, item{at: at, seq: e.seq, ev: ev})
}

// After enqueues ev to fire delay seconds from now. Negative delays panic.
func (e *Engine) After(delay Time, ev Event) {
	e.Schedule(e.now+delay, ev)
}

// AfterFunc enqueues fn to run delay seconds from now.
func (e *Engine) AfterFunc(delay Time, fn func(e *Engine)) {
	e.After(delay, EventFunc(fn))
}

// NewTimer schedules fn at absolute time at and returns the Timer that
// can withdraw it.
func (e *Engine) NewTimer(at Time, fn func()) *Timer {
	t := &Timer{e: e, fn: fn}
	e.Schedule(at, t)
	return t
}

// Stop halts the run loop after the currently firing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was fired.
func (e *Engine) Step() bool {
	if !e.live() {
		return false
	}
	it := heap.Pop(&e.queue).(item)
	e.now = it.at
	it.ev.Fire(e)
	return true
}

// live discards stopped Timers from the head of the queue and reports
// whether a live event remains.
func (e *Engine) live() bool {
	for len(e.queue) > 0 {
		if t, ok := e.queue[0].ev.(*Timer); !ok || !t.done {
			return true
		}
		heap.Pop(&e.queue)
		e.withdrawn--
	}
	return false
}

// Run fires events until the queue empties or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to the deadline (if it has not passed it already). Events scheduled
// after the deadline remain pending.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && e.live() && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Every schedules fn to run now+period, now+2·period, ... until either fn
// returns false or the returned cancel function is called. It panics if
// period <= 0.
func (e *Engine) Every(period Time, fn func(e *Engine) bool) (cancel func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every with period %v", period))
	}
	stopped := false
	var tick func(e *Engine)
	tick = func(e *Engine) {
		if stopped {
			return
		}
		if !fn(e) {
			stopped = true
			return
		}
		e.AfterFunc(period, tick)
	}
	e.AfterFunc(period, tick)
	return func() { stopped = true }
}
