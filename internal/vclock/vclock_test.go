package vclock

import (
	"reflect"
	"testing"
	"time"

	"p2panon/internal/sim"
)

// firing is one timer run: its name and the clock's reading then, as an
// offset from Epoch.
type firing struct {
	name string
	at   time.Duration
}

// record returns an AfterFunc body that appends a firing named name to
// log.
func record(c Clock, log *[]firing, name string) func() {
	return func() { *log = append(*log, firing{name, c.Since(Epoch)}) }
}

func TestEngineFiresInDeadlineOrder(t *testing.T) {
	eng := sim.NewEngine()
	c := Engine(eng)
	var log []firing
	c.AfterFunc(30*time.Millisecond, record(c, &log, "c"))
	c.AfterFunc(10*time.Millisecond, record(c, &log, "a"))
	c.AfterFunc(20*time.Millisecond, record(c, &log, "b"))
	eng.Run()
	want := []firing{{"a", 10 * time.Millisecond}, {"b", 20 * time.Millisecond}, {"c", 30 * time.Millisecond}}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
}

// TestEngineEqualDeadlinesKeepSchedulingOrder pins the nanosecond sum:
// 100 ms + 700 ms and 0 + 800 ms are one deadline, so the timer scheduled
// first fires first. Summed as float seconds, 0.1 + 0.7 falls below 0.8
// and the later timer would overtake the earlier one.
func TestEngineEqualDeadlinesKeepSchedulingOrder(t *testing.T) {
	eng := sim.NewEngine()
	c := Engine(eng)
	var log []firing
	c.AfterFunc(800*time.Millisecond, record(c, &log, "first"))
	c.AfterFunc(100*time.Millisecond, func() {
		c.AfterFunc(700*time.Millisecond, record(c, &log, "second"))
	})
	eng.Run()
	want := []firing{{"first", 800 * time.Millisecond}, {"second", 800 * time.Millisecond}}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
}

func TestEngineTimerStop(t *testing.T) {
	eng := sim.NewEngine()
	c := Engine(eng)
	ran := false
	tm := c.AfterFunc(time.Second, func() { ran = true })
	if eng.Pending() != 1 {
		t.Fatalf("pending %d, want 1", eng.Pending())
	}
	if !tm.Stop() {
		t.Fatal("Stop before firing reported the timer already done")
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending %d after Stop, want 0", eng.Pending())
	}
	eng.Run()
	if ran {
		t.Fatal("stopped timer ran")
	}
	if got := c.Since(Epoch); got != 0 {
		t.Fatalf("clock moved to %v for a stopped timer", got)
	}
	fired := c.AfterFunc(time.Millisecond, func() {})
	eng.Run()
	if fired.Stop() {
		t.Fatal("Stop after firing reported the timer pending")
	}
}

// TestEngineNonPositiveDelay pins that a timer due now or in the past
// fires at the current time, queued behind the events already due then.
func TestEngineNonPositiveDelay(t *testing.T) {
	eng := sim.NewEngine()
	c := Engine(eng)
	var log []firing
	c.AfterFunc(100*time.Millisecond, func() {
		record(c, &log, "p")()
		c.AfterFunc(-5*time.Millisecond, record(c, &log, "past"))
		c.AfterFunc(0, record(c, &log, "now"))
	})
	c.AfterFunc(100*time.Millisecond, record(c, &log, "q"))
	eng.Run()
	ms := 100 * time.Millisecond
	want := []firing{{"p", ms}, {"q", ms}, {"past", ms}, {"now", ms}}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
}

func TestRealClockBasics(t *testing.T) {
	c := Real()
	t0 := c.Now()
	time.Sleep(time.Millisecond)
	if c.Since(t0) <= 0 {
		t.Fatal("Since not positive after sleep")
	}
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("real AfterFunc did not run")
	}
}
