package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now = %v", e.Now())
	}
	if e.Pending() != 0 || e.Step() {
		t.Fatal("fresh engine should be empty")
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, EventFunc(func(*Engine) { order = append(order, 3) }))
	e.Schedule(10, EventFunc(func(*Engine) { order = append(order, 1) }))
	e.Schedule(20, EventFunc(func(*Engine) { order = append(order, 2) }))
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("final clock %v", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, EventFunc(func(*Engine) { order = append(order, i) }))
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var at Time
	e.AfterFunc(10, func(e *Engine) {
		e.AfterFunc(5, func(e *Engine) { at = e.Now() })
	})
	e.Run()
	if at != 15 {
		t.Fatalf("nested After fired at %v", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.AfterFunc(10, func(*Engine) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, EventFunc(func(*Engine) {}))
}

func TestScheduleNilPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i), EventFunc(func(e *Engine) {
			count++
			if count == 3 {
				e.Stop()
			}
		}))
	}
	e.Run()
	if count != 3 {
		t.Fatalf("fired %d events after Stop", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d", e.Pending())
	}
	// Run again resumes.
	e.Run()
	if count != 10 {
		t.Fatalf("resume fired %d total", count)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.Schedule(at, EventFunc(func(*Engine) { fired = append(fired, at) }))
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %v", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("clock = %v, want 12", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	e := NewEngine()
	hit := false
	e.Schedule(10, EventFunc(func(*Engine) { hit = true }))
	e.RunUntil(10)
	if !hit {
		t.Fatal("event exactly at deadline should fire")
	}
}

func TestEveryPeriodic(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	e.Every(10, func(e *Engine) bool {
		ticks = append(ticks, e.Now())
		return len(ticks) < 5
	})
	e.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v", ticks)
		}
	}
}

func TestEveryCancel(t *testing.T) {
	e := NewEngine()
	count := 0
	cancel := e.Every(1, func(*Engine) bool { count++; return true })
	e.Schedule(3.5, EventFunc(func(*Engine) { cancel() }))
	e.RunUntil(10)
	if count != 3 {
		t.Fatalf("ticks after cancel = %d, want 3", count)
	}
}

func TestEveryPanicsOnBadPeriod(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	e.Every(0, func(*Engine) bool { return true })
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// TestFiredCounter counts fired events from both sides: each event's own
// side effect, and Step reporting true once per event.
func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := 0; i < 7; i++ {
		e.AfterFunc(Time(i), func(*Engine) { ran++ })
	}
	steps := 0
	for e.Step() {
		steps++
	}
	if ran != 7 || steps != 7 {
		t.Fatalf("%d events ran over %d steps, want 7 and 7", ran, steps)
	}
}

func TestTimeHelpers(t *testing.T) {
	if Minutes(2) != 120 {
		t.Fatalf("Minutes(2) = %v", Minutes(2))
	}
	if Time(90).Seconds() != 90 {
		t.Fatal("Seconds wrong")
	}
}

// TestTimerStopWithdraws: a stopped Timer neither fires nor moves the
// clock, not even as the head RunUntil peeks at, and Pending leaves it out.
func TestTimerStopWithdraws(t *testing.T) {
	e := NewEngine()
	var fired []string
	a := e.NewTimer(1, func() { fired = append(fired, "a") })
	e.NewTimer(5, func() { fired = append(fired, "b") })
	c := e.NewTimer(30, func() { fired = append(fired, "c") })
	if !a.Stop() || a.Stop() {
		t.Fatal("Stop should report pending exactly once")
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.RunUntil(10)
	if len(fired) != 1 || fired[0] != "b" || e.Now() != 10 {
		t.Fatalf("fired %v, clock %v", fired, e.Now())
	}
	c.Stop()
	e.Run()
	if len(fired) != 1 || e.Now() != 10 || e.Pending() != 0 {
		t.Fatalf("fired %v, clock %v, pending %d after the last timer was stopped", fired, e.Now(), e.Pending())
	}
	if c.Stop() {
		t.Fatal("a withdrawn timer reported pending")
	}
}

// TestDurationRoundTrip: a nanosecond schedule survives the trip through
// Time, and equal nanosecond sums stay equal Times (ties keep FIFO order).
func TestDurationRoundTrip(t *testing.T) {
	const ms = time.Millisecond
	for _, d := range []time.Duration{0, 1, 175 * ms, 600 * ms, time.Hour, 7*24*time.Hour + 3} {
		if got := FromDuration(d).Duration(); got != d {
			t.Fatalf("%v round-trips to %v", d, got)
		}
	}
	// How a clock on the engine schedules: now as a Duration, plus d.
	if FromDuration(FromDuration(100*ms).Duration()+200*ms) != FromDuration(300*ms) {
		t.Fatal("equal nanosecond sums map to different Times")
	}
}

// Property: for any multiset of schedule times, events fire in sorted order
// and the clock ends at the max.
func TestQuickOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			e.Schedule(at, EventFunc(func(e *Engine) { fired = append(fired, e.Now()) }))
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		max := Time(0)
		for _, r := range raw {
			if Time(r) > max {
				max = Time(r)
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: events scheduled from inside events still respect ordering.
func TestQuickNestedOrdering(t *testing.T) {
	f := func(raw []uint8) bool {
		e := NewEngine()
		var fired []Time
		e.AfterFunc(0, func(e *Engine) {
			for _, r := range raw {
				e.AfterFunc(Time(r), func(e *Engine) { fired = append(fired, e.Now()) })
			}
		})
		e.Run()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97), EventFunc(func(*Engine) {}))
		}
		e.Run()
	}
}
