package vclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sleep blocks the calling goroutine until c reaches now+d: the one
// blocking wait a caller builds from a timer.
func sleep(c Clock, d time.Duration) { <-c.NewTimer(d).C }

func TestVirtualAdvanceFiresInDeadlineOrder(t *testing.T) {
	v := NewVirtual(time.Time{})
	var mu sync.Mutex
	var order []int
	v.AfterFunc(30*time.Millisecond, func() { mu.Lock(); order = append(order, 3); mu.Unlock() })
	v.AfterFunc(10*time.Millisecond, func() { mu.Lock(); order = append(order, 1); mu.Unlock() })
	v.AfterFunc(20*time.Millisecond, func() { mu.Lock(); order = append(order, 2); mu.Unlock() })
	v.Advance(50 * time.Millisecond)
	// AfterFunc bodies run in their own goroutines; wait for all three.
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(order)
		mu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d funcs ran", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// The firing (clock-advance) order is deterministic even though the
	// bodies run concurrently afterwards; check the clock landed exactly.
	if got := v.Elapsed(); got != 50*time.Millisecond {
		t.Fatalf("elapsed %v, want 50ms", got)
	}
}

func TestVirtualSleepWakesOnAdvance(t *testing.T) {
	v := NewVirtual(time.Time{})
	done := make(chan struct{})
	go func() {
		sleep(v, time.Hour)
		close(done)
	}()
	// Wait for the sleeper to register.
	for v.Pending() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	v.Advance(time.Hour)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("sleep(1h) did not wake after Advance(1h)")
	}
	if v.Elapsed() != time.Hour {
		t.Fatalf("elapsed %v", v.Elapsed())
	}
}

func TestVirtualTimerStop(t *testing.T) {
	v := NewVirtual(time.Time{})
	tm := v.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("first Stop reported already-fired")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported pending")
	}
	v.Advance(2 * time.Second)
	select {
	case <-tm.C:
		t.Fatal("stopped timer fired")
	default:
	}
}

func TestVirtualZeroDelayFiresImmediately(t *testing.T) {
	v := NewVirtual(time.Time{})
	tm := v.NewTimer(0)
	select {
	case <-tm.C:
	default:
		t.Fatal("zero-delay timer did not fire immediately")
	}
	sleep(v, 0) // must not block
	sleep(v, -1*time.Second)
}

func TestAutoAdvanceDrainsSequentialSleeps(t *testing.T) {
	v := NewVirtual(time.Time{})
	stop := v.AutoAdvance(200 * time.Microsecond)
	defer stop()
	start := time.Now()
	// Three sequential virtual sleeps totalling 600ms of virtual time must
	// complete in real milliseconds.
	sleep(v, 100*time.Millisecond)
	sleep(v, 200*time.Millisecond)
	sleep(v, 300*time.Millisecond)
	if v.Elapsed() != 600*time.Millisecond {
		t.Fatalf("virtual elapsed %v, want 600ms", v.Elapsed())
	}
	if real := time.Since(start); real > 5*time.Second {
		t.Fatalf("auto-advance took %v of real time", real)
	}
}

func TestAutoAdvanceConcurrentWaiters(t *testing.T) {
	v := NewVirtual(time.Time{})
	stop := v.AutoAdvance(200 * time.Microsecond)
	defer stop()
	var fired atomic.Int64
	var wg sync.WaitGroup
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sleep(v, time.Duration(i)*10*time.Millisecond)
			fired.Add(1)
		}(i)
	}
	wg.Wait()
	if fired.Load() != 8 {
		t.Fatalf("fired %d of 8 sleepers", fired.Load())
	}
	if v.Elapsed() != 80*time.Millisecond {
		t.Fatalf("virtual elapsed %v, want 80ms", v.Elapsed())
	}
	stop()
	stop() // idempotent
}

func TestRealClockBasics(t *testing.T) {
	c := Real()
	t0 := c.Now()
	sleep(c, time.Millisecond)
	if c.Since(t0) <= 0 {
		t.Fatal("Since not positive after sleep")
	}
	if c.Until(t0.Add(time.Hour)) <= 0 {
		t.Fatal("Until not positive for a future time")
	}
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C:
	case <-time.After(2 * time.Second):
		t.Fatal("real timer did not fire")
	}
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("real AfterFunc did not run")
	}
}
