package sim

import (
	"math"
	"runtime"
	"testing"
)

// expectPanic runs fn and fails the test unless it panics with want (or
// with any value when want is nil).
func expectPanic(t *testing.T, what string, want interface{}, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		if want != nil && r != want {
			t.Fatalf("%s panicked with %v, want %v", what, r, want)
		}
	}()
	fn()
}

// A NaN time compares false against everything, so a `t < now` guard
// lets it through: the event would fire at an undefined point in the
// order and set the clock to NaN. Every way of reaching Schedule must
// reject it.
func TestScheduleRejectsNaN(t *testing.T) {
	nan := math.NaN()
	e := NewEngine(1)
	expectPanic(t, "Schedule(NaN)", nil, func() { e.Schedule(nan, func() {}) })
	expectPanic(t, "After(NaN)", nil, func() { e.After(nan, func() {}) })
	if n := e.PendingEvents(); n != 0 {
		t.Fatalf("PendingEvents = %d after rejected schedules, want 0", n)
	}
	e.Schedule(1, func() {
		expectPanic(t, "Schedule(NaN) at t=1", nil, func() { e.Schedule(nan, func() {}) })
	})
	e.RunAll()
	if now := e.Now(); now != 1 {
		t.Fatalf("Now = %v, want 1", now)
	}
}

func TestSleepRejectsNaN(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sleep func(p *Proc)
	}{
		{"Sleep", func(p *Proc) { p.Sleep(math.NaN()) }},
		{"SleepUntil", func(p *Proc) { p.SleepUntil(math.NaN()) }},
	} {
		e := NewEngine(1)
		e.Spawn("nan", tc.sleep)
		expectPanic(t, tc.name+"(NaN)", nil, func() { e.RunAll() })
		e.Close()
	}
}

// A panic in a process spawned by another process is attributed to the
// child, not to the parent that spawned it.
func TestChildPanicAttributedToChild(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("parent", func(p *Proc) {
		p.Spawn("child", func(q *Proc) {
			q.Sleep(1)
			panic("child boom")
		})
		p.Sleep(5)
	})
	expectPanic(t, "child panic", `sim: process "child" panicked: child boom`, func() { e.RunAll() })
	e.Close()
}

// Close reaps processes parked inside the synchronisation primitives:
// each unwinds from its park point, and the remaining ones still die in
// spawn order.
func TestCloseReapsLockAndCondWaiters(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	var unwound []string
	e.Spawn("holder", func(p *Proc) {
		defer func() { unwound = append(unwound, "holder") }()
		m.Lock(p)
		p.Suspend() // holds m forever
	})
	e.Spawn("locker", func(p *Proc) {
		defer func() { unwound = append(unwound, "locker") }()
		m.Lock(p)
		t.Error("locker acquired a mutex that is never released")
	})
	var cm Mutex
	cc := NewCond(&cm)
	e.Spawn("waiter", func(p *Proc) {
		defer func() { unwound = append(unwound, "waiter") }()
		cm.Lock(p)
		cc.Wait(p)
		t.Error("waiter returned from a Cond.Wait that is never signalled")
	})
	e.RunAll()
	if n := e.LiveProcs(); n != 3 {
		t.Fatalf("LiveProcs = %d before Close, want 3", n)
	}
	e.Close()
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after Close, want 0", n)
	}
	want := []string{"holder", "locker", "waiter"}
	if len(unwound) != len(want) {
		t.Fatalf("unwound = %v, want %v", unwound, want)
	}
	for i := range want {
		if unwound[i] != want[i] {
			t.Fatalf("unwound = %v, want %v", unwound, want)
		}
	}
}

// Every process coroutine ends at Close: parked, never-started and
// finished processes leave no goroutine behind.
func TestCloseReturnsGoroutinesToBaseline(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	for i := 0; i < 8; i++ {
		e.Spawn("sleeper", func(p *Proc) { p.Sleep(1) })
		e.Spawn("stuck", func(p *Proc) { p.Suspend() })
	}
	e.Run(0.5)
	e.Spawn("never-started", func(p *Proc) { t.Error("a process spawned after the last Run ran") })
	e.Close()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("NumGoroutine = %d after Close, baseline %d", n, base)
	}
}

// Parking and waking a process on a timer allocates nothing at steady
// state: events come from the free list and the wake callbacks are
// built once at Spawn.
func TestSleepAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(1e-6)
		}
	})
	defer e.Close()
	e.Run(0) // start the process and let it park once
	allocs := testing.AllocsPerRun(1000, func() {
		e.RunBefore(e.Now() + 1.5e-6)
	})
	if allocs != 0 {
		t.Fatalf("Sleep round trip allocates %v per op, want 0", allocs)
	}
}
