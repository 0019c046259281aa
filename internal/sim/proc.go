package sim

import "errors"

// errKilled is the sentinel panic value used to unwind a process
// coroutine when the engine is closed.
var errKilled = errors.New("sim: process killed")

// Proc is a simulation process: a coroutine that runs in virtual time.
// All Proc methods must be called from within the process's own body
// function; the engine guarantees only one process runs at a time.
type Proc struct {
	e    *Engine
	id   int
	name string
	// next resumes the coroutine until it parks or exits; yield, called
	// from inside it, hands control back to the engine.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// grantFn and timerFn are the engine callbacks that resume this
	// process (an immediate wake and a timer wake), built once at Spawn
	// so parking allocates nothing.
	grantFn func()
	timerFn func()
	done    bool
	killed  bool
	waking  bool // a wake event for this proc is pending
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the engine-unique process id.
func (p *Proc) ID() int { return p.id }

// Engine returns the engine the process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// park yields control to the engine and blocks until some event wakes
// this process. Callers must have arranged for a wake (timer, queue
// position, signal, ...) or the process sleeps forever.
func (p *Proc) park() {
	p.yield(struct{}{})
	if p.killed {
		panic(errKilled)
	}
}

// Sleep advances the process by d seconds of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		// Still yield: a zero sleep lets same-time events scheduled
		// earlier run first, matching a thread yield.
		p.e.wake(p)
		p.park()
		return
	}
	p.e.wakeAt(p.e.now+d, p)
	p.park()
}

// SleepUntil parks the process until absolute virtual time t. A target
// at or before the current time degenerates to a yield, so replaying a
// recorded timeline can always sleep to the next timestamp without
// checking for zero gaps.
func (p *Proc) SleepUntil(t Time) {
	if t <= p.e.now {
		p.Yield()
		return
	}
	p.e.wakeAt(t, p)
	p.park()
}

// Yield gives other same-time events a chance to run.
func (p *Proc) Yield() { p.Sleep(0) }

// Suspend parks the process until another process (or event callback)
// calls Resume on it. It is the low-level building block for the
// synchronisation primitives.
func (p *Proc) Suspend() { p.park() }

// Resume wakes a process parked in Suspend (or any park). Safe to call
// from event callbacks or other processes; waking an already-runnable
// process is a no-op.
func (p *Proc) Resume() { p.e.wake(p) }

// Spawn starts a child process at the current virtual time.
func (p *Proc) Spawn(name string, body func(q *Proc)) *Proc {
	return p.e.Spawn(name, body)
}
