package service

import (
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// maxIdleSleep bounds how long the timer loop sleeps when the engine has
// no pending events (or only far-future ones). It is the staleness bound
// on clock re-polling, not a scheduling quantum.
const maxIdleSleep = 250 * time.Millisecond

// Runtime drives a simulation engine with a real clock. It adopts the
// engine (typically cluster.New's) rather than creating one: everything
// already scheduled keeps running, just against wall time.
//
// The engine stays single-threaded in the sense that matters — at most
// one goroutine executes events at a time, whichever holds mu — so none
// of the controller code needs locks. There is no engine goroutine to
// hand work to: Post and Do run the engine on their caller (a network
// read loop, an admin handler), and the loop goroutine is only the timer
// that runs events nobody's call happened to reach. Every external touch
// of engine-owned state must go through Post or Do; calling controller
// methods directly from another goroutine is a data race.
type Runtime struct {
	mu    sync.Mutex // the engine thread: guards eng, armed and closed
	eng   *sim.Engine
	clock Clock
	armed time.Duration // virtual time the loop is sleeping towards

	wake   chan struct{} // buffered(1): a run nudges the loop to re-arm
	done   chan struct{} // closed by Close: loop exits
	closed bool
	wg     sync.WaitGroup

	// posts counts Post calls that ran, nudges the loop wake-ups runs
	// caused; both are engine state, read by the registry from a run.
	posts, nudges uint64
}

// NewRuntime starts driving eng against clock. Callers hand over the
// engine: from here on, all access to it (and to any state its events
// touch) must go through Post/Do until Close returns.
func NewRuntime(eng *sim.Engine, clock Clock) *Runtime {
	rt := &Runtime{
		eng:   eng,
		clock: clock,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	rt.wg.Add(1)
	go rt.loop()
	return rt
}

// loop is the timer: it advances the engine to the clock's now, then
// sleeps until the earliest pending event is due (or maxIdleSleep), and is
// nudged when a Post or Do leaves an event due before that.
func (rt *Runtime) loop() {
	defer rt.wg.Done()
	timer := time.NewTimer(maxIdleSleep)
	defer timer.Stop()
	for {
		rt.mu.Lock()
		now := rt.clock.Now()
		rt.eng.RunUntil(now)
		// RunUntil executed everything ≤ now, so next (if any) is
		// strictly in the future; the subtraction is positive.
		sleep := maxIdleSleep
		if next, ok := rt.eng.NextAt(); ok && next-now < sleep {
			sleep = next - now
		}
		rt.armed = now + sleep
		rt.mu.Unlock()

		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(sleep)

		select {
		case <-timer.C:
		case <-rt.wake:
		case <-rt.done:
			return
		}
	}
}

// run executes fn on the engine timeline, on the calling goroutine: with
// the engine lock held it brings the engine up to the clock (so fn sees
// the time it was called at, not the time of the last event), runs fn, and
// flushes the same-time work fn schedules (CallSoon chains, announce
// batches). The loop is woken only if that left an event due before the
// deadline it sleeps towards. After Close the clock no longer drives the
// engine: a post is dropped, anything else runs at the drained engine's
// time.
//
// fn is called, not scheduled: whoever releases the lock leaves no live
// event at or before the engine's now, so as an event fn would have been
// the next one anyway, and the work it schedules at that time still runs
// after it in (time, sequence) order.
func (rt *Runtime) run(fn func(), post bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if post {
		if rt.closed {
			return
		}
		rt.posts++
	}
	if !rt.closed {
		rt.eng.RunUntil(rt.clock.Now())
	}
	fn()
	rt.eng.RunUntil(rt.eng.Now())
	if next, ok := rt.eng.NextAt(); ok && next < rt.armed && !rt.closed {
		rt.armed = next // one nudge per deadline
		rt.nudges++
		select {
		case rt.wake <- struct{}{}:
		default:
		}
	}
}

// Post runs fn on the engine timeline at the clock's now and returns when
// fn and the same-time work it scheduled are done: the network read loop
// that decoded a frame runs the controller on it, replies included. It
// waits for whoever else is running the engine. Safe from any goroutine
// that is not already running the engine; after Close it is a no-op (a
// late network read must not resurrect a drained engine).
func (rt *Runtime) Post(fn func()) { rt.run(fn, true) }

// Do is Post for admin handlers, which need an answer even from a daemon
// that is shutting down: after Close, Do still runs fn inline on the
// drained engine, so they never hang.
//
// Like Post, Do must not be called from code already running on the
// engine (it would self-deadlock); engine-side code just calls functions
// directly.
func (rt *Runtime) Do(fn func()) { rt.run(fn, false) }

// registerMetrics exports the two counters; run-to-completion ingest shows
// as nudges far below posts. The registry is engine state: call it from Do.
func (rt *Runtime) registerMetrics(reg *telemetry.Registry) {
	reg.Counter("fastrak_service_posts_total", "closures posted by network read loops and run on them", &rt.posts)
	reg.Counter("fastrak_service_loop_nudges_total", "timer loop wake-ups because a Post or Do left an event due before its deadline", &rt.nudges)
}

// Now reports the engine's current virtual time.
func (rt *Runtime) Now() time.Duration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.eng.Now()
}

// Close stops the timer loop and flushes same-time work still queued (a
// Post racing with Close either ran to completion before it or is
// dropped — never left dangling). Pending future events are abandoned: a
// drain is "run what was promised for now, schedule nothing new".
// Idempotent.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	rt.mu.Unlock()
	close(rt.done)
	rt.wg.Wait()
	rt.mu.Lock()
	rt.eng.RunUntil(rt.eng.Now())
	rt.mu.Unlock()
}
