// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event scheduler backed by a binary heap, and a
// seedable random source. All timing in the FasTrak testbed emulation is
// driven by this engine, which makes every experiment reproducible
// bit-for-bit from its seed.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start
// of the simulation. Using time.Duration gives nanosecond resolution and
// convenient arithmetic/formatting.
type Time = time.Duration

// Event is a scheduled callback. Events with equal times fire in the order
// they were scheduled (FIFO tie-break by sequence number), which keeps
// simulations deterministic.
type Event struct {
	at   Time
	seq  uint64
	fn   func()
	idx  int // heap index; -1 when not queued
	dead bool
}

// Cancel prevents a pending event from firing. Canceling an event that has
// already fired or been canceled, or a nil event, is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.dead = true
	}
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event scheduler. The zero value is not usable; call
// NewEngine. Engine is not safe for concurrent use: the simulation model is
// single-threaded by design (determinism), and any real goroutines (e.g.
// OpenFlow connections over net.Pipe) must synchronize back onto the engine
// via CallSoon.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	rng     *rand.Rand
	stopped bool
	// processed counts events executed, exposed for tests and for the
	// controller-overhead experiment.
	processed uint64
}

// NewEngine returns an engine with virtual time 0 and a deterministic
// random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules fn to run at the absolute virtual time at. Scheduling in the
// past panics: it always indicates a model bug, and silently reordering
// time would corrupt every downstream measurement.
func (e *Engine) At(at Time, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := &Event{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn to run d after the current time. Negative d is treated
// as zero.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// CallSoon schedules fn at the current time, after already-pending events
// at this instant.
func (e *Engine) CallSoon(fn func()) *Event { return e.At(e.now, fn) }

// Every schedules fn every period, starting one period from now, until the
// returned Ticker is stopped or the engine finishes.
func (e *Engine) Every(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	t := &Ticker{eng: e, period: period, fn: fn}
	t.arm()
	return t
}

// Ticker repeatedly fires a callback at a fixed virtual-time period.
type Ticker struct {
	eng     *Engine
	period  time.Duration
	fn      func()
	ev      *Event
	stopped bool
}

func (t *Ticker) arm() {
	t.ev = t.eng.After(t.period, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

// Stop cancels future firings. Stopping a nil Ticker is a no-op.
func (t *Ticker) Stop() {
	if t != nil {
		t.stopped = true
		t.ev.Cancel()
	}
}

// Stop halts Run/RunUntil after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// step executes the next pending event. It reports false when the queue is
// empty.
func (e *Engine) step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.dead {
			continue
		}
		e.now = ev.at
		ev.dead = true
		e.processed++
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// exactly deadline. Events scheduled later remain queued. The deadline is
// compared against the earliest live event: a canceled head is discarded
// first (NextAt), or step would skip it and run the next live event
// whatever its time.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		at, ok := e.NextAt()
		if !ok || at > deadline {
			break
		}
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// NextAt returns the virtual time of the earliest live pending event and
// whether one exists. Canceled events at the head of the queue are
// discarded on the way — a canceled timer must not make a wall-clock
// driver (internal/service) wake up for nothing. Purely observational
// with respect to the simulation: no event runs and the clock does not
// move.
func (e *Engine) NextAt() (Time, bool) {
	for len(e.queue) > 0 {
		if !e.queue[0].dead {
			return e.queue[0].at, true
		}
		heap.Pop(&e.queue)
	}
	return 0, false
}
