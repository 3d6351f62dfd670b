package service

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

func waitFor(t *testing.T, deadline time.Duration, cond func() bool) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not met within %v", deadline)
}

func TestWallClockAdvancesEngine(t *testing.T) {
	eng := sim.NewEngine(1)
	var fired atomic.Bool
	eng.After(5*time.Millisecond, func() { fired.Store(true) })
	rt := NewRuntime(eng, NewWallClock())
	defer rt.Close()
	waitFor(t, 2*time.Second, fired.Load)
}

func TestManualClockGatesEvents(t *testing.T) {
	eng := sim.NewEngine(1)
	var fired atomic.Bool
	eng.After(time.Hour, func() { fired.Store(true) })
	clock := &ManualClock{}
	rt := NewRuntime(eng, clock)
	defer rt.Close()

	time.Sleep(20 * time.Millisecond)
	if fired.Load() {
		t.Fatal("event fired before the clock reached it")
	}
	clock.Advance(2 * time.Hour)
	waitFor(t, 2*time.Second, fired.Load)
	if got := rt.Now(); got != 2*time.Hour {
		t.Fatalf("engine time = %v, want clock time 2h", got)
	}
}

func TestPostRunsOnEngineTimeline(t *testing.T) {
	eng := sim.NewEngine(1)
	rt := NewRuntime(eng, NewWallClock())
	defer rt.Close()
	ran, chained := false, false
	rt.Post(func() {
		ran = true
		eng.CallSoon(func() { chained = true })
	})
	if !ran || !chained {
		t.Fatalf("Post returned before its closure (%v) and the same-time work it scheduled (%v) ran", ran, chained)
	}
}

func TestDoIsSynchronous(t *testing.T) {
	eng := sim.NewEngine(1)
	rt := NewRuntime(eng, NewWallClock())
	defer rt.Close()
	v := 0
	rt.Do(func() { v = 42 })
	if v != 42 {
		t.Fatalf("Do returned before running fn (v=%d)", v)
	}
}

func TestDoFlushesSameTimeChains(t *testing.T) {
	eng := sim.NewEngine(1)
	rt := NewRuntime(eng, NewWallClock())
	defer rt.Close()
	chain := 0
	rt.Do(func() {
		// A CallSoon scheduled by the closure itself (the announce-batch
		// idiom in the controllers) must complete before Do returns.
		eng.CallSoon(func() { chain = 1 })
	})
	if chain != 1 {
		t.Fatal("same-time chain did not flush before Do returned")
	}
}

func TestCloseIsIdempotentAndDoStillWorks(t *testing.T) {
	eng := sim.NewEngine(1)
	rt := NewRuntime(eng, NewWallClock())
	rt.Close()
	rt.Close()
	// Post after close is a silent no-op...
	rt.Post(func() { t.Error("post ran after close") })
	// ...but Do still executes inline so shutdown-path inspection and
	// admin handlers never hang.
	ran := false
	rt.Do(func() { ran = true })
	if !ran {
		t.Fatal("Do did not run after Close")
	}
	time.Sleep(10 * time.Millisecond)
}

// TestRuntimeManyPosts: posts from one goroutine run in the order they
// were made.
func TestRuntimeManyPosts(t *testing.T) {
	eng := sim.NewEngine(1)
	rt := NewRuntime(eng, NewWallClock())
	defer rt.Close()
	const posts = 1000
	var order []int
	for i := 0; i < posts; i++ {
		rt.Post(func() { order = append(order, i) })
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("post %d ran in place %d", got, i)
		}
	}
	if n, _ := counts(rt); len(order) != posts || n != posts {
		t.Fatalf("%d of %d posts ran, %d counted", len(order), posts, n)
	}
}

// TestRuntimeConcurrentPosts: the lock is the engine thread. Posts from
// four goroutines, with the timer loop busy beside them, each run exactly
// once and never two at a time — the counter is not atomic, so the race
// detector flags any overlap.
func TestRuntimeConcurrentPosts(t *testing.T) {
	eng := sim.NewEngine(1)
	rt := NewRuntime(eng, NewWallClock())
	defer rt.Close()
	const posters, each = 4, 2000
	counter, seen := 0, 0
	rt.Do(func() { eng.Every(50*time.Microsecond, func() { seen = counter }) })
	ran := make([][]bool, posters)
	var wg sync.WaitGroup
	for p := range ran {
		ran[p] = make([]bool, each)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rt.Post(func() {
					if ran[p][i] {
						t.Errorf("post %d of goroutine %d ran twice", i, p)
					}
					ran[p][i] = true
					counter++
				})
			}
		}()
	}
	wg.Wait()
	rt.Do(func() {
		if counter != posters*each || seen > counter {
			t.Errorf("%d posts ran (the ticker saw %d), want %d", counter, seen, posters*each)
		}
	})
}

func counts(rt *Runtime) (posts, nudges uint64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.posts, rt.nudges
}

// armedAt waits for the timer loop to be asleep and returns the virtual
// time it sleeps towards.
func armedAt(t *testing.T, rt *Runtime) time.Duration {
	t.Helper()
	var at time.Duration
	waitFor(t, 2*time.Second, func() bool {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		at = rt.armed
		return at > 0
	})
	return at
}

// TestPostSeesClockNow: a posted closure runs at the clock's time, not at
// the time of the engine's last event.
func TestPostSeesClockNow(t *testing.T) {
	eng := sim.NewEngine(1)
	clock := &ManualClock{}
	rt := NewRuntime(eng, clock)
	defer rt.Close()
	armedAt(t, rt)
	clock.Advance(100 * time.Millisecond)
	var got time.Duration
	rt.Post(func() { got = eng.Now() })
	if got != 100*time.Millisecond {
		t.Fatalf("a closure posted at clock time 100ms ran at engine time %v", got)
	}
}

// TestDoSeesClockNow is the same for Do, which also runs what fell due in
// between first; once closed, the clock no longer moves the engine.
func TestDoSeesClockNow(t *testing.T) {
	eng := sim.NewEngine(1)
	clock := &ManualClock{}
	rt := NewRuntime(eng, clock)
	armedAt(t, rt)
	var due time.Duration
	rt.Do(func() { eng.After(30*time.Millisecond, func() { due = eng.Now() }) })
	clock.Advance(100 * time.Millisecond)
	var got time.Duration
	rt.Do(func() { got = eng.Now() })
	if got != 100*time.Millisecond || due != 30*time.Millisecond {
		t.Fatalf("Do at clock time 100ms ran at %v, after the 30ms event ran at %v", got, due)
	}
	if now := rt.Now(); now != got {
		t.Fatalf("Now() = %v after Do at %v", now, got)
	}
	rt.Close()
	clock.Advance(time.Second)
	rt.Do(func() { got = eng.Now() })
	if got != 100*time.Millisecond {
		t.Fatalf("Do on a closed runtime moved the engine to %v", got)
	}
}

// TestPostNudgesLoopOnlyForEarlierDeadline: the timer loop sleeps towards
// the earliest event it knew of; a run that leaves an earlier one wakes it
// (or the event would wait for the idle re-poll), any other run leaves it
// asleep.
func TestPostNudgesLoopOnlyForEarlierDeadline(t *testing.T) {
	// The wake is seen by the clock: the loop would otherwise sleep on for
	// maxIdleSleep. A stalled box can spoil an attempt, not three.
	const attempts = 3
	for i := 1; ; i++ {
		eng := sim.NewEngine(1)
		clock := &ManualClock{}
		rt := NewRuntime(eng, clock)
		if at := armedAt(t, rt); at != maxIdleSleep {
			t.Fatalf("an idle loop sleeps towards %v, want %v", at, maxIdleSleep)
		}
		rt.Post(func() {})
		rt.Post(func() { eng.After(time.Hour, func() {}) })
		rt.Do(func() { eng.After(maxIdleSleep, func() {}) })
		if _, n := counts(rt); n != 0 {
			t.Fatalf("%d nudges for runs that left nothing before the loop's deadline", n)
		}
		var fired atomic.Bool
		start := time.Now()
		rt.Post(func() { eng.After(10*time.Millisecond, func() { fired.Store(true) }) })
		rt.Post(func() {}) // the same deadline again: already nudged for
		if _, n := counts(rt); n != 1 {
			t.Fatalf("%d nudges for one earlier deadline", n)
		}
		clock.Advance(10 * time.Millisecond)
		waitFor(t, 2*time.Second, fired.Load)
		took := time.Since(start)
		rt.Close()
		if took < maxIdleSleep/2 {
			return
		}
		if i == attempts {
			t.Fatalf("an event 10ms after a Post ran %v after it: the loop slept on", took)
		}
	}
}
