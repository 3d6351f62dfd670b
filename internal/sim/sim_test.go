package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30*time.Microsecond, func() { got = append(got, 3) })
	e.At(10*time.Microsecond, func() { got = append(got, 1) })
	e.At(20*time.Microsecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Microsecond {
		t.Errorf("Now() = %v, want 30µs", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(time.Millisecond, func() {})
	})
	e.Run()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.After(time.Second, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	// A nil event is one never armed: canceling it is a no-op.
	var none *Event
	none.Cancel()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		e.At(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 2*time.Second {
		t.Errorf("Now() = %v, want 2s", e.Now())
	}
	if len(e.queue) != 1 {
		t.Errorf("%d events pending, want 1", len(e.queue))
	}
	// RunUntil past the last event advances the clock to the deadline.
	e.RunUntil(10 * time.Second)
	if len(fired) != 3 || e.Now() != 10*time.Second {
		t.Errorf("after second RunUntil: fired=%d now=%v", len(fired), e.Now())
	}
}

func TestEngineAfterNegativeClamped(t *testing.T) {
	e := NewEngine(1)
	e.At(time.Second, func() {
		fired := false
		e.After(-time.Minute, func() { fired = true })
		e.CallSoon(func() {
			if !fired {
				t.Error("negative After did not fire at current time")
			}
		})
	})
	e.Run()
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	n := 0
	tk := e.Every(time.Second, func() {
		n++
		if n == 5 {
			// Stopping from inside the callback must prevent re-arming.
		}
	})
	e.At(5*time.Second+time.Millisecond, func() { tk.Stop() })
	e.RunUntil(time.Minute)
	if n != 5 {
		t.Errorf("ticker fired %d times, want 5", n)
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tk *Ticker
	tk = e.Every(time.Second, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(time.Minute)
	if n != 3 {
		t.Errorf("ticker fired %d times, want 3", n)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	for i := 1; i <= 10; i++ {
		e.At(time.Duration(i)*time.Second, func() {
			n++
			if n == 4 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 4 {
		t.Errorf("executed %d events after Stop, want 4", n)
	}
}

func TestEngineDeterministicRand(t *testing.T) {
	a, b := NewEngine(42), NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

// Property: for any batch of non-negative offsets, events fire in
// non-decreasing time order and the engine ends at the max offset.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine(7)
		var fired []Time
		var max Time
		for _, o := range offsets {
			d := time.Duration(o) * time.Microsecond
			if d > max {
				max = d
			}
			e.At(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(offsets) == 0 || e.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
