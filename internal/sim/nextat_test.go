package sim

import (
	"testing"
	"time"
)

func TestNextAtPeeksWithoutRunning(t *testing.T) {
	e := NewEngine(1)
	if _, ok := e.NextAt(); ok {
		t.Fatal("empty engine reported a pending event")
	}
	ran := false
	e.After(10*time.Millisecond, func() { ran = true })
	at, ok := e.NextAt()
	if !ok || at != 10*time.Millisecond {
		t.Fatalf("NextAt = %v, %v; want 10ms, true", at, ok)
	}
	if ran || e.Now() != 0 {
		t.Fatal("NextAt advanced the simulation")
	}
	// Peeking twice is stable.
	if at2, ok2 := e.NextAt(); !ok2 || at2 != at {
		t.Fatalf("second NextAt = %v, %v", at2, ok2)
	}
}

func TestNextAtSkipsCanceledEvents(t *testing.T) {
	e := NewEngine(1)
	ev := e.After(5*time.Millisecond, func() {})
	e.After(20*time.Millisecond, func() {})
	ev.Cancel()
	at, ok := e.NextAt()
	if !ok || at != 20*time.Millisecond {
		t.Fatalf("NextAt = %v, %v; want the live 20ms event", at, ok)
	}
	// All-canceled queue reports empty.
	e2 := NewEngine(1)
	e2.After(time.Millisecond, func() {}).Cancel()
	if _, ok := e2.NextAt(); ok {
		t.Fatal("engine with only canceled events reported a pending event")
	}
}

func TestNextAtAgreesWithRunUntil(t *testing.T) {
	e := NewEngine(1)
	var order []time.Duration
	for _, d := range []time.Duration{30, 10, 20} {
		d := d * time.Millisecond
		e.At(d, func() { order = append(order, d) })
	}
	for {
		at, ok := e.NextAt()
		if !ok {
			break
		}
		e.RunUntil(at)
	}
	if len(order) != 3 || order[0] != 10*time.Millisecond || order[2] != 30*time.Millisecond {
		t.Fatalf("event order %v", order)
	}
}

// TestRunUntilStopsAtDeadlineBehindCanceledHead: a canceled event at the
// head of the queue (every confirmed install leaves its timeout there) must
// not let RunUntil run the next live event past the deadline.
func TestRunUntilStopsAtDeadlineBehindCanceledHead(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.After(800*time.Microsecond, func() {}).Cancel()
	e.After(85*time.Millisecond, func() { ran = true })
	e.RunUntil(time.Millisecond)
	if ran || e.Now() != time.Millisecond {
		t.Fatalf("RunUntil(1ms) ran the 85ms event: %v, clock at %v", ran, e.Now())
	}
	if at, ok := e.NextAt(); !ok || at != 85*time.Millisecond {
		t.Fatalf("NextAt = %v, %v; the 85ms event must still be queued", at, ok)
	}
	e.RunUntil(85 * time.Millisecond)
	if !ran {
		t.Fatal("the live event did not run at its own time")
	}
}
