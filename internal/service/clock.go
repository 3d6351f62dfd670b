// Package service is the long-lived daemon runtime: it drives the
// deterministic simulation engine of internal/sim with wall-clock time so
// the unchanged controllers of internal/core run as real processes
// (fastrak-tord, fastrak-agentd) speaking the internal/openflow wire
// protocol over TCP.
//
// The design splits into three small pieces:
//
//   - Clock (this file): where "now" comes from. Daemons use WallClock;
//     tests use ManualClock to step virtual time precisely. Simulation
//     binaries never touch this package at all, which is what keeps sim
//     runs byte-identical: the engine cannot tell who advances it.
//   - Runtime: the lock under which the engine runs, one goroutine at a
//     time. Post/Do advance the engine to the clock's now and run an
//     external input (a frame read off the network, an admin request)
//     on their caller; a timer loop runs what falls due in between.
//   - Tord / Agentd: the two daemon assemblies on top.
package service

import (
	"sync"
	"time"
)

// Clock supplies the virtual deadline the engine may advance to. Now must
// be monotonically non-decreasing across calls; the Runtime reads it on
// every Post and Do and once per pass of its timer loop.
type Clock interface {
	Now() time.Duration
}

// WallClock maps elapsed wall time since construction onto the virtual
// timeline, so one virtual second is one real second. This is the daemon
// clock: controller cadences (measurement epochs, decision intervals,
// lease TTLs) keep the meanings they have in simulation.
type WallClock struct {
	start time.Time
}

// NewWallClock starts counting now.
func NewWallClock() *WallClock { return &WallClock{start: time.Now()} }

// Now returns the elapsed wall time since construction.
func (w *WallClock) Now() time.Duration { return time.Since(w.start) }

// ManualClock is a test clock advanced explicitly. The zero value starts
// at 0.
type ManualClock struct {
	mu  sync.Mutex
	now time.Duration
}

// Now returns the current manual time.
func (m *ManualClock) Now() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Advance moves the clock forward by d. It never moves backward; a
// negative d panics.
func (m *ManualClock) Advance(d time.Duration) {
	if d < 0 {
		panic("service: ManualClock.Advance negative")
	}
	m.mu.Lock()
	m.now += d
	m.mu.Unlock()
}
