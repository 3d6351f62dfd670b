// Package host assembles one physical server of the testbed: a pool of
// logical CPUs for host network processing, per-VIF serialized qdisc
// stations, guest VMs with their own vCPUs, and the bonded VIF+VF
// interface whose flow placer FasTrak programs (§4.1.1). CPU contention
// and the resulting queueing latency — the effects Section 3 measures —
// emerge from work submitted to these stations.
package host

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// CPUStation is an M/G/k service station: k logical CPUs serving a FIFO
// queue of work items. Busy time is accounted, which is how the testbed
// reports "number of logical CPUs used" (Fig. 4).
type CPUStation struct {
	eng   *sim.Engine
	slots int
	busy  int
	queue []work

	// Account accumulates CPU busy time.
	Account metrics.CPUAccount
}

type work struct {
	cost time.Duration
	done func()
}

// NewCPUStation returns a station with the given number of logical CPUs.
func NewCPUStation(eng *sim.Engine, slots int) *CPUStation {
	if slots < 1 {
		slots = 1
	}
	return &CPUStation{eng: eng, slots: slots}
}

// Submit enqueues a work item costing cost CPU time; done runs when the
// item completes service. Zero-cost work still traverses the queue so
// ordering is preserved.
func (s *CPUStation) Submit(cost time.Duration, done func()) {
	if cost < 0 {
		cost = 0
	}
	s.queue = append(s.queue, work{cost: cost, done: done})
	s.pump()
}

func (s *CPUStation) pump() {
	for s.busy < s.slots && len(s.queue) > 0 {
		w := s.queue[0]
		s.queue = s.queue[1:]
		s.busy++
		s.eng.After(w.cost, func() {
			s.Account.Charge(w.cost)
			s.busy--
			if w.done != nil {
				w.done()
			}
			s.pump()
		})
	}
}

// Slots returns the number of logical CPUs.
func (s *CPUStation) Slots() int { return s.slots }
