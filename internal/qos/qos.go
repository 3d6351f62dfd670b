// Package qos implements the ToR egress queueing FasTrak steers offloaded
// traffic into (§4.1.3: "L3 routers typically provide a set of QoS queues
// that can be configured and enabled. Rules in the VRF can direct VM
// traffic to use these specific queues"). The model is the common switch
// arrangement: a small set of queues served by deficit round robin, with
// one optional strict-priority queue for latency-sensitive traffic.
package qos

import (
	"fmt"

	"repro/internal/packet"
)

// NumQueues is the number of egress queues per port, matching the 8
// hardware queues of typical merchant-silicon ToRs.
const NumQueues = 8

// Config describes one port's queue arrangement.
type Config struct {
	// StrictQueue, if in [1,NumQueues), is served ahead of all others
	// (strict priority). 0 disables strict priority.
	StrictQueue int
	// Quantum is the DRR quantum in bytes per round per queue; a queue
	// with a larger quantum gets a proportionally larger share.
	Quantum [NumQueues]int
	// Depth is the per-queue capacity in packets; beyond it, tail drop.
	Depth int
}

// DefaultConfig returns equal-share DRR with queue 7 strict-priority and
// 100-packet depth — a typical ToR default.
func DefaultConfig() Config {
	c := Config{StrictQueue: 7, Depth: 100}
	for i := range c.Quantum {
		c.Quantum[i] = 1500
	}
	return c
}

// Scheduler is a multi-queue egress scheduler. It is passive: the owning
// link calls Dequeue whenever the wire is free.
type Scheduler struct {
	cfg      Config
	queues   [NumQueues][]*packet.Packet
	deficit  [NumQueues]int
	visiting [NumQueues]bool // quantum already granted for current visit
	next     int             // DRR pointer
	length   int
}

func minQuantum(cfg Config) int {
	m := cfg.Quantum[0]
	for _, q := range cfg.Quantum[1:] {
		if q < m {
			m = q
		}
	}
	if m < 1 {
		m = 1
	}
	return m
}

// NewScheduler returns a scheduler with the given config.
func NewScheduler(cfg Config) *Scheduler {
	if cfg.Depth <= 0 {
		cfg.Depth = 100
	}
	for i := range cfg.Quantum {
		if cfg.Quantum[i] <= 0 {
			cfg.Quantum[i] = 1500
		}
	}
	return &Scheduler{cfg: cfg}
}

// Enqueue places p on queue q, tail-dropping when the queue is full. It
// reports whether the packet was accepted.
func (s *Scheduler) Enqueue(q int, p *packet.Packet) bool {
	if q < 0 || q >= NumQueues {
		q = 0
	}
	if len(s.queues[q]) >= s.cfg.Depth {
		return false
	}
	s.queues[q] = append(s.queues[q], p)
	s.length++
	return true
}

// Dequeue returns the next packet to transmit, or nil when all queues are
// empty. The strict queue is always drained first; remaining queues share
// by DRR.
func (s *Scheduler) Dequeue() *packet.Packet {
	if s.length == 0 {
		return nil
	}
	if sq := s.cfg.StrictQueue; sq > 0 && sq < NumQueues && len(s.queues[sq]) > 0 {
		return s.pop(sq)
	}
	// DRR over non-strict queues. The quantum is granted once per visit
	// (tracked by visiting); a queue keeps the turn while its deficit
	// covers head packets, then yields. Enough iterations are allowed
	// for a maximally large head packet to accumulate deficit.
	maxIter := NumQueues * (1 + 0xffff/minQuantum(s.cfg))
	for iter := 0; iter < maxIter; iter++ {
		q := s.next
		if q == s.cfg.StrictQueue && s.cfg.StrictQueue > 0 {
			s.advance()
			continue
		}
		if len(s.queues[q]) == 0 {
			s.deficit[q] = 0
			s.visiting[q] = false
			s.advance()
			continue
		}
		if !s.visiting[q] {
			s.deficit[q] += s.cfg.Quantum[q]
			s.visiting[q] = true
		}
		head := s.queues[q][0]
		if s.deficit[q] >= head.WireLen() {
			s.deficit[q] -= head.WireLen()
			return s.pop(q)
		}
		s.visiting[q] = false
		s.advance()
	}
	// Unreachable if length bookkeeping is correct; fail loudly in tests.
	panic(fmt.Sprintf("qos: scheduler stalled with %d queued packets", s.length))
}

func (s *Scheduler) pop(q int) *packet.Packet {
	p := s.queues[q][0]
	s.queues[q] = s.queues[q][1:]
	s.length--
	return p
}

func (s *Scheduler) advance() { s.next = (s.next + 1) % NumQueues }

// Len returns the number of queued packets across all queues.
func (s *Scheduler) Len() int { return s.length }
