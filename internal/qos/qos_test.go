package qos

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

func pkt(size int) *packet.Packet {
	return packet.NewTCP(1, 1, 2, 1000, 2000, size)
}

func TestFIFOWithinQueue(t *testing.T) {
	s := NewScheduler(DefaultConfig())
	a, b, c := pkt(100), pkt(100), pkt(100)
	s.Enqueue(0, a)
	s.Enqueue(0, b)
	s.Enqueue(0, c)
	if s.Dequeue() != a || s.Dequeue() != b || s.Dequeue() != c {
		t.Error("queue is not FIFO")
	}
	if s.Dequeue() != nil {
		t.Error("empty scheduler returned a packet")
	}
}

func TestStrictPriorityFirst(t *testing.T) {
	s := NewScheduler(DefaultConfig()) // strict queue 7
	be := pkt(100)
	hi := pkt(100)
	s.Enqueue(0, be)
	s.Enqueue(7, hi)
	if s.Dequeue() != hi {
		t.Error("strict-priority packet not served first")
	}
	if s.Dequeue() != be {
		t.Error("best-effort packet lost")
	}
}

func TestDRRFairShare(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StrictQueue = 0
	cfg.Depth = 10000
	s := NewScheduler(cfg)
	// Two backlogged queues with equal quantum: service alternates and
	// total bytes served stay near-equal.
	const n = 500
	for i := 0; i < n; i++ {
		s.Enqueue(1, pkt(1000))
		s.Enqueue(2, pkt(1000))
	}
	var served [NumQueues]int
	for i := 0; i < n; i++ {
		p := s.Dequeue()
		if p == nil {
			t.Fatal("scheduler ran dry early")
		}
		// Identify queue by draining counts: both carry same size, so
		// count via remaining occupancy.
		_ = p
		served[0]++
	}
	d1, d2 := n-len(s.queues[1]), n-len(s.queues[2])
	if diff := d1 - d2; diff < -2 || diff > 2 {
		t.Errorf("unfair DRR service: q1=%d q2=%d", d1, d2)
	}
}

func TestDRRWeightedShare(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StrictQueue = 0
	cfg.Depth = 10000
	cfg.Quantum[1] = 3000
	cfg.Quantum[2] = 1000
	s := NewScheduler(cfg)
	const n = 900
	for i := 0; i < n; i++ {
		s.Enqueue(1, pkt(956)) // WireLen = 956+54 = 1010... use exact below
		s.Enqueue(2, pkt(956))
	}
	for i := 0; i < 600; i++ {
		if s.Dequeue() == nil {
			t.Fatal("ran dry")
		}
	}
	d1, d2 := n-len(s.queues[1]), n-len(s.queues[2])
	ratio := float64(d1) / float64(d2)
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("weighted share ratio = %.2f (q1=%d q2=%d), want ~3", ratio, d1, d2)
	}
}

func TestTailDrop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Depth = 3
	s := NewScheduler(cfg)
	drops := 0
	for i := 0; i < 5; i++ {
		if !s.Enqueue(0, pkt(100)) {
			drops++
		}
	}
	if len(s.queues[0]) != 3 {
		t.Errorf("queue length = %d, want 3", len(s.queues[0]))
	}
	if drops != 2 {
		t.Errorf("drops = %d, want 2", drops)
	}
}

func TestInvalidQueueCoercedToBestEffort(t *testing.T) {
	s := NewScheduler(DefaultConfig())
	s.Enqueue(-1, pkt(10))
	s.Enqueue(99, pkt(10))
	if len(s.queues[0]) != 2 {
		t.Errorf("invalid queues not coerced: len(0)=%d", len(s.queues[0]))
	}
}

// Property: work conservation — every enqueued packet (that was accepted)
// is eventually dequeued exactly once, in any interleaving.
func TestWorkConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		cfg := DefaultConfig()
		cfg.Depth = 64
		s := NewScheduler(cfg)
		accepted, dequeued := 0, 0
		for _, op := range ops {
			if op%3 == 0 {
				if s.Dequeue() != nil {
					dequeued++
				}
			} else {
				if s.Enqueue(int(op)%NumQueues, pkt(int(op))) {
					accepted++
				}
			}
		}
		for s.Dequeue() != nil {
			dequeued++
		}
		return accepted == dequeued && s.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
