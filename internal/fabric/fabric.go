// Package fabric provides the physical-network substrate of the testbed:
// the Port abstraction data-plane elements connect through, store-and-
// forward links with serialization delay, propagation delay and bounded
// queues, and a static router for the core ("the network fabric core
// remains unchanged", §1 — packets beyond the ToR are routed normally on
// outer provider addresses).
package fabric

import (
	"math/rand"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Port is anywhere a packet can be delivered. Components implement Port
// for their ingress and hold the Port of their next hop.
type Port interface {
	Input(p *packet.Packet)
}

// PortFunc adapts a function to the Port interface.
type PortFunc func(p *packet.Packet)

// Input implements Port.
func (f PortFunc) Input(p *packet.Packet) { f(p) }

// Discard is a Port that drops everything (an unconnected wire).
var Discard Port = PortFunc(func(*packet.Packet) {})

// Queue abstracts the egress queue discipline of a link: the default is a
// single drop-tail FIFO; the ToR plugs in its QoS scheduler
// (internal/qos.Scheduler satisfies this).
type Queue interface {
	// Enqueue accepts a packet into class q, reporting false on drop.
	Enqueue(q int, p *packet.Packet) bool
	// Dequeue returns the next packet to send, or nil if empty.
	Dequeue() *packet.Packet
	// Len returns the number of queued packets.
	Len() int
}

// FIFO is a bounded drop-tail queue (the default Link queue).
type FIFO struct {
	limit int
	q     []*packet.Packet
}

// NewFIFO returns a FIFO holding at most limit packets; the default
// matches deep-buffered data-center switch ports.
func NewFIFO(limit int) *FIFO {
	if limit <= 0 {
		limit = 4096
	}
	return &FIFO{limit: limit}
}

// Enqueue implements Queue.
func (f *FIFO) Enqueue(_ int, p *packet.Packet) bool {
	if len(f.q) >= f.limit {
		return false
	}
	f.q = append(f.q, p)
	return true
}

// Dequeue implements Queue.
func (f *FIFO) Dequeue() *packet.Packet {
	if len(f.q) == 0 {
		return nil
	}
	p := f.q[0]
	f.q = f.q[1:]
	return p
}

// Len implements Queue.
func (f *FIFO) Len() int { return len(f.q) }

// Link is a unidirectional store-and-forward wire: packets are queued,
// serialized at the line rate, then delivered after propagation delay.
// Bidirectional connections are two Links.
//
// Concurrency contract: a Link belongs to its sim.Engine's single-threaded
// event loop. All mutation — Send, SetDst, SetDown, SetLoss — must happen
// at event boundaries: inside engine callbacks or before/after Run. Never
// call them from a raw goroutine. Within that contract, mutating the link
// while its transmit pump is active is safe: the destination and down
// state are read at delivery time (late-bound), not captured when the
// packet was queued, so rewiring or failing a busy link affects exactly
// the packets still in flight and nothing is delivered to a stale target.
type Link struct {
	eng   *sim.Engine
	bps   float64
	prop  time.Duration
	queue Queue
	dst   Port

	busy     bool
	txBytes  uint64
	txPkts   uint64
	dropPkts uint64

	// Fault-injection state (internal/faults drives these through the
	// faults.Link interface).
	down      bool
	lossProb  float64
	lossRng   *rand.Rand
	downDrops uint64
	lossDrops uint64

	// rec is the flight-recorder scope; nil when telemetry is disabled.
	rec *telemetry.Scoped
}

// NewLink builds a link to dst. queue may be nil for a default FIFO.
func NewLink(eng *sim.Engine, bps float64, prop time.Duration, queue Queue, dst Port) *Link {
	if bps <= 0 {
		panic("fabric: link rate must be positive")
	}
	if queue == nil {
		queue = NewFIFO(0)
	}
	return &Link{eng: eng, bps: bps, prop: prop, queue: queue, dst: dst}
}

// SetDst rewires the link's far end (used while assembling topologies and
// by taps). Safe while the pump is active: delivery reads dst at fire
// time. Must be called at an event boundary (see the Link contract).
func (l *Link) SetDst(dst Port) { l.dst = dst }

// SetDown fails (down=true) or restores (down=false) the link. While
// down, the transmit pump halts: already-queued packets are held (as in a
// switch port buffer), packets mid-flight on the wire are lost and
// counted, and new Sends keep queueing until the buffer tail-drops.
// Restoring the link resumes the pump. Must be called at an event
// boundary.
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.down = down
	if !down && !l.busy {
		l.pump()
	}
}

// SetLoss installs probabilistic packet loss: each Send is dropped with
// probability prob, drawn from rng (pass a seeded source for reproducible
// chaos runs). prob <= 0 or a nil rng clears loss. Must be called at an
// event boundary.
func (l *Link) SetLoss(prob float64, rng *rand.Rand) {
	if prob <= 0 || rng == nil {
		l.lossProb, l.lossRng = 0, nil
		return
	}
	l.lossProb, l.lossRng = prob, rng
}

// Send queues p on class q for transmission. Dropped packets are counted
// and vanish, as on a real wire.
func (l *Link) Send(q int, p *packet.Packet) {
	if l.lossRng != nil && l.lossRng.Float64() < l.lossProb {
		l.lossDrops++
		if l.rec != nil {
			l.rec.Record(telemetry.Event{Kind: telemetry.KindDrop, Cause: "loss", Tenant: p.Tenant})
		}
		return
	}
	if !l.queue.Enqueue(q, p) {
		l.dropPkts++
		if l.rec != nil {
			l.rec.Record(telemetry.Event{Kind: telemetry.KindDrop, Cause: "queue-full", Tenant: p.Tenant})
		}
		return
	}
	if !l.busy && !l.down {
		l.pump()
	}
}

func (l *Link) pump() {
	if l.down {
		// Hold the queue; SetDown(false) restarts the pump.
		l.busy = false
		return
	}
	p := l.queue.Dequeue()
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	ser := time.Duration(float64(p.WireLen()) * 8 / l.bps * float64(time.Second))
	l.txBytes += uint64(p.WireLen())
	l.txPkts++
	l.eng.After(ser, func() {
		// Wire is free for the next packet while p propagates.
		l.eng.After(l.prop, func() {
			if l.down {
				// The wire failed while p was propagating.
				l.downDrops++
				if l.rec != nil {
					l.rec.Record(telemetry.Event{Kind: telemetry.KindDrop, Cause: "link-down", Tenant: p.Tenant})
				}
				return
			}
			l.dst.Input(p)
		})
		l.pump()
	})
}

// Stats returns transmitted packets/bytes and queue tail drops.
func (l *Link) Stats() (pkts, bytes, drops uint64) {
	return l.txPkts, l.txBytes, l.dropPkts
}

// FaultDrops returns packets lost to injected faults: in-flight losses
// from a down wire and probabilistic loss drops.
func (l *Link) FaultDrops() (down, loss uint64) { return l.downDrops, l.lossDrops }

// QueueLen returns the current egress queue occupancy.
func (l *Link) QueueLen() int { return l.queue.Len() }

// Router is a static longest-prefix-free router keyed on exact outer
// destination IP — sufficient for the testbed's provider addressing,
// where every server and ToR loopback has a known address.
type Router struct {
	routes map[packet.IP]Port
	// DefaultPort receives packets with no route (nil = drop).
	DefaultPort Port
}

// NewRouter returns an empty router.
func NewRouter() *Router { return &Router{routes: make(map[packet.IP]Port)} }

// AddRoute directs traffic for dst to out.
func (r *Router) AddRoute(dst packet.IP, out Port) { r.routes[dst] = out }

// PortFor returns the port for dst (falling back to DefaultPort), or nil.
func (r *Router) PortFor(dst packet.IP) Port {
	if out, ok := r.routes[dst]; ok {
		return out
	}
	return r.DefaultPort
}

// LinkPort adapts a Link to the Port interface, defaulting to QoS class 0
// and exposing class-aware input for senders that select queues.
type LinkPort struct{ L *Link }

// Input implements Port.
func (lp LinkPort) Input(p *packet.Packet) { lp.L.Send(0, p) }

// InputQ sends on a specific QoS class.
func (lp LinkPort) InputQ(q int, p *packet.Packet) { lp.L.Send(q, p) }
