// Package tcpmodel implements a simplified TCP — slow start, congestion
// avoidance, cumulative and delayed ACKs, duplicate-ACK fast retransmit,
// and a retransmission timeout — sufficient to reproduce the paper's
// flow-migration experiment (§6.2.2, Fig. 12): when FasTrak shifts a live
// flow from the VIF to the SR-IOV VF, some in-flight packets on the old
// path are lost and some are reordered; TCP recovers with fast
// retransmits, no timeout, and the connection progresses.
//
// The model rides the testbed's real data path: segments are full packets
// with genuine TCP sequence/ACK header fields, steered by the VM's flow
// placer like all other traffic.
package tcpmodel

import (
	"time"

	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/sim"
)

// TraceKind labels trace events.
type TraceKind byte

// Trace event kinds.
const (
	TraceData           TraceKind = iota // data segment received (receiver side)
	TraceRetransmit                      // sender retransmitted
	TraceFastRetransmit                  // triple-dup-ack retransmission
	TraceTimeout                         // RTO fired
	TraceAck                             // cumulative ACK received (sender side)
)

func (k TraceKind) String() string {
	switch k {
	case TraceData:
		return "data"
	case TraceRetransmit:
		return "retx"
	case TraceFastRetransmit:
		return "fast-retx"
	case TraceTimeout:
		return "timeout"
	default:
		return "ack"
	}
}

// TracePoint is one event in the connection trace (the Fig. 12 series).
type TracePoint struct {
	At   time.Duration
	Seq  uint32
	Kind TraceKind
}

// Stats summarizes a connection — the §6.2.2 netstat readings.
type Stats struct {
	BytesAcked      uint64
	Segments        uint64
	Retransmits     uint64
	FastRetransmits uint64
	Timeouts        uint64
	DupAcksSeen     uint64
	DelayedAcks     uint64
	Reordered       uint64
}

// Conn is one simplified TCP connection between two VMs.
type Conn struct {
	eng  *sim.Engine
	sndr *host.VM
	rcvr *host.VM

	srcPort, dstPort uint16

	// sender state (byte sequence space)
	sndUna, sndNxt uint32
	cwnd           float64 // in segments
	ssthresh       float64
	dupAcks        int
	inRecovery     bool
	recoverSeq     uint32
	rto            time.Duration
	rtoEvent       *sim.Event
	totalBytes     uint32 // stop growing sndNxt past this (0 = unbounded)

	// receiver state
	rcvNxt     uint32
	outOfOrder map[uint32]int // seq → len of buffered segments
	ackPending int

	// DropOldPathUntil, while set in the future, drops data segments
	// arriving at the receiver via the VIF — modeling the bonding-
	// driver loss the paper observed during the shift ("some packets
	// that return via the VIF were lost").
	DropOldPathUntil time.Duration

	Stats Stats
	Trace []TracePoint
	// OnTrace, when set, observes every trace point as it is recorded —
	// the bridge the telemetry flight recorder attaches to.
	OnTrace func(TracePoint)
	// Done fires once totalBytes are acked.
	Done func()
	done bool
}

// trace appends a point to the connection trace and notifies OnTrace.
func (c *Conn) trace(tp TracePoint) {
	c.Trace = append(c.Trace, tp)
	if c.OnTrace != nil {
		c.OnTrace(tp)
	}
}

// New builds a connection sending totalBytes (0 = run until Stop) from
// sndr to rcvr on dstPort.
func New(eng *sim.Engine, sndr, rcvr *host.VM, srcPort, dstPort uint16, totalBytes uint32) *Conn {
	c := &Conn{
		eng: eng, sndr: sndr, rcvr: rcvr,
		srcPort: srcPort, dstPort: dstPort,
		cwnd: 2, ssthresh: 64,
		rto:        200 * time.Millisecond,
		totalBytes: totalBytes,
		outOfOrder: make(map[uint32]int),
	}
	rcvr.BindApp(dstPort, host.AppFunc(c.onData))
	sndr.BindApp(srcPort, host.AppFunc(c.onAck))
	return c
}

// Start begins transmission.
func (c *Conn) Start() { c.fill() }

// segSize returns the next segment's payload length.
func (c *Conn) segSize() int {
	sz := model.MSS
	if c.totalBytes > 0 {
		remain := int(c.totalBytes - c.sndNxt)
		if remain <= 0 {
			return 0
		}
		if remain < sz {
			sz = remain
		}
	}
	return sz
}

// fill transmits while the congestion window allows.
func (c *Conn) fill() {
	if c.done {
		return
	}
	window := uint32(c.cwnd) * model.MSS
	for c.sndNxt-c.sndUna < window {
		sz := c.segSize()
		if sz == 0 {
			break
		}
		c.sendSegment(c.sndNxt, sz, false)
		c.sndNxt += uint32(sz)
	}
	c.armRTO()
}

func (c *Conn) sendSegment(seq uint32, size int, isRetx bool) {
	p := packet.NewTCP(c.sndr.Key.Tenant, c.sndr.Key.IP, c.rcvr.Key.IP, c.srcPort, c.dstPort, size)
	p.TCP.Seq = seq
	p.TCP.Flags = packet.FlagACK
	c.Stats.Segments++
	if isRetx {
		c.Stats.Retransmits++
	}
	c.sndr.SendPacket(p, nil)
}

// onData is the receiver: cumulative ACK with one delayed ACK allowed,
// dup-ACKs on out-of-order arrivals.
func (c *Conn) onData(vm *host.VM, p *packet.Packet) {
	if p.TCP == nil {
		return
	}
	// Old-path loss window during migration.
	if p.Meta.Path == "vif" && c.eng.Now() < c.DropOldPathUntil {
		return
	}
	seq := p.TCP.Seq
	size := p.PayloadLen()
	switch {
	case seq == c.rcvNxt:
		c.rcvNxt += uint32(size)
		// Drain any buffered out-of-order segments now in order.
		for {
			sz, ok := c.outOfOrder[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.outOfOrder, c.rcvNxt)
			c.rcvNxt += uint32(sz)
		}
		c.trace(TracePoint{At: c.eng.Now(), Seq: seq, Kind: TraceData})
		c.ackPending++
		if c.ackPending >= 2 {
			c.sendAck()
		} else {
			// Delayed ACK timer (40 ms, as in Linux).
			c.eng.After(40*time.Millisecond, func() {
				if c.ackPending > 0 {
					c.Stats.DelayedAcks++
					c.sendAck()
				}
			})
		}
	case seq > c.rcvNxt:
		// Out of order (reordering across paths, or loss): buffer and
		// dup-ack immediately.
		if _, dup := c.outOfOrder[seq]; !dup {
			c.outOfOrder[seq] = size
			c.Stats.Reordered++
		}
		c.sendAck()
	default:
		// Duplicate of already-received data: re-ack.
		c.sendAck()
	}
}

func (c *Conn) sendAck() {
	c.ackPending = 0
	p := packet.NewTCP(c.rcvr.Key.Tenant, c.rcvr.Key.IP, c.sndr.Key.IP, c.dstPort, c.srcPort, 0)
	p.TCP.Ack = c.rcvNxt
	p.TCP.Flags = packet.FlagACK
	c.rcvr.SendPacket(p, nil)
}

// onAck is the sender: cumulative ACK processing, fast retransmit on the
// third duplicate, cwnd evolution.
func (c *Conn) onAck(vm *host.VM, p *packet.Packet) {
	if p.TCP == nil || c.done {
		return
	}
	ack := p.TCP.Ack
	c.trace(TracePoint{At: c.eng.Now(), Seq: ack, Kind: TraceAck})
	switch {
	case ack > c.sndUna:
		c.sndUna = ack
		c.dupAcks = 0
		if c.inRecovery && ack < c.recoverSeq {
			// NewReno partial ACK: the next hole is at the new
			// sndUna; retransmit it immediately rather than waiting
			// a full dup-ACK cycle per hole.
			c.Stats.FastRetransmits++
			c.sendSegment(c.sndUna, c.retxSize(), true)
			c.armRTO()
			return
		}
		if c.inRecovery && ack >= c.recoverSeq {
			c.inRecovery = false
			c.cwnd = c.ssthresh
		}
		if !c.inRecovery {
			if c.cwnd < c.ssthresh {
				c.cwnd++ // slow start
			} else {
				c.cwnd += 1 / c.cwnd // congestion avoidance
			}
		}
		c.armRTO()
		if c.totalBytes > 0 && c.sndUna >= c.totalBytes {
			c.finish()
			return
		}
		c.fill()
	case ack == c.sndUna:
		c.dupAcks++
		c.Stats.DupAcksSeen++
		if c.dupAcks == 3 && !c.inRecovery {
			// Fast retransmit + fast recovery.
			c.Stats.FastRetransmits++
			c.trace(TracePoint{At: c.eng.Now(), Seq: c.sndUna, Kind: TraceFastRetransmit})
			c.ssthresh = maxf(c.cwnd/2, 2)
			c.cwnd = c.ssthresh
			c.inRecovery = true
			c.recoverSeq = c.sndNxt
			c.sendSegment(c.sndUna, c.retxSize(), true)
		} else if c.dupAcks > 3 {
			// Each further dup ack inflates the window by one
			// segment (fast recovery), letting new data flow.
			c.cwnd++
			c.fill()
		}
	}
}

func (c *Conn) retxSize() int {
	sz := model.MSS
	if c.totalBytes > 0 {
		remain := int(c.totalBytes - c.sndUna)
		if remain < sz {
			sz = remain
		}
	}
	return sz
}

func (c *Conn) armRTO() {
	if c.rtoEvent != nil {
		c.rtoEvent.Cancel()
	}
	if c.sndUna == c.sndNxt {
		return // nothing outstanding
	}
	c.rtoEvent = c.eng.After(c.rto, c.onTimeout)
}

func (c *Conn) onTimeout() {
	if c.done || c.sndUna == c.sndNxt {
		return
	}
	c.Stats.Timeouts++
	c.trace(TracePoint{At: c.eng.Now(), Seq: c.sndUna, Kind: TraceTimeout})
	c.ssthresh = maxf(c.cwnd/2, 2)
	c.cwnd = 2
	c.dupAcks = 0
	c.inRecovery = false
	c.sendSegment(c.sndUna, c.retxSize(), true)
	c.armRTO()
}

func (c *Conn) finish() {
	c.done = true
	c.Stats.BytesAcked = uint64(c.sndUna)
	if c.rtoEvent != nil {
		c.rtoEvent.Cancel()
	}
	if c.Done != nil {
		c.Done()
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
