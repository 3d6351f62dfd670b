package openflow

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Transport is the deterministic in-simulation control channel: messages
// are encoded to wire bytes, delayed by the configured control-plane RTT
// contribution, decoded at the far side and dispatched — the same byte
// path as Conn, without goroutines, so simulations stay reproducible.
//
// A Transport is one direction; a control connection is a pair.
//
// Fault injection (internal/faults): a transport can be taken down (all
// messages silently lost, as on a dropped OpenFlow TCP connection),
// subjected to probabilistic message loss, or given extra delivery delay.
// Consumers must tolerate all three — see internal/core's retry,
// barrier-confirmation and anti-entropy machinery.
type Transport struct {
	eng   *sim.Engine
	delay time.Duration
	peer  Handler
	// remote, when non-nil, switches the transport to remote mode: frames
	// are handed to this sender (typically Conn.WriteFrame over TCP)
	// instead of being delivered in-simulation. Counters and fault hooks
	// keep their exact semantics, so controller code and the overhead
	// accounting are identical in both modes. eng and peer are unused in
	// remote mode — the receive path is the peer process's read loop.
	remote RemoteSender
	// Sent counts messages, and SentBytes wire bytes, for the
	// controller-overhead experiment (§6.2.2). Sent counts attempts;
	// Dropped counts the subset lost to injected faults.
	Sent      uint64
	SentBytes uint64
	Dropped   uint64
	nextXID   uint32

	down     bool
	lossProb float64
	lossRng  *rand.Rand
	extra    time.Duration
}

// NewTransport builds a channel delivering to peer after delay.
func NewTransport(eng *sim.Engine, delay time.Duration, peer Handler) *Transport {
	return &Transport{eng: eng, delay: delay, peer: peer, nextXID: 1}
}

// SetPeer rewires the receiving handler (topology assembly).
func (t *Transport) SetPeer(peer Handler) { t.peer = peer }

// SetDown severs (down=true) or restores (down=false) the channel.
// While down every message is dropped — the deterministic analogue of a
// broken control connection. Messages already in flight still arrive
// (they are on the wire).
func (t *Transport) SetDown(down bool) { t.down = down }

// SetLoss installs probabilistic message loss with the given probability,
// drawn from rng (seed it for reproducible runs). prob <= 0 or nil rng
// clears loss.
func (t *Transport) SetLoss(prob float64, rng *rand.Rand) {
	if prob <= 0 || rng == nil {
		t.lossProb, t.lossRng = 0, nil
		return
	}
	t.lossProb, t.lossRng = prob, rng
}

// SetExtraDelay adds d on top of the configured control delay for
// subsequent messages (injected congestion on the control network).
func (t *Transport) SetExtraDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.extra = d
}

// Send encodes msg, schedules delivery, and returns its xid.
func (t *Transport) Send(msg Message) uint32 {
	xid := t.nextXID
	t.nextXID++
	t.send(msg, xid)
	return xid
}

// Reply sends msg echoing an existing xid.
func (t *Transport) Reply(msg Message, xid uint32) { t.send(msg, xid) }

func (t *Transport) send(msg Message, xid uint32) { t.sendFrame(Encode(msg, xid)) }

// Broadcast sends msg on every transport exactly as a Send on each in
// turn would — each draws its own xid, counts the frame, rolls its own
// faults and schedules its own delivery, in slice order — but marshals the
// body once: every transport after the first gets a copy of the first
// frame with its own xid stamped in. No two transports share a frame
// (in-simulation delivery holds its frame until the control delay has
// passed).
func Broadcast(transports []*Transport, msg Message) {
	var frame []byte
	for _, t := range transports {
		xid := t.nextXID
		t.nextXID++
		if frame == nil {
			frame = Encode(msg, xid)
		} else {
			frame = bytes.Clone(frame)
			binary.BigEndian.PutUint32(frame[4:8], xid)
		}
		t.sendFrame(frame)
	}
}

// sendFrame counts one encoded frame, applies the injected faults and
// delivers it. The frame is the transport's to keep.
func (t *Transport) sendFrame(wire []byte) {
	t.Sent++
	t.SentBytes += uint64(len(wire))
	if t.down || (t.lossRng != nil && t.lossRng.Float64() < t.lossProb) {
		t.Dropped++
		return
	}
	if t.remote != nil {
		// Remote mode: the frame goes onto a real byte stream. A send
		// error is a dropped message, exactly like a faulted in-sim
		// channel — consumers already tolerate loss (retries, barriers,
		// anti-entropy), and the connection supervisor handles redial.
		if err := t.remote(wire); err != nil {
			t.Dropped++
		}
		return
	}
	t.eng.After(t.delay+t.extra, func() {
		if t.peer == nil {
			return
		}
		decoded, rxid, _, err := Decode(wire)
		if err != nil {
			// A codec that cannot decode its own output is a
			// programming error; fail loudly in simulation.
			panic("openflow: transport decode: " + err.Error())
		}
		t.peer.HandleMessage(decoded, rxid, func(m Message, x uint32) {
			// Replies travel the reverse direction with the same
			// delay; deliver directly to avoid requiring a
			// back-channel object for every pair.
			_ = m
			_ = x
		})
	})
}

// Pair wires two handlers together and returns the two directed
// transports. Replies issued via the ReplyFunc are delivered over the
// opposite transport.
func Pair(eng *sim.Engine, delay time.Duration, a, b Handler) (ab, ba *Transport) {
	ab = NewTransport(eng, delay, nil)
	ba = NewTransport(eng, delay, nil)
	ab.peer = handlerWithReply{h: b, back: ba}
	ba.peer = handlerWithReply{h: a, back: ab}
	return ab, ba
}

// handlerWithReply routes replies over the reverse transport.
type handlerWithReply struct {
	h    Handler
	back *Transport
}

func (hw handlerWithReply) HandleMessage(msg Message, xid uint32, _ ReplyFunc) {
	hw.h.HandleMessage(msg, xid, func(m Message, x uint32) {
		hw.back.Reply(m, x)
	})
}
