package openflow

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Transport is one direction of a control connection, and every frame a
// controller emits leaves through one, sent or replied. A Transport
// encodes each message to wire bytes, counts it, applies the injected
// faults and then either
//   - delivers it in simulation (Pair): delayed by the configured
//     control-plane RTT contribution, decoded at the far side and
//     dispatched with the reverse direction's Reply — the same byte path
//     as Conn, without goroutines, so simulations stay reproducible; or
//   - hands it to a RemoteSender (NewRemoteTransport) that writes it onto
//     a real byte stream, when the rule manager runs as separate
//     processes (internal/service); the frame is encoded in one buffer
//     the transport reuses. The receive path is then the peer process's
//     read loop.
//
// Counters and fault hooks keep their exact semantics in both modes, so
// controller code, the wire bytes and the overhead accounting are
// identical.
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
	back  ReplyFunc // the reverse direction's Reply, handed to peer
	// remote, when non-nil, switches the transport to remote mode; eng,
	// peer and back are then unused.
	remote RemoteSender
	enc    buffer // a remote transport's frames, and Broadcast's when first
	// Sent counts messages, and SentBytes wire bytes, for the
	// controller-overhead experiment (§6.2.2). Sent counts attempts;
	// Dropped counts the subset lost to injected faults or failed writes.
	Sent      uint64
	SentBytes uint64
	Dropped   uint64
	nextXID   uint32

	down     bool
	lossProb float64
	lossRng  *rand.Rand
	extra    time.Duration
}

// RemoteSender delivers one encoded frame to the remote peer; it is
// called on the engine loop that owns the transport. A returned error
// means the frame was lost (counted in Dropped). The frame is only lent:
// the transport encodes its next frame into the same memory, and
// Broadcast stamps the next transport's xid into it, so a sender that
// needs the bytes after it returns copies them. For the same reason a
// sender must not send on any transport before it returns.
type RemoteSender func(frame []byte) error

func newTransport(eng *sim.Engine, delay time.Duration, peer Handler) *Transport {
	return &Transport{eng: eng, delay: delay, peer: peer, nextXID: 1}
}

// NewRemoteTransport builds a transport whose messages are written to
// send instead of delivered in-simulation. SetDown/SetLoss fault hooks
// still apply (useful for chaos-testing a live daemon); SetExtraDelay is
// meaningless without a simulated wire and is ignored.
func NewRemoteTransport(send RemoteSender) *Transport {
	return &Transport{remote: send, nextXID: 1}
}

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

// Send encodes msg, delivers it, and returns its xid.
func (t *Transport) Send(msg Message) uint32 {
	xid := t.nextXID
	t.nextXID++
	t.Reply(msg, xid)
	return xid
}

// Reply sends msg echoing an existing xid.
func (t *Transport) Reply(msg Message, xid uint32) {
	if t.remote == nil {
		t.sendFrame(Encode(msg, xid))
	} else {
		t.sendFrame(t.enc.frame(msg, xid))
	}
}

// Broadcast sends msg on transports at(0) to at(n-1) exactly as a Send on
// each in turn would — each draws its own xid, counts the frame, rolls its
// own faults and delivers it, in that order — but marshals the body once,
// into the first transport's buffer, and stamps each transport's xid into
// that one frame before handing it on (an in-sim one gets a copy).
func Broadcast(n int, at func(i int) *Transport, msg Message) {
	if n == 0 {
		return
	}
	frame := at(0).enc.frame(msg, 0)
	for i := 0; i < n; i++ {
		t := at(i)
		binary.BigEndian.PutUint32(frame[4:8], t.nextXID)
		t.nextXID++
		if t.remote == nil {
			t.sendFrame(bytes.Clone(frame))
		} else {
			t.sendFrame(frame)
		}
	}
}

// sendFrame counts one encoded frame, applies the injected faults and
// hands it on: lent to a RemoteSender, or kept by an in-sim delivery
// until the control delay has passed, which is why an in-sim transport
// is handed a frame of its own.
func (t *Transport) sendFrame(frame []byte) {
	t.Sent++
	t.SentBytes += uint64(len(frame))
	if t.down || (t.lossRng != nil && t.lossRng.Float64() < t.lossProb) {
		t.Dropped++
		return
	}
	if t.remote != nil {
		if t.remote(frame) != nil {
			// A failed write is a dropped message, exactly like a faulted
			// in-sim channel: consumers already tolerate loss (retries,
			// barriers, anti-entropy), and ending the connection is the
			// sender's business.
			t.Dropped++
		}
		return
	}
	t.eng.After(t.delay+t.extra, func() {
		if t.peer == nil {
			return
		}
		msg, xid, _, err := Decode(frame)
		if err != nil {
			// A codec that cannot decode its own output is a
			// programming error; fail loudly in simulation.
			panic("openflow: transport decode: " + err.Error())
		}
		t.peer.HandleMessage(msg, xid, t.back)
	})
}

// Pair wires two handlers together and returns the two directed
// transports. Each delivers with the other's Reply, so a reply travels
// the reverse direction with the same delay.
func Pair(eng *sim.Engine, delay time.Duration, a, b Handler) (ab, ba *Transport) {
	ab, ba = newTransport(eng, delay, b), newTransport(eng, delay, a)
	ab.back, ba.back = ba.Reply, ab.Reply
	return ab, ba
}
