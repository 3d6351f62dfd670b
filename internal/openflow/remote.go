package openflow

// Remote-mode transports: the bridge that lets the unchanged controller
// code of internal/core speak over real TCP connections when the rule
// manager runs as separate processes (internal/service). The codec and
// the Transport counters are shared with the in-simulation mode, so a
// split deployment exercises byte-identical wire traffic.

// RemoteSender delivers one already-encoded frame to the remote peer.
// Implementations are typically Conn.WriteFrame over a net.Conn; they
// must be safe for calls from the engine loop that owns the transport.
// A returned error means the frame was lost (counted in Dropped) — the
// control protocol is loss-tolerant by design. The frame is the sender's
// to keep: no other transport is handed the same memory, Broadcast
// included.
type RemoteSender func(frame []byte) error

// NewRemoteTransport builds a transport whose messages are written to
// send instead of delivered in-simulation. SetDown/SetLoss fault hooks
// still apply (useful for chaos-testing a live daemon); SetExtraDelay is
// meaningless without a simulated wire and is ignored.
func NewRemoteTransport(send RemoteSender) *Transport {
	return &Transport{remote: send, nextXID: 1}
}
