package openflow

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// halfBrokenRW is a stream that stays readable but fails every write —
// the shape of a half-broken TCP connection where only the reply path
// reveals the failure.
type halfBrokenRW struct {
	frames chan []byte
	buf    []byte
}

func (rw *halfBrokenRW) Read(p []byte) (int, error) {
	if len(rw.buf) == 0 {
		b, ok := <-rw.frames
		if !ok {
			return 0, io.EOF
		}
		rw.buf = b
	}
	n := copy(p, rw.buf)
	rw.buf = rw.buf[n:]
	return n, nil
}

var errWireBroken = errors.New("wire broken")

func (rw *halfBrokenRW) Write([]byte) (int, error) { return 0, errWireBroken }

// TestServeReturnsReplySendError is the regression test for Serve
// discarding reply-send failures: on a half-broken pipe the reply path is
// the only place the failure surfaces, so Serve must terminate with that
// error instead of looping forever on a connection it can never answer.
func TestServeReturnsReplySendError(t *testing.T) {
	rw := &halfBrokenRW{frames: make(chan []byte, 1)}
	rw.frames <- Encode(EchoRequest{}, 7)
	conn := NewConn(rw)
	h := &recordingHandler{reply: EchoReply{}}
	done := make(chan error, 1)
	go func() { done <- Serve(conn, h) }()
	select {
	case err := <-done:
		if !errors.Is(err, errWireBroken) {
			t.Fatalf("Serve returned %v, want the reply-send error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not terminate after a failed reply send")
	}
	if len(h.got) != 1 || h.got[0].Type() != TypeEchoRequest {
		t.Errorf("handler saw %v", h.got)
	}
}

// TestReconnectWithoutDialer pins the error path.
func TestReconnectWithoutDialer(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if err := NewConn(c2).Reconnect(); err == nil {
		t.Fatal("Reconnect without a dialer must fail")
	}
}

// TestReconnect closes the stream under a Conn and verifies the dialer
// supplies a fresh one, the Hello handshake re-runs, and traffic flows
// again.
func TestReconnect(t *testing.T) {
	p1a, p1b := net.Pipe()
	conn := NewConn(p1b)
	p2a, p2b := net.Pipe()
	defer p2a.Close()
	conn.SetDialer(func() (io.ReadWriter, error) { return p2b, nil })

	// The far end of the replacement stream: handshakes, then answers one
	// echo.
	peerDone := make(chan error, 1)
	go func() {
		peer := NewConn(p2a)
		if err := peer.Handshake(); err != nil {
			peerDone <- err
			return
		}
		msg, xid, err := peer.Recv()
		if err != nil {
			peerDone <- err
			return
		}
		if msg.Type() != TypeEchoRequest {
			peerDone <- errors.New("expected echo request")
			return
		}
		peerDone <- peer.SendXID(EchoReply{}, xid)
	}()

	p1a.Close() // kill the original stream
	if err := conn.Reconnect(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(EchoRequest{}); err != nil {
		t.Fatal(err)
	}
	msg, _, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type() != TypeEchoReply {
		t.Errorf("got %s, want ECHO_REPLY", msg.Type())
	}
	if err := <-peerDone; err != nil {
		t.Fatal(err)
	}
}
