package openflow

import (
	"errors"
	"io"
	"math"
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

// TestReconnectDelayIsBounded: a redial loop counts its attempts without
// bound, so every attempt number and every backoff must give a delay that
// is positive — no hot loop — and at most the cap.
func TestReconnectDelayIsBounded(t *testing.T) {
	for _, backoff := range []time.Duration{time.Millisecond, 50 * time.Millisecond, math.MaxInt64} {
		for _, attempt := range []int{0, 1, 19, 20, 64, 1 << 20} {
			if d := ReconnectDelay(backoff, attempt); d <= 0 || d > 30*time.Second {
				t.Errorf("ReconnectDelay(%v, %d) = %v, want in (0, 30s]", backoff, attempt, d)
			}
		}
	}
}
