package openflow

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"
)

// Conn frames messages over a byte stream (a net.Conn in deployments, a
// net.Pipe in tests). Writes and Recv are independently safe for one
// writer and one reader goroutine; writes are additionally mutex-guarded
// so multiple writers interleave whole frames.
//
// A Conn owns its two buffers: Send encodes into enc under mu (a
// Transport encodes into its own and writes through WriteFrame), and the
// reader goroutine reads whatever the stream has into rbuf and decodes
// each frame where it lies (no message aliases its frame, see Decode), so
// neither direction allocates for a frame. Demand reports, the one
// message a controller receives in bulk, are decoded into one report the
// Conn reuses, so a warm receive of one allocates nothing either.
type Conn struct {
	mu      sync.Mutex
	w       io.Writer
	enc     buffer
	nextXID uint32

	r          io.Reader
	rbuf       []byte // readBufLen at first, grown by a longer frame, never past MaxFrame
	rpos, wpos int    // the bytes read and not yet decoded
	dec        reader
	report     DemandReport // every report Recv returns
}

const readBufLen = 4096

// NewConn wraps rw.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{w: rw, r: rw, rbuf: make([]byte, readBufLen), nextXID: 1}
}

// Send writes one message, returning the transaction id assigned to it.
func (c *Conn) Send(msg Message) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	xid := c.nextXID
	c.nextXID++
	if _, err := c.w.Write(c.enc.frame(msg, xid)); err != nil {
		return xid, fmt.Errorf("openflow: send %s: %w", msg.Type(), err)
	}
	return xid, nil
}

// WriteFrame writes one pre-encoded frame, mutex-guarded like Send so
// frames from multiple writers interleave whole. It is how a remote-mode
// Transport (which encodes and counts) reaches the byte stream.
func (c *Conn) WriteFrame(frame []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.w.Write(frame); err != nil {
		return fmt.Errorf("openflow: write frame: %w", err)
	}
	return nil
}

// Recv blocks for the next message. It must be called from one goroutine
// at a time. The message is valid until the next Recv on this Conn: a
// demand report is the Conn's own, overwritten by the next one. A stream
// that ends between frames returns io.EOF, one that ends inside a frame
// io.ErrUnexpectedEOF.
func (c *Conn) Recv() (Message, uint32, error) {
	for {
		need := headerLen
		if have := c.rbuf[c.rpos:c.wpos]; len(have) >= headerLen {
			if need = int(binary.BigEndian.Uint16(have[2:4])); need < headerLen {
				return nil, 0, fmt.Errorf("openflow: bad frame length %d", need)
			}
			if len(have) >= need {
				c.rpos += need
				msg, xid, _, err := decode(have[:need], &c.dec, &c.report)
				return msg, xid, err
			}
		}
		if err := c.fill(need); err != nil {
			return nil, 0, err
		}
	}
}

// fill reads from the stream until it yields bytes or an error, first
// making room for a frame of need bytes at rpos.
func (c *Conn) fill(need int) error {
	if len(c.rbuf)-c.rpos < need || c.rpos == c.wpos {
		buf := c.rbuf
		if need > len(buf) {
			buf = make([]byte, min(max(2*len(buf), need), MaxFrame))
		}
		c.wpos = copy(buf, c.rbuf[c.rpos:c.wpos])
		c.rbuf, c.rpos = buf, 0
	}
	for {
		n, err := c.r.Read(c.rbuf[c.wpos:])
		if c.wpos += n; n > 0 {
			// An error that came with bytes comes again on the next read,
			// after the frames those bytes complete.
			return nil
		}
		if err == io.EOF && c.wpos > c.rpos {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
	}
}

// Handshake exchanges Hello messages (call on both ends). The outgoing
// Hello is written concurrently with the read so that unbuffered
// transports (net.Pipe) don't deadlock when both ends handshake.
func (c *Conn) Handshake() error {
	sendErr := make(chan error, 1)
	go func() {
		_, err := c.Send(Hello{})
		sendErr <- err
	}()
	msg, _, err := c.Recv()
	if err != nil {
		return err
	}
	if msg.Type() != TypeHello {
		return fmt.Errorf("openflow: expected HELLO, got %s", msg.Type())
	}
	return <-sendErr
}

// Handler consumes control messages; data-plane elements (flow placers,
// the emulated switch) and controllers implement it.
type Handler interface {
	// HandleMessage processes msg and may reply via the provided
	// ReplyFunc (echoing xid). It must not keep msg, or any slice in it,
	// after it returns: the caller may reuse both (Conn.Recv does).
	HandleMessage(msg Message, xid uint32, reply ReplyFunc)
}

// ReplyFunc sends a reply correlated to a request.
type ReplyFunc func(msg Message, xid uint32)

// Serve reads messages from conn and hands each to h with reply, until a
// read fails; the error is io.EOF on orderly close. Serve writes nothing:
// reply is the Reply of the connection's outbound Transport, whose sender
// ends the connection on a failed write by closing the stream under
// Recv.
func Serve(conn *Conn, h Handler, reply ReplyFunc) error {
	for {
		msg, xid, err := conn.Recv()
		if err != nil {
			return err
		}
		h.HandleMessage(msg, xid, reply)
	}
}

// maxReconnectDelay caps the exponential redial backoff. A redial loop
// counts its attempts without bound, and an unclamped backoff<<i
// overflows time.Duration past ~63 doublings — a negative Sleep spins
// the redial loop hot against a dead controller.
const maxReconnectDelay = 30 * time.Second

// ReconnectDelay is the clamped exponential backoff before redial number
// attempt (from 0), for a loop that redials until it is stopped
// (internal/service's agentd).
func ReconnectDelay(backoff time.Duration, attempt int) time.Duration {
	if attempt >= 20 {
		return maxReconnectDelay
	}
	d := backoff << uint(attempt)
	if d <= 0 || d > maxReconnectDelay {
		return maxReconnectDelay
	}
	return d
}
