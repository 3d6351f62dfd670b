package openflow

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/iotest"
)

var errWireBroken = errors.New("wire broken")

// splitReader hands out a byte stream in reads of the given sizes (then
// whole), whatever the caller's buffer could take, and ends with end.
type splitReader struct {
	data  []byte
	sizes []int
	end   error
	reads int
}

func (r *splitReader) Read(p []byte) (int, error) {
	r.reads++
	if len(r.data) == 0 {
		return 0, r.end
	}
	n := min(len(p), len(r.data))
	if len(r.sizes) > 0 {
		n, r.sizes = min(n, r.sizes[0]), r.sizes[1:]
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

func (r *splitReader) Write(p []byte) (int, error) { return len(p), nil }

// TestRecvFragmented drives Recv's buffer through everything a stream can
// do to a frame: arrive a byte at a time, straddle the end of the buffer,
// share a read with its neighbours, be as long as a frame gets, and stop.
func TestRecvFragmented(t *testing.T) {
	// 28 bytes of header, counts and fence tail, 21 an action, 25 a rate:
	// a frame of exactly MaxFrame bytes.
	big := &OffloadDecision{Actions: make([]OffloadAction, 17), HWRates: make([]VMRate, 2606)}
	msgs := []Message{EchoRequest{}, report84(), EchoReply{}, syncOf(3, 700), &SyncAck{ServerID: 1, Seq: 2}, big, report84(), Hello{}}
	var stream []byte
	for i, m := range msgs {
		stream = AppendEncode(stream, m, uint32(i))
	}
	if n := len(Encode(big, 0)); n != MaxFrame {
		t.Fatalf("the long frame is %d bytes, want %d", n, MaxFrame)
	}

	rng := rand.New(rand.NewSource(1))
	arbitrary := []int{1, 7}
	for i := 0; i < 4000; i++ {
		arbitrary = append(arbitrary, 1+rng.Intn(3000))
	}
	ones := make([]int, 6000)
	for i := range ones {
		ones[i] = 1
	}
	for name, sizes := range map[string][]int{
		"one byte, then seven, then arbitrary": arbitrary,
		"whatever the buffer takes":            nil,
		"byte by byte through two frames":      ones,
	} {
		src := &splitReader{data: bytes.Clone(stream), sizes: sizes, end: io.EOF}
		c := NewConn(src)
		for i, want := range msgs {
			got, xid, err := c.Recv()
			if err != nil || xid != uint32(i) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: frame %d (%s): xid %d, err %v, equal %v", name, i, want.Type(), xid, err, reflect.DeepEqual(got, want))
			}
		}
		if _, _, err := c.Recv(); err != io.EOF {
			t.Errorf("%s: a stream closed between frames returns %v, want io.EOF", name, err)
		}
		if len(c.rbuf) > MaxFrame {
			t.Errorf("%s: the read buffer grew to %d bytes, past MaxFrame", name, len(c.rbuf))
		}
		if sizes == nil && src.reads > 12 {
			// 73 kB through a buffer that doubles from 4 kB: each read takes
			// all there is room for, not one frame's worth.
			t.Errorf("%d reads for %d frames in %d bytes", src.reads, len(msgs), len(stream))
		}
	}

	// The last bytes and the end of the stream in one read: the frames
	// those bytes complete come first.
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{iotest.DataErrReader(bytes.NewReader(stream)), io.Discard})
	for i := range msgs {
		if _, xid, err := c.Recv(); err != nil || xid != uint32(i) {
			t.Fatalf("frame %d read together with io.EOF: xid %d, %v", i, xid, err)
		}
	}
	if _, _, err := c.Recv(); err != io.EOF {
		t.Errorf("after them: %v, want io.EOF", err)
	}

	// Closed inside a frame — in its header, in its body — is not a clean
	// end, and neither is any other error lost.
	rep := Encode(report84(), 1)
	for _, cut := range []int{3, headerLen, headerLen + 1, len(rep) - 1} {
		c := NewConn(&splitReader{data: append(Encode(EchoReply{}, 4), rep[:cut]...), end: io.EOF})
		if _, _, err := c.Recv(); err != nil {
			t.Fatalf("the whole frame before the cut one: %v", err)
		}
		if _, _, err := c.Recv(); err != io.ErrUnexpectedEOF {
			t.Errorf("closed %d bytes into a frame: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	// A read error inside a frame is passed up, and when the stream goes on
	// after it (a read deadline that expired) so does the frame.
	src := &splitReader{data: rep[:100], end: errWireBroken}
	c = NewConn(src)
	if _, _, err := c.Recv(); !errors.Is(err, errWireBroken) {
		t.Errorf("a read error inside a frame: %v, want it passed up", err)
	}
	src.data = rep[100:]
	if msg, _, err := c.Recv(); err != nil || !reflect.DeepEqual(msg, report84()) {
		t.Errorf("the rest of the frame after a read error: %v", err)
	}
	c = NewConn(bytes.NewBuffer([]byte{Version, 1, 0, 7, 0, 0, 0, 0}))
	if _, _, err := c.Recv(); err == nil {
		t.Error("a frame length below the header's decodes")
	}
}

// TestConnSendAllocs: a warm Conn builds and writes a frame in its own
// buffer.
func TestConnSendAllocs(t *testing.T) {
	c := NewConn(&splitReader{})
	rep := report84()
	var echo Message = EchoRequest{}
	send := func() {
		if _, err := c.Send(rep); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Send(echo); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Errorf("a warm Conn allocates %v times to send a report and an echo, want 0", n)
	}
}

// TestConnRecvAllocs: a warm Conn allocates nothing to receive an
// EchoRequest or a report: the frame is decoded in the read buffer, and
// the report into the one the Conn reuses.
func TestConnRecvAllocs(t *testing.T) {
	for _, row := range []struct {
		msg  Message
		want float64
	}{{EchoRequest{}, 0}, {report84(), 0}} {
		const runs = 100
		frame := Encode(row.msg, 1)
		src := &splitReader{data: bytes.Repeat(frame, runs+2)}
		c := NewConn(src)
		recv := func() {
			if _, _, err := c.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		recv() // grows the buffer to the frame
		if n := testing.AllocsPerRun(runs, recv); n != row.want {
			t.Errorf("a warm Conn allocates %v times to receive a %s, want %v", n, row.msg.Type(), row.want)
		}
	}
}
