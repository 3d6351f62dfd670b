package service

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
)

// rawAgent dials tord, says Hello and sends the empty report by which an
// agent claims its ServerID.
func rawAgent(t *testing.T, tord *Tord, id uint32) (net.Conn, *openflow.Conn) {
	t.Helper()
	nc, err := net.Dial("tcp", tord.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	c := openflow.NewConn(nc)
	if err := c.Handshake(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send(&openflow.DemandReport{ServerID: id, Interval: 1}); err != nil {
		t.Fatal(err)
	}
	return nc, c
}

// awaitSync reads c until a RuleSync for which want holds.
func awaitSync(t *testing.T, nc net.Conn, c *openflow.Conn, want func(*openflow.RuleSync) bool) {
	t.Helper()
	if err := nc.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for {
		msg, _, err := c.Recv()
		if err != nil {
			t.Fatalf("waiting for a RuleSync: %v", err)
		}
		if m, ok := msg.(*openflow.RuleSync); ok && want(m) {
			return
		}
	}
}

// TestNewestConnectionKeepsItsServerID: an agent that reconnects while its
// old socket lingers takes its ServerID over. The old connection is closed
// and counted, and its end does not detach the new one, which stays
// attached and keeps receiving RuleSyncs.
func TestNewestConnectionKeepsItsServerID(t *testing.T) {
	tord := quietTord(t, 100)
	agentIDs := func() (ids []uint32) {
		tord.rt.Do(func() { ids = tord.svc.AgentIDs() })
		return ids
	}
	conns := func() int {
		tord.mu.Lock()
		defer tord.mu.Unlock()
		return len(tord.conns)
	}
	anySync := func(*openflow.RuleSync) bool { return true }

	firstNC, first := rawAgent(t, tord, 7)
	awaitSync(t, firstNC, first, anySync) // the attach's full sync
	secondNC, second := rawAgent(t, tord, 7)
	awaitSync(t, secondNC, second, anySync)
	firstNC.Close()
	waitFor(t, 10*time.Second, func() bool { return conns() == 1 })

	if ids := agentIDs(); !slices.Equal(ids, []uint32{7}) {
		t.Fatalf("after the old connection ended, attached agents are %v, want [7]", ids)
	}
	var superseded uint64
	tord.rt.Do(func() { superseded = tord.superseded })
	if superseded != 1 {
		t.Errorf("superseded connections counted %d, want 1", superseded)
	}
	// An unpin publishes: the set left, p, goes to every attached agent.
	p, q := lanePattern(0), lanePattern(1)
	tord.rt.Do(func() { tord.svc.Pin(p); tord.svc.Pin(q) })
	waitFor(t, 10*time.Second, func() bool { return len(offloadedAt(tord)) == 2 })
	tord.rt.Do(func() { tord.svc.Unpin(q) })
	awaitSync(t, secondNC, second, func(m *openflow.RuleSync) bool { return slices.Contains(m.Patterns, p) })
}

// TestForeignServerIDIsClosed: a registered connection that sends a
// message in another server's name is closed and its own server detached;
// the server it named stays attached.
func TestForeignServerIDIsClosed(t *testing.T) {
	tord := quietTord(t, 100)
	anySync := func(*openflow.RuleSync) bool { return true }
	nc7, c7 := rawAgent(t, tord, 7)
	awaitSync(t, nc7, c7, anySync)
	nc8, c8 := rawAgent(t, tord, 8)
	awaitSync(t, nc8, c8, anySync)

	if _, err := c7.Send(&openflow.SyncAck{ServerID: 8, Seq: 1, Term: 1}); err != nil {
		t.Fatal(err)
	}
	if err := nc7.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, nc7); err != nil {
		t.Fatalf("the connection that spoke for server 8 was not closed: %v", err)
	}
	var ids []uint32
	tord.rt.Do(func() { ids = tord.svc.AgentIDs() })
	if !slices.Equal(ids, []uint32{8}) {
		t.Errorf("attached agents are %v, want [8]", ids)
	}
}

// TestSilentPeerIsClosed: a peer that connects and never says Hello is
// closed once two control intervals have passed.
func TestSilentPeerIsClosed(t *testing.T) {
	tord, err := StartTord(TordConfig{
		ListenControl: "127.0.0.1:0",
		ListenAdmin:   "none",
		Controller:    ControllerConfig{Epoch: Duration(10 * time.Millisecond), EpochsPerInterval: 2},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tord.Close()
	nc, err := net.Dial("tcp", tord.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The daemon's own Hello arrives first; then the stream ends.
	if _, err := io.Copy(io.Discard, nc); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("a silent peer was still connected after 10s")
		}
	}
}

// TestTordIngestAllocs: on a warm tord, the engine's side of a round — the
// agent's report and the echo behind it, posted as the read loop posts
// them — allocates nothing.
func TestTordIngestAllocs(t *testing.T) {
	tord, err := StartTord(TordConfig{ListenControl: "127.0.0.1:0", ListenAdmin: "none"}, &ManualClock{})
	if err != nil {
		t.Fatal(err)
	}
	defer tord.Close()
	ac := &agentConn{tr: openflow.NewRemoteTransport(func([]byte) error { return nil })}
	rep := &openflow.DemandReport{ServerID: 1}
	for i := 0; i < 84; i++ {
		rep.Entries = append(rep.Entries, openflow.DemandEntry{
			Pattern: rules.AggregatePattern(packet.AggregateKey{Tenant: 3, VMIP: packet.IP(0x0a030000 + i), Port: 80}),
			PPS:     1000, BPS: 8e6, Epoch: 1, MedianPPS: 1000, MedianBPS: 8e6, ActiveEpochs: 2,
		})
	}
	reply := ac.tr.Reply
	round := func() {
		rep.Interval++ // a repeated interval would append as a continuation
		tord.rt.Post(func() { tord.handleFromAgent(ac, rep, 1, reply) })
		tord.rt.Post(func() { tord.handleFromAgent(ac, openflow.EchoRequest{}, 2, reply) })
	}
	round() // attaches the agent
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("a warm tord allocates %v times to ingest a report and an echo, want 0", n)
	}
}

// halfBrokenConn is an agent's socket that stays readable but takes no
// write of one message type: it yields frames, then blocks until closed.
// A refused write fails at once, or, with stall, blocks until the write
// deadline has passed, as on a peer that stopped reading.
type halfBrokenConn struct {
	net.Conn // the methods the connection path does not call
	frames   []byte
	refuse   openflow.MsgType
	stall    bool
	deadline time.Time // the write deadline; set and read on the engine thread
	closed   chan struct{}
	once     sync.Once
}

var errWriteBroken = errors.New("write side broken")

func (c *halfBrokenConn) Read(p []byte) (int, error) {
	if len(c.frames) > 0 {
		n := copy(p, c.frames)
		c.frames = c.frames[n:]
		return n, nil
	}
	<-c.closed
	return 0, net.ErrClosed
}

func (c *halfBrokenConn) Write(b []byte) (int, error) {
	if openflow.MsgType(b[1]) != c.refuse {
		return len(b), nil
	}
	if !c.stall {
		return 0, errWriteBroken
	}
	var expired <-chan time.Time // no deadline: block until closed
	if !c.deadline.IsZero() {
		expired = time.After(time.Until(c.deadline))
	}
	select {
	case <-expired:
		return 0, os.ErrDeadlineExceeded
	case <-c.closed:
		return 0, net.ErrClosed
	}
}

func (c *halfBrokenConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *halfBrokenConn) SetReadDeadline(time.Time) error { return nil }

func (c *halfBrokenConn) SetWriteDeadline(t time.Time) error {
	c.deadline = t
	return nil
}

// TestFailedWriteEndsTheConnection: a connection that is readable but
// does not take a frame ends at that write, whether it is the attach's
// RuleSync or an echo's reply, and whether the write fails or only
// outlasts the write deadline; the agent a report registered on it is
// detached, and the engine answers again.
func TestFailedWriteEndsTheConnection(t *testing.T) {
	hello := openflow.Encode(openflow.Hello{}, 1)
	report := openflow.Encode(&openflow.DemandReport{ServerID: 5, Interval: 1}, 2)
	echo := openflow.Encode(openflow.EchoRequest{}, 3)
	for _, row := range []struct {
		name   string
		frames [][]byte
		refuse openflow.MsgType
		stall  bool
	}{
		{"refused RuleSync", [][]byte{hello, report}, openflow.TypeRuleSync, false},
		{"refused EchoReply", [][]byte{hello, report, echo}, openflow.TypeEchoReply, false},
		{"RuleSync past the deadline", [][]byte{hello, report}, openflow.TypeRuleSync, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			tord, err := StartTord(TordConfig{
				ListenControl: "127.0.0.1:0",
				ListenAdmin:   "none",
				Controller:    ControllerConfig{Epoch: Duration(10 * time.Millisecond), EpochsPerInterval: 2},
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer tord.Close()
			nc := &halfBrokenConn{frames: bytes.Join(row.frames, nil), refuse: row.refuse, stall: row.stall,
				closed: make(chan struct{})}
			defer nc.Close()

			done := make(chan struct{})
			tord.wg.Add(1)
			go func() {
				tord.serveAgent(nc)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("a connection that takes no write was still served after 5s")
			}
			ids := make(chan []uint32, 1)
			go tord.rt.Do(func() { ids <- tord.svc.AgentIDs() })
			select {
			case got := <-ids:
				if len(got) != 0 {
					t.Errorf("agents %v still attached after their connection ended", got)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the engine did not answer within 5s of the connection's end")
			}
		})
	}
}

// TestTordReadLoopAllocs: TestTordIngestAllocs's round, sent over a socket
// into the connection path the daemon runs — Serve, Post and the reply —
// allocates nothing either.
func TestTordReadLoopAllocs(t *testing.T) {
	tord, err := StartTord(TordConfig{ListenControl: "127.0.0.1:0", ListenAdmin: "none"}, &ManualClock{})
	if err != nil {
		t.Fatal(err)
	}
	defer tord.Close()
	nc, err := net.Dial("tcp", tord.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := openflow.NewConn(nc)
	if err := conn.Handshake(); err != nil {
		t.Fatal(err)
	}
	rep := &openflow.DemandReport{ServerID: 1}
	for i := 0; i < 84; i++ {
		rep.Entries = append(rep.Entries, openflow.DemandEntry{
			Pattern: rules.AggregatePattern(packet.AggregateKey{Tenant: 3, VMIP: packet.IP(0x0a030000 + i), Port: 80}),
			PPS:     1000, BPS: 8e6, Epoch: 1, MedianPPS: 1000, MedianBPS: 8e6, ActiveEpochs: 2,
		})
	}
	var echo openflow.Message = openflow.EchoRequest{}
	round := func() {
		rep.Interval++
		if _, err := conn.Send(rep); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Send(echo); err != nil {
			t.Fatal(err)
		}
		for {
			msg, _, err := conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if msg.Type() == openflow.TypeEchoReply {
				return
			}
		}
	}
	round() // attaches the agent
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("a warm tord allocates %v times to serve a report and an echo off its socket, want 0", n)
	}
}
