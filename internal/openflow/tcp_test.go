package openflow

import (
	"net"
	"testing"
)

// TestConnOverTCP drives the control protocol over a real TCP loopback
// socket — the deployment configuration (§5.2's Floodlight controller
// spoke real OpenFlow) — exercising framing across kernel buffers.
func TestConnOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer ln.Close()

	type result struct {
		flows int
		err   error
	}
	done := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- result{err: err}
			return
		}
		defer conn.Close()
		c := NewConn(conn)
		if err := c.Handshake(); err != nil {
			done <- result{err: err}
			return
		}
		// Collect one stats request, reply with a big table.
		msg, xid, err := c.Recv()
		if err != nil {
			done <- result{err: err}
			return
		}
		if msg.Type() != TypeStatsRequest {
			done <- result{err: err}
			return
		}
		reply := &StatsReply{}
		for i := 0; i < 1500; i++ {
			reply.Flows = append(reply.Flows, FlowStat{Packets: uint64(i), Bytes: uint64(i) * 100})
		}
		if err := c.WriteFrame(Encode(reply, xid)); err != nil {
			done <- result{err: err}
			return
		}
		done <- result{flows: len(reply.Flows)}
	}()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c := NewConn(raw)
	if err := c.Handshake(); err != nil {
		t.Fatal(err)
	}
	xid, err := c.Send(&StatsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	msg, rxid, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if rxid != xid {
		t.Errorf("xid %d != %d", rxid, xid)
	}
	sr, ok := msg.(*StatsReply)
	if !ok {
		t.Fatalf("got %T", msg)
	}
	// A 1500-flow reply spans ~50 KB: multiple TCP segments, testing
	// the reader's reassembly near the frame limit.
	if len(sr.Flows) != 1500 {
		t.Errorf("flows = %d", len(sr.Flows))
	}
	if sr.Flows[1499].Packets != 1499 {
		t.Errorf("last flow corrupted: %+v", sr.Flows[1499])
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
}
