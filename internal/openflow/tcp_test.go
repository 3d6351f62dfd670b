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
		rules int
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
		// Collect one table request, reply with a big table.
		msg, xid, err := c.Recv()
		if err != nil {
			done <- result{err: err}
			return
		}
		if msg.Type() != TypeTableRequest {
			done <- result{err: err}
			return
		}
		reply := &TableReply{}
		for i := 0; i < 2000; i++ {
			reply.Rules = append(reply.Rules, TableRule{Priority: uint16(i), Queue: uint8(i)})
		}
		if err := c.WriteFrame(Encode(reply, xid)); err != nil {
			done <- result{err: err}
			return
		}
		done <- result{rules: len(reply.Rules)}
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
	xid, err := c.Send(&TableRequest{})
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
	tr, ok := msg.(*TableReply)
	if !ok {
		t.Fatalf("got %T", msg)
	}
	// A 2000-rule reply spans ~46 KB: multiple TCP segments, testing
	// the reader's reassembly near the frame limit.
	if len(tr.Rules) != 2000 {
		t.Errorf("rules = %d", len(tr.Rules))
	}
	if last := tr.Rules[1999]; last.Priority != 1999 || last.Queue != 1999%256 {
		t.Errorf("last rule corrupted: %+v", last)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
}
