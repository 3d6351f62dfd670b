package workload

import (
	"sort"
	"time"

	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
)

// MemcachedPort is the conventional memcached service port.
const MemcachedPort uint16 = 11211

// Memcached is a memcached server instance bound to a VM: each request
// costs a small amount of guest CPU (hash lookup) and returns a value of
// ValueSize bytes.
type Memcached struct {
	VM *host.VM
	// ValueSize is the response payload (a typical small object).
	ValueSize int
	// LookupCost is the per-request application CPU cost.
	LookupCost time.Duration

	// Served counts answered requests.
	Served uint64
}

// Start binds the server.
func (m *Memcached) Start() {
	if m.ValueSize <= 0 {
		m.ValueSize = 600
	}
	if m.LookupCost <= 0 {
		m.LookupCost = 2 * time.Microsecond
	}
	m.VM.BindApp(MemcachedPort, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
		src, srcPort := p.IP.Src, p.TCP.SrcPort
		seq := p.Meta.Seq
		vm.CPU.Submit(m.LookupCost, func() {
			m.Served++
			vm.Send(src, MemcachedPort, srcPort, m.ValueSize, host.SendOptions{Seq: seq}, nil)
		})
	}))
}

// Memslap is a memslap-style load generator on a client VM: Concurrency
// closed-loop connections issuing GET requests round-robin across the
// given servers, until either TotalRequests complete (finish-time
// experiments, Table 2-4) or Stop is called (TPS experiments, Table 1).
//
// Requests ride the testbed's message layer, which (like UDP) can drop
// under buffer pressure; memslap's real transport is TCP, so lost
// requests are retransmitted after RetryTimeout with exactly-once
// completion accounting (duplicate responses are ignored by sequence
// number).
type Memslap struct {
	Client *host.VM
	// Servers are the memcached VM addresses to spread requests over.
	Servers []packet.IP
	// Concurrency is the number of closed-loop connections.
	Concurrency int
	// RequestSize is the GET request payload.
	RequestSize int
	// TotalRequests, if nonzero, ends the run after that many
	// transactions ("each issuing a total of 2M requests to all the
	// four memcached servers", §6.1.2).
	TotalRequests uint64
	// Barrier enables partition-aggregate rounds: each connection
	// issues one request to every server concurrently and waits for
	// all responses before the next round — the access pattern behind
	// §6.1.2's observation that "the performance of partition-
	// aggregate applications is often dominated by the slowest member".
	Barrier bool
	// RetryTimeout is the loss-recovery timer per connection round
	// (default 50 ms — a TCP RTO stand-in).
	RetryTimeout time.Duration

	// Completed counts finished transactions.
	Completed uint64
	// Retransmits counts loss-recovery resends.
	Retransmits uint64
	// Latency observes round-trip times (from first transmission).
	Latency *metrics.Histogram
	// FinishedAt is the virtual time the workload completed (zero
	// until done, or forever for unbounded runs).
	FinishedAt time.Duration
	// OnFinish, if set, runs once when TotalRequests complete.
	OnFinish func()

	eng     *sim.Engine
	stopped bool
	issued  uint64
	nextSeq uint64
	conns   []*slapConn
}

// slapConn is one closed-loop connection's state.
type slapConn struct {
	srcPort uint16
	// pending maps in-flight sequence numbers to their destination and
	// first-send time, for retransmission and exactly-once completion.
	pending map[uint64]slapReq
}

type slapReq struct {
	dst    packet.IP
	sentAt time.Duration
}

// Start begins the load.
func (ms *Memslap) Start(eng *sim.Engine) {
	ms.eng = eng
	if ms.Concurrency <= 0 {
		ms.Concurrency = 8
	}
	if ms.RequestSize <= 0 {
		ms.RequestSize = 64
	}
	if ms.RetryTimeout <= 0 {
		ms.RetryTimeout = 50 * time.Millisecond
	}
	if ms.Latency == nil {
		ms.Latency = metrics.NewHistogram()
	}
	for i := 0; i < ms.Concurrency; i++ {
		conn := &slapConn{srcPort: 43000 + uint16(i), pending: make(map[uint64]slapReq)}
		ms.conns = append(ms.conns, conn)
		ms.Client.BindApp(conn.srcPort, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
			ms.onResponse(conn, p)
		}))
		ms.issueRound(conn)
		ms.armRetry(conn)
	}
}

// roundSize is how many requests a connection keeps in flight: one per
// server in barrier mode, one total otherwise.
func (ms *Memslap) roundSize() int {
	if ms.Barrier {
		return len(ms.Servers)
	}
	return 1
}

// issueRound fills the connection's window; in barrier mode one request
// per server, issued concurrently.
func (ms *Memslap) issueRound(conn *slapConn) {
	if ms.stopped {
		return
	}
	for n := ms.roundSize(); n > 0; n-- {
		if ms.TotalRequests > 0 && ms.issued >= ms.TotalRequests {
			return
		}
		ms.issued++
		ms.nextSeq++
		seq := ms.nextSeq
		dst := ms.Servers[int(ms.issued)%len(ms.Servers)]
		conn.pending[seq] = slapReq{dst: dst, sentAt: ms.eng.Now()}
		ms.send(conn, seq, dst)
	}
}

func (ms *Memslap) send(conn *slapConn, seq uint64, dst packet.IP) {
	ms.Client.Send(dst, conn.srcPort, MemcachedPort, ms.RequestSize, host.SendOptions{Seq: seq}, nil)
}

// onResponse completes a transaction exactly once; duplicates from
// retransmission races are dropped by the pending check.
func (ms *Memslap) onResponse(conn *slapConn, p *packet.Packet) {
	if ms.stopped {
		return
	}
	req, ok := conn.pending[p.Meta.Seq]
	if !ok {
		return // duplicate or stale response
	}
	delete(conn.pending, p.Meta.Seq)
	ms.Latency.Observe(ms.eng.Now() - req.sentAt)
	ms.Completed++
	if ms.TotalRequests > 0 && ms.Completed >= ms.TotalRequests {
		if ms.FinishedAt == 0 {
			ms.FinishedAt = ms.eng.Now()
			ms.stopped = true
			if ms.OnFinish != nil {
				ms.OnFinish()
			}
		}
		return
	}
	if len(conn.pending) == 0 {
		ms.issueRound(conn)
	}
}

// armRetry runs the connection's loss-recovery timer: any request still
// pending after RetryTimeout is retransmitted (the GETs are idempotent,
// and completion is de-duplicated by sequence number).
func (ms *Memslap) armRetry(conn *slapConn) {
	ms.eng.After(ms.RetryTimeout, func() {
		if ms.stopped {
			return
		}
		now := ms.eng.Now()
		// Sorted resend order keeps the simulation reproducible.
		seqs := make([]uint64, 0, len(conn.pending))
		for seq := range conn.pending {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			req := conn.pending[seq]
			if now-req.sentAt >= ms.RetryTimeout {
				ms.Retransmits++
				ms.send(conn, seq, req.dst)
			}
		}
		ms.armRetry(conn)
	})
}

// Stop halts an unbounded run.
func (ms *Memslap) Stop() { ms.stopped = true }
