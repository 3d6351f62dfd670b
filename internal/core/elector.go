package core

import (
	"time"

	"repro/internal/openflow"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// procState is where one controller process stands; it is in exactly one.
type procState uint8

const (
	down      procState = iota // crashed: nothing runs, arriving messages are lost
	frozen                     // paused (SIGSTOP): memory survives, arriving messages are lost
	following                  // up, a hot standby
	leading                    // up, the rack's acting controller
)

// electCounts are the elector's cumulative counters; TORController embeds
// them as its own fields.
type electCounts struct {
	Crashes   uint64 // crashes of a process that was not down
	Pauses    uint64 // freezes of a process that was up
	Elections uint64 // leadership takeovers by this replica
	StepDowns uint64 // leaderships abandoned (superseded, fenced, paused)
}

// electHost is what the elector acts through. TORController implements it
// over its peers, the installer and the recorder; the interleaving checker
// over a model group.
type electHost interface {
	// heartbeat sends peer to a heartbeat naming leader under term.
	heartbeat(to int, term uint32, leader int)
	// lead takes the hardware over: the installed rules become the desired
	// set and the staleness guard starts afresh. An elected leader, under a
	// fresh term, also starts a fresh ack ledger and a full refresh on its
	// first tick; a group of one taking its own term back keeps both.
	lead(elected bool)
	// abandon drops the hardware view (a step-down); forget drops every
	// piece of volatile state (a crash).
	abandon()
	forget()
	record(k telemetry.Kind, cause string)
}

// elector is a ToR controller's leadership and process state: which of the
// four states the process is in, the term it believes current and which
// replica it believes leads. Its inputs are the heartbeat period's tick,
// peers' heartbeats, the switch agent's stale-term rejection and the
// process faults; every effect goes through fx. It knows no cluster.
//
// Terms are partitioned across replicas — replica i only claims terms with
// (term-1) mod size == i — so two replicas never lead under the same term,
// and the switch agent fences stale terms: election provides liveness,
// fencing safety.
type elector struct {
	fx    electHost
	n     *electCounts
	state procState
	// id is this replica's index in its group (0 is the bootstrap leader).
	// peers holds the election channels, indexed by replica id and nil at
	// id; the elector only counts them, fx sends on them.
	id    int
	peers []*openflow.Transport
	// period is the heartbeat period; the election timeout is 4 + id of
	// them, so the lowest-id replica alive claims first.
	period time.Duration
	term   uint32
	// leaderID is the replica this one believes leads; with
	// followingHigherSince (-1 when not following a higher id) it drives
	// the lowest-id-alive preemption after partitions heal.
	leaderID             int
	followingHigherSince sim.Time
	lastHeartbeatAt      sim.Time
}

// newElector returns replica id of a group of size at term 1, replica 0's:
// replica 0 leads it and the others follow.
func newElector(fx electHost, n *electCounts, id, size int, period time.Duration) *elector {
	e := &elector{fx: fx, n: n, state: following, id: id, peers: make([]*openflow.Transport, size),
		period: period, term: 1, followingHigherSince: -1}
	if id == 0 {
		e.state = leading
	}
	return e
}

// up reports whether the process runs and takes messages; leading whether
// it acts as the rack's leader.
func (e *elector) up() bool      { return e.state >= following }
func (e *elector) leading() bool { return e.state == leading }

// haReplicated reports whether the replica has peers: a group of one has
// nobody to elect, so it leads for good.
func (e *elector) haReplicated() bool { return len(e.peers) > 1 }

func (e *elector) timeout() time.Duration { return time.Duration(4+e.id) * e.period }

// nextTerm is the smallest term above the current one in this replica's
// residue class — the structural guarantee that no two replicas ever share
// a term.
func (e *elector) nextTerm() uint32 {
	n := uint32(len(e.peers))
	t := e.term + 1
	for (t-1)%n != uint32(e.id) {
		t++
	}
	return t
}

// tick runs every heartbeat period: a leader heartbeats its peers; a
// follower claims the rack when the leader went silent past its election
// timeout, or preempts a higher-id leader once it has followed it that
// long — restoring lowest-id-alive leadership after partitions heal.
func (e *elector) tick(now sim.Time) {
	switch {
	case e.state == leading:
		e.heartbeats()
	case e.state != following:
	case now-e.lastHeartbeatAt > e.timeout():
		e.to(leading, now, "timeout")
	case e.leaderID > e.id && e.followingHigherSince >= 0 && now-e.followingHigherSince > e.timeout():
		e.to(leading, now, "preempt")
	}
}

func (e *elector) heartbeats() {
	for i := range e.peers {
		if i != e.id {
			e.fx.heartbeat(i, e.term, e.id)
		}
	}
}

// heartbeat takes a peer's claim that leader leads term. Heartbeats carry
// liveness and term ordering only — safety never rests on them.
func (e *elector) heartbeat(now sim.Time, term uint32, leader int) {
	switch {
	case term < e.term:
		// A stale leader still announcing itself (asymmetric partition, or
		// one healing): gossip the newer term back so it steps down even
		// before the switch agent fences its next install.
		if leader < len(e.peers) && leader != e.id {
			e.fx.heartbeat(leader, e.term, e.leaderID)
		}
	case term == e.term:
		if e.state == following && leader == e.leaderID {
			e.lastHeartbeatAt = now
		}
	default:
		if e.state == leading {
			e.to(following, now, "step-down-superseded")
		}
		e.term = term
		e.leaderID = leader
		if leader <= e.id {
			e.followingHigherSince = -1
		} else if e.followingHigherSince < 0 {
			e.followingHigherSince = now
		}
		e.lastHeartbeatAt = now
	}
}

// fenced takes the switch agent's stale-term rejection: a higher term
// exists, so another replica took over while this one still led.
func (e *elector) fenced(now sim.Time) {
	if e.state == leading {
		e.to(following, now, "step-down-fenced")
	}
}

// crash kills the process, frozen or not: its term survives, everything
// else of the controller's is lost.
func (e *elector) crash() {
	if e.state != down {
		e.to(down, 0, "")
	}
}

// restart brings a crashed process back and reports whether it was down.
func (e *elector) restart(now sim.Time) bool {
	if e.state != down {
		return false
	}
	e.to(following, now, "")
	return true
}

// pause freezes the process. Unlike a crash, memory survives: the process
// resumes believing its pre-pause term, and only fencing stops it acting on
// that belief. A leader steps down at once: its in-flight machinery is dead
// on arrival by resume time.
func (e *elector) pause(now sim.Time) {
	if e.up() {
		e.n.Pauses++
		e.to(frozen, now, "step-down-pause")
	}
}

// resume unfreezes a frozen process; a crash ended any freeze before it.
func (e *elector) resume(now sim.Time) {
	if e.state == frozen {
		e.to(following, now, "resume")
	}
}

// to moves the process into state s at now with the move's effects; cause
// names the event an election, a step-down or a resume records. A process
// waking from down or frozen follows, and its election timeout re-elects
// it if no successor emerged meanwhile — except in a group of one, which
// has nobody to elect and leads its term again.
func (e *elector) to(s procState, now sim.Time, cause string) {
	from := e.state
	if from < following && s != down && !e.haReplicated() {
		s = leading
	}
	e.state = s
	switch {
	case s == down:
		e.n.Crashes++
		e.fx.record(telemetry.KindCrash, "")
		e.fx.forget()
	case from == leading: // a step-down, to following or frozen
		e.n.StepDowns++
		e.followingHigherSince = -1
		e.lastHeartbeatAt = now
		e.fx.abandon()
		e.fx.record(telemetry.KindElection, cause)
	case from == following && s == leading: // an election, under a fresh term
		e.term = e.nextTerm()
		e.leaderID = e.id
		e.followingHigherSince = -1
		e.n.Elections++
		e.fx.lead(true)
		e.fx.record(telemetry.KindElection, cause)
		// Immediate heartbeats: standbys with later timeouts stand down now.
		e.heartbeats()
	case from < following: // waking from down or frozen
		e.lastHeartbeatAt = now
		if s == leading {
			e.fx.lead(false)
		}
		k := telemetry.KindElection
		if from == down {
			k = telemetry.KindRestart
		}
		e.fx.record(k, cause)
	}
}
