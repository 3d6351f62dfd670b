package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
)

func syncPattern(i int) rules.Pattern {
	return rules.AggregatePattern(packet.AggregateKey{
		Tenant: 3, VMIP: packet.IP(0x0a030000 + i/50), Port: uint16(1000 + i%50),
	})
}

// syncWorld is a ruleSyncer publishing to real LocalControllers over a
// wire the test owns: frames and acks sit in queues until the test
// delivers, drops, repeats or reorders them.
type syncWorld struct {
	t    *testing.T
	rng  *rand.Rand
	c    *cluster.Cluster
	mgr  *Manager
	r    *ruleSyncer
	term uint32

	desired map[rules.Pattern]bool
	// sets remembers the desired set of every sync published, by term and
	// sequence: what an ack of it claims the local holds.
	sets map[[2]uint32][]rules.Pattern

	agents []agent
	wire   [][][]byte // wire[i]: frames sent to local i, undelivered
	acks   []syncAckInFlight

	deltas, fulls, refused, stale, acked int
}

type syncAckInFlight struct {
	local int
	ack   openflow.SyncAck
}

func newSyncWorld(t *testing.T, seed int64, locals int) *syncWorld {
	c := cluster.New(cluster.Config{Servers: locals, VSwitchCfg: model.VSwitchConfig{Tunneling: true}, Seed: seed})
	for i := 0; i < locals; i++ {
		if _, err := c.AddVM(i, 3, packet.IP(0x0a030001+i), 4, nil); err != nil {
			t.Fatal(err)
		}
	}
	w := &syncWorld{
		t: t, rng: rand.New(rand.NewSource(seed)), c: c, mgr: Attach(c, fastCfg()),
		r:       &ruleSyncer{peers: make(map[uint32]syncPeer)},
		desired: make(map[rules.Pattern]bool),
		sets:    make(map[[2]uint32][]rules.Pattern),
		wire:    make([][][]byte, locals),
	}
	for i := range w.mgr.Locals {
		i := i
		w.agents = append(w.agents, agent{id: uint32(c.Servers[i].ID), tr: openflow.NewRemoteTransport(func(frame []byte) error {
			if len(frame) > openflow.MaxFrame {
				t.Fatalf("a %d-byte frame", len(frame))
			}
			w.wire[i] = append(w.wire[i], bytes.Clone(frame))
			return nil
		})})
		w.wireAcks(i)
	}
	return w
}

// wireAcks points local i's uplink at the test. The property is checked
// where the ack is made: whenever a local acks sequence N, its placements
// are the desired set at N.
func (w *syncWorld) wireAcks(i int) {
	lc := w.mgr.Locals[i]
	lc.toTORs = []*openflow.Transport{openflow.NewRemoteTransport(func(frame []byte) error {
		msg, _, _, err := openflow.Decode(frame)
		if err != nil {
			w.t.Fatal(err)
		}
		ack := *msg.(*openflow.SyncAck)
		if want, ok := w.sets[[2]uint32{ack.Term, ack.Seq}]; ack.Seq != 0 {
			if got := lc.Placements(); !ok || !slices.Equal(got, want) {
				w.t.Fatalf("local %d acks seq %d of term %d holding %d placements, the set published then has %d (known: %v)",
					i, ack.Seq, ack.Term, len(got), len(want), ok)
			}
			w.acked++
		}
		w.acks = append(w.acks, syncAckInFlight{i, ack})
		return nil
	})}
}

func (w *syncWorld) publish() {
	w.r.publish(w.desired, w.term, 0, w.agents)
	w.sets[[2]uint32{w.term, w.r.seq}] = rules.SortedPatterns(w.desired)
	if len(w.r.log) > syncLogMax {
		w.t.Fatalf("the log holds %d changes, bound %d", len(w.r.log), syncLogMax)
	}
}

func (w *syncWorld) toggle(p rules.Pattern) {
	if w.desired[p] {
		delete(w.desired, p)
	} else {
		w.desired[p] = true
	}
	w.r.record(p)
}

// deliver hands one frame to local i and notes what became of it.
func (w *syncWorld) deliver(i int, frame []byte) {
	msg, xid, _, err := openflow.Decode(frame)
	if err != nil {
		w.t.Fatal(err)
	}
	lc, m := w.mgr.Locals[i], msg.(*openflow.RuleSync)
	before, fenced := lc.lastSyncSeq, m.Term < lc.termSeen
	lc.HandleMessage(msg, xid, func(openflow.Message, uint32) {})
	switch {
	case fenced:
	case m.Term == lc.termSeen && m.Seq < before:
		w.stale++
	case m.Delta && lc.lastSyncSeq != m.Seq:
		w.refused++
	case m.Delta:
		w.deltas++
	case lc.lastSyncSeq == m.Seq:
		w.fulls++
	}
}

// takeAck delivers an ack as TORController.HandleMessage does.
func (w *syncWorld) takeAck(a syncAckInFlight) {
	if a.ack.Term == w.term {
		w.r.ack(a.ack.ServerID, a.ack.Seq)
	}
}

// restart replaces local i's controller with an empty one, as a restarted
// agent process is. seen tells whether the ToR noticed (a reattach: the
// connection and what was in flight on it are gone, the base is dropped)
// or not (the frames in flight reach the new process).
func (w *syncWorld) restart(i int, seen bool) {
	w.mgr.Locals[i] = newLocalController(w.mgr, w.c.Servers[i])
	w.wireAcks(i)
	if seen {
		w.wire[i] = nil
		w.acks = slices.DeleteFunc(w.acks, func(a syncAckInFlight) bool { return a.local == i })
		w.r.dropBase(w.agents[i].id)
	}
}

// replaceDesired swaps the desired set wholesale, as a crash and hardware
// adoption do, without a word to the log.
func (w *syncWorld) replaceDesired(pool int) {
	for p := range w.desired {
		if w.rng.Intn(4) == 0 {
			delete(w.desired, p)
		}
	}
	for n := w.rng.Intn(6); n > 0; n-- {
		w.desired[syncPattern(w.rng.Intn(pool))] = true
	}
}

// TestAckMeansTheLocalHoldsThatSet is the safety property ack-gated ACL
// removal rests on, with the real applySync as the agent: under per-frame
// loss, duplication, reordering across publishes, reattach, silent agent
// restart, term change and controller crash, a local that acks sequence N
// holds exactly the desired set of N (checked in wireAcks, at every ack) —
// and once the wire behaves, every local converges on a delta.
func TestAckMeansTheLocalHoldsThatSet(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 25
	}
	var deltas, fulls, refused, stale, acked int
	for seed := 1; seed <= seeds; seed++ {
		const locals, pool = 4, 200
		w := newSyncWorld(t, int64(seed), locals)
		for i := 0; i < pool/2; i++ {
			w.toggle(syncPattern(2 * i))
		}
		for step := 0; step < 800; step++ {
			i := w.rng.Intn(locals)
			switch op := w.rng.Intn(1000); {
			case op < 300:
				w.toggle(syncPattern(w.rng.Intn(pool)))
			case op < 360:
				w.publish() // a change, a refresh, or both
			case op < 700: // a frame: lost, delivered, or delivered and kept for a repeat
				if q := w.wire[i]; len(q) > 0 {
					at := 0
					if w.rng.Intn(4) == 0 {
						at = w.rng.Intn(len(q)) // out of order
					}
					frame := q[at]
					if fate := w.rng.Intn(10); fate >= 1 {
						w.wire[i] = slices.Delete(q, at, at+1)
						if fate == 1 {
							break // lost
						}
					}
					w.deliver(i, frame)
				}
			case op < 960: // an ack: the same fates
				if len(w.acks) > 0 {
					at := w.rng.Intn(min(len(w.acks), 3))
					a := w.acks[at]
					if fate := w.rng.Intn(10); fate >= 1 {
						w.acks = slices.Delete(w.acks, at, at+1)
						if fate == 1 {
							break
						}
					}
					w.takeAck(a)
				}
			case op < 972:
				w.restart(i, true)
			case op < 980:
				w.restart(i, false)
			case op < 990: // a new leader: this replica re-elected, or another one
				w.term++
				if w.rng.Intn(2) == 0 {
					w.r = &ruleSyncer{peers: make(map[uint32]syncPeer)}
				}
				w.replaceDesired(pool)
				w.r.reset()
				clear(w.r.peers)
			default: // crash and restart within the term
				w.replaceDesired(pool)
				w.r.reset()
				clear(w.r.peers)
			}
			if step%50 == 0 {
				w.c.Eng.RunUntil(w.c.Eng.Now() + time.Millisecond)
			}
		}
		// The wire heals: in-order, lossless rounds. Every local converges —
		// one of them an agent that has just restarted unseen — and then a
		// change reaches all of them as one shared delta.
		w.restart(0, false)
		for round := 0; round < 4; round++ {
			if round == 3 {
				w.toggle(syncPattern(0))
			}
			w.publish()
			for i := range w.wire {
				for _, frame := range w.wire[i] {
					w.deliver(i, frame)
				}
				w.wire[i] = nil
			}
			for _, a := range w.acks {
				w.takeAck(a)
			}
			w.acks = nil
		}
		want := rules.SortedPatterns(w.desired)
		for i, lc := range w.mgr.Locals {
			if got := lc.Placements(); !slices.Equal(got, want) {
				t.Fatalf("seed %d: local %d ends with %d placements, desired has %d", seed, i, len(got), len(want))
			}
			if p := w.r.peers[w.agents[i].id]; p.base != w.r.seq || p.acked != w.r.seq {
				t.Fatalf("seed %d: local %d ends at base %d acked %d, published %d", seed, i, p.base, p.acked, w.r.seq)
			}
			if last := w.agents[i].tr.SentBytes; last == 0 {
				t.Fatalf("seed %d: nothing was sent to local %d", seed, i)
			}
		}
		if d := &w.r.delta; d.Seq != w.r.seq || len(d.Patterns)+len(d.Removes) != 1 || len(w.r.groups) != 1 {
			t.Fatalf("seed %d: the last publish was not one shared one-pattern delta: %+v in %d groups", seed, *d, len(w.r.groups))
		}
		deltas, fulls, refused, stale, acked = deltas+w.deltas, fulls+w.fulls, refused+w.refused, stale+w.stale, acked+w.acked
	}
	t.Logf("%d seeds: %d deltas and %d full syncs applied, %d deltas refused, %d stale syncs re-acked, %d acks checked",
		seeds, deltas, fulls, refused, stale, acked)
	if deltas == 0 || fulls == 0 || refused == 0 || stale == 0 {
		t.Fatal("the run did not exercise every path")
	}
}

// TestSilentLocalBoundsTheLog: a local that stops acking holds the log back
// only up to its bound; after that, and for a local that never acked at
// all, the set goes out whole — in parts no frame of which exceeds
// MaxFrame when it is large — while the local that keeps acking is still
// served deltas.
func TestSilentLocalBoundsTheLog(t *testing.T) {
	n, rounds := 7000, 200 // a desired set of three parts
	if testing.Short() {
		n, rounds = 3300, 100 // two
	}
	parts := (n + openflow.MaxSyncPatterns - 1) / openflow.MaxSyncPatterns
	r := &ruleSyncer{peers: make(map[uint32]syncPeer)}
	desired := make(map[rules.Pattern]bool)
	to := []agent{{id: 1}, {id: 2}, {id: 3}} // 1 acks everything, 2 acks the first sync only, 3 never acks
	got := make([][]*openflow.RuleSync, len(to))
	for i := range to {
		i := i
		to[i].tr = openflow.NewRemoteTransport(func(frame []byte) error {
			msg, _, _, err := openflow.Decode(frame)
			if err != nil || len(frame) > openflow.MaxFrame {
				t.Fatalf("frame of %d bytes: %v", len(frame), err)
			}
			got[i] = append(got[i], msg.(*openflow.RuleSync))
			return nil
		})
	}
	publish := func() {
		for i := range got {
			got[i] = nil
		}
		r.publish(desired, 0, 0, to)
		r.ack(1, r.seq)
		if r.seq == 1 {
			r.ack(2, 1)
		}
		if len(r.log) > syncLogMax {
			t.Fatalf("the log holds %d changes, bound %d", len(r.log), syncLogMax)
		}
	}
	for i := 0; i < n; i++ {
		desired[syncPattern(i)] = true
		r.record(syncPattern(i))
	}
	publish()
	for i := range to {
		if last := got[i][len(got[i])-1]; len(got[i]) != parts || int(last.Part) != parts-1 || int(last.Parts) != parts {
			t.Fatalf("local %d was sent the first set in %d frames", to[i].id, len(got[i]))
		}
	}
	// Churn: 40 changes a publish. Local 2's base (1) stays inside the log
	// until the log has seen syncLogMax changes.
	next, heldBack, wentFull := n, 0, 0
	for round := 0; round < rounds; round++ {
		for k := 0; k < 20; k++ {
			gone, came := syncPattern(next-n), syncPattern(next)
			delete(desired, gone)
			desired[came] = true
			r.record(gone)
			r.record(came)
			next++
		}
		publish()
		if m := got[0]; len(m) != 1 || !m[0].Delta || len(m[0].Patterns) != 20 || len(m[0].Removes) != 20 {
			t.Fatalf("round %d: the acking local was sent %d frames, first %+v", round, len(m), *m[0])
		}
		switch m := got[1]; {
		case len(m) == 1 && m[0].Delta && m[0].Base == 1:
			if wentFull > 0 {
				t.Fatalf("round %d: a delta on base 1 after the log had moved past it", round)
			}
			heldBack++
		case len(m) == parts:
			wentFull++
		default:
			t.Fatalf("round %d: the silent local was sent %d frames", round, len(m))
		}
		var set []rules.Pattern
		for _, m := range got[2] {
			set = append(set, m.Patterns...)
		}
		if len(got[2]) != parts || !slices.Equal(set, rules.SortedPatterns(desired)) {
			t.Fatalf("round %d: the never-acking local was sent %d frames holding %d patterns", round, len(got[2]), len(set))
		}
	}
	if want := syncLogMax / 40; heldBack < want-1 || heldBack > want || wentFull == 0 {
		t.Fatalf("the silent local got %d deltas then %d full sets, want about %d deltas", heldBack, wentFull, want)
	}
}

// TestPublishGate is the blocking gate for the steady-state publish: a full
// 640-pattern TCAM, 16 locals, 8 changes — at most 400 bytes a local and
// one allocation a frame plus four (TestBroadcastAllocs gates the full
// sync).
func TestPublishGate(t *testing.T) {
	const locals, held, churn = 16, 640, 8
	r := &ruleSyncer{peers: make(map[uint32]syncPeer)}
	desired := make(map[rules.Pattern]bool)
	var to []agent
	sent := 0
	for i := 0; i < locals; i++ {
		to = append(to, agent{id: uint32(i + 1), tr: openflow.NewRemoteTransport(func(frame []byte) error { sent += len(frame); return nil })})
	}
	for i := 0; i < held; i++ {
		desired[syncPattern(i)] = true
		r.record(syncPattern(i))
	}
	next := held
	cycle := func() {
		for _, a := range to {
			r.ack(a.id, r.seq)
		}
		for k := 0; k < churn/2; k++ {
			gone, came := syncPattern(next-held), syncPattern(next)
			delete(desired, gone)
			desired[came] = true
			r.record(gone)
			r.record(came)
			next++
		}
		sent = 0
		r.publish(desired, 0, 0, to)
	}
	cycle() // the full set
	if want := locals * (24 + 20*held); sent != want {
		t.Fatalf("the first publish wrote %d bytes, a full sync to each is %d", sent, want)
	}
	cycle()
	if sent > locals*400 {
		t.Fatalf("a publish of %d changes wrote %d bytes to %d locals, gate is %d", churn, sent, locals, locals*400)
	}
	if n := testing.AllocsPerRun(50, cycle); n > locals+4 {
		t.Fatalf("a publish of %d changes to %d locals allocates %v times, gate is %d", churn, locals, n, locals+4)
	}
	if len(r.log) > 2*churn {
		t.Fatalf("the log holds %d changes with every local acked up", len(r.log))
	}
}

// TestRefusedDeltaFallsBackToFull: an agent process that restarted empty
// behind a connection the ToR never saw drop is sent a delta on a base it
// does not hold. It answers with an ack of what it has, and that ack is
// what makes the next sync to it a full one.
func TestRefusedDeltaFallsBackToFull(t *testing.T) {
	w := newSyncWorld(t, 1, 2)
	round := func() {
		w.publish()
		for i := range w.wire {
			for _, frame := range w.wire[i] {
				w.deliver(i, frame)
			}
			w.wire[i] = nil
		}
		for _, a := range w.acks {
			w.takeAck(a)
		}
		w.acks = nil
	}
	for i := 0; i < 10; i++ {
		w.toggle(syncPattern(i))
	}
	round()
	w.toggle(syncPattern(10))
	round()
	if w.fulls != 2 || w.deltas != 2 {
		t.Fatalf("warm-up applied %d full syncs and %d deltas, want 2 and 2", w.fulls, w.deltas)
	}
	w.restart(1, false)
	w.toggle(syncPattern(11))
	round()
	if w.refused != 1 || len(w.mgr.Locals[1].Placements()) != 0 || w.r.peers[w.agents[1].id].base != 0 {
		t.Fatalf("the restarted local refused %d deltas, holds %d placements, its base at the ToR is %d",
			w.refused, len(w.mgr.Locals[1].Placements()), w.r.peers[w.agents[1].id].base)
	}
	if got := w.r.minAcked(w.agents); got != 2 {
		t.Fatalf("the removal gate regressed to %d on the refusal; what was acked stays acked", got)
	}
	round() // a refresh: full to the restarted local, an empty delta to the other
	if got := w.mgr.Locals[1].Placements(); w.fulls != 3 || !slices.Equal(got, rules.SortedPatterns(w.desired)) {
		t.Fatalf("after the fallback the restarted local holds %d placements (%d full syncs applied), desired has %d",
			len(got), w.fulls, len(w.desired))
	}
}
