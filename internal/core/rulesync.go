package core

import (
	"slices"
	"sort"

	"repro/internal/openflow"
	"repro/internal/rules"
)

// syncLogMax bounds the change log. A delta lists each logged pattern at
// most once, so the bound also keeps every delta inside one frame.
const syncLogMax = openflow.MaxSyncPatterns

// syncChange is one membership change of the desired offload set, first
// carried by RuleSync seq; which way is read from the set when a delta is
// built.
type syncChange struct {
	seq uint32
	p   rules.Pattern
}

// syncPeer is one local controller as the publisher knows it. acked, the
// highest sequence it ever acked, gates removals: its placers were by then
// off everything that sync excluded, whatever became of it since. base,
// the sequence of its latest ack, is the set it holds and a delta to it
// builds on: 0 is none, and an ack below what it was sent lowers it — how a
// local that cannot apply a delta comes to be sent the whole set.
type syncPeer struct{ acked, base uint32 }

// syncGroup is the frames one publish sends to every local on one base.
type syncGroup struct {
	base uint32
	msgs []*openflow.RuleSync
}

// ruleSyncer publishes the desired offload set to the local controllers:
// to each the changes since the set it acked, or the whole set where the
// log does not reach back that far. It knows no cluster.
type ruleSyncer struct {
	// seq numbers RuleSyncs. It survives Crash (a restarted controller
	// must not reuse sequence numbers locals already acked).
	seq uint32
	// log holds, oldest first, every change with seq > floor.
	log   []syncChange
	floor uint32
	peers map[uint32]syncPeer
	// dirty: the desired set differs from the last published one;
	// sincePublish counts ticks since. Syncs go out on change or every
	// syncRefreshTicks (§6.2.2: a few messages per interval).
	dirty        bool
	sincePublish int
	// Reused by every publish: each local's group, the groups, and the
	// first delta with its pattern lists.
	groupOf []int
	groups  []syncGroup
	delta   openflow.RuleSync
	one     [1]*openflow.RuleSync
}

// record notes that p entered or left the desired set.
func (r *ruleSyncer) record(p rules.Pattern) {
	r.log = append(r.log, syncChange{r.seq + 1, p})
	r.dirty = true
	r.cut(len(r.log) - syncLogMax)
}

// cut drops the n oldest changes and the rest of the last one's sequence:
// the log stays complete for every sequence above floor.
func (r *ruleSyncer) cut(n int) {
	if n <= 0 {
		return
	}
	r.floor = r.log[n-1].seq
	for n < len(r.log) && r.log[n].seq == r.floor {
		n++
	}
	rest, keep := r.log[n:], r.log[:0]
	if cap(keep) > 4*(len(rest)+16) {
		keep = nil // a burst's array is not kept for a trickle
	}
	r.log = append(keep, rest...)
}

// reset forgets the history: the desired set was replaced wholesale
// (crash, step-down, hardware adoption), so no local holds a set a delta
// could build on, whatever it still acks.
func (r *ruleSyncer) reset() {
	r.log, r.floor = r.log[:0], r.seq+1
	r.dirty, r.sincePublish = false, 0
}

// ack takes a local's SyncAck.
func (r *ruleSyncer) ack(id, seq uint32) {
	r.peers[id] = syncPeer{max(r.peers[id].acked, seq), seq}
}

// dropBase makes the local's next sync a full one: the process behind a
// re-established connection may have restarted empty.
func (r *ruleSyncer) dropBase(id uint32) { r.peers[id] = syncPeer{acked: r.peers[id].acked} }

// minAcked is the lowest sequence every agent of to has confirmed.
func (r *ruleSyncer) minAcked(to []agent) uint32 {
	lowest := ^uint32(0)
	for i := range to {
		lowest = min(lowest, r.peers[to[i].id].acked)
	}
	return lowest
}

// base returns the sequence a delta for the sync being published can build
// on for local id, 0 for none.
func (r *ruleSyncer) base(id uint32) uint32 {
	if b := r.peers[id].base; b >= r.floor && b < r.seq {
		return b
	}
	return 0
}

// publish sends the next RuleSync for the desired set to every agent of
// to: one frame each (a set beyond a frame: its parts), in slice order.
// With every local on one base, the steady state, it is marshalled once;
// when bases differ, for each local in its turn.
func (r *ruleSyncer) publish(desired map[rules.Pattern]bool, term, origin uint32, to []agent) {
	r.seq++
	r.dirty, r.sincePublish = false, 0
	// Changes that every local with a base has acked are done with.
	oldest := r.seq - 1
	for i := range to {
		if b := r.base(to[i].id); b != 0 {
			oldest = min(oldest, b)
		}
	}
	r.cut(sort.Search(len(r.log), func(i int) bool { return r.log[i].seq > oldest }))

	var full []*openflow.RuleSync
	r.groupOf, r.groups = r.groupOf[:0], r.groups[:0]
	for i := range to {
		b := r.base(to[i].id)
		at := slices.IndexFunc(r.groups, func(g syncGroup) bool { return g.base == b })
		if at < 0 {
			var msgs []*openflow.RuleSync
			if b != 0 {
				msgs = r.deltaSince(b, desired, term, origin)
			}
			// The whole set when there is no base, or when it is no longer
			// than the changes (a mass demotion lists what is left).
			if msgs == nil || len(msgs[0].Patterns)+len(msgs[0].Removes) >= len(desired) {
				if full == nil {
					full = fullSyncs(r.seq, term, origin, rules.SortedPatterns(desired))
				}
				msgs = full
			}
			at, r.groups = len(r.groups), append(r.groups, syncGroup{b, msgs})
		}
		r.groupOf = append(r.groupOf, at)
	}
	if len(r.groups) == 1 {
		for _, m := range r.groups[0].msgs {
			broadcast(to, m)
		}
		return
	}
	for i := range to {
		for _, m := range r.groups[r.groupOf[i]].msgs {
			to[i].tr.Send(m)
		}
	}
}

// deltaSince lists every pattern logged since base under its membership
// now, in canonical order. One that left and came back is listed: that is
// what lets the delta be applied to any state between base and seq.
func (r *ruleSyncer) deltaSince(base uint32, desired map[rules.Pattern]bool, term, origin uint32) []*openflow.RuleSync {
	d, out := &r.delta, r.one[:]
	if d.Seq == r.seq { // taken by another base in this publish
		d, out = &openflow.RuleSync{}, make([]*openflow.RuleSync, 1)
	} else if cap(d.Patterns)+cap(d.Removes) > 8*(len(r.log)+16) {
		d.Patterns, d.Removes = nil, nil // nor a burst's lists
	}
	out[0] = d
	touched := d.Removes[:0]
	from := sort.Search(len(r.log), func(i int) bool { return r.log[i].seq > base })
	for _, c := range r.log[from:] {
		touched = append(touched, c.p)
	}
	slices.SortFunc(touched, rules.Pattern.Compare)
	touched = slices.Compact(touched)
	// Split in place: Removes takes touched's array, behind the scan.
	*d = openflow.RuleSync{Seq: r.seq, Term: term, Origin: origin, Delta: true, Base: base,
		Patterns: d.Patterns[:0], Removes: touched[:0]}
	for _, p := range touched {
		if desired[p] {
			d.Patterns = append(d.Patterns, p)
		} else {
			d.Removes = append(d.Removes, p)
		}
	}
	return out
}

// fullSyncs is the whole set as one RuleSync, or as parts beyond a frame.
func fullSyncs(seq, term, origin uint32, set []rules.Pattern) []*openflow.RuleSync {
	const per = openflow.MaxSyncPatterns
	if len(set) <= per {
		return []*openflow.RuleSync{{Seq: seq, Patterns: set, Term: term, Origin: origin}}
	}
	out := make([]*openflow.RuleSync, (len(set)+per-1)/per)
	for k := range out {
		out[k] = &openflow.RuleSync{Seq: seq, Term: term, Origin: origin,
			Part: uint16(k), Parts: uint16(len(out)), Patterns: set[k*per : min((k+1)*per, len(set))]}
	}
	return out
}
