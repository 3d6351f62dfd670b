package vswitch

import (
	"math/bits"

	"repro/internal/packet"
)

// egressKind is what becomes of a flow's packets once classification is
// over, in the order the plane's process tests them. The flow core installs
// an entry as egressDeny or egressPlain, the verdict alone; the plane's
// resolve then refines an allowed flow for its epoch, while Switch routes
// live in transmit and leaves every allowed flow at egressPlain.
type egressKind uint8

const (
	egressDeny     egressKind = iota // security rules reject the flow
	egressNIC                        // a SmartNIC placement claims it: no software shaping or encap
	egressLocal                      // destination vport on this host
	egressPlain                      // allowed, nothing more resolved: leaves unencapsulated (plane, tunneling off)
	egressTunnel                     // VXLAN toward flowAction.remote
	egressNoTunnel                   // tunneling on and no mapping for the destination
	egressNoVport                    // no source vport; per-packet only, never cached
)

// noBucket is flowAction.bucket for a flow whose source VIF is unshaped.
const noBucket = -1

// flowAction is a flow's resolved egress for one epoch — the OVS
// exact-match cache's "actions": a hit re-derives nothing. Everything in
// it is a function of the key and the epoch's tables, so it needs no
// invalidation of its own.
type flowAction struct {
	hash   uint64    // FlowKey.FastHash, the VXLAN source-port entropy (egressTunnel)
	remote packet.IP // tunnel endpoint (egressTunnel)
	bucket int32     // index into planeShard.buckets, or noBucket
	queue  int32     // QoS queue
	kind   egressKind
}

// flowEntry is one slot: 64 bytes and no pointers, so a probe is one cache
// line and the garbage collector never scans the table.
type flowEntry struct {
	key         packet.FlowKey
	gen         uint32 // live iff equal to flowTable.gen; a tombstone iff that with flowTomb set
	pkts, bytes uint64
	act         flowAction
}

// verdict is the rules' decision the entry caches.
func (e *flowEntry) verdict() fpVerdict {
	return fpVerdict{allow: e.act.kind != egressDeny, queue: int(e.act.queue)}
}

// flowTable is the exact-match cache: open addressing with linear probing
// over a power-of-two slot array, bounded in space and in probe length.
//
// A key lives within flowProbeWindow slots of its home slot, in the run of
// occupied slots that starts there; lookup walks that run and stops at the
// first free slot. A run must therefore never gain a gap that would hide
// the entries behind it. remove keeps it gapless by leaving a tombstone:
// the slot's stamp becomes gen|flowTomb, which lookup walks past and which,
// being another stamp than gen, insert takes for free and each and grow
// skip. flush retires every entry and tombstone at once by advancing gen
// (slots stamped for another gen are free), so an epoch change costs O(1)
// and every run starts over empty. And an insert that finds its window full
// overwrites one of the window's slots: the victim's slot stays live, so
// every other key's run is as gapless as before, and the new key sits
// inside its own run where lookup finds it.
//
// The array doubles, rehashing the live entries with their counters (and
// shedding the tombstones), when it is half full, up to ExactTableSlots.
// Below the cap that keeps runs short and a full window rare; at the cap
// the window overwrite is the eviction policy, with the victim offset
// rotating so two flows that collide do not keep displacing each other.
type flowTable struct {
	slots []flowEntry
	gen   uint32
	live  int
	hand  uint64
}

const (
	flowTableMinSlots = 1 << 10
	flowProbeWindow   = 16
	// flowTomb is the stamp bit that marks a removed slot; gen stays below it.
	flowTomb = 1 << 31
)

func newFlowTable() *flowTable {
	return &flowTable{slots: make([]flowEntry, flowTableMinSlots), gen: 1}
}

// flowSlotHash spreads a key over the slot array: two rounds of the wyhash
// mixer (a 64x64→128 multiply, halves xored), far cheaper than the 17
// dependent multiplies of FlowKey.FastHash, whose value is only needed
// once per tunnelled flow. One round is not enough: with only the source
// port varying its low bits step linearly, and a port scan piles into
// runs (TestFlowSlotHashSpreadsStructuredKeys).
func flowSlotHash(k packet.FlowKey) uint64 {
	a := uint64(k.Src)<<32 | uint64(k.Dst)
	b := uint64(k.Tenant)<<32 | uint64(k.SrcPort)<<16 | uint64(k.DstPort)
	hi, lo := bits.Mul64(a^0x9e3779b97f4a7c15^uint64(k.Proto)*0xff51afd7ed558ccd, b^0xc4ceb9fe1a85ec53)
	hi, lo = bits.Mul64(hi^lo, 0x9e3779b97f4a7c15)
	return hi ^ lo
}

// lookup returns k's live entry, or nil. The pointer is good until the
// next insert, which may move or overwrite the entry.
func (t *flowTable) lookup(k packet.FlowKey, h uint64) *flowEntry {
	mask := uint64(len(t.slots) - 1)
	for i := uint64(0); i < flowProbeWindow; i++ {
		e := &t.slots[(h+i)&mask]
		if e.gen != t.gen {
			if e.gen == t.gen|flowTomb {
				continue
			}
			return nil
		}
		if e.key == k {
			return e
		}
	}
	return nil
}

// remove retires the live entry e, leaving a tombstone in its slot.
func (t *flowTable) remove(e *flowEntry) {
	e.gen |= flowTomb
	t.live--
}

// insert claims a slot for k, which lookup has just missed, and returns it
// zeroed but for the key.
func (t *flowTable) insert(k packet.FlowKey, h uint64) *flowEntry {
	if 2*t.live >= len(t.slots) && len(t.slots) < ExactTableSlots {
		t.grow()
	}
	e := t.place(h)
	*e = flowEntry{key: k, gen: t.gen}
	return e
}

// place returns the slot an entry hashing to h goes in: the first free or
// tombstoned slot of its window, else a victim.
func (t *flowTable) place(h uint64) *flowEntry {
	mask := uint64(len(t.slots) - 1)
	for i := uint64(0); i < flowProbeWindow; i++ {
		if e := &t.slots[(h+i)&mask]; e.gen != t.gen {
			t.live++
			return e
		}
	}
	t.hand++
	return &t.slots[(h+t.hand%flowProbeWindow)&mask]
}

func (t *flowTable) grow() {
	old := t.slots
	t.slots = make([]flowEntry, 2*len(old))
	t.live = 0
	for i := range old {
		if e := &old[i]; e.gen == t.gen {
			*t.place(flowSlotHash(e.key)) = *e
		}
	}
}

// flush retires every entry. A slot's stamp can only equal a later gen
// again after 2^31 flushes, so on wrap-around the slots are cleared for
// real; gen 0 is never current, which makes a zeroed slot free.
func (t *flowTable) flush() {
	t.live = 0
	t.gen++
	if t.gen == flowTomb {
		clear(t.slots)
		t.gen = 1
	}
}

// each calls fn on every live entry, in slot order.
func (t *flowTable) each(fn func(*flowEntry)) {
	for i := range t.slots {
		if e := &t.slots[i]; e.gen == t.gen {
			fn(e)
		}
	}
}
