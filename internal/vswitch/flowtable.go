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
// invalidation of its own; and all but hash of what every megaflow's mask
// pins, so a megaflow holds one too, hash zero, for the flows it covers.
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
	pkts, bytes uint64
	act         flowAction
}

// verdict is the rules' decision the entry caches.
func (e *flowEntry) verdict() fpVerdict {
	return fpVerdict{allow: e.act.kind != egressDeny, queue: int(e.act.queue)}
}

// flowTable is the flat hash table behind both caches, the exact-match one
// and (a table per mask) the megaflow one: open addressing with linear
// probing over a power-of-two slot array, bounded in space and probe length.
//
// Every slot has a tag byte, the one record of what the slot holds: free, a
// tombstone, or flowTagLive|h>>57, seven bits of the key's hash that the
// slot index (h's low bits) does not use. lookup walks the tags and reads a
// 64-byte slot only where the tag is its key's (one other key's in 128): a
// miss in a full table costs sixteen bytes, not sixteen cache lines.
//
// A key lives within flowProbeWindow slots of its home slot, in the run of
// occupied slots that starts there; lookup walks that run and stops at the
// first free slot. A run must therefore never gain a gap that would hide
// the entries behind it. remove keeps it gapless by leaving a tombstone,
// which lookup walks past, insert takes for free and each and grow skip.
// flush retires every entry and tombstone at once by clearing the tags: an
// epoch change costs 1/64 of the table and keeps its arrays. And an insert
// that finds its window full overwrites one of the window's slots: the
// victim's slot stays live, so every other key's run is as gapless as
// before, and the new key sits inside its own run where lookup finds it.
//
// The arrays double, rehashing the live entries with their counters (and
// shedding the tombstones), when they are half full, up to ExactTableSlots.
// Below the cap that keeps runs short and a full window rare; at the cap the
// window overwrite (counted in evictions) is the eviction policy, its victim
// offset rotating so two flows that collide do not keep displacing each other.
type flowTable struct {
	tags      []uint8
	slots     []flowEntry
	live      int
	hand      uint64
	evictions uint64
}

const (
	// flowTableMinSlots is the size a table starts at: 16 KiB, which an idle
	// Switch pays for its exact table and again per megaflow mask. bench's
	// sim.heap_mb: 6.14 MB with the exact table alone at 1,024 slots, 6.52
	// with megaflow tables too, 5.94 at 256 (512: just over 6.14). No
	// results/ generator holds over 320 flows.
	flowTableMinSlots = 1 << 8
	flowProbeWindow   = 16

	flowTagFree uint8 = 0
	flowTagTomb uint8 = 1
	flowTagLive uint8 = 0x80
)

// flowTag is the tag of a live slot whose key hashes to h.
func flowTag(h uint64) uint8 { return flowTagLive | uint8(h>>57) }

func newFlowTable() *flowTable {
	return &flowTable{tags: make([]uint8, flowTableMinSlots), slots: make([]flowEntry, flowTableMinSlots)}
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
	mask := uint64(len(t.tags) - 1)
	want := flowTag(h)
	for i := uint64(0); i < flowProbeWindow; i++ {
		switch j := (h + i) & mask; t.tags[j] {
		case want:
			if e := &t.slots[j]; e.key == k {
				return e
			}
		case flowTagFree:
			return nil
		}
	}
	return nil
}

// remove retires the live entry e, leaving a tombstone in its slot.
func (t *flowTable) remove(e *flowEntry) {
	h, mask := flowSlotHash(e.key), uint64(len(t.tags)-1)
	for i := uint64(0); i < flowProbeWindow; i++ {
		if j := (h + i) & mask; &t.slots[j] == e {
			t.tags[j] = flowTagTomb
			t.live--
			return
		}
	}
}

// insert claims a slot for k, which lookup has just missed, and returns it
// zeroed but for the key.
func (t *flowTable) insert(k packet.FlowKey, h uint64) *flowEntry {
	if 2*t.live >= len(t.tags) && len(t.tags) < ExactTableSlots {
		t.grow()
	}
	j := t.place(h)
	t.tags[j] = flowTag(h)
	e := &t.slots[j]
	*e = flowEntry{key: k}
	return e
}

// place returns the slot an entry hashing to h goes in: the first free or
// tombstoned slot of its window, else a victim.
func (t *flowTable) place(h uint64) uint64 {
	mask := uint64(len(t.tags) - 1)
	for i := uint64(0); i < flowProbeWindow; i++ {
		if j := (h + i) & mask; t.tags[j] < flowTagLive {
			t.live++
			return j
		}
	}
	t.hand++
	t.evictions++
	return (h + t.hand%flowProbeWindow) & mask
}

func (t *flowTable) grow() {
	tags, slots := t.tags, t.slots
	t.tags, t.slots = make([]uint8, 2*len(tags)), make([]flowEntry, 2*len(tags))
	t.live = 0
	for i, tag := range tags {
		if tag >= flowTagLive {
			j := t.place(flowSlotHash(slots[i].key))
			t.tags[j], t.slots[j] = tag, slots[i]
		}
	}
}

// flush retires every entry and tombstone.
func (t *flowTable) flush() {
	clear(t.tags)
	t.live = 0
}

// each calls fn on every live entry, in slot order.
func (t *flowTable) each(fn func(*flowEntry)) {
	for i, tag := range t.tags {
		if tag >= flowTagLive {
			fn(&t.slots[i])
		}
	}
}
