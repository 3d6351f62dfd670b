package vswitch

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/packet"
	"repro/internal/rules"
)

// TestFlowEntryLayout pins the two properties the table's cost rests on:
// a slot is one cache line, and holds nothing the garbage collector has to
// follow.
func TestFlowEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(flowEntry{}); got != 64 {
		t.Fatalf("flowEntry is %d bytes, want 64", got)
	}
	var walk func(reflect.Type)
	walk = func(ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type)
			}
		case reflect.Array:
			walk(ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Fatalf("flowEntry contains a %v", ty)
		}
	}
	walk(reflect.TypeOf(flowEntry{}))
}

func tableKey(i int) packet.FlowKey {
	return packet.FlowKey{
		Tenant: 3, Src: packet.MakeIP(10, 0, byte(i>>24), byte(i>>16)), Dst: packet.MakeIP(10, 0, 9, 9),
		SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP,
	}
}

// put inserts key i the way process does, after a miss, with counters
// derived from i.
func put(t *flowTable, i int) {
	k := tableKey(i)
	h := flowSlotHash(k)
	if t.lookup(k, h) != nil {
		panic("key already present")
	}
	e := t.insert(k, h)
	e.pkts, e.bytes, e.act.queue = uint64(i)+1, 3*uint64(i), int32(i%5)
}

// checkReachable is the table's soundness condition: every live slot is
// found by a lookup of its own key, so no run has a gap that hides an
// entry and no key sits in two slots; and tags and slots agree, every live
// slot's tag carrying its key's hash bits and every other tag being free or
// a tombstone.
func checkReachable(t *testing.T, ft *flowTable) {
	t.Helper()
	if len(ft.tags) != len(ft.slots) {
		t.Fatalf("%d tags for %d slots", len(ft.tags), len(ft.slots))
	}
	for i, tag := range ft.tags {
		if want := flowTag(flowSlotHash(ft.slots[i].key)); tag >= flowTagLive && tag != want {
			t.Fatalf("slot %d holds %v under tag %#x, its hash says %#x", i, ft.slots[i].key, tag, want)
		}
		if tag < flowTagLive && tag != flowTagFree && tag != flowTagTomb {
			t.Fatalf("slot %d has tag %#x: not live, free or a tombstone", i, tag)
		}
	}
	n := 0
	ft.each(func(e *flowEntry) {
		n++
		if got := ft.lookup(e.key, flowSlotHash(e.key)); got != e {
			t.Fatalf("live entry %v is not where lookup finds it (%p vs %p)", e.key, e, got)
		}
	})
	if n != ft.live {
		t.Fatalf("live count %d, %d live slots", ft.live, n)
	}
}

func TestFlowTableGrowthKeepsCounters(t *testing.T) {
	ft := newFlowTable()
	const n = 3000
	for i := 0; i < n; i++ {
		put(ft, i)
	}
	if len(ft.slots) != 8192 || ft.live != n {
		t.Fatalf("%d slots holding %d, want 8192 holding %d (three doublings at half full)", len(ft.slots), ft.live, n)
	}
	for i := 0; i < n; i++ {
		k := tableKey(i)
		e := ft.lookup(k, flowSlotHash(k))
		if e == nil || e.pkts != uint64(i)+1 || e.bytes != 3*uint64(i) || e.act.queue != int32(i%5) {
			t.Fatalf("key %d after growth: %+v", i, e)
		}
	}
	checkReachable(t, ft)
}

// TestFlowSlotHashSpreadsStructuredKeys: real key sets are not random —
// a port scan, a subnet sweep, one service's clients — and linear probing
// punishes a hash that maps such a progression onto a progression of
// slots. Filled to just under half (the most growth allows below the
// cap), each family must lose almost nothing to full probe windows; a
// uniformly random hash loses about 0.05%.
func TestFlowSlotHashSpreadsStructuredKeys(t *testing.T) {
	base := packet.FlowKey{Tenant: 3, Src: packet.MakeIP(10, 0, 0, 1), Dst: packet.MakeIP(10, 0, 9, 9),
		SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP}
	families := map[string]func(k *packet.FlowKey, i int){
		"source ports":      func(k *packet.FlowKey, i int) { k.SrcPort = uint16(i) },
		"destination ports": func(k *packet.FlowKey, i int) { k.DstPort = uint16(i) },
		"source addresses":  func(k *packet.FlowKey, i int) { k.Src += packet.IP(i) },
		"destinations":      func(k *packet.FlowKey, i int) { k.Dst += packet.IP(i) },
		"tenants":           func(k *packet.FlowKey, i int) { k.Tenant = packet.TenantID(i) },
		"address grid":      func(k *packet.FlowKey, i int) { k.Src, k.Dst = k.Src+packet.IP(i%128), k.Dst+packet.IP(i/128) },
		"strided ports":     func(k *packet.FlowKey, i int) { k.SrcPort, k.DstPort = uint16(i*64), uint16(i/1024) },
		"clients x servers": func(k *packet.FlowKey, i int) { k.Dst, k.SrcPort = k.Dst+packet.IP(i%16), uint16(i/16) },
	}
	const n = ExactTableSlots/2 - 4
	for name, vary := range families {
		ft := newFlowTable()
		for i := 0; i < n; i++ {
			k := base
			vary(&k, i)
			h := flowSlotHash(k)
			if ft.lookup(k, h) != nil {
				t.Fatalf("%s: key %d repeats", name, i)
			}
			ft.insert(k, h)
		}
		if lost := n - ft.live; lost > n/200 {
			t.Errorf("%s: %d of %d keys displaced at half load", name, lost, n)
		}
	}
}

// TestFlowTableEvictsInsideTheProbeRun fills the table far past its cap.
// It must stop growing, keep every surviving entry reachable, always find
// the key it has just been given, and never answer for a key with another
// key's entry.
func TestFlowTableEvictsInsideTheProbeRun(t *testing.T) {
	ft := newFlowTable()
	const n = 8 * ExactTableSlots
	for i := 0; i < n; i++ {
		put(ft, i)
		k := tableKey(i)
		if e := ft.lookup(k, flowSlotHash(k)); e == nil || e.pkts != uint64(i)+1 {
			t.Fatalf("key %d not found right after its insert: %+v", i, e)
		}
		if len(ft.slots) > ExactTableSlots {
			t.Fatalf("table grew to %d slots, cap is %d", len(ft.slots), ExactTableSlots)
		}
	}
	checkReachable(t, ft)
	if ft.live < ExactTableSlots*9/10 {
		t.Fatalf("only %d of %d slots live after %d inserts: eviction is wasting the table", ft.live, ExactTableSlots, n)
	}
	survivors := 0
	for i := 0; i < n; i++ {
		k := tableKey(i)
		if e := ft.lookup(k, flowSlotHash(k)); e != nil {
			survivors++
			if e.key != k || e.pkts != uint64(i)+1 {
				t.Fatalf("lookup of key %d returned %+v", i, e)
			}
		}
	}
	if survivors != ft.live {
		t.Fatalf("%d keys found, %d slots live", survivors, ft.live)
	}
}

// TestFlowTableRemovalAgainstMap drives random insert / remove / lookup /
// flush, with growth and eviction arising on the way, and holds the table
// to a map: whatever the table holds it holds with the map's counters, a
// key absent from the map is absent from the table, and every live entry
// is reachable through the tombstones removal leaves. The table may hold
// less than the map (it evicts), never more and never something else.
func TestFlowTableRemovalAgainstMap(t *testing.T) {
	for _, tc := range []struct {
		name           string
		keys, ops      int
		removePerMille int
	}{
		{"below-cap", 3000, 60_000, 300},             // grows three times; tombstones shed by growth
		{"heavy-removal", 400, 60_000, 480},          // never grows: tombstones pile up and are reused
		{"at-cap", 3 * ExactTableSlots, 400_000, 50}, // window eviction and removal together
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			ft := newFlowTable()
			oracle := map[packet.FlowKey]uint64{}
			check := func() {
				t.Helper()
				checkReachable(t, ft)
				ft.each(func(e *flowEntry) {
					if want, ok := oracle[e.key]; !ok || want != e.pkts {
						t.Fatalf("table holds %v with %d packets; the map has (%d, %v)", e.key, e.pkts, want, ok)
					}
				})
			}
			for op := 0; op < tc.ops; op++ {
				i := rng.Intn(tc.keys)
				k := tableKey(i)
				h := flowSlotHash(k)
				e := ft.lookup(k, h)
				if _, ok := oracle[k]; !ok && e != nil {
					t.Fatalf("op %d: key %d was removed or never inserted and the table still answers for it", op, i)
				}
				switch r := rng.Intn(1000); {
				case r < tc.removePerMille:
					if e != nil {
						ft.remove(e)
						if ft.lookup(k, h) != nil {
							t.Fatalf("op %d: key %d found right after its removal", op, i)
						}
					}
					delete(oracle, k)
				case r == 999:
					ft.flush()
					clear(oracle)
				default:
					if e == nil { // also a key the table evicted: the map starts it over
						e = ft.insert(k, h) // over a tombstone, a free slot, or a victim
						oracle[k] = 0
						if got := ft.lookup(k, h); got != e {
							t.Fatalf("op %d: key %d not found right after its insert", op, i)
						}
					}
					e.pkts++
					oracle[k]++
				}
				if op%5000 == 0 {
					check()
				}
			}
			check()
			if len(ft.slots) > ExactTableSlots {
				t.Fatalf("table grew to %d slots", len(ft.slots))
			}
		})
	}
}

// TestFlowTableRemoveInsideFullWindow: removal in the middle of a full
// probe window must leave the keys behind it reachable, and the slot must
// be the one the next insert for that window takes.
func TestFlowTableRemoveInsideFullWindow(t *testing.T) {
	ft := newFlowTable()
	mask := uint64(len(ft.slots) - 1)
	// Collect flowProbeWindow keys that share one home slot.
	var keys []packet.FlowKey
	home := flowSlotHash(tableKey(0)) & mask
	for i := 0; len(keys) < flowProbeWindow+1; i++ {
		if k := tableKey(i); flowSlotHash(k)&mask == home {
			keys = append(keys, k)
		}
	}
	extra := keys[flowProbeWindow]
	keys = keys[:flowProbeWindow]
	for _, k := range keys {
		ft.insert(k, flowSlotHash(k))
	}
	mid := keys[flowProbeWindow/2]
	midSlot := ft.lookup(mid, flowSlotHash(mid))
	ft.remove(midSlot)
	if ft.live != flowProbeWindow-1 {
		t.Fatalf("live = %d after one removal from %d", ft.live, flowProbeWindow)
	}
	for _, k := range keys {
		if got := ft.lookup(k, flowSlotHash(k)); (got != nil) != (k != mid) {
			t.Fatalf("key %v after removing the window's middle: found=%v", k, got != nil)
		}
	}
	if e := ft.insert(extra, flowSlotHash(extra)); e != midSlot {
		t.Fatal("insert into the window did not reuse the tombstone")
	}
	if ft.live != flowProbeWindow {
		t.Fatalf("live = %d after re-insert over the tombstone", ft.live)
	}
	checkReachable(t, ft)
}

// flowChurnPlane is an inline plane with one rule-bearing VM, and the
// reference verdict for its flows from the uncompiled rules.
func flowChurnPlane(t *testing.T, onVerdict func(k packet.FlowKey, allow bool, queue int)) (*ShardedPlane, func(packet.FlowKey) (bool, int)) {
	vm := &rules.VMRules{Tenant: vmA.Tenant, VMIP: vmA.IP, Security: []rules.SecurityRule{
		{Pattern: rules.Pattern{Tenant: 3, DstPort: 8001}, Action: rules.Deny, Priority: 5},
		{Pattern: rules.Pattern{Tenant: 3, DstPort: 8002, Proto: packet.ProtoTCP}, Action: rules.Allow, Priority: 6},
		{Pattern: rules.Pattern{Tenant: 3}, Action: rules.Allow, Priority: 0},
	}, QoS: []rules.QoSRule{
		{Pattern: rules.Pattern{Tenant: 3, DstPort: 8002}, Queue: 2, Priority: 1},
		{Pattern: rules.Pattern{Tenant: 3, DstPort: 8003}, Queue: 1, Priority: 1},
	}}
	pl := NewShardedPlane(PlaneConfig{Shards: 1, Tunneling: true, ServerIP: srvA,
		OnVerdict: func(_ int, k packet.FlowKey, allow bool, queue int) { onVerdict(k, allow, queue) }})
	t.Cleanup(pl.Close)
	pl.AttachVM(vmA, vm)
	for i := 0; i < 16; i++ {
		pl.SetTunnel(rules.TunnelMapping{Tenant: 3, VMIP: packet.MakeIP(10, 0, 9, byte(i)), Remote: srvB})
	}
	return pl, func(k packet.FlowKey) (bool, int) {
		if vm.Evaluate(k) != rules.Allow {
			return false, 0
		}
		return true, vm.QueueFor(k)
	}
}

// TestPlaneExactCacheBounded drives a million distinct 5-tuples through
// one epoch. The exact cache must stay within its cap and the heap flat
// while every packet is accounted for and every verdict, first sighting or
// after eviction, equals the rules' own.
func TestPlaneExactCacheBounded(t *testing.T) {
	tuples := 1 << 20
	if raceEnabled || testing.Short() {
		tuples = 1 << 17 // still four times the cap
	}
	var want func(packet.FlowKey) (bool, int)
	var wrong, verdicts int
	pl, want := flowChurnPlane(t, func(k packet.FlowKey, allow bool, queue int) {
		verdicts++
		if a, q := want(k); a != allow || q != queue {
			wrong++
		}
	})
	inj := pl.NewInjector()
	pkts := make([]*packet.Packet, packet.DefaultVectorSize)
	for i := range pkts {
		pkts[i] = packet.NewTCP(3, vmA.IP, 0, 0, 0, 100)
	}
	send := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := pkts[i%len(pkts)]
			p.IP.Dst = packet.MakeIP(10, 0, 9, byte(i>>16)&15)
			p.TCP.SrcPort, p.TCP.DstPort = uint16(i), uint16(8000+i%5)
			inj.Egress(vmA, p) // a full vector is processed before its packets are reused
		}
		inj.Flush()
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	send(0, tuples/8) // past the cap: the table is as large as it gets
	before := heap()
	send(tuples/8, tuples)
	send(0, 4096) // evicted long ago: classified afresh, same verdicts
	after := heap()

	if n := activeFlows(pl); n > ExactTableSlots || n < ExactTableSlots/2 {
		t.Fatalf("ActiveFlows = %d, want a full table of at most %d", n, ExactTableSlots)
	}
	if growth := int64(after) - int64(before); growth > 256<<10 {
		t.Fatalf("heap grew %d bytes over %d new tuples in one epoch", growth, tuples-tuples/8)
	}
	c := pl.Counters()
	if sent := uint64(tuples + 4096); c.Packets != sent || uint64(verdicts) != sent {
		t.Fatalf("sent %d packets: %d processed, %d verdicts", sent, c.Packets, verdicts)
	}
	if c.Tx+c.Denied+c.Unrouted+c.Drops.Total() != c.Packets || c.Denied == 0 || c.Tx == 0 {
		t.Fatalf("conservation violated or one-sided outcomes: %+v", c)
	}
	if wrong != 0 {
		t.Fatalf("%d of %d verdicts differ from VMRules.Evaluate/QueueFor", wrong, verdicts)
	}
	// Every exact miss installed an entry, which is still there or was
	// overwritten inside a full window.
	if inserts := c.Megaflow.Hits + c.Megaflow.Misses; inserts != uint64(activeFlows(pl))+c.ExactEvictions || c.ExactEvictions == 0 {
		t.Fatalf("%d installs, %d live, %d evictions counted", inserts, activeFlows(pl), c.ExactEvictions)
	}
	if c.EpochFlushes != 0 {
		t.Fatalf("the run was meant to stay in one epoch: %d flushes", c.EpochFlushes)
	}
}

// TestPlaneMissMidVectorKeepsEarlierActions: a packet's action is settled
// when it is classified. A miss later in the same vector that grows the
// table (moving every entry) must not disturb it.
func TestPlaneMissMidVectorKeepsEarlierActions(t *testing.T) {
	type verdict struct {
		port  uint16
		allow bool
		queue int
	}
	var got []verdict
	pl, want := flowChurnPlane(t, func(k packet.FlowKey, allow bool, queue int) {
		got = append(got, verdict{k.DstPort, allow, queue})
	})
	inj := pl.NewInjector()
	flow := func(sport, dport uint16) *packet.Packet {
		return packet.NewTCP(3, vmA.IP, packet.MakeIP(10, 0, 9, 1), sport, dport, 100)
	}
	// Install a denied flow, a queued flow, and filler up to two short of
	// the first doubling.
	denied, queued := flow(1, 8001), flow(2, 8002)
	inj.Egress(vmA, denied)
	inj.Egress(vmA, queued)
	for i := 0; i < flowTableMinSlots/2-4; i++ {
		inj.Egress(vmA, flow(uint16(1000+i), 8000))
	}
	inj.Flush()
	sh := pl.shards[0]
	if len(sh.core.exact.slots) != flowTableMinSlots || sh.core.exact.live != flowTableMinSlots/2-2 {
		t.Fatalf("set-up: %d slots holding %d", len(sh.core.exact.slots), sh.core.exact.live)
	}

	got = got[:0]
	before := pl.Counters()
	inj.Egress(vmA, denied) // hits
	inj.Egress(vmA, queued)
	for i := 0; i < 8; i++ { // misses; the third doubles the table
		inj.Egress(vmA, flow(uint16(5000+i), 8003))
	}
	inj.Egress(vmA, denied) // hits again, in the table's new array
	inj.Flush()

	if len(sh.core.exact.slots) != 2*flowTableMinSlots {
		t.Fatalf("the vector did not grow the table: %d slots", len(sh.core.exact.slots))
	}
	wantSeq := []verdict{{8001, false, 0}, {8002, true, 2}}
	for i := 0; i < 8; i++ {
		wantSeq = append(wantSeq, verdict{8003, true, 1})
	}
	wantSeq = append(wantSeq, verdict{8001, false, 0})
	if !reflect.DeepEqual(got, wantSeq) {
		t.Fatalf("verdicts across the growth:\n got %v\nwant %v", got, wantSeq)
	}
	for _, v := range wantSeq { // the expectation itself is the rules' answer
		k := flow(0, v.port).Key()
		if a, q := want(k); a != v.allow || q != v.queue {
			t.Fatalf("test expectation %+v is not what the rules say (%v, %d)", v, a, q)
		}
	}
	c := pl.Counters()
	if c.Denied-before.Denied != 2 || c.Tx-before.Tx != 9 {
		t.Fatalf("outcomes across the growth: denied %d tx %d, want 2 and 9", c.Denied-before.Denied, c.Tx-before.Tx)
	}
	// Growth kept the counters of the flows it moved.
	for _, f := range flowSnapshot(pl) {
		if f.Key == denied.Key() && (f.Packets != 3 || f.Allow) {
			t.Fatalf("denied flow after growth: %+v, want 3 packets", f)
		}
	}
}
