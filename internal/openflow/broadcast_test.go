package openflow

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
)

func syncOf(seq uint32, n int) *RuleSync {
	m := &RuleSync{Seq: seq, Term: 2, Origin: 1, Patterns: make([]rules.Pattern, n)}
	for i := range m.Patterns {
		m.Patterns[i] = rules.AggregatePattern(packet.AggregateKey{
			Tenant: packet.TenantID(1 + i%8), VMIP: packet.IP(0x0a000001 + i), Port: uint16(1000 + i),
		})
	}
	return m
}

// fanoutWorld is a set of transports as a ToR controller holds them —
// remote and in-simulation, healthy, down, lossy off one shared RNG, and
// delayed — with everything observable about a send recorded.
type fanoutWorld struct {
	eng     *sim.Engine
	trs     []*Transport
	lossRng *rand.Rand
	// frames[i] holds a copy of each frame transport i's RemoteSender was
	// handed; lent holds the frames themselves, until scribble.
	frames [][][]byte
	lent   [][]byte
	// delivered logs in-simulation arrivals in order.
	delivered []string
}

type logHandler struct {
	w  *fanoutWorld
	id int
}

func (h logHandler) HandleMessage(msg Message, xid uint32, _ ReplyFunc) {
	h.w.delivered = append(h.w.delivered,
		fmt.Sprintf("%v tr%d xid%d %s seq%d", h.w.eng.Now(), h.id, xid, msg.Type(), msg.(*RuleSync).Seq))
}

func newFanoutWorld() *fanoutWorld {
	w := &fanoutWorld{eng: sim.NewEngine(1), lossRng: rand.New(rand.NewSource(9))}
	const n = 8
	w.frames = make([][][]byte, n)
	for i := 0; i < n; i++ {
		var tr *Transport
		if i%2 == 0 {
			i := i
			tr = NewRemoteTransport(func(frame []byte) error {
				w.frames[i] = append(w.frames[i], bytes.Clone(frame))
				w.lent = append(w.lent, frame)
				return nil
			})
		} else {
			tr = newTransport(w.eng, 100*time.Microsecond, logHandler{w, i})
		}
		tr.nextXID = uint32(1 + 100*i) // each connection has its own history
		w.trs = append(w.trs, tr)
	}
	w.trs[2].SetDown(true)
	w.trs[3].SetLoss(0.5, w.lossRng)
	w.trs[4].SetLoss(0.5, w.lossRng)
	w.trs[5].SetExtraDelay(50 * time.Microsecond) // arrives after transport 7's
	w.trs[6].SetLoss(0.5, w.lossRng)
	return w
}

// scribble overwrites every frame lent since the last call and every
// transport's encode buffer, as a sender that kept its frame and wrote to
// it after returning would, or as the next frame encoded in its place.
func (w *fanoutWorld) scribble() {
	for _, tr := range w.trs {
		w.lent = append(w.lent, tr.enc.b)
	}
	for _, b := range w.lent {
		for i := range b {
			b[i] = 0xa5
		}
	}
	w.lent = w.lent[:0]
}

// broadcastAll broadcasts msg on every transport of trs.
func broadcastAll(trs []*Transport, msg Message) {
	Broadcast(len(trs), func(i int) *Transport { return trs[i] }, msg)
}

// TestBroadcastIsALoopOfSend: Broadcast is observably the loop it replaces.
func TestBroadcastIsALoopOfSend(t *testing.T) {
	loop, bcast := newFanoutWorld(), newFanoutWorld()
	const rounds = 6
	for r := 1; r <= rounds; r++ {
		msg := syncOf(uint32(r), 40+r)
		at := time.Duration(r) * time.Millisecond
		loop.eng.At(at, func() {
			for _, tr := range loop.trs {
				tr.Send(msg)
			}
		})
		bcast.eng.At(at, func() { broadcastAll(bcast.trs, msg) })
	}
	loop.eng.Run()
	bcast.eng.Run()

	for i, tr := range bcast.trs {
		ref := loop.trs[i]
		if tr.nextXID != ref.nextXID || tr.Sent != ref.Sent || tr.SentBytes != ref.SentBytes || tr.Dropped != ref.Dropped {
			t.Errorf("transport %d: next xid %d sent %d bytes %d dropped %d; a loop of Send leaves %d, %d, %d, %d",
				i, tr.nextXID, tr.Sent, tr.SentBytes, tr.Dropped, ref.nextXID, ref.Sent, ref.SentBytes, ref.Dropped)
		}
		if !reflect.DeepEqual(bcast.frames[i], loop.frames[i]) {
			t.Errorf("transport %d: frames differ from a loop of Send", i)
		}
	}
	if bcast.trs[2].Dropped != rounds || len(bcast.frames[0]) != rounds {
		t.Fatalf("down transport dropped %d, healthy one was handed %d frames; want %d each",
			bcast.trs[2].Dropped, len(bcast.frames[0]), rounds)
	}
	if lost := bcast.trs[3].Dropped + bcast.trs[4].Dropped + bcast.trs[6].Dropped; lost == 0 || lost == 3*rounds {
		t.Fatalf("lossy transports dropped %d of %d: the loss path was not exercised both ways", lost, 3*rounds)
	}
	// The same number of loss draws, in the same order: the shared RNG is
	// in the same state.
	if a, b := loop.lossRng.Int63(), bcast.lossRng.Int63(); a != b {
		t.Errorf("loss RNG diverged: %d after the loop, %d after Broadcast", a, b)
	}
	if !reflect.DeepEqual(bcast.delivered, loop.delivered) || len(bcast.delivered) == 0 {
		t.Errorf("in-simulation deliveries differ:\nloop:      %v\nbroadcast: %v", loop.delivered, bcast.delivered)
	}
}

// TestSendersKeepNoFrame pins the outbound ownership rule, as
// TestHandlersKeepNoMessage (internal/core) pins the inbound one: a frame
// is lent to its RemoteSender for the call, and nothing reads it after.
// With every lent frame and every encode buffer overwritten after each
// Broadcast and each Send, what the senders were handed and what the
// in-simulation peers were delivered must not change.
func TestSendersKeepNoFrame(t *testing.T) {
	ref, w := newFanoutWorld(), newFanoutWorld()
	for r := 1; r <= 6; r++ {
		msg := syncOf(uint32(r), 40+r)
		for _, x := range []*fanoutWorld{ref, w} {
			x := x
			x.eng.At(time.Duration(r)*time.Millisecond, func() {
				broadcastAll(x.trs, msg)
				if x == w {
					x.scribble()
				}
				for _, tr := range x.trs {
					tr.Send(msg)
					if x == w {
						x.scribble()
					}
				}
			})
		}
	}
	ref.eng.Run()
	w.eng.Run()
	if !reflect.DeepEqual(w.frames, ref.frames) || len(w.frames[0]) == 0 {
		t.Error("a frame handed to one sender changed when the frames lent before it were overwritten")
	}
	if !reflect.DeepEqual(w.delivered, ref.delivered) || len(w.delivered) == 0 {
		t.Errorf("in-simulation deliveries changed when lent frames were overwritten:\nwant %v\ngot  %v",
			ref.delivered, w.delivered)
	}
}

// countingSync counts how often its body is marshalled.
type countingSync struct {
	*RuleSync
	marshals *int
}

func (m countingSync) marshalBody(b *buffer) {
	*m.marshals++
	m.RuleSync.marshalBody(b)
}

// TestBroadcastAllocs is the fan-out's allocation gate: one full-TCAM
// RuleSync to a rack's 16 agents marshals the body once, into a buffer the
// first transport reuses, and allocates nothing — not the 16
// grown-and-copied bodies a loop of Send made, nor a frame per agent.
func TestBroadcastAllocs(t *testing.T) {
	const agents, patterns = 16, 640
	trs := make([]*Transport, agents)
	var got int
	for i := range trs {
		trs[i] = NewRemoteTransport(func(frame []byte) error { got += len(frame); return nil })
	}
	marshals, sync := 0, syncOf(1, patterns)
	var msg Message = countingSync{sync, &marshals}
	broadcastAll(trs, msg)
	if want := agents * len(Encode(sync, 1)); marshals != 1 || got != want {
		t.Fatalf("one Broadcast marshalled the body %d times and delivered %d bytes, want once and %d",
			marshals, got, want)
	}
	if n := testing.AllocsPerRun(20, func() { broadcastAll(trs, msg) }); n != 0 {
		t.Fatalf("Broadcast of a %d-pattern RuleSync to %d transports allocates %v times, want 0",
			patterns, agents, n)
	}
}

// TestEncodeSizesOnce: a body that carries a count is allocated once, at
// its final size, behind the header.
func TestEncodeSizesOnce(t *testing.T) {
	rep := &DemandReport{ServerID: 1, Interval: 2, NICFree: 3,
		Splits:      make([]RateSplit, 5),
		NICPatterns: syncOf(0, 7).Patterns,
		Sketch:      &SketchMeta{TopK: 1},
	}
	for _, p := range syncOf(0, 300).Patterns {
		rep.Entries = append(rep.Entries, DemandEntry{Pattern: p, PPS: 1})
	}
	table := &TableReply{}
	for _, p := range syncOf(0, 300).Patterns {
		table.Rules = append(table.Rules, TableRule{Pattern: p, Priority: 1})
	}
	for _, msg := range []Message{syncOf(1, 640), rep, table} {
		var frame []byte
		// The 64-byte start, the sized body and the buffer header itself,
		// plus one under the race detector; doubling up from nil took 20.
		if n := testing.AllocsPerRun(20, func() { frame = Encode(msg, 1) }); n > 4 {
			t.Errorf("Encode(%s) allocates %v times, want at most 4", msg.Type(), n)
		}
		back, _, _, err := Decode(frame)
		if err != nil || !reflect.DeepEqual(back, msg) {
			t.Errorf("Encode(%s) does not round-trip: %v", msg.Type(), err)
		}
		if !bytes.Equal(frame, Encode(msg, 1)) || cap(frame) != len(frame) {
			t.Errorf("Encode(%s): unstable bytes or spare capacity (%d of %d)", msg.Type(), len(frame), cap(frame))
		}
	}
}
