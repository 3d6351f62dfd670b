// Package openflow implements the control protocol between the FasTrak
// rule manager and its data-plane elements: the flow placer in each VM's
// bonding driver exposes "an OpenFlow interface, allowing the FasTrak rule
// manager to direct a subset of flows via the SR-IOV interface" (§4.1.1),
// and the TOR controller issues "OpenFlow table and flow stats requests"
// (§5.2). Here table requests travel on the wire; per-flow counters are
// read from the datapath by each measurement engine, so the protocol
// carries no flow-stats messages.
//
// The protocol is a compact OpenFlow-style binary framing: an 8-byte
// header (version, type, length, xid) followed by a typed body. It runs
// over any io.ReadWriter — real net.Conns in deployments and tests, and a
// deterministic in-simulation transport (see Transport) inside the
// discrete-event testbed. Both use the same byte format, so the codecs are
// exercised on every control-plane exchange.
package openflow

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/packet"
	"repro/internal/rules"
)

// Version identifies this protocol revision. Revision 2 made the
// epoch-fence tail mandatory, so a revision-1 peer is refused at the
// header rather than misread.
const Version = 2

// MsgType discriminates message bodies.
type MsgType uint8

// Message types.
const (
	TypeHello MsgType = iota + 1
	TypeEchoRequest
	TypeEchoReply
	TypeFlowMod
	_ // 5 and 6 carried per-flow stats, which no controller asked for;
	_ // they stay retired so every live type keeps its number.
	TypeBarrierRequest
	TypeBarrierReply
	// TypeDemandReport is the FasTrak experimenter message carrying a
	// local ME's network demand report to the TOR controller (§4.3.1).
	TypeDemandReport
	// TypeOffloadDecision is the FasTrak experimenter message carrying
	// the TOR DE's offload/demote decisions and rate-limit splits back
	// to local controllers (§4.3.2).
	TypeOffloadDecision
	// TypeError reports that a prior request (by xid) failed at the
	// data-plane element — e.g. a FLOW_MOD rejected by a full or faulty
	// TCAM. Mirrors OpenFlow's OFPT_ERROR.
	TypeError
	// TypeRuleSync carries the TOR DE's desired offload set to a local
	// controller, whole or as the changes since what it acked — the
	// anti-entropy complement to incremental OffloadDecision diffs: a
	// receiver reconciles its placer state against the set, so any number
	// of lost decisions self-heal.
	TypeRuleSync
	// TypeSyncAck acknowledges a RuleSync after the local controller has
	// programmed its placers; the TOR controller gates hardware rule
	// removal on it so no placer still steers a flow at a rule being
	// deleted.
	TypeSyncAck
	// TypeTableRequest asks a switch agent for its installed rule table.
	TypeTableRequest
	// TypeTableReply reports the switch's installed rules — the
	// "reported hardware state" reconciliation diffs against.
	TypeTableReply
	// TypeOverloadHint is the FasTrak experimenter message a local
	// controller raises when its vswitch slow path enters (or leaves)
	// CPU overload: an out-of-band degradation signal asking the TOR DE
	// to prioritize offloading the dominant tenant's aggregates instead
	// of waiting for the next demand-report cycle.
	TypeOverloadHint
	// TypeLeaderHeartbeat is the control-plane HA message a TOR DE
	// leader broadcasts to its hot-standby replicas: "term T is alive
	// and replica L leads it". Standbys reset their election timers on
	// it; a replica holding a newer term answers a stale heartbeat with
	// its own view so a partitioned ex-leader converges after healing.
	TypeLeaderHeartbeat
)

func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "HELLO"
	case TypeEchoRequest:
		return "ECHO_REQUEST"
	case TypeEchoReply:
		return "ECHO_REPLY"
	case TypeFlowMod:
		return "FLOW_MOD"
	case TypeBarrierRequest:
		return "BARRIER_REQUEST"
	case TypeBarrierReply:
		return "BARRIER_REPLY"
	case TypeDemandReport:
		return "DEMAND_REPORT"
	case TypeOffloadDecision:
		return "OFFLOAD_DECISION"
	case TypeError:
		return "ERROR"
	case TypeRuleSync:
		return "RULE_SYNC"
	case TypeSyncAck:
		return "SYNC_ACK"
	case TypeTableRequest:
		return "TABLE_REQUEST"
	case TypeTableReply:
		return "TABLE_REPLY"
	case TypeOverloadHint:
		return "OVERLOAD_HINT"
	case TypeLeaderHeartbeat:
		return "LEADER_HEARTBEAT"
	default:
		return fmt.Sprintf("UNKNOWN(%d)", uint8(t))
	}
}

// headerLen is the fixed message header size.
const headerLen = 8

// Message is one protocol message.
type Message interface {
	Type() MsgType
	marshalBody(b *buffer)
	unmarshalBody(b *reader) error
}

// Hello opens a connection.
type Hello struct{}

// Type implements Message.
func (Hello) Type() MsgType               { return TypeHello }
func (Hello) marshalBody(*buffer)         {}
func (Hello) unmarshalBody(*reader) error { return nil }

// EchoRequest is a liveness probe; EchoReply answers it.
type EchoRequest struct{}

// Type implements Message.
func (EchoRequest) Type() MsgType               { return TypeEchoRequest }
func (EchoRequest) marshalBody(*buffer)         {}
func (EchoRequest) unmarshalBody(*reader) error { return nil }

// EchoReply answers an EchoRequest.
type EchoReply struct{}

// Type implements Message.
func (EchoReply) Type() MsgType               { return TypeEchoReply }
func (EchoReply) marshalBody(*buffer)         {}
func (EchoReply) unmarshalBody(*reader) error { return nil }

// FlowModCommand selects the FlowMod operation.
type FlowModCommand uint8

// FlowMod commands.
const (
	FlowAdd FlowModCommand = iota
	FlowDelete
)

// Path selects the interface the flow placer steers matching flows to.
type Path uint8

// Flow placer output paths (§4.1.1).
const (
	PathVIF Path = iota // default: through the vswitch
	PathVF              // express lane: SR-IOV bypass
)

func (p Path) String() string {
	if p == PathVF {
		return "vf"
	}
	return "vif"
}

// FlowMod installs or removes a wildcard rule in a flow placer's control
// plane (or a rule in the emulated switch's table).
type FlowMod struct {
	Command  FlowModCommand
	Pattern  rules.Pattern
	Priority uint16
	Out      Path
	// Cookie correlates the rule with the controller's bookkeeping.
	Cookie uint64
	// Term is the issuing leader's election term and Origin its replica
	// id — the epoch fence: a receiver that has seen a newer term
	// rejects the mod, so a partitioned ex-leader cannot fight its
	// successor. Both travel in a tail section every FlowMod carries.
	Term   uint32
	Origin uint32
}

// Type implements Message.
func (*FlowMod) Type() MsgType { return TypeFlowMod }

func (m *FlowMod) marshalBody(b *buffer) {
	b.u8(uint8(m.Command))
	b.u8(uint8(m.Out))
	b.u16(m.Priority)
	b.u64(m.Cookie)
	marshalPattern(b, m.Pattern)
	marshalTermTail(b, m.Term, m.Origin)
}

func (m *FlowMod) unmarshalBody(r *reader) error {
	m.Command = FlowModCommand(r.u8())
	m.Out = Path(r.u8())
	m.Priority = r.u16()
	m.Cookie = r.u64()
	m.Pattern = unmarshalPattern(r)
	m.Term, m.Origin = unmarshalTermTail(r)
	return r.err
}

// marshalTermTail appends the epoch-fence tail (term + origin replica).
func marshalTermTail(b *buffer, term, origin uint32) {
	b.u32(term)
	b.u32(origin)
}

// unmarshalTermTail consumes the epoch-fence tail.
func unmarshalTermTail(r *reader) (term, origin uint32) {
	return r.u32(), r.u32()
}

// BarrierRequest asks the element to finish processing all prior messages
// before replying — used when flow migration must be ordered (§6.2.2).
type BarrierRequest struct{}

// Type implements Message.
func (*BarrierRequest) Type() MsgType               { return TypeBarrierRequest }
func (*BarrierRequest) marshalBody(*buffer)         {}
func (*BarrierRequest) unmarshalBody(*reader) error { return nil }

// BarrierReply answers a BarrierRequest.
type BarrierReply struct{}

// Type implements Message.
func (*BarrierReply) Type() MsgType               { return TypeBarrierReply }
func (*BarrierReply) marshalBody(*buffer)         {}
func (*BarrierReply) unmarshalBody(*reader) error { return nil }

// DemandEntry is one flow or flow aggregate's measurement in a demand
// report: <flow/flowaggregate, pps, bps, epoch#> (§4.3.1).
type DemandEntry struct {
	Pattern rules.Pattern
	PPS     float64
	BPS     float64
	Epoch   uint32
	// MedianPPS and MedianBPS summarize the last M control intervals
	// ("The report also contains historical information about the
	// median pps and bps seen for flows").
	MedianPPS float64
	MedianBPS float64
	// ActiveEpochs is n, the number of epochs the flow was active —
	// the frequency component of the DE's score S = n × m_pps.
	ActiveEpochs uint32
}

// ServerIDOf returns the ServerID a message names, for the kinds local
// controllers originate: a DemandReport, SyncAck or OverloadHint.
func ServerIDOf(msg Message) (uint32, bool) {
	switch m := msg.(type) {
	case *DemandReport:
		return m.ServerID, true
	case *SyncAck:
		return m.ServerID, true
	case *OverloadHint:
		return m.ServerID, true
	}
	return 0, false
}

// DemandReport is a local controller ME's periodic report to its TOR
// controller. Besides flow measurements it carries the hardware-side rate
// limits the local DE computed with FPS, for the TOR controller to
// install ("rate limits on the SR-IOV VF are applied at the TOR",
// §4.1.4).
type DemandReport struct {
	ServerID uint32
	Interval uint32 // control interval sequence number
	Entries  []DemandEntry
	Splits   []RateSplit
	// NICFree is the host SmartNIC's free rule-table capacity (0 when the
	// host has no SmartNIC); NICPatterns lists the rules currently in its
	// table, so the TOR DE can reconcile desired against reported NIC
	// state without a second barrier machine. Both ride on the first
	// chunk only (like Splits).
	NICFree     uint32
	NICPatterns []rules.Pattern
	// Sketch carries the streaming-accounting metadata when the sender
	// runs sketch mode (nil in exact mode): the sketch dimensions plus
	// the space-saving floor, which bounds the demand any pattern absent
	// from the report can be hiding. Rides on the first chunk only, like
	// Splits.
	Sketch *SketchMeta
}

// SketchMeta describes the bounded-memory accounting behind a sketch-mode
// demand report (see internal/sketch).
type SketchMeta struct {
	// TopK, Width and Depth are the sender's sketch dimensions.
	TopK, Width, Depth uint32
	// Floor is the minimum monitored packet count: any pattern missing
	// from the report has true count ≤ Floor. 0 means the report is
	// exhaustive (the top-k never filled).
	Floor uint64
	// Evictions counts top-k takeovers since the accountant started —
	// nonzero means the live pattern population exceeded TopK.
	Evictions uint64
}

// Type implements Message.
func (*DemandReport) Type() MsgType { return TypeDemandReport }

func (m *DemandReport) marshalBody(b *buffer) {
	// Header words, entries, 40-byte splits, the NIC section and
	// the sketch section at its longest.
	b.reserve(12 + entryLen*len(m.Entries) + 4 + 40*len(m.Splits) + 8 + patternLen*len(m.NICPatterns) + 29)
	b.u32(m.ServerID)
	b.u32(m.Interval)
	b.u32(uint32(len(m.Entries)))
	w := b.extend(entryLen * len(m.Entries))
	for i := range m.Entries {
		putEntry(w[i*entryLen:], &m.Entries[i])
	}
	marshalSplits(b, m.Splits)
	b.u32(m.NICFree)
	marshalPatterns(b, m.NICPatterns)
	if m.Sketch != nil {
		b.u8(1)
		b.u32(m.Sketch.TopK)
		b.u32(m.Sketch.Width)
		b.u32(m.Sketch.Depth)
		b.u64(m.Sketch.Floor)
		b.u64(m.Sketch.Evictions)
	} else {
		b.u8(0)
	}
}

func (m *DemandReport) unmarshalBody(r *reader) error {
	m.ServerID = r.u32()
	m.Interval = r.u32()
	n := r.u32()
	if uint64(n)*entryLen > uint64(r.remaining()) {
		return fmt.Errorf("openflow: demand report claims %d entries beyond body", n)
	}
	// A Conn's report arrives with its entries' array, emptied.
	if m.Entries = slices.Grow(m.Entries, int(n))[:n]; n == 0 {
		m.Entries = nil
	}
	w := r.next(entryLen * int(n))
	for i := range m.Entries {
		e := &m.Entries[i]
		r.checkPrefixes(getEntry(w[i*entryLen:], e))
		r.checkRates(validRate(e.PPS) && validRate(e.BPS) && validRate(e.MedianPPS) && validRate(e.MedianBPS))
	}
	var err error
	m.Splits, err = unmarshalSplits(r)
	if err != nil {
		return err
	}
	m.NICFree = r.u32()
	if m.NICPatterns, err = unmarshalPatterns(r, new([]rules.Pattern)); err != nil {
		return err
	}
	if r.u8() != 0 {
		m.Sketch = &SketchMeta{
			TopK:      r.u32(),
			Width:     r.u32(),
			Depth:     r.u32(),
			Floor:     r.u64(),
			Evictions: r.u64(),
		}
	}
	return r.err
}

func marshalSplits(b *buffer, splits []RateSplit) {
	b.u32(uint32(len(splits)))
	for _, s := range splits {
		b.u32(uint32(s.Tenant))
		b.u32(uint32(s.VMIP))
		b.f64(s.EgressSoftBps)
		b.f64(s.EgressHardBps)
		b.f64(s.IngressSoftBps)
		b.f64(s.IngressHardBps)
	}
}

func unmarshalSplits(r *reader) ([]RateSplit, error) {
	ns := r.u32()
	if uint64(ns)*40 > uint64(r.remaining()) {
		return nil, fmt.Errorf("openflow: %d rate splits beyond body", ns)
	}
	if ns == 0 {
		return nil, nil
	}
	out := make([]RateSplit, ns)
	for i := range out {
		s := &out[i]
		s.Tenant = packet.TenantID(r.u32())
		s.VMIP = packet.IP(r.u32())
		s.EgressSoftBps = r.f64()
		s.EgressHardBps = r.f64()
		s.IngressSoftBps = r.f64()
		s.IngressHardBps = r.f64()
	}
	return out, nil
}

// Offload action tiers. The tier rides in the high bits of the action's
// flag byte, so a zero tier keeps pre-SmartNIC wire semantics.
const (
	// TierTCAM targets the ToR TCAM express lane (the legacy default).
	TierTCAM uint8 = 0
	// TierNIC targets the sending host's SmartNIC table.
	TierNIC uint8 = 1
)

// OffloadAction is one element of an offload decision.
type OffloadAction struct {
	Pattern rules.Pattern
	// Offload directs the flow into the tier when true, back out of it
	// when false (a demotion).
	Offload bool
	// Tier selects the hardware tier the action concerns (TierTCAM or
	// TierNIC). Packed into the same wire flag byte as Offload.
	Tier uint8
}

// RateSplit is the FPS outcome for one VM interface pair (§4.3.2): the
// limits Rs and Rh (already including the overflow O) per direction.
type RateSplit struct {
	Tenant packet.TenantID
	VMIP   packet.IP
	// Egress/Ingress software (VIF) and hardware (VF) limits in bps.
	EgressSoftBps, EgressHardBps   float64
	IngressSoftBps, IngressHardBps float64
}

// VMRate is a per-VM hardware-path rate observation the TOR controller
// shares with local controllers, which need it as the hardware-demand
// input to their FPS computation (§4.3.2).
type VMRate struct {
	Tenant packet.TenantID
	VMIP   packet.IP
	// EgressBps/IngressBps are the measured hardware-path rates, and
	// EgressMaxed/IngressMaxed whether each direction hit its limit.
	EgressBps, IngressBps     float64
	EgressMaxed, IngressMaxed bool
}

// OffloadDecision is the TOR DE's directive to a local controller:
// offload/demote actions plus the hardware-path rate observations for
// co-resident VMs.
type OffloadDecision struct {
	Interval uint32
	Actions  []OffloadAction
	HWRates  []VMRate
	// Term/Origin epoch-fence the decision (see FlowMod): local
	// controllers ignore decisions from a stale leader.
	Term   uint32
	Origin uint32
}

// Type implements Message.
func (*OffloadDecision) Type() MsgType { return TypeOffloadDecision }

func (m *OffloadDecision) marshalBody(b *buffer) {
	b.u32(m.Interval)
	b.u32(uint32(len(m.Actions)))
	for _, a := range m.Actions {
		marshalPattern(b, a.Pattern)
		flags := a.Tier << 1
		if a.Offload {
			flags |= 1
		}
		b.u8(flags)
	}
	b.u32(uint32(len(m.HWRates)))
	for _, s := range m.HWRates {
		b.u32(uint32(s.Tenant))
		b.u32(uint32(s.VMIP))
		b.f64(s.EgressBps)
		b.f64(s.IngressBps)
		var flags uint8
		if s.EgressMaxed {
			flags |= 1
		}
		if s.IngressMaxed {
			flags |= 2
		}
		b.u8(flags)
	}
	marshalTermTail(b, m.Term, m.Origin)
}

func (m *OffloadDecision) unmarshalBody(r *reader) error {
	m.Interval = r.u32()
	na := r.u32()
	// Each action is a 20-byte pattern plus a 1-byte flag.
	if uint64(na)*21 > uint64(r.remaining()) {
		return fmt.Errorf("openflow: decision claims %d actions beyond body", na)
	}
	if na > 0 {
		m.Actions = make([]OffloadAction, na)
	}
	for i := range m.Actions {
		m.Actions[i].Pattern = unmarshalPattern(r)
		flags := r.u8()
		m.Actions[i].Offload = flags&1 != 0
		m.Actions[i].Tier = flags >> 1
	}
	ns := r.u32()
	if uint64(ns)*25 > uint64(r.remaining()) {
		return fmt.Errorf("openflow: decision claims %d rates beyond body", ns)
	}
	if ns > 0 {
		m.HWRates = make([]VMRate, ns)
	}
	for i := range m.HWRates {
		s := &m.HWRates[i]
		s.Tenant = packet.TenantID(r.u32())
		s.VMIP = packet.IP(r.u32())
		s.EgressBps = r.f64()
		s.IngressBps = r.f64()
		flags := r.u8()
		s.EgressMaxed = flags&1 != 0
		s.IngressMaxed = flags&2 != 0
	}
	m.Term, m.Origin = unmarshalTermTail(r)
	return r.err
}

// Error codes carried by ErrorMsg.
const (
	// ErrCodeTableFull: the hardware rule table has no free entries.
	ErrCodeTableFull uint16 = 1
	// ErrCodeRejected: the hardware rejected the operation (transient or
	// permanent fault).
	ErrCodeRejected uint16 = 2
	// ErrCodeStaleTerm: the request carried an election term older than
	// the newest the element has seen — the sender is a fenced-out
	// ex-leader and must step down.
	ErrCodeStaleTerm uint16 = 3
)

// ErrorMsg reports a failed request; its xid echoes the failing request's.
type ErrorMsg struct {
	Code uint16
}

// Type implements Message.
func (*ErrorMsg) Type() MsgType           { return TypeError }
func (m *ErrorMsg) marshalBody(b *buffer) { b.u16(m.Code) }
func (m *ErrorMsg) unmarshalBody(r *reader) error {
	m.Code = r.u16()
	return r.err
}

// RuleSync carries the TOR controller's desired offload set, sequenced so
// receivers and the sender agree on which state an ack covers. Without a
// shape tail it is full: Patterns is the whole set at Seq. With Delta, the
// set at Seq is the set at Base plus Patterns less Removes, which list
// every pattern touched since Base under its membership at Seq — so
// applying it to any state from Base to Seq gives the set at Seq, and a
// receiver that has applied less than Base must not apply it. With Parts > 0 it is part
// Part of a full set too large for one frame, all parts under one Seq.
// Stale or duplicate syncs (Seq ≤ last applied) are applied idempotently.
type RuleSync struct {
	Seq      uint32
	Patterns []rules.Pattern
	// Term/Origin epoch-fence the sync; sequence numbers are scoped to
	// a term (a new leader starts a fresh sequence space).
	Term   uint32
	Origin uint32
	// The shape tail follows Term/Origin; a one-frame full sync has none.
	Delta       bool
	Base        uint32
	Removes     []rules.Pattern
	Part, Parts uint16
}

// MaxSyncPatterns bounds Patterns plus Removes of one RuleSync frame (20
// wire bytes each, under MaxFrame with header and tails): senders split a
// larger full set into parts and keep a delta below it.
const MaxSyncPatterns = 3200

// RuleSync tail kinds.
const syncTailDelta, syncTailPart = 1, 2

// Type implements Message.
func (*RuleSync) Type() MsgType { return TypeRuleSync }

func (m *RuleSync) marshalBody(b *buffer) {
	b.reserve(8 + patternLen*(len(m.Patterns)+len(m.Removes)) + 8 + 9)
	b.u32(m.Seq)
	marshalPatterns(b, m.Patterns)
	marshalTermTail(b, m.Term, m.Origin)
	if m.Delta {
		b.u8(syncTailDelta)
		b.u32(m.Base)
		marshalPatterns(b, m.Removes)
	} else if m.Parts > 0 {
		b.u8(syncTailPart)
		b.u16(m.Part)
		b.u16(m.Parts)
	}
}

func (m *RuleSync) unmarshalBody(r *reader) error {
	m.Seq = r.u32()
	// A delta's two lists are decoded into one array: peek the removes'
	// count, which lies behind the adds, term/origin, the kind and the base.
	var buf []rules.Pattern
	if r.remaining() >= 4 {
		n := uint64(binary.BigEndian.Uint32(r.b[r.off:]))
		tail := uint64(r.off) + 4 + n*patternLen + 8
		if tail+9 <= uint64(len(r.b)) && r.b[tail] == syncTailDelta {
			if n += uint64(binary.BigEndian.Uint32(r.b[tail+5:])); n*patternLen <= uint64(r.remaining()) {
				buf = make([]rules.Pattern, 0, n)
			}
		}
	}
	var err error
	if m.Patterns, err = unmarshalPatterns(r, &buf); err != nil {
		return err
	}
	m.Term, m.Origin = unmarshalTermTail(r)
	if r.err != nil || r.remaining() == 0 {
		return r.err
	}
	switch kind := r.u8(); kind {
	case syncTailDelta:
		m.Delta, m.Base = true, r.u32()
		if m.Removes, err = unmarshalPatterns(r, &buf); err != nil {
			return err
		}
	case syncTailPart:
		if m.Part, m.Parts = r.u16(), r.u16(); r.err == nil && m.Part >= m.Parts {
			return fmt.Errorf("openflow: rule sync part %d of %d", m.Part, m.Parts)
		}
	default:
		return fmt.Errorf("openflow: rule sync tail kind %d", kind)
	}
	return r.err
}

// marshalPatterns writes a count and the patterns.
func marshalPatterns(b *buffer, ps []rules.Pattern) {
	b.u32(uint32(len(ps)))
	w := b.extend(patternLen * len(ps))
	for i := range ps {
		putPattern(w[i*patternLen:], &ps[i])
	}
}

// unmarshalPatterns reads a count and that many patterns, into buf's spare
// capacity when they fit there; a count the body cannot hold is rejected
// before anything is allocated for it.
func unmarshalPatterns(r *reader, buf *[]rules.Pattern) ([]rules.Pattern, error) {
	n := int(r.u32())
	if uint64(n)*patternLen > uint64(r.remaining()) {
		return nil, fmt.Errorf("openflow: %d patterns claimed beyond body", n)
	}
	if n == 0 {
		return nil, r.err
	}
	if n > cap(*buf)-len(*buf) {
		*buf = make([]rules.Pattern, 0, n)
	}
	at := len(*buf)
	*buf = (*buf)[:at+n]
	ps := (*buf)[at : at+n : at+n]
	w := r.next(n * patternLen)
	for i := range ps {
		r.checkPrefixes(getPattern(w[i*patternLen:], &ps[i]))
	}
	return ps, r.err
}

// SyncAck confirms a RuleSync was applied by the given server. Term
// scopes the acknowledged sequence number: a leader ignores acks from a
// different term's sequence space.
type SyncAck struct {
	ServerID uint32
	Seq      uint32
	Term     uint32
}

// Type implements Message.
func (*SyncAck) Type() MsgType { return TypeSyncAck }

func (m *SyncAck) marshalBody(b *buffer) {
	b.u32(m.ServerID)
	b.u32(m.Seq)
	b.u32(m.Term)
}

func (m *SyncAck) unmarshalBody(r *reader) error {
	m.ServerID = r.u32()
	m.Seq = r.u32()
	m.Term = r.u32()
	return r.err
}

// TableRequest asks a switch agent for its installed rules. It carries
// the requesting leader's term — the agent treats a current-term table
// walk as proof of control-plane liveness and refreshes every rule lease
// (§lease lifecycle: refresh rides the reconcile cadence).
type TableRequest struct {
	Term   uint32
	Origin uint32
}

// Type implements Message.
func (*TableRequest) Type() MsgType { return TypeTableRequest }
func (m *TableRequest) marshalBody(b *buffer) {
	marshalTermTail(b, m.Term, m.Origin)
}
func (m *TableRequest) unmarshalBody(r *reader) error {
	m.Term, m.Origin = unmarshalTermTail(r)
	return r.err
}

// TableRule is one installed hardware rule in a TableReply.
type TableRule struct {
	Pattern  rules.Pattern
	Priority uint16
	Queue    uint8
}

// MaxTableRules bounds a TableReply to the 64 KiB frame (each rule is 23
// wire bytes). Larger tables are truncated; reconciliation against a
// truncated view is conservative — missing desired entries are simply
// re-asserted idempotently on a later round.
const MaxTableRules = 2800

// TableReply reports the switch's installed rules.
type TableReply struct {
	Rules []TableRule
}

// Type implements Message.
func (*TableReply) Type() MsgType { return TypeTableReply }

func (m *TableReply) marshalBody(b *buffer) {
	rs := m.Rules
	if len(rs) > MaxTableRules {
		rs = rs[:MaxTableRules]
	}
	b.reserve(4 + (patternLen+3)*len(rs))
	b.u32(uint32(len(rs)))
	for _, e := range rs {
		marshalPattern(b, e.Pattern)
		b.u16(e.Priority)
		b.u8(e.Queue)
	}
}

func (m *TableReply) unmarshalBody(r *reader) error {
	n := r.u32()
	if uint64(n)*23 > uint64(r.remaining()) {
		return fmt.Errorf("openflow: table reply claims %d rules beyond body", n)
	}
	if n > 0 {
		m.Rules = make([]TableRule, n)
	}
	for i := range m.Rules {
		m.Rules[i].Pattern = unmarshalPattern(r)
		m.Rules[i].Priority = r.u16()
		m.Rules[i].Queue = r.u8()
	}
	return r.err
}

// OverloadHint is a local controller's out-of-band degradation signal
// (§4.3.1 extension): the vswitch slow path crossed its CPU overload
// threshold and the named tenant dominates the miss stream. The TOR DE
// treats the tenant's pending offload candidates from this server as
// urgent — bypassing score ordering, not correctness checks — until the
// hint is withdrawn (Overloaded=false) or expires.
type OverloadHint struct {
	ServerID uint32
	Tenant   packet.TenantID
	// Overloaded is true on entry into overload, false on recovery.
	Overloaded bool
	// MissPPS is the observed slow-path miss rate attributed to the
	// tenant at signal time (diagnostics / tie-breaking).
	MissPPS float64
}

// Type implements Message.
func (*OverloadHint) Type() MsgType { return TypeOverloadHint }

func (m *OverloadHint) marshalBody(b *buffer) {
	b.u32(m.ServerID)
	b.u32(uint32(m.Tenant))
	if m.Overloaded {
		b.u8(1)
	} else {
		b.u8(0)
	}
	b.f64(m.MissPPS)
}

func (m *OverloadHint) unmarshalBody(r *reader) error {
	m.ServerID = r.u32()
	m.Tenant = packet.TenantID(r.u32())
	m.Overloaded = r.u8() != 0
	m.MissPPS = r.f64()
	return r.err
}

// LeaderHeartbeat asserts "replica LeaderID leads term Term" between TOR
// DE replicas. The leader broadcasts it on the heartbeat cadence; a
// replica holding a newer term gossips its own view back in the same
// message shape so stale leaders converge after a partition heals.
type LeaderHeartbeat struct {
	Term     uint32
	LeaderID uint32
}

// Type implements Message.
func (*LeaderHeartbeat) Type() MsgType { return TypeLeaderHeartbeat }

func (m *LeaderHeartbeat) marshalBody(b *buffer) {
	b.u32(m.Term)
	b.u32(m.LeaderID)
}

func (m *LeaderHeartbeat) unmarshalBody(r *reader) error {
	m.Term = r.u32()
	m.LeaderID = r.u32()
	return r.err
}

// ---- encoding primitives ----

type buffer struct{ b []byte }

// reserve makes room for n more bytes, so a body whose size follows from
// its counts is allocated once instead of doubling its way up.
func (b *buffer) reserve(n int) { b.b = slices.Grow(b.b, n) }

// extend appends n bytes and returns them for writing in place.
func (b *buffer) extend(n int) []byte {
	b.reserve(n)
	b.b = b.b[:len(b.b)+n]
	return b.b[len(b.b)-n:]
}

func (b *buffer) u8(v uint8)   { b.b = append(b.b, v) }
func (b *buffer) u16(v uint16) { b.b = binary.BigEndian.AppendUint16(b.b, v) }
func (b *buffer) u32(v uint32) { b.b = binary.BigEndian.AppendUint32(b.b, v) }
func (b *buffer) u64(v uint64) { b.b = binary.BigEndian.AppendUint64(b.b, v) }
func (b *buffer) f64(v float64) {
	b.u64(math.Float64bits(v))
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("openflow: body truncated at offset %d", r.off)
	}
}

// checkPrefixes marks the body malformed unless a pattern's prefix
// lengths were in range: no pattern a sender holds has one beyond 32.
func (r *reader) checkPrefixes(ok bool) {
	if !ok && r.err == nil {
		r.err = fmt.Errorf("openflow: pattern prefix length beyond 32 before offset %d", r.off)
	}
}

// checkRates marks the body malformed unless a demand entry's rates were
// valid: a NaN or infinity would stay in the pattern's smoothed estimate
// for as long as it is reported.
func (r *reader) checkRates(ok bool) {
	if !ok && r.err == nil {
		r.err = fmt.Errorf("openflow: demand entry rate not finite or negative before offset %d", r.off)
	}
}

// validRate reports whether x is finite and not negative, as rates are.
func validRate(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

func (r *reader) u8() uint8 {
	if r.remaining() < 1 {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.remaining() < 2 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.remaining() < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.remaining() < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// next consumes n bytes and returns them, or fails and returns nil.
func (r *reader) next(n int) []byte {
	if r.remaining() < n {
		r.fail()
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

// A pattern and a demand entry have a fixed size on the wire, and each is
// written and read in one piece: put and get take the bytes of one element
// and check their length once, not once per field.
const (
	patternLen = 20
	entryLen   = patternLen + 40
)

func marshalPattern(b *buffer, p rules.Pattern) { putPattern(b.extend(patternLen), &p) }

func unmarshalPattern(r *reader) (p rules.Pattern) {
	if w := r.next(patternLen); w != nil {
		r.checkPrefixes(getPattern(w, &p))
	}
	return p
}

func putPattern(w []byte, p *rules.Pattern) {
	w = w[:patternLen]
	binary.BigEndian.PutUint32(w[0:], uint32(p.Tenant))
	w[4] = 0
	if p.AnyTenant {
		w[4] = 1
	}
	binary.BigEndian.PutUint32(w[5:], uint32(p.Src))
	w[9] = uint8(p.SrcPrefix)
	binary.BigEndian.PutUint32(w[10:], uint32(p.Dst))
	w[14] = uint8(p.DstPrefix)
	binary.BigEndian.PutUint16(w[15:], p.SrcPort)
	binary.BigEndian.PutUint16(w[17:], p.DstPort)
	w[19] = p.Proto
}

// getPattern reports whether both prefix lengths it read are at most 32.
func getPattern(w []byte, p *rules.Pattern) bool {
	w = w[:patternLen]
	p.Tenant = packet.TenantID(binary.BigEndian.Uint32(w[0:]))
	p.AnyTenant = w[4] == 1
	p.Src = packet.IP(binary.BigEndian.Uint32(w[5:]))
	p.SrcPrefix = w[9]
	p.Dst = packet.IP(binary.BigEndian.Uint32(w[10:]))
	p.DstPrefix = w[14]
	p.SrcPort = binary.BigEndian.Uint16(w[15:])
	p.DstPort = binary.BigEndian.Uint16(w[17:])
	p.Proto = w[19]
	return w[9] <= 32 && w[14] <= 32
}

func putEntry(w []byte, e *DemandEntry) {
	w = w[:entryLen]
	putPattern(w, &e.Pattern)
	binary.BigEndian.PutUint64(w[20:], math.Float64bits(e.PPS))
	binary.BigEndian.PutUint64(w[28:], math.Float64bits(e.BPS))
	binary.BigEndian.PutUint32(w[36:], e.Epoch)
	binary.BigEndian.PutUint64(w[40:], math.Float64bits(e.MedianPPS))
	binary.BigEndian.PutUint64(w[48:], math.Float64bits(e.MedianBPS))
	binary.BigEndian.PutUint32(w[56:], e.ActiveEpochs)
}

func getEntry(w []byte, e *DemandEntry) bool {
	w = w[:entryLen]
	e.PPS = math.Float64frombits(binary.BigEndian.Uint64(w[20:]))
	e.BPS = math.Float64frombits(binary.BigEndian.Uint64(w[28:]))
	e.Epoch = binary.BigEndian.Uint32(w[36:])
	e.MedianPPS = math.Float64frombits(binary.BigEndian.Uint64(w[40:]))
	e.MedianBPS = math.Float64frombits(binary.BigEndian.Uint64(w[48:]))
	e.ActiveEpochs = binary.BigEndian.Uint32(w[56:])
	return getPattern(w, &e.Pattern)
}

// MaxFrame is the largest encodable message: the header's length field is
// 16 bits, as in OpenFlow. Senders of unbounded collections (demand
// reports, table replies) must chunk below this — see ChunkDemandReport.
const MaxFrame = 0xffff

// Encode frames msg with the given transaction id in a slice of its own,
// for frames that outlive the call (a Transport's fan-out shares one). It
// panics when the message exceeds MaxFrame: that is a sender bug (missing
// chunking), and truncating silently would corrupt the control plane.
func Encode(msg Message, xid uint32) []byte {
	// 64 bytes hold every fixed-size message; the bodies that run to
	// kilobytes (RuleSync, DemandReport, TableReply) reserve their own room
	// before writing.
	return slices.Clip(AppendEncode(make([]byte, 0, 64), msg, xid))
}

// AppendEncode appends msg's frame to dst and returns the extended slice;
// it panics as Encode does.
func AppendEncode(dst []byte, msg Message, xid uint32) []byte {
	b := buffer{b: dst}
	appendFrame(&b, msg, xid)
	return b.b
}

// frame encodes msg's frame into b in place of what b held and returns
// it: a buffer the sender keeps is what lets a warm send allocate
// nothing (a Conn's, a Transport's).
func (b *buffer) frame(msg Message, xid uint32) []byte {
	b.b = b.b[:0]
	appendFrame(b, msg, xid)
	return b.b
}

// appendFrame marshals msg's frame onto b, the body in place behind the
// header.
func appendFrame(b *buffer, msg Message, xid uint32) {
	start := len(b.b)
	b.b = append(b.b, Version, uint8(msg.Type()), 0, 0, 0, 0, 0, 0)
	msg.marshalBody(b)
	frame := b.b[start:]
	if len(frame) > MaxFrame {
		panic(fmt.Sprintf("openflow: %s message of %d bytes exceeds the %d-byte frame limit; chunk it",
			msg.Type(), len(frame), MaxFrame))
	}
	binary.BigEndian.PutUint16(frame[2:4], uint16(len(frame)))
	binary.BigEndian.PutUint32(frame[4:8], xid)
}

// demandChunkEntries bounds entries per DemandReport chunk: each entry is
// 60 bytes on the wire, so 800 entries stay well under MaxFrame with
// splits attached.
const demandChunkEntries = 800

// ChunkDemandReport splits a report into frame-sized chunks sharing the
// same server and interval; the receiver merges chunks of one interval.
// The rate splits ride on the first chunk only.
func ChunkDemandReport(rep DemandReport) []DemandReport {
	if len(rep.Entries) <= demandChunkEntries {
		return []DemandReport{rep}
	}
	var out []DemandReport
	for start := 0; start < len(rep.Entries); start += demandChunkEntries {
		end := start + demandChunkEntries
		if end > len(rep.Entries) {
			end = len(rep.Entries)
		}
		chunk := DemandReport{ServerID: rep.ServerID, Interval: rep.Interval, Entries: rep.Entries[start:end]}
		if start == 0 {
			chunk.Splits = rep.Splits
			chunk.NICFree = rep.NICFree
			chunk.NICPatterns = rep.NICPatterns
			chunk.Sketch = rep.Sketch
		}
		out = append(out, chunk)
	}
	return out
}

// Decode parses one framed message, returning the message, its xid, and
// the number of bytes consumed. The message is fresh and does not alias b:
// every unmarshalBody copies values out of the frame, so the caller may
// reuse b at once (Conn.Recv decodes in its read buffer).
func Decode(b []byte) (Message, uint32, int, error) { return decode(b, new(reader), nil) }

// decode is Decode with the body reader supplied by the caller. A demand
// report is decoded into scratch when it is not nil (a Conn's): every
// field is reset but the array behind Entries, which the next report
// reuses.
func decode(b []byte, r *reader, scratch *DemandReport) (Message, uint32, int, error) {
	if len(b) < headerLen {
		return nil, 0, 0, io.ErrShortBuffer
	}
	if b[0] != Version {
		return nil, 0, 0, fmt.Errorf("openflow: unsupported version %d", b[0])
	}
	length := int(binary.BigEndian.Uint16(b[2:4]))
	if length < headerLen {
		return nil, 0, 0, fmt.Errorf("openflow: bad length %d", length)
	}
	if len(b) < length {
		return nil, 0, 0, io.ErrShortBuffer
	}
	xid := binary.BigEndian.Uint32(b[4:8])
	msg, err := newMessage(MsgType(b[1]), scratch)
	if err != nil {
		return nil, 0, 0, err
	}
	*r = reader{b: b[headerLen:length]}
	if err := msg.unmarshalBody(r); err != nil {
		return nil, 0, 0, err
	}
	return msg, xid, length, nil
}

func newMessage(t MsgType, scratch *DemandReport) (Message, error) {
	switch t {
	case TypeHello:
		return Hello{}, nil
	case TypeEchoRequest:
		return EchoRequest{}, nil
	case TypeEchoReply:
		return EchoReply{}, nil
	case TypeFlowMod:
		return &FlowMod{}, nil
	case TypeBarrierRequest:
		return &BarrierRequest{}, nil
	case TypeBarrierReply:
		return &BarrierReply{}, nil
	case TypeDemandReport:
		if scratch == nil {
			return &DemandReport{}, nil
		}
		*scratch = DemandReport{Entries: scratch.Entries[:0]}
		return scratch, nil
	case TypeOffloadDecision:
		return &OffloadDecision{}, nil
	case TypeError:
		return &ErrorMsg{}, nil
	case TypeRuleSync:
		return &RuleSync{}, nil
	case TypeSyncAck:
		return &SyncAck{}, nil
	case TypeTableRequest:
		return &TableRequest{}, nil
	case TypeTableReply:
		return &TableReply{}, nil
	case TypeOverloadHint:
		return &OverloadHint{}, nil
	case TypeLeaderHeartbeat:
		return &LeaderHeartbeat{}, nil
	default:
		return nil, fmt.Errorf("openflow: unknown message type %d", t)
	}
}
