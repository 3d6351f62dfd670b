// Package measure implements FasTrak's Measurement Engine (§4.3.1): it
// samples per-flow packet and byte counters twice within t time units to
// compute pps = Δ(p)/t and bps = Δ(b)/t, repeats every T for N epochs (a
// control interval C), aggregates flows per VM per application, and keeps
// a history of medians over the last M control intervals. Both the local
// controller (polling the vswitch datapath) and the TOR controller
// (polling TCAM counters) embed one.
package measure

import (
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
)

// Config sets the ME's timing parameters. The paper's prototype uses
// t = 100 ms, T ∈ {5 s, 0.5 s}, N = 2 (§5.2).
type Config struct {
	// SampleGap is t: the spacing of the two counter samples.
	SampleGap time.Duration
	// Epoch is T: the period between measurements.
	Epoch time.Duration
	// EpochsPerInterval is N: epochs per control interval.
	EpochsPerInterval int
	// HistoryIntervals is M: how many past control intervals feed the
	// median statistics.
	HistoryIntervals int
	// Aggregate enables the per-VM/per-application rule of thumb:
	// statistics keyed by <VM IP, L4 port, tenant> per direction
	// instead of full 6-tuples.
	Aggregate bool
}

// DefaultConfig matches the paper's prototype with the faster epoch.
func DefaultConfig() Config {
	return Config{
		SampleGap:         100 * time.Millisecond,
		Epoch:             500 * time.Millisecond,
		EpochsPerInterval: 2,
		HistoryIntervals:  4,
		Aggregate:         true,
	}
}

// Reading is one flow's cumulative counters at a sampling instant.
type Reading struct {
	Key     packet.FlowKey
	Packets uint64
	Bytes   uint64
}

// Source provides cumulative per-flow counters (the vswitch datapath or
// the ToR TCAM).
type Source func() []Reading

// PatternReading is one statistics bucket's cumulative counters at a
// sampling instant — counters already keyed by pattern, the shape the
// sketch accountant reports in.
type PatternReading struct {
	Pattern rules.Pattern
	Packets uint64
	Bytes   uint64
}

// PatternSource provides cumulative counters already aggregated per
// pattern (the sketch accountant's top-k). When set on an Engine it
// replaces the per-flow Source: the engine skips its own keyFor
// aggregation and feeds the buckets directly into the same two-sample
// Δ/gap rate pipeline, so everything downstream (windows, medians,
// activity gc, report emission) is byte-identical between the two feeds
// whenever the cumulative totals are.
type PatternSource func() []PatternReading

// sample is one epoch's rate measurement for one aggregate.
type sample struct {
	pps, bps float64
	epoch    uint32
}

// flowState tracks one aggregate across epochs.
type flowState struct {
	pattern rules.Pattern
	// window holds the last N×M epoch samples.
	window []sample
	// prev counters from the first of the two samples in this epoch.
	prevPkts, prevBytes uint64
	prevValid           bool
	// latest epoch rates.
	lastPPS, lastBPS float64
}

// Engine is one measurement engine instance.
type Engine struct {
	cfg Config
	eng *sim.Engine
	src Source
	// patSrc, when non-nil, overrides src (see PatternSource).
	patSrc PatternSource

	flows map[rules.Pattern]*flowState
	epoch uint32
	// interval counts completed control intervals.
	interval uint32

	// OnReport receives the demand report at each control interval
	// boundary.
	OnReport func(openflow.DemandReport)
	// ServerID stamps outgoing reports.
	ServerID uint32

	ticker  *sim.Ticker
	stopped bool

	// Stats fault surface (faults.StatsTap): reports can be lost with a
	// probability or delayed by a fixed amount, modelling a flaky control
	// path between ME and DE.
	lossProb float64
	lossRNG  *rand.Rand
	delay    time.Duration

	// Work accounts the number of samples taken (controller-overhead
	// experiment, §6.2.2).
	Samples uint64
	// ReportsLost and ReportsDelayed count reports affected by the
	// stats fault surface.
	ReportsLost    uint64
	ReportsDelayed uint64
}

// New builds an engine polling src.
func New(eng *sim.Engine, cfg Config, src Source) *Engine {
	if cfg.SampleGap <= 0 {
		cfg.SampleGap = 100 * time.Millisecond
	}
	if cfg.Epoch < cfg.SampleGap {
		cfg.Epoch = cfg.SampleGap * 2
	}
	if cfg.EpochsPerInterval <= 0 {
		cfg.EpochsPerInterval = 2
	}
	if cfg.HistoryIntervals <= 0 {
		cfg.HistoryIntervals = 4
	}
	return &Engine{cfg: cfg, eng: eng, src: src, flows: make(map[rules.Pattern]*flowState)}
}

// SetPatternSource switches the engine to a pre-aggregated feed (sketch
// accounting). Call before Start.
func (m *Engine) SetPatternSource(src PatternSource) { m.patSrc = src }

// Start begins periodic measurement.
func (m *Engine) Start() {
	m.stopped = false
	m.ticker = m.eng.Every(m.cfg.Epoch, m.runEpoch)
}

// Stop halts measurement.
func (m *Engine) Stop() {
	m.stopped = true
	m.ticker.Stop()
}

// runEpoch takes the first sample now and the second SampleGap later.
func (m *Engine) runEpoch() {
	if m.stopped {
		return
	}
	m.takeSample(true)
	m.eng.After(m.cfg.SampleGap, func() {
		if m.stopped {
			return
		}
		m.takeSample(false)
		m.finishEpoch()
	})
}

// keyFor maps a concrete flow key to its statistics bucket.
func (m *Engine) keyFor(k packet.FlowKey) []rules.Pattern {
	if !m.cfg.Aggregate {
		return []rules.Pattern{rules.ExactPattern(k)}
	}
	// Per-VM/app aggregation: the flow contributes to both its egress
	// and ingress service aggregates (§4.3.1).
	return []rules.Pattern{
		rules.AggregatePattern(k.EgressAggregate()),
		rules.AggregatePattern(k.IngressAggregate()),
	}
}

func (m *Engine) takeSample(first bool) {
	m.Samples++
	// Accumulate cumulative counters per aggregate bucket.
	acc := make(map[rules.Pattern][2]uint64)
	if m.patSrc != nil {
		// Pre-aggregated feed: buckets arrive keyed; sum duplicates (shard
		// reports may repeat a pattern) and skip keyFor.
		for _, r := range m.patSrc() {
			cur := acc[r.Pattern]
			acc[r.Pattern] = [2]uint64{cur[0] + r.Packets, cur[1] + r.Bytes}
		}
	} else {
		for _, r := range m.src() {
			for _, pat := range m.keyFor(r.Key) {
				cur := acc[pat]
				acc[pat] = [2]uint64{cur[0] + r.Packets, cur[1] + r.Bytes}
			}
		}
	}
	for pat, v := range acc {
		st, ok := m.flows[pat]
		if !ok {
			st = &flowState{pattern: pat}
			m.flows[pat] = st
		}
		if first {
			st.prevPkts, st.prevBytes = v[0], v[1]
			st.prevValid = true
		} else if st.prevValid {
			dt := m.cfg.SampleGap.Seconds()
			var dp, db uint64
			if v[0] >= st.prevPkts {
				dp = v[0] - st.prevPkts
			}
			if v[1] >= st.prevBytes {
				db = v[1] - st.prevBytes
			}
			st.lastPPS = float64(dp) / dt
			st.lastBPS = float64(db) * 8 / dt
			st.prevValid = false
		}
	}
}

func (m *Engine) finishEpoch() {
	m.epoch++
	maxWindow := m.cfg.EpochsPerInterval * m.cfg.HistoryIntervals
	for _, st := range m.flows {
		st.window = append(st.window, sample{pps: st.lastPPS, bps: st.lastBPS, epoch: m.epoch})
		if len(st.window) > maxWindow {
			st.window = st.window[len(st.window)-maxWindow:]
		}
		st.lastPPS, st.lastBPS = 0, 0
	}
	if m.epoch%uint32(m.cfg.EpochsPerInterval) == 0 {
		m.interval++
		m.emitReport()
		m.gc()
	}
}

// gc drops aggregates with no activity across the whole window.
func (m *Engine) gc() {
	for pat, st := range m.flows {
		active := false
		for _, s := range st.window {
			if s.pps > 0 {
				active = true
				break
			}
		}
		if !active {
			delete(m.flows, pat)
		}
	}
}

// emitReport builds the control-interval demand report (§4.3.1).
func (m *Engine) emitReport() {
	if m.OnReport == nil {
		return
	}
	rep := openflow.DemandReport{ServerID: m.ServerID, Interval: m.interval}
	// Deterministic report order.
	for _, pat := range rules.SortedPatterns(m.flows) {
		st := m.flows[pat]
		e := m.entryFor(st)
		if e.ActiveEpochs == 0 {
			continue
		}
		rep.Entries = append(rep.Entries, e)
	}
	m.deliver(rep)
}

// deliver routes one outgoing report through the stats fault surface:
// possibly dropped, possibly delayed, otherwise handed to OnReport.
func (m *Engine) deliver(rep openflow.DemandReport) {
	if m.lossProb > 0 && (m.lossProb >= 1 || (m.lossRNG != nil && m.lossRNG.Float64() < m.lossProb)) {
		m.ReportsLost++
		return
	}
	if m.delay > 0 {
		m.ReportsDelayed++
		m.eng.After(m.delay, func() {
			if !m.stopped {
				m.OnReport(rep)
			}
		})
		return
	}
	m.OnReport(rep)
}

// SetStatsLoss makes each outgoing report drop with the given probability
// (faults.StatsTap). A nil rng with prob in (0,1) never drops; prob ≥ 1
// always drops.
func (m *Engine) SetStatsLoss(prob float64, rng *rand.Rand) {
	m.lossProb = prob
	m.lossRNG = rng
}

// SetStatsDelay defers each outgoing report by d (faults.StatsTap).
func (m *Engine) SetStatsDelay(d time.Duration) { m.delay = d }

func (m *Engine) entryFor(st *flowState) openflow.DemandEntry {
	var ppsVals, bpsVals []float64
	var n uint32
	var last sample
	for _, s := range st.window {
		if s.pps > 0 {
			n++
			ppsVals = append(ppsVals, s.pps)
			bpsVals = append(bpsVals, s.bps)
		}
		last = s
	}
	return openflow.DemandEntry{
		Pattern:      st.pattern,
		PPS:          last.pps,
		BPS:          last.bps,
		Epoch:        last.epoch,
		MedianPPS:    median(ppsVals),
		MedianBPS:    median(bpsVals),
		ActiveEpochs: n,
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Profile is a VM's network demand profile (§4.3.1): the aggregate
// history for flows touching the VM. It migrates with the VM and seeds
// offload decisions for clones.
type Profile struct {
	VMIP    packet.IP
	Tenant  packet.TenantID
	Entries []openflow.DemandEntry
}

// ProfileFor extracts the demand profile of one VM from current state.
func (m *Engine) ProfileFor(tenant packet.TenantID, vmIP packet.IP) Profile {
	p := Profile{VMIP: vmIP, Tenant: tenant}
	for pat, st := range m.flows {
		if pat.Tenant != tenant {
			continue
		}
		if (pat.SrcPrefix == 32 && pat.Src == vmIP) || (pat.DstPrefix == 32 && pat.Dst == vmIP) {
			e := m.entryFor(st)
			if e.ActiveEpochs > 0 {
				p.Entries = append(p.Entries, e)
			}
		}
	}
	slices.SortFunc(p.Entries, func(a, b openflow.DemandEntry) int { return a.Pattern.Compare(b.Pattern) })
	return p
}

// ImportProfile seeds the engine with a migrated VM's history so offload
// decisions for it can be made on instantiation (§4.3.1).
func (m *Engine) ImportProfile(p Profile) {
	for _, e := range p.Entries {
		st, ok := m.flows[e.Pattern]
		if !ok {
			st = &flowState{pattern: e.Pattern}
			m.flows[e.Pattern] = st
		}
		// Seed the window with the profile's median so scores are
		// immediately meaningful.
		for i := uint32(0); i < e.ActiveEpochs; i++ {
			st.window = append(st.window, sample{pps: e.MedianPPS, bps: e.MedianBPS, epoch: e.Epoch})
		}
	}
}
