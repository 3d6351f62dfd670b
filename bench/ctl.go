package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/openflow"
	"repro/internal/rules"
	"repro/internal/sim"
)

// ctlRig is ctl_cycle: the ToR decision engine and rule manager driven in
// virtual time with the data plane idle. No sockets and no wall-clock
// timers: the benchmark schedules everything on the engine, and stamps the
// wall clock from inside engine events.
type ctlRig struct {
	gen *ctlGen
	svc *core.TORService
	eng *sim.Engine
	cfg core.Config

	cycle int // control cycles run so far; the next tick is number cycle+1

	// Counted at the sinks, for every frame the controller sends.
	frames, bytes uint64
	// announced holds the patterns the controller has announced as express
	// lanes (TCAM tier) and not since demoted. A demoted pattern is deleted,
	// not kept as false: the map is the benchmark's own state inside
	// live_heap_mb, so it holds a TCAM's worth of entries, not every pattern.
	announced map[rules.Pattern]bool
	sinkErr   error

	// Traced runs only.
	tr        *tracer
	lastOut   time.Time // when the previous sink call returned
	publishNS int64     // controller time spent producing RuleSync frames, this cycle
	publishUS []float64
	allocs    []float64
	ran       int // cycles in the last run
	before    ctlCounters
}

type ctlCounters struct {
	installs, demotes, retries uint64
	frames, bytes              uint64
}

func (r *ctlRig) counters() ctlCounters {
	tc := r.svc.TC
	return ctlCounters{tc.Installs, tc.Demotes, tc.Retries, r.frames, r.bytes}
}

// ctlWarmCycles sizes the warm-up that is part of setup_s.
const ctlWarmCycles = 20

// ctlNominalRate is the seed commit's control cycles per second on the
// 2-core box the suite was sized on.
const ctlNominalRate = 18

// settle is how long after a tick, in virtual time, the install barriers,
// announcements, sync acks and gated removals of that tick have finished
// (the longest chain is a few control delays of 100 us).
const settle = 5 * time.Millisecond

func noReply(openflow.Message, uint32) {}

func setupCtl(seed int64, work float64) (*ctlRig, error) {
	c := cluster.New(cluster.Config{Servers: 1, TCAMCapacity: ctlTCAM, Seed: seed})
	r := &ctlRig{
		gen:       newCtlGen(seed),
		cfg:       core.DefaultConfig(),
		eng:       c.Eng,
		announced: make(map[rules.Pattern]bool),
	}
	r.svc = core.NewTORService(c, r.cfg)
	for a := 1; a <= ctlAgents; a++ {
		r.svc.AttachLocal(uint32(a), openflow.NewRemoteTransport(r.sink(uint32(a))))
	}
	r.svc.Start()
	warm := int(ctlWarmCycles * work)
	if warm < 3 {
		warm = 3
	}
	for i := 0; i < warm; i++ {
		r.runCycle()
	}
	return r, r.invariant()
}

// sink stands in for one agent's connection: it decodes what the
// controller sends, counts it, records announcements, and answers each
// RuleSync with a SyncAck one control delay later.
func (r *ctlRig) sink(id uint32) openflow.RemoteSender {
	return func(frame []byte) error {
		var in time.Time
		if r.tr != nil {
			in = time.Now()
		}
		r.frames++
		r.bytes += uint64(len(frame))
		msg, _, _, err := openflow.Decode(frame)
		if err != nil {
			r.sinkErr = fmt.Errorf("controller sent an undecodable frame: %w", err)
			return nil
		}
		switch m := msg.(type) {
		case *openflow.RuleSync:
			if r.tr != nil && !r.lastOut.IsZero() {
				r.publishNS += in.Sub(r.lastOut).Nanoseconds()
			}
			ack := &openflow.SyncAck{ServerID: id, Seq: m.Seq, Term: m.Term}
			r.eng.After(r.cfg.ControlDelay, func() { r.svc.TC.HandleMessage(ack, 0, noReply) })
		case *openflow.OffloadDecision:
			if id == 1 { // every agent is sent the same announcements
				for _, a := range m.Actions {
					if a.Tier != openflow.TierTCAM {
						continue
					}
					if a.Offload {
						r.announced[a.Pattern] = true
					} else {
						delete(r.announced, a.Pattern)
					}
				}
			}
		}
		if r.tr != nil {
			r.lastOut = time.Now()
		}
		return nil
	}
}

// tickAt is when the controller's n-th decision tick fires: the offset
// core's ticker starts at, plus n control intervals.
func (r *ctlRig) tickAt(n int) sim.Time {
	m := r.cfg.Measure
	offset := m.SampleGap + 4*r.cfg.ControlDelay + time.Millisecond
	return offset + time.Duration(n)*m.Epoch*time.Duration(m.EpochsPerInterval)
}

// runCycle runs one control cycle and returns the wall time between the
// stamp 1 ns before the controller's tick and the stamp after its
// installs, announcements and removals have settled. The stamps are engine
// events, not RunUntil wall time: RunUntil can run one event past its
// deadline when a cancelled timer heads the heap.
func (r *ctlRig) runCycle() time.Duration {
	r.cycle++
	n := uint64(r.cycle)
	tick := r.tickAt(r.cycle)
	var a, b time.Time
	var m0 uint64
	root, tickSpan, confirm := -1, -1, -1

	// The agents' reports for this interval arrive just before the tick:
	// encoded, decoded and handed to the controller.
	r.eng.At(tick-900*time.Microsecond, func() {
		for _, chunks := range r.gen.reports(uint32(n)) {
			for i := range chunks {
				s := r.tr.begin("openflow.encode_report", -1, n)
				frame := openflow.Encode(&chunks[i], uint32(n))
				r.tr.end(s)
				s = r.tr.begin("openflow.decode_report", -1, n)
				msg, xid, _, err := openflow.Decode(frame)
				r.tr.end(s)
				if err != nil {
					r.sinkErr = fmt.Errorf("report frame does not decode: %w", err)
					return
				}
				s = r.tr.begin("core.ingest", -1, n)
				r.svc.TC.HandleMessage(msg, xid, noReply)
				r.tr.end(s)
			}
		}
	})
	r.eng.At(tick-1, func() {
		if r.tr != nil {
			m0 = mallocs()
			r.publishNS, r.lastOut = 0, time.Time{}
		}
		a = time.Now()
		root = r.tr.begin("ctl.cycle", -1, n)
		tickSpan = r.tr.begin("core.tick", root, n)
	})
	if r.tr != nil {
		r.eng.At(tick+1, func() {
			r.tr.end(tickSpan)
			confirm = r.tr.begin("core.confirm", root, n)
		})
	}
	r.eng.At(tick+settle, func() {
		b = time.Now()
		r.tr.end(confirm)
		r.tr.end(root)
		if r.tr != nil {
			r.allocs = append(r.allocs, float64(mallocs()-m0))
			r.publishUS = append(r.publishUS, float64(r.publishNS)/1e3)
		}
		r.eng.Stop()
	})
	r.eng.Run()
	return b.Sub(a)
}

func (r *ctlRig) run(d time.Duration, tr *tracer) (runStats, error) {
	r.tr, r.publishUS, r.allocs = tr, nil, nil
	r.before = r.counters()
	var st runStats
	start := time.Now()
	// This workload's work is a count, not a time: d at the seed commit's
	// rate, in whole groups of four cycles (the controller reconciles and
	// refreshes every fourth tick). The engine runs in virtual time, so the
	// same count leaves the controller in the same state every run, and
	// live_heap_mb, 1.3 MB where one map mid-growth is 4 %, repeats.
	for cycles := 4 * max(1, int(d.Seconds()*ctlNominalRate/4)); len(st.lat) < cycles; {
		st.lat.add(r.runCycle())
		// The box has been seen to crawl at a fifth of its speed for minutes:
		// rather than run into the driver's time limit, give up the count,
		// at a whole group, once the section has taken four times its time.
		if len(st.lat)%4 == 0 && time.Since(start) > 4*d {
			break
		}
	}
	st.wall = time.Since(start) // report ingestion included
	st.ops = uint64(len(st.lat))
	r.ran = len(st.lat)
	r.tr = nil
	return st, r.invariant()
}

// invariant is the whole-run check: the TCAM never holds more than its
// capacity, and every frame the controller sent decoded.
func (r *ctlRig) invariant() error {
	if r.sinkErr != nil {
		return r.sinkErr
	}
	if used, capacity := r.svc.TCAMUsage(); used > capacity || capacity != ctlTCAM {
		return fmt.Errorf("TCAM holds %d rules, capacity %d", used, capacity)
	}
	return nil
}

// check counts, as failed ops, every pattern that was announced as an
// express lane and not since demoted but is missing from the hardware
// table, and every install the controller gave up on.
func (r *ctlRig) check() (attempted, failed uint64, err error) {
	if err := r.invariant(); err != nil {
		return 0, 0, err
	}
	inHW := make(map[rules.Pattern]bool)
	for _, hr := range r.svc.HardwareRules() {
		inHW[hr.Pattern] = true
	}
	for p := range r.announced {
		attempted++
		if !inHW[p] {
			failed++
		}
	}
	if attempted == 0 {
		return 0, 0, fmt.Errorf("no express lane is announced after %d cycles", r.cycle)
	}
	return attempted, failed + r.svc.TC.GiveUps, nil
}

func (r *ctlRig) close() { r.svc.Stop() }

func (r *ctlRig) layers(tr *tracer, _ float64, out map[string]float64) error {
	if r.ran == 0 {
		return fmt.Errorf("no control cycle ran")
	}
	cycles := float64(r.ran)
	after := r.counters()
	out["core.ingest_us_per_report"] = median(durationsUS(tr.spans, "core.ingest"))
	out["core.tick_us"] = median(durationsUS(tr.spans, "core.tick"))
	out["core.confirm_us"] = median(durationsUS(tr.spans, "core.confirm"))
	out["core.publish_us"] = median(r.publishUS)
	out["core.cycle_allocs"] = median(r.allocs)
	out["core.installs_per_cycle"] = float64(after.installs-r.before.installs) / cycles
	out["core.removes_per_cycle"] = float64(after.demotes-r.before.demotes) / cycles
	out["core.retries_per_cycle"] = float64(after.retries-r.before.retries) / cycles
	out["openflow.frames_out_per_cycle"] = float64(after.frames-r.before.frames) / cycles
	out["openflow.bytes_out_per_cycle"] = float64(after.bytes-r.before.bytes) / cycles

	// The decision package's public functions, fed the candidates the last
	// cycle saw: the reports as the controller holds them, and the
	// hardware table as the current offload set.
	reports := r.svc.TC.LatestReports()
	current := make(map[rules.Pattern]bool)
	for _, hr := range r.svc.HardwareRules() {
		current[hr.Pattern] = true
	}
	dcfg := decision.Config{Budget: ctlTCAM, HysteresisRatio: r.cfg.HysteresisRatio}
	var cands []decision.Candidate
	var d decision.Decision
	// us times one call of fn per repeat (perOp's five) and adds its
	// allocations to the cycle's.
	var allocs float64
	us := func(fn func()) float64 {
		ns, a := perOp(1, func(int) { fn() })
		allocs += a
		return ns / 1e3
	}
	out["decision.candidates_us"] = us(func() { cands = decision.CandidatesFromReports(reports, nil, nil) })
	smoother := decision.NewSmoother(r.cfg.Smoother)
	smoother.Advance(cands, current) // the first call only fills the state
	out["decision.smoother_us"] = us(func() { smoother.Advance(cands, current) })
	out["decision.rank_full_us"] = us(func() { d = decision.Decide(dcfg, cands, current) })
	damper := decision.NewFlapDamper(r.cfg.Damper)
	out["decision.damper_us"] = us(func() { damper.Apply(d, current, r.eng.Now()) })
	out["decision.allocs_per_cycle"] = allocs

	// Incremental re-rank: carry the order of the previous interval's
	// candidates, then rank this interval's (2 % of scores moved).
	inc := decision.NewIncremental(0)
	inc.Decide(dcfg, cands, current)
	moved := append([]decision.Candidate(nil), cands...)
	out["decision.rank_incremental_us"] = us(func() {
		for i := 0; i < len(moved); i += 50 {
			moved[i].MedianPPS *= 1.01
		}
		inc.Decide(dcfg, moved, current)
	})
	return nil
}
