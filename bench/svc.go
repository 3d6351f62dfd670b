package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adminapi"
	"repro/internal/openflow"
	"repro/internal/rules"
	"repro/internal/service"
)

// svcRig is svc_ingest: an in-process fastrak-tord on the wall clock and
// two synthetic agents, each one goroutine and one openflow.Conn over
// loopback TCP. (Two, not one: a single client is bimodal on a 2-core box,
// by which core it lands on.)
type svcRig struct {
	tord   *service.Tord
	clock  *service.WallClock
	agents []*svcAgent
	client *http.Client

	// Traced runs only.
	idleRTT   []float64
	leadMS    []float64
	placeMS   []float64
	scrapeMS  []float64
	allLat    latencies
	bytesIn   uint64
	tracedFor time.Duration
}

const (
	svcInterval = 100 * time.Millisecond // Epoch 50 ms x 2
	// svcHotEvery is how often the hot window moves. Every tick that
	// installs a rule leaves a cancelled install timer at the head of the
	// engine's heap, and sim.Engine.RunUntil then runs one event past its
	// deadline: the engine gets some 85 ms ahead of the wall clock, and
	// every frame posted meanwhile waits for the wall clock to catch up.
	// With the window moving every interval the daemon sits in that stall
	// 85 % of the time, and ops_per_s, being what is left, swings by a
	// sixth from run to run; moving it every fifth interval keeps the
	// stall in the run (a sixth of the time) and the metric repeatable.
	svcHotEvery   = 5 * svcInterval
	svcRoundLimit = 2 * time.Second
	// svcSetupLimit is how long the ToR has to announce a hot pattern. An
	// announcement takes 15-25 ms; the limit is the round's, not a few
	// intervals, because the idle box freezes for 70-90 ms about once a minute
	// and for longer now and then, and one run in forty lost four ops to a
	// limit of 300 ms with nothing wrong in the daemon.
	svcSetupLimit  = svcRoundLimit
	svcStall       = 5 * time.Millisecond
	svcWarmRounds  = 12000
	svcHealthEvery = 50 * time.Millisecond // 20 Hz
)

type svcAgent struct {
	id   int
	nc   net.Conn
	conn *openflow.Conn
	rng  *rand.Rand
	in   atomic.Uint64 // bytes read from the ToR

	interval uint32 // the last Interval number sent; every round uses the next
	hotFirst int    // number of the oldest hot pattern in the window
	hotSince time.Time
	// pending maps a hot pattern the ToR has not yet announced to its
	// number; named is when the first report naming it was sent.
	pending map[rules.Pattern]int
	named   map[int]time.Time
	setupMS []float64
	lateHot uint64
}

type countingConn struct {
	net.Conn
	n *atomic.Uint64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(uint64(n))
	return n, err
}

func setupSvc(seed int64, work float64) (*svcRig, error) {
	r := &svcRig{clock: service.NewWallClock()}
	var err error
	r.tord, err = service.StartTord(service.TordConfig{
		ListenControl: "127.0.0.1:0",
		ListenAdmin:   "127.0.0.1:0",
		Seed:          seed,
		Controller:    service.ControllerConfig{Epoch: service.Duration(svcInterval / 2), EpochsPerInterval: 2},
	}, r.clock)
	if err != nil {
		return nil, err
	}
	r.client = &http.Client{Timeout: svcRoundLimit, Transport: &http.Transport{}}
	for a := 0; a < svcAgents; a++ {
		ag := &svcAgent{id: a, rng: rand.New(rand.NewSource(seed*31 + int64(a))),
			pending: make(map[rules.Pattern]int), named: make(map[int]time.Time)}
		ag.nc, err = net.Dial("tcp", r.tord.ControlAddr())
		if err != nil {
			r.close()
			return nil, fmt.Errorf("dial tord: %w", err)
		}
		ag.conn = openflow.NewConn(countingConn{ag.nc, &ag.in})
		r.agents = append(r.agents, ag)
		if err := ag.conn.Handshake(); err != nil {
			r.close()
			return nil, fmt.Errorf("handshake: %w", err)
		}
	}
	// Warm-up, part of setup_s: a fixed number of rounds per agent, long
	// enough to cross several control intervals, so the first installs,
	// syncs and removals have happened before anything is timed.
	rounds := int(svcWarmRounds * work)
	err = r.each(func(ag *svcAgent) error {
		ag.hotSince = time.Now()
		for i := 0; i < rounds; i++ {
			if _, err := ag.round(nil, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

// each runs fn for every agent on its own goroutine and waits for all.
func (r *svcRig) each(fn func(*svcAgent) error) error {
	errs := make([]error, len(r.agents))
	var wg sync.WaitGroup
	for i, ag := range r.agents {
		wg.Add(1)
		go func(i int, ag *svcAgent) {
			defer wg.Done()
			errs[i] = fn(ag)
		}(i, ag)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// await reads until the EchoReply, acking every RuleSync and noting every
// express lane announced on the way.
func (ag *svcAgent) await(deadline time.Time) error {
	if err := ag.nc.SetReadDeadline(deadline); err != nil {
		return err
	}
	for {
		msg, _, err := ag.conn.Recv()
		if err != nil {
			return err
		}
		switch m := msg.(type) {
		case openflow.EchoReply:
			return nil
		case *openflow.RuleSync:
			if _, err := ag.conn.Send(&openflow.SyncAck{ServerID: uint32(1 + ag.id), Seq: m.Seq, Term: m.Term}); err != nil {
				return err
			}
		case *openflow.OffloadDecision:
			now := time.Now()
			for _, a := range m.Actions {
				if n, ok := ag.pending[a.Pattern]; ok && a.Offload {
					ag.setupMS = append(ag.setupMS, float64(now.Sub(ag.named[n]).Microseconds())/1e3)
					delete(ag.pending, a.Pattern)
					delete(ag.named, n)
				}
			}
		}
	}
}

// round is one op: the agent's DemandReport for the next Interval number
// (a repeated number would append at the ToR instead of replacing),
// followed by an EchoRequest, answered by the EchoReply. It returns the
// time from the first byte sent to the reply.
func (ag *svcAgent) round(tr *tracer, op uint64) (time.Duration, error) {
	now := time.Now()
	for now.Sub(ag.hotSince) >= svcHotEvery {
		// The hot window drops its two oldest patterns and gains two.
		ag.hotSince = ag.hotSince.Add(svcHotEvery)
		ag.hotFirst += svcHotStep
		for n := ag.hotFirst + svcHotWindow - svcHotStep; n < ag.hotFirst+svcHotWindow; n++ {
			ag.pending[svcPattern(ag.id, svcSteady+n)] = n
		}
	}
	for p, n := range ag.pending {
		if at, ok := ag.named[n]; ok && now.Sub(at) > svcSetupLimit {
			ag.lateHot++
			delete(ag.pending, p)
			delete(ag.named, n)
		}
	}
	ag.interval++
	rep := svcReport(ag.rng, ag.id, ag.interval, ag.hotFirst)

	root := tr.begin("svc.round", -1, op)
	start := time.Now()
	s := tr.begin("svc.send_report", root, op)
	_, err := ag.conn.Send(rep)
	tr.end(s)
	if err == nil {
		s = tr.begin("svc.send_echo", root, op)
		_, err = ag.conn.Send(openflow.EchoRequest{})
		tr.end(s)
	}
	if err != nil {
		return 0, err
	}
	for _, n := range ag.pending {
		if _, ok := ag.named[n]; !ok {
			ag.named[n] = start
		}
	}
	s = tr.begin("svc.await_reply", root, op)
	err = ag.await(start.Add(svcRoundLimit))
	tr.end(s)
	tr.end(root)
	return time.Since(start), err
}

// run drives both agents for d of wall time (the daemon's cadence is
// wall-driven, so the work is a fixed time, not a fixed count).
func (r *svcRig) run(d time.Duration, tr *tracer) (runStats, error) {
	for _, ag := range r.agents {
		ag.setupMS, ag.lateHot = nil, 0
	}
	stop := make(chan struct{})
	var side sync.WaitGroup
	if tr != nil {
		if err := r.idleEcho(); err != nil {
			return runStats{}, err
		}
		side.Add(1)
		go func() {
			defer side.Done()
			r.pollAdmin(stop)
		}()
	}
	in0 := r.bytesRead()
	lats := make([]latencies, len(r.agents))
	failed := make([]uint64, len(r.agents))
	children := make([]*tracer, len(r.agents))
	start := time.Now()
	err := r.each(func(ag *svcAgent) error {
		// Room for 20k rounds/s, so the timed section never grows a slice.
		lat := make(latencies, 0, int(d.Seconds()*20e3))
		defer func() { lats[ag.id] = lat }()
		var ct *tracer
		if tr != nil {
			ct = tr.child(1 << 16)
			children[ag.id] = ct
		}
		for n := uint64(0); time.Since(start) < d; n++ {
			var rt *tracer
			if n%4 == 0 { // trace one round in four
				rt = ct
			}
			took, err := ag.round(rt, n*svcAgents+uint64(ag.id))
			if err != nil {
				// The reply did not come within the limit (or the
				// connection broke): the round failed, and this agent
				// cannot go on.
				failed[ag.id]++
				took = svcRoundLimit
			}
			lat.add(took)
			if err != nil {
				return nil
			}
		}
		return nil
	})
	wall := time.Since(start)
	close(stop)
	side.Wait()
	if err != nil {
		return runStats{}, err
	}
	// The agents run side by side: both agents' rounds over the section's
	// wall time, so an agent that failed early is missing from the rate.
	st := runStats{wall: wall}
	for i, ag := range r.agents {
		st.lat = append(st.lat, lats[i]...)
		st.failed += failed[i] + ag.lateHot
		tr.adopt(children[i])
	}
	st.ops = uint64(len(st.lat))
	if tr != nil {
		r.allLat = st.lat
		r.bytesIn = r.bytesRead() - in0
		r.tracedFor = wall
	}
	return st, nil
}

func (r *svcRig) bytesRead() (n uint64) {
	for _, ag := range r.agents {
		n += ag.in.Load()
	}
	return n
}

// idleEcho measures the echo round trip with no reports in flight.
func (r *svcRig) idleEcho() error {
	ag := r.agents[0]
	r.idleRTT = nil
	for i := 0; i < 200; i++ {
		start := time.Now()
		if _, err := ag.conn.Send(openflow.EchoRequest{}); err != nil {
			return err
		}
		if err := ag.await(start.Add(svcRoundLimit)); err != nil {
			return err
		}
		r.idleRTT = append(r.idleRTT, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return nil
}

func (r *svcRig) get(path string, into any) (time.Duration, error) {
	start := time.Now()
	resp, err := r.client.Get("http://" + r.tord.AdminAddr() + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if into != nil {
		err = json.NewDecoder(resp.Body).Decode(into)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return time.Since(start), err
}

// pollAdmin is the traced run's observer: /healthz at 20 Hz, to compare
// the engine's clock with the wall clock the daemon was given, and the
// placements and metrics routes every half second, whose handlers wait
// for the runtime lock the engine thread holds.
func (r *svcRig) pollAdmin(stop <-chan struct{}) {
	r.leadMS, r.placeMS, r.scrapeMS = nil, nil, nil
	tick := time.NewTicker(svcHealthEvery)
	defer tick.Stop()
	for n := 0; ; n++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		var h adminapi.Health
		if _, err := r.get("/healthz", &h); err == nil {
			// The engine's time when the handler ran, minus the wall
			// clock now: above zero, the engine provably ran ahead.
			lead := time.Duration(h.NowUS)*time.Microsecond - r.clock.Now()
			r.leadMS = append(r.leadMS, float64(lead.Microseconds())/1e3)
		}
		if n%10 == 0 {
			if d, err := r.get("/v1/placements", nil); err == nil {
				r.placeMS = append(r.placeMS, float64(d.Microseconds())/1e3)
			}
			if d, err := r.get("/metrics", nil); err == nil {
				r.scrapeMS = append(r.scrapeMS, float64(d.Microseconds())/1e3)
			}
		}
	}
}

// check has nothing left to do: a late round and a late express lane are
// counted as failed ops while the run goes on.
func (r *svcRig) check() (attempted, failed uint64, err error) { return 0, 0, nil }

func (r *svcRig) close() {
	for _, ag := range r.agents {
		if ag.nc != nil {
			ag.nc.Close()
		}
	}
	r.client.CloseIdleConnections()
	r.tord.Close()
}

func (r *svcRig) layers(_ *tracer, _ float64, out map[string]float64) error {
	var setups []float64
	for _, ag := range r.agents {
		setups = append(setups, ag.setupMS...)
	}
	if len(r.leadMS) == 0 || len(r.placeMS) == 0 || len(r.scrapeMS) == 0 || len(setups) == 0 {
		return fmt.Errorf("traced run too short: %d health polls, %d admin reads, %d flow set-ups",
			len(r.leadMS), len(r.placeMS), len(setups))
	}
	lat := r.allLat.sortedUS()
	stalls := 0
	for _, us := range lat {
		if us > float64(svcStall.Microseconds()) {
			stalls++
		}
	}
	out["service.echo_rtt_idle_us"] = median(r.idleRTT)
	out["service.rtt_p99_us"] = percentile(lat, 99)
	out["service.rtt_max_ms"] = lat[len(lat)-1] / 1e3
	out["service.stall_share"] = float64(stalls) / float64(len(lat))
	leadMax, ahead := 0.0, 0
	for _, ms := range r.leadMS {
		if ms > 0 {
			ahead++
		}
		if ms > leadMax {
			leadMax = ms
		}
	}
	out["service.engine_lead_max_ms"] = leadMax
	out["service.engine_lead_share"] = float64(ahead) / float64(len(r.leadMS))
	out["service.flowsetup_ms_p50"] = median(setups)
	out["service.flowsetup_ms_p90"] = percentile(sortedCopy(setups), 90)
	out["service.admin_placements_ms"] = median(r.placeMS)
	out["adminapi.metrics_scrape_ms"] = median(r.scrapeMS)
	out["service.bytes_out_per_s"] = float64(r.bytesIn) / r.tracedFor.Seconds()
	return nil
}
