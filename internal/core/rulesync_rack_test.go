package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/tor"
)

// forceFull sits between a local controller and the ToR controller and
// drops the local's delta base the moment its ack has been taken — the
// call a reattach makes — so every sync the ToR publishes is a full one.
// The controller runs the one code path it has; only what it knows of the
// locals differs.
type forceFull struct{ tc *TORController }

func (f forceFull) HandleMessage(msg openflow.Message, xid uint32, reply openflow.ReplyFunc) {
	f.tc.HandleMessage(msg, xid, reply)
	if ack, ok := msg.(*openflow.SyncAck); ok {
		f.tc.sync.dropBase(ack.ServerID)
	}
}

// runSyncRack runs a seeded three-server rack — a service VM, two clients
// whose flows come and go against a sixteen-entry TCAM — through a chaos plan
// on the control plane, or with chaos false through none, and returns its
// ToR controller, a log of everything the sync protocol can influence,
// taken every 50 ms and at the end, and the ToR→local wire bytes.
func runSyncRack(t *testing.T, seed int64, full, chaos bool) (tc *TORController, log []string, wireBytes uint64) {
	c := cluster.New(cluster.Config{
		Servers: 3, VSwitchCfg: model.VSwitchConfig{Tunneling: true}, TCAMCapacity: 16, Seed: seed,
	})
	eng := c.Eng
	svcIP := packet.MustParseIP("10.3.0.10")
	svc, err := c.AddVM(0, 3, svcIP, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var clients []*host.VM
	for i := 1; i <= 2; i++ {
		vm, err := c.AddVM(i, 3, packet.IP(uint32(svcIP)-10+uint32(i)), 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, vm)
	}
	cfg := fastCfg()
	cfg.MinScore = 100
	mgr := Attach(c, cfg)
	if full {
		// One rack: a local's index is its place among each controller's
		// agents.
		for i, lc := range mgr.Locals {
			for j, tc := range mgr.RackCtls[lc.rack] {
				lc.toTORs[j], lc.fromTORs[j] = openflow.Pair(eng, cfg.ControlDelay, lc, forceFull{tc})
				tc.agents[i].tr = lc.fromTORs[j]
			}
		}
	}

	const horizon = 8 * time.Second
	inj := faults.NewInjector(eng, seed+100)
	mgr.RegisterFaults(inj)
	h := horizon
	plan := faults.Plan{Events: []faults.Event{
		{At: h / 32, Kind: faults.TCAMReject, Target: "tor0", Duration: h / 8, Prob: 0.5},
		{At: h / 8, Kind: faults.ChannelLoss, Target: "local1-tor", Duration: h / 2, Prob: 0.3},
		{At: h / 4, Kind: faults.ChannelDelay, Target: "local2-tor", Duration: h / 8, Delay: 3 * time.Millisecond},
		{At: 3 * h / 8, Kind: faults.ChannelDown, Target: "local0-tor", Duration: h / 8},
		{At: h / 2, Kind: faults.ControllerCrash, Target: "torctl0", Duration: h / 16},
		{At: 5 * h / 8, Kind: faults.ChannelDown, Target: "torctl0-switch", Duration: h / 32},
		{At: 11 * h / 16, Kind: faults.ChannelLoss, Target: "local2-tor", Duration: h / 16, Prob: 0.5},
	}}
	if !chaos {
		plan.Events = nil
	}
	if err := inj.Apply(plan); err != nil {
		t.Fatal(err)
	}

	// Thirty-two service ports, each client driving sixteen of them in
	// phases of its own length, so candidates outnumber the TCAM and the
	// offload set turns over.
	for port := 0; port < 32; port++ {
		port := uint16(9000 + port)
		svc.BindApp(port, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
			vm.Send(p.IP.Src, port, p.TCP.SrcPort, 200, host.SendOptions{Seq: p.Meta.Seq}, nil)
		}))
	}
	for i, vm := range clients {
		for k := 0; k < 16; k++ {
			vm, port := vm, uint16(9000+16*i+k)
			rate := 300 + 60*float64(k)
			phase := time.Duration(700+150*k+75*i) * time.Millisecond
			period := time.Duration(float64(time.Second) / rate)
			eng.After(time.Duration(eng.Rand().Int63n(int64(period))), func() {
				eng.Every(period, func() {
					if now := eng.Now(); now < sim.Time(horizon) && (now/sim.Time(phase))%2 == 0 {
						vm.Send(svcIP, 40000+port, port, 150, host.SendOptions{}, nil)
					}
				})
			})
		}
	}
	mgr.Start()

	tc = mgr.TORCtl
	snap := func() {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%v inst=%d dem=%d retry=%d giveup=%d repair=%d orphan=%d seq=%d",
			eng.Now(), tc.Installs, tc.Demotes, tc.Retries, tc.GiveUps, tc.Repairs, tc.Orphans, tc.sync.seq)
		msgs, _, _ := mgr.ControlStats()
		var sw uint64
		for _, rack := range mgr.RackCtls {
			for _, tc := range rack {
				sw += tc.toSwitch.Sent + tc.fromSwitch.Sent
			}
		}
		fmt.Fprintf(&sb, " msgs=%d switch=%d tcam=%v", msgs, sw, sortedRules(c))
		for i, lc := range mgr.Locals {
			fmt.Fprintf(&sb, " local%d=%v mods=%d", i, lc.Placements(), lc.FlowMods)
		}
		log = append(log, sb.String())
	}
	eng.Every(50*time.Millisecond, snap)
	eng.RunUntil(horizon + 2*time.Second)
	mgr.Stop()
	snap()
	if tc.Installs < 10 || tc.Demotes < 5 || chaos && (tc.Crashes != 1 || tc.Retries == 0) {
		t.Fatalf("the rack saw %d installs, %d demotes, %d retries, %d crashes: not the churn this test is for",
			tc.Installs, tc.Demotes, tc.Retries, tc.Crashes)
	}
	if got := mgr.OffloadedPatterns(); len(got) == 0 || !slices.Equal(got, sortedRules(c)) {
		t.Fatalf("the rack ends with %d offloaded patterns and TCAM %v", len(got), sortedRules(c))
	}
	for _, a := range tc.agents {
		wireBytes += a.tr.SentBytes
	}
	return tc, log, wireBytes
}

func sortedRules(c *cluster.Cluster) []rules.Pattern {
	var out []rules.Pattern
	for _, ri := range c.TOR.Rules() {
		if ri.Priority == hwPriority {
			out = append(out, ri.Pattern)
		}
	}
	slices.SortFunc(out, rules.Pattern.Compare)
	return out
}

// TestDeltaSyncMatchesFullSync is the differential: the same seeded rack
// under the same chaos plan, once as it runs and once with every sync
// forced full, programs the same placers, holds the same TCAM, counts the
// same installs, demotes, retries, give-ups and messages — at every 50 ms
// snapshot, not only at the end — and writes fewer bytes.
func TestDeltaSyncMatchesFullSync(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		_, delta, deltaBytes := runSyncRack(t, seed, false, true)
		_, full, fullBytes := runSyncRack(t, seed, true, true)
		for i := range delta {
			if i >= len(full) || delta[i] != full[i] {
				t.Fatalf("seed %d: the runs part at snapshot %d\ndelta: %s\nfull:  %s", seed, i, delta[i], full[min(i, len(full)-1)])
			}
		}
		if deltaBytes >= fullBytes {
			t.Fatalf("seed %d: deltas wrote %d bytes, full syncs %d", seed, deltaBytes, fullBytes)
		}
		t.Logf("seed %d: %d snapshots identical; ToR→local bytes %d with deltas, %d all full", seed, len(delta), deltaBytes, fullBytes)
	}
}

// TestChurnWithoutFaultsNeverRetries runs the churn rack with no fault
// plan: thirty-two ports against sixteen TCAM slots turn the offload set
// over, and every displacing install waits for the removal it displaces,
// so no FlowAdd is rejected. A rejected one is always retried or given up.
func TestChurnWithoutFaultsNeverRetries(t *testing.T) {
	tc, _, _ := runSyncRack(t, 1, false, false)
	t.Logf("%d installs, %d demotes, %d retries, %d give-ups, %d fault rejects",
		tc.Installs, tc.Demotes, tc.Retries, tc.GiveUps, tc.tor.InstallRejects())
	if tc.Retries != 0 || tc.GiveUps != 0 || tc.tor.InstallRejects() != 0 {
		t.Fatalf("%d retries, %d give-ups, %d fault rejects with no fault", tc.Retries, tc.GiveUps, tc.tor.InstallRejects())
	}
	// When every displacing install was rejected first, this rack read 146
	// installs and 130 demotes beside 362 retries and 58 give-ups: waiting
	// for the slot loses no offload.
	if tc.Installs < 146 || tc.Demotes < 130 {
		t.Fatalf("%d installs and %d demotes; want at least 146 and 130", tc.Installs, tc.Demotes)
	}
}

// splitPair is a TORService and an AgentService, each on its own cluster
// and engine as in two daemons, joined by transports that carry frames from
// one engine to the other after the control delay. run steps both engines.
type splitPair struct {
	t      *testing.T
	tor    *TORService
	torEng *sim.Engine
	agents map[uint32]*AgentService
	// maxFrame is the largest frame the ToR sent; toAgent counts them.
	maxFrame, toAgent int
}

func newSplitPair(t *testing.T, tcam int) *splitPair {
	c := cluster.New(cluster.Config{Servers: 1, TCAMCapacity: tcam, Seed: 1})
	return &splitPair{t: t, tor: NewTORService(c, DefaultConfig()), torEng: c.Eng, agents: make(map[uint32]*AgentService)}
}

// agent builds a fresh agent process for serverID — empty, as after a
// restart — with one tenant-3 VM, and attaches it to the ToR.
func (sp *splitPair) agent(serverID uint32) *AgentService {
	c := cluster.New(cluster.Config{Servers: 1, VSwitchCfg: model.VSwitchConfig{Tunneling: true}, Seed: int64(serverID)})
	c.Servers[0].ID = int(serverID)
	if _, err := c.AddVM(0, 3, packet.MustParseIP("10.3.0.1"), 4, nil); err != nil {
		sp.t.Fatal(err)
	}
	const delay = 100 * time.Microsecond
	var as *AgentService
	up := openflow.NewRemoteTransport(func(frame []byte) error {
		frame = bytes.Clone(frame)
		sp.torEng.After(delay, func() {
			if sp.agents[serverID] != as {
				return // the connection of a process that is gone
			}
			msg, xid, _, err := openflow.Decode(frame)
			if err != nil {
				sp.t.Fatal(err)
			}
			sp.tor.TC.HandleMessage(msg, xid, func(openflow.Message, uint32) {})
		})
		return nil
	})
	as = NewAgentService(c, DefaultConfig(), up)
	sp.agents[serverID] = as
	sp.tor.AttachLocal(serverID, openflow.NewRemoteTransport(func(frame []byte) error {
		sp.maxFrame = max(sp.maxFrame, len(frame))
		sp.toAgent++
		frame = bytes.Clone(frame)
		c.Eng.After(delay, func() {
			msg, xid, _, err := openflow.Decode(frame)
			if err != nil {
				sp.t.Fatal(err)
			}
			as.LC.HandleMessage(msg, xid, func(openflow.Message, uint32) {})
		})
		return nil
	}))
	return as
}

func (sp *splitPair) run(d time.Duration) {
	for end := sp.torEng.Now() + sim.Time(d); sp.torEng.Now() < end; {
		next := sp.torEng.Now() + sim.Time(50*time.Microsecond)
		sp.torEng.RunUntil(next)
		for _, as := range sp.agents {
			as.M.Cluster.Eng.RunUntil(next)
		}
	}
}

// pin installs n patterns through the confirm-then-announce path, then
// publishes as the next decision tick would (the service's ticker is not
// running).
func (sp *splitPair) pin(from, n int) {
	for i := from; i < from+n; i++ {
		sp.tor.Pin(syncPattern(i))
	}
	sp.run(5 * time.Millisecond)
	sp.tor.TC.maybePublish()
	sp.run(time.Millisecond)
}

func (sp *splitPair) converged(as *AgentService) bool {
	return slices.Equal(as.LC.Placements(), sp.tor.TC.offloadedList())
}

// TestLargeSetSyncsInParts: a 10,000-pattern desired set — three times what
// one frame holds, where Encode used to panic — reaches a newly attached
// in-sim local in parts, none over MaxFrame, applied and acked as a whole.
func TestLargeSetSyncsInParts(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 4000 // two parts; the race job runs -short
	}
	sp := newSplitPair(t, n+100)
	sp.pin(0, n)
	if got := len(sp.tor.TC.offloaded); got != n {
		t.Fatalf("%d of %d pins confirmed", got, n)
	}
	as := sp.agent(7)
	sp.run(5 * time.Millisecond)
	if !sp.converged(as) || sp.tor.TC.sync.peers[7].base != sp.tor.TC.sync.seq {
		t.Fatalf("the local holds %d placements of %d; it acked %d of %d",
			len(as.LC.Placements()), n, sp.tor.TC.sync.peers[7].base, sp.tor.TC.sync.seq)
	}
	if want := (n + openflow.MaxSyncPatterns - 1) / openflow.MaxSyncPatterns; sp.toAgent != want || sp.maxFrame > openflow.MaxFrame {
		t.Fatalf("the set went out in %d frames, the largest %d bytes; want %d frames under %d", sp.toAgent, sp.maxFrame, want, openflow.MaxFrame)
	}
	// From here on the local is served deltas.
	sp.toAgent, sp.maxFrame = 0, 0
	sp.tor.Unpin(syncPattern(0))
	sp.run(5 * time.Millisecond)
	if !sp.converged(as) || sp.toAgent != 2 || sp.maxFrame > 100 { // the announcement and the sync
		t.Fatalf("after one demotion the local holds %d placements, sent %d frames of up to %d bytes",
			len(as.LC.Placements()), sp.toAgent, sp.maxFrame)
	}
}

// TestReattachDropsTheBase: a ServerID that attaches again may be a process
// that restarted empty. Its acked sequence is no base for a delta: the
// reattach sends it the whole set, while the other local goes on with
// deltas.
func TestReattachDropsTheBase(t *testing.T) {
	sp := newSplitPair(t, 100)
	a, b := sp.agent(1), sp.agent(2)
	sp.pin(0, 20)
	if !sp.converged(a) || !sp.converged(b) {
		t.Fatal("the two locals did not converge on the pinned set")
	}
	r := &sp.tor.TC.sync
	if r.peers[1].base != r.seq || r.peers[2].base != r.seq {
		t.Fatalf("bases %d and %d after sync %d", r.peers[1].base, r.peers[2].base, r.seq)
	}
	a2 := sp.agent(1) // same ServerID, new process: AttachLocal takes its reattach branch
	if len(sp.tor.TC.agents) != 2 || r.peers[1].base != 0 {
		t.Fatalf("after the reattach the ToR has %d locals and base %d for the reattached one", len(sp.tor.TC.agents), r.peers[1].base)
	}
	sp.run(5 * time.Millisecond)
	if !sp.converged(a2) || !sp.converged(b) || len(a2.LC.Placements()) != 20 {
		t.Fatalf("the restarted local holds %d placements, the other %d, desired %d",
			len(a2.LC.Placements()), len(b.LC.Placements()), len(sp.tor.TC.offloaded))
	}
	if got := b.LC.desired; len(got) != 20 || b.LC.lastSyncSeq != r.seq {
		t.Fatalf("the other local holds %d patterns at sync %d of %d", len(got), b.LC.lastSyncSeq, r.seq)
	}
}

// TestDetachLetsTheLogTrim: a local that has stopped acking holds the log
// at its base; once detached it no longer does.
func TestDetachLetsTheLogTrim(t *testing.T) {
	sp := newSplitPair(t, 200)
	a, b := sp.agent(1), sp.agent(2)
	sp.pin(0, 10)
	r := &sp.tor.TC.sync
	held := r.peers[2].base
	delete(sp.agents, 2) // local 2 goes silent: what it sends no longer arrives
	for i := 0; i < 5; i++ {
		sp.pin(10+10*i, 10)
	}
	if len(r.log) < 50 || r.floor > held || r.peers[2].base != held {
		t.Fatalf("with a silent local at base %d the log holds %d changes above %d", held, len(r.log), r.floor)
	}
	sp.tor.DetachLocal(2)
	sp.pin(60, 1)
	if len(r.log) > 1 || r.floor < held {
		t.Fatalf("after the detach the log still holds %d changes above %d", len(r.log), r.floor)
	}
	if _, ok := r.peers[2]; ok || !sp.converged(a) || len(b.LC.Placements()) != 10 {
		t.Fatalf("detached local still known: %v; the attached one holds %d of %d", ok, len(a.LC.Placements()), len(sp.tor.TC.offloaded))
	}
}

// TestPlacementsViewStates walks one pattern through every state the admin
// placement view reports: a first install the TCAM rejects leaves it
// "installing" with a second attempt on the wire, the confirmed retry
// makes it "offloaded", and an unpin makes it "removing" until the local's
// ack and the in-flight grace let the ACL go.
func TestPlacementsViewStates(t *testing.T) {
	sp := newSplitPair(t, 10)
	sp.agent(1)
	sp.run(time.Millisecond)
	rejected := false
	sp.tor.TC.tor.SetInstallFault(func() error {
		if rejected {
			return nil
		}
		rejected = true
		return errors.New("injected reject")
	})
	p := syncPattern(0)
	view := func() []PlacementView { return sp.tor.Placements() }
	hasACL := func() bool {
		return slices.ContainsFunc(sp.tor.TC.tor.Rules(), func(ri tor.RuleInfo) bool { return ri.Pattern == p })
	}
	sp.tor.Pin(p)
	if got := view(); len(got) != 1 || got[0].State != "installing" || got[0].Attempts != 1 {
		t.Fatalf("after the pin: %+v", got)
	}
	// Step until the retry is on the wire: the rejection came back with
	// the barrier and the backoff has passed.
	for i := 0; i < 100; i++ {
		if got := view(); len(got) == 1 && got[0].Attempts == 2 {
			break
		}
		sp.run(50 * time.Microsecond)
	}
	if got := view(); !rejected || len(got) != 1 || got[0].State != "installing" || got[0].Attempts != 2 {
		t.Fatalf("after the rejected first install: %+v (rejected %v)", got, rejected)
	}
	sp.run(2 * time.Millisecond)
	if got := view(); len(got) != 1 || got[0] != (PlacementView{Pattern: p, State: "offloaded"}) {
		t.Fatalf("after the confirmed retry: %+v", got)
	}
	sp.tor.Unpin(p)
	if got := view(); len(got) != 1 || got[0] != (PlacementView{Pattern: p, State: "removing"}) {
		t.Fatalf("after the unpin: %+v", got)
	}
	if !hasACL() {
		t.Fatal("the ACL went before the local acked and the grace passed")
	}
	sp.run(5 * time.Millisecond)
	if got := view(); len(got) != 0 || hasACL() {
		t.Fatalf("after the acked removal: %+v, ACL still installed %v", got, hasACL())
	}
}
