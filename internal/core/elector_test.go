package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/openflow"
	"repro/internal/rules"
	"repro/internal/smartnic"
	"repro/internal/telemetry"
)

// TestCrashEndsAPause: a crash ends a freeze. A replica paused, crashed
// and restarted inside the pause window handles messages and ticks at
// once, and the window's Resume then records nothing and adopts nothing.
func TestCrashEndsAPause(t *testing.T) {
	for _, replicas := range []int{1, 3} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			cfg := fastCfg()
			cfg.HA.Replicas = replicas
			tb := newTestbed(t, cfg)
			tb.echo(11211, 600)
			tb.drive(40000, 11211, 3000, 100)
			eng := tb.c.Eng
			rec := telemetry.NewRecorder(eng.Now, telemetry.Config{})
			tb.mgr.AttachTelemetry(rec, nil)
			tb.mgr.Start()
			eng.RunUntil(2 * time.Second)

			tc := tb.mgr.Replicas(0)[0]
			tc.Pause()
			eng.RunUntil(2500 * time.Millisecond)
			tc.Crash()
			eng.RunUntil(3 * time.Second)
			tc.Restart()
			decisions := tc.Decisions
			eng.RunUntil(6 * time.Second)
			// A group of one leads again at once; replica 0 of three
			// follows the successor its peers elected, then preempts it.
			if len(tc.LatestReports()) == 0 || tc.Term() == 1 && replicas > 1 {
				t.Errorf("the restarted replica handled no message: %d reports, term %d", len(tc.LatestReports()), tc.Term())
			}
			if !tc.IsLeader() || tc.Decisions == decisions {
				t.Errorf("the restarted replica did not tick: leader %v, %d decisions since the restart",
					tc.IsLeader(), tc.Decisions-decisions)
			}

			events, adoptedAt, term := len(rec.Snapshot()), tc.prevHWAt, tc.Term()
			tc.Resume()
			if n := len(rec.Snapshot()); n != events {
				t.Errorf("the Resume after a crash recorded %d events", n-events)
			}
			if tc.prevHWAt != adoptedAt || tc.Term() != term || !tc.IsLeader() {
				t.Errorf("the Resume after a crash acted: adopted at %v (was %v), term %d (was %d), leader %v",
					tc.prevHWAt, adoptedAt, tc.Term(), term, tc.IsLeader())
			}
		})
	}
}

// TestAgentTermBinding: the agent binds the highest term it admitted
// FlowMods in to one origin. A second origin in that term counts a
// conflict, a higher term starts a fresh binding, and a stale term is
// fenced without touching the binding.
func TestAgentTermBinding(t *testing.T) {
	a := newSwitchAgent(nil)
	var fenced int
	reply := func(m openflow.Message, _ uint32) {
		if e, ok := m.(*openflow.ErrorMsg); ok && e.Code == openflow.ErrCodeStaleTerm {
			fenced++
		}
	}
	for i, s := range []struct {
		term, origin   uint32
		acts, admitted bool
		fenced         int
		conflicts      uint64
	}{
		{1, 0, true, true, 0, 0},   // binds term 1 to replica 0
		{1, 0, true, true, 0, 0},   // the same origin again
		{1, 1, true, true, 0, 1},   // a second origin in term 1
		{2, 1, true, true, 0, 1},   // a higher term binds afresh to replica 1
		{2, 1, true, true, 0, 1},   // ...which then acts freely
		{1, 0, true, false, 1, 1},  // stale: fenced
		{2, 0, true, true, 1, 2},   // the binding is still replica 1's
		{5, 2, false, true, 1, 2},  // a table read raises the term, binding nothing
		{3, 1, true, false, 2, 2},  // below it: fenced
		{5, 2, true, true, 2, 2},   // term 5's first FlowMod binds it
		{5, 1, true, true, 2, 3},   // and a second origin conflicts
		{4, 1, false, false, 3, 3}, // a stale table read is fenced too
	} {
		if got := a.admitTerm(s.term, s.origin, s.acts, "test", reply, 0); got != s.admitted {
			t.Errorf("step %d (term %d from %d): admitted %v, want %v", i, s.term, s.origin, got, s.admitted)
		}
		if fenced != s.fenced || a.TermConflicts != s.conflicts {
			t.Errorf("step %d (term %d from %d): %d fenced, %d conflicts; want %d, %d",
				i, s.term, s.origin, fenced, a.TermConflicts, s.fenced, s.conflicts)
		}
	}
}

// TestOneDETicker: a crash and restart inside the DE's start offset leave
// one decision ticker, not two, and Stop stops it.
func TestOneDETicker(t *testing.T) {
	run := func(crash bool) (decisions, afterStop uint64) {
		tb := newTestbed(t, fastCfg())
		tc, eng := tb.mgr.TORCtl, tb.c.Eng
		tb.mgr.Start()
		if crash {
			eng.RunUntil(10 * time.Millisecond)
			tc.Crash()
			eng.RunUntil(20 * time.Millisecond)
			tc.Restart()
		}
		eng.RunUntil(5 * time.Second)
		tb.mgr.Stop()
		decisions = tc.Decisions
		eng.RunUntil(8 * time.Second)
		return decisions, tc.Decisions - decisions
	}
	want, _ := run(false)
	got, late := run(true)
	if want == 0 || got != want {
		t.Errorf("a crash and restart inside the start offset: %d DE ticks in 5s, want %d", got, want)
	}
	if late != 0 {
		t.Errorf("%d DE ticks after Stop", late)
	}
}

// TestNICPlacementsFollowTheLeader: after the leader crashes, the NIC tier
// placements its successor makes are the manager's NIC placements.
func TestNICPlacementsFollowTheLeader(t *testing.T) {
	nic := smartnic.DefaultConfig()
	nic.Capacity = 4
	c := cluster.New(cluster.Config{Servers: 2, VSwitchCfg: model.VSwitchConfig{Tunneling: true}, Seed: 7, SmartNIC: &nic})
	cl, err := c.AddVM(0, 3, clientIP, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVM(1, 3, serverIP, 4, nil); err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.HA.Replicas = 3
	cfg.MaxOffloads = 1 // the TCAM takes one aggregate, the NIC tier the rest
	mgr := Attach(c, cfg)
	tb := &testbed{c: c, mgr: mgr, client: cl}
	for i := uint16(0); i < 3; i++ {
		tb.drive(40000+i, 9000+i, 2000, 100)
	}
	mgr.Start()
	c.Eng.RunUntil(3 * time.Second)
	if len(mgr.NICPlacedPatterns()) == 0 {
		t.Fatal("nothing placed on a SmartNIC before the failover")
	}
	mgr.Replicas(0)[0].Crash()
	c.Eng.RunUntil(8 * time.Second)
	mgr.Stop()
	leader := mgr.LeaderOf(0)
	if leader == nil || leader.ReplicaID() == 0 {
		t.Fatalf("no successor leads: %v", leader)
	}
	want := rules.SortedPatterns(leader.nicDesired)
	if got := mgr.NICPlacedPatterns(); len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("NIC placements %v, the leader (replica %d) placed %v", got, leader.ReplicaID(), want)
	}
}

// TestNICLeasesExpireWithoutTheController: with a lease TTL, a local's
// SmartNIC rules are leases too. Cut every channel between the local and
// its ToR controller, and the rules expire within one TTL of the last
// leader message, plus the sweeper's TTL/4 granularity.
func TestNICLeasesExpireWithoutTheController(t *testing.T) {
	nic := smartnic.DefaultConfig()
	nic.Capacity = 4
	c := cluster.New(cluster.Config{Servers: 2, VSwitchCfg: model.VSwitchConfig{Tunneling: true}, Seed: 7, SmartNIC: &nic})
	cl, err := c.AddVM(0, 3, clientIP, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVM(1, 3, serverIP, 4, nil); err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.HA.LeaseTTL = 5 * time.Second
	cfg.MaxOffloads = 1 // the TCAM takes one aggregate, the NIC tier the rest
	mgr := Attach(c, cfg)
	tb := &testbed{c: c, mgr: mgr, client: cl}
	for i := uint16(0); i < 3; i++ {
		tb.drive(40000+i, 9000+i, 2000, 100)
	}
	mgr.Start()
	defer mgr.Stop()
	c.Eng.RunUntil(3 * time.Second)
	dev := c.Servers[0].SmartNIC
	if dev.Len() == 0 {
		t.Fatal("nothing placed on server 0's SmartNIC before the cut")
	}
	lc := mgr.Locals[0]
	for j := range lc.toTORs {
		lc.toTORs[j].SetDown(true)
		lc.fromTORs[j].SetDown(true)
	}
	cut := c.Eng.Now()
	c.Eng.RunUntil(cut + cfg.HA.LeaseTTL + cfg.HA.LeaseTTL/4)
	if dev.Len() != 0 || dev.LeaseExpiries() == 0 {
		t.Errorf("%d rules left on the SmartNIC one TTL after the cut (%d expired)", dev.Len(), dev.LeaseExpiries())
	}
}
