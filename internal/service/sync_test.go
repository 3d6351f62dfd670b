package service

import (
	"slices"
	"testing"
	"time"

	"repro/internal/adminapi"
	"repro/internal/packet"
	"repro/internal/rules"
)

// quietTord starts a tord whose decision tick never fires within a test:
// rules are pinned and unpinned by hand, and RuleSyncs go out only where
// the service publishes them itself (attach, unpin).
func quietTord(t *testing.T, tcam int) *Tord {
	t.Helper()
	tord, err := StartTord(TordConfig{
		ListenControl: "127.0.0.1:0",
		ListenAdmin:   "127.0.0.1:0",
		TCAMCapacity:  tcam,
		Controller:    ControllerConfig{Epoch: Duration(time.Hour)},
	}, nil)
	if err != nil {
		t.Fatalf("StartTord: %v", err)
	}
	t.Cleanup(func() { tord.Close() })
	return tord
}

// tenantAgent starts an agentd process for server 1 with one tenant-3 VM,
// so that placements for tenant 3's patterns have a placer to land in.
func tenantAgent(t *testing.T, tord *Tord, tcam int) *Agentd {
	t.Helper()
	agent, err := StartAgentd(AgentConfig{
		ServerID:     1,
		TORAddr:      tord.ControlAddr(),
		ListenAdmin:  "none",
		TCAMCapacity: tcam,
		Controller:   testControllerCfg(),
	}, nil)
	if err != nil {
		t.Fatalf("StartAgentd: %v", err)
	}
	t.Cleanup(func() { agent.Close() })
	if err := agent.addVM(adminapi.VMRequest{Tenant: 3, IP: "10.3.0.1"}); err != nil {
		t.Fatal(err)
	}
	return agent
}

func lanePattern(i int) rules.Pattern {
	return rules.AggregatePattern(packet.AggregateKey{
		Tenant: 3, VMIP: packet.IP(0x0a030000 + i/50), Port: uint16(1000 + i%50),
	})
}

func offloadedAt(tord *Tord) []rules.Pattern {
	var out []rules.Pattern
	tord.rt.Do(func() {
		for _, p := range tord.svc.Placements() {
			if p.State == "offloaded" {
				out = append(out, p.Pattern)
			}
		}
	})
	return out
}

func placementsAt(agent *Agentd) []rules.Pattern {
	var out []rules.Pattern
	agent.rt.Do(func() { out = agent.svc.LC.Placements() })
	return out
}

// converged waits until the ToR has confirmed want rules and the agent's
// placer programming is exactly the ToR's offloaded set.
func converged(t *testing.T, tord *Tord, agent *Agentd, want int) {
	t.Helper()
	waitFor(t, 30*time.Second, func() bool {
		off := offloadedAt(tord)
		return len(off) == want && slices.Equal(placementsAt(agent), off)
	})
}

// TestLargeSetReachesTCPAgent: 10,000 confirmed patterns — three frames'
// worth, where one RuleSync used to panic in Encode — reach an agent that
// attaches over TCP, as parts it applies once the last has arrived.
func TestLargeSetReachesTCPAgent(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 4000 // two parts; the race job runs -short
	}
	tord := quietTord(t, n+100)
	tord.rt.Do(func() {
		for i := 0; i < n; i++ {
			tord.svc.Pin(lanePattern(i))
		}
	})
	waitFor(t, 30*time.Second, func() bool { return len(offloadedAt(tord)) == n })
	agent := tenantAgent(t, tord, n+100)
	converged(t, tord, agent, n)
}

// TestReconnectedAgentGetsTheWholeSet: whatever the agent behind a new
// connection holds — nothing, after a restart, or a set gone stale while it
// was away — its acked sequence is not a base for a delta. It is sent the
// whole set and ends with exactly the ToR's.
func TestReconnectedAgentGetsTheWholeSet(t *testing.T) {
	tord := quietTord(t, 100)
	agent := tenantAgent(t, tord, 100)
	pin := func(from, n int) {
		tord.rt.Do(func() {
			for i := from; i < from+n; i++ {
				tord.svc.Pin(lanePattern(i))
			}
		})
	}
	unpin := func(i int) { tord.rt.Do(func() { tord.svc.Unpin(lanePattern(i)) }) }
	attached := func() bool {
		var ids []uint32
		tord.rt.Do(func() { ids = tord.svc.AgentIDs() })
		return len(ids) == 1
	}
	waitFor(t, 10*time.Second, attached)
	pin(0, 6)
	waitFor(t, 10*time.Second, func() bool { return len(offloadedAt(tord)) == 6 })
	unpin(0) // publishes: a delta on the sync the attach sent
	converged(t, tord, agent, 5)

	// The same process on a new connection: the demotion announced while it
	// was away is lost, and only the sync can take the placement back.
	tord.mu.Lock()
	for nc := range tord.conns {
		nc.Close()
	}
	tord.mu.Unlock()
	waitFor(t, 10*time.Second, func() bool { return !attached() })
	unpin(1)
	waitFor(t, 15*time.Second, func() bool { return attached() && agent.Connected() })
	converged(t, tord, agent, 4)

	// A new process under the same ServerID, empty, while the set moved on.
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return !attached() })
	unpin(2)
	pin(10, 3)
	waitFor(t, 10*time.Second, func() bool { return len(offloadedAt(tord)) == 6 })
	converged(t, tord, tenantAgent(t, tord, 100), 6)
}
