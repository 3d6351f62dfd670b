package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/rules"
)

// hwPatterns returns the controller-priority patterns currently in the
// ToR's TCAM.
func (tb *testbed) hwPatterns() map[rules.Pattern]bool {
	out := make(map[rules.Pattern]bool)
	for _, ri := range tb.c.TOR.Rules() {
		if ri.Priority == hwPriority {
			out[ri.Pattern] = true
		}
	}
	return out
}

// TestInstallRetriesAfterTransientReject: the hardware rejects the first
// install attempts; the controller retries with backoff and the offload
// completes once the fault clears — placers are only ever redirected
// after a confirmed install.
func TestInstallRetriesAfterTransientReject(t *testing.T) {
	tb := newTestbed(t, fastCfg())
	tb.echo(11211, 600)
	tb.drive(40000, 11211, 3000, 100)

	rejects := 0
	tb.c.TOR.SetInstallFault(func() error {
		if rejects < 2 {
			rejects++
			return errors.New("transient hardware rejection")
		}
		return nil
	})

	tb.mgr.Start()
	tb.c.Eng.RunUntil(3 * time.Second)
	tb.mgr.Stop()

	tc := tb.mgr.TORCtl
	if rejects != 2 {
		t.Fatalf("install fault consulted %d times, want 2", rejects)
	}
	if tc.Retries == 0 {
		t.Error("no install retries recorded despite rejections")
	}
	if tc.Installs == 0 {
		t.Error("no confirmed installs after the fault cleared")
	}
	off := tb.mgr.OffloadedPatterns()
	if len(off) == 0 {
		t.Fatal("nothing offloaded after transient rejections cleared")
	}
	// The announced set and the hardware agree.
	hw := tb.hwPatterns()
	for _, p := range off {
		if !hw[p] {
			t.Errorf("announced pattern %v missing from hardware", p)
		}
	}
}

// TestInstallGivesUpOnPermanentReject: with the hardware permanently
// rejecting installs the controller degrades gracefully — the flow stays
// on the software path, traffic keeps flowing, and nothing is ever
// announced as offloaded.
func TestInstallGivesUpOnPermanentReject(t *testing.T) {
	tb := newTestbed(t, fastCfg())
	served := tb.echo(11211, 600)
	tb.drive(40000, 11211, 3000, 100)
	tb.c.TOR.SetInstallFault(func() error { return errors.New("permanent hardware rejection") })

	tb.mgr.Start()
	tb.c.Eng.RunUntil(3 * time.Second)
	tb.mgr.Stop()

	tc := tb.mgr.TORCtl
	if tc.GiveUps == 0 {
		t.Error("controller never gave up despite a permanent install fault")
	}
	if tb.c.TOR.InstallRejects() == 0 {
		t.Error("no rejects recorded at the hardware")
	}
	if off := tb.mgr.OffloadedPatterns(); len(off) != 0 {
		t.Errorf("announced offloads %v with hardware rejecting every install", off)
	}
	if len(tb.hwPatterns()) != 0 {
		t.Error("hardware holds offload rules despite rejecting installs")
	}
	// Graceful degradation: the software path carried the workload.
	if *served < 5000 {
		t.Errorf("echo served only %d requests; software path impaired", *served)
	}
}

// TestCrashRestartAdoptsHardware: a controller crash loses all volatile
// state while the hardware keeps forwarding; the restarted controller
// adopts the installed rules as its desired set instead of blindly
// removing them (which would blackhole flows placers still steer to the
// express lane).
func TestCrashRestartAdoptsHardware(t *testing.T) {
	tb := newTestbed(t, fastCfg())
	served := tb.echo(11211, 600)
	tb.drive(40000, 11211, 3000, 100)
	tb.mgr.Start()
	eng := tb.c.Eng
	eng.RunUntil(2 * time.Second)

	tc := tb.mgr.TORCtl
	before := tb.hwPatterns()
	if len(before) == 0 {
		t.Fatal("nothing offloaded before the crash")
	}
	servedBefore := *served

	tc.Crash()
	eng.RunUntil(3 * time.Second)
	// Hardware keeps forwarding while the controller is down.
	if *served <= servedBefore {
		t.Error("traffic stopped during the controller outage")
	}
	if len(tb.mgr.OffloadedPatterns()) != 0 {
		t.Error("crashed controller still reports offloaded patterns")
	}
	for p := range before {
		if !tb.hwPatterns()[p] {
			t.Errorf("hardware rule %v vanished during the crash (nobody removed it)", p)
		}
	}

	tc.Restart()
	// Adoption is immediate: the boot-time table dump becomes the desired
	// set.
	after := make(map[rules.Pattern]bool)
	for _, p := range tb.mgr.OffloadedPatterns() {
		after[p] = true
	}
	for p := range before {
		if !after[p] {
			t.Errorf("restarted controller did not adopt hardware rule %v", p)
		}
	}
	// And the control loop resumes: the adopted set keeps serving, and
	// the hardware still matches the desired set later on.
	eng.RunUntil(5 * time.Second)
	tb.mgr.Stop()
	if tc.Decisions == 0 {
		t.Error("decision ticker did not resume after restart")
	}
	hw := tb.hwPatterns()
	for _, p := range tb.mgr.OffloadedPatterns() {
		if !hw[p] {
			t.Errorf("desired pattern %v missing from hardware after recovery", p)
		}
	}
}

// TestRemovalWaitsForAcks: a demoted pattern's hardware ACL must survive
// until every local controller acknowledges a RuleSync excluding it — if
// the control channels are down, removal is parked (placers may still be
// steering into the express lane) and completes only after the channels
// heal and the periodic refresh collects the acks.
func TestRemovalWaitsForAcks(t *testing.T) {
	tb := newTestbed(t, fastCfg())
	tb.echo(11211, 600)
	tb.drive(40000, 11211, 3000, 100)
	tb.mgr.Start()
	eng := tb.c.Eng
	eng.RunUntil(2 * time.Second)

	tc := tb.mgr.TORCtl
	before := tb.hwPatterns()
	if len(before) == 0 {
		t.Fatal("nothing offloaded")
	}

	// Stop proposing new offloads, sever every local control channel,
	// then demote everything touching the server VM.
	tb.mgr.Cfg.MinScore = 1e18
	for _, lc := range tb.mgr.Locals {
		lc.toTORs[0].SetDown(true)
		lc.fromTORs[0].SetDown(true)
	}
	tc.demoteVM(3, serverIP)
	if len(tc.inst.patterns(true)) == 0 {
		t.Fatal("demoteVM queued no removals")
	}

	eng.RunUntil(3 * time.Second)
	// Acks cannot arrive: the ACLs must still be installed.
	hw := tb.hwPatterns()
	for _, p := range tc.inst.patterns(true) {
		if !hw[p] {
			t.Errorf("ACL %v removed while locals were unreachable (unacked)", p)
		}
	}

	// Heal the channels; the periodic RuleSync refresh collects acks and
	// the gated removals complete.
	for _, lc := range tb.mgr.Locals {
		lc.toTORs[0].SetDown(false)
		lc.fromTORs[0].SetDown(false)
	}
	eng.RunUntil(7 * time.Second)
	tb.mgr.Stop()
	if n := len(tc.inst.patterns(true)); n != 0 {
		t.Errorf("%d removals still pending after channels healed", n)
	}
	for p := range before {
		if tb.hwPatterns()[p] {
			t.Errorf("ACL %v still in hardware after acked demotion", p)
		}
	}
}
