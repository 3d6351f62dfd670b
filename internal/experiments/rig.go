package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/host"
	"repro/internal/measure"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
)

// What every canned scenario (fault, tiered, overload) builds the same
// way: its control timing, its packet ledger, its senders, its fault
// surfaces and its event log.

// scenarioControl returns the scenarios' controller settings: 50ms
// samples, a 500ms control interval (250ms × 2 epochs) so a few-second
// run sees many decisions, and a MinScore of 100 pps.
func scenarioControl() core.Config {
	cfg := core.DefaultConfig()
	cfg.Measure = measure.Config{
		SampleGap:         50 * time.Millisecond,
		Epoch:             250 * time.Millisecond,
		EpochsPerInterval: 2,
		HistoryIntervals:  4,
		Aggregate:         true,
	}
	cfg.MinScore = 100
	return cfg
}

// Conservation is a scenario's packet ledger, read after the drain:
// every sent packet is delivered or attributed to a physical cause (link
// queue, link down, link loss) or to rate enforcement.
type Conservation struct {
	Sent           uint64
	Delivered      uint64
	LinkQueueDrops uint64
	LinkDownDrops  uint64
	LinkLossDrops  uint64
	ShapeDrops     uint64 // vswitch htb rate enforcement
	// UpcallQueueDrops and ClampDrops are the vswitch slow path's
	// overload-protection causes (bounded upcall queues, miss-rate clamp).
	UpcallQueueDrops uint64
	ClampDrops       uint64
	RateDrops        uint64 // ToR VF rate enforcement
	// BlackholeDrops sums every rule-divergence counter: hardware ACL
	// misses, missing VRF mappings, ToR/vswitch unrouted, VF steering
	// misses and software denials. Must be zero.
	BlackholeDrops uint64
	// Unaccounted is Sent − Delivered − all accounted drops. Zero when
	// conservation closes.
	Unaccounted int64
}

// conserve reads the ledger off every VM, access link, vswitch and NIC
// and the ToR, and closes the conservation equation.
func conserve(c *cluster.Cluster) Conservation {
	var l Conservation
	l.Sent, l.Delivered = traffic(c)
	for i := range c.Servers {
		for _, link := range []interface {
			Stats() (uint64, uint64, uint64)
			FaultDrops() (uint64, uint64)
		}{c.Uplink(i), c.Downlink(i)} {
			_, _, q := link.Stats()
			d, lo := link.FaultDrops()
			l.LinkQueueDrops += q
			l.LinkDownDrops += d
			l.LinkLossDrops += lo
		}
	}
	aclDrops, rateDrops, noVRF, torUnrouted, _, _ := c.TOR.Counters()
	l.RateDrops = rateDrops
	l.BlackholeDrops = aclDrops + noVRF + torUnrouted
	for _, srv := range c.Servers {
		tel := srv.VSwitch.Counters()
		l.BlackholeDrops += tel.Denied + tel.Unrouted
		l.ShapeDrops += tel.Drops.Shape
		l.UpcallQueueDrops += tel.Drops.UpcallQueue
		l.ClampDrops += tel.Drops.Clamp
		_, _, _, _, steerMiss := srv.NIC.Counters()
		l.BlackholeDrops += steerMiss
	}
	l.Unaccounted = int64(l.Sent) - int64(l.Delivered) -
		int64(l.LinkQueueDrops+l.LinkDownDrops+l.LinkLossDrops) -
		int64(l.ShapeDrops+l.UpcallQueueDrops+l.ClampDrops+l.RateDrops) -
		int64(l.BlackholeDrops)
	return l
}

// traffic totals the packets every VM in the cluster sent and received.
func traffic(c *cluster.Cluster) (tx, rx uint64) {
	for _, srv := range c.Servers {
		for _, vm := range srv.VMs {
			t, r, _, _ := vm.Counters()
			tx += t
			rx += r
		}
	}
	return tx, rx
}

// drive sends size-byte packets from vm to dst at rate pps over
// [from, until). The sender starts at a random phase within its period,
// drawn from the engine RNG, so runs are seed-sensitive as the
// determinism harnesses require.
func drive(eng *sim.Engine, vm *host.VM, dst packet.IP, sport, dport uint16, rate float64, size int, from, until time.Duration) {
	period := time.Duration(float64(time.Second) / rate)
	offset := time.Duration(eng.Rand().Int63n(int64(period)))
	eng.After(from+offset, func() {
		tk := eng.Every(period, func() {
			vm.Send(dst, sport, dport, size, host.SendOptions{}, nil)
		})
		eng.At(until, func() { tk.Stop() })
	})
}

// newInjector returns an injector with every cluster and rule-manager
// fault surface registered.
func newInjector(c *cluster.Cluster, mgr *core.Manager, seed int64) *faults.Injector {
	inj := faults.NewInjector(c.Eng, seed)
	c.RegisterFaults(inj)
	mgr.RegisterFaults(inj)
	return inj
}

// eventLog is a scenario's deterministic event log: lines stamped with
// the virtual time they were written at.
type eventLog struct {
	eng   *sim.Engine
	lines []string
}

func (l *eventLog) logf(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf("%12s "+format, append([]any{l.eng.Now()}, args...)...))
}

// after returns the injector's record (none when inj is nil) followed by
// the log's own lines.
func (l *eventLog) after(inj *faults.Injector) []string {
	if inj == nil {
		return l.lines
	}
	return append(slices.Clone(inj.Log()), l.lines...)
}

func patternStrings(ps []rules.Pattern) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}
