package experiments

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/rules"
	"repro/internal/tcpmodel"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Fig12Result is the flow-migration trace experiment (§6.2.2): one bulk
// TCP flow is offloaded shortly after it starts; the trace shows the
// connection progressing through the shift with fast retransmits and no
// timeouts.
type Fig12Result struct {
	// Trace is the receiver-side sequence progression plus sender
	// recovery events — the Fig. 12 series.
	Trace []tcpmodel.TracePoint
	Stats tcpmodel.Stats
	// ShiftAt is when the offload happened.
	ShiftAt time.Duration
	// Finished reports whether the transfer completed.
	Finished   time.Duration
	TotalBytes uint32
}

// Fig12Telemetry bundles the observability attachments of a traced run.
type Fig12Telemetry struct {
	Recorder *telemetry.Recorder
	Registry *telemetry.Registry
	Sampler  *telemetry.Sampler
}

// Fig12Traced runs the migration trace: a 40 MB iperf-like TCP transfer,
// offloaded to the express lane at shiftAt, with a brief old-path loss
// window modeling the bonding-driver losses the paper observed ("some
// packets that return via the VIF were lost"). An optional pcap writer
// captures the receiver's access link ("we ... capture a packet trace at the
// receiver", §6.2.2). The flight recorder is attached to every testbed
// component, and the TCP connection's trace points are bridged in as
// events (Cause = data/ack/retx/fast-retx/timeout, V1 = sequence number;
// data and acks are 1-in-64 sampled, recovery events always recorded).
// The reordering episode of §6.2.2 — path shift, VIF losses, duplicate
// ACKs, fast retransmits — reads straight off the merged trace:
// tor/0 tcam-install, then tcp fast-retx events, no timeouts.
func Fig12Traced(shiftAt time.Duration, capture *pcap.Writer) (Fig12Result, Fig12Telemetry) {
	c := cluster.New(cluster.Config{Servers: 2, VSwitchCfg: model.VSwitchConfig{Tunneling: true}, Seed: 1201})
	a, err := c.AddVM(0, 9, packet.MustParseIP("10.9.0.1"), 4, nil)
	if err != nil {
		panic(err)
	}
	b, err := c.AddVM(1, 9, packet.MustParseIP("10.9.0.2"), 4, nil)
	if err != nil {
		panic(err)
	}
	if capture != nil {
		if err := c.TapServer(1, func(next fabric.Port) fabric.Port {
			return pcap.NewTap(c.Eng, capture, next)
		}); err != nil {
			panic(err)
		}
	}
	const total = 40_000_000
	conn := tcpmodel.New(c.Eng, a, b, 45000, 5201, total)

	rec := telemetry.NewRecorder(c.Eng.Now, telemetry.Config{ShardCapacity: 1 << 15})
	reg := telemetry.NewRegistry()
	c.AttachTelemetry(rec, reg)
	const sampleEvery = 10 * time.Millisecond
	samp := telemetry.NewSampler(reg, sampleEvery)
	samp.Tick(0)
	ticker := c.Eng.Every(sampleEvery, func() { samp.Tick(c.Eng.Now()) })
	tcp := rec.Scope("tcp")
	fk := packet.FlowKey{
		Src: a.Key.IP, Dst: b.Key.IP, SrcPort: 45000, DstPort: 5201,
		Proto: packet.ProtoTCP, Tenant: 9,
	}
	var bulk uint64
	conn.OnTrace = func(tp tcpmodel.TracePoint) {
		if tp.Kind == tcpmodel.TraceData || tp.Kind == tcpmodel.TraceAck {
			bulk++
			if bulk%64 != 0 {
				return
			}
		}
		tcp.Record(telemetry.Event{
			Kind: telemetry.KindTCP, Cause: tp.Kind.String(),
			Tenant: 9, Flow: fk, V1: float64(tp.Seq),
		})
	}
	tel := Fig12Telemetry{Recorder: rec, Registry: reg, Sampler: samp}

	var finished time.Duration
	conn.Done = func() {
		finished = c.Eng.Now()
		ticker.Stop() // the episode is over; stop burning samples
	}
	conn.Start()

	var shifted time.Duration
	c.Eng.At(shiftAt, func() {
		agg := rules.AggregatePattern(packet.FlowKey{
			Src: a.Key.IP, Dst: b.Key.IP, SrcPort: 45000, DstPort: 5201,
			Proto: packet.ProtoTCP, Tenant: 9,
		}.IngressAggregate())
		mod := &openflow.FlowMod{Command: openflow.FlowAdd, Pattern: agg, Out: openflow.PathVF, Priority: 10}
		a.Placer.HandleMessage(mod, 1, nil)
		if err := c.TOR.InstallACL(&rules.TCAMEntry{Pattern: agg, Action: rules.Allow, Priority: 5}); err != nil {
			panic(err)
		}
		conn.DropOldPathUntil = c.Eng.Now() + 500*time.Microsecond
		shifted = c.Eng.Now()
	})
	c.Eng.RunUntil(shiftAt + 60*time.Second)

	return Fig12Result{
		Trace:      conn.Trace,
		Stats:      conn.Stats,
		ShiftAt:    shifted,
		Finished:   finished,
		TotalBytes: total,
	}, tel
}

// ControllerCostResult reports the rule manager's own overhead (§6.2.2:
// "FasTrak controllers use negligible CPU once during each measurement
// and decision period").
type ControllerCostResult struct {
	SimDuration      time.Duration
	ControlIntervals uint64
	Messages         uint64
	MessageBytes     uint64
	Samples          uint64
	FlowMods         uint64
	// ActiveFlows is the steady-state flow count the controllers were
	// tracking.
	ActiveFlows int
}

// ControllerCost runs a busy memcached workload under FasTrak and counts
// the control plane's work.
func ControllerCost(d time.Duration) ControllerCostResult {
	r := newEvalRig(4, 605)
	cfg := scenarioControl()
	cfg.MinScore = core.DefaultConfig().MinScore // the stock offload bar
	mgr := core.Attach(r.c, cfg)
	mgr.Start()
	var slaps []*workload.Memslap
	for _, cl := range r.clients {
		ms := &workload.Memslap{Client: cl, Servers: r.serverIPs(), Concurrency: 8}
		ms.Start(r.c.Eng)
		slaps = append(slaps, ms)
	}
	r.c.Eng.RunUntil(d)
	for _, ms := range slaps {
		ms.Stop()
	}
	mgr.Stop()
	msgs, bytes, samples := mgr.ControlStats()
	var fm uint64
	active := 0
	for _, lc := range mgr.Locals {
		fm += lc.FlowMods
	}
	for _, srv := range r.c.Servers {
		active += srv.VSwitch.ActiveFlows()
	}
	interval := cfg.Measure.Epoch * time.Duration(cfg.Measure.EpochsPerInterval)
	return ControllerCostResult{
		SimDuration:      d,
		ControlIntervals: uint64(d / interval),
		Messages:         msgs,
		MessageBytes:     bytes,
		Samples:          samples,
		FlowMods:         fm,
		ActiveFlows:      active,
	}
}
