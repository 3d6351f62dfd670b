// Package fastrak is the public API of this FasTrak reproduction — the
// CoNEXT 2013 system that creates "express lanes" in multi-tenant data
// centers by offloading the highest packets-per-second flows from the
// hypervisor's vswitch into ToR switch hardware, while managing hardware
// and software rules as one unified set.
//
// A Deployment bundles the emulated testbed (servers with SR-IOV NICs and
// OVS-like vswitches behind an L3 ToR) with the FasTrak rule manager. The
// typical flow:
//
//	d, _ := fastrak.NewDeployment(fastrak.Options{Servers: 2})
//	client, _ := d.AddVM(0, 3, "10.0.0.1", fastrak.VMOptions{})
//	server, _ := d.AddVM(1, 3, "10.0.0.2", fastrak.VMOptions{})
//	d.Start()
//	// ... bind apps, generate traffic, d.Run(duration) ...
//
// See examples/ for runnable scenarios and internal/experiments for the
// paper's evaluation.
package fastrak

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/smartnic"
	"repro/internal/telemetry"
)

// Options configures a deployment.
type Options struct {
	// Servers is the number of physical machines per rack (default 2).
	Servers int
	// Racks is the number of racks (default 1), each with its own ToR
	// and FasTrak TOR controller (§4.3.3).
	Racks int
	// TCAMCapacity is the ToR's hardware rule budget (default 2000).
	TCAMCapacity int
	// SmartNICCapacity equips every server with a programmable SmartNIC
	// offload tier of this many rule entries between the vswitch and the
	// ToR TCAM (0 = no SmartNICs: the paper's 2-level deployment). Flows
	// graduate vswitch → SmartNIC → TCAM by pps score and demote under
	// capacity pressure; a SmartNIC miss always falls back to the vswitch.
	SmartNICCapacity int
	// Seed drives all randomness (default 1).
	Seed int64
	// Controller tunes the rule manager; zero-value fields take the
	// paper-prototype defaults.
	Controller ControllerOptions
	// SketchAccounting switches flow accounting from exact per-flow
	// datapath snapshots to the streaming heavy-hitter sketch of
	// internal/sketch (count-min + space-saving top-k) — constant
	// memory regardless of live-flow count. It changes accounting only;
	// the decision engine is the same in both modes. Off (default) keeps
	// the exact paper-prototype accounting.
	SketchAccounting bool
	// SketchTopK sizes the per-server monitored heavy-hitter set when
	// SketchAccounting is on (0 = default 1024). It should exceed the
	// number of patterns worth offloading; everything below the top-k
	// floor stays on the software path anyway.
	SketchTopK int
}

// ControllerOptions tunes the rule manager.
type ControllerOptions struct {
	// Epoch is the ME measurement period T (§5.2 uses 5 s and 0.5 s;
	// default 0.5 s). A control interval is N=2 epochs, and the median
	// history is M=4 intervals deep.
	Epoch time.Duration
	// MaxOffloads caps simultaneous hardware patterns (0 = TCAM-bound).
	MaxOffloads int
	// MinScore filters flows not worth a hardware entry.
	MinScore float64
	// Replicas runs that many hot-standby TOR controller instances per
	// rack (≤1 is a group of one, fenced at term 1). Exactly one
	// replica — the lowest-numbered live one — acts per elected term;
	// its FlowMods carry the term and stale-term messages are fenced.
	Replicas int
	// LeaseTTL enables lease-based fail-safe rules when > 0: hardware
	// placements expire back to the software path unless refreshed by a
	// live leader, so an orphaned express lane degrades instead of
	// blackholing.
	LeaseTTL time.Duration
}

// Deployment is an emulated multi-tenant rack under FasTrak management.
type Deployment struct {
	// Cluster exposes the underlying testbed for advanced use
	// (experiments, direct ToR inspection).
	Cluster *cluster.Cluster
	// Manager is the FasTrak rule manager.
	Manager *core.Manager
	// Telemetry is the observability subsystem; nil until EnableTelemetry.
	Telemetry *Telemetry

	vms map[string]*host.VM
}

// TelemetryOptions tunes the observability subsystem.
type TelemetryOptions struct {
	// HitSampleEvery records every Nth per-packet cache hit (default
	// 1024; 1 records every hit — expensive at line rate).
	HitSampleEvery int
	// SampleInterval is the registry-walk period on the sim clock
	// (default 100ms; 0 keeps the default, negative disables sampling).
	SampleInterval time.Duration
}

// Telemetry bundles the deployment's observability subsystem: the flight
// recorder (structured events), the metric registry, and the time-series
// sampler ticking on the sim clock.
type Telemetry struct {
	Recorder *telemetry.Recorder
	Registry *telemetry.Registry
	Sampler  *telemetry.Sampler
}

// EnableTelemetry attaches the flight recorder and metric registry to
// every component of the deployment — each server's vswitch, NIC and
// access links, each rack's ToR, and every FasTrak controller — and
// starts a sampler walking the registry on the sim clock. Idempotent:
// repeated calls return the existing subsystem. Call before Start/Run so
// the trace covers the whole episode.
func (d *Deployment) EnableTelemetry(opts TelemetryOptions) *Telemetry {
	if d.Telemetry != nil {
		return d.Telemetry
	}
	eng := d.Cluster.Eng
	rec := telemetry.NewRecorder(eng.Now, telemetry.Config{HitSampleEvery: opts.HitSampleEvery})
	reg := telemetry.NewRegistry()
	d.Cluster.AttachTelemetry(rec, reg)
	d.Manager.AttachTelemetry(rec, reg)
	t := &Telemetry{Recorder: rec, Registry: reg}
	if opts.SampleInterval >= 0 {
		interval := opts.SampleInterval
		if interval == 0 {
			interval = 100 * time.Millisecond
		}
		t.Sampler = telemetry.NewSampler(reg, interval)
		t.Sampler.Tick(eng.Now())
		eng.Every(interval, func() { t.Sampler.Tick(eng.Now()) })
	}
	d.Telemetry = t
	return t
}

// WriteTrace renders the flight recorder (and counter tracks, when the
// sampler ran) as Chrome trace-event JSON, loadable in Perfetto /
// chrome://tracing. Parent directories are created as needed.
func (t *Telemetry) WriteTrace(path string) error {
	return telemetry.WriteFile(path, func(w io.Writer) error {
		return telemetry.WriteChromeTrace(w, t.Recorder, t.Sampler)
	})
}

// WriteMetrics renders the registry's current values in Prometheus text
// exposition format.
func (t *Telemetry) WriteMetrics(path string) error {
	return telemetry.WriteFile(path, func(w io.Writer) error {
		return telemetry.WritePrometheus(w, t.Registry)
	})
}

// WriteCSV renders the sampler's time series in long CSV form
// (metric,labels,type,at_us,value).
func (t *Telemetry) WriteCSV(path string) error {
	return telemetry.WriteFile(path, func(w io.Writer) error {
		return telemetry.WriteSeriesCSV(w, t.Sampler)
	})
}

// NewDeployment builds the testbed and attaches the rule manager.
func NewDeployment(opts Options) (*Deployment, error) {
	if opts.Servers <= 0 {
		opts.Servers = 2
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	var nicCfg *smartnic.Config
	if opts.SmartNICCapacity > 0 {
		def := smartnic.DefaultConfig()
		def.Capacity = opts.SmartNICCapacity
		nicCfg = &def
	}
	c := cluster.New(cluster.Config{
		Racks:        opts.Racks,
		Servers:      opts.Servers,
		TCAMCapacity: opts.TCAMCapacity,
		Seed:         opts.Seed,
		VSwitchCfg:   model.VSwitchConfig{Tunneling: true},
		SmartNIC:     nicCfg,
	})
	cfg := core.DefaultConfig()
	co := opts.Controller
	if co.Epoch > 0 {
		cfg.Measure.Epoch = co.Epoch
	}
	cfg.MaxOffloads = co.MaxOffloads
	cfg.MinScore = co.MinScore
	if nicCfg != nil {
		// Mirror the device-side quota so the DE does not place rules the
		// NIC would reject.
		cfg.NICTenantQuota = nicCfg.Normalized().TenantQuota
	}
	cfg.HA.Replicas = co.Replicas
	cfg.HA.LeaseTTL = co.LeaseTTL
	cfg.SketchAccounting = opts.SketchAccounting
	cfg.Sketch.TopK = opts.SketchTopK
	mgr := core.Attach(c, cfg)
	return &Deployment{Cluster: c, Manager: mgr, vms: make(map[string]*host.VM)}, nil
}

// VMOptions configures a guest.
type VMOptions struct {
	// VCPUs defaults to 4 (an EC2-large-equivalent instance).
	VCPUs int
	// SecurityRules are the tenant ACLs for the VM (explicit allow;
	// default-deny applies when any are present).
	SecurityRules []SecurityRule
	// EgressBps/IngressBps are the purchased aggregate rate limits
	// (0 = unlimited).
	EgressBps, IngressBps float64
}

// SecurityRule is a tenant ACL entry in the public API.
type SecurityRule struct {
	// DstPort 0 matches any; Allow=false denies.
	DstPort  uint16
	SrcCIDR  string // "" matches any; e.g. "10.0.0.0/24" unsupported → use exact IPs
	Allow    bool
	Priority int
}

// AddVM provisions a tenant VM on server index with the given
// dotted-quad tenant IP.
func (d *Deployment) AddVM(server int, tenant uint32, ip string, opts VMOptions) (*host.VM, error) {
	addr, err := packet.ParseIP(ip)
	if err != nil {
		return nil, err
	}
	var r *rules.VMRules
	if len(opts.SecurityRules) > 0 {
		r = &rules.VMRules{Tenant: packet.TenantID(tenant), VMIP: addr}
		for _, sr := range opts.SecurityRules {
			action := rules.Deny
			if sr.Allow {
				action = rules.Allow
			}
			pat := rules.Pattern{Tenant: packet.TenantID(tenant), DstPort: sr.DstPort}
			if sr.SrcCIDR != "" {
				srcIP, perr := packet.ParseIP(sr.SrcCIDR)
				if perr != nil {
					return nil, fmt.Errorf("fastrak: security rule src %q: %w", sr.SrcCIDR, perr)
				}
				pat.Src, pat.SrcPrefix = srcIP, 32
			}
			r.Security = append(r.Security, rules.SecurityRule{Pattern: pat, Action: action, Priority: sr.Priority})
		}
	}
	vm, err := d.Cluster.AddVM(server, packet.TenantID(tenant), addr, opts.VCPUs, r)
	if err != nil {
		return nil, err
	}
	if opts.EgressBps > 0 || opts.IngressBps > 0 {
		d.Manager.SetVMLimit(packet.TenantID(tenant), addr, opts.EgressBps, opts.IngressBps)
	}
	d.vms[vmKey(tenant, ip)] = vm
	return vm, nil
}

func vmKey(tenant uint32, ip string) string { return fmt.Sprintf("%d/%s", tenant, ip) }

// VM returns a previously added VM.
func (d *Deployment) VM(tenant uint32, ip string) (*host.VM, bool) {
	vm, ok := d.vms[vmKey(tenant, ip)]
	return vm, ok
}

// Start begins FasTrak's measurement and offloading loops.
func (d *Deployment) Start() { d.Manager.Start() }

// Stop halts the controllers.
func (d *Deployment) Stop() { d.Manager.Stop() }

// Run advances the emulation by the given virtual duration.
func (d *Deployment) Run(dur time.Duration) {
	d.Cluster.Eng.RunUntil(d.Cluster.Eng.Now() + dur)
}

// Now returns the current virtual time.
func (d *Deployment) Now() time.Duration { return d.Cluster.Eng.Now() }

// MigrateVM moves a tenant VM between servers with FasTrak's pull-back /
// re-offload protocol (§4.1.2).
func (d *Deployment) MigrateVM(from, to int, tenant uint32, ip string) error {
	addr, err := packet.ParseIP(ip)
	if err != nil {
		return err
	}
	if err := d.Manager.MigrateVM(from, to, packet.TenantID(tenant), addr); err != nil {
		return err
	}
	// Migration creates a fresh guest at the destination; refresh the
	// lookup map so VM() returns the live handle.
	if vm, ok := d.Cluster.FindVM(packet.TenantID(tenant), addr); ok {
		d.vms[vmKey(tenant, ip)] = vm
	}
	return nil
}

// Offloaded returns the patterns currently enforced in ToR hardware,
// rendered as strings.
func (d *Deployment) Offloaded() []string {
	pats := d.Manager.OffloadedPatterns()
	out := make([]string, len(pats))
	for i, p := range pats {
		out[i] = p.String()
	}
	return out
}

// NICPlaced returns the patterns currently placed on the SmartNIC middle
// tier (desired state across all racks), rendered as strings. Empty when
// the deployment has no SmartNICs.
func (d *Deployment) NICPlaced() []string {
	pats := d.Manager.NICPlacedPatterns()
	out := make([]string, len(pats))
	for i, p := range pats {
		out[i] = p.String()
	}
	return out
}

// HardwareRules returns (used, capacity) of the ToRs' rule memory,
// summed across racks.
func (d *Deployment) HardwareRules() (used, capacity int) {
	for _, t := range d.Cluster.TORs {
		used += t.TCAMUsed()
		capacity += t.TCAMCapacity()
	}
	return used, capacity
}
