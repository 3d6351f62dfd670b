package service

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("500ms", "2s") in JSON config files, with bare numbers accepted as
// nanoseconds for round-tripping.
type Duration time.Duration

// MarshalJSON renders the duration string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "500ms"-style strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		dd, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("service: bad duration %q: %w", x, err)
		}
		*d = Duration(dd)
	case float64:
		*d = Duration(time.Duration(x))
	default:
		return fmt.Errorf("service: bad duration value %v", v)
	}
	return nil
}

// D is the plain time.Duration value.
func (d Duration) D() time.Duration { return time.Duration(d) }

// ControllerConfig is the subset of the rule-manager tuning exposed in
// daemon config files. Zero values take the paper-prototype defaults of
// core.DefaultConfig.
type ControllerConfig struct {
	// Epoch is the ME measurement period T.
	Epoch Duration `json:"epoch,omitempty"`
	// SampleGap is t, the spacing of the ME's paired counter samples
	// (default: Epoch/5 when Epoch is set, else the prototype default).
	SampleGap Duration `json:"sample_gap,omitempty"`
	// EpochsPerInterval is N: a control interval is T×N.
	EpochsPerInterval int `json:"epochs_per_interval,omitempty"`
	// HistoryIntervals is M, the median-history depth.
	HistoryIntervals int `json:"history_intervals,omitempty"`
	// MaxOffloads caps simultaneous hardware patterns (0 = TCAM-bound).
	MaxOffloads int `json:"max_offloads,omitempty"`
	// MinScore filters flows not worth a hardware entry.
	MinScore float64 `json:"min_score,omitempty"`
	// LeaseTTL > 0 enables lease-expiring fail-safe hardware rules. It
	// must exceed eight control intervals (core.MinLeaseTTL).
	LeaseTTL Duration `json:"lease_ttl,omitempty"`
}

func (cc ControllerConfig) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	if cc.Epoch > 0 {
		cfg.Measure.Epoch = cc.Epoch.D()
		// Keep the paired samples inside the epoch when the operator
		// shortens T below the prototype's default 100ms gap.
		cfg.Measure.SampleGap = cc.Epoch.D() / 5
	}
	if cc.SampleGap > 0 {
		cfg.Measure.SampleGap = cc.SampleGap.D()
	}
	if cc.EpochsPerInterval > 0 {
		cfg.Measure.EpochsPerInterval = cc.EpochsPerInterval
	}
	if cc.HistoryIntervals > 0 {
		cfg.Measure.HistoryIntervals = cc.HistoryIntervals
	}
	cfg.MaxOffloads = cc.MaxOffloads
	cfg.MinScore = cc.MinScore
	cfg.HA.LeaseTTL = cc.LeaseTTL.D()
	return cfg
}

// validate rejects a lease the healthy leader cannot keep refreshed.
func (cc ControllerConfig) validate() error {
	if bound := core.MinLeaseTTL(cc.coreConfig()); cc.LeaseTTL > 0 && cc.LeaseTTL.D() <= bound {
		return fmt.Errorf("lease_ttl %v must exceed %v, two reconcile periods", cc.LeaseTTL.D(), bound)
	}
	return nil
}

// TordConfig configures the fastrak-tord daemon.
type TordConfig struct {
	// ListenControl is the TCP address agents connect to (default
	// 127.0.0.1:6653, the classic OpenFlow port).
	ListenControl string `json:"listen_control,omitempty"`
	// ListenAdmin is the HTTP admin/metrics address (default
	// 127.0.0.1:9653). Empty string "none" disables the admin server.
	ListenAdmin string `json:"listen_admin,omitempty"`
	// TCAMCapacity is the ToR hardware rule budget (default 2000).
	TCAMCapacity int `json:"tcam_capacity,omitempty"`
	// Seed drives tie-breaking randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// SampleInterval is the telemetry registry-walk period (default
	// 100ms, negative disables the sampler).
	SampleInterval Duration `json:"sample_interval,omitempty"`
	// Controller tunes the decision engine.
	Controller ControllerConfig `json:"controller,omitempty"`
}

func (c *TordConfig) normalize() {
	if c.ListenControl == "" {
		c.ListenControl = "127.0.0.1:6653"
	}
	if c.ListenAdmin == "" {
		c.ListenAdmin = "127.0.0.1:9653"
	}
	if c.TCAMCapacity <= 0 {
		c.TCAMCapacity = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = Duration(100 * time.Millisecond)
	}
}

// AgentConfig configures the fastrak-agentd daemon.
type AgentConfig struct {
	// ServerID identifies this host to the ToR controller; reports and
	// acks carry it. Must be unique per rack.
	ServerID uint32 `json:"server_id"`
	// TORAddr is the fastrak-tord control address to dial (default
	// 127.0.0.1:6653).
	TORAddr string `json:"tor_addr,omitempty"`
	// ListenAdmin is the HTTP admin/metrics address (default
	// 127.0.0.1:9654). "none" disables the admin server.
	ListenAdmin string `json:"listen_admin,omitempty"`
	// TCAMCapacity sizes the host-side express-lane rule mirror
	// (default 2000, matching the ToR).
	TCAMCapacity int `json:"tcam_capacity,omitempty"`
	// SmartNICCapacity > 0 equips the host with a SmartNIC offload tier.
	SmartNICCapacity int `json:"smartnic_capacity,omitempty"`
	// Seed drives tie-breaking randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout Duration `json:"dial_timeout,omitempty"`
	// ReconnectBackoff is the initial redial backoff, doubling per
	// attempt up to the protocol cap (default 50ms).
	ReconnectBackoff Duration `json:"reconnect_backoff,omitempty"`
	// SampleInterval is the telemetry registry-walk period (default
	// 100ms, negative disables the sampler).
	SampleInterval Duration `json:"sample_interval,omitempty"`
	// Controller tunes the local controller's measurement cadence. The
	// epoch settings must match the ToR's for interval bookkeeping to
	// line up.
	Controller ControllerConfig `json:"controller,omitempty"`
}

func (c *AgentConfig) normalize() {
	if c.ServerID == 0 {
		c.ServerID = 1
	}
	if c.TORAddr == "" {
		c.TORAddr = "127.0.0.1:6653"
	}
	if c.ListenAdmin == "" {
		c.ListenAdmin = "127.0.0.1:9654"
	}
	if c.TCAMCapacity <= 0 {
		c.TCAMCapacity = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = Duration(2 * time.Second)
	}
	if c.ReconnectBackoff <= 0 {
		c.ReconnectBackoff = Duration(50 * time.Millisecond)
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = Duration(100 * time.Millisecond)
	}
}

// LoadConfig reads a JSON config file into cfg (a *TordConfig or
// *AgentConfig). Unknown fields and anything after the object are
// rejected so typos fail loudly at startup instead of silently running
// defaults, and so is a controller setting the daemon could not run.
func LoadConfig(path string, cfg any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("service: open config: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		return fmt.Errorf("service: parse config %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("service: parse config %s: data after the object", path)
	}
	var cc ControllerConfig
	switch c := cfg.(type) {
	case *TordConfig:
		cc = c.Controller
	case *AgentConfig:
		cc = c.Controller
	}
	if err := cc.validate(); err != nil {
		return fmt.Errorf("service: config %s: %w", path, err)
	}
	return nil
}
