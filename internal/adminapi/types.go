package adminapi

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/rules"
)

// PatternSpec is the JSON form of a rules.Pattern. Zero fields wildcard,
// matching the pattern model: empty IP = any, port 0 = any, proto 0 =
// any.
type PatternSpec struct {
	Tenant    uint32 `json:"tenant"`
	AnyTenant bool   `json:"any_tenant,omitempty"`
	Src       string `json:"src,omitempty"`
	SrcPrefix int    `json:"src_prefix,omitempty"`
	Dst       string `json:"dst,omitempty"`
	DstPrefix int    `json:"dst_prefix,omitempty"`
	SrcPort   uint16 `json:"src_port,omitempty"`
	DstPort   uint16 `json:"dst_port,omitempty"`
	Proto     byte   `json:"proto,omitempty"`
}

// Pattern converts the spec to the internal pattern. A set IP with a zero
// prefix gets /32: "this address" is the intuitive JSON meaning, and a
// prefix of 0 internally means "any", which would silently widen the
// rule. A prefix outside 0–32 is an error for the same reason.
func (ps PatternSpec) Pattern() (rules.Pattern, error) {
	if uint(ps.SrcPrefix) > 32 || uint(ps.DstPrefix) > 32 {
		return rules.Pattern{}, fmt.Errorf("adminapi: prefix lengths %d, %d: want 0-32", ps.SrcPrefix, ps.DstPrefix)
	}
	p := rules.Pattern{
		Tenant:    packet.TenantID(ps.Tenant),
		AnyTenant: ps.AnyTenant,
		SrcPrefix: uint8(ps.SrcPrefix),
		DstPrefix: uint8(ps.DstPrefix),
		SrcPort:   ps.SrcPort,
		DstPort:   ps.DstPort,
		Proto:     ps.Proto,
	}
	if ps.Src != "" {
		ip, err := packet.ParseIP(ps.Src)
		if err != nil {
			return rules.Pattern{}, fmt.Errorf("adminapi: src: %w", err)
		}
		p.Src = ip
		if p.SrcPrefix == 0 {
			p.SrcPrefix = 32
		}
	}
	if ps.Dst != "" {
		ip, err := packet.ParseIP(ps.Dst)
		if err != nil {
			return rules.Pattern{}, fmt.Errorf("adminapi: dst: %w", err)
		}
		p.Dst = ip
		if p.DstPrefix == 0 {
			p.DstPrefix = 32
		}
	}
	return p, nil
}

// Health is the /healthz payload.
type Health struct {
	Role string `json:"role"` // "tord" or "agentd"
	// NowUS is the daemon's virtual time in microseconds (wall time
	// since start under the wall clock).
	NowUS int64 `json:"now_us"`
	// Agents lists attached agent server IDs (tord only).
	Agents []uint32 `json:"agents,omitempty"`
	// ServerID is this host's identity (agentd only).
	ServerID uint32 `json:"server_id,omitempty"`
	// Connected reports whether the control connection to the ToR is
	// currently up (agentd only; tord omits it).
	Connected *bool `json:"connected,omitempty"`
}

// Placement is one pattern's position in the offload machinery.
type Placement struct {
	Pattern string `json:"pattern"`
	// State is "offloaded", "installing", "removing" at the ToR, or
	// "installed" for a host-side placer redirect.
	State    string `json:"state"`
	Attempts int    `json:"attempts,omitempty"`
}

// HardwareRule is one installed TCAM entry with counters.
type HardwareRule struct {
	Pattern  string `json:"pattern"`
	Priority int    `json:"priority"`
	Queue    int    `json:"queue"`
	Packets  uint64 `json:"packets"`
	Bytes    uint64 `json:"bytes"`
}

// RulesReply is the /v1/rules GET payload.
type RulesReply struct {
	Rules    []HardwareRule `json:"rules"`
	TCAMUsed int            `json:"tcam_used"`
	TCAMCap  int            `json:"tcam_capacity"`
}

// VMRequest onboards a tenant VM (agentd POST /v1/vms).
type VMRequest struct {
	Tenant     uint32  `json:"tenant"`
	IP         string  `json:"ip"`
	VCPUs      int     `json:"vcpus,omitempty"`
	EgressBps  float64 `json:"egress_bps,omitempty"`
	IngressBps float64 `json:"ingress_bps,omitempty"`
}

// VMKeySpec identifies a tenant VM (agentd DELETE /v1/vms).
type VMKeySpec struct {
	Tenant uint32 `json:"tenant"`
	IP     string `json:"ip"`
}

// VMInfo is one onboarded VM in /v1/vms.
type VMInfo struct {
	Tenant uint32 `json:"tenant"`
	IP     string `json:"ip"`
	VCPUs  int    `json:"vcpus"`
}

// TrafficRequest starts a synthetic constant-rate stream between two
// local VMs (agentd POST /v1/traffic) — the service-mode analogue of the
// traffic loops in examples/.
type TrafficRequest struct {
	Tenant  uint32 `json:"tenant"`
	Src     string `json:"src"`
	Dst     string `json:"dst"`
	SrcPort uint16 `json:"src_port"`
	DstPort uint16 `json:"dst_port"`
	// SizeBytes per packet (default 64).
	SizeBytes int `json:"size_bytes,omitempty"`
	// IntervalUS between packets (default 1000 = 1k pps).
	IntervalUS int64 `json:"interval_us,omitempty"`
	// DurationMS stops the stream after this long (0 = until shutdown).
	DurationMS int64 `json:"duration_ms,omitempty"`
}

// ErrorReply is the JSON error body for non-2xx responses.
type ErrorReply struct {
	Error string `json:"error"`
}
