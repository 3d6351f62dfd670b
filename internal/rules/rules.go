package rules

import (
	"fmt"

	"repro/internal/packet"
)

// Action is the verdict of a security rule.
type Action byte

// Security rule actions.
const (
	Deny Action = iota
	Allow
)

func (a Action) String() string {
	if a == Allow {
		return "allow"
	}
	return "deny"
}

// Placement records where a rule is currently enforced. FasTrak manages
// hardware and hypervisor rules as a unified set and moves them back and
// forth (§1); placement is an attribute of the rule, not a copy of it.
type Placement byte

// Rule placements.
const (
	// InSoftware means the vswitch enforces the rule (default).
	InSoftware Placement = iota
	// InHardware means the rule has been offloaded to the ToR VRF.
	InHardware
)

func (p Placement) String() string {
	if p == InHardware {
		return "hw"
	}
	return "sw"
}

// SecurityRule is a tenant ACL entry (requirement C2). Amazon VPC allows up
// to 250 per VM; the testbed installs comparable counts.
type SecurityRule struct {
	Pattern  Pattern
	Action   Action
	Priority int // higher wins
}

func (r SecurityRule) String() string {
	return fmt.Sprintf("%s %s prio=%d", r.Action, r.Pattern, r.Priority)
}

// QoSRule directs matching traffic to a queue/class (§4.1.3: "Rules in the
// VRF can direct VM traffic to use these specific queues").
type QoSRule struct {
	Pattern  Pattern
	Queue    int  // ToR egress queue index
	DSCP     byte // marking applied in software
	Priority int
}

// TunnelMapping records where to tunnel traffic for a destination VM
// (requirement C1). Software (VXLAN) tunnels terminate at the destination
// *server*; hardware (GRE) tunnels terminate at the destination *ToR*
// (§4.1.3).
type TunnelMapping struct {
	Tenant packet.TenantID
	// VMIP is the tenant-assigned (overlapping) address of the remote VM.
	VMIP packet.IP
	// Remote is the provider address of the tunnel endpoint: destination
	// server IP for VXLAN, destination ToR IP for GRE.
	Remote packet.IP
	// RemoteMAC is the inner destination used when decapsulating toward
	// the VM on the final hop.
	RemoteMAC packet.MAC
}

// RateLimit is a transmit or receive cap on a VM interface, in bits per
// second (requirement I3).
type RateLimit struct {
	IngressBps float64
	EgressBps  float64
}

// VMRules is the complete rule state for one VM — everything that must
// migrate with it (requirement S4).
//
// The exported rule slices are the source of truth. Evaluate and QueueFor
// (and their *Mask forms) are served by the CompiledVM that Compile caches
// (epoch.go).
//
// Contract: rules change by append or by slice replacement. Compile detects
// exactly those, by slice identity (length plus backing-array head), and no
// code edits a rule in place, which it would not see.
type VMRules struct {
	Tenant   packet.TenantID
	VMIP     packet.IP
	Security []SecurityRule
	QoS      []QoSRule
	// Limit is the tenant-purchased aggregate rate for the VM; FasTrak
	// splits it across the VIF and VF paths with FPS (§4.1.4).
	Limit RateLimit

	compiled *CompiledVM
}

// Evaluate returns the action of the highest-priority matching security
// rule, breaking priority ties by specificity then order. If nothing
// matches, the default is Deny: multi-tenant ACLs are explicit-allow
// (§4.1.3: "By default, all other traffic is denied").
func (v *VMRules) Evaluate(k packet.FlowKey) Action { return v.Compile().Evaluate(k) }

// EvaluateLinear is the seed linear-scan implementation, kept as the
// reference for differential testing.
func (v *VMRules) EvaluateLinear(k packet.FlowKey) Action {
	best := -1
	bestSpec := -1
	action := Deny
	for i := range v.Security {
		r := &v.Security[i]
		if !r.Pattern.Match(k) {
			continue
		}
		spec := r.Pattern.Specificity()
		if r.Priority > best || (r.Priority == best && spec > bestSpec) {
			best, bestSpec, action = r.Priority, spec, r.Action
		}
	}
	return action
}

// QueueFor returns the QoS queue for the flow, or 0 (best effort) if no
// QoS rule matches.
func (v *VMRules) QueueFor(k packet.FlowKey) int { return v.Compile().QueueFor(k) }

// QueueForLinear is the seed linear-scan implementation, kept as the
// reference for differential testing.
func (v *VMRules) QueueForLinear(k packet.FlowKey) int {
	best := -1
	q := 0
	for i := range v.QoS {
		r := &v.QoS[i]
		if r.Pattern.Match(k) && r.Priority > best {
			best, q = r.Priority, r.Queue
		}
	}
	return q
}
