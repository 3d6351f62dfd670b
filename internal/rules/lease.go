package rules

import (
	"slices"
	"time"

	"repro/internal/sim"
)

// Leases makes every rule a hardware table installs a lease: the control
// plane must refresh it within the TTL, or a sweeper expires the rule
// back to the vswitch software path — a dead control plane degrades to
// pre-FasTrak behavior instead of freezing stale express lanes. The ToR's
// TCAM and the SmartNIC embed one each. Leasing is off until SetLeaseTTL
// turns it on; until then every method is a no-op.
type Leases struct {
	eng      *sim.Engine
	expire   func(Pattern) uint64
	ttl      time.Duration
	deadline map[Pattern]time.Duration
	sweep    *sim.Ticker
	expiries uint64
}

// NewLeases returns a disabled lease table. expire removes an expired
// rule from the table that owns it and returns how many entries that
// removed, which LeaseExpiries sums.
func NewLeases(eng *sim.Engine, expire func(Pattern) uint64) Leases {
	return Leases{eng: eng, expire: expire}
}

// SetLeaseTTL enables (ttl > 0) or disables (ttl = 0) lease-based
// fail-safe expiry. With leases on, every install stamps a deadline
// now+ttl and a sweeper running at ttl/4 granularity expires unrefreshed
// rules.
func (l *Leases) SetLeaseTTL(ttl time.Duration) {
	l.ttl = ttl
	if l.sweep != nil {
		l.sweep.Stop()
		l.sweep = nil
	}
	if ttl <= 0 {
		l.deadline = nil
		return
	}
	l.deadline = make(map[Pattern]time.Duration)
	l.sweep = l.eng.Every(ttl/4, l.sweepExpired)
}

// StampLease starts p's lease; the owning table calls it on every
// successful install.
func (l *Leases) StampLease(p Pattern) {
	if l.deadline != nil {
		l.deadline[p] = l.eng.Now() + l.ttl
	}
}

// DropLease forgets p's lease; the owning table calls it when the rule
// leaves.
func (l *Leases) DropLease(p Pattern) { delete(l.deadline, p) }

// ClearLeases forgets every lease (the owning table lost its rules).
func (l *Leases) ClearLeases() { clear(l.deadline) }

// RefreshLease extends one rule's lease; a no-op for unknown patterns or
// when leases are disabled.
func (l *Leases) RefreshLease(p Pattern) {
	if _, ok := l.deadline[p]; ok {
		l.deadline[p] = l.eng.Now() + l.ttl
	}
}

// RefreshAllLeases extends every rule's lease: the holder of the table
// treats a message from the current-term leader as proof the control
// plane is alive.
func (l *Leases) RefreshAllLeases() {
	deadline := l.eng.Now() + l.ttl
	for p := range l.deadline {
		l.deadline[p] = deadline
	}
}

// LeaseExpiries returns how many entries the sweeper expired.
func (l *Leases) LeaseExpiries() uint64 { return l.expiries }

// LeaseCount returns the number of live leases (equals the installed
// rule count whenever leases are enabled — the lease-conservation
// invariant the failover experiment checks).
func (l *Leases) LeaseCount() int { return len(l.deadline) }

// sweepExpired expires every rule whose lease deadline has passed, in
// canonical pattern order.
func (l *Leases) sweepExpired() {
	now := l.eng.Now()
	var dead []Pattern
	for p, deadline := range l.deadline {
		if now >= deadline {
			dead = append(dead, p)
		}
	}
	slices.SortFunc(dead, Pattern.Compare)
	for _, p := range dead {
		delete(l.deadline, p)
		l.expiries += l.expire(p)
	}
}
