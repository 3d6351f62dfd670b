// Package ratelimit implements the traffic-rate enforcement used on both
// FasTrak paths (requirement I3): token buckets, an htb-style software
// shaper (the `tc` configuration OVS applies to VIFs, §2.2), and the
// policing mode hardware limiters use. Rates are in bits per second and
// time is virtual (driven by internal/sim).
package ratelimit

import "time"

// TokenBucket is a classic token bucket over virtual time. Tokens are
// bits; they accrue at Rate and cap at Burst. ReserveLimit-style consumption
// lets tokens go negative, which yields the serialization behaviour of a
// shaper; Allow-style consumption polices (drops) instead.
type TokenBucket struct {
	rate   float64 // bits per second
	burst  float64 // bits
	tokens float64
	last   time.Duration
}

// NewTokenBucket returns a full bucket. burstBits bounds how much may be
// sent back-to-back; a burst of one MTU approximates strict shaping.
func NewTokenBucket(rateBps, burstBits float64) *TokenBucket {
	if rateBps <= 0 {
		panic("ratelimit: rate must be positive")
	}
	if burstBits <= 0 {
		burstBits = rateBps / 100 // default: 10ms of burst
	}
	return &TokenBucket{rate: rateBps, burst: burstBits, tokens: burstBits}
}

// Rate returns the configured rate in bits per second.
func (b *TokenBucket) Rate() float64 { return b.rate }

// SetRate changes the rate; FasTrak's decision engine re-adjusts interface
// limits every control interval (§4.3.2).
func (b *TokenBucket) SetRate(now time.Duration, rateBps float64) {
	if rateBps <= 0 {
		panic("ratelimit: rate must be positive")
	}
	b.refill(now)
	b.rate = rateBps
}

func (b *TokenBucket) refill(now time.Duration) {
	if now > b.last {
		b.tokens += b.rate * (now - b.last).Seconds()
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// ReserveLimit consumes bytes worth of tokens and returns how long the
// caller must delay the packet to conform (0 when tokens were available).
// Tokens may go negative: subsequent reservations queue behind this one,
// exactly like htb's shaping. The backlog is bounded: when conforming
// delivery would have to wait longer than maxDelay, the tokens are
// refunded and ok is false — the caller drops the packet, as a real qdisc
// does when its queue is full. This bounds how long a stale shaping rate
// can keep leaking traffic after the limit changes.
func (b *TokenBucket) ReserveLimit(now time.Duration, bytes int, maxDelay time.Duration) (delay time.Duration, ok bool) {
	b.refill(now)
	need := float64(bytes) * 8
	b.tokens -= need
	if b.tokens >= 0 {
		return 0, true
	}
	d := time.Duration(-b.tokens / b.rate * float64(time.Second))
	if d > maxDelay {
		b.tokens += need
		return 0, false
	}
	return d, true
}

// Allow reports whether bytes may pass now, consuming tokens only on
// success. This is policing: non-conforming packets are dropped by the
// caller.
func (b *TokenBucket) Allow(now time.Duration, bytes int) bool {
	b.refill(now)
	need := float64(bytes) * 8
	if b.tokens < need {
		return false
	}
	b.tokens -= need
	return true
}

// UsageMeter tracks recent throughput against a limit so the decision
// engine can detect when an interface limit is "maxed out" — the signal
// FPS uses to re-adjust splits (§4.3.2: "When the capacity required on the
// interface is higher than the rate limit, the flows will max out the rate
// limit imposed").
type UsageMeter struct {
	bytes     uint64
	lastBytes uint64
	lastAt    time.Duration
	rateBps   float64
}

// Record accumulates sent bytes.
func (m *UsageMeter) Record(bytes int) { m.bytes += uint64(bytes) }

// Sample computes the rate since the previous sample.
func (m *UsageMeter) Sample(now time.Duration) float64 {
	if now <= m.lastAt {
		return m.rateBps
	}
	m.rateBps = float64(m.bytes-m.lastBytes) * 8 / (now - m.lastAt).Seconds()
	m.lastBytes = m.bytes
	m.lastAt = now
	return m.rateBps
}
