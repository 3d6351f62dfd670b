package openflow

import (
	"math"
	"testing"
	"time"
)

// TestReconnectDelayIsBounded: a redial loop counts its attempts without
// bound, so every attempt number and every backoff must give a delay that
// is positive — no hot loop — and at most the cap.
func TestReconnectDelayIsBounded(t *testing.T) {
	for _, backoff := range []time.Duration{time.Millisecond, 50 * time.Millisecond, math.MaxInt64} {
		for _, attempt := range []int{0, 1, 19, 20, 64, 1 << 20} {
			if d := ReconnectDelay(backoff, attempt); d <= 0 || d > 30*time.Second {
				t.Errorf("ReconnectDelay(%v, %d) = %v, want in (0, 30s]", backoff, attempt, d)
			}
		}
	}
}
