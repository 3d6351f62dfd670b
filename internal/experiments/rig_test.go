package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestHorizonFloor: every canned scenario refuses a horizon below
// minHorizon with an error (it used to schedule events before time zero
// and panic) and plays one at the floor.
func TestHorizonFloor(t *testing.T) {
	runs := map[string]func(h time.Duration) error{
		"chaos": func(h time.Duration) error {
			_, err := RunChaos(FaultConfig{Seed: 1, Horizon: h})
			return err
		},
		"failover": func(h time.Duration) error {
			_, err := RunFailover(FaultConfig{Seed: 1, Horizon: h})
			return err
		},
		"tiered": func(h time.Duration) error {
			_, err := RunTiered(TieredConfig{Seed: 5, Horizon: h})
			return err
		},
		"overload": func(h time.Duration) error {
			_, err := RunOverload(OverloadConfig{Seed: 1, Horizon: h})
			return err
		},
	}
	for name, run := range runs {
		for _, tc := range []struct {
			horizon time.Duration
			refused bool
		}{
			{time.Nanosecond, true},
			{9 * time.Millisecond, true},
			{minHorizon - 1, true},
			{minHorizon, false},
		} {
			err := run(tc.horizon)
			switch {
			case tc.refused && (err == nil || !strings.Contains(err.Error(), "floor")):
				t.Errorf("%s at %v: err %v, want the floor named", name, tc.horizon, err)
			case !tc.refused && err != nil:
				t.Errorf("%s at %v: %v", name, tc.horizon, err)
			}
		}
	}
}
