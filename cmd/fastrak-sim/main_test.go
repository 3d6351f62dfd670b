package main

import (
	"strings"
	"testing"
)

// TestCheckFlags: an empty rack and an ambiguous or unknown mode are
// refused before anything runs, naming the flag at fault; every canned
// scenario and the default rack workload pass.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		servers, tenants, flows int
		scenario                string
		shards                  int
		sketch                  bool
		want                    string // substring of the error; "" = accepted
	}{
		{name: "defaults", servers: 4, tenants: 3, flows: 6},
		{name: "no servers", servers: 0, tenants: 3, flows: 6, want: "-servers"},
		{name: "no tenants", servers: 4, tenants: 0, flows: 6, want: "-tenants"},
		{name: "no flows", servers: 4, tenants: 3, flows: 0, want: "-flows"},
		{name: "negative servers", servers: -1, tenants: 3, flows: 6, want: "-servers"},
		{name: "overload", servers: 4, tenants: 3, flows: 6, scenario: "overload"},
		{name: "tiered", servers: 4, tenants: 3, flows: 6, scenario: "tiered"},
		{name: "failover", servers: 4, tenants: 3, flows: 6, scenario: "failover"},
		{name: "unknown scenario", servers: 4, tenants: 3, flows: 6, scenario: "chaos", want: "-scenario"},
		{name: "scenario with shards", servers: 4, tenants: 3, flows: 6, scenario: "tiered", shards: 2, want: "-shards"},
		{name: "shards alone", servers: 4, tenants: 3, flows: 6, shards: 2},
		{name: "scenario with sketch scale", servers: 4, tenants: 3, flows: 20000, scenario: "tiered", sketch: true, want: "-sketch"},
		{name: "scenario with sketch accounting", servers: 4, tenants: 3, flows: 6, scenario: "tiered", sketch: true},
		{name: "sketch scale alone", servers: 4, tenants: 3, flows: 20000, sketch: true},
	} {
		err := checkFlags(tc.servers, tc.tenants, tc.flows, tc.scenario, tc.shards, tc.sketch)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %s", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}
