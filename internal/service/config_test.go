package service

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// trailingConfigs hold a valid object followed by something else.
var trailingConfigs = []string{`{"seed":2}{"seed":3}`, `{"seed":2} junk`}

// TestLoadConfigRejects: a lease of two reconcile periods or less, data
// after the object, and a field neither daemon has (a redial budget:
// agentd redials until it is stopped) fail the load for either daemon;
// the error names what is wrong. With a 50ms epoch and two epochs an
// interval the bound is eight 100ms intervals.
func TestLoadConfigRejects(t *testing.T) {
	lease := func(ttl string) string {
		return `{"controller": {"epoch": "50ms", "lease_ttl": "` + ttl + `"}}`
	}
	for _, c := range []struct {
		name, body, wantErr string
	}{
		{"lease below the bound", lease("700ms"), "lease_ttl 700ms must exceed 800ms"},
		{"lease at the bound", lease("800ms"), "lease_ttl 800ms must exceed 800ms"},
		{"lease above the bound", lease("801ms"), ""},
		{"no lease", lease("0s"), ""},
		{"a second object", trailingConfigs[0], "data after the object"},
		{"junk after the object", trailingConfigs[1], "data after the object"},
		{"trailing whitespace", "{\"seed\":2}\n\t \n", ""},
		{"the removed redial budget", `{"reconnect_attempts": 8}`, `unknown field "reconnect_attempts"`},
	} {
		path := filepath.Join(t.TempDir(), "cfg.json")
		if err := writeFile(path, c.body); err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []any{&TordConfig{}, &AgentConfig{}} {
			err := LoadConfig(path, cfg)
			switch {
			case c.wantErr == "" && err != nil:
				t.Errorf("%s: %T refused: %v", c.name, cfg, err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Errorf("%s: %T loads with error %v, want one saying %q", c.name, cfg, err, c.wantErr)
			}
		}
	}
}

// FuzzLoadConfig loads arbitrary files as either daemon's config. Nothing
// may panic, and a config that loads must marshal to a file that loads to
// an equal value.
func FuzzLoadConfig(f *testing.F) {
	for _, s := range append([]string{roundTripConfig, unknownFieldConfig}, trailingConfigs...) {
		f.Add([]byte(s))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, body []byte) {
		path := filepath.Join(dir, "cfg.json")
		for _, fresh := range []func() any{func() any { return &TordConfig{} }, func() any { return &AgentConfig{} }} {
			if err := writeFile(path, string(body)); err != nil {
				t.Fatal(err)
			}
			cfg := fresh()
			if LoadConfig(path, cfg) != nil {
				continue
			}
			out, err := json.Marshal(cfg)
			if err != nil {
				t.Fatalf("%T %+v does not marshal: %v", cfg, cfg, err)
			}
			if err := writeFile(path, string(out)); err != nil {
				t.Fatal(err)
			}
			again := fresh()
			if err := LoadConfig(path, again); err != nil || !reflect.DeepEqual(again, cfg) {
				t.Fatalf("%T does not reload (%v):\nfirst  %+v\nsecond %+v\nfile %s", cfg, err, cfg, again, out)
			}
		}
	})
}
