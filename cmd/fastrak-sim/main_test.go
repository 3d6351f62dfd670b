package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestScenarios plays every row of the table into a temporary directory,
// at a 200ms horizon where the row takes one: it must exit 0, print
// text, and write exactly the files it declares. The plane rows, the
// only multi-goroutine forwarding the simulator drives, must also close
// their packet ledger. `list` names every row.
func TestScenarios(t *testing.T) {
	var listed bytes.Buffer
	if code := run([]string{"list"}, &listed, &listed); code != 0 {
		t.Fatalf("list: exit %d: %s", code, listed.String())
	}
	conserved := regexp.MustCompile(`conservation: packets=\d+ accounted=\d+ \(true\)`)
	for _, s := range scenarios {
		if !strings.Contains(listed.String(), s.name+" ") {
			t.Errorf("list omits %s", s.name)
		}
		t.Run(s.name, func(t *testing.T) {
			if s.name == "microbench" || s.name == "evalbench" {
				t.Skip("full-cost paper tables: internal/experiments' tests and the results/ drift check already run them")
			}
			dir := t.TempDir()
			args := []string{"-out", dir, s.name}
			if s.horizon != 0 {
				args = append([]string{"-duration", "200ms"}, args...)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			text, want := stdout.String(), slices.Clone(s.files)
			if s.text != "" {
				b, err := os.ReadFile(filepath.Join(dir, s.text))
				if err != nil {
					t.Fatal(err)
				}
				text, want = string(b), append(want, s.text)
			}
			if text == "" {
				t.Error("no text")
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range entries {
				got = append(got, e.Name())
			}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("wrote %v, want %v", got, want)
			}
			if strings.HasPrefix(s.name, "plane") && !conserved.MatchString(text) {
				t.Errorf("packet ledger does not close:\n%s", text)
			}
		})
	}
}

// TestRunRefuses: a run the named rows cannot mean exits 2 before any
// row plays, naming what is wrong.
func TestRunRefuses(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the message on stderr
	}{
		{nil, "name a scenario"},
		{[]string{"nosuch"}, `unknown scenario "nosuch"`},
		{[]string{"rack", "list"}, `unknown scenario "list"`},
		{[]string{"-servers", "4", "rack"}, "-servers"},
		{[]string{"-duration", "-1s", "rack"}, "-duration must not be negative"},
		{[]string{"-faults", "bogus", "rack"}, "bad -faults plan"},
		{[]string{"-faults", "random", "tiered"}, "tiered does not read -faults"},
		{[]string{"-faults", "random", "failover"}, "failover does not read -faults"},
		{[]string{"-fault-seed", "2", "plane"}, "plane does not read -fault-seed"},
		{[]string{"-duration", "1s", "microbench"}, "microbench does not read -duration"},
		{[]string{"-duration", "1s", "sketch-scale"}, "sketch-scale does not read -duration"},
		{[]string{"-seed", "2", "fig12"}, "fig12 does not read -seed"},
		{[]string{"-seed", "2", "rack", "evalbench"}, "evalbench does not read -seed"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.want) || stdout.Len() > 0 {
			t.Errorf("%q: exit %d, stderr %q, stdout %d bytes; want exit 2 naming %q and no output",
				tc.args, code, stderr.String(), stdout.Len(), tc.want)
		}
	}
}
