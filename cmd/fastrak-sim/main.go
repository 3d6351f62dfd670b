// Command fastrak-sim plays scenarios by name from one table: the paper's
// figures and tables, the rack workload in each deployment shape, the
// canned overload, ladder and failover scenarios, and two wall-clock runs.
//
//	fastrak-sim [-seed N] [-duration D] [-faults PLAN] [-fault-seed N] [-out DIR] <name>...
//	fastrak-sim list
//
// -seed and -duration replace a row's defaults. -faults takes a plan in
// the internal/faults DSL, e.g. 'tcamreject:tor0@2s+1s', or "random" for
// a seeded random plan over every fault surface. With -out DIR, a row's
// text goes to the file it names in DIR, if any, else to standard
// output; its other files go to DIR, else to the working directory. A
// flag that a named row does not read exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/faults"
)

// scenario is one row of the table.
type scenario struct {
	name, doc string
	// seed and horizon are the defaults of -seed and -duration; a zero
	// means the row reads neither that flag nor a default.
	seed    int64
	horizon time.Duration
	faults  faultUse
	// text names the file under -out that takes the row's text; files
	// are the other files the row writes.
	text  string
	files []string
	play  func(w io.Writer, p params) error
}

// faultUse says which fault flags a row reads.
type faultUse uint8

const (
	noFaults     faultUse = iota
	cannedFaults          // the row's own plan, seeded by -fault-seed
	anyFaults             // a -faults plan and -fault-seed
)

// params is what one row plays with: its defaults, overridden by flags.
type params struct {
	seed, faultSeed int64
	horizon         time.Duration
	faults, out     string
}

// path is where the row writes file.
func (p params) path(file string) string { return filepath.Join(p.out, file) }

var scenarios = []scenario{
	{name: "microbench", doc: "Figures 3, 4(a), 4(b) and 5: the §3 microbenchmarks",
		text: "microbench.txt", play: playMicrobench},
	{name: "evalbench", doc: "Tables 1-4 and the §6.2.2 controller cost",
		text: "evalbench.txt", play: playEvalbench},
	{name: "fig12", doc: "Figure 12: a bulk TCP flow shifted onto the express lane, traced",
		text: "migrate-trace.txt", files: []string{"fig12-trace.json"}, play: playFig12},
	{name: "fig12-pcap", doc: "Figure 12 with the receiver's access link captured",
		files: []string{"fig12.pcap"}, play: playFig12Pcap},
	{name: "rack", doc: "the rack workload: 4 servers, 3 tenants × 6 services, a 16-rule TCAM",
		seed: 1, horizon: 5 * time.Second, faults: anyFaults, play: rackShape{}.play},
	{name: "racks", doc: "the rack workload over 2 racks, one TOR controller each",
		seed: 1, horizon: 5 * time.Second, faults: anyFaults, play: rackShape{racks: 2}.play},
	{name: "smartnic", doc: "the rack workload with a 64-entry SmartNIC per server",
		seed: 1, horizon: 5 * time.Second, faults: anyFaults, play: rackShape{smartnic: 64}.play},
	{name: "replicas", doc: "the rack workload under 3 TOR controller replicas and 5s rule leases",
		seed: 1, horizon: 5 * time.Second, faults: anyFaults, play: rackShape{replicas: 3, leaseTTL: 5 * time.Second}.play},
	{name: "sketch", doc: "the rack workload with sketch accounting in place of exact counters",
		seed: 1, horizon: 5 * time.Second, faults: anyFaults, play: rackShape{sketch: true}.play},
	{name: "traced", doc: "the rack workload traced, with a live migration halfway through",
		seed: 1, horizon: 5 * time.Second, faults: anyFaults, files: traceFiles, play: rackShape{traced: true}.play},
	{name: "overload", doc: "a tenant storms the slow path beside a victim while the stats path degrades",
		seed: 1, horizon: 5 * time.Second, faults: cannedFaults, play: playOverload},
	{name: "tiered", doc: "a latecomer climbs software -> SmartNIC -> TCAM while incumbents demote",
		seed: 5, horizon: 8 * time.Second, text: "tiered-ladder.txt", play: playTiered},
	{name: "failover", doc: "3 hot-standby TOR controllers under partitions, crashes and pauses",
		seed: 1, horizon: 8 * time.Second, faults: cannedFaults, text: "failover.txt", play: playFailover},
	{name: "plane-inline", doc: "wall-clock throughput of the batch data plane, one inline shard",
		seed: 1, horizon: 2 * time.Second, play: func(w io.Writer, p params) error { return playThroughput(w, p, 1) }},
	{name: "plane", doc: "wall-clock throughput of the batch data plane, 4 worker shards",
		seed: 1, horizon: 2 * time.Second, play: func(w io.Writer, p params) error { return playThroughput(w, p, 4) }},
	{name: "sketch-scale", doc: "10^6 zipf flows through 4 shard sketches and a merged top-k, wall clock",
		seed: 1, play: playSketchScale},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run plays the rows args name and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fastrak-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 0, "simulation seed (default: the row's)")
	duration := fs.Duration("duration", 0, "time to play, wall clock for the plane rows (default: the row's)")
	faultSpec := fs.String("faults", "", "fault plan for a rack row in the internal/faults DSL, or \"random\"")
	faultSeed := fs.Int64("fault-seed", 1, "seed for the fault injector's randomness")
	out := fs.String("out", "", "directory for the rows' text and files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if slices.Equal(fs.Args(), []string{"list"}) {
		list(stdout)
		return 0
	}
	var given []string
	fs.Visit(func(f *flag.Flag) { given = append(given, f.Name) })
	rows, err := pick(fs.Args(), given, *duration, *faultSpec)
	if err == nil && *out != "" {
		err = os.MkdirAll(*out, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "fastrak-sim: %v\n", err)
		return 2
	}
	for _, s := range rows {
		p := params{seed: s.seed, faultSeed: *faultSeed, horizon: s.horizon, faults: *faultSpec, out: *out}
		if slices.Contains(given, "seed") {
			p.seed = *seed
		}
		if slices.Contains(given, "duration") {
			p.horizon = *duration
		}
		if err := s.playTo(stdout, p); err != nil {
			fmt.Fprintf(stderr, "fastrak-sim: %s: %v\n", s.name, err)
			return 1
		}
	}
	return 0
}

// pick looks up the named rows and refuses what they cannot mean.
func pick(names, given []string, duration time.Duration, faultSpec string) ([]scenario, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("name a scenario to play (fastrak-sim list prints them)")
	}
	if duration < 0 {
		return nil, fmt.Errorf("-duration must not be negative, got %v", duration)
	}
	if faultSpec != "" && faultSpec != "random" {
		if _, err := faults.ParsePlan(faultSpec); err != nil {
			return nil, fmt.Errorf("bad -faults plan: %v", err)
		}
	}
	var rows []scenario
	for _, name := range names {
		i := slices.IndexFunc(scenarios, func(s scenario) bool { return s.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown scenario %q (fastrak-sim list prints them)", name)
		}
		s := scenarios[i]
		reads := map[string]bool{"seed": s.seed != 0, "duration": s.horizon != 0,
			"faults": s.faults == anyFaults, "fault-seed": s.faults != noFaults, "out": true}
		for _, f := range given {
			if !reads[f] {
				return nil, fmt.Errorf("%s does not read -%s", name, f)
			}
		}
		rows = append(rows, s)
	}
	return rows, nil
}

// playTo plays s with its text going to the file -out names for it, or
// to stdout.
func (s scenario) playTo(stdout io.Writer, p params) error {
	if p.out == "" || s.text == "" {
		return s.play(stdout, p)
	}
	f, err := os.Create(p.path(s.text))
	if err != nil {
		return err
	}
	if err := s.play(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// list prints the table: each row with the flags it reads (and their
// defaults), the files it writes and what it plays.
func list(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tREADS\tWRITES\tPLAYS")
	for _, s := range scenarios {
		reads := []string{"", "-fault-seed", "-faults -fault-seed"}[s.faults]
		if s.horizon != 0 {
			reads = fmt.Sprintf("-duration %v %s", s.horizon, reads)
		}
		if s.seed != 0 {
			reads = fmt.Sprintf("-seed %d %s", s.seed, reads)
		}
		writes := strings.TrimSpace(s.text + " " + strings.Join(s.files, " "))
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", s.name, reads, writes, s.doc)
	}
	tw.Flush()
}
