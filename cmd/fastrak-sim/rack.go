package main

import (
	"fmt"
	"io"
	"time"

	"repro"
	"repro/internal/faults"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/packet"
)

// The rack workload: every rack row plays this rack, changed only by its
// rackShape.
const (
	rackServers  = 4
	rackTenants  = 3
	rackServices = 6 // per tenant, each a client/server VM pair
)

// traceFiles are the files the traced row writes.
var traceFiles = []string{"fastrak-trace.json", "fastrak-metrics.prom", "fastrak-series.csv"}

// rackShape is what one rack row changes from the default rack.
type rackShape struct {
	racks    int // > 1 splits the servers over racks, one TOR controller each
	smartnic int // per-server SmartNIC rule-table capacity; 0 = none
	replicas int // TOR controller replicas per rack
	leaseTTL time.Duration
	sketch   bool // count-min + space-saving accounting instead of exact counters
	// traced records the run, with a live migration halfway through, to
	// traceFiles.
	traced bool
}

// play runs the rack workload for p.horizon under p's fault plan and
// prints a status line per tenth of the run, then the express-lane set,
// control-plane cost, slow-path health and recovery counters.
func (sh rackShape) play(w io.Writer, p params) error {
	opts := fastrak.Options{
		Servers:          rackServers,
		TCAMCapacity:     16,
		Seed:             p.seed,
		SmartNICCapacity: sh.smartnic,
		SketchAccounting: sh.sketch,
		Controller:       fastrak.ControllerOptions{Epoch: 250 * time.Millisecond, Replicas: sh.replicas, LeaseTTL: sh.leaseTTL},
	}
	if sh.racks > 1 {
		opts.Racks = sh.racks
		opts.Servers = (rackServers + sh.racks - 1) / sh.racks
	}
	d, err := fastrak.NewDeployment(opts)
	if err != nil {
		return err
	}

	// Observability attaches before any traffic flows so the trace covers
	// the whole episode.
	var tel *fastrak.Telemetry
	if sh.traced {
		tel = d.EnableTelemetry(fastrak.TelemetryOptions{})
	}

	// Fault injection: register every surface, then apply the plan.
	var inj *faults.Injector
	if p.faults != "" {
		inj = faults.NewInjector(d.Cluster.Eng, p.faultSeed)
		d.Manager.RegisterFaults(inj)
		var plan faults.Plan
		if p.faults == "random" {
			// Every surface but the stats taps, which the rack rows'
			// seeded random plans have never drawn from.
			ts := inj.TargetSet()
			ts.StatsTaps = nil
			plan = faults.RandomPlan(p.faultSeed, p.horizon*3/4, ts)
		} else if plan, err = faults.ParsePlan(p.faults); err != nil {
			return err
		}
		if err := inj.Apply(plan); err != nil {
			return fmt.Errorf("-faults plan: %w", err)
		}
	}

	// Each tenant gets rackServices services; service i of tenant t runs
	// at a rate that grows with i, so the DE has a clear ranking to find.
	type svc struct {
		tenant uint32
		client *host.VM
		rate   time.Duration
		dst    packet.IP
		port   uint16
	}
	var svcs []svc
	for t := 0; t < rackTenants; t++ {
		tenant := uint32(10 + t)
		for i := 0; i < rackServices; i++ {
			cIP := fmt.Sprintf("10.%d.0.%d", t, 10+2*i)
			sIP := fmt.Sprintf("10.%d.0.%d", t, 11+2*i)
			client, err := d.AddVM((2*i)%rackServers, tenant, cIP, fastrak.VMOptions{VCPUs: 2})
			if err != nil {
				return err
			}
			server, err := d.AddVM((2*i+1)%rackServers, tenant, sIP, fastrak.VMOptions{VCPUs: 2})
			if err != nil {
				return err
			}
			port := uint16(9000 + i)
			server.BindApp(port, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
				vm.Send(p.IP.Src, port, p.TCP.SrcPort, 600, host.SendOptions{Seq: p.Meta.Seq}, nil)
			}))
			// Rates: 100/s for service 0 up to ~100*3^i.
			period := 10 * time.Millisecond / time.Duration(1<<uint(i))
			svcs = append(svcs, svc{tenant: tenant, client: client, rate: period, dst: server.Key.IP, port: port})
		}
	}
	for _, s := range svcs {
		d.Cluster.Eng.Every(s.rate, func() {
			s.client.Send(s.dst, 40000, s.port, 64, host.SendOptions{}, nil)
		})
	}

	// Live migration: move the hottest service's server VM (the last
	// service of the first tenant: highest rate, so its flow is
	// offloaded) to the next server halfway through the run. The rule
	// manager pulls its express lane back first (§4.1.2).
	var migrateErr error
	if sh.traced {
		hot := svcs[rackServices-1]
		from := (2*(rackServices-1) + 1) % rackServers
		to := (from + 1) % rackServers
		ip := hot.dst.String()
		d.Cluster.Eng.After(p.horizon/2, func() {
			if migrateErr = d.MigrateVM(from, to, hot.tenant, ip); migrateErr == nil {
				fmt.Fprintf(w, "t=%-8v migrated tenant %d VM %s: server %d -> %d\n",
					d.Now().Round(time.Millisecond), hot.tenant, ip, from, to)
			}
		})
	}

	d.Start()
	for range 10 {
		d.Run(p.horizon / 10)
		used, capacity := d.HardwareRules()
		fmt.Fprintf(w, "t=%-8v hw-rules=%d/%d offloaded=%d", d.Now().Round(time.Millisecond), used, capacity, len(d.Offloaded()))
		if sh.smartnic > 0 {
			fmt.Fprintf(w, " nic=%d", len(d.NICPlaced()))
		}
		fmt.Fprintln(w)
	}
	d.Stop()
	if migrateErr != nil {
		return fmt.Errorf("migrate: %w", migrateErr)
	}

	printList(w, "\nfinal express-lane set (highest-pps services win the TCAM):", d.Offloaded())
	if sh.smartnic > 0 {
		printList(w, "\nSmartNIC tier (next band down the ladder):", d.NICPlaced())
		var nic metrics.NICCounters
		for _, srv := range d.Cluster.Servers {
			if srv.SmartNIC != nil {
				nic = nic.Add(srv.SmartNIC.Counters())
			}
		}
		fmt.Fprintf(w, "SmartNIC datapath: %v\n", nic)
	}
	msgs, bytes, samples := d.Manager.ControlStats()
	fmt.Fprintf(w, "\ncontrol plane: %d messages, %d bytes, %d datapath samples\n", msgs, bytes, samples)

	// Slow-path health: unified drop accounting and overload-detector
	// activity summed over every server's vswitch.
	var drops metrics.DropCounters
	var upcalls, served, entered, recovered uint64
	for _, srv := range d.Cluster.Servers {
		tel := srv.VSwitch.Counters()
		drops = drops.Add(tel.Drops)
		upcalls += tel.Upcalls
		served += tel.UpcallsServed
		e, r := srv.VSwitch.OverloadEvents()
		entered += e
		recovered += r
	}
	fmt.Fprintf(w, "slow path: %d upcalls, %d served, drops %v, overload entered=%d recovered=%d\n",
		upcalls, served, drops, entered, recovered)

	if inj != nil {
		printList(w, "\nfault log:", inj.Log())
		var retries, giveups, repairs, orphans, crashes uint64
		for _, rack := range d.Manager.RackCtls {
			for _, tc := range rack {
				retries += tc.Retries
				giveups += tc.GiveUps
				repairs += tc.Repairs
				orphans += tc.Orphans
				crashes += tc.Crashes
			}
		}
		var dropped uint64
		for _, tr := range d.Manager.Transports() {
			dropped += tr.Dropped
		}
		fmt.Fprintf(w, "recovery: %d install retries, %d give-ups, %d reconcile repairs, %d orphan removals, %d controller crashes, %d control messages dropped\n",
			retries, giveups, repairs, orphans, crashes, dropped)
	}

	if tel == nil {
		return nil
	}
	written, retained := tel.Recorder.Recorded()
	fmt.Fprintf(w, "\ntelemetry: %d events recorded (%d retained), %d metrics, %d samples\n",
		written, retained, tel.Registry.Len(), tel.Sampler.Samples())
	writes := []func(string) error{tel.WriteTrace, tel.WriteMetrics, tel.WriteCSV}
	for i, what := range []string{"trace", "metrics", "csv"} {
		path := p.path(traceFiles[i])
		if err := writes[i](path); err != nil {
			return fmt.Errorf("write %s: %w", what, err)
		}
		fmt.Fprintf(w, "  %s -> %s\n", what, path)
	}
	return nil
}
