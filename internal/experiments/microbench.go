// Package experiments regenerates every table and figure of the paper's
// evaluation on the emulated testbed: the Section 3 microbenchmarks
// (Figures 3, 4, 5), the Section 6 memcached evaluation (Tables 1–4), the
// flow-migration TCP trace (Figure 12), and the controller-cost
// measurement (§6.2.2). Each experiment returns typed rows; cmd/microbench
// and cmd/evalbench print them, and bench_test.go wraps each in a
// testing.B benchmark.
//
// Durations are scaled down from the paper's wall-clock runs (90 s TPS
// tests, 2M-request finish-time tests) — EXPERIMENTS.md records the
// scaling — but the comparisons are shape-preserving: same topology, same
// per-path mechanisms, same workload structure.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/workload"
)

// PathConfig names a microbenchmark configuration (§3.2).
type PathConfig string

// The four configurations of Figures 3 and 4(a).
const (
	ConfigOVS       PathConfig = "OVS"           // baseline OVS
	ConfigOVSSec    PathConfig = "OVS+Security"  // 10,000 installed rules
	ConfigOVSTunnel PathConfig = "OVS+Tunneling" // software VXLAN
	ConfigOVSRL     PathConfig = "OVS+RateLimit" // htb on the VIF
	ConfigSRIOV     PathConfig = "SR-IOV"        // hypervisor bypass
	// ConfigCombined is OVS+Tunneling+RateLimit vs SR-IOV+hw-limit
	// (Figure 5 / 4(b)).
	ConfigCombined PathConfig = "OVS+Tun+RL"
	ConfigSRIOVRL  PathConfig = "SR-IOV+RL"
)

// Configs3 are the Figure 3 configurations in presentation order.
var Configs3 = []PathConfig{ConfigOVS, ConfigOVSTunnel, ConfigOVSRL, ConfigSRIOV}

// Configs5 are the Figure 5 configurations.
var Configs5 = []PathConfig{ConfigCombined, ConfigSRIOVRL}

// vswitchConfigFor translates a PathConfig to the vswitch settings plus
// whether the VF path is used and any hardware rate limit.
func vswitchConfigFor(pc PathConfig) (cfg model.VSwitchConfig, useVF bool, hwLimitBps float64) {
	switch pc {
	case ConfigOVS:
		return model.VSwitchConfig{}, false, 0
	case ConfigOVSSec:
		return model.VSwitchConfig{SecurityRules: 10000}, false, 0
	case ConfigOVSTunnel:
		return model.VSwitchConfig{Tunneling: true}, false, 0
	case ConfigOVSRL:
		return model.VSwitchConfig{RateLimitBps: 10e9}, false, 0
	case ConfigSRIOV:
		return model.VSwitchConfig{}, true, 0
	case ConfigCombined:
		// §3.2.3: tunneling limits rates, so a 1 Gbps limit is used.
		return model.VSwitchConfig{Tunneling: true, RateLimitBps: 1e9}, false, 0
	case ConfigSRIOVRL:
		// The same 1 Gbps limit enforced in hardware.
		return model.VSwitchConfig{}, true, 1e9
	default:
		panic(fmt.Sprintf("experiments: unknown config %q", pc))
	}
}

// microRig is a 2-server testbed with one VM per server, configured for a
// PathConfig.
type microRig struct {
	c        *cluster.Cluster
	clientVM *host.VM
	serverVM *host.VM
}

var (
	mbClient = packet.MustParseIP("10.0.0.1")
	mbServer = packet.MustParseIP("10.0.0.2")
)

func newMicroRig(pc PathConfig, seed int64) *microRig {
	vcfg, useVF, hwLimit := vswitchConfigFor(pc)
	c := cluster.New(cluster.Config{Servers: 2, VSwitchCfg: vcfg, Seed: seed})
	a, err := c.AddVM(0, 1, mbClient, 4, nil)
	if err != nil {
		panic(err)
	}
	b, err := c.AddVM(1, 1, mbServer, 4, nil)
	if err != nil {
		panic(err)
	}
	r := &microRig{c: c, clientVM: a, serverVM: b}
	if !vcfg.Tunneling {
		// Flat routing for the untunneled software path.
		mustRoute(c, mbClient, 0)
		mustRoute(c, mbServer, 1)
	}
	if useVF {
		r.steerAllToVF(1)
		if hwLimit > 0 {
			c.TOR.SetVFLimit(1, mbClient, 0, hwLimit) // egress from client
			c.TOR.SetVFLimit(1, mbServer, 0, hwLimit)
		}
	}
	return r
}

func mustRoute(c *cluster.Cluster, vmIP packet.IP, serverIdx int) {
	if err := c.TOR.RouteLike(vmIP, c.Servers[serverIdx].IP); err != nil {
		panic(err)
	}
}

// steerAllToVF programs every placer with a tenant-wide VF rule and
// installs the matching ToR allow + GRE state — the SR-IOV microbenchmark
// path.
func (r *microRig) steerAllToVF(tenant packet.TenantID) {
	pat := rules.TenantPattern(tenant)
	mod := &openflow.FlowMod{Command: openflow.FlowAdd, Pattern: pat, Out: openflow.PathVF, Priority: 10}
	for _, vm := range []*host.VM{r.clientVM, r.serverVM} {
		vm.Placer.HandleMessage(mod, 1, nil)
	}
	if err := r.c.TOR.InstallACL(&rules.TCAMEntry{Pattern: pat, Action: rules.Allow, Priority: 5}); err != nil {
		panic(err)
	}
}

// MicroResult is one (config, size) microbenchmark row.
type MicroResult struct {
	Config PathConfig
	Size   int

	ThroughputGbps float64       // Fig. 3(a)/5(a)
	AvgLatency     time.Duration // Fig. 3(b)/5(b)
	P99Latency     time.Duration // Fig. 3(c)/5(c)
	BurstTPS       float64       // Fig. 3(d)/5(d)
	BurstLatency   time.Duration // Fig. 3(e)/5(e)
}

// MicroDuration is the measurement window per point (the paper runs
// longer; the emulation's determinism makes short windows stable).
var MicroDuration = 300 * time.Millisecond

// RunMicroNetwork produces one network-performance row (Figures 3/5) for
// a configuration and application data size.
func RunMicroNetwork(pc PathConfig, size int) MicroResult {
	res := MicroResult{Config: pc, Size: size}

	// Throughput: 3 STREAM threads (§3.1.1).
	{
		r := newMicroRig(pc, 1001)
		s := &workload.Stream{Client: r.clientVM, Server: r.serverVM, Port: 5001, Size: size, Threads: 3}
		s.Start(r.c.Eng)
		r.c.Eng.RunUntil(MicroDuration)
		s.Stop()
		res.ThroughputGbps = float64(s.Received) * 8 / MicroDuration.Seconds() / 1e9
	}
	// Closed-loop latency: single TCP_RR.
	{
		r := newMicroRig(pc, 1002)
		rr := &workload.RR{Client: r.clientVM, Server: r.serverVM, Port: 5002, Size: size, Threads: 1, Burst: 1}
		rr.Start(r.c.Eng)
		r.c.Eng.RunUntil(MicroDuration)
		rr.Stop()
		res.AvgLatency = rr.Latency.Mean()
		res.P99Latency = rr.Latency.P99()
	}
	// Pipelined: 3 threads, burst 32.
	{
		r := newMicroRig(pc, 1003)
		rr := &workload.RR{Client: r.clientVM, Server: r.serverVM, Port: 5003, Size: size, Threads: 3, Burst: 32}
		rr.Start(r.c.Eng)
		r.c.Eng.RunUntil(MicroDuration)
		rr.Stop()
		res.BurstTPS = rr.TPS(MicroDuration)
		res.BurstLatency = rr.Latency.Mean()
	}
	return res
}

// CPUResult is one Figure 4 row: logical CPUs used to drive the test.
type CPUResult struct {
	Config PathConfig
	Size   int
	// CPUs is the total logical CPUs busy on the sending server
	// (guest + host) during the test — the Fig. 4 metric.
	CPUs float64
	// ThroughputGbps is what those CPUs achieved.
	ThroughputGbps float64
}

// RunMicroCPU reproduces the Figure 4 setup: four VMs on one server, each
// running a single-threaded TCP_STREAM to a VM on the other server.
func RunMicroCPU(pc PathConfig, size int) CPUResult {
	vcfg, useVF, hwLimit := vswitchConfigFor(pc)
	if pc == ConfigOVSRL {
		// §3.2.2 CPU test: 5 Gbps per VM, oversubscribing the
		// 10 Gbps port 1.5×... (3 VMs in the paper's text; we keep 4
		// VMs and scale the limit).
		vcfg.RateLimitBps = 5e9
	}
	c := cluster.New(cluster.Config{Servers: 2, VSwitchCfg: vcfg, Seed: 2000})
	const nVMs = 4
	var senders, receivers []*host.VM
	for i := 0; i < nVMs; i++ {
		sIP := packet.MakeIP(10, 0, 1, byte(10+i))
		rIP := packet.MakeIP(10, 0, 1, byte(100+i))
		s, err := c.AddVM(0, 1, sIP, 4, nil)
		if err != nil {
			panic(err)
		}
		r, err := c.AddVM(1, 1, rIP, 4, nil)
		if err != nil {
			panic(err)
		}
		if !vcfg.Tunneling {
			mustRoute(c, sIP, 0)
			mustRoute(c, rIP, 1)
		}
		senders = append(senders, s)
		receivers = append(receivers, r)
	}
	if useVF {
		pat := rules.TenantPattern(1)
		mod := &openflow.FlowMod{Command: openflow.FlowAdd, Pattern: pat, Out: openflow.PathVF, Priority: 10}
		for _, vm := range append(append([]*host.VM{}, senders...), receivers...) {
			vm.Placer.HandleMessage(mod, 1, nil)
		}
		if err := c.TOR.InstallACL(&rules.TCAMEntry{Pattern: pat, Action: rules.Allow, Priority: 5}); err != nil {
			panic(err)
		}
		if hwLimit > 0 {
			for _, s := range senders {
				c.TOR.SetVFLimit(1, s.Key.IP, 0, hwLimit)
			}
		}
	}
	var streams []*workload.Stream
	for i := range senders {
		st := &workload.Stream{Client: senders[i], Server: receivers[i], Port: 5001, Size: size, Threads: 1}
		st.Start(c.Eng)
		streams = append(streams, st)
	}
	// Warm up, then measure over a clean accounting window.
	warm := 50 * time.Millisecond
	c.Eng.RunUntil(warm)
	c.Servers[0].ResetCPUAccounting()
	c.Eng.RunUntil(warm + MicroDuration)
	var rx uint64
	for _, st := range streams {
		st.Stop()
		rx += st.Received
	}
	return CPUResult{
		Config:         pc,
		Size:           size,
		CPUs:           c.Servers[0].TotalCPUs(MicroDuration),
		ThroughputGbps: float64(rx) * 8 / MicroDuration.Seconds() / 1e9,
	}
}

// Fig3 runs the full Figure 3 grid.
func Fig3() []MicroResult {
	var out []MicroResult
	for _, pc := range Configs3 {
		for _, size := range model.AppDataSizes {
			out = append(out, RunMicroNetwork(pc, size))
		}
	}
	return out
}

// Fig4a runs the baseline CPU-overhead grid (Figure 4a).
func Fig4a() []CPUResult {
	var out []CPUResult
	for _, pc := range Configs3 {
		for _, size := range model.AppDataSizes {
			out = append(out, RunMicroCPU(pc, size))
		}
	}
	return out
}

// Fig4b runs the combined CPU-overhead comparison (Figure 4b).
func Fig4b() []CPUResult {
	var out []CPUResult
	for _, pc := range Configs5 {
		for _, size := range model.AppDataSizes {
			out = append(out, RunMicroCPU(pc, size))
		}
	}
	return out
}

// Fig5 runs the combined network-performance grid (Figure 5).
func Fig5() []MicroResult {
	var out []MicroResult
	for _, pc := range Configs5 {
		for _, size := range model.AppDataSizes {
			out = append(out, RunMicroNetwork(pc, size))
		}
	}
	return out
}
