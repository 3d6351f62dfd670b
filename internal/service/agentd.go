package service

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/adminapi"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/smartnic"
	"repro/internal/vswitch"
)

// Agentd is the fastrak-agentd daemon: one host's local controller plus
// its full data-plane model (vswitch, flow placers, optional SmartNIC,
// express-lane rule mirror) as a long-lived process. It dials the
// fastrak-tord control listener and redials, on a fresh connection each
// time, until it is closed.
type Agentd struct {
	daemon
	Cfg AgentConfig

	cluster *cluster.Cluster
	svc     *core.AgentService

	// out is the current connection's sender from its Hello until the
	// connection ends, nil in between: the remote transport writes
	// through it.
	out atomic.Pointer[openflow.RemoteSender]

	// tickers belong to the engine thread: synthetic traffic streams to
	// stop on shutdown.
	tickers []*sim.Ticker
}

// errNotConnected is the remote transport's send error between
// connections: the frame is lost, as on a dead stream.
var errNotConnected = errors.New("service: agentd not connected")

// StartAgentd builds the daemon, starts the measurement cadence on wall
// time and starts dialing the ToR controller. It does not wait for the
// ToR: Connected tells when the control connection is up.
func StartAgentd(cfg AgentConfig, clock Clock) (*Agentd, error) {
	cfg.normalize()
	if clock == nil {
		clock = NewWallClock()
	}

	var nicCfg *smartnic.Config
	if cfg.SmartNICCapacity > 0 {
		def := smartnic.DefaultConfig()
		def.Capacity = cfg.SmartNICCapacity
		nicCfg = &def
	}
	c := cluster.New(cluster.Config{
		Servers:      1,
		TCAMCapacity: cfg.TCAMCapacity,
		Seed:         cfg.Seed,
		VSwitchCfg:   model.VSwitchConfig{Tunneling: true},
		SmartNIC:     nicCfg,
	})

	a := &Agentd{Cfg: cfg, cluster: c}

	// The server's ID is its rack-wide wire identity: demand reports and
	// sync acks carry it, and the ToR daemon attaches/acks-gates by it.
	// Must be set before the controller is built (the ME snapshots it).
	c.Servers[0].ID = int(cfg.ServerID)
	ccfg := cfg.Controller.coreConfig()
	tr := openflow.NewRemoteTransport(a.sendFrame)
	a.svc = core.NewAgentService(c, ccfg, tr)
	a.open(c, a.svc.M, ccfg, cfg.SampleInterval.D())

	if err := a.start(c.Eng, clock, cfg.ListenAdmin, a.adminHooks(), a.svc.Start); err != nil {
		return nil, fmt.Errorf("service: agentd %w", err)
	}
	a.wg.Add(1)
	go a.dialLoop(tr.Reply)
	return a, nil
}

// Connected reports whether the control connection is currently up.
func (a *Agentd) Connected() bool { return a.out.Load() != nil }

// sendFrame is the remote transport's sender: it writes on the current
// connection.
func (a *Agentd) sendFrame(frame []byte) error {
	if send := a.out.Load(); send != nil {
		return (*send)(frame)
	}
	return errNotConnected
}

// dialLoop keeps the agent connected until Close: dial, serve the stream
// on a fresh Conn through the daemon's connection path, back off, dial
// again. Every end of a stream is a reason to redial, io.EOF included: a
// ToR daemon restart closes streams cleanly, and the agent must outlive
// it. The backoff grows with each attempt that reached no Hello and
// starts over after one that did; it sleeps against the stop channel, so
// Close never waits it out. reply is the remote transport's Reply, so a
// reply leaves the way a send does, through the current sender.
func (a *Agentd) dialLoop(reply openflow.ReplyFunc) {
	defer a.wg.Done()
	for attempt := 0; ; attempt++ {
		if nc, err := net.DialTimeout("tcp", a.Cfg.TORAddr, a.Cfg.DialTimeout.D()); err == nil && a.track(nc) {
			a.serve(nc, agentHandler{a}, func(send openflow.RemoteSender) openflow.ReplyFunc {
				a.out.Store(&send)
				attempt = 0
				return reply
			})
			a.out.Store(nil)
		}
		select {
		case <-a.stop:
			return
		case <-time.After(openflow.ReconnectDelay(a.Cfg.ReconnectBackoff.D(), attempt)):
		}
	}
}

// agentHandler runs the engine on the read loop, for its message.
type agentHandler struct{ a *Agentd }

func (h agentHandler) HandleMessage(msg openflow.Message, xid uint32, reply openflow.ReplyFunc) {
	h.a.rt.Post(func() { h.a.svc.LC.HandleMessage(msg, xid, reply) })
}

func (a *Agentd) adminHooks() adminapi.Hooks {
	return adminapi.Hooks{
		Health: func() adminapi.Health {
			connected := a.Connected()
			return adminapi.Health{
				Role:      "agentd",
				NowUS:     a.rt.Now().Microseconds(),
				ServerID:  a.Cfg.ServerID,
				Connected: &connected,
			}
		},
		Placements: func() []adminapi.Placement {
			var out []adminapi.Placement
			a.rt.Do(func() {
				for _, p := range a.svc.LC.Placements() {
					out = append(out, adminapi.Placement{Pattern: p.String(), State: "installed"})
				}
			})
			return out
		},
		VMs:      a.listVMs,
		AddVM:    a.addVM,
		RemoveVM: a.removeVM,
		Traffic:  a.startTraffic,
	}
}

func (a *Agentd) listVMs() []adminapi.VMInfo {
	var out []adminapi.VMInfo
	a.rt.Do(func() {
		for key, vm := range a.cluster.Servers[0].VMs {
			out = append(out, adminapi.VMInfo{
				Tenant: uint32(key.Tenant),
				IP:     key.IP.String(),
				VCPUs:  vm.CPU.Slots(),
			})
		}
	})
	slices.SortFunc(out, func(x, y adminapi.VMInfo) int {
		return cmp.Or(cmp.Compare(x.Tenant, y.Tenant), strings.Compare(x.IP, y.IP))
	})
	return out
}

func (a *Agentd) addVM(req adminapi.VMRequest) error {
	ip, err := packet.ParseIP(req.IP)
	if err != nil {
		return err
	}
	tenant := packet.TenantID(req.Tenant)
	var addErr error
	a.rt.Do(func() {
		if _, addErr = a.cluster.AddVM(0, tenant, ip, req.VCPUs, nil); addErr != nil {
			return
		}
		if req.EgressBps > 0 || req.IngressBps > 0 {
			a.svc.SetVMLimit(vswitch.VMKey{Tenant: tenant, IP: ip}, req.EgressBps, req.IngressBps)
		}
	})
	return addErr
}

func (a *Agentd) removeVM(key adminapi.VMKeySpec) error {
	ip, err := packet.ParseIP(key.IP)
	if err != nil {
		return err
	}
	var rmErr error
	a.rt.Do(func() {
		rmErr = a.svc.RemoveVM(vswitch.VMKey{Tenant: packet.TenantID(key.Tenant), IP: ip})
	})
	return rmErr
}

// startTraffic begins a constant-rate synthetic stream between two local
// VMs — the service-mode stand-in for a tenant workload, used by the
// smoke test and fastrak-ctl to light up the offload path.
func (a *Agentd) startTraffic(req adminapi.TrafficRequest) error {
	src, err := packet.ParseIP(req.Src)
	if err != nil {
		return fmt.Errorf("src: %w", err)
	}
	dst, err := packet.ParseIP(req.Dst)
	if err != nil {
		return fmt.Errorf("dst: %w", err)
	}
	if req.SrcPort == 0 || req.DstPort == 0 {
		return fmt.Errorf("src_port and dst_port are required (0 wildcards in patterns)")
	}
	size := req.SizeBytes
	if size <= 0 {
		size = 64
	}
	interval := time.Duration(req.IntervalUS) * time.Microsecond
	if interval <= 0 {
		interval = time.Millisecond
	}
	tenant := packet.TenantID(req.Tenant)
	var trErr error
	a.rt.Do(func() {
		srcVM, ok := a.cluster.FindVM(tenant, src)
		if !ok {
			trErr = fmt.Errorf("no VM t%d/%s", req.Tenant, req.Src)
			return
		}
		dstVM, ok := a.cluster.FindVM(tenant, dst)
		if !ok {
			trErr = fmt.Errorf("no VM t%d/%s", req.Tenant, req.Dst)
			return
		}
		dstVM.BindApp(req.DstPort, host.AppFunc(func(*host.VM, *packet.Packet) {}))
		ticker := a.cluster.Eng.Every(interval, func() {
			srcVM.Send(dst, req.SrcPort, req.DstPort, size, host.SendOptions{}, nil)
		})
		a.tickers = append(a.tickers, ticker)
		if req.DurationMS > 0 {
			a.cluster.Eng.After(time.Duration(req.DurationMS)*time.Millisecond, ticker.Stop)
		}
	})
	return trErr
}

// Close drains the daemon: admin first, then the control connection and
// its dial loop, then the controller cadence and traffic streams on the
// engine thread, then the clock driver. Safe to call more than once.
func (a *Agentd) Close() error {
	return a.shutdown(func() {
		for _, t := range a.tickers {
			t.Stop()
		}
		a.svc.Stop()
	})
}
