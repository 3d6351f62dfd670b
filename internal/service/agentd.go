package service

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
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
	"repro/internal/telemetry"
	"repro/internal/vswitch"
)

// Agentd is the fastrak-agentd daemon: one host's local controller plus
// its full data-plane model (vswitch, flow placers, optional SmartNIC,
// express-lane rule mirror) as a long-lived process. It dials the
// fastrak-tord control listener and keeps redialing through the
// openflow.Conn reconnect path when the connection drops.
type Agentd struct {
	Cfg AgentConfig

	rt      *Runtime
	cluster *cluster.Cluster
	svc     *core.AgentService

	rec     *telemetry.Recorder
	reg     *telemetry.Registry
	sampler *telemetry.Sampler

	conn      *openflow.Conn
	connected atomic.Bool
	stopping  atomic.Bool
	stop      chan struct{} // interrupts redial backoff sleeps

	// netMu guards nc, the current TCP stream, swapped on reconnect.
	netMu sync.Mutex
	nc    net.Conn

	adminLn net.Listener
	httpSrv *http.Server
	httpWg  sync.WaitGroup
	wg      sync.WaitGroup // control-connection serve loop

	// tickers belong to the engine thread: synthetic traffic streams to
	// stop on shutdown.
	tickers []*sim.Ticker
}

// StartAgentd builds the daemon, dials the ToR controller (retrying with
// the configured backoff budget) and starts the measurement cadence on
// wall time.
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

	a := &Agentd{Cfg: cfg, cluster: c, stop: make(chan struct{})}

	// Initial dial, with the same backoff budget as reconnects: at boot
	// the ToR daemon may simply not be up yet.
	nc, err := a.dialRetry()
	if err != nil {
		return nil, err
	}
	a.setNetConn(nc)
	a.conn = openflow.NewConn(nc)
	a.conn.SetDialer(a.dialOnce)
	if err := a.conn.Handshake(); err != nil {
		nc.Close()
		return nil, fmt.Errorf("service: agentd handshake: %w", err)
	}
	a.connected.Store(true)

	// The server's ID is its rack-wide wire identity: demand reports and
	// sync acks carry it, and the ToR daemon attaches/acks-gates by it.
	// Must be set before the controller is built (the ME snapshots it).
	c.Servers[0].ID = int(cfg.ServerID)
	toTOR := openflow.NewRemoteTransport(a.conn.WriteFrame)
	a.svc = core.NewAgentService(c, cfg.Controller.coreConfig(), toTOR)
	a.attachTelemetry()

	if cfg.ListenAdmin != "none" {
		adminLn, lerr := net.Listen("tcp", cfg.ListenAdmin)
		if lerr != nil {
			nc.Close()
			return nil, fmt.Errorf("service: agentd admin listen: %w", lerr)
		}
		a.adminLn = adminLn
	}

	a.rt = NewRuntime(c.Eng, clock)
	a.rt.Do(func() {
		a.rt.registerMetrics(a.reg)
		a.svc.Start()
	})

	a.wg.Add(1)
	go a.serveLoop()
	if a.adminLn != nil {
		a.httpSrv = &http.Server{Handler: adminapi.New(a.adminHooks())}
		a.httpWg.Add(1)
		go func() {
			defer a.httpWg.Done()
			_ = a.httpSrv.Serve(a.adminLn)
		}()
	}
	return a, nil
}

// AdminAddr is the bound admin listener address ("" when disabled).
func (a *Agentd) AdminAddr() string {
	if a.adminLn == nil {
		return ""
	}
	return a.adminLn.Addr().String()
}

// Connected reports whether the control connection is currently up.
func (a *Agentd) Connected() bool { return a.connected.Load() }

func (a *Agentd) setNetConn(nc net.Conn) {
	a.netMu.Lock()
	a.nc = nc
	a.netMu.Unlock()
}

// dialOnce is the openflow.Dialer: one attempt, fail-fast while the
// daemon is stopping so a shutdown never blocks on a dead controller.
func (a *Agentd) dialOnce() (io.ReadWriter, error) {
	if a.stopping.Load() {
		return nil, fmt.Errorf("service: agentd stopping")
	}
	nc, err := net.DialTimeout("tcp", a.Cfg.TORAddr, a.Cfg.DialTimeout.D())
	if err != nil {
		return nil, err
	}
	a.setNetConn(nc)
	return nc, nil
}

func (a *Agentd) dialRetry() (net.Conn, error) {
	var lastErr error
	for i := 0; i < a.Cfg.ReconnectAttempts; i++ {
		nc, err := net.DialTimeout("tcp", a.Cfg.TORAddr, a.Cfg.DialTimeout.D())
		if err == nil {
			return nc, nil
		}
		lastErr = err
		time.Sleep(openflow.ReconnectDelay(a.Cfg.ReconnectBackoff.D(), i))
	}
	return nil, fmt.Errorf("service: agentd dial %s: %w", a.Cfg.TORAddr, lastErr)
}

func (a *Agentd) attachTelemetry() {
	eng := a.cluster.Eng
	a.rec = telemetry.NewRecorder(eng.Now, telemetry.Config{})
	a.reg = telemetry.NewRegistry()
	a.cluster.AttachTelemetry(a.rec, a.reg)
	a.svc.M.AttachTelemetry(a.rec, a.reg)
	if iv := a.Cfg.SampleInterval.D(); iv > 0 {
		a.sampler = telemetry.NewSampler(a.reg, iv)
		a.sampler.Tick(eng.Now())
		eng.Every(iv, func() { a.sampler.Tick(eng.Now()) })
	}
}

// serveLoop reads control messages and runs the engine on each (Post); on connection failure it redials through Conn.Reconnect with
// the clamped exponential backoff, checking for shutdown between
// attempts. It exits when the redial budget is exhausted or the daemon
// stops.
func (a *Agentd) serveLoop() {
	defer a.wg.Done()
	for {
		// Serve's error is discarded deliberately: io.EOF is NOT an
		// orderly end here — a ToR daemon restart closes the stream
		// cleanly and the agent must still redial. The only orderly exit
		// is our own shutdown.
		_ = openflow.Serve(a.conn, agentHandler{a})
		a.connected.Store(false)
		if a.stopping.Load() {
			return
		}
		recovered := false
		for i := 0; i < a.Cfg.ReconnectAttempts; i++ {
			select {
			case <-a.stop:
				return
			case <-time.After(openflow.ReconnectDelay(a.Cfg.ReconnectBackoff.D(), i)):
			}
			if a.conn.Reconnect() == nil {
				recovered = true
				break
			}
		}
		if !recovered {
			return
		}
		a.connected.Store(true)
	}
}

// agentHandler runs the engine on the reader goroutine, for its message.
type agentHandler struct{ a *Agentd }

func (h agentHandler) HandleMessage(msg openflow.Message, xid uint32, _ openflow.ReplyFunc) {
	a := h.a
	a.rt.Post(func() {
		a.svc.LC.HandleMessage(msg, xid, func(m openflow.Message, x uint32) {
			_ = a.conn.SendXID(m, x) // best-effort: a lost reply is a lost frame
		})
	})
}

func (a *Agentd) adminHooks() adminapi.Hooks {
	return adminapi.Hooks{
		Health: func() adminapi.Health {
			connected := a.connected.Load()
			return adminapi.Health{
				Role:      "agentd",
				NowUS:     a.rt.Now().Microseconds(),
				ServerID:  a.Cfg.ServerID,
				Connected: &connected,
			}
		},
		WriteMetrics: func(w io.Writer) error {
			var err error
			a.rt.Do(func() { err = telemetry.WritePrometheus(w, a.reg) })
			return err
		},
		WriteSeriesCSV: func(w io.Writer) error {
			if a.sampler == nil {
				return nil
			}
			var err error
			a.rt.Do(func() { err = telemetry.WriteSeriesCSV(w, a.sampler) })
			return err
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
	sortVMs(out)
	return out
}

func sortVMs(vms []adminapi.VMInfo) {
	for i := 1; i < len(vms); i++ {
		for j := i; j > 0; j-- {
			a, b := vms[j-1], vms[j]
			if a.Tenant < b.Tenant || (a.Tenant == b.Tenant && a.IP <= b.IP) {
				break
			}
			vms[j-1], vms[j] = b, a
		}
	}
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
// its serve loop, then the controller cadence and traffic streams on the
// engine thread, then the clock driver.
func (a *Agentd) Close() error {
	if a.stopping.Swap(true) {
		return nil
	}
	close(a.stop)
	if a.httpSrv != nil {
		_ = a.httpSrv.Close()
		a.httpWg.Wait()
	}
	a.netMu.Lock()
	if a.nc != nil {
		a.nc.Close() // unblocks the serve loop's Recv
	}
	a.netMu.Unlock()
	a.wg.Wait()
	a.rt.Do(func() {
		for _, t := range a.tickers {
			t.Stop()
		}
		a.svc.Stop()
	})
	a.rt.Close()
	return nil
}
