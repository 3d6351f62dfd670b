package service

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/adminapi"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/openflow"
	"repro/internal/telemetry"
)

// Tord is the fastrak-tord daemon: the ToR decision engine as a
// long-lived process. Agents (fastrak-agentd) dial its control listener
// and speak the openflow wire protocol; operators talk to the admin
// HTTP listener.
type Tord struct {
	Cfg TordConfig

	rt      *Runtime
	cluster *cluster.Cluster
	svc     *core.TORService

	rec     *telemetry.Recorder
	reg     *telemetry.Registry
	sampler *telemetry.Sampler

	controlLn net.Listener
	adminLn   net.Listener
	httpSrv   *http.Server

	mu      sync.Mutex // guards conns/closing (daemon lifecycle, not engine state)
	conns   map[*agentConn]struct{}
	closing bool
	wg      sync.WaitGroup // accept loop + per-connection read loops
	httpWg  sync.WaitGroup

	// helloWithin bounds the wait for a new connection's Hello.
	helloWithin time.Duration

	// agents maps each ServerID to the connection registered for it, the
	// newest to claim it; superseded counts the older ones that claim
	// closed. Both are engine state.
	agents     map[uint32]*agentConn
	superseded uint64
}

// agentConn is one connected fastrak-agentd. serverID/registered belong
// to the engine thread: they are touched only inside Runtime closures,
// so the lazy registration below needs no extra locking.
type agentConn struct {
	nc         net.Conn
	conn       *openflow.Conn
	tr         *openflow.Transport
	serverID   uint32
	registered bool
}

// StartTord builds the daemon and starts serving. On success the control
// and admin listeners are bound (check ControlAddr/AdminAddr for the
// resolved ports when the config used :0) and the decision cadence is
// running on wall time.
func StartTord(cfg TordConfig, clock Clock) (*Tord, error) {
	cfg.normalize()
	if clock == nil {
		clock = NewWallClock()
	}

	// The ToR process models only the switch: one placeholder server
	// keeps the testbed graph well-formed, all real hosts live in agent
	// processes and attach over TCP.
	c := cluster.New(cluster.Config{
		Servers:      1,
		TCAMCapacity: cfg.TCAMCapacity,
		Seed:         cfg.Seed,
	})
	ccfg := cfg.Controller.coreConfig()
	svc := core.NewTORService(c, ccfg)

	t := &Tord{
		Cfg:         cfg,
		cluster:     c,
		svc:         svc,
		conns:       make(map[*agentConn]struct{}),
		helloWithin: 2 * ccfg.Measure.Epoch * time.Duration(ccfg.Measure.EpochsPerInterval),
		agents:      make(map[uint32]*agentConn),
	}
	t.attachTelemetry()

	controlLn, err := net.Listen("tcp", cfg.ListenControl)
	if err != nil {
		return nil, fmt.Errorf("service: tord control listen: %w", err)
	}
	t.controlLn = controlLn

	if cfg.ListenAdmin != "none" {
		adminLn, err := net.Listen("tcp", cfg.ListenAdmin)
		if err != nil {
			controlLn.Close()
			return nil, fmt.Errorf("service: tord admin listen: %w", err)
		}
		t.adminLn = adminLn
	}

	// Everything scheduled so far (sampler ticks) sits at virtual time
	// 0; the runtime takes over and replays it against the wall.
	t.rt = NewRuntime(c.Eng, clock)
	t.rt.Do(func() {
		t.rt.registerMetrics(t.reg)
		t.reg.Counter("fastrak_tord_agents_superseded_total", "agent connections closed because a newer one claimed their ServerID", &t.superseded)
		svc.Start()
	})

	t.wg.Add(1)
	go t.acceptLoop()
	if t.adminLn != nil {
		t.httpSrv = &http.Server{Handler: adminapi.New(t.adminHooks())}
		t.httpWg.Add(1)
		go func() {
			defer t.httpWg.Done()
			_ = t.httpSrv.Serve(t.adminLn)
		}()
	}
	return t, nil
}

// ControlAddr is the bound control listener address.
func (t *Tord) ControlAddr() string { return t.controlLn.Addr().String() }

// AdminAddr is the bound admin listener address ("" when disabled).
func (t *Tord) AdminAddr() string {
	if t.adminLn == nil {
		return ""
	}
	return t.adminLn.Addr().String()
}

func (t *Tord) attachTelemetry() {
	eng := t.cluster.Eng
	t.rec = telemetry.NewRecorder(eng.Now, telemetry.Config{})
	t.reg = telemetry.NewRegistry()
	t.cluster.AttachTelemetry(t.rec, t.reg)
	t.svc.M.AttachTelemetry(t.rec, t.reg)
	if iv := t.Cfg.SampleInterval.D(); iv > 0 {
		t.sampler = telemetry.NewSampler(t.reg, iv)
		t.sampler.Tick(eng.Now())
		eng.Every(iv, func() { t.sampler.Tick(eng.Now()) })
	}
}

func (t *Tord) acceptLoop() {
	defer t.wg.Done()
	for {
		nc, err := t.controlLn.Accept()
		if err != nil {
			return // listener closed: shutting down
		}
		t.mu.Lock()
		if t.closing {
			t.mu.Unlock()
			nc.Close()
			return
		}
		ac := &agentConn{nc: nc, conn: openflow.NewConn(nc)}
		t.conns[ac] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.serveAgent(ac)
	}
}

// serveAgent runs one agent connection's read loop. A peer that says no
// Hello within two control intervals is closed. The agent identifies
// itself lazily: the first message carrying a ServerID (a demand report,
// sync ack or overload hint) attaches it to the decision engine; a read
// error detaches it and releases its ack-gating state, unless a newer
// connection has claimed the ID since.
func (t *Tord) serveAgent(ac *agentConn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.conns, ac)
		t.mu.Unlock()
		ac.nc.Close()
	}()
	// A deadline fails only on a closed socket, which Handshake reports.
	_ = ac.nc.SetReadDeadline(time.Now().Add(t.helloWithin))
	if err := ac.conn.Handshake(); err != nil {
		return
	}
	_ = ac.nc.SetReadDeadline(time.Time{})
	for {
		msg, xid, err := ac.conn.Recv()
		if err != nil {
			break
		}
		t.rt.Post(func() { t.handleFromAgent(ac, msg, xid) })
	}
	t.rt.Post(func() {
		if ac.registered && t.agents[ac.serverID] == ac {
			delete(t.agents, ac.serverID)
			t.svc.DetachLocal(ac.serverID)
		}
	})
}

// handleFromAgent runs on the engine: on ac's read loop, inside Post.
func (t *Tord) handleFromAgent(ac *agentConn, msg openflow.Message, xid uint32) {
	if !ac.registered {
		if id, ok := serverIDOf(msg); ok {
			t.register(ac, id)
		}
	} else if t.agents[ac.serverID] != ac {
		return // superseded and closed: what it had buffered is stale
	}
	t.svc.TC.HandleMessage(msg, xid, func(m openflow.Message, x uint32) {
		_ = ac.conn.SendXID(m, x) // best-effort: a lost reply is a lost frame
	})
}

// register binds id to ac. The newest connection wins: an agent that
// reconnects while its old socket lingers (half-open after a crash) takes
// the ID over, and the old connection is closed rather than left to
// detach the new one when its read loop ends.
func (t *Tord) register(ac *agentConn, id uint32) {
	if old := t.agents[id]; old != nil {
		old.nc.Close()
		t.superseded++
	}
	t.agents[id] = ac
	ac.serverID, ac.registered = id, true
	// Outbound transport: encode + count exactly as in-sim, then write
	// whole frames onto this agent's stream.
	ac.tr = openflow.NewRemoteTransport(ac.conn.WriteFrame)
	t.svc.AttachLocal(id, ac.tr)
}

// serverIDOf extracts the sender identity from the message kinds local
// controllers originate.
func serverIDOf(msg openflow.Message) (uint32, bool) {
	switch m := msg.(type) {
	case *openflow.DemandReport:
		return m.ServerID, true
	case *openflow.SyncAck:
		return m.ServerID, true
	case *openflow.OverloadHint:
		return m.ServerID, true
	}
	return 0, false
}

func (t *Tord) adminHooks() adminapi.Hooks {
	return adminapi.Hooks{
		Health: func() adminapi.Health {
			var agents []uint32
			t.rt.Do(func() { agents = t.svc.AgentIDs() })
			return adminapi.Health{
				Role:   "tord",
				NowUS:  t.rt.Now().Microseconds(),
				Agents: agents,
			}
		},
		WriteMetrics: func(w io.Writer) error {
			var err error
			t.rt.Do(func() { err = telemetry.WritePrometheus(w, t.reg) })
			return err
		},
		WriteSeriesCSV: func(w io.Writer) error {
			if t.sampler == nil {
				return nil
			}
			var err error
			t.rt.Do(func() { err = telemetry.WriteSeriesCSV(w, t.sampler) })
			return err
		},
		Placements: func() []adminapi.Placement {
			var out []adminapi.Placement
			t.rt.Do(func() {
				for _, p := range t.svc.Placements() {
					out = append(out, adminapi.Placement{
						Pattern:  p.Pattern.String(),
						State:    p.State,
						Attempts: p.Attempts,
					})
				}
			})
			return out
		},
		Rules: func() adminapi.RulesReply {
			var rep adminapi.RulesReply
			t.rt.Do(func() {
				for _, hr := range t.svc.HardwareRules() {
					rep.Rules = append(rep.Rules, adminapi.HardwareRule{
						Pattern:  hr.Pattern.String(),
						Priority: hr.Priority,
						Queue:    hr.Queue,
						Packets:  hr.Packets,
						Bytes:    hr.Bytes,
					})
				}
				rep.TCAMUsed, rep.TCAMCap = t.svc.TCAMUsage()
			})
			return rep
		},
		PinRule: func(ps adminapi.PatternSpec) error {
			p, err := ps.Pattern()
			if err != nil {
				return err
			}
			t.rt.Do(func() { t.svc.Pin(p) })
			return nil
		},
		UnpinRule: func(ps adminapi.PatternSpec) error {
			p, err := ps.Pattern()
			if err != nil {
				return err
			}
			t.rt.Do(func() { t.svc.Unpin(p) })
			return nil
		},
	}
}

// Close drains the daemon: stop accepting admin and control traffic,
// drop agent connections, halt the decision cadence on the engine
// thread, then stop the clock driver. Safe to call more than once.
func (t *Tord) Close() error {
	t.mu.Lock()
	if t.closing {
		t.mu.Unlock()
		return nil
	}
	t.closing = true
	conns := make([]*agentConn, 0, len(t.conns))
	for ac := range t.conns {
		conns = append(conns, ac)
	}
	t.mu.Unlock()

	if t.httpSrv != nil {
		_ = t.httpSrv.Close()
		t.httpWg.Wait()
	}
	t.controlLn.Close()
	for _, ac := range conns {
		ac.nc.Close() // unblocks the read loops, which post their detach
	}
	t.wg.Wait()
	t.rt.Do(t.svc.Stop)
	t.rt.Close()
	return nil
}
