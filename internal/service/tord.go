package service

import (
	"fmt"
	"net"

	"repro/internal/adminapi"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/openflow"
)

// Tord is the fastrak-tord daemon: the ToR decision engine as a
// long-lived process. Agents (fastrak-agentd) dial its control listener
// and speak the openflow wire protocol; operators talk to the admin
// HTTP listener.
type Tord struct {
	daemon
	Cfg TordConfig

	svc *core.TORService

	// agents maps each ServerID to the connection registered for it, the
	// newest to claim it; superseded counts the older ones that claim
	// closed. Both are engine state.
	agents     map[uint32]*agentConn
	superseded uint64
}

// agentConn is one connected fastrak-agentd: its socket and the
// transport that writes to it. The transport, serverID and registered
// belong to the engine thread: they are touched only inside Runtime
// closures, so the lazy registration below needs no extra locking.
type agentConn struct {
	nc         net.Conn
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

	t := &Tord{Cfg: cfg, svc: svc, agents: make(map[uint32]*agentConn)}
	t.open(c, svc.M, ccfg, cfg.SampleInterval.D())

	controlLn, err := net.Listen("tcp", cfg.ListenControl)
	if err != nil {
		return nil, fmt.Errorf("service: tord control listen: %w", err)
	}
	t.controlLn = controlLn

	// Everything scheduled so far (sampler ticks) sits at virtual time
	// 0; the runtime takes over and replays it against the wall.
	if err := t.start(c.Eng, clock, cfg.ListenAdmin, t.adminHooks(), func() {
		t.reg.Counter("fastrak_tord_agents_superseded_total", "agent connections closed because a newer one claimed their ServerID", &t.superseded)
		svc.Start()
	}); err != nil {
		controlLn.Close()
		return nil, fmt.Errorf("service: tord %w", err)
	}

	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// ControlAddr is the bound control listener address.
func (t *Tord) ControlAddr() string { return t.controlLn.Addr().String() }

func (t *Tord) acceptLoop() {
	defer t.wg.Done()
	for {
		nc, err := t.controlLn.Accept()
		if err != nil || !t.track(nc) {
			return // shutting down
		}
		t.wg.Add(1)
		go t.serveAgent(nc)
	}
}

// serveAgent runs one agent connection through the daemon's connection
// path. The agent identifies itself lazily: the first message carrying a
// ServerID (a demand report, sync ack or overload hint) attaches it to
// the decision engine; the end of the connection detaches it and
// releases its ack-gating state, unless a newer connection has claimed
// the ID since.
func (t *Tord) serveAgent(nc net.Conn) {
	defer t.wg.Done()
	ac := &agentConn{nc: nc}
	t.serve(nc, tordHandler{t, ac}, func(send openflow.RemoteSender) openflow.ReplyFunc {
		ac.tr = openflow.NewRemoteTransport(send)
		return ac.tr.Reply
	})
	t.rt.Post(func() { t.release(ac) })
}

// release detaches ac's ServerID, unless a newer connection claimed it.
func (t *Tord) release(ac *agentConn) {
	if ac.registered && t.agents[ac.serverID] == ac {
		delete(t.agents, ac.serverID)
		t.svc.DetachLocal(ac.serverID)
	}
}

// tordHandler runs the engine on the read loop of ac, for its message.
type tordHandler struct {
	t  *Tord
	ac *agentConn
}

func (h tordHandler) HandleMessage(msg openflow.Message, xid uint32, reply openflow.ReplyFunc) {
	h.t.rt.Post(func() { h.t.handleFromAgent(h.ac, msg, xid, reply) })
}

// handleFromAgent runs on the engine: on ac's read loop, inside Post. A
// registered connection speaks for its own ServerID only: one that names
// another is closed and detached, so one agent's frames never move what
// the controller holds for another server.
func (t *Tord) handleFromAgent(ac *agentConn, msg openflow.Message, xid uint32, reply openflow.ReplyFunc) {
	id, named := openflow.ServerIDOf(msg)
	switch {
	case !ac.registered:
		if named {
			t.register(ac, id)
		}
	case t.agents[ac.serverID] != ac:
		return // superseded or released and closed: what it had buffered is stale
	case named && id != ac.serverID:
		ac.nc.Close()
		t.release(ac)
		return
	}
	t.svc.TC.HandleMessage(msg, xid, reply)
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
	t.svc.AttachLocal(id, ac.tr)
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
func (t *Tord) Close() error { return t.shutdown(t.svc.Stop) }
