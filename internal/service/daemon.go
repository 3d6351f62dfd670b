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
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// daemon is the shell fastrak-tord and fastrak-agentd share: the Runtime
// that drives the engine, telemetry, the admin listener and its server,
// the live control connections, and the order in which all of it closes.
type daemon struct {
	rt      *Runtime
	reg     *telemetry.Registry
	sampler *telemetry.Sampler

	// within bounds the wait for a new connection's Hello and for each
	// frame written to a peer.
	within time.Duration

	controlLn net.Listener // tord's control listener; nil in agentd
	adminLn   net.Listener
	httpSrv   *http.Server

	mu    sync.Mutex            // guards conns and the close of stop (lifecycle, not engine state)
	conns map[net.Conn]struct{} // live control connections
	stop  chan struct{}         // closed by shutdown: no new connection, no more redials
	wg    sync.WaitGroup        // admin server, accept or dial loop, connections
}

// open prepares the shell around c while the engine is still the
// caller's: telemetry on c and m, a sampler every sampleEvery (none when
// it is not positive), and a Hello and write deadline of two of cc's
// control intervals.
func (d *daemon) open(c *cluster.Cluster, m *core.Manager, cc core.Config, sampleEvery time.Duration) {
	d.conns = make(map[net.Conn]struct{})
	d.stop = make(chan struct{})
	d.within = 2 * cc.Measure.Epoch * time.Duration(cc.Measure.EpochsPerInterval)
	eng := c.Eng
	rec := telemetry.NewRecorder(eng.Now, telemetry.Config{})
	d.reg = telemetry.NewRegistry()
	c.AttachTelemetry(rec, d.reg)
	m.AttachTelemetry(rec, d.reg)
	if sampleEvery > 0 {
		d.sampler = telemetry.NewSampler(d.reg, sampleEvery)
		d.sampler.Tick(eng.Now())
		eng.Every(sampleEvery, func() { d.sampler.Tick(eng.Now()) })
	}
}

// start binds the admin listener (none when listenAdmin is "none"),
// hands eng to a Runtime on clock, runs boot on it, and serves hooks on
// the admin listener with the metrics and series hooks filled in.
func (d *daemon) start(eng *sim.Engine, clock Clock, listenAdmin string, hooks adminapi.Hooks, boot func()) error {
	if listenAdmin != "none" {
		ln, err := net.Listen("tcp", listenAdmin)
		if err != nil {
			return fmt.Errorf("admin listen: %w", err)
		}
		d.adminLn = ln
	}
	d.rt = NewRuntime(eng, clock)
	d.rt.Do(func() {
		d.rt.registerMetrics(d.reg)
		boot()
	})
	if d.adminLn == nil {
		return nil
	}
	hooks.WriteMetrics = func(w io.Writer) error {
		var err error
		d.rt.Do(func() { err = telemetry.WritePrometheus(w, d.reg) })
		return err
	}
	hooks.WriteSeriesCSV = func(w io.Writer) error {
		if d.sampler == nil {
			return nil
		}
		var err error
		d.rt.Do(func() { err = telemetry.WriteSeriesCSV(w, d.sampler) })
		return err
	}
	d.httpSrv = &http.Server{Handler: adminapi.New(hooks)}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = d.httpSrv.Serve(d.adminLn)
	}()
	return nil
}

// AdminAddr is the bound admin listener address ("" when disabled).
func (d *daemon) AdminAddr() string {
	if d.adminLn == nil {
		return ""
	}
	return d.adminLn.Addr().String()
}

// track registers nc as live, so that shutdown ends it. It reports false,
// with nc closed, once the daemon is shutting down.
func (d *daemon) track(nc net.Conn) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	select {
	case <-d.stop:
		nc.Close()
		return false
	default:
		d.conns[nc] = struct{}{}
		return true
	}
}

// serve runs one tracked control connection to its end, the same way in
// both daemons: the peer must say Hello within two control intervals;
// then attach is handed the connection's one sender and returns the
// reply func, and openflow.Serve hands h every message until the stream
// ends. nc is closed and forgotten on return.
func (d *daemon) serve(nc net.Conn, h openflow.Handler, attach func(openflow.RemoteSender) openflow.ReplyFunc) {
	defer func() {
		d.mu.Lock()
		delete(d.conns, nc)
		d.mu.Unlock()
		nc.Close()
	}()
	conn := openflow.NewConn(nc)
	// A deadline fails only on a closed socket, which Handshake reports.
	_ = nc.SetReadDeadline(time.Now().Add(d.within))
	if conn.Handshake() != nil {
		return
	}
	_ = nc.SetReadDeadline(time.Time{})
	reply := attach(func(frame []byte) error {
		// A write that fails, or that the peer does not take within the
		// deadline, closes nc, which ends the read loop below: tord
		// detaches the agent, agentd redials. (The deadline fails only on
		// a closed socket, which the write reports.)
		_ = nc.SetWriteDeadline(time.Now().Add(d.within))
		err := conn.WriteFrame(frame)
		if err != nil {
			nc.Close()
		}
		return err
	})
	// Serve's error is not the daemon's to act on: whatever ended the
	// stream, the connection is over, and only agentd redials.
	_ = openflow.Serve(conn, h, reply)
}

// shutdown drains the daemon in one order: the admin server, the control
// listener, every live connection; then it waits for the network
// goroutines, runs stop on the engine and stops the runtime. Safe to call
// more than once.
func (d *daemon) shutdown(stop func()) error {
	d.mu.Lock()
	select {
	case <-d.stop:
		d.mu.Unlock()
		return nil
	default:
		close(d.stop)
	}
	d.mu.Unlock()

	if d.httpSrv != nil {
		_ = d.httpSrv.Close()
	}
	if d.controlLn != nil {
		d.controlLn.Close()
	}
	d.mu.Lock()
	for nc := range d.conns {
		nc.Close() // unblocks its read loop
	}
	d.mu.Unlock()
	d.wg.Wait()
	d.rt.Do(stop)
	d.rt.Close()
	return nil
}
