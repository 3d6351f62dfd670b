package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adminapi"
	"repro/internal/openflow"
	"repro/internal/telemetry"
)

// testControllerCfg compresses the control cadence so an offload wave
// lands within a couple of wall-clock seconds.
func testControllerCfg() ControllerConfig {
	return ControllerConfig{
		Epoch:             Duration(50 * time.Millisecond),
		EpochsPerInterval: 2,
		HistoryIntervals:  2,
	}
}

func startPair(t *testing.T) (*Tord, *Agentd) {
	t.Helper()
	tord, err := StartTord(TordConfig{
		ListenControl: "127.0.0.1:0",
		ListenAdmin:   "127.0.0.1:0",
		Controller:    testControllerCfg(),
	}, nil)
	if err != nil {
		t.Fatalf("StartTord: %v", err)
	}
	t.Cleanup(func() { tord.Close() })
	agent, err := StartAgentd(AgentConfig{
		ServerID:    1,
		TORAddr:     tord.ControlAddr(),
		ListenAdmin: "127.0.0.1:0",
		Controller:  testControllerCfg(),
	}, nil)
	if err != nil {
		t.Fatalf("StartAgentd: %v", err)
	}
	t.Cleanup(func() { agent.Close() })
	return tord, agent
}

func apiGet(t *testing.T, addr, path string, out any) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
}

func apiSend(t *testing.T, method, addr, path string, body any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, "http://"+addr+path, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	rb, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %s: %s", method, path, resp.Status, rb)
	}
}

// TestSplitDeploymentOffloadWave is the acceptance path: two real
// in-process daemons on TCP loopback complete tenant onboarding → demand
// reports → a barrier-confirmed offload wave, with /metrics live-scraped
// mid-run, then shut down cleanly.
func TestSplitDeploymentOffloadWave(t *testing.T) {
	tord, agent := startPair(t)

	// The agent registers with the ToR on its first demand report.
	waitFor(t, 10*time.Second, func() bool {
		var h adminapi.Health
		apiGet(t, tord.AdminAddr(), "/healthz", &h)
		return len(h.Agents) == 1 && h.Agents[0] == 1
	})

	// Tenant onboarding through the admin API.
	apiSend(t, "POST", agent.AdminAddr(), "/v1/vms",
		adminapi.VMRequest{Tenant: 3, IP: "10.0.0.1"})
	apiSend(t, "POST", agent.AdminAddr(), "/v1/vms",
		adminapi.VMRequest{Tenant: 3, IP: "10.0.0.2"})
	var vms []adminapi.VMInfo
	apiGet(t, agent.AdminAddr(), "/v1/vms", &vms)
	if len(vms) != 2 {
		t.Fatalf("onboarded %d VMs, want 2", len(vms))
	}

	// Drive a hot flow until the DE offloads it.
	apiSend(t, "POST", agent.AdminAddr(), "/v1/traffic", adminapi.TrafficRequest{
		Tenant: 3, Src: "10.0.0.1", Dst: "10.0.0.2",
		SrcPort: 40000, DstPort: 8080, IntervalUS: 200,
	})

	offloaded := func() bool {
		var ps []adminapi.Placement
		apiGet(t, tord.AdminAddr(), "/v1/placements", &ps)
		for _, p := range ps {
			if p.State == "offloaded" {
				return true
			}
		}
		return false
	}
	waitFor(t, 30*time.Second, offloaded)

	// The agent's placer mirrors the decision...
	waitFor(t, 10*time.Second, func() bool {
		var ps []adminapi.Placement
		apiGet(t, agent.AdminAddr(), "/v1/placements", &ps)
		return len(ps) > 0
	})
	// ...and the ToR's TCAM holds a barrier-confirmed rule.
	var rules adminapi.RulesReply
	apiGet(t, tord.AdminAddr(), "/v1/rules", &rules)
	if len(rules.Rules) == 0 || rules.TCAMUsed == 0 {
		t.Fatalf("no hardware rules after offload wave: %+v", rules)
	}

	// Live mid-run scrape of both daemons.
	for _, addr := range []string{tord.AdminAddr(), agent.AdminAddr()} {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != adminapi.PrometheusContentType {
			t.Fatalf("metrics content-type = %q", ct)
		}
		if !strings.Contains(string(body), "# TYPE") {
			t.Fatalf("metrics exposition missing TYPE lines:\n%.400s", body)
		}
		if err := telemetry.LintPrometheus(bytes.NewReader(body)); err != nil {
			t.Fatalf("metrics exposition of %s: %v", addr, err)
		}
		// Run-to-completion ingest, seen from outside: every frame read is
		// a post, and few of them leave the timer loop anything to wake for.
		posts, nudges := promValue(t, body, "fastrak_service_posts_total"), promValue(t, body, "fastrak_service_loop_nudges_total")
		if posts == 0 || nudges >= posts {
			t.Errorf("%s: %v posts and %v loop nudges", addr, posts, nudges)
		}
	}
	var metrics string
	{
		resp, err := http.Get("http://" + tord.AdminAddr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		metrics = string(b)
	}
	if !strings.Contains(metrics, "fastrak_torctl_installs") {
		t.Fatalf("tord metrics missing controller counters:\n%.400s", metrics)
	}

	// The time-series endpoint carries sampled history.
	resp, err := http.Get("http://" + tord.AdminAddr() + "/series.csv")
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(csv), "fastrak_") {
		t.Fatalf("series.csv has no samples:\n%.200s", csv)
	}

	// Clean shutdown: agent first (detaches at the ToR), then the ToR.
	if err := agent.Close(); err != nil {
		t.Fatalf("agent close: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool {
		var h adminapi.Health
		apiGet(t, tord.AdminAddr(), "/healthz", &h)
		return len(h.Agents) == 0
	})
	if err := tord.Close(); err != nil {
		t.Fatalf("tord close: %v", err)
	}
}

// promValue reads one unlabelled sample from a Prometheus exposition.
func promValue(t *testing.T, body []byte, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no %s in the exposition", name)
	return 0
}

// TestTordCloseMidRound: the detach of a dropped agent runs on its read
// loop, which Close waits for; with two agents in the middle of a round —
// reports going in, replies coming out — Close still returns.
func TestTordCloseMidRound(t *testing.T) {
	tord, err := StartTord(TordConfig{
		ListenControl: "127.0.0.1:0",
		ListenAdmin:   "none",
		Controller:    testControllerCfg(),
	}, nil)
	if err != nil {
		t.Fatalf("StartTord: %v", err)
	}
	var agents sync.WaitGroup
	var rounds atomic.Int64
	for id := uint32(1); id <= 2; id++ {
		nc, err := net.Dial("tcp", tord.ControlAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		conn := openflow.NewConn(nc)
		if err := conn.Handshake(); err != nil {
			t.Fatal(err)
		}
		agents.Add(1)
		go func() {
			defer agents.Done()
			rep := &openflow.DemandReport{ServerID: id, Entries: make([]openflow.DemandEntry, 84)}
			for {
				rep.Interval++
				if _, err := conn.Send(rep); err != nil {
					return
				}
				if _, err := conn.Send(openflow.EchoRequest{}); err != nil {
					return
				}
				for {
					msg, _, err := conn.Recv()
					if err != nil {
						return
					}
					if msg.Type() == openflow.TypeEchoReply {
						break
					}
				}
				rounds.Add(1)
			}
		}()
	}
	waitFor(t, 5*time.Second, func() bool { return rounds.Load() > 200 })
	closed := make(chan error, 1)
	go func() { closed <- tord.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Tord.Close hangs with two agents mid-round")
	}
	agents.Wait()
}

// TestAgentReconnect drops the control connection out from under the
// agent and verifies it redials, re-registers, and keeps reporting.
func TestAgentReconnect(t *testing.T) {
	tord, agent := startPair(t)
	waitFor(t, 10*time.Second, func() bool {
		var h adminapi.Health
		apiGet(t, tord.AdminAddr(), "/healthz", &h)
		return len(h.Agents) == 1
	})

	// Kill the server side of the control connection.
	tord.mu.Lock()
	for nc := range tord.conns {
		nc.Close()
	}
	tord.mu.Unlock()

	// The agent must come back on a fresh stream and re-register via its
	// next report.
	waitFor(t, 15*time.Second, func() bool {
		var h adminapi.Health
		apiGet(t, tord.AdminAddr(), "/healthz", &h)
		return len(h.Agents) == 1 && agent.Connected()
	})
}

// TestAgentOutlivesALongToROutage: an agent whose ToR is gone for longer
// than a budget of fast redials would last comes back once a ToR listens
// on the same address again.
func TestAgentOutlivesALongToROutage(t *testing.T) {
	cfg := TordConfig{ListenControl: "127.0.0.1:0", ListenAdmin: "none", Controller: testControllerCfg()}
	tord, err := StartTord(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { tord.Close() }()
	agent, err := StartAgentd(AgentConfig{
		ServerID:         1,
		TORAddr:          tord.ControlAddr(),
		ListenAdmin:      "none",
		ReconnectBackoff: Duration(time.Millisecond),
		Controller:       testControllerCfg(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	waitFor(t, 10*time.Second, agent.Connected)

	cfg.ListenControl = tord.ControlAddr()
	tord.Close()
	waitFor(t, 10*time.Second, func() bool { return !agent.Connected() })
	time.Sleep(time.Second) // the outage
	if tord, err = StartTord(cfg, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		var ids []uint32
		tord.rt.Do(func() { ids = tord.svc.AgentIDs() })
		return len(ids) == 1 && agent.Connected()
	})
}

// fakeToR listens for agents and keeps every connection it accepts open
// until the test ends; with hello it says Hello on each, and nothing
// more. accepts counts the connections.
func fakeToR(t *testing.T, hello bool) (addr string, accepts func() int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		accepted []net.Conn
	)
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range accepted {
			nc.Close()
		}
	})
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			accepted = append(accepted, nc)
			mu.Unlock()
			if hello {
				_, _ = nc.Write(openflow.Encode(openflow.Hello{}, 1))
			}
		}
	}()
	return ln.Addr().String(), func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(accepted)
	}
}

// TestAgentRedialsASilentToR: a ToR that accepts and never says Hello is
// hung up on after two control intervals and dialed again.
func TestAgentRedialsASilentToR(t *testing.T) {
	addr, accepts := fakeToR(t, false)

	// On its own goroutine: a StartAgentd that waits for the ToR's Hello
	// must fail the test, not hang it.
	type started struct {
		agent *Agentd
		err   error
	}
	start := make(chan started, 1)
	go func() {
		agent, err := StartAgentd(AgentConfig{
			ServerID:         1,
			TORAddr:          addr,
			ListenAdmin:      "none",
			ReconnectBackoff: Duration(time.Millisecond),
			Controller:       ControllerConfig{Epoch: Duration(10 * time.Millisecond), EpochsPerInterval: 2},
		}, nil)
		start <- started{agent, err}
	}()
	waitFor(t, 5*time.Second, func() bool { return accepts() >= 2 })
	s := <-start
	if s.err != nil {
		t.Fatal(s.err)
	}
	if s.agent.Connected() {
		t.Error("connected to a ToR that never said Hello")
	}
	s.agent.Close()
}

// TestAgentRedialsWhenWritesFail: an agent whose connection stops taking
// writes after the Hello — its socket's write side is shut, while the
// ToR, which says Hello and then nothing, leaves it readable — hangs up
// at its next failed write and dials again.
func TestAgentRedialsWhenWritesFail(t *testing.T) {
	addr, accepts := fakeToR(t, true)
	agent, err := StartAgentd(AgentConfig{
		ServerID:         1,
		TORAddr:          addr,
		ListenAdmin:      "none",
		ReconnectBackoff: Duration(time.Millisecond),
		Controller:       ControllerConfig{Epoch: Duration(10 * time.Millisecond), EpochsPerInterval: 2},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	waitFor(t, 5*time.Second, agent.Connected)
	agent.mu.Lock()
	for nc := range agent.conns {
		if err := nc.(*net.TCPConn).CloseWrite(); err != nil {
			t.Error(err)
		}
	}
	agent.mu.Unlock()
	waitFor(t, 5*time.Second, func() bool { return accepts() >= 2 })
}

// TestTordRuleCRUD exercises admin pin/unpin against the live install
// machinery.
func TestTordRuleCRUD(t *testing.T) {
	tord, agent := startPair(t)
	waitFor(t, 10*time.Second, func() bool {
		var h adminapi.Health
		apiGet(t, tord.AdminAddr(), "/healthz", &h)
		return len(h.Agents) == 1
	})
	_ = agent

	spec := adminapi.PatternSpec{Tenant: 7, Dst: "10.0.7.1", DstPort: 443}
	apiSend(t, "POST", tord.AdminAddr(), "/v1/rules", spec)
	waitFor(t, 10*time.Second, func() bool {
		var rep adminapi.RulesReply
		apiGet(t, tord.AdminAddr(), "/v1/rules", &rep)
		return rep.TCAMUsed > 0
	})
	apiSend(t, "DELETE", tord.AdminAddr(), "/v1/rules", spec)
	waitFor(t, 10*time.Second, func() bool {
		var rep adminapi.RulesReply
		apiGet(t, tord.AdminAddr(), "/v1/rules", &rep)
		return rep.TCAMUsed == 0
	})
}

// roundTripConfig and unknownFieldConfig are TestConfigRoundTrip's files,
// and seeds of FuzzLoadConfig.
const (
	roundTripConfig = `{
		"listen_control": "127.0.0.1:7001",
		"tcam_capacity": 128,
		"sample_interval": "250ms",
		"controller": {"epoch": "50ms", "lease_ttl": "2s"}
	}`
	unknownFieldConfig = `{"listen_ctrl": "oops"}`
)

// TestConfigRoundTrip covers the JSON duration forms and unknown-field
// rejection.
func TestConfigRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/tord.json"
	if err := writeFile(path, roundTripConfig); err != nil {
		t.Fatal(err)
	}
	var cfg TordConfig
	if err := LoadConfig(path, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.ListenControl != "127.0.0.1:7001" || cfg.TCAMCapacity != 128 {
		t.Fatalf("bad config: %+v", cfg)
	}
	if cfg.SampleInterval.D() != 250*time.Millisecond ||
		cfg.Controller.Epoch.D() != 50*time.Millisecond ||
		cfg.Controller.LeaseTTL.D() != 2*time.Second {
		t.Fatalf("durations mis-parsed: %+v", cfg)
	}

	bad := dir + "/bad.json"
	if err := writeFile(bad, unknownFieldConfig); err != nil {
		t.Fatal(err)
	}
	if err := LoadConfig(bad, &cfg); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
