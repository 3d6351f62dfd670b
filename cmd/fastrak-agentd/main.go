// Command fastrak-agentd runs the FasTrak per-host local controller and
// data-plane model as a long-lived daemon. It dials the fastrak-tord
// control listener (redialing with backoff until it is stopped),
// measures tenant demand, programs flow placers when offload decisions
// arrive, and mirrors express-lane rules into the host-side data path.
// The admin HTTP listener serves tenant onboarding, placement inspection,
// synthetic traffic control and live telemetry.
//
// Usage:
//
//	fastrak-agentd [-config agent.json] [-server-id N] [-tor ADDR] [-listen-admin ADDR]
//
// On startup it prints one ready line to stdout:
//
//	fastrak-agentd ready server=<id> admin=<addr>
//
// and drains gracefully on SIGINT/SIGTERM. Ready means the admin API is
// up and the daemon is dialing the ToR; it does not wait for the ToR.
// The admin API's /healthz "connected" field tells whether the control
// connection is up.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/service"
)

func main() {
	var (
		configPath  = flag.String("config", "", "JSON config file (service.AgentConfig)")
		serverID    = flag.Uint("server-id", 0, "this host's rack-wide server id (overrides config)")
		torAddr     = flag.String("tor", "", "fastrak-tord control address (overrides config)")
		listenAdmin = flag.String("listen-admin", "", "admin HTTP address (overrides config; \"none\" disables)")
		nicCap      = flag.Int("smartnic", 0, "SmartNIC rule capacity, 0 = no SmartNIC (overrides config)")
	)
	flag.Parse()

	var cfg service.AgentConfig
	if *configPath != "" {
		if err := service.LoadConfig(*configPath, &cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *serverID > 0 {
		cfg.ServerID = uint32(*serverID)
	}
	if *torAddr != "" {
		cfg.TORAddr = *torAddr
	}
	if *listenAdmin != "" {
		cfg.ListenAdmin = *listenAdmin
	}
	if *nicCap > 0 {
		cfg.SmartNICCapacity = *nicCap
	}

	a, err := service.StartAgentd(cfg, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("fastrak-agentd ready server=%d admin=%s\n", a.Cfg.ServerID, a.AdminAddr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("fastrak-agentd draining")
	if err := a.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("fastrak-agentd stopped")
}
