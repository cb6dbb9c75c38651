package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/sim"
)

// runJoin is the worker half of a multi-process cluster: it connects to a
// doall serve, hosts the PID range the serve assigns (the protocol and
// instance size arrive in the welcome frame — a join needs no run flags of
// its own), and exits when the run completes or the serve stays unreachable
// past -reconnect-grace. Killing a join mid-run is a real crash fault; the
// serve books its PIDs as crashed.
func runJoin(args []string) error {
	fs := flag.NewFlagSet("join", flag.ExitOnError)
	var (
		connect   = fs.String("connect", "127.0.0.1:9095", "serve address: host:port, or unix:/path/to.sock")
		grace     = fs.Duration("reconnect-grace", 3*time.Second, "how long to keep redialing a lost serve connection")
		drop      = fs.Float64("chaos-drop", 0, "drop each outbound frame's first transmission with this probability")
		dup       = fs.Float64("chaos-dup", 0, "duplicate outbound frames with this probability")
		reorder   = fs.Float64("chaos-reorder", 0, "hold outbound frames for reordering with this probability")
		chaosSeed = fs.Int64("chaos-seed", 1, "seed for the chaos decisions (deterministic per frame)")
		verbose   = fs.Bool("v", false, "log join lifecycle events")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *grace <= 0 {
		return fmt.Errorf("-reconnect-grace must be positive (got %v)", *grace)
	}
	if strings.TrimSpace(*connect) == "" {
		return fmt.Errorf("-connect must name the serve address")
	}

	network, addr := live.ParseWireAddr(*connect)
	cfg := live.JoinConfig{
		Network: network, Addr: addr,
		Steppers: func(spec live.WireSpec) (func(int) sim.Stepper, error) {
			_, p, err := lookupProtocol(planeProtocols, spec.Protocol)
			if err != nil {
				return nil, err
			}
			return core.SteppersFor(p.Build(spec.Units, spec.Workers, core.Params{}))
		},
		Chaos:          live.WireChaos{Drop: *drop, Dup: *dup, Reorder: *reorder, Seed: *chaosSeed},
		ReconnectGrace: *grace,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	return live.Join(cfg)
}
