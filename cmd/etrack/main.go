// Command etrack runs an EnviroTrack program (the Section 4 declaration
// language) on a simulated sensor field with a moving target, streaming
// every message the program sends to the base station.
//
// The identifiers "base" and "pursuer" in send() statements are bound to a
// base-station mote placed at the field corner.
//
// Usage:
//
//	etrack -grid 12x3 -radius 2.5 -speed 0.1 -duration 60s program.et
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"envirotrack"
)

func main() {
	var (
		grid     = flag.String("grid", "12x3", "mote grid as COLSxROWS")
		radius   = flag.Float64("radius", 2.5, "communication radius (grid units)")
		sense    = flag.Float64("sense", 1.6, "target signature radius (grid units)")
		speed    = flag.Float64("speed", 0.1, "target speed (hops/second)")
		kind     = flag.String("kind", "vehicle", "target phenomenon kind")
		duration = flag.Duration("duration", 60*time.Second, "simulated run time")
		seed     = flag.Int64("seed", 1, "simulation seed")
		hb       = flag.Duration("heartbeat", 500*time.Millisecond, "group heartbeat period")
	)
	flag.Parse()
	if err := run(flag.Args(), *grid, *radius, *sense, *speed, *kind, *duration, *seed, *hb); err != nil {
		fmt.Fprintln(os.Stderr, "etrack:", err)
		os.Exit(1)
	}
}

func run(args []string, grid string, radius, sense, speed float64, kind string, duration time.Duration, seed int64, hb time.Duration) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: etrack [flags] <program.et>")
	}
	switch {
	case math.IsNaN(speed) || math.IsInf(speed, 0) || speed < 0:
		return fmt.Errorf("-speed %v: must be finite and not negative", speed)
	case math.IsNaN(sense) || math.IsInf(sense, 0) || sense <= 0:
		return fmt.Errorf("-sense %v: must be finite and positive", sense)
	case duration < 0:
		return fmt.Errorf("-duration %v: must not be negative", duration)
	case hb < 0:
		return fmt.Errorf("-heartbeat %v: must not be negative (0 means the protocol default)", hb)
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	var cols, rows int
	if _, err := fmt.Sscanf(strings.ToLower(grid), "%dx%d", &cols, &rows); err != nil || cols < 2 || rows < 1 {
		return fmt.Errorf("malformed -grid %q (want COLSxROWS)", grid)
	}

	const baseID envirotrack.NodeID = 100_000
	specs, err := envirotrack.CompileContexts(string(src), envirotrack.CompileEnv{
		Destinations: map[string]envirotrack.NodeID{
			"base":    baseID,
			"pursuer": baseID,
		},
		Logf:  func(format string, a ...any) { fmt.Printf(format+"\n", a...) },
		Group: envirotrack.GroupConfig{HeartbeatPeriod: hb, HopsPast: 1},
	})
	if err != nil {
		return err
	}

	net, err := envirotrack.New(
		envirotrack.WithGrid(cols, rows),
		envirotrack.WithCommRadius(radius),
		envirotrack.WithSensing(envirotrack.VehicleSensing(kind)),
		envirotrack.WithSeed(seed),
		envirotrack.WithLossProb(0.05),
	)
	if err != nil {
		return err
	}
	for _, spec := range specs {
		if err := net.AttachContextAll(spec); err != nil {
			return err
		}
	}
	base, err := net.AddMote(baseID, envirotrack.Pt(float64(cols-1), float64(rows)), nil)
	if err != nil {
		return err
	}

	midY := float64(rows-1) / 2
	traj := envirotrack.Line{
		Start: envirotrack.Pt(-sense, midY),
		Dir:   envirotrack.Vec(1, 0),
		Speed: speed,
	}
	target := &envirotrack.Target{
		Name: "target-1", Kind: kind,
		Traj: traj, SignatureRadius: sense,
	}
	net.AddTarget(target)

	fmt.Printf("field %dx%d, CR=%.1f SR=%.1f, target %.2f hops/s, %v simulated\n",
		cols, rows, radius, sense, speed, duration)

	session := net.RunSession(duration, baseID)
	for ev := range session.Events() {
		if m, ok := ev.Msg.Payload.(envirotrack.LangMessage); ok {
			fmt.Printf("%8.1fs  %-18s %v\n", ev.At.Seconds(), m.From, m.Values)
		}
	}
	if err := session.Wait(); err != nil {
		return err
	}
	_ = base

	sum := net.Ledger().Summarize(specs[0].Name)
	fmt.Printf("\nlabels created=%d takeovers=%d relinquishes=%d coherence violations=%d\n",
		sum.Created, sum.Takeovers, sum.Relinquish, sum.CoherenceViolations())
	fmt.Printf("link utilization %.2f%% of 50 kb/s\n",
		100*net.Stats().LinkUtilization(duration, envirotrack.BitRate))
	return nil
}
