// Vehicle tracking: the paper's Section 6.1 case study.
//
// A T-72 tank (44 tons, detectable by magnetometers at ~100 m) crosses a
// border deployment of motes spaced 140 m apart (one grid unit). The tank
// moves at 50 km/h — 10 seconds per hop. The tracking context is written
// in the EnviroTrack declaration language (Figure 2) and compiled by the
// embedded preprocessor; the pursuer receives position reports every 5
// seconds and prints the real-vs-estimated track, reproducing Figure 3.
//
//	go run ./examples/vehicletracking
package main

import (
	"fmt"
	"log"
	"time"

	"envirotrack"
)

const program = `
begin context tracker
    activation: magnetic_sensor_reading()
    location : avg(position) confidence=2, freshness=1s
    begin object reporter
        invocation: TIMER(5s)
        report_function() {
            send(pursuer, self:label, location);
        }
    end
end context
`

const (
	pursuerID    envirotrack.NodeID = 10_000
	metersPerHop                    = 140.0
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	specs, err := envirotrack.CompileContexts(program, envirotrack.CompileEnv{
		Destinations: map[string]envirotrack.NodeID{"pursuer": pursuerID},
		Group: envirotrack.GroupConfig{
			HeartbeatPeriod: 500 * time.Millisecond,
			HopsPast:        1, // propagate heartbeats past the sensing radius (Figure 4's winning setting)
		},
	})
	if err != nil {
		return err
	}

	net, err := envirotrack.New(
		envirotrack.WithGrid(11, 2),
		envirotrack.WithCommRadius(2.0),
		envirotrack.WithSensing(envirotrack.VehicleSensing("vehicle")),
		envirotrack.WithLossProb(0.05), // the unreliable MICA medium
		envirotrack.WithSeed(7),
	)
	if err != nil {
		return err
	}
	for _, spec := range specs {
		if err := net.AttachContextAll(spec); err != nil {
			return err
		}
	}
	if _, err := net.AddMote(pursuerID, envirotrack.Pt(10, 2), nil); err != nil {
		return err
	}

	// 50 km/h over 140 m hops = 0.0992 hops/s; the tank drives along
	// y = 0.5, between the two mote rows, as in Figure 3.
	const speedHops = 50.0 * 1000 / 3600 / metersPerHop
	tank := &envirotrack.Target{
		Name: "t72", Kind: "vehicle",
		Traj: envirotrack.Line{
			Start: envirotrack.Pt(-1.5, 0.5),
			Dir:   envirotrack.Vec(1, 0),
			Speed: speedHops,
		},
		SignatureRadius: 1.5, // scaled 100 m magnetic signature
	}
	net.AddTarget(tank)

	fmt.Println("T-72 at 50 km/h over a 140 m grid; reports every 5 s (Figure 3)")
	fmt.Printf("%8s %10s %10s %10s %10s %8s\n", "t(s)", "x_true", "y_true", "x_est", "y_est", "err(m)")

	duration := 120 * time.Second
	session := net.RunSession(duration, pursuerID)
	var worst float64
	for ev := range session.Events() {
		m, ok := ev.Msg.Payload.(envirotrack.LangMessage)
		if !ok || len(m.Values) != 2 {
			continue
		}
		est, ok := m.Values[1].(envirotrack.Point)
		if !ok {
			continue
		}
		truth := tank.PositionAt(ev.At)
		errM := truth.Dist(est) * metersPerHop
		if errM > worst {
			worst = errM
		}
		fmt.Printf("%8.1f %10.3f %10.3f %10.3f %10.3f %8.1f\n",
			ev.At.Seconds(), truth.X, truth.Y, est.X, est.Y, errM)
	}
	if err := session.Wait(); err != nil {
		return err
	}

	sum := net.Ledger().Summarize("tracker")
	fmt.Printf("\nworst position error: %.0f m (sensing radius is %.0f m)\n", worst, 1.5*metersPerHop)
	fmt.Printf("context label coherence: %d label(s), %d handovers, %d violations\n",
		sum.Created, sum.Successful, sum.CoherenceViolations())
	fmt.Printf("heartbeat loss %.1f%%, link utilization %.2f%% of 50 kb/s\n",
		100*net.Stats().LossFraction("heartbeat"),
		100*net.Stats().LinkUtilization(duration, envirotrack.BitRate))
	return nil
}
