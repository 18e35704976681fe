package eval

import (
	"fmt"
	"testing"
)

// checkedFigureGrid is the invariant-checked grid of the paper's
// experiments at seeds 1-20: Figure 4 at both speeds and both heartbeat
// budgets, Figure 5 at heartbeats 0.5 and 1 s, sensing radii 1 and 2 and
// both recovery modes, and Figure 6 at sensing radii 1-3 and CR:SR 0.5
// and 1, with the Figure 5 and 6 targets at 1 hop/s; then Table 1's runs
// (Figure 4 at both speeds, h=1, seeds 100-102).
func checkedFigureGrid() []Scenario {
	var grid []Scenario
	for seed := int64(1); seed <= 20; seed++ {
		for _, kmh := range []float64{33, 50} {
			for _, hopsPast := range []int{0, 1} {
				grid = append(grid, figure4Scenario(kmh, hopsPast, seed))
			}
		}
		for _, hbSec := range []float64{0.5, 1} {
			for _, radius := range []float64{1, 2} {
				for _, worstCase := range []bool{true, false} {
					sc := figure5Scenario(hbSec, radius, worstCase)
					sc.SpeedHops, sc.Seed = 1, seed
					grid = append(grid, sc)
				}
			}
		}
		for _, radius := range []float64{1, 2, 3} {
			for _, ratio := range []float64{0.5, 1} {
				sc := figure6Scenario(radius, ratio)
				sc.SpeedHops, sc.Seed = 1, seed
				grid = append(grid, sc)
			}
		}
	}
	for _, kmh := range []float64{33, 50} {
		for seed := int64(100); seed <= 102; seed++ {
			grid = append(grid, figure4Scenario(kmh, 1, seed))
		}
	}
	return grid
}

// checkedLadder is one base scenario per figure at every rung of the
// maximum-trackable-speed ladder, seeds 1 and 2: the runs past the
// tracking limit are where the protocol is stressed most.
func checkedLadder() []Scenario {
	bases := []Scenario{figure4Scenario(33, 1, 0), figure5Scenario(0.5, 2, true), figure6Scenario(2, 1)}
	var ladder []Scenario
	for _, base := range bases {
		for _, speed := range speedGrid {
			for seed := int64(1); seed <= 2; seed++ {
				sc := base
				sc.SpeedHops, sc.Seed = speed, seed
				ladder = append(ladder, sc)
			}
		}
	}
	return ladder
}

// checkedRun runs sc on backend with the invariant checker attached and
// fails the test on every violation it proves.
func checkedRun(t *testing.T, sc Scenario, backend string) {
	t.Helper()
	sc.Backend, sc.CheckInvariants = backend, true
	res, err := Run(&Env{}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckedEvents == 0 {
		t.Errorf("%s: the invariant checker saw no events", describe(sc))
	}
	for _, v := range res.Violations {
		t.Errorf("%s: %s violation at %v by mote %d: %s", describe(sc), v.Invariant, v.At, v.Mote, v.Detail)
	}
}

func describe(sc Scenario) string {
	return fmt.Sprintf("%s backend, %dx%d field, CR %.2f, SR %.2f, %.2f hops/s, h=%d, seed %d",
		sc.Backend, sc.Cols, sc.Rows, sc.CommRadius, sc.SensingRadius, sc.SpeedHops, sc.HopsPast, sc.Seed)
}

// TestFigureGridHoldsInvariants runs the paper-experiment grid on both
// backends under the checker: the protocol holds every invariant.
func TestFigureGridHoldsInvariants(t *testing.T) {
	checkedOnBothBackends(t, checkedFigureGrid())
}

// TestSpeedLadderHoldsInvariants runs the speed ladder on both backends
// under the checker.
func TestSpeedLadderHoldsInvariants(t *testing.T) {
	checkedOnBothBackends(t, checkedLadder())
}

func checkedOnBothBackends(t *testing.T, scenarios []Scenario) {
	if protocolMutated {
		t.Skip("protocol mutated (-tags chaosmut): violations are the expected outcome")
	}
	for _, backend := range []string{"leader", "passive"} {
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			for _, sc := range scenarios {
				checkedRun(t, sc, backend)
			}
		})
	}
}

// TestTakeoverSilenceReproducers pins the runs whose receive-timer
// firings the checker once misread as early (I2). In the first Figure 6
// run, a member hears the first copy of another label's heartbeat, joins
// it, and drops a later copy as a duplicate. In the second, a mote's radio
// puts a forward on air before its own older heartbeat. In the Figure 5
// run, a heartbeat reaches member 33's radio just before its timer fires
// but waits in the mote's 8 ms CPU queue, so its manager hears it after.
func TestTakeoverSilenceReproducers(t *testing.T) {
	if protocolMutated {
		t.Skip("protocol mutated (-tags chaosmut): violations are the expected outcome")
	}
	for _, c := range []struct {
		radius, ratio float64
		seed          int64
	}{{1, 1, 6}, {3, 0.5, 19}} {
		sc := figure6Scenario(c.radius, c.ratio)
		sc.SpeedHops, sc.Seed = 1, c.seed
		checkedRun(t, sc, "leader")
	}
	sc := figure5Scenario(1, 2, true)
	sc.SpeedHops, sc.Seed = 1, 1
	checkedRun(t, sc, "leader")
}
