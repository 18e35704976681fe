package eval

import (
	"context"
	"fmt"
	"strings"

	"envirotrack"
	"envirotrack/internal/eval/runpar"
)

// ChaosCase is one named fault scenario of the chaos suite: a tracking
// scenario plus a fault schedule in the textual chaos spec format.
type ChaosCase struct {
	Name string
	Spec string
}

// chaosBase is the tracking scenario every suite case perturbs: the
// default Figure 3 corridor at a slightly faster crossing (a ~60s run)
// so fault windows in the specs land mid-track.
func chaosBase(seed int64) Scenario {
	return Scenario{
		SpeedHops:       0.2,
		HopsPast:        1,
		Seed:            seed,
		CheckInvariants: true,
	}
}

// ChaosCases is the suite matrix. The fault windows are positioned
// around t=30s, when the target (0.2 hops/s from x=-1.5) crosses the
// middle of the 11-column corridor. Every case must hold all protocol
// invariants: faults may cost coherence or tracking accuracy, but a
// proven invariant violation under this matrix is a bug.
var ChaosCases = []ChaosCase{
	{Name: "baseline", Spec: ""},
	{Name: "crash-restore", Spec: "crash:node=5,at=28s,for=8s"},
	{Name: "crash-pair", Spec: "crash:node=5,at=26s,for=10s;crash:node=16,at=30s,for=10s"},
	{Name: "crash-permanent", Spec: "crash:node=4,at=20s"},
	{Name: "loss-burst", Spec: "loss:at=25s,for=10s,p=0.5"},
	{Name: "loss-ramp", Spec: "ramp:from=0,to=0.6,start=10s,end=40s"},
	{Name: "partition-heal", Spec: "partition:x=5,at=25s,for=10s"},
	{Name: "dup-storm", Spec: "dup:at=10s,for=30s,p=0.3"},
	{Name: "kitchen-sink", Spec: "crash:node=5,at=28s,for=8s;loss:at=20s,for=8s,p=0.4;dup:at=35s,for=10s,p=0.2"},
}

// ChaosPoint is one (case, seed) cell of the chaos suite.
type ChaosPoint struct {
	Case          string
	Seed          int64
	Coherent      bool
	TrackedOK     bool
	Labels        int
	HBLoss        float64
	CheckedEvents uint64
	Violations    []envirotrack.InvariantViolation
}

// RunChaosSuite executes every ChaosCases entry under trials seeds each
// (seeds 1..trials), fanning the (case, seed) grid across env.Parallel
// workers, with the invariant checker attached to every run. Results
// come back in matrix order regardless of worker count.
func RunChaosSuite(env *Env, trials int) ([]ChaosPoint, error) {
	if trials <= 0 {
		trials = 2
	}
	type cell struct {
		c    ChaosCase
		seed int64
	}
	var cells []cell
	for _, c := range ChaosCases {
		for s := int64(1); s <= int64(trials); s++ {
			cells = append(cells, cell{c: c, seed: s})
		}
	}
	first := env.tagBlock(len(cells))
	points, err := runpar.Map(env.sweep("chaos", "runs"), env.Parallel, len(cells),
		func(_ context.Context, i int) (ChaosPoint, error) {
			cl := cells[i]
			sched, err := envirotrack.ParseChaosSchedule(cl.c.Spec)
			if err != nil {
				return ChaosPoint{}, fmt.Errorf("eval: chaos case %q: %w", cl.c.Name, err)
			}
			sc := chaosBase(cl.seed)
			sc.Chaos = sched
			sc.Run = first + int64(i)
			res, err := Run(env, sc)
			if err != nil {
				return ChaosPoint{}, fmt.Errorf("eval: chaos case %q seed %d: %w", cl.c.Name, cl.seed, err)
			}
			return ChaosPoint{
				Case:          cl.c.Name,
				Seed:          cl.seed,
				Coherent:      res.Coherent(),
				TrackedOK:     res.TrackedOK,
				Labels:        res.Labels,
				HBLoss:        res.HBLoss,
				CheckedEvents: res.CheckedEvents,
				Violations:    res.Violations,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// TotalViolations sums the violations across a suite result.
func TotalViolations(points []ChaosPoint) int {
	total := 0
	for _, p := range points {
		total += len(p.Violations)
	}
	return total
}

// RenderChaos prints the suite as a per-cell table followed by any
// proven violations.
func RenderChaos(points []ChaosPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Chaos suite: tracking under injected faults (invariant-checked)")
	fmt.Fprintf(&b, "%-16s %5s %9s %8s %7s %9s %8s %11s\n",
		"case", "seed", "coherent", "tracked", "labels", "hb_loss%", "events", "violations")
	for _, p := range points {
		fmt.Fprintf(&b, "%-16s %5d %9t %8t %7d %9.1f %8d %11d\n",
			p.Case, p.Seed, p.Coherent, p.TrackedOK, p.Labels, 100*p.HBLoss,
			p.CheckedEvents, len(p.Violations))
	}
	if n := TotalViolations(points); n > 0 {
		fmt.Fprintf(&b, "%d invariant violation(s):\n", n)
		for _, p := range points {
			for _, v := range p.Violations {
				fmt.Fprintf(&b, "  case %s seed %d: [%s] at %v: %s\n",
					p.Case, p.Seed, v.Invariant, v.At, v.Detail)
			}
		}
	} else {
		fmt.Fprintln(&b, "all protocol invariants held")
	}
	return b.String()
}
