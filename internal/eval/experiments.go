package eval

import (
	"fmt"
	"strings"
	"time"

	"envirotrack"
)

// --- Figure 3: tracked tank trajectory ---

// Figure3Result is the real-vs-reported trajectory of the Section 6.1
// case study (T-72 at 10 s/hop over a unit grid, tracker of Figure 2).
type Figure3Result struct {
	Run       RunResult
	MeanError float64
	MaxError  float64
}

// Figure3Scenario returns the Section 6.1 setup: an 11x2 grid, target on
// the horizontal line midway between the rows, 0.1 hops/s (50 km/h
// emulated), Ne=2, Le=1s, reports every 5 s.
func Figure3Scenario(seed int64) Scenario {
	return Scenario{
		Cols: 11, Rows: 2,
		CommRadius:    2.0,
		SensingRadius: 1.5,
		SpeedHops:     0.1,
		Heartbeat:     500 * time.Millisecond,
		HopsPast:      1,
		ReportEvery:   5 * time.Second,
		LossProb:      0.05,
		Seed:          seed,
	}
}

// RunFigure3 executes the trajectory experiment.
func RunFigure3(env *Env, seed int64) (Figure3Result, error) {
	return RunFigure3Under(env, seed, envirotrack.ChaosSchedule{}, false)
}

// RunFigure3Under executes the trajectory experiment under a fault
// schedule, optionally with the protocol invariant checker attached
// (violations land in the result's Run.Violations).
func RunFigure3Under(env *Env, seed int64, sched envirotrack.ChaosSchedule, check bool) (Figure3Result, error) {
	sc := Figure3Scenario(seed)
	sc.Chaos = sched
	sc.CheckInvariants = check
	sc.Run = env.seedTag(sc.withDefaults().Seed)
	res, err := Run(env, sc)
	if err != nil {
		return Figure3Result{}, err
	}
	return Figure3Result{
		Run:       res,
		MeanError: res.Track.MeanError(),
		MaxError:  res.Track.MaxError(),
	}, nil
}

// Render prints the trajectory as the paper's (x, y) series.
func (f Figure3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: tracked tank trajectory (true path y = %.1f)\n", f.Run.Track.Points[0].Actual.Y)
	fmt.Fprintf(&b, "%8s %10s %10s %10s %10s\n", "t(s)", "x_true", "y_true", "x_est", "y_est")
	for _, p := range f.Run.Track.Points {
		fmt.Fprintf(&b, "%8.1f %10.3f %10.3f %10.3f %10.3f\n",
			p.At.Seconds(), p.Actual.X, p.Actual.Y, p.Reported.X, p.Reported.Y)
	}
	fmt.Fprintf(&b, "mean error = %.3f grid units, max error = %.3f grid units\n", f.MeanError, f.MaxError)
	return b.String()
}

// --- Figure 4: successful context-label handovers ---

// Figure4Row is one bar of Figure 4.
type Figure4Row struct {
	SpeedKmh   float64 `json:"speed_kmh"`
	HopsPast   int     `json:"hops_past"`
	SuccessPct float64 `json:"success_pct"`
	Trials     int     `json:"trials"`
}

// RunFigure4 measures handover success for the two emulated tank speeds
// (33 and 50 km/h) under the two heartbeat-propagation settings (h = 0:
// heartbeats stay within the radio radius; h = 1: propagated one hop past
// the sensing perimeter). Each cell averages `trials` seeded runs; the
// cell×trial cross product fans across env.Parallel workers, and the
// per-cell averages are folded in trial order, so the rows are identical
// to the serial sweep.
func RunFigure4(env *Env, trials int) ([]Figure4Row, error) {
	if trials <= 0 {
		trials = 3
	}
	type cell struct {
		h   int
		kmh float64
	}
	cells := []cell{{1, 33}, {1, 50}, {0, 33}, {0, 50}}
	scs := make([]Scenario, 0, len(cells)*trials)
	for _, c := range cells {
		for trial := 1; trial <= trials; trial++ {
			scs = append(scs, figure4Scenario(c.kmh, c.h, int64(trial)))
		}
	}
	results, err := env.runAll(env.sweep("fig4", "runs"), env.Parallel, env.tagBlock(len(scs)), scs)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure4Row, 0, len(cells))
	for ci, c := range cells {
		var sum float64
		for _, res := range results[ci*trials : (ci+1)*trials] {
			sum += res.Handover.StrictSuccessRate()
		}
		rows = append(rows, Figure4Row{
			SpeedKmh:   c.kmh,
			HopsPast:   c.h,
			SuccessPct: 100 * sum / float64(trials),
			Trials:     trials,
		})
	}
	return rows, nil
}

// figure4Scenario: the h=0 case must be marginal — communication radius
// only slightly above the sensing radius, so nodes that newly sense the
// target can be out of earshot of a lagging leader. Relinquish is off, as
// in the paper's first experiment where handover happens by leadership
// changeover along the path.
func figure4Scenario(kmh float64, hopsPast int, seed int64) Scenario {
	return Scenario{
		Cols: 16, Rows: 2,
		CommRadius:        2.0,
		SensingRadius:     1.5,
		SpeedHops:         KmhToHops(kmh),
		Heartbeat:         time.Second,
		HopsPast:          hopsPast,
		DisableRelinquish: true,
		ReportEvery:       5 * time.Second,
		LossProb:          0.12,
		Seed:              seed,
	}
}

// RenderFigure4 prints the histogram rows.
func RenderFigure4(rows []Figure4Row) string {
	var b strings.Builder
	b.WriteString("Figure 4: successful context-label handovers (%)\n")
	fmt.Fprintf(&b, "%-44s %10s %10s\n", "group management setting", "33 km/hr", "50 km/hr")
	byH := map[int]map[float64]float64{}
	for _, r := range rows {
		if byH[r.HopsPast] == nil {
			byH[r.HopsPast] = map[float64]float64{}
		}
		byH[r.HopsPast][r.SpeedKmh] = r.SuccessPct
	}
	fmt.Fprintf(&b, "%-44s %9.1f%% %9.1f%%\n", "propagate heartbeat past sensing radius", byH[1][33], byH[1][50])
	fmt.Fprintf(&b, "%-44s %9.1f%% %9.1f%%\n", "heartbeats only within radius", byH[0][33], byH[0][50])
	return b.String()
}

// --- Table 1: communication performance data ---

// Table1Row is one row of Table 1.
type Table1Row struct {
	SpeedKmh    float64 `json:"speed_kmh"`
	HBLossPct   float64 `json:"hb_loss_pct"`
	MsgLossPct  float64 `json:"msg_loss_pct"`
	LinkUtilPct float64 `json:"link_util_pct"`
	Runs        int     `json:"runs"`
}

// RunTable1 reproduces the communication performance table: per-speed
// heartbeat loss, member-reading loss, and worst-case link utilization,
// averaged over `runs` independent runs of the h=1 (correct) setting. The
// speed×run cross product fans across env.Parallel workers; per-speed
// sums are folded in run order, so the rows match the serial sweep
// exactly.
func RunTable1(env *Env, runs int) ([]Table1Row, error) {
	if runs <= 0 {
		runs = 3
	}
	speeds := []float64{33, 50}
	scs := make([]Scenario, 0, len(speeds)*runs)
	for _, kmh := range speeds {
		for r := 0; r < runs; r++ {
			scs = append(scs, figure4Scenario(kmh, 1, int64(100+r)))
		}
	}
	results, err := env.runAll(env.sweep("table1", "runs"), env.Parallel, env.tagBlock(len(scs)), scs)
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(speeds))
	for si, kmh := range speeds {
		var hb, msg, util float64
		for _, res := range results[si*runs : (si+1)*runs] {
			hb += res.HBLoss
			msg += res.MsgLoss
			util += res.LinkUtil
		}
		rows = append(rows, Table1Row{
			SpeedKmh:    kmh,
			HBLossPct:   100 * hb / float64(runs),
			MsgLossPct:  100 * msg / float64(runs),
			LinkUtilPct: 100 * util / float64(runs),
			Runs:        runs,
		})
	}
	return rows, nil
}

// RenderTable1 prints the table in the paper's layout.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: communication performance data\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s\n", "Speed", "% HB loss", "% Msg loss", "% Link Util")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10.2f %10.2f %10.2f\n",
			fmt.Sprintf("%.0f km/hr", r.SpeedKmh), r.HBLossPct, r.MsgLossPct, r.LinkUtilPct)
	}
	return b.String()
}
