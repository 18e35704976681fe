package eval

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"envirotrack"
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

// CompareBackends is the backend pair the comparative run of the matrix
// puts side by side: the paper's leader protocol against the
// passive-traces protocol.
var CompareBackends = []string{envirotrack.BackendLeader, envirotrack.BackendPassive}

// BackendMetrics is one backend's side of a matrix cell: the same seeded
// scenario and chaos schedule, measured on the axes where the two
// protocols trade off — tracking accuracy, report continuity, and radio
// cost — plus what the invariant checker made of the run.
type BackendMetrics struct {
	Backend   string `json:"backend"`
	Coherent  bool   `json:"coherent"`
	TrackedOK bool   `json:"tracked_ok"`
	Labels    int    `json:"labels"`
	Reports   int    `json:"reports"`
	// MeanErr and MaxErr are the tracking error (grid hops) between the
	// target's true trajectory and the reported positions.
	MeanErr float64 `json:"mean_err"`
	MaxErr  float64 `json:"max_err"`
	// MeanGap and MaxGap are the intervals between successive pursuer
	// reports; Gaps counts intervals over twice the report period (a
	// report latency the pursuer would notice).
	MeanGap time.Duration `json:"mean_gap"`
	MaxGap  time.Duration `json:"max_gap"`
	Gaps    int           `json:"gaps"`
	// FramesPerSec is total radio transmissions per target-second.
	FramesPerSec float64 `json:"frames_per_sec"`
	// Handovers counts leadership/estimator moves (takeovers +
	// relinquishes); Violations counts proven invariant breaches under
	// the backend's own rule set.
	Handovers  int `json:"handovers"`
	Violations int `json:"violations"`
	// HBLossPct is the share of heartbeat receptions lost (loss and
	// collision), in percent.
	HBLossPct float64 `json:"hb_loss_pct"`
	// CheckedEvents counts the events the invariant checker consumed
	// (zero means it never saw the run).
	CheckedEvents uint64 `json:"checked_events"`
	// ViolationList holds the breaches Violations counts, each with the
	// run tag that selects the run's lines from a -trace-out file.
	ViolationList []envirotrack.InvariantViolation `json:"violation_list,omitempty"`
}

// ComparePoint is one (case, seed) cell of the matrix, with every
// backend's metrics side by side (in the order RunChaos was given them).
type ComparePoint struct {
	Case     string           `json:"case"`
	Seed     int64            `json:"seed"`
	Backends []BackendMetrics `json:"backends"`
}

// CompareSummary aggregates one backend's column of the matrix.
type CompareSummary struct {
	Backend      string  `json:"backend"`
	Cells        int     `json:"cells"`
	CoherentPct  float64 `json:"coherent_pct"`
	TrackedPct   float64 `json:"tracked_pct"`
	MeanErr      float64 `json:"mean_err"`
	MeanGapSec   float64 `json:"mean_gap_sec"`
	Gaps         int     `json:"gaps"`
	FramesPerSec float64 `json:"frames_per_sec"`
	Handovers    int     `json:"handovers"`
	Violations   int     `json:"violations"`
}

// ChaosReport is the outcome of RunChaos: every cell of the matrix and
// one summary row per backend.
type ChaosReport struct {
	Points  []ComparePoint   `json:"points"`
	Summary []CompareSummary `json:"summary"`
}

// RunChaos executes the fault matrix (ChaosCases x seeds 1..trials, 2
// when trials <= 0) once per backend, with every run checked against its
// backend's own invariant rule set. With no backends it runs env.Backend.
// The (case, seed, backend) cells fan across env.Parallel workers and
// take consecutive run tags in that order; points come back in matrix
// order regardless of worker count.
func RunChaos(env *Env, trials int, backends ...string) (ChaosReport, error) {
	if trials <= 0 {
		trials = 2
	}
	if len(backends) == 0 {
		// Leave the cell's backend unset, so env.Backend applies.
		backends = []string{""}
	}
	var scs []Scenario
	for _, c := range ChaosCases {
		sched, err := envirotrack.ParseChaosSchedule(c.Spec)
		if err != nil {
			return ChaosReport{}, fmt.Errorf("eval: chaos case %q: %w", c.Name, err)
		}
		for s := int64(1); s <= int64(trials); s++ {
			for _, be := range backends {
				sc := chaosBase(s)
				sc.Chaos = sched
				sc.Backend = be
				scs = append(scs, sc)
			}
		}
	}
	results, err := env.runAll(env.sweep("chaos", "runs"), env.Parallel, env.tagBlock(len(scs)), scs)
	if err != nil {
		return ChaosReport{}, err
	}
	var rep ChaosReport
	per := len(backends)
	for i := 0; i < len(results); i += per {
		p := ComparePoint{Case: ChaosCases[i/(per*trials)].Name, Seed: results[i].Scenario.Seed}
		for _, res := range results[i : i+per] {
			p.Backends = append(p.Backends, backendMetrics(res))
		}
		rep.Points = append(rep.Points, p)
	}
	rep.Summary = SummarizeComparison(rep.Points)
	return rep, nil
}

// backendMetrics distills one run into its cell column.
func backendMetrics(res RunResult) BackendMetrics {
	m := BackendMetrics{
		Backend:       res.Scenario.Backend,
		Coherent:      res.Coherent(),
		TrackedOK:     res.TrackedOK,
		Labels:        res.Labels,
		Reports:       len(res.Reports),
		MeanErr:       res.Track.MeanError(),
		MaxErr:        res.Track.MaxError(),
		Handovers:     res.Handover.Takeovers + res.Handover.Relinquish,
		Violations:    len(res.Violations),
		HBLossPct:     100 * res.HBLoss,
		CheckedEvents: res.CheckedEvents,
		ViolationList: res.Violations,
	}
	if m.Backend == "" {
		m.Backend = envirotrack.BackendLeader
	}
	if res.Duration > 0 {
		m.FramesPerSec = float64(res.FramesSent) / res.Duration.Seconds()
	}
	noticeable := 2 * res.Scenario.ReportEvery
	var total time.Duration
	for i := 1; i < len(res.Reports); i++ {
		gap := res.Reports[i].At - res.Reports[i-1].At
		total += gap
		if gap > m.MaxGap {
			m.MaxGap = gap
		}
		if gap > noticeable {
			m.Gaps++
		}
	}
	if n := len(res.Reports) - 1; n > 0 {
		m.MeanGap = total / time.Duration(n)
	}
	return m
}

// SummarizeComparison folds the matrix into one row per backend.
func SummarizeComparison(points []ComparePoint) []CompareSummary {
	byBackend := make(map[string]*CompareSummary)
	var order []string
	var coherent, tracked map[string]int
	coherent, tracked = make(map[string]int), make(map[string]int)
	for _, p := range points {
		for _, m := range p.Backends {
			s, ok := byBackend[m.Backend]
			if !ok {
				s = &CompareSummary{Backend: m.Backend}
				byBackend[m.Backend] = s
				order = append(order, m.Backend)
			}
			s.Cells++
			if m.Coherent {
				coherent[m.Backend]++
			}
			if m.TrackedOK {
				tracked[m.Backend]++
			}
			s.MeanErr += m.MeanErr
			s.MeanGapSec += m.MeanGap.Seconds()
			s.Gaps += m.Gaps
			s.FramesPerSec += m.FramesPerSec
			s.Handovers += m.Handovers
			s.Violations += m.Violations
		}
	}
	sort.Strings(order)
	out := make([]CompareSummary, 0, len(order))
	for _, be := range order {
		s := byBackend[be]
		if s.Cells > 0 {
			n := float64(s.Cells)
			s.CoherentPct = 100 * float64(coherent[be]) / n
			s.TrackedPct = 100 * float64(tracked[be]) / n
			s.MeanErr /= n
			s.MeanGapSec /= n
			s.FramesPerSec /= n
		}
		out = append(out, *s)
	}
	return out
}

// Violations totals the proven violations across every backend.
func (r ChaosReport) Violations() int {
	total := 0
	for _, s := range r.Summary {
		total += s.Violations
	}
	return total
}

// Render prints the matrix cell by cell, then the per-backend summary
// rows, then every proven violation.
func (r ChaosReport) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Chaos suite: tracking under injected faults (invariant-checked)")
	fmt.Fprintf(&b, "%-16s %5s %-8s %9s %8s %7s %8s %8s %8s %9s %5s %9s %8s %10s %5s\n",
		"case", "seed", "backend", "coherent", "tracked", "labels", "reports", "mean_err", "max_gap",
		"frames/s", "hand", "hb_loss%", "events", "violations", "gaps")
	for _, p := range r.Points {
		for _, m := range p.Backends {
			fmt.Fprintf(&b, "%-16s %5d %-8s %9t %8t %7d %8d %8.2f %8.1f %9.1f %5d %9.1f %8d %10d %5d\n",
				p.Case, p.Seed, m.Backend, m.Coherent, m.TrackedOK, m.Labels, m.Reports, m.MeanErr,
				m.MaxGap.Seconds(), m.FramesPerSec, m.Handovers, m.HBLossPct, m.CheckedEvents,
				m.Violations, m.Gaps)
		}
	}
	fmt.Fprintln(&b, "\nper-backend summary:")
	fmt.Fprintf(&b, "%-8s %6s %9s %8s %8s %9s %9s %5s %10s %5s\n",
		"backend", "cells", "coherent%", "tracked%", "mean_err", "mean_gap", "frames/s", "hand", "violations", "gaps")
	for _, s := range r.Summary {
		fmt.Fprintf(&b, "%-8s %6d %9.0f %8.0f %8.2f %8.1fs %9.1f %5d %10d %5d\n",
			s.Backend, s.Cells, s.CoherentPct, s.TrackedPct, s.MeanErr,
			s.MeanGapSec, s.FramesPerSec, s.Handovers, s.Violations, s.Gaps)
	}
	if n := r.Violations(); n > 0 {
		fmt.Fprintf(&b, "%d invariant violation(s):\n", n)
		for _, p := range r.Points {
			for _, m := range p.Backends {
				for _, v := range m.ViolationList {
					fmt.Fprintf(&b, "  case %s seed %d backend %s run %d: [%s] at %v: %s\n",
						p.Case, p.Seed, m.Backend, v.Run, v.Invariant, v.At, v.Detail)
				}
			}
		}
	} else {
		fmt.Fprintln(&b, "all protocol invariants held")
	}
	return b.String()
}
