package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"envirotrack"
	"envirotrack/internal/eval/runpar"
)

// CompareBackends is the backend pair the comparative harness runs:
// the paper's leader protocol against the passive-traces protocol.
var CompareBackends = []string{envirotrack.BackendLeader, envirotrack.BackendPassive}

// BackendMetrics is one backend's side of a comparison cell: the same
// seeded scenario and chaos schedule, measured on the axes where the two
// protocols trade off — tracking accuracy, report continuity, and radio
// cost.
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
}

// ComparePoint is one (case, seed) cell of the comparative matrix, with
// every backend's metrics side by side (ordered as CompareBackends).
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

// RunComparative executes the chaos-suite matrix (ChaosCases x seeds
// 1..trials) once per backend, fanning every (case, seed, backend) cell
// across env.Parallel workers, with each backend checked against its
// own invariant rule set. Each cell pins its backend, so env.Backend does
// not apply. Cells come back zipped per (case, seed) in matrix order.
func RunComparative(env *Env, trials int) ([]ComparePoint, error) {
	if trials <= 0 {
		trials = 2
	}
	type cell struct {
		c       ChaosCase
		seed    int64
		backend string
	}
	var cells []cell
	for _, c := range ChaosCases {
		for s := int64(1); s <= int64(trials); s++ {
			for _, be := range CompareBackends {
				cells = append(cells, cell{c: c, seed: s, backend: be})
			}
		}
	}
	first := env.tagBlock(len(cells))
	metrics, err := runpar.Map(env.sweep("compare", "runs"), env.Parallel, len(cells),
		func(_ context.Context, i int) (BackendMetrics, error) {
			cl := cells[i]
			sched, err := envirotrack.ParseChaosSchedule(cl.c.Spec)
			if err != nil {
				return BackendMetrics{}, fmt.Errorf("eval: compare case %q: %w", cl.c.Name, err)
			}
			sc := chaosBase(cl.seed)
			sc.Chaos = sched
			sc.Backend = cl.backend
			sc.Run = first + int64(i)
			res, err := Run(env, sc)
			if err != nil {
				return BackendMetrics{}, fmt.Errorf("eval: compare case %q seed %d backend %s: %w",
					cl.c.Name, cl.seed, cl.backend, err)
			}
			return backendMetrics(cl.backend, res), nil
		})
	if err != nil {
		return nil, err
	}
	var points []ComparePoint
	per := len(CompareBackends)
	for i := 0; i < len(cells); i += per {
		points = append(points, ComparePoint{
			Case:     cells[i].c.Name,
			Seed:     cells[i].seed,
			Backends: metrics[i : i+per],
		})
	}
	return points, nil
}

// backendMetrics distills one run into its comparison column.
func backendMetrics(backend string, res RunResult) BackendMetrics {
	m := BackendMetrics{
		Backend:    backend,
		Coherent:   res.Coherent(),
		TrackedOK:  res.TrackedOK,
		Labels:     res.Labels,
		Reports:    len(res.Reports),
		MeanErr:    res.Track.MeanError(),
		MaxErr:     res.Track.MaxError(),
		Handovers:  res.Handover.Takeovers + res.Handover.Relinquish,
		Violations: len(res.Violations),
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

// RenderComparative prints the matrix cell by cell, then the per-backend
// summary rows.
func RenderComparative(points []ComparePoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Comparative evaluation: leader vs passive-traces tracking backends")
	fmt.Fprintf(&b, "%-16s %5s %-8s %8s %8s %8s %8s %9s %5s %10s %5s\n",
		"case", "seed", "backend", "tracked", "reports", "mean_err", "max_gap", "frames/s", "hand", "violations", "gaps")
	for _, p := range points {
		for _, m := range p.Backends {
			fmt.Fprintf(&b, "%-16s %5d %-8s %8t %8d %8.2f %8.1f %9.1f %5d %10d %5d\n",
				p.Case, p.Seed, m.Backend, m.TrackedOK, m.Reports, m.MeanErr,
				m.MaxGap.Seconds(), m.FramesPerSec, m.Handovers, m.Violations, m.Gaps)
		}
	}
	fmt.Fprintln(&b, "\nper-backend summary:")
	fmt.Fprintf(&b, "%-8s %6s %9s %8s %8s %9s %9s %5s %10s %5s\n",
		"backend", "cells", "coherent%", "tracked%", "mean_err", "mean_gap", "frames/s", "hand", "violations", "gaps")
	for _, s := range SummarizeComparison(points) {
		fmt.Fprintf(&b, "%-8s %6d %9.0f %8.0f %8.2f %8.1fs %9.1f %5d %10d %5d\n",
			s.Backend, s.Cells, s.CoherentPct, s.TrackedPct, s.MeanErr,
			s.MeanGapSec, s.FramesPerSec, s.Handovers, s.Violations, s.Gaps)
	}
	return b.String()
}
