package eval

import (
	"context"
	"fmt"
	"strings"
	"time"

	"envirotrack/internal/eval/runpar"
)

// --- Figure 5: effect of timers on maximum trackable speed ---

// Figure5Point is one point of the Figure 5 curves.
type Figure5Point struct {
	HeartbeatSec  float64 `json:"heartbeat_s"`
	SensingRadius float64 `json:"sensing_radius"`
	// Mode is "worst-case" (leader failure, takeover-only recovery) or
	// "relinquish" (explicit handoff).
	Mode         string  `json:"mode"`
	MaxSpeedHops float64 `json:"max_speed_hops"`
}

// Figure5Config bounds the sweep so callers can trade fidelity for time.
type Figure5Config struct {
	// Heartbeats to sweep (seconds).
	// Default {0.03125, 0.0625, 0.125, 0.25, 0.5, 1, 2, 4}.
	Heartbeats []float64
	// Radii to sweep (grid units). Default {1, 2}.
	Radii []float64
	// Seeds per point (majority vote). Default {1, 2}.
	Seeds []int64
	// IncludeRelinquish adds the flat "relinquish" reference line.
	IncludeRelinquish bool
}

func (c Figure5Config) withDefaults() Figure5Config {
	if len(c.Heartbeats) == 0 {
		c.Heartbeats = []float64{0.03125, 0.0625, 0.125, 0.25, 0.5, 1, 2, 4}
	}
	if len(c.Radii) == 0 {
		c.Radii = []float64{1, 2}
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2}
	}
	return c
}

// figure5Scenario is the Section 6.2 stress setup: communication radius 6
// grids, variable sensing radius, constrained CPUs (the paper identified
// CPU processing, not bandwidth, as the breakdown resource at small
// heartbeat periods).
func figure5Scenario(hbSec, radius float64, worstCase bool) Scenario {
	rows := int(2*radius) + 1
	return Scenario{
		Cols: 24, Rows: rows,
		CommRadius:        6,
		SensingRadius:     radius,
		Heartbeat:         time.Duration(hbSec * float64(time.Second)),
		HopsPast:          1,
		DisableRelinquish: worstCase,
		ReportEvery:       5 * time.Second,
		Freshness:         2 * time.Second,
		CriticalMass:      1,
		LossProb:          0.05,
		CPUService:        8 * time.Millisecond,
		QueueCap:          6,
		MarginHops:        1,
	}
}

// RunFigure5 sweeps heartbeat period and sensing radius, measuring the
// maximum trackable speed in the worst case (takeover-only recovery) and
// optionally the relinquish reference. The sweep points fan across
// env.Parallel workers; each point's speed scan runs inline on its
// worker, so the point list is identical to the serial sweep.
func RunFigure5(env *Env, cfg Figure5Config) ([]Figure5Point, error) {
	cfg = cfg.withDefaults()
	type job struct {
		hb, radius float64
		mode       string
	}
	var jobs []job
	for _, radius := range cfg.Radii {
		for _, hb := range cfg.Heartbeats {
			jobs = append(jobs, job{hb: hb, radius: radius, mode: "worst-case"})
		}
		if cfg.IncludeRelinquish {
			// The relinquish line is independent of the heartbeat period;
			// measure it once per radius at the middle heartbeat.
			mid := cfg.Heartbeats[len(cfg.Heartbeats)/2]
			jobs = append(jobs, job{hb: mid, radius: radius, mode: "relinquish"})
		}
	}
	stride := scanRuns(cfg.Seeds)
	first := env.tagBlock(len(jobs) * stride)
	return runpar.Map(env.sweep("fig5", "points"), env.Parallel, len(jobs),
		func(ctx context.Context, i int) (Figure5Point, error) {
			j := jobs[i]
			sc := figure5Scenario(j.hb, j.radius, j.mode == "worst-case")
			speed, err := maxTrackableSpeed(ctx, env, sc, cfg.Seeds, 1, first+int64(i*stride))
			if err != nil {
				return Figure5Point{}, err
			}
			return Figure5Point{
				HeartbeatSec:  j.hb,
				SensingRadius: j.radius,
				Mode:          j.mode,
				MaxSpeedHops:  speed,
			}, nil
		})
}

// RenderFigure5 prints the curves as a table.
func RenderFigure5(points []Figure5Point) string {
	var b strings.Builder
	b.WriteString("Figure 5: effect of timers on maximum trackable speed (hops/s)\n")
	fmt.Fprintf(&b, "%12s %14s %12s %14s\n", "heartbeat(s)", "sense radius", "mode", "max speed")
	for _, p := range points {
		fmt.Fprintf(&b, "%12.3f %14.1f %12s %14.2f\n",
			p.HeartbeatSec, p.SensingRadius, p.Mode, p.MaxSpeedHops)
	}
	return b.String()
}

// --- Figure 6: effect of the CR:SR ratio on maximum trackable speed ---

// Figure6Point is one point of the Figure 6 curves.
type Figure6Point struct {
	Ratio         float64 `json:"ratio"` // CR : SR
	SensingRadius float64 `json:"sensing_radius"`
	MaxSpeedHops  float64 `json:"max_speed_hops"`
}

// Figure6Config bounds the sweep.
type Figure6Config struct {
	// Ratios to sweep. Default {0.75, 1, 1.5, 2, 3}.
	Ratios []float64
	// Radii to sweep. Default {1, 2, 3}.
	Radii []float64
	// Seeds per point. Default {1, 2, 3}.
	Seeds []int64
}

func (c Figure6Config) withDefaults() Figure6Config {
	if len(c.Ratios) == 0 {
		c.Ratios = []float64{0.75, 1, 1.5, 2, 3}
	}
	if len(c.Radii) == 0 {
		c.Radii = []float64{1, 2, 3}
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3}
	}
	return c
}

// RunFigure6 sweeps the communication-to-sensing radius ratio with the
// leadership-relinquish optimization enabled (as in the paper). The
// architecture is expected to break down (speed 0) when CR:SR < 1, since
// nodes outside the leader's radio range sense the event and form
// spurious groups. Sweep points fan across env.Parallel workers, like
// RunFigure5.
func RunFigure6(env *Env, cfg Figure6Config) ([]Figure6Point, error) {
	cfg = cfg.withDefaults()
	type job struct{ radius, ratio float64 }
	var jobs []job
	for _, radius := range cfg.Radii {
		for _, ratio := range cfg.Ratios {
			jobs = append(jobs, job{radius: radius, ratio: ratio})
		}
	}
	stride := scanRuns(cfg.Seeds)
	first := env.tagBlock(len(jobs) * stride)
	return runpar.Map(env.sweep("fig6", "points"), env.Parallel, len(jobs),
		func(ctx context.Context, i int) (Figure6Point, error) {
			j := jobs[i]
			speed, err := maxTrackableSpeed(ctx, env, figure6Scenario(j.radius, j.ratio), cfg.Seeds, 1, first+int64(i*stride))
			if err != nil {
				return Figure6Point{}, err
			}
			return Figure6Point{
				Ratio:         j.ratio,
				SensingRadius: j.radius,
				MaxSpeedHops:  speed,
			}, nil
		})
}

func figure6Scenario(radius, ratio float64) Scenario {
	rows := int(2*radius) + 1
	return Scenario{
		Cols: 24, Rows: rows,
		CommRadius:    radius * ratio,
		SensingRadius: radius,
		Heartbeat:     500 * time.Millisecond,
		HopsPast:      1,
		ReportEvery:   5 * time.Second,
		Freshness:     2 * time.Second,
		CriticalMass:  1,
		LossProb:      0.05,
		MarginHops:    1,
	}
}

// RenderFigure6 prints the curves as a table.
func RenderFigure6(points []Figure6Point) string {
	var b strings.Builder
	b.WriteString("Figure 6: effect of sensory radius on maximum trackable speed (hops/s)\n")
	fmt.Fprintf(&b, "%10s %14s %14s\n", "CR:SR", "sense radius", "max speed")
	for _, p := range points {
		fmt.Fprintf(&b, "%10.2f %14.1f %14.2f\n", p.Ratio, p.SensingRadius, p.MaxSpeedHops)
	}
	return b.String()
}
