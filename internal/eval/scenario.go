// Package eval contains the experiment harnesses that regenerate every
// table and figure of the paper's evaluation (Section 6): the tracked-tank
// trajectory (Figure 3), handover success rates (Figure 4), communication
// performance (Table 1), and the maximum-trackable-speed stress tests
// (Figures 5 and 6). The harnesses drive the public envirotrack API, so
// they double as end-to-end exercises of the library.
package eval

import (
	"context"
	"fmt"
	"math"
	"time"

	"envirotrack"
	"envirotrack/internal/core"
)

// Paper constants: grid spacing is one "hop" = 140 m, so speed conversions
// between km/h and hops/second use that scale.
const (
	// MetersPerHop is the paper's grid spacing.
	MetersPerHop = 140.0
	// PursuerID is the mote id of the base station in tracking scenarios.
	PursuerID envirotrack.NodeID = 100_000
)

// KmhToHops converts a physical speed to grid hops per second.
func KmhToHops(kmh float64) float64 {
	return kmh * 1000 / 3600 / MetersPerHop
}

// HopsToKmh converts grid hops per second to km/h.
func HopsToKmh(hops float64) float64 {
	return hops * MetersPerHop * 3600 / 1000
}

// Scenario describes one tracking run: a corridor of motes, a single
// target crossing it, and the Figure 2 tracker context.
type Scenario struct {
	// Cols and Rows size the mote grid (unit spacing).
	Cols, Rows int
	// CommRadius and SensingRadius are CR and SR in grid units.
	CommRadius    float64
	SensingRadius float64
	// SpeedHops is the target speed in hops (grid units) per second.
	SpeedHops float64
	// Heartbeat is the group-management heartbeat period.
	Heartbeat time.Duration
	// HopsPast is the heartbeat propagation budget h.
	HopsPast int
	// DisableRelinquish selects the Figure 5 "worst case": leadership
	// recovery by receive-timer takeover only.
	DisableRelinquish bool
	// ReportEvery is the tracking object's TIMER period (default 5s, as
	// in Figure 2).
	ReportEvery time.Duration
	// Freshness and CriticalMass are the aggregate QoS (default 1s / 2).
	Freshness    time.Duration
	CriticalMass int
	// LossProb is the iid channel loss probability.
	LossProb float64
	// CPUService and QueueCap model the constrained mote CPU; zero means
	// an infinitely fast CPU.
	CPUService time.Duration
	QueueCap   int
	// MarginHops trims the target path away from the field edges.
	MarginHops float64
	// Seed makes the run deterministic.
	Seed int64
	// Run tags the run's events on the observability bus and its health
	// series (so a shared sink can separate interleaved parallel runs); 0
	// uses Seed. The harnesses set distinct tags from their Env.
	Run int64
	// CrossTraffic enables background traffic between non-participating
	// motes (the Section 6.2 bottleneck experiment).
	CrossTraffic bool
	// DisableCSMA ablates carrier sensing at the MAC.
	DisableCSMA bool
	// FloodSuppressOff ablates the broadcast-storm suppression of
	// heartbeat relaying.
	FloodSuppressOff bool
	// Chaos is a fault schedule replayed during the run (crashes, loss
	// steps/ramps, partitions, duplication). Empty injects nothing.
	Chaos envirotrack.ChaosSchedule
	// CheckInvariants attaches a protocol invariant checker to the run;
	// proven violations land in RunResult.Violations.
	CheckInvariants bool
	// ParallelShards > 1 executes the run on the free-running parallel
	// engine with that many shard goroutines (the serial run until its
	// first boundary frame, statistically equivalent after it; see
	// RunEquivalence); 1 pins the serial engine; 0 uses Env.Shards.
	ParallelShards int
	// Backend selects the tracking backend ("leader" or "passive");
	// empty uses Env.Backend, then leader. The invariant checker follows:
	// leader runs get I1–I5, passive runs the passive rule set.
	Backend string
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Cols == 0 {
		sc.Cols = 11
	}
	if sc.Rows == 0 {
		sc.Rows = 2
	}
	if sc.CommRadius == 0 {
		sc.CommRadius = 2
	}
	if sc.SensingRadius == 0 {
		sc.SensingRadius = 1.5
	}
	if sc.SpeedHops == 0 {
		sc.SpeedHops = 0.1
	}
	if sc.Heartbeat == 0 {
		sc.Heartbeat = 500 * time.Millisecond
	}
	if sc.ReportEvery == 0 {
		sc.ReportEvery = 5 * time.Second
	}
	if sc.Freshness == 0 {
		sc.Freshness = time.Second
	}
	if sc.CriticalMass == 0 {
		sc.CriticalMass = 2
	}
	if sc.MarginHops == 0 {
		sc.MarginHops = 0.5
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	return sc
}

// TrackReport is what the tracking object sends to the pursuer.
type TrackReport struct {
	Label envirotrack.Label
	Loc   envirotrack.Point
	At    time.Duration
}

// RunResult collects everything an experiment needs from one run.
type RunResult struct {
	Scenario  Scenario
	Duration  time.Duration
	Reports   []TrackReport
	Track     envirotrack.TrackLog
	Handover  envirotrack.HandoverSummary
	HBLoss    float64 // fraction of heartbeat receptions lost (loss + collision)
	MsgLoss   float64 // fraction of member-reading receptions lost
	LinkUtil  float64 // worst-case utilization of the 50 kb/s channel
	TrackedOK bool    // target still covered by the surviving label at the end
	Labels    int     // distinct labels created
	// Violations holds the invariant breaches proven by the checker
	// (only populated with Scenario.CheckInvariants).
	Violations []envirotrack.InvariantViolation
	// CheckedEvents counts the events the invariant checker consumed
	// (zero means it never saw the run).
	CheckedEvents uint64
	// FramesSent totals radio transmissions across all message kinds
	// (the comparative harness normalizes it per target-second).
	FramesSent uint64
}

// Run executes one tracking scenario to the end of the target's path
// under env.
func Run(env *Env, sc Scenario) (RunResult, error) {
	sc = env.resolve(sc)

	midY := float64(sc.Rows-1) / 2
	// The target enters from outside the field so that sensing begins at a
	// single corner mote and the group forms incrementally, as a real
	// vehicle approaching a deployment would.
	start := envirotrack.Pt(-sc.SensingRadius, midY)
	end := envirotrack.Pt(float64(sc.Cols-1)-sc.MarginHops, midY)
	traj, err := envirotrack.NewWaypoints([]envirotrack.Point{start, end}, sc.SpeedHops)
	if err != nil {
		return RunResult{}, fmt.Errorf("eval: %w", err)
	}
	duration := traj.EndTime()

	opts := []envirotrack.Option{
		envirotrack.WithGrid(sc.Cols, sc.Rows),
		envirotrack.WithCommRadius(sc.CommRadius),
		envirotrack.WithSensing(envirotrack.VehicleSensing("vehicle")),
		envirotrack.WithSeed(sc.Seed),
		envirotrack.WithLossProb(sc.LossProb),
	}
	if sc.CPUService > 0 {
		opts = append(opts, envirotrack.WithMoteCPU(sc.CPUService, sc.QueueCap))
	}
	if sc.DisableCSMA {
		opts = append(opts, envirotrack.WithoutCSMA())
	}
	checker := checkerFor(sc)
	obsOpts, onNet := env.observe(sc, checker)
	opts = append(opts, obsOpts...)
	net, err := envirotrack.New(opts...)
	if err != nil {
		return RunResult{}, err
	}
	if onNet != nil {
		onNet(net)
	}
	if err := net.InjectFaults(sc.Chaos); err != nil {
		return RunResult{}, err
	}

	target := &envirotrack.Target{
		Name:            "tank",
		Kind:            "vehicle",
		Traj:            traj,
		SignatureRadius: sc.SensingRadius,
	}
	net.AddTarget(target)

	var reports []TrackReport
	var track envirotrack.TrackLog
	spec := trackerSpec(sc)
	if err := net.AttachContextAll(spec); err != nil {
		return RunResult{}, err
	}

	pursuerPos := envirotrack.Pt(float64(sc.Cols-1), float64(sc.Rows))
	pursuer, err := net.AddMote(PursuerID, pursuerPos, nil)
	if err != nil {
		return RunResult{}, err
	}
	pursuer.OnMessage(func(nm envirotrack.NodeMessage) {
		tr, ok := nm.Payload.(TrackReport)
		if !ok {
			return
		}
		// Node-local time: under the free-running parallel engine the
		// callback runs on the pursuer's shard goroutine, whose clock leads
		// the committed global clock by up to one lookahead window.
		now := pursuer.Now()
		tr.At = now
		reports = append(reports, tr)
		track.Record(now, target.PositionAt(now), tr.Loc)
	})

	if sc.CrossTraffic {
		addCrossTraffic(net, sc)
	}

	// Let the group settle after the target reaches the end of its path
	// (it remains parked there) before judging coverage: a handover may be
	// in flight at the exact end time.
	settle := 5*sc.Heartbeat + 2*time.Second
	if err := net.Run(duration + settle); err != nil {
		return RunResult{}, err
	}
	if env.Metrics != nil {
		env.Metrics.Counter("eval_runs_total", "Simulation runs completed.").Inc()
	}

	res := RunResult{
		Scenario: sc,
		Duration: duration,
		Reports:  reports,
		Track:    track,
		Handover: net.Ledger().Summarize("tracker"),
		HBLoss:   net.Stats().LossFraction("heartbeat"),
		MsgLoss:  net.Stats().LossFraction("reading"),
		LinkUtil: net.Stats().LinkUtilization(net.Now(), 50_000),
		Labels:   net.Ledger().DistinctLabels("tracker"),
	}
	for _, k := range net.Stats().Kinds() {
		res.FramesSent += net.Stats().Kind(k).Sent
	}
	res.TrackedOK = coveredAtEnd(net, target, sc)
	if checker != nil {
		checker.Finish(net.Now())
		res.Violations = checker.Violations()
		res.CheckedEvents = checker.Events()
	}
	return res, nil
}

// checkerFor builds the run's invariant checker (nil when disabled),
// configured with the scenario's actual protocol timing: the member
// report cadence is the stack's own derivation core.ReportPeriod
// (Pe = Le - d), not the group-config default.
func checkerFor(sc Scenario) *envirotrack.InvariantChecker {
	if !sc.CheckInvariants {
		return nil
	}
	var parts []envirotrack.InvariantPartition
	for _, p := range sc.Chaos.Partitions {
		w := envirotrack.InvariantPartition{X: p.X, At: p.At}
		if p.For > 0 {
			w.Until = p.At + p.For
		}
		parts = append(parts, w)
	}
	return envirotrack.NewInvariantChecker(envirotrack.InvariantConfig{
		Backend:      sc.Backend,
		Heartbeat:    sc.Heartbeat,
		ReportPeriod: core.ReportPeriod(sc.Freshness),
		CommRadius:   sc.CommRadius,
		Partitions:   parts,
	})
}

// trackerSpec is the Figure 2 context declaration, parameterized by the
// scenario QoS.
func trackerSpec(sc Scenario) envirotrack.ContextType {
	return envirotrack.ContextType{
		Name:    "tracker",
		Backend: sc.Backend,
		Activation: func(rd envirotrack.Reading) bool {
			v, _ := rd.Value("magnetic_detect")
			return v > 0.5
		},
		Vars: []envirotrack.AggVar{{
			Name:         "location",
			Func:         envirotrack.Centroid,
			Input:        envirotrack.PositionInput,
			Freshness:    sc.Freshness,
			CriticalMass: sc.CriticalMass,
		}},
		Objects: []envirotrack.Object{{
			Name: "reporter",
			Methods: []envirotrack.Method{{
				Name:   "report_function",
				Period: sc.ReportEvery,
				Body: func(ctx *envirotrack.Ctx, _ envirotrack.Trigger) {
					if loc, ok := ctx.ReadPosition("location"); ok {
						ctx.SendNode(PursuerID, TrackReport{Label: ctx.Label(), Loc: loc})
					}
				},
			}},
		}},
		Group: envirotrack.GroupConfig{
			HeartbeatPeriod:   sc.Heartbeat,
			HopsPast:          sc.HopsPast,
			DisableRelinquish: sc.DisableRelinquish,
			FloodSuppress:     suppressThreshold(sc.FloodSuppressOff),
		},
	}
}

// coveredAtEnd reports whether, at the end of the run, the target is still
// covered by a live context label (some leader within SR+CR of it). A run
// where tracking died silently fails this check even with a clean ledger.
func coveredAtEnd(net *envirotrack.Network, target *envirotrack.Target, sc Scenario) bool {
	pos := target.PositionAt(net.Now())
	horizon := sc.SensingRadius + sc.CommRadius
	for _, id := range net.Nodes() {
		node, ok := net.Node(id)
		if !ok || id == PursuerID {
			continue
		}
		if node.Leading("tracker") && node.Pos().Dist(pos) <= horizon {
			return true
		}
	}
	return false
}

// Coherent is the Figure 5/6 success criterion: the single-group
// abstraction was maintained for the whole run — exactly one context label
// ever existed (a target "rediscovered independently at different points
// along its track" spawns more, even if weight suppression later merges
// them) — and tracking was still alive at the end.
func (r RunResult) Coherent() bool {
	return r.Handover.Created == 1 && r.TrackedOK
}

// addCrossTraffic wires periodic background frames between the first-row
// edge motes, which are outside the tracked corridor's center (Section
// 6.2's bottleneck identification experiment: cross traffic left the
// trackable-speed curve unchanged, implicating the CPU, not bandwidth).
func addCrossTraffic(net *envirotrack.Network, sc Scenario) {
	ids := net.Nodes()
	if len(ids) < 4 {
		return
	}
	period := sc.Heartbeat
	if period <= 0 {
		period = 500 * time.Millisecond
	}
	// Two streams in opposite directions between the grid corners.
	_ = net.AddCrossTraffic(ids[0], ids[1], period, 0)
	_ = net.AddCrossTraffic(ids[len(ids)-2], ids[len(ids)-3], period, 0)
}

// suppressThreshold returns the broadcast-storm suppression setting: the
// default (0) normally, or an effectively-infinite threshold for the
// ablation (no rebroadcast is ever suppressed).
func suppressThreshold(off bool) int {
	if off {
		return 1 << 20
	}
	return 0
}

// speedGrid is the ladder of candidate speeds (hops/s) used by the
// maximum-trackable-speed search.
var speedGrid = []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 2.5, 3, 4}

// scanRuns is how many run tags one speed scan reserves: one per (rung,
// seed), whether or not the scan reaches the rung.
func scanRuns(seeds []int64) int { return len(speedGrid) * len(seeds) }

// maxTrackableSpeed finds the highest speed (hops/s) on the grid at which
// the scenario remains coherent in a majority of trial seeds. It scans
// from fast to slow and returns 0 when even the slowest speed fails. The
// per-seed trials of each speed fan across workers, starting at run tag
// firstTag (a block of scanRuns(seeds) tags); the speed ladder itself
// stays sequential because each rung's majority vote decides whether the
// scan stops. The Figure 5/6 sweeps parallelize across sweep points and
// run each point's seed loop inline (workers == 1) without compounding
// concurrency.
func maxTrackableSpeed(ctx context.Context, env *Env, base Scenario, seeds []int64, workers int, firstTag int64) (float64, error) {
	for i := len(speedGrid) - 1; i >= 0; i-- {
		scs := make([]Scenario, len(seeds))
		for k, seed := range seeds {
			scs[k] = base
			scs[k].SpeedHops = speedGrid[i]
			scs[k].Seed = seed
		}
		results, err := env.runAll(ctx, workers, firstTag+int64(i*len(seeds)), scs)
		if err != nil {
			return 0, err
		}
		ok := 0
		for _, res := range results {
			if res.Coherent() {
				ok++
			}
		}
		if ok*2 > len(seeds) {
			return speedGrid[i], nil
		}
	}
	return 0, nil
}

// almostEqual helps experiment assertions.
func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}
