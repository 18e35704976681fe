package eval

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"envirotrack"
	"envirotrack/internal/eval/runpar"
	"envirotrack/internal/obs"
)

// Env is what every harness runs under: the engine and tracking backend
// for scenarios that leave them unset, the observers attached to each
// run, how wide sweeps fan out, and where sweep progress goes. The zero
// Env runs unobserved, leader-tracked runs on the serial engine, with one
// sweep worker per CPU.
//
// An Env also owns what its runs leave behind: their health series and
// the ledger of run tags. Use one Env per logical invocation (etsim
// builds one from its flags) and pass it by pointer; harnesses sharing an
// Env may run concurrently.
type Env struct {
	// Backend is the tracking backend ("leader" or "passive") for
	// scenarios that don't pin one; "" is the leader protocol.
	Backend string
	// Shards > 1 runs scenarios that don't pin ParallelShards on the
	// free-running parallel engine with that many shard goroutines (see
	// envirotrack.WithParallelShards); 0 or 1 is the serial engine.
	// Parallel results are statistically equivalent to serial, not
	// byte-identical, and deterministic per (seed, shard count).
	Shards int
	// Sink receives every run's events, tagged with the run's tag. It
	// must be safe for concurrent use when sweeps run in parallel (every
	// sink in internal/obs is).
	Sink obs.Sink
	// Metrics, when set, receives protocol metrics derived from every run
	// (per-type event counts, handover-latency and leader-tenure
	// histograms) and an eval_runs_total counter of completed runs.
	Metrics *obs.Registry
	// SelfProfile, when set, attributes every run's scheduler work. Its
	// counters are atomic, so one profile aggregates a parallel sweep.
	SelfProfile *envirotrack.SelfProfile
	// SeriesEvery > 0 samples a health series from every run on that
	// sim-time cadence; Series returns them.
	SeriesEvery time.Duration
	// Parallel bounds how many runs a sweep executes at once: 0 is one
	// per CPU, 1 the serial loop. Every run is seeded and owns its
	// scheduler, so results are identical at any width. Negative widths
	// are a caller bug; they behave like 0.
	Parallel int
	// Progress, when set, receives live sweep progress (jobs done/total,
	// rate, ETA), overwriting one line per update.
	Progress io.Writer

	mu      sync.Mutex
	lastTag int64 // highest run tag handed out
	series  []RunSeries
}

// RunSeries is one run's health series, tagged for identification within
// a sweep.
type RunSeries struct {
	Run       int64
	Seed      int64
	SpeedHops float64
	Series    *envirotrack.Series
}

// Series returns the health series gathered so far, in run-tag order.
// Harnesses hand out tags in sweep order, so this is the sweep order at
// any Parallel width.
func (e *Env) Series() []RunSeries {
	e.mu.Lock()
	out := append([]RunSeries(nil), e.series...)
	e.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Run < out[j].Run })
	return out
}

// tagBlock reserves n consecutive run tags and returns the first. A
// harness reserves its block before it fans out, so a run's tag depends
// on its index in the sweep and on what the Env ran before, never on the
// sweep width; runs sharing a sink stay separable even when cells reuse
// seeds.
func (e *Env) tagBlock(n int) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	first := e.lastTag + 1
	e.lastTag += int64(n)
	return first
}

// seedTag reserves the tag of a lone seeded run: the seed itself, as a
// single run has always been tagged, unless an earlier block took it.
func (e *Env) seedTag(seed int64) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case seed > e.lastTag:
		e.lastTag = seed
	case seed > 0:
		e.lastTag++
		seed = e.lastTag
	}
	return seed
}

// runAll runs scs as one sweep: the i-th under run tag first+i, all of
// them fanned across workers by runpar.Map under ctx. Results come back in
// scs order at any width. Every harness runs its scenarios through here,
// so a sweep's tags and traces follow from its scenario list alone.
func (e *Env) runAll(ctx context.Context, workers int, first int64, scs []Scenario) ([]RunResult, error) {
	return runpar.Map(ctx, workers, len(scs), func(_ context.Context, i int) (RunResult, error) {
		sc := scs[i]
		sc.Run = first + int64(i)
		res, err := Run(e, sc)
		if err != nil {
			return RunResult{}, fmt.Errorf("run %d: %w", sc.Run, err)
		}
		return res, nil
	})
}

// resolve applies sc's defaults, then the Env's backend and shard count
// where sc leaves them zero. A scenario's own ParallelShards wins, so 1
// pins the serial engine whatever Env.Shards says.
func (e *Env) resolve(sc Scenario) Scenario {
	sc = sc.withDefaults()
	if sc.Backend == "" {
		sc.Backend = e.Backend
	}
	if sc.ParallelShards == 0 {
		sc.ParallelShards = e.Shards
	}
	return sc
}

// observe builds the network options one resolved scenario runs with
// beyond its physics (engine, profile, event bus) and a hook that starts
// its health series. checker is the run's private invariant checker (nil
// when the scenario doesn't request one); unlike Env.Sink it is never
// shared across runs.
func (e *Env) observe(sc Scenario, checker *envirotrack.InvariantChecker) (opts []envirotrack.Option, onNet func(*envirotrack.Network)) {
	if sc.ParallelShards > 1 {
		opts = append(opts, envirotrack.WithParallelShards(sc.ParallelShards))
	}
	if e.SelfProfile != nil {
		opts = append(opts, envirotrack.WithSelfProfile(e.SelfProfile))
	}
	tag := sc.Run
	if tag == 0 {
		tag = sc.Seed
	}
	var sinks []obs.Sink
	if e.Sink != nil {
		sinks = append(sinks, e.Sink)
	}
	if e.Metrics != nil {
		sinks = append(sinks, obs.NewMetricsSink(e.Metrics))
	}
	if checker != nil {
		sinks = append(sinks, checker)
	}
	if len(sinks) > 0 {
		bus := obs.NewBus(sinks...)
		bus.SetRun(tag)
		opts = append(opts, envirotrack.WithEventBus(bus))
	}
	if e.SeriesEvery > 0 {
		onNet = func(net *envirotrack.Network) {
			rs := RunSeries{Run: tag, Seed: sc.Seed, SpeedHops: sc.SpeedHops, Series: net.StartSeries(e.SeriesEvery)}
			e.mu.Lock()
			e.series = append(e.series, rs)
			e.mu.Unlock()
		}
	}
	return opts, onNet
}

// sweep returns the context a harness hands to runpar.Map: background,
// plus a live progress reporter when Env.Progress is set. name labels the
// sweep; unit is what one job is ("runs", "points").
func (e *Env) sweep(name, unit string) context.Context {
	if e.Progress == nil {
		return context.Background()
	}
	return runpar.WithProgress(context.Background(), progressLine(e.Progress, name, unit, time.Now))
}

// progressLine returns a runpar progress callback that rewrites one line
// on w per completion. The sweep starts as soon as the harness hands its
// context to runpar.Map, so the rate/ETA clock is anchored here:
// anchoring on the first completion would make the first rate estimate
// meaningless.
func progressLine(w io.Writer, name, unit string, now func() time.Time) func(done, total int) {
	var mu sync.Mutex
	start := now()
	return func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		elapsed := now().Sub(start).Seconds()
		rate := float64(done) / elapsed
		line := fmt.Sprintf("\r%s: %d/%d %s", name, done, total, unit)
		if elapsed > 0 && rate > 0 {
			eta := float64(total-done) / rate
			line += fmt.Sprintf(" (%.1f %s/s, ETA %.0fs)", rate, unit, eta)
		}
		if done == total {
			line += " \n"
		}
		fmt.Fprint(w, line)
	}
}
