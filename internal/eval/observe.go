package eval

import (
	"sync"
	"time"

	"envirotrack"
	"envirotrack/internal/obs"
)

// obsCfg is the package-level observability configuration applied to every
// Run. Like SetParallelism, it is process-wide so the CLI and benchmarks
// can switch tracing on without threading options through every harness.
// The sinks in this package's scope are all safe for concurrent use, so a
// parallel sweep can share one sink; each run's bus tags events with the
// scenario seed for post-hoc separation.
var obsCfg struct {
	mu          sync.Mutex
	sink        obs.Sink
	metrics     *obs.MetricsSink
	cadence     time.Duration
	series      []TaggedSeries
	runs        *obs.Counter // optional runs-completed counter
	selfProfile *envirotrack.SelfProfile
	shardHealth *envirotrack.ShardHealth
	parallel    int
	backend     string
}

// SetBackend makes every subsequent Run use the named tracking backend
// for scenarios that don't pin one explicitly ("" restores the leader
// default). Like the other package-level knobs this is process-wide, so
// the CLI's -backend flag reaches every experiment harness.
func SetBackend(name string) {
	obsCfg.mu.Lock()
	defer obsCfg.mu.Unlock()
	obsCfg.backend = name
}

// defaultBackend reads the SetBackend configuration.
func defaultBackend() string {
	obsCfg.mu.Lock()
	defer obsCfg.mu.Unlock()
	return obsCfg.backend
}

// SetParallelShards makes every subsequent Run execute on the
// free-running parallel engine with k shard goroutines (see
// envirotrack.WithParallelShards); k < 2 restores the serial engine.
// Parallel results are not byte-identical to serial — they are
// statistically equivalent, which the equivalence battery asserts — but
// they stay deterministic per (seed, shard count).
func SetParallelShards(k int) {
	obsCfg.mu.Lock()
	defer obsCfg.mu.Unlock()
	obsCfg.parallel = k
}

// SetEventSink attaches a sink to every subsequent Run's event bus; nil
// detaches it. The sink must be safe for concurrent use when sweeps run
// in parallel (every sink in internal/obs is).
func SetEventSink(s obs.Sink) {
	obsCfg.mu.Lock()
	defer obsCfg.mu.Unlock()
	obsCfg.sink = s
}

// SetMetricsRegistry derives protocol metrics (per-type event counts,
// handover-latency and leader-tenure histograms) from every subsequent
// Run into reg; nil disables. It also registers an eval_runs_total
// counter tracking completed runs.
func SetMetricsRegistry(reg *obs.Registry) {
	obsCfg.mu.Lock()
	defer obsCfg.mu.Unlock()
	if reg == nil {
		obsCfg.metrics = nil
		obsCfg.runs = nil
		return
	}
	obsCfg.metrics = obs.NewMetricsSink(reg)
	obsCfg.runs = reg.Counter("eval_runs_total", "Simulation runs completed.")
}

// SetSelfProfile attaches a scheduler self-profile to every subsequent
// Run; nil disables. The profile's counters are atomic, so one profile
// aggregates a parallel sweep.
func SetSelfProfile(p *envirotrack.SelfProfile) {
	obsCfg.mu.Lock()
	defer obsCfg.mu.Unlock()
	obsCfg.selfProfile = p
}

// SetShardHealth attaches a boundary-health aggregator to every
// subsequent Run; nil disables. Each parallel-shard run folds its
// boundary accounting (per-pair mailbox frames, minimum delivery slack,
// lookahead violations) into the aggregator when it finishes; serial runs
// contribute nothing.
func SetShardHealth(h *envirotrack.ShardHealth) {
	obsCfg.mu.Lock()
	defer obsCfg.mu.Unlock()
	obsCfg.shardHealth = h
}

// observeShardHealth folds one finished run into the configured
// boundary-health aggregator, if any.
func observeShardHealth(net *envirotrack.Network) {
	obsCfg.mu.Lock()
	h := obsCfg.shardHealth
	obsCfg.mu.Unlock()
	if h != nil {
		h.Observe(net)
	}
}

// SetSeriesCadence makes every subsequent Run sample a health time series
// on the given sim-time cadence, collected via DrainSeries; 0 disables.
func SetSeriesCadence(d time.Duration) {
	obsCfg.mu.Lock()
	defer obsCfg.mu.Unlock()
	obsCfg.cadence = d
}

// TaggedSeries is one run's health series, tagged for identification
// within a sweep.
type TaggedSeries struct {
	Seed      int64
	SpeedHops float64
	Series    *envirotrack.Series
}

// DrainSeries returns the series collected since the last drain and
// clears the buffer.
func DrainSeries() []TaggedSeries {
	obsCfg.mu.Lock()
	defer obsCfg.mu.Unlock()
	out := obsCfg.series
	obsCfg.series = nil
	return out
}

// observeRun resolves the configured observability for one scenario:
// extra network options and a completion hook (both possibly nil/empty).
// checker is the run's private invariant checker (nil when the scenario
// doesn't request invariant checking); unlike the package-level sink it
// is never shared across parallel runs.
func observeRun(sc Scenario, checker *envirotrack.InvariantChecker) (opts []envirotrack.Option, onNet func(*envirotrack.Network), done func()) {
	obsCfg.mu.Lock()
	sink, metrics, cadence, runs := obsCfg.sink, obsCfg.metrics, obsCfg.cadence, obsCfg.runs
	selfProfile, parallel := obsCfg.selfProfile, obsCfg.parallel
	obsCfg.mu.Unlock()

	if parallel > 1 {
		opts = append(opts, envirotrack.WithParallelShards(parallel))
	}
	if selfProfile != nil {
		opts = append(opts, envirotrack.WithSelfProfile(selfProfile))
	}
	var sinks []obs.Sink
	if sink != nil {
		sinks = append(sinks, sink)
	}
	if metrics != nil {
		sinks = append(sinks, metrics)
	}
	if checker != nil {
		sinks = append(sinks, checker)
	}
	if len(sinks) > 0 {
		bus := obs.NewBus(sinks...)
		tag := sc.Run
		if tag == 0 {
			tag = sc.Seed
		}
		bus.SetRun(tag)
		opts = append(opts, envirotrack.WithEventBus(bus))
	}
	if cadence > 0 {
		onNet = func(net *envirotrack.Network) {
			series := net.StartSeries(cadence)
			obsCfg.mu.Lock()
			obsCfg.series = append(obsCfg.series, TaggedSeries{
				Seed: sc.Seed, SpeedHops: sc.SpeedHops, Series: series,
			})
			obsCfg.mu.Unlock()
		}
	}
	if runs != nil {
		done = runs.Inc
	}
	return opts, onNet, done
}
