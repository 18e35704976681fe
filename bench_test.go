package envirotrack_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 6), plus micro-benchmarks of the substrates and
// ablation benchmarks of the design choices called out in DESIGN.md.
//
// The experiment benchmarks report the headline numbers of each table or
// figure as custom metrics, so a `go test -bench=.` run regenerates the
// paper's results alongside the timing:
//
//	BenchmarkFigure3   ... mean_err_hops  max_err_hops
//	BenchmarkFigure4   ... h0_50kmh_pct   h1_50kmh_pct ...
//	BenchmarkTable1    ... hb_loss_50_pct msg_loss_50_pct util_50_pct
//	BenchmarkFigure5   ... peak_speed_r1  collapsed_speed_r2 ...
//	BenchmarkFigure6   ... speed_ratio3_r2 breakdown_ratio075 ...

import (
	"io"
	"runtime"
	"testing"
	"time"

	"envirotrack"
	"envirotrack/internal/eval"
)

// benchTrackerSource is the Figure 2 program used by the preprocessor
// benchmarks.
const benchTrackerSource = `
begin context tracker
    activation: magnetic_sensor_reading()
    location : avg(position) confidence=2, freshness=1s
    begin object reporter
        invocation: TIMER(1s)
        report_function() {
            send(pursuer, self:label, location);
        }
    end
end context
`

// benchTrackerContext is the Figure 2 context in API form.
func benchTrackerContext(pursuer envirotrack.NodeID) envirotrack.ContextType {
	return envirotrack.ContextType{
		Name: "tracker",
		Activation: func(rd envirotrack.Reading) bool {
			v, _ := rd.Value("magnetic_detect")
			return v > 0.5
		},
		Vars: []envirotrack.AggVar{{
			Name:         "location",
			Func:         envirotrack.Centroid,
			Input:        envirotrack.PositionInput,
			Freshness:    time.Second,
			CriticalMass: 2,
		}},
		Objects: []envirotrack.Object{{
			Name: "reporter",
			Methods: []envirotrack.Method{{
				Name:   "report_function",
				Period: time.Second,
				Body: func(ctx *envirotrack.Ctx, _ envirotrack.Trigger) {
					if loc, ok := ctx.ReadPosition("location"); ok {
						ctx.SendNode(pursuer, loc)
					}
				},
			}},
		}},
		Group: envirotrack.GroupConfig{
			HeartbeatPeriod: 250 * time.Millisecond,
			HopsPast:        1,
		},
	}
}

func BenchmarkFigure3(b *testing.B) {
	var mean, max float64
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFigure3(&eval.Env{}, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		mean, max = res.MeanError, res.MaxError
	}
	b.ReportMetric(mean, "mean_err_hops")
	b.ReportMetric(max, "max_err_hops")
}

func BenchmarkFigure4(b *testing.B) {
	var rows []eval.Figure4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.RunFigure4(&eval.Env{}, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		name := "h0"
		if r.HopsPast == 1 {
			name = "h1"
		}
		b.ReportMetric(r.SuccessPct, name+"_"+kmhName(r.SpeedKmh)+"_pct")
	}
}

func BenchmarkTable1(b *testing.B) {
	var rows []eval.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.RunTable1(&eval.Env{}, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		suffix := kmhName(r.SpeedKmh)
		b.ReportMetric(r.HBLossPct, "hb_loss_"+suffix+"_pct")
		b.ReportMetric(r.MsgLossPct, "msg_loss_"+suffix+"_pct")
		b.ReportMetric(r.LinkUtilPct, "util_"+suffix+"_pct")
	}
}

func kmhName(kmh float64) string {
	if kmh == 33 {
		return "33kmh"
	}
	return "50kmh"
}

func BenchmarkFigure5(b *testing.B) {
	// Reduced sweep for benchmarking; `etsim -exp fig5` runs the full one.
	cfg := eval.Figure5Config{
		Heartbeats: []float64{0.0625, 0.5, 2},
		Radii:      []float64{1, 2},
		Seeds:      []int64{1},
	}
	var points []eval.Figure5Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = eval.RunFigure5(&eval.Env{}, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Mode != "worst-case" {
			continue
		}
		switch {
		case p.HeartbeatSec == 0.5 && p.SensingRadius == 1:
			b.ReportMetric(p.MaxSpeedHops, "speed_hb0.5_r1")
		case p.HeartbeatSec == 2 && p.SensingRadius == 1:
			b.ReportMetric(p.MaxSpeedHops, "speed_hb2_r1")
		case p.HeartbeatSec == 0.0625 && p.SensingRadius == 2:
			b.ReportMetric(p.MaxSpeedHops, "collapsed_hb0.06_r2")
		case p.HeartbeatSec == 0.5 && p.SensingRadius == 2:
			b.ReportMetric(p.MaxSpeedHops, "speed_hb0.5_r2")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	cfg := eval.Figure6Config{
		Ratios: []float64{0.75, 1.5, 3},
		Radii:  []float64{1, 2},
		Seeds:  []int64{1},
	}
	var points []eval.Figure6Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = eval.RunFigure6(&eval.Env{}, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		switch {
		case p.Ratio == 0.75 && p.SensingRadius == 2:
			b.ReportMetric(p.MaxSpeedHops, "breakdown_ratio0.75_r2")
		case p.Ratio == 3 && p.SensingRadius == 2:
			b.ReportMetric(p.MaxSpeedHops, "speed_ratio3_r2")
		case p.Ratio == 3 && p.SensingRadius == 1:
			b.ReportMetric(p.MaxSpeedHops, "speed_ratio3_r1")
		}
	}
}

// --- ablation benchmarks (design choices from DESIGN.md) ---

// BenchmarkAblationFloodSuppression measures heartbeat transmissions per
// simulated second with and without counter-based broadcast-storm
// suppression: the broadcast storm multiplies channel load.
func BenchmarkAblationFloodSuppression(b *testing.B) {
	run := func(off bool) float64 {
		sc := eval.Scenario{Seed: 1, HopsPast: 1, FloodSuppressOff: off}
		res, err := eval.Run(&eval.Env{}, sc)
		if err != nil {
			b.Fatal(err)
		}
		return res.LinkUtil * 100
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(false)
		without = run(true)
	}
	b.ReportMetric(with, "util_suppressed_pct")
	b.ReportMetric(without, "util_storm_pct")
}

// BenchmarkAblationCSMA measures heartbeat loss with and without carrier
// sensing at the MAC.
func BenchmarkAblationCSMA(b *testing.B) {
	run := func(noCSMA bool) float64 {
		sc := eval.Scenario{Seed: 1, HopsPast: 1, DisableCSMA: noCSMA}
		res, err := eval.Run(&eval.Env{}, sc)
		if err != nil {
			b.Fatal(err)
		}
		return res.HBLoss * 100
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(false)
		without = run(true)
	}
	b.ReportMetric(with, "hb_loss_csma_pct")
	b.ReportMetric(without, "hb_loss_nocsma_pct")
}

// BenchmarkAblationRelinquish measures handover counts with and without
// the explicit leadership-relinquish optimization at a fixed speed.
func BenchmarkAblationRelinquish(b *testing.B) {
	run := func(disable bool) float64 {
		sc := eval.Scenario{Seed: 1, SpeedHops: 1, HopsPast: 1, DisableRelinquish: disable}
		res, err := eval.Run(&eval.Env{}, sc)
		if err != nil {
			b.Fatal(err)
		}
		return res.Handover.StrictSuccessRate() * 100
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(false)
		without = run(true)
	}
	b.ReportMetric(with, "handover_relinquish_pct")
	b.ReportMetric(without, "handover_takeover_pct")
}

// --- micro-benchmarks of the substrates ---

// BenchmarkSimulationThroughput measures simulated tracking on the Figure
// 3 scenario. Besides ns/op it reports the throughput metrics the ROADMAP
// tracks: sim_s_per_wall_s (simulated target-path seconds delivered per
// wall-clock second) and runs/s.
func BenchmarkSimulationThroughput(b *testing.B) {
	var simSeconds float64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := eval.Run(&eval.Env{}, eval.Scenario{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		simSeconds += res.Duration.Seconds()
	}
	wall := time.Since(start).Seconds()
	if wall > 0 {
		b.ReportMetric(simSeconds/wall, "sim_s_per_wall_s")
		b.ReportMetric(float64(b.N)/wall, "runs/s")
	}
}

// settledField deploys a cols x rows unit grid with several concurrent
// targets crossing it on slanted lines and runs it for one settling second
// (group formation, pool warm-up). parShards > 1 runs the field on the
// free-running parallel engine. It returns the network and its live heap
// per mote after the settle, over a baseline taken before construction.
func settledField(tb testing.TB, cols, rows, targets, parShards int, backend string) (*envirotrack.Network, float64) {
	tb.Helper()
	opts := []envirotrack.Option{
		envirotrack.WithGrid(cols, rows),
		envirotrack.WithCommRadius(2.5),
		envirotrack.WithSensing(envirotrack.VehicleSensing("vehicle")),
		envirotrack.WithSeed(1),
	}
	if backend != "" {
		opts = append(opts, envirotrack.WithBackend(backend))
	}
	if parShards > 1 {
		opts = append(opts, envirotrack.WithParallelShards(parShards))
	}
	base := liveHeap()
	n, err := envirotrack.New(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	if err := n.AttachContextAll(benchTrackerContext(envirotrack.NodeID(cols*rows - 1))); err != nil {
		tb.Fatal(err)
	}
	for j := 0; j < targets; j++ {
		slant := 0.2
		if j%2 == 1 {
			slant = -slant
		}
		n.AddTarget(&envirotrack.Target{
			Name: "t" + string(rune('0'+j)), Kind: "vehicle",
			Traj: envirotrack.Line{
				Start: envirotrack.Pt(0, float64(rows-1)*float64(j+1)/float64(targets+1)),
				Dir:   envirotrack.Vec(1, slant),
				Speed: 2,
			},
			SignatureRadius: 1.6,
		})
	}
	if err := n.Run(time.Second); err != nil {
		tb.Fatal(err)
	}
	return n, float64(int64(liveHeap())-int64(base)) / float64(cols*rows)
}

// liveHeap forces a collection and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// benchLargeField advances a settledField by simStep of virtual time per
// iteration. Construction and the settle happen outside the timer, so
// ns/op and allocs/op measure steady-state tracking only; heap_B/mote is
// the field's live heap per mote after the settle, and gc/op the garbage
// collections that ran inside the timed loop, per iteration.
//
// The loop starts right after settledField's forced collection, so at a
// small -benchtime Nx whether a GC cycle falls inside the window depends
// on how far the live heap is from its next GC goal: a change that
// shrinks the heap can move a cycle into the window and read slower per
// op. Read ns/op of short Nx runs beside gc/op, and compare runs only
// when their gc/op agree.
func benchLargeField(b *testing.B, cols, rows, targets int, simStep time.Duration, parShards int, backend string) {
	b.Helper()
	n, heap := settledField(b, cols, rows, targets, parShards, backend)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gcBefore := ms.NumGC
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := n.Run(simStep); err != nil {
			b.Fatal(err)
		}
	}
	wall := time.Since(start).Seconds()
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	if wall > 0 {
		b.ReportMetric(simStep.Seconds()*float64(b.N)/wall, "sim_s_per_wall_s")
	}
	// After the loop: ResetTimer drops metrics.
	b.ReportMetric(heap, "heap_B/mote")
	b.ReportMetric(float64(ms.NumGC-gcBefore)/float64(b.N), "gc/op")
}

// BenchmarkLargeField is the scale tier: 10k motes with four concurrent
// targets, reporting sim_s_per_wall_s and allocs/op on the prebuilt
// network. The smoke variants (900 motes, two targets) are small enough to
// run under -race in CI; smoke-par2 runs two shard sweeps concurrently
// over the shared per-type scan rows and hot-state words.
func BenchmarkLargeField(b *testing.B) {
	b.Run("10k", func(b *testing.B) {
		benchLargeField(b, 100, 100, 4, 2*time.Second, 1, "")
	})
	// Free-running variants: shard goroutines execute concurrently under
	// the conservative lookahead barrier. Results are statistically
	// equivalent to serial (the equivalence battery pins that), not
	// byte-identical; sim_s_per_wall_s is the headline scaling metric.
	b.Run("10k-par2", func(b *testing.B) {
		benchLargeField(b, 100, 100, 4, 2*time.Second, 2, "")
	})
	b.Run("10k-par4", func(b *testing.B) {
		benchLargeField(b, 100, 100, 4, 2*time.Second, 4, "")
	})
	// The same field tracked by the passive-traces backend: no leader
	// election, no heartbeats — gossip fan-out and estimator cost replace
	// heartbeat flooding as the protocol's radio/CPU profile.
	b.Run("10k-passive", func(b *testing.B) {
		benchLargeField(b, 100, 100, 4, 2*time.Second, 1, envirotrack.BackendPassive)
	})
	b.Run("smoke", func(b *testing.B) {
		benchLargeField(b, 30, 30, 2, time.Second, 1, "")
	})
	b.Run("smoke-par2", func(b *testing.B) {
		benchLargeField(b, 30, 30, 2, time.Second, 2, "")
	})
}

// BenchmarkTracingOverhead measures the cost of the observability layer
// on the Figure 3 scenario (the same workload as
// BenchmarkSimulationThroughput). Each sub-benchmark runs that scenario
// once per op: "disabled" with no sink attached, so every emission site
// reduces to one nil check; "jsonl" streaming every protocol event
// through the JSONL exporter to io.Discard; "metrics" deriving
// histograms and counters from the stream; and "spans" correlating it
// into report and handover spans.
func BenchmarkTracingOverhead(b *testing.B) {
	run := func(env *eval.Env) func(b *testing.B) {
		return func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := eval.Run(env, eval.Scenario{Seed: int64(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
			if wall := time.Since(start).Seconds(); wall > 0 {
				b.ReportMetric(float64(b.N)/wall, "runs/s")
			}
		}
	}
	b.Run("disabled", run(&eval.Env{}))
	b.Run("jsonl", run(&eval.Env{Sink: envirotrack.NewJSONLSink(io.Discard)}))
	b.Run("metrics", run(&eval.Env{Metrics: envirotrack.NewMetricsRegistry()}))
	b.Run("spans", run(&eval.Env{Sink: envirotrack.NewSpanSink()}))
}

// BenchmarkSweepSerialVsParallel times the same Figure 4 sweep through the
// serial path (parallelism 1) and the worker pool (one worker per CPU) and
// reports the wall-clock speedup. The rows are identical either way (see
// TestParallelSweepsMatchSerial); only the elapsed time differs, and only
// when more than one CPU is available.
func BenchmarkSweepSerialVsParallel(b *testing.B) {
	const trials = 2
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := eval.RunFigure4(&eval.Env{Parallel: 1}, trials); err != nil {
			b.Fatal(err)
		}
		serial += time.Since(t0)

		t0 = time.Now()
		if _, err := eval.RunFigure4(&eval.Env{}, trials); err != nil {
			b.Fatal(err)
		}
		parallel += time.Since(t0)
	}
	if parallel > 0 {
		b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup_x")
		b.ReportMetric(parallel.Seconds()/float64(b.N), "parallel_sweep_s")
		b.ReportMetric(serial.Seconds()/float64(b.N), "serial_sweep_s")
	}
}

// BenchmarkEndToEndTrackingSetup measures network construction for a
// 20x20 field (radio registration, stacks, managers).
func BenchmarkEndToEndTrackingSetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := envirotrack.New(
			envirotrack.WithGrid(20, 20),
			envirotrack.WithCommRadius(2.5),
			envirotrack.WithSensing(envirotrack.VehicleSensing("vehicle")),
		)
		if err != nil {
			b.Fatal(err)
		}
		spec := benchTrackerContext(999)
		if err := net.AttachContextAll(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileProgram measures the preprocessor (parse + semantic
// analysis) on the Figure 2 program.
func BenchmarkCompileProgram(b *testing.B) {
	env := envirotrack.CompileEnv{Destinations: map[string]envirotrack.NodeID{"pursuer": 1}}
	for i := 0; i < b.N; i++ {
		if _, err := envirotrack.CompileContexts(benchTrackerSource, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateGo measures the code-emitting path of the preprocessor.
func BenchmarkGenerateGo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := envirotrack.GenerateGo(benchTrackerSource, "gen"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionStreaming measures the goroutine-driven session API.
func BenchmarkSessionStreaming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := mustNet(b)
		s := n.RunSession(10 * time.Second)
		for range s.Events() {
		}
		if err := s.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func mustNet(b *testing.B) *envirotrack.Network {
	b.Helper()
	n, err := envirotrack.New(
		envirotrack.WithGrid(8, 3),
		envirotrack.WithCommRadius(2.5),
		envirotrack.WithSensing(envirotrack.VehicleSensing("vehicle")),
	)
	if err != nil {
		b.Fatal(err)
	}
	spec := benchTrackerContext(999)
	if err := n.AttachContextAll(spec); err != nil {
		b.Fatal(err)
	}
	n.AddTarget(&envirotrack.Target{
		Name: "t", Kind: "vehicle",
		Traj: envirotrack.Stationary{At: envirotrack.Pt(3.5, 1)}, SignatureRadius: 1.6,
	})
	return n
}
