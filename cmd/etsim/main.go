// Command etsim regenerates the paper's evaluation tables and figures on
// the simulated sensor network.
//
// Usage:
//
//	etsim -exp fig3            # tracked tank trajectory (Figure 3)
//	etsim -exp fig4 -trials 5  # handover success (Figure 4)
//	etsim -exp table1 -runs 3  # communication performance (Table 1)
//	etsim -exp fig5            # max trackable speed vs heartbeat (Figure 5)
//	etsim -exp fig6            # max trackable speed vs CR:SR (Figure 6)
//	etsim -exp all             # everything
//	etsim -exp all -parallel 8 # same results, sweeps fanned over 8 workers
//
// Tracking backends (default is the paper's leader protocol):
//
//	etsim -exp fig3 -backend passive   # passive-traces backend, no leaders
//	etsim -exp compare -trials 2       # the chaos matrix, leader vs passive side
//	                                   # by side, each checked against its own
//	                                   # invariants
//
// Engines (serial is the byte-identical reference):
//
//	etsim -exp fig4 -parallel-shards 4  # free-running shard goroutines: serial until
//	                                    # the first boundary frame, statistically
//	                                    # equivalent after it, deterministic;
//	                                    # exits nonzero if any run violates lookahead;
//	                                    # with -selfprofile, adds per-shard and
//	                                    # boundary-health tables
//
// Fault injection:
//
//	etsim -exp chaos                          # fault matrix on one backend, invariant-checked
//	etsim -exp chaos -check-invariants        # same, nonzero exit on any violation
//	etsim -exp fig3 -chaos "crash:node=5,at=300s,for=60s" -check-invariants
//
// Observability:
//
//	etsim -exp fig4 -format json            # machine-readable results
//	etsim -exp fig4 -progress               # live sweep progress on stderr
//	etsim -exp fig4 -trace-out trace.jsonl  # structured protocol events
//	etsim -exp fig4 -metrics-out m.prom     # Prometheus text metrics
//	etsim -exp fig3 -series-out s.json      # per-run health time series
//	etsim -exp all -pprof localhost:6060    # live pprof + expvar server
//
// Profiling (see also `make profile`):
//
//	etsim -exp table1 -cpuprofile cpu.pprof -memprofile mem.pprof
//	etsim -exp table1 -selfprofile          # per-subsystem scheduler attribution
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"envirotrack"
	"envirotrack/internal/eval"
)

// config carries the parsed flag set so tests can drive run directly.
type config struct {
	exp         string
	trials      int
	runs        int
	seed        int64
	quick       bool
	format      string
	traceOut    string
	seriesOut   string
	metricsOut  string
	seriesEvery time.Duration
	progress    bool
	chaosSpec   string
	checkInv    bool
	backend     string
	selfProfile bool
	parShards   int
	parallel    int
	stdout      io.Writer
	stderr      io.Writer
}

func main() {
	var cfg config
	flag.StringVar(&cfg.exp, "exp", "all", "experiment: fig3, fig4, table1, fig5, fig6, chaos, compare, all")
	flag.IntVar(&cfg.trials, "trials", 3, "trials per Figure 4 cell; seeds per chaos/compare case")
	flag.IntVar(&cfg.runs, "runs", 3, "runs per Table 1 row")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for Figure 3")
	flag.BoolVar(&cfg.quick, "quick", false, "reduced sweeps for Figures 5 and 6")
	flag.StringVar(&cfg.format, "format", "text", "output format: text or json")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write structured protocol events (JSONL) to this file")
	flag.StringVar(&cfg.seriesOut, "series-out", "", "write per-run health time series (JSON) to this file")
	flag.StringVar(&cfg.metricsOut, "metrics-out", "", "write Prometheus text-format metrics to this file")
	flag.DurationVar(&cfg.seriesEvery, "series-every", 5*time.Second, "sim-time cadence of -series-out samples")
	flag.BoolVar(&cfg.progress, "progress", false, "report live sweep progress (done/total, rate, ETA) on stderr")
	flag.StringVar(&cfg.chaosSpec, "chaos", "", "fault schedule for the Figure 3 run, e.g. \"crash:node=5,at=300s,for=60s;loss:at=100s,for=60s,p=0.5\"")
	flag.BoolVar(&cfg.checkInv, "check-invariants", false, "attach the protocol invariant checker; exit nonzero on any proven violation")
	flag.StringVar(&cfg.backend, "backend", "", "tracking backend for every run: leader (default) or passive; -exp compare always runs both")
	flag.BoolVar(&cfg.selfProfile, "selfprofile", false, "profile the scheduler: per-subsystem event counts and wall time, printed after the run (and exported with -metrics-out)")
	flag.IntVar(&cfg.parShards, "parallel-shards", 0, "free-running parallel shard goroutines per run (0 = off): shards execute concurrently under a conservative lookahead barrier; a run is the serial run until its first boundary frame and statistically equivalent to serial after it; reruns are byte-identical")
	flag.IntVar(&cfg.parallel, "parallel", 0, "max concurrent simulation runs per sweep (0 = one per CPU, 1 = serial); results are identical at any setting")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "etsim: pprof server:", err)
			}
		}()
	}
	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "etsim:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "etsim: cpu profile:", err)
			os.Exit(2)
		}
		cpuFile = f
	}
	runErr := run(cfg)
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "etsim: cpu profile:", err)
			os.Exit(2)
		}
	}
	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			fmt.Fprintln(os.Stderr, "etsim:", err)
			os.Exit(2)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "etsim:", runErr)
		os.Exit(1)
	}
}

// writeHeapProfile snapshots the post-run heap, after a GC so the profile
// reflects live retention rather than transient garbage.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("heap profile: %w", err)
	}
	return f.Close()
}

func run(cfg config) error {
	if cfg.stdout == nil {
		cfg.stdout = os.Stdout
	}
	if cfg.stderr == nil {
		cfg.stderr = os.Stderr
	}
	jsonOut := false
	switch cfg.format {
	case "", "text":
	case "json":
		jsonOut = true
	default:
		return fmt.Errorf("unknown format %q (want text or json)", cfg.format)
	}

	switch {
	case cfg.trials < 0:
		return fmt.Errorf("-trials %d: must not be negative (0 means the default, 3)", cfg.trials)
	case cfg.runs < 0:
		return fmt.Errorf("-runs %d: must not be negative (0 means the default, 3)", cfg.runs)
	case cfg.parallel < 0:
		return fmt.Errorf("-parallel %d: must not be negative (0 means one worker per CPU)", cfg.parallel)
	case cfg.parShards < 0:
		return fmt.Errorf("-parallel-shards %d: must not be negative (0 means the serial engine)", cfg.parShards)
	case cfg.parShards > envirotrack.MaxParallelShards:
		return fmt.Errorf("-parallel-shards %d: must be at most %d", cfg.parShards, envirotrack.MaxParallelShards)
	case cfg.seriesEvery < 0:
		return fmt.Errorf("-series-every %v: must not be negative", cfg.seriesEvery)
	}
	if cfg.backend != "" && !slices.Contains(envirotrack.TrackingBackends(), cfg.backend) {
		return fmt.Errorf("unknown tracking backend %q (known: %s)",
			cfg.backend, strings.Join(envirotrack.TrackingBackends(), ", "))
	}

	// One Env carries every flag that shapes the runs, and collects what
	// they leave behind, for all experiments of this invocation.
	env := &eval.Env{Backend: cfg.backend, Shards: cfg.parShards, Parallel: cfg.parallel}
	if cfg.progress {
		env.Progress = cfg.stderr
	}
	var (
		traceFile *os.File
		traceSink *envirotrack.JSONLSink
	)
	if cfg.traceOut != "" {
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return err
		}
		traceFile, traceSink = f, envirotrack.NewJSONLSink(f)
		env.Sink = traceSink
		defer traceFile.Close()
	}
	if cfg.metricsOut != "" {
		env.Metrics = envirotrack.NewMetricsRegistry()
		env.Metrics.Expvar("envirotrack")
	}
	if cfg.seriesOut != "" {
		env.SeriesEvery = cfg.seriesEvery
		if env.SeriesEvery == 0 {
			env.SeriesEvery = 5 * time.Second
		}
	}
	if cfg.selfProfile {
		env.SelfProfile = envirotrack.NewSelfProfile()
	}

	chaosSched, err := envirotrack.ParseChaosSchedule(cfg.chaosSpec)
	if err != nil {
		return err
	}

	all := cfg.exp == "all"
	ran := false
	violations := 0
	results := map[string]any{}

	if all || cfg.exp == "fig3" {
		ran = true
		res, err := eval.RunFigure3Under(env, cfg.seed, chaosSched, cfg.checkInv)
		if err != nil {
			return err
		}
		violations += len(res.Run.Violations)
		if jsonOut {
			results["fig3"] = fig3View(res)
		} else {
			fmt.Fprintln(cfg.stdout, res.Render())
			for _, v := range res.Run.Violations {
				fmt.Fprintf(cfg.stdout, "invariant violation [%s] at %v: %s\n", v.Invariant, v.At, v.Detail)
			}
		}
	}
	if all || cfg.exp == "fig4" {
		ran = true
		rows, err := eval.RunFigure4(env, cfg.trials)
		if err != nil {
			return err
		}
		if jsonOut {
			results["fig4"] = rows
		} else {
			fmt.Fprintln(cfg.stdout, eval.RenderFigure4(rows))
		}
	}
	if all || cfg.exp == "table1" {
		ran = true
		rows, err := eval.RunTable1(env, cfg.runs)
		if err != nil {
			return err
		}
		if jsonOut {
			results["table1"] = rows
		} else {
			fmt.Fprintln(cfg.stdout, eval.RenderTable1(rows))
		}
	}
	if all || cfg.exp == "fig5" {
		ran = true
		f5 := eval.Figure5Config{IncludeRelinquish: true}
		if cfg.quick {
			f5.Heartbeats = []float64{0.0625, 0.5, 2}
			f5.Seeds = []int64{1}
		}
		points, err := eval.RunFigure5(env, f5)
		if err != nil {
			return err
		}
		if jsonOut {
			results["fig5"] = points
		} else {
			fmt.Fprintln(cfg.stdout, eval.RenderFigure5(points))
		}
	}
	if all || cfg.exp == "fig6" {
		ran = true
		f6 := eval.Figure6Config{}
		if cfg.quick {
			f6.Ratios = []float64{0.75, 1.5, 3}
			f6.Radii = []float64{1, 2}
			f6.Seeds = []int64{1}
		}
		points, err := eval.RunFigure6(env, f6)
		if err != nil {
			return err
		}
		if jsonOut {
			results["fig6"] = points
		} else {
			fmt.Fprintln(cfg.stdout, eval.RenderFigure6(points))
		}
	}
	if all || cfg.exp == "chaos" || cfg.exp == "compare" {
		// chaos runs the fault matrix on the env's backend, compare on both.
		ran = true
		key, backends := "chaos", []string(nil)
		if cfg.exp == "compare" {
			key, backends = "compare", eval.CompareBackends
		}
		rep, err := eval.RunChaos(env, cfg.trials, backends...)
		if err != nil {
			return err
		}
		violations += rep.Violations()
		if jsonOut {
			results[key] = rep
		} else {
			fmt.Fprintln(cfg.stdout, rep.Render())
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want fig3, fig4, table1, fig5, fig6, chaos, compare, all)", cfg.exp)
	}

	if jsonOut {
		enc := json.NewEncoder(cfg.stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return err
		}
	}
	if traceSink != nil {
		if err := traceSink.Flush(); err != nil {
			return fmt.Errorf("flush %s: %w", cfg.traceOut, err)
		}
		if err := traceFile.Close(); err != nil {
			return fmt.Errorf("close %s: %w", cfg.traceOut, err)
		}
	}
	if cfg.seriesOut != "" {
		if err := writeSeries(cfg.seriesOut, env.Series()); err != nil {
			return err
		}
	}
	if env.SelfProfile != nil {
		if env.Metrics != nil {
			envirotrack.ExportSelfProfile(env.Metrics, env.SelfProfile)
		}
		printSelfProfile(cfg.stderr, env.SelfProfile)
	}
	if env.Metrics != nil {
		if err := writeMetrics(env.Metrics, cfg.metricsOut); err != nil {
			return err
		}
	}
	if cfg.checkInv && violations > 0 {
		return fmt.Errorf("%d protocol invariant violation(s) proven", violations)
	}
	return nil
}

// writeSeries writes the runs' health series as a JSON array in sweep
// order, each tagged with its run tag (the "run" of its trace events),
// seed and speed.
func writeSeries(path string, collected []eval.RunSeries) error {
	type tagged struct {
		Run       int64               `json:"run"`
		Seed      int64               `json:"seed"`
		SpeedHops float64             `json:"speed_hops"`
		Series    *envirotrack.Series `json:"series"`
	}
	out := make([]tagged, 0, len(collected))
	for _, rs := range collected {
		out = append(out, tagged{Run: rs.Run, Seed: rs.Seed, SpeedHops: rs.SpeedHops, Series: rs.Series})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printSelfProfile renders the scheduler self-profile as a table on w
// (stderr, so it composes with -format json on stdout). Wall time is
// real time spent inside event callbacks, attributed to the subsystem
// that scheduled each event; it aggregates every run of the sweep.
// pushes/event is the share of events that took a heap entry of their
// own: same-instant runs bring it below one without changing the events.
func printSelfProfile(w io.Writer, prof *envirotrack.SelfProfile) {
	totalEvents, totalNanos := prof.TotalEvents(), prof.TotalNanos()
	fmt.Fprintf(w, "\nscheduler self-profile (%d events, %v wall in callbacks):\n",
		totalEvents, time.Duration(totalNanos).Round(time.Millisecond))
	fmt.Fprintf(w, "%-10s %12s %12s %7s %10s %12s %13s\n",
		"subsystem", "events", "wall", "%wall", "ns/event", "heap pushes", "pushes/event")
	for _, st := range prof.Snapshot() {
		if st.Events == 0 {
			continue
		}
		pct := 0.0
		if totalNanos > 0 {
			pct = 100 * float64(st.WallNanos) / float64(totalNanos)
		}
		fmt.Fprintf(w, "%-10s %12d %12v %6.1f%% %10.0f %12d %13.3f\n",
			st.Name, st.Events, time.Duration(st.WallNanos).Round(time.Microsecond),
			pct, float64(st.WallNanos)/float64(st.Events),
			st.Pushes, float64(st.Pushes)/float64(st.Events))
	}
	// Parallel-shard runs (-parallel-shards N) add a second attribution
	// dimension: which scheduler shard executed each event.
	shards := prof.ShardSnapshot()
	if len(shards) == 0 {
		return
	}
	fmt.Fprintf(w, "%-10s %12s %12s %7s\n", "shard", "events", "wall", "%wall")
	for _, st := range shards {
		if st.Events == 0 {
			continue
		}
		pct := 0.0
		if totalNanos > 0 {
			pct = 100 * float64(st.WallNanos) / float64(totalNanos)
		}
		fmt.Fprintf(w, "%-10d %12d %12v %6.1f%%\n",
			st.Shard, st.Events, time.Duration(st.WallNanos).Round(time.Microsecond), pct)
	}
}

// writeMetrics renders the registry in Prometheus text format.
func writeMetrics(reg *envirotrack.MetricsRegistry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteProm(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// --- JSON views: stable lower-case keys, seconds instead of durations ---
//
// The fig4, table1, fig5, fig6, chaos and compare results carry their own
// JSON tags and are encoded as they are.

func fig3View(res eval.Figure3Result) any {
	type point struct {
		T     float64 `json:"t_s"`
		XTrue float64 `json:"x_true"`
		YTrue float64 `json:"y_true"`
		XEst  float64 `json:"x_est"`
		YEst  float64 `json:"y_est"`
	}
	points := make([]point, 0, len(res.Run.Track.Points))
	for _, p := range res.Run.Track.Points {
		points = append(points, point{
			T:     p.At.Seconds(),
			XTrue: p.Actual.X, YTrue: p.Actual.Y,
			XEst: p.Reported.X, YEst: p.Reported.Y,
		})
	}
	return struct {
		MeanError float64 `json:"mean_error"`
		MaxError  float64 `json:"max_error"`
		Labels    int     `json:"labels"`
		Points    []point `json:"points"`
	}{res.MeanError, res.MaxError, res.Run.Labels, points}
}
