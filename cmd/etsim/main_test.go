package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"envirotrack"
)

func TestRunFig3(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	if err := run(config{exp: "fig3", seed: 1, quick: true, stdout: &out}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 3") {
		t.Error("text output missing Figure 3 header")
	}
}

// TestRunFig4Parallel drives an experiment the way `-parallel 2` would.
func TestRunFig4Parallel(t *testing.T) {
	t.Parallel()
	if err := run(config{exp: "fig4", trials: 1, quick: true, parallel: 2, stdout: new(bytes.Buffer)}); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsBadFlags: every numeric flag with no meaning below zero,
// and an unknown backend, fail in run with an error naming the flag
// instead of running anything.
func TestRunRejectsBadFlags(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		cfg  config
		want string
	}{
		{"negative trials", config{exp: "fig4", trials: -1}, "-trials -1"},
		{"negative runs", config{exp: "table1", runs: -2}, "-runs -2"},
		{"negative parallel", config{parallel: -3}, "-parallel -3"},
		{"negative parallel-shards", config{parShards: -3}, "-parallel-shards -3"},
		{"too many parallel-shards", config{parShards: 1 << 30}, "-parallel-shards 1073741824"},
		{"negative series-every", config{seriesEvery: -2 * time.Second}, "-series-every -2s"},
		{"unknown backend", config{backend: "oracle"}, "oracle"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if tc.cfg.exp == "" {
				tc.cfg.exp = "fig3"
			}
			var out bytes.Buffer
			tc.cfg.stdout = &out
			err := run(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run = %v, want an error naming %q", err, tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("rejected config still printed results:\n%s", out.String())
			}
		})
	}
}

// traceAndSeries runs Figure 4 with two trials per cell at the given
// sweep width and returns the trace and series files' bytes.
func traceAndSeries(t *testing.T, parallel int) (trace, series []byte) {
	t.Helper()
	dir := t.TempDir()
	cfg := config{
		exp: "fig4", trials: 2, parallel: parallel,
		traceOut:  filepath.Join(dir, "trace.jsonl"),
		seriesOut: filepath.Join(dir, "series.json"),
		stdout:    new(bytes.Buffer),
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	series, err = os.ReadFile(cfg.seriesOut)
	if err != nil {
		t.Fatal(err)
	}
	return trace, series
}

// TestRunFig4TraceRunTags: Figure 4's cells reuse seeds, yet each of its
// eight runs must carry its own trace tag, or ettrace merges their spans
// into ones with negative or minute-long latencies.
func TestRunFig4TraceRunTags(t *testing.T) {
	t.Parallel()
	trace, _ := traceAndSeries(t, 1)
	spans := envirotrack.NewSpanSink()
	runs := map[int64]bool{}
	for _, line := range bytes.Split(bytes.TrimSpace(trace), []byte("\n")) {
		ev, err := envirotrack.ParseTraceEvent(line)
		if err != nil {
			t.Fatal(err)
		}
		runs[ev.Run] = true
		spans.Emit(ev)
	}
	if len(runs) != 8 {
		t.Errorf("trace holds %d distinct run tags, want 8 (4 cells x 2 trials)", len(runs))
	}
	delivered := 0
	for _, sp := range spans.Reports() {
		if !sp.Delivered {
			continue
		}
		delivered++
		if sp.Latency < 0 {
			t.Errorf("run %d span %s/%d/%d: latency %v < 0", sp.Run, sp.Label, sp.Origin, sp.Seq, sp.Latency)
		}
	}
	if delivered == 0 {
		t.Error("trace delivered no report spans")
	}
}

// TestRunSeriesSweepOrder: -series-out lists runs in sweep order, tagged
// by run, so the file is byte-identical at any -parallel, and the trace
// holds the same events per run.
func TestRunSeriesSweepOrder(t *testing.T) {
	t.Parallel()
	serialTrace, serial := traceAndSeries(t, 1)
	parallelTrace, parallel := traceAndSeries(t, 4)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("series file differs between -parallel 1 and 4 (%d vs %d bytes)", len(serial), len(parallel))
	}
	var runs []struct {
		Run int64 `json:"run"`
	}
	if err := json.Unmarshal(serial, &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 8 {
		t.Fatalf("series file has %d runs, want 8", len(runs))
	}
	for i, r := range runs {
		if r.Run != int64(i+1) {
			t.Errorf("series entry %d has run tag %d, want %d", i, r.Run, i+1)
		}
	}
	sortedLines := func(b []byte) []string {
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		slices.Sort(lines)
		return lines
	}
	if !slices.Equal(sortedLines(serialTrace), sortedLines(parallelTrace)) {
		t.Error("trace events (tags included) differ between -parallel 1 and 4")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(config{exp: "fig99", stdout: new(bytes.Buffer)}); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestRunRejectsUnknownFormat(t *testing.T) {
	if err := run(config{exp: "fig3", format: "yaml", stdout: new(bytes.Buffer)}); err == nil {
		t.Error("expected error for unknown format")
	}
}

// TestRunJSONFormat checks every experiment renders machine-readable
// output: one top-level object keyed by experiment name.
func TestRunJSONFormat(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	cfg := config{
		exp: "fig3", trials: 1, runs: 1, seed: 1, quick: true,
		format: "json", stdout: &out,
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	var fig3 struct {
		MeanError float64 `json:"mean_error"`
		Points    []struct {
			T float64 `json:"t_s"`
		} `json:"points"`
	}
	if err := json.Unmarshal(doc["fig3"], &fig3); err != nil {
		t.Fatalf("fig3 payload: %v", err)
	}
	if len(fig3.Points) == 0 {
		t.Error("fig3 JSON has no trajectory points")
	}

	out.Reset()
	cfg.exp = "fig4"
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	var doc4 struct {
		Fig4 []struct {
			SpeedKmh   float64 `json:"speed_kmh"`
			SuccessPct float64 `json:"success_pct"`
		} `json:"fig4"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc4); err != nil {
		t.Fatalf("fig4 output: %v\n%s", err, out.String())
	}
	if len(doc4.Fig4) != 4 {
		t.Errorf("fig4 JSON has %d rows, want 4", len(doc4.Fig4))
	}
}

// TestRunObservabilityOutputs drives -trace-out, -metrics-out and
// -series-out together and validates each artifact parses.
func TestRunObservabilityOutputs(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := config{
		exp: "fig3", seed: 1, quick: true,
		traceOut:   filepath.Join(dir, "trace.jsonl"),
		metricsOut: filepath.Join(dir, "metrics.prom"),
		seriesOut:  filepath.Join(dir, "series.json"),
		stdout:     new(bytes.Buffer),
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}

	trace, err := os.Open(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer trace.Close()
	lines := 0
	sc := bufio.NewScanner(trace)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %d is not JSON: %v", lines+1, err)
		}
		if _, ok := ev["ev"]; !ok {
			t.Fatalf("trace line %d has no event type: %s", lines+1, sc.Text())
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Error("trace file is empty")
	}

	prom, err := os.ReadFile(cfg.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE envirotrack_events_total counter", "eval_runs_total 1"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics file missing %q:\n%s", want, prom)
		}
	}

	seriesData, err := os.ReadFile(cfg.seriesOut)
	if err != nil {
		t.Fatal(err)
	}
	var series []struct {
		Seed   int64 `json:"seed"`
		Series struct {
			T    []float64            `json:"t"`
			Cols map[string][]float64 `json:"cols"`
		} `json:"series"`
	}
	if err := json.Unmarshal(seriesData, &series); err != nil {
		t.Fatalf("series file is not JSON: %v", err)
	}
	if len(series) != 1 {
		t.Fatalf("series file has %d runs, want 1", len(series))
	}
	if len(series[0].Series.T) < 2 {
		t.Error("series has fewer than 2 samples")
	}
	if _, ok := series[0].Series.Cols["live_labels"]; !ok {
		t.Error("series missing live_labels column")
	}
}

// TestRunChaosExperiment drives -exp chaos with -check-invariants: the
// nominal protocol must hold every invariant, so the run succeeds and
// reports a fully-checked suite.
func TestRunChaosExperiment(t *testing.T) {
	if protocolMutated {
		t.Skip("protocol mutated (-tags chaosmut): violations are the expected outcome")
	}
	t.Parallel()
	var out bytes.Buffer
	cfg := config{exp: "chaos", trials: 1, checkInv: true, stdout: &out}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "Chaos suite") {
		t.Error("text output missing chaos suite header")
	}
	if !strings.Contains(text, "all protocol invariants held") {
		t.Errorf("nominal chaos suite did not report clean invariants:\n%s", text)
	}

	out.Reset()
	cfg.format = "json"
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Chaos struct {
			Points []struct {
				Case     string `json:"case"`
				Backends []struct {
					CheckedEvents uint64 `json:"checked_events"`
				} `json:"backends"`
			} `json:"points"`
			Summary []struct {
				Backend string `json:"backend"`
			} `json:"summary"`
		} `json:"chaos"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("chaos JSON: %v\n%s", err, out.String())
	}
	if len(doc.Chaos.Points) != 9 {
		t.Errorf("chaos JSON has %d cells, want 9", len(doc.Chaos.Points))
	}
	for _, c := range doc.Chaos.Points {
		if len(c.Backends) != 1 || c.Backends[0].CheckedEvents == 0 {
			t.Errorf("case %q: want one backend whose checker saw events, got %+v", c.Case, c.Backends)
		}
	}
	if len(doc.Chaos.Summary) != 1 || doc.Chaos.Summary[0].Backend != "leader" {
		t.Errorf("chaos JSON summary = %+v, want one leader row", doc.Chaos.Summary)
	}
}

// TestRunChaosJSONKeepsViolationRunTags runs -exp chaos on the seeded
// protocol bug (-tags chaosmut) and requires every violation in the JSON
// report to carry the run tag of its cell: the tag README's "Reproducing
// a violation" recipe cuts the -trace-out file by. The nominal protocol
// proves no violations, so the test needs the mutated build.
func TestRunChaosJSONKeepsViolationRunTags(t *testing.T) {
	if !protocolMutated {
		t.Skip("needs violations: run with -tags chaosmut")
	}
	t.Parallel()
	var out bytes.Buffer
	cfg := config{exp: "chaos", trials: 1, format: "json", stdout: &out}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Chaos struct {
			Points []struct {
				Case     string `json:"case"`
				Backends []struct {
					ViolationList []struct {
						Invariant string `json:"invariant"`
						Run       int64  `json:"run"`
					} `json:"violation_list"`
				} `json:"backends"`
			} `json:"points"`
		} `json:"chaos"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("chaos JSON: %v", err)
	}
	found := 0
	// One seed, one backend: the i-th cell runs under tag i+1.
	for i, p := range doc.Chaos.Points {
		for _, v := range p.Backends[0].ViolationList {
			found++
			if v.Run != int64(i+1) {
				t.Errorf("case %q: %s violation carries run %d, want %d", p.Case, v.Invariant, v.Run, i+1)
			}
		}
	}
	if found == 0 {
		t.Fatal("yield-suppressed build proved no violations")
	}
}

// TestRunFig3WithChaosSchedule applies a -chaos schedule to the Figure 3
// run under -check-invariants; the faults degrade tracking but must not
// break protocol safety.
func TestRunFig3WithChaosSchedule(t *testing.T) {
	if protocolMutated {
		t.Skip("protocol mutated (-tags chaosmut): violations are the expected outcome")
	}
	t.Parallel()
	var out bytes.Buffer
	cfg := config{
		exp: "fig3", seed: 1,
		chaosSpec: "crash:node=5,at=300s,for=60s;loss:at=100s,for=60s,p=0.4",
		checkInv:  true,
		stdout:    &out,
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 3") {
		t.Error("text output missing Figure 3 header")
	}
}

func TestRunRejectsMalformedChaosSpec(t *testing.T) {
	cfg := config{exp: "fig3", chaosSpec: "explode:at=1s", stdout: new(bytes.Buffer)}
	if err := run(cfg); err == nil {
		t.Error("expected error for malformed chaos spec")
	}
}

// TestRunSelfProfileShardTables checks the -selfprofile shard table keys
// off -parallel-shards: a parallel-shard run prints the per-shard
// attribution table, a serial run does not.
func TestRunSelfProfileShardTables(t *testing.T) {
	t.Parallel()
	var stderr bytes.Buffer
	cfg := config{exp: "fig3", seed: 1, selfProfile: true, parShards: 2, stdout: new(bytes.Buffer), stderr: &stderr}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scheduler self-profile", "\nshard ", "\n0 ", "\n1 "} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("parallel-shard self-profile missing %q:\n%s", want, stderr.String())
		}
	}

	stderr.Reset()
	cfg.parShards = 0
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "scheduler self-profile") {
		t.Errorf("serial run printed no self-profile:\n%s", stderr.String())
	}
	for _, unwanted := range []string{"\nshard "} {
		if strings.Contains(stderr.String(), unwanted) {
			t.Errorf("serial self-profile printed %q:\n%s", unwanted, stderr.String())
		}
	}
}

// TestRunSelfProfilePushRatio checks the -selfprofile table's heap-push
// columns on the Figure 5 stress regime: a heartbeat lands on many idle
// mote CPUs at once, so their completions run behind shared heap entries
// and the mote row shows fewer pushes than events. The -metrics-out file
// exports the same mote counts.
func TestRunSelfProfilePushRatio(t *testing.T) {
	t.Parallel()
	var stderr bytes.Buffer
	cfg := config{
		exp: "fig5", quick: true, selfProfile: true,
		metricsOut: filepath.Join(t.TempDir(), "metrics.prom"),
		stdout:     new(bytes.Buffer), stderr: &stderr,
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	prom, err := os.ReadFile(cfg.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	metric := func(name string) float64 {
		t.Helper()
		prefix := name + `{subsystem="mote"} `
		for _, line := range strings.Split(string(prom), "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("unparseable metric line %q", line)
				}
				return f
			}
		}
		t.Fatalf("metrics file has no %s for mote:\n%s", name, prom)
		return 0
	}
	if !strings.Contains(stderr.String(), "pushes/event") {
		t.Fatalf("self-profile has no pushes/event column:\n%s", stderr.String())
	}
	for _, line := range strings.Split(stderr.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 7 || f[0] != "mote" {
			continue
		}
		events, err1 := strconv.ParseFloat(f[1], 64)
		pushes, err2 := strconv.ParseFloat(f[5], 64)
		ratio, err3 := strconv.ParseFloat(f[6], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("unparseable mote row %q", line)
		}
		if pushes >= events || math.Abs(ratio-pushes/events) > 0.001 {
			t.Fatalf("mote row %q: want fewer pushes than events and their ratio", line)
		}
		if e, p := metric("envirotrack_sched_events_total"), metric("envirotrack_sched_heap_pushes_total"); e != events || p != pushes {
			t.Fatalf("exported mote events %v, heap pushes %v; table %v, %v", e, p, events, pushes)
		}
		return
	}
	t.Fatalf("self-profile has no mote row:\n%s", stderr.String())
}
