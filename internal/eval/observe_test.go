package eval

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"envirotrack/internal/eval/runpar"
	"envirotrack/internal/obs"
)

// TestRunObservabilityHooks exercises an Env's observers end to end: an
// event sink sees protocol traffic, a metrics registry derives event
// counts and the runs-completed counter, and the series cadence yields
// one tagged health series per run.
func TestRunObservabilityHooks(t *testing.T) {
	t.Parallel()
	cs := obs.NewCounterSink()
	reg := obs.NewRegistry()
	env := &Env{Sink: cs, Metrics: reg, SeriesEvery: 5 * time.Second}

	if _, err := Run(env, Scenario{Seed: 3}); err != nil {
		t.Fatal(err)
	}

	if n := cs.Count(obs.EvHeartbeatSent); n == 0 {
		t.Error("event sink saw no heartbeats")
	}
	if n := cs.Count(obs.EvFrameSent); n == 0 {
		t.Error("event sink saw no radio frames")
	}
	snap := reg.Snapshot()
	if got := snap["eval_runs_total"]; got != uint64(1) {
		t.Errorf("eval_runs_total = %v, want 1", got)
	}
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "envirotrack_events_total") {
		t.Error("registry exposition missing derived event counters")
	}

	series := env.Series()
	if len(series) != 1 {
		t.Fatalf("Series returned %d series, want 1", len(series))
	}
	ts := series[0]
	if ts.Seed != 3 || ts.Run != 3 {
		t.Errorf("series tagged with seed %d run %d, want 3 and 3", ts.Seed, ts.Run)
	}
	if ts.Series.Len() < 2 {
		t.Errorf("series has %d samples, want >= 2", ts.Series.Len())
	}
}

// TestSweepContextProgressFormat pins the progress line format using an
// injected clock: per-update carriage-return lines with rate and ETA, and
// a final newline when the sweep completes.
func TestSweepContextProgressFormat(t *testing.T) {
	t.Parallel()
	tick := 0
	now := func() time.Time {
		tick++
		return time.Unix(0, 0).Add(time.Duration(tick) * time.Second)
	}
	var buf bytes.Buffer
	ctx := runpar.WithProgress(context.Background(), progressLine(&buf, "figX", "runs", now))
	if _, err := runpar.Map(ctx, 1, 3, func(_ context.Context, i int) (int, error) {
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	for _, want := range []string{"\rfigX: 1/3 runs", "\rfigX: 2/3 runs", "\rfigX: 3/3 runs", "ETA"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%q", want, out)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("progress output does not end with a newline after completion:\n%q", out)
	}
}

// TestSweepContextDisabled: with no writer configured, sweeps must not pay
// for progress plumbing at all.
func TestSweepContextDisabled(t *testing.T) {
	t.Parallel()
	if ctx := (&Env{}).sweep("figX", "runs"); ctx != context.Background() {
		t.Error("sweep without a progress writer should return the plain background context")
	}
}
