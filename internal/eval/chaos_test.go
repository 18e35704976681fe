package eval

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"envirotrack"
	"envirotrack/internal/obs"
)

// TestChaosSuiteNominalHoldsInvariants is the suite's core promise: on
// the nominal (unmutated) protocol, every fault case of the matrix runs
// to completion with zero proven invariant violations — the checker's
// rules are sound under crashes, loss bursts, ramps, partitions, and
// duplication storms alike.
func TestChaosSuiteNominalHoldsInvariants(t *testing.T) {
	if protocolMutated {
		t.Skip("protocol mutated (-tags chaosmut): violations are the expected outcome")
	}
	t.Parallel()
	trials := 2
	if testing.Short() {
		trials = 1
	}
	points, err := RunChaosSuite(&Env{}, trials)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ChaosCases) * trials; len(points) != want {
		t.Fatalf("suite returned %d points, want %d", len(points), want)
	}
	for _, p := range points {
		if p.CheckedEvents == 0 {
			t.Errorf("case %q seed %d: invariant checker saw no events", p.Case, p.Seed)
		}
		for _, v := range p.Violations {
			t.Errorf("case %q seed %d: %s violation at %v: %s", p.Case, p.Seed, v.Invariant, v.At, v.Detail)
		}
	}
}

// TestChaosRunDeterministic pins the tentpole determinism contract for
// fault injection: the same seed plus the same schedule produce an
// identical RunResult (stats, reports, violations) and a byte-identical
// JSONL event stream.
func TestChaosRunDeterministic(t *testing.T) {
	t.Parallel()
	sched, err := envirotrack.ParseChaosSchedule(
		"crash:node=5,at=20s,for=5s;loss:at=10s,for=10s,p=0.4;dup:at=30s,for=5s,p=0.25")
	if err != nil {
		t.Fatal(err)
	}
	sc := chaosBase(7)
	sc.Chaos = sched
	res1, trace1 := collectRun(t, &Env{}, sc)
	res2, trace2 := collectRun(t, &Env{}, sc)
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("identical chaos runs diverge:\nfirst  = %+v\nsecond = %+v", res1, res2)
	}
	if !bytes.Equal(trace1, trace2) {
		t.Errorf("identical chaos runs produce different JSONL traces (%d vs %d bytes)",
			len(trace1), len(trace2))
	}
	if len(trace1) == 0 {
		t.Error("chaos run emitted no events")
	}
}

// TestChaosSuiteParallelMatchesSerial extends the parallel-sweep
// determinism regression to the chaos suite: fanning the (case, seed)
// grid across workers must yield results identical to the serial loop,
// including per-run JSONL event streams (compared per run tag, since a
// shared sink interleaves lines across concurrent runs).
func TestChaosSuiteParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite x2 is slow")
	}
	t.Parallel()
	collect := func(width int) ([]ChaosPoint, map[string][]string) {
		var buf bytes.Buffer
		sink := obs.NewJSONLSink(&buf)
		points, err := RunChaosSuite(&Env{Sink: sink, Parallel: width}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return points, bucketByRun(buf.String())
	}
	serialPoints, serialTraces := collect(1)
	parallelPoints, parallelTraces := collect(4)
	if !reflect.DeepEqual(serialPoints, parallelPoints) {
		t.Errorf("chaos suite points diverge:\nserial   = %+v\nparallel = %+v", serialPoints, parallelPoints)
	}
	if len(serialTraces) == 0 {
		t.Fatal("serial suite produced no traced runs")
	}
	if !reflect.DeepEqual(serialTraces, parallelTraces) {
		t.Errorf("per-run JSONL streams diverge between serial and parallel suites (%d vs %d runs)",
			len(serialTraces), len(parallelTraces))
	}
}

// bucketByRun splits a shared JSONL stream into per-run line sequences
// keyed by the "run" tag, preserving within-run order.
func bucketByRun(stream string) map[string][]string {
	out := make(map[string][]string)
	for _, line := range strings.Split(stream, "\n") {
		if line == "" {
			continue
		}
		key := "0"
		if i := strings.Index(line, `"run":`); i >= 0 {
			rest := line[i+len(`"run":`):]
			if j := strings.IndexAny(rest, ",}"); j >= 0 {
				key = rest[:j]
			}
		}
		out[key] = append(out[key], line)
	}
	return out
}

// TestChaosScheduleRoundTrip pins the spec format: parsing a rendered
// schedule reproduces it.
func TestChaosScheduleRoundTrip(t *testing.T) {
	specs := []string{
		"crash:node=17,at=10s,for=5s",
		"loss:at=20s,for=10s,p=0.5",
		"ramp:from=0,to=0.6,start=10s,end=30s",
		"partition:x=5,at=15s,for=10s",
		"dup:at=5s,for=20s,p=0.3",
		"crash:node=1,at=1s;loss:at=2s,p=1",
	}
	for _, spec := range specs {
		s, err := envirotrack.ParseChaosSchedule(spec)
		if err != nil {
			t.Fatalf("ParseChaosSchedule(%q): %v", spec, err)
		}
		round, err := envirotrack.ParseChaosSchedule(s.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", s.String(), spec, err)
		}
		if !reflect.DeepEqual(s, round) {
			t.Errorf("round trip of %q diverges: %+v vs %+v", spec, s, round)
		}
	}
	for _, bad := range []string{
		"crash:at=1s", "loss:p=2", "ramp:from=0,to=1,start=5s,end=5s",
		"explode:at=1s", "crash:node=1,at=1s,bogus=2", "loss:p=0.5,p=0.5",
	} {
		if _, err := envirotrack.ParseChaosSchedule(bad); err == nil {
			t.Errorf("ParseChaosSchedule(%q) succeeded, want error", bad)
		}
	}
}

// TestInvariantCheckerConfigDerivation documents the Pe the eval wiring
// hands the checker: the stack derives ReportPeriod = Freshness - 100ms.
func TestInvariantCheckerConfigDerivation(t *testing.T) {
	sc := Scenario{CheckInvariants: true}.withDefaults()
	if got, want := sc.Freshness-100*time.Millisecond, 900*time.Millisecond; got != want {
		t.Fatalf("derived Pe = %v, want %v (default freshness %v)", got, want, sc.Freshness)
	}
	if checkerFor(sc) == nil {
		t.Fatal("checkerFor returned nil for CheckInvariants scenario")
	}
	if checkerFor(Scenario{}.withDefaults()) != nil {
		t.Fatal("checkerFor returned a checker without CheckInvariants")
	}
	_ = fmt.Sprintf // keep fmt imported alongside future debugging
}
