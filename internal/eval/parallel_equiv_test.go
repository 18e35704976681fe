package eval

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// TestParallelRunDeterministicRerun pins the parallel engine's
// reproducibility contract: past its first boundary frame the
// free-running executor is not byte-identical to serial, but for a fixed
// (seed, shard count) it is a deterministic function — rerunning must
// reproduce the result deeply and the JSONL event stream byte-for-byte.
// Everything order-dependent in the engine (barrier-merged observability
// lanes, canonical ledger sort) exists to make this hold.
func TestParallelRunDeterministicRerun(t *testing.T) {
	if shardMutated {
		t.Skip("shardmut build hard-fails parallel runs by design")
	}
	t.Parallel()
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"nominal", Scenario{Seed: 7, CheckInvariants: true}},
		{"lossy", Scenario{Seed: 11, LossProb: 0.2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res1, trace1 := collectRun(t, &Env{Shards: 4}, tc.sc)
			res2, trace2 := collectRun(t, &Env{Shards: 4}, tc.sc)
			if len(trace1) == 0 {
				t.Fatal("parallel run emitted no events")
			}
			if !reflect.DeepEqual(res1, res2) {
				t.Errorf("parallel reruns diverge:\nfirst  = %+v\nsecond = %+v", res1, res2)
			}
			if !bytes.Equal(trace1, trace2) {
				t.Errorf("parallel rerun JSONL traces diverge (%d vs %d bytes)", len(trace1), len(trace2))
			}
			if len(res1.Reports) == 0 {
				t.Error("parallel run produced no track reports")
			}
			if len(res1.Violations) != 0 {
				t.Errorf("parallel run violated invariants: %+v", res1.Violations)
			}
		})
	}
}

// TestParallelWorkerPathMatchesInline pins that the executor's two
// window-execution strategies — shard worker goroutines (GOMAXPROCS > 1)
// and the single-CPU inline degrade — are byte-identical: within a
// window the shards are independent, so the interleaving must not
// matter. Forcing GOMAXPROCS to 2 and then 1 exercises both paths on
// any host, including the single-core machines where every other test
// in this file takes the inline path.
func TestParallelWorkerPathMatchesInline(t *testing.T) {
	if shardMutated {
		t.Skip("shardmut build hard-fails parallel runs by design")
	}
	t.Parallel()
	sc := Scenario{Seed: 7, CheckInvariants: true}
	prev := runtime.GOMAXPROCS(2)
	resWorkers, traceWorkers := collectRun(t, &Env{Shards: 4}, sc)
	runtime.GOMAXPROCS(1)
	resInline, traceInline := collectRun(t, &Env{Shards: 4}, sc)
	runtime.GOMAXPROCS(prev)
	if len(traceWorkers) == 0 {
		t.Fatal("parallel run emitted no events")
	}
	if !reflect.DeepEqual(resWorkers, resInline) {
		t.Errorf("worker and inline window execution diverge:\nworkers = %+v\ninline  = %+v", resWorkers, resInline)
	}
	if !bytes.Equal(traceWorkers, traceInline) {
		t.Errorf("worker and inline JSONL traces diverge (%d vs %d bytes)", len(traceWorkers), len(traceInline))
	}
}

// TestParallelRunBasicHealth asserts a parallel run actually tracks: the
// 4-shard corridor run must produce reports, stay coherent enough to
// cover the target, and exchange boundary frames (otherwise the engine
// silently degenerated into disconnected islands and every cross-shard
// check in this file is vacuous).
func TestParallelRunBasicHealth(t *testing.T) {
	if shardMutated {
		t.Skip("shardmut build hard-fails parallel runs by design")
	}
	t.Parallel()
	res, _ := collectRun(t, &Env{Shards: 4}, Scenario{Seed: 3})
	if len(res.Reports) == 0 {
		t.Error("no track reports reached the pursuer")
	}
	if !res.TrackedOK {
		t.Error("target not covered at end of run")
	}
}

// TestParallelEquivalenceSmoke is the always-on slice of the statistical
// battery: a small ensemble at 2 shards must pass every KS comparison.
func TestParallelEquivalenceSmoke(t *testing.T) {
	if shardMutated {
		t.Skip("shardmut build hard-fails parallel runs by design")
	}
	t.Parallel()
	rep, err := RunEquivalence(&Env{}, Scenario{}, equivSeeds(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Errorf("equivalence battery failed:\n%s", rep)
	}
	for _, m := range rep.Metrics {
		if m.Name == "reports" && m.SerialMean == 0 {
			t.Error("serial ensemble produced no reports; the battery is vacuous")
		}
	}
}

// TestParallelEquivalenceBattery is the full statistical-equivalence
// battery: 20-seed ensembles, serial vs parallel at 2, 4, and 8 shards,
// across a nominal and a lossy scenario, with the invariant checker
// attached — KS agreement on every headline metric (report count and
// cadence, mean tracking error, handovers, labels, heartbeat loss) plus
// zero proven invariant violations on either engine.
func TestParallelEquivalenceBattery(t *testing.T) {
	if shardMutated {
		t.Skip("shardmut build hard-fails parallel runs by design")
	}
	if testing.Short() {
		t.Skip("multi-shard ensembles are slow")
	}
	t.Parallel()
	scenarios := []struct {
		name string
		sc   Scenario
	}{
		{"nominal", Scenario{CheckInvariants: true}},
		{"lossy", Scenario{LossProb: 0.2}},
	}
	for _, tc := range scenarios {
		for _, shards := range []int{2, 4, 8} {
			t.Run(tc.name, func(t *testing.T) {
				t.Parallel()
				rep, err := RunEquivalence(&Env{}, tc.sc, equivSeeds(20), shards)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Pass() {
					t.Errorf("shards=%d: equivalence battery failed:\n%s", shards, rep)
				}
			})
		}
	}
}

// TestParallelChaosSuiteInvariants runs the full 9-case chaos suite on
// the free-running parallel engine: faults may cost coherence, but every
// protocol invariant (I1-I5) must hold on every (case, seed) cell, and
// the checker must actually have consumed events.
func TestParallelChaosSuiteInvariants(t *testing.T) {
	if shardMutated {
		t.Skip("shardmut build hard-fails parallel runs by design")
	}
	if testing.Short() {
		t.Skip("chaos suite is slow")
	}
	t.Parallel()
	rep, err := RunChaos(&Env{Shards: 4, Parallel: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) == 0 {
		t.Fatal("chaos suite produced no points")
	}
	for _, p := range rep.Points {
		m := p.Backends[0]
		if m.CheckedEvents == 0 {
			t.Errorf("case %q seed %d: invariant checker saw no events", p.Case, p.Seed)
		}
		for _, v := range m.ViolationList {
			t.Errorf("case %q seed %d: %s violation at %v: %s", p.Case, p.Seed, v.Invariant, v.At, v.Detail)
		}
	}
}

// TestKSStatistic pins the KS machinery on known distributions.
func TestKSStatistic(t *testing.T) {
	same := []float64{1, 2, 3, 4, 5}
	if d := ksStatistic(same, same); d != 0 {
		t.Errorf("identical samples: D = %v, want 0", d)
	}
	disjoint := []float64{10, 11, 12, 13, 14}
	if d := ksStatistic(same, disjoint); d != 1 {
		t.Errorf("disjoint samples: D = %v, want 1", d)
	}
	if c := ksCritical(20, 20, equivAlpha); c <= 0 || c >= 1 {
		t.Errorf("ksCritical(20, 20) = %v, want in (0, 1)", c)
	}
	// Bigger ensembles tighten the threshold.
	if ksCritical(100, 100, equivAlpha) >= ksCritical(10, 10, equivAlpha) {
		t.Error("ksCritical must shrink with sample size")
	}
}
