package eval

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"envirotrack"
)

// conformanceBackends is the pair every backend-conformance test runs
// against; a new backend earns its registration by joining this list.
var conformanceBackends = []string{envirotrack.BackendLeader, envirotrack.BackendPassive}

// conformanceScenario is one chaotic, invariant-checked scenario used by
// the determinism conformance checks: faults exercise the failure paths
// of whichever backend is under test.
func conformanceScenario(t *testing.T, backend string) Scenario {
	t.Helper()
	sched, err := envirotrack.ParseChaosSchedule(
		"crash:node=5,at=20s,for=5s;loss:at=10s,for=10s,p=0.3;dup:at=30s,for=5s,p=0.25")
	if err != nil {
		t.Fatal(err)
	}
	sc := chaosBase(5)
	sc.Chaos = sched
	sc.Backend = backend
	return sc
}

// TestBackendRepeatSeedByteIdentical is the determinism half of the
// backend conformance contract: for every registered backend, rerunning
// the same seeded scenario (chaos faults included) must reproduce a
// deeply equal result and a byte-identical JSONL event stream.
func TestBackendRepeatSeedByteIdentical(t *testing.T) {
	t.Parallel()
	for _, be := range conformanceBackends {
		t.Run(be, func(t *testing.T) {
			t.Parallel()
			sc := conformanceScenario(t, be)
			res1, trace1 := collectRun(t, &Env{}, sc)
			res2, trace2 := collectRun(t, &Env{}, sc)
			if len(trace1) == 0 {
				t.Fatal("run emitted no events")
			}
			if !reflect.DeepEqual(res1, res2) {
				t.Errorf("repeat runs diverge:\nfirst  = %+v\nsecond = %+v", res1, res2)
			}
			if !bytes.Equal(trace1, trace2) {
				t.Errorf("repeat JSONL traces diverge (%d vs %d bytes)", len(trace1), len(trace2))
			}
			if !protocolMutated && len(res1.Violations) != 0 {
				t.Errorf("run violated invariants: %+v", res1.Violations)
			}
		})
	}
}

// TestBackendParallelShardsDeterministic checks the weaker contract of
// the free-running parallel engine per backend: not byte-identical to
// serial, but exactly reproducible for a fixed (seed, shard count).
func TestBackendParallelShardsDeterministic(t *testing.T) {
	t.Parallel()
	for _, be := range conformanceBackends {
		t.Run(be, func(t *testing.T) {
			t.Parallel()
			sc := conformanceScenario(t, be)
			sc.ParallelShards = 3
			res1, trace1 := collectRun(t, &Env{}, sc)
			res2, trace2 := collectRun(t, &Env{}, sc)
			if len(trace1) == 0 {
				t.Fatal("run emitted no events")
			}
			if !reflect.DeepEqual(res1, res2) {
				t.Errorf("parallel reruns diverge:\nfirst  = %+v\nsecond = %+v", res1, res2)
			}
			if !bytes.Equal(trace1, trace2) {
				t.Errorf("parallel rerun JSONL traces diverge (%d vs %d bytes)", len(trace1), len(trace2))
			}
		})
	}
}

// TestBackendChaosSuiteClean runs the full 9-case fault matrix under each
// backend with its own invariant rule set attached: nominal seeds must
// produce zero proven violations and keep tracking alive in every cell.
// For the passive backend this is the acceptance gate for its invariant
// set (trace monotonicity, report-without-trace, estimate staleness).
func TestBackendChaosSuiteClean(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite x2 is slow")
	}
	if protocolMutated {
		t.Skip("protocol mutated (-tags chaosmut): violations are the expected outcome")
	}
	t.Parallel()
	for _, be := range conformanceBackends {
		t.Run(be, func(t *testing.T) {
			t.Parallel()
			rep, err := RunChaos(&Env{Backend: be}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Points) == 0 {
				t.Fatal("chaos suite produced no points")
			}
			for _, p := range rep.Points {
				for _, m := range p.Backends {
					if m.Backend != be {
						t.Errorf("case %q seed %d: cell ran %q, want the env's %q", p.Case, p.Seed, m.Backend, be)
					}
					if m.CheckedEvents == 0 {
						t.Errorf("case %q seed %d: invariant checker saw no events", p.Case, p.Seed)
					}
					if !m.TrackedOK {
						t.Errorf("case %q seed %d: tracking died", p.Case, p.Seed)
					}
					for _, v := range m.ViolationList {
						t.Errorf("case %q seed %d: %s violation at %v: %s", p.Case, p.Seed, v.Invariant, v.At, v.Detail)
					}
				}
			}
		})
	}
}

// TestBackendDoubleAttachErrors checks attach idempotence at the public
// API: attaching the same context type twice must fail identically under
// every backend, leaving the first attachment working.
func TestBackendDoubleAttachErrors(t *testing.T) {
	t.Parallel()
	for _, be := range conformanceBackends {
		t.Run(be, func(t *testing.T) {
			t.Parallel()
			net, err := envirotrack.New(
				envirotrack.WithGrid(3, 2),
				envirotrack.WithSensing(envirotrack.VehicleSensing("vehicle")),
				envirotrack.WithSeed(1),
			)
			if err != nil {
				t.Fatal(err)
			}
			spec := trackerSpec(Scenario{Backend: be}.withDefaults())
			if err := net.AttachContextAll(spec); err != nil {
				t.Fatalf("first attach: %v", err)
			}
			if err := net.AttachContextAll(spec); err == nil {
				t.Error("second attach of the same context type succeeded, want error")
			}
			if err := net.Run(time.Second); err != nil {
				t.Errorf("network run after rejected re-attach: %v", err)
			}
		})
	}
}

// TestSummarizeComparison pins the comparative summary's aggregation on
// synthetic points: per-backend means, counts, and ordering.
func TestSummarizeComparison(t *testing.T) {
	points := []ComparePoint{
		{Case: "a", Seed: 1, Backends: []BackendMetrics{
			{Backend: "leader", Coherent: true, TrackedOK: true, MeanErr: 0.2, MeanGap: 4 * time.Second, FramesPerSec: 10, Handovers: 3, Gaps: 1},
			{Backend: "passive", Coherent: true, TrackedOK: false, MeanErr: 0.4, MeanGap: 6 * time.Second, FramesPerSec: 8, Handovers: 5, Violations: 1},
		}},
		{Case: "a", Seed: 2, Backends: []BackendMetrics{
			{Backend: "leader", Coherent: false, TrackedOK: true, MeanErr: 0.4, MeanGap: 8 * time.Second, FramesPerSec: 14, Handovers: 5, Gaps: 1},
			{Backend: "passive", Coherent: true, TrackedOK: true, MeanErr: 0.2, MeanGap: 2 * time.Second, FramesPerSec: 6, Handovers: 7},
		}},
	}
	sums := SummarizeComparison(points)
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	leader, passive := sums[0], sums[1]
	if leader.Backend != "leader" || passive.Backend != "passive" {
		t.Fatalf("summary order = %q, %q; want leader, passive", leader.Backend, passive.Backend)
	}
	if leader.Cells != 2 || passive.Cells != 2 {
		t.Errorf("cells = %d, %d; want 2, 2", leader.Cells, passive.Cells)
	}
	if !almostEqual(leader.CoherentPct, 50, 1e-9) || !almostEqual(passive.TrackedPct, 50, 1e-9) {
		t.Errorf("percentages: leader coherent %.1f (want 50), passive tracked %.1f (want 50)",
			leader.CoherentPct, passive.TrackedPct)
	}
	if !almostEqual(leader.MeanErr, 0.3, 1e-9) || !almostEqual(leader.MeanGapSec, 6, 1e-9) {
		t.Errorf("leader means: err %.2f (want 0.3), gap %.1fs (want 6)", leader.MeanErr, leader.MeanGapSec)
	}
	if !almostEqual(leader.FramesPerSec, 12, 1e-9) || leader.Handovers != 8 || leader.Gaps != 2 {
		t.Errorf("leader totals: frames/s %.1f (want 12), handovers %d (want 8), gaps %d (want 2)",
			leader.FramesPerSec, leader.Handovers, leader.Gaps)
	}
	if passive.Violations != 1 {
		t.Errorf("passive violations = %d, want 1", passive.Violations)
	}
}
