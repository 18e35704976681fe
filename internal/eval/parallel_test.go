package eval

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"envirotrack"
	"envirotrack/internal/obs"
)

// TestParallelSweepsMatchSerial asserts the tentpole contract of the
// parallel sweep engine: because every Run is seeded and owns its
// scheduler, fanning the sweeps across workers must produce byte-identical
// rows/points to the serial loop — including the float accumulation order
// of the per-cell averages.
func TestParallelSweepsMatchSerial(t *testing.T) {
	t.Parallel()
	const trials = 2 // >= 2 seeds per cell (trial seeds 1 and 2)

	// Run the whole comparison with a JSONL exporter attached: tracing is
	// observation-only, so it must not perturb the seeded runs on either
	// the serial or the parallel path.
	var traced bytes.Buffer
	sink := obs.NewJSONLSink(&traced)
	sweeps := func(width int) ([]Figure4Row, []Table1Row) {
		env := &Env{Sink: sink, Parallel: width}
		f4, err := RunFigure4(env, trials)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := RunTable1(env, trials)
		if err != nil {
			t.Fatal(err)
		}
		return f4, t1
	}
	serialF4, serialT1 := sweeps(1)
	parallelF4, parallelT1 := sweeps(4)
	if !reflect.DeepEqual(serialF4, parallelF4) {
		t.Errorf("Figure4 rows diverge:\nserial   = %+v\nparallel = %+v", serialF4, parallelF4)
	}
	if !reflect.DeepEqual(serialT1, parallelT1) {
		t.Errorf("Table1 rows diverge:\nserial   = %+v\nparallel = %+v", serialT1, parallelT1)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if traced.Len() == 0 {
		t.Error("JSONL sink saw no events during the sweeps")
	}
}

// TestParallelFigure5MatchesSerial covers the sweep-point fan-out of
// RunFigure5 (and, via MaxTrackableSpeed, the per-seed fan) on a reduced
// two-seed configuration.
func TestParallelFigure5MatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("speed scan is slow")
	}
	t.Parallel()
	cfg := Figure5Config{
		Heartbeats:        []float64{0.5},
		Radii:             []float64{1},
		Seeds:             []int64{1, 2},
		IncludeRelinquish: true,
	}
	serial, err := RunFigure5(&Env{Parallel: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunFigure5(&Env{Parallel: 4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Figure5 points diverge:\nserial   = %+v\nparallel = %+v", serial, parallel)
	}
}

// tagSink records the distinct run tags it sees.
type tagSink struct {
	mu   sync.Mutex
	runs map[int64]bool
}

func (s *tagSink) Emit(ev obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runs == nil {
		s.runs = make(map[int64]bool)
	}
	s.runs[ev.Run] = true
}

// TestEnvRunTagsDistinct pins the run-tag ledger: a lone Figure 3 run
// keeps its seed as tag, and every later sweep run on the same Env gets
// a fresh tag even though Table 1's cells reuse seeds.
func TestEnvRunTagsDistinct(t *testing.T) {
	t.Parallel()
	sink := &tagSink{}
	env := &Env{Sink: sink, Parallel: 2}
	if _, err := RunFigure3(env, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := RunTable1(env, 2); err != nil {
		t.Fatal(err)
	}
	want := map[int64]bool{2: true, 3: true, 4: true, 5: true, 6: true}
	if !reflect.DeepEqual(sink.runs, want) {
		t.Errorf("run tags = %v, want %v", sink.runs, want)
	}
	// A seed an earlier block already took is not reused.
	if got := env.seedTag(4); got != 7 {
		t.Errorf("seedTag(4) after tags 2..6 = %d, want 7", got)
	}
	if got := env.seedTag(100); got != 100 {
		t.Errorf("seedTag(100) = %d, want 100", got)
	}
	if got := env.tagBlock(3); got != 101 {
		t.Errorf("tagBlock after seedTag(100) = %d, want 101", got)
	}
}

// TestEquivalenceSerialEnsembleStaysSerial: the serial side of the
// equivalence battery must run on the serial engine even when the Env
// asks for shards, or the battery compares the parallel engine with
// itself.
func TestEquivalenceSerialEnsembleStaysSerial(t *testing.T) {
	if shardMutated {
		t.Skip("shardmut build hard-fails parallel runs by design")
	}
	t.Parallel()
	serial := envirotrack.NewSelfProfile()
	if _, err := runEnsemble(&Env{Shards: 4, SelfProfile: serial}, Scenario{}, equivSeeds(2), 1); err != nil {
		t.Fatal(err)
	}
	if serial.TotalEvents() == 0 {
		t.Fatal("serial ensemble profiled no events")
	}
	if shards := serial.ShardSnapshot(); shards != nil {
		t.Errorf("serial ensemble under Env.Shards=4 ran on a sharded engine: %+v", shards)
	}
	par := envirotrack.NewSelfProfile()
	if _, err := runEnsemble(&Env{SelfProfile: par}, Scenario{}, equivSeeds(2), 4); err != nil {
		t.Fatal(err)
	}
	shards := par.ShardSnapshot()
	if len(shards) != 4 {
		t.Fatalf("parallel ensemble profiled %d shards, want 4", len(shards))
	}
	for _, st := range shards {
		if st.Events == 0 {
			t.Errorf("parallel ensemble: shard %d executed no events", st.Shard)
		}
	}
}
