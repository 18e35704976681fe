//go:build shardmut

package eval

import (
	"strings"
	"testing"
	"time"

	"envirotrack"
)

const shardMutated = true

// TestShardMutationFailsRunWithLookaheadError is the lookahead rule's
// self-test: built with -tags shardmut, cross-shard radio deliveries land
// one nanosecond early (shardMutSkew in internal/radio), closer to the
// sending shard's commit time than one packet time. On a parallel run
// with cross-boundary traffic Run must fail with an error naming the
// lookahead bound (and the run must report boundary frames at all, or
// the check is vacuous).
func TestShardMutationFailsRunWithLookaheadError(t *testing.T) {
	t.Parallel()
	net, err := envirotrack.New(
		envirotrack.WithGrid(10, 10),
		envirotrack.WithSeed(3),
		envirotrack.WithParallelShards(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Motes 44 (4,4) and 45 (5,4) straddle the 2x2 shard split of the
	// 10x10 field, one hop apart: every frame between them is boundary
	// traffic.
	if err := net.AddCrossTraffic(44, 45, 100*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	err = net.Run(5 * time.Second)
	if bf := net.BoundaryFrames(); bf == 0 {
		t.Fatal("no boundary frames crossed shards; the violation check is vacuous")
	}
	if err == nil || !strings.Contains(err.Error(), "lookahead bound") {
		t.Errorf("parallel run with skewed boundary deliveries returned %v, want an error naming the lookahead bound", err)
	}
}

// TestShardMutationHardFailsParallelRun proves the free-running parallel
// engine refuses to deliver a result built on a broken lookahead: under
// the shardmut skew, boundary deliveries land before the window barrier,
// and Scenario.Run must surface that as an error rather than return
// statistics from a run whose conservative-execution premise was
// violated.
func TestShardMutationHardFailsParallelRun(t *testing.T) {
	t.Parallel()
	_, err := Run(&Env{}, Scenario{Seed: 7, ParallelShards: 4})
	if err == nil || !strings.Contains(err.Error(), "lookahead bound") {
		t.Fatalf("parallel run with skewed boundary deliveries returned %v: lookahead violations must hard-fail the run", err)
	}
}
