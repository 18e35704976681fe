package eval

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"envirotrack"
	"envirotrack/internal/obs"
)

// collectRun executes one scenario under env with a JSONL sink attached
// and returns its result plus the byte-exact event stream.
func collectRun(t *testing.T, env *Env, sc Scenario) (RunResult, []byte) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	env.Sink = sink
	res, err := Run(env, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// runDigest is the recorded fingerprint of one run: byte length and
// SHA-256 of its JSONL trace and of its RunResult JSON without the
// Scenario (see outcomeJSON).
type runDigest struct {
	TraceBytes   int    `json:"trace_bytes"`
	TraceSHA256  string `json:"trace_sha256"`
	ResultBytes  int    `json:"result_bytes"`
	ResultSHA256 string `json:"result_sha256"`
}

func digestOf(trace, result []byte) runDigest {
	ts, rs := sha256.Sum256(trace), sha256.Sum256(result)
	return runDigest{
		TraceBytes: len(trace), TraceSHA256: hex.EncodeToString(ts[:]),
		ResultBytes: len(result), ResultSHA256: hex.EncodeToString(rs[:]),
	}
}

// TestDeliveryMatchesGoldenDigests pins the engines' delivery
// order to golden digests. The digests in testdata/delivery_digests.json
// were recorded while the radio medium still carried a per-receiver
// reference path (one scheduler event per target receiver) next to the
// batched one (one pooled event per frame), with both paths producing
// identical bytes; the batched path must keep reproducing them. Chaos
// loss, duplication, and partition faults are included because they must
// keep applying per receiver inside a batch. Float bits can differ on
// architectures that fuse multiply-adds, so the test runs on amd64 only.
// The cpu-leader and cpu-passive cases run a Figure 5-style corridor on
// the constrained mote CPU (8 ms service, queue of 6), so the digests also
// pin the order in which CPU completions and their handler chains run
// when one heartbeat lands on dozens of idle motes at the same instant.
// The cpu-*-2shard cases run the same corridors on the 2-shard engine,
// whose window edges follow the earliest pending event, so they also pin
// where its barriers fall. On a mismatch it prints the new digest; a
// deliberate behaviour change must update the file by hand.
func TestDeliveryMatchesGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; %s may round floats differently", runtime.GOARCH)
	}
	t.Parallel()
	raw, err := os.ReadFile("testdata/delivery_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]runDigest
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	sched, err := envirotrack.ParseChaosSchedule(
		"crash:node=5,at=20s,for=5s;loss:at=10s,for=10s,p=0.4;partition:x=5,at=25s,for=5s;dup:at=30s,for=5s,p=0.25")
	if err != nil {
		t.Fatal(err)
	}
	chaotic := chaosBase(13)
	chaotic.Chaos = sched
	chaotic.CheckInvariants = true
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"nominal", Scenario{Seed: 7}},
		{"lossy", Scenario{Seed: 11, LossProb: 0.2}},
		{"chaos", chaotic},
		{"cpu-leader", cpuCorridor(envirotrack.BackendLeader, 17)},
		{"cpu-passive", cpuCorridor(envirotrack.BackendPassive, 19)},
		{"cpu-leader-2shard", twoShards(cpuCorridor(envirotrack.BackendLeader, 17))},
		{"cpu-passive-2shard", twoShards(cpuCorridor(envirotrack.BackendPassive, 19))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want, ok := golden[tc.name]
			if !ok {
				t.Fatalf("no golden digest for %q", tc.name)
			}
			res, trace := collectRun(t, &Env{}, tc.sc)
			if len(res.Violations) != 0 {
				t.Errorf("run violated invariants: %+v", res.Violations)
			}
			result := outcomeJSON(t, res)
			if got := digestOf(trace, result); got != want {
				gotJSON, _ := json.MarshalIndent(got, "", "  ")
				t.Errorf("run diverges from the recorded digest\ngot  %s\nwant %+v", gotJSON, want)
			}
		})
	}
}

// outcomeJSON is res as JSON minus its Scenario. The scenario is the
// run's input, so renaming or deleting one of its fields must not move a
// digest; every simulated field stays pinned.
func outcomeJSON(t *testing.T, res RunResult) []byte {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "Scenario")
	out, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// cpuCorridor is a Figure 5-style stress corridor on the constrained mote
// CPU: CR 6, 250 ms heartbeats, 8 ms service per frame, queue of 6, and
// 5% channel loss, crossed at 0.4 hops per second.
func cpuCorridor(backend string, seed int64) Scenario {
	sc := figure5Scenario(0.25, 2, true)
	sc.SpeedHops = 0.4
	sc.Seed = seed
	sc.Backend = backend
	return sc
}

// twoShards runs sc on the free-running 2-shard engine.
func twoShards(sc Scenario) Scenario {
	sc.ParallelShards = 2
	return sc
}
