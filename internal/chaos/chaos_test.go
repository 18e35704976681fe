package chaos

import (
	"strings"
	"testing"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/radio"
	"envirotrack/internal/simtime"
)

func mustParse(t *testing.T, spec string) Schedule {
	t.Helper()
	s, err := ParseSchedule(spec)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", spec, err)
	}
	return s
}

func TestParseScheduleClauses(t *testing.T) {
	s := mustParse(t, "crash:node=17,at=10s,for=5s;loss:at=20s,for=10s,p=0.5;ramp:from=0.1,to=0.6,start=10s,end=40s;partition:x=5,at=15s;dup:at=5s,p=0.3")
	if len(s.Crashes) != 1 || s.Crashes[0] != (Crash{Node: 17, At: 10 * time.Second, For: 5 * time.Second}) {
		t.Errorf("crashes = %+v", s.Crashes)
	}
	if len(s.Losses) != 1 || s.Losses[0] != (LossStep{At: 20 * time.Second, For: 10 * time.Second, P: 0.5}) {
		t.Errorf("losses = %+v", s.Losses)
	}
	if len(s.Ramps) != 1 || s.Ramps[0] != (LossRamp{From: 0.1, To: 0.6, Start: 10 * time.Second, End: 40 * time.Second}) {
		t.Errorf("ramps = %+v", s.Ramps)
	}
	if len(s.Partitions) != 1 || s.Partitions[0] != (Partition{X: 5, At: 15 * time.Second}) {
		t.Errorf("partitions = %+v", s.Partitions)
	}
	if len(s.Dups) != 1 || s.Dups[0] != (Duplication{At: 5 * time.Second, P: 0.3}) {
		t.Errorf("dups = %+v", s.Dups)
	}
	if s.Empty() {
		t.Error("schedule with five faults reports Empty")
	}
	if empty := mustParse(t, ""); !empty.Empty() {
		t.Error("blank spec is not Empty")
	}
}

func TestParseScheduleErrors(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"boom:at=1s", "unknown fault"},
		{"crash:at=1s", "node"},
		{"crash:node=1,at=1s,node=2", "duplicate"},
		{"crash:node=1,at=1s,extra=3", "unknown field"},
		{"crash:node=x,at=1s", "node"},
		{"loss:at=1s,p=1.5", "p"},
		{"loss:at=1s,p=-0.1", "p"},
		{"loss:at=1s", "p"},
		{"ramp:from=0,to=1,start=5s,end=5s", "window"},
		{"ramp:from=0,to=2,start=1s,end=2s", "endpoints"},
		{"partition:at=1s", "x"},
		{"dup:at=-1s,p=0.5", "at"},
		{"crash", "clause"},
	}
	for _, tc := range cases {
		_, err := ParseSchedule(tc.spec)
		if err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error mentioning %q", tc.spec, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("ParseSchedule(%q) error %q does not mention %q", tc.spec, err, tc.wantSub)
		}
	}
}

func TestInjectorCrashCallbacks(t *testing.T) {
	g := simtime.NewShardGroup(1)
	var events []string
	hooks := Hooks{
		Fail:    func(n int) { events = append(events, "fail") },
		Restore: func(n int) { events = append(events, "restore") },
	}
	sc := mustParse(t, "crash:node=3,at=2s,for=3s;crash:node=4,at=10s")
	if _, err := NewInjector(on(g), sc, hooks); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(20*time.Second, 0, nil); err != nil {
		t.Fatal(err)
	}
	// node 3 fails at 2s, restores at 5s; node 4 fails permanently at 10s.
	want := []string{"fail", "restore", "fail"}
	if len(events) != len(want) {
		t.Fatalf("crash callbacks = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("crash callbacks = %v, want %v", events, want)
		}
	}
}

func TestInjectorRequiresHooks(t *testing.T) {
	g := simtime.NewShardGroup(1)
	if _, err := NewInjector(on(g), mustParse(t, "crash:node=1,at=1s"), Hooks{}); err == nil {
		t.Error("crash schedule without Fail/Restore hooks accepted")
	}
	if _, err := NewInjector(on(g), mustParse(t, "partition:x=5,at=1s"), Hooks{}); err == nil {
		t.Error("partition schedule without Position hook accepted")
	}
}

func TestInjectorLossWindows(t *testing.T) {
	g := simtime.NewShardGroup(1)
	sc := mustParse(t, "loss:at=10s,for=10s,p=0.5;loss:at=15s,for=2s,p=0.9")
	in, err := NewInjector(on(g), sc, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		now  time.Duration
		want float64
	}{
		{5 * time.Second, 0.05},  // before any window: base passes through
		{10 * time.Second, 0.5},  // step onset is inclusive
		{16 * time.Second, 0.9},  // overlapping later clause wins
		{18 * time.Second, 0.5},  // later clause expired, first still active
		{20 * time.Second, 0.05}, // window end is exclusive
	} {
		if got := in.LossProb(tc.now, 0.05); got != tc.want {
			t.Errorf("LossProb(%v) = %v, want %v", tc.now, got, tc.want)
		}
	}
}

func TestInjectorRampInterpolates(t *testing.T) {
	g := simtime.NewShardGroup(1)
	in, err := NewInjector(on(g), mustParse(t, "ramp:from=0.2,to=0.6,start=10s,end=20s"), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.LossProb(10*time.Second, 0); got != 0.2 {
		t.Errorf("ramp start = %v, want 0.2", got)
	}
	if got := in.LossProb(15*time.Second, 0); got < 0.399 || got > 0.401 {
		t.Errorf("ramp midpoint = %v, want 0.4", got)
	}
	if got := in.LossProb(20*time.Second, 0); got != 0 {
		t.Errorf("after ramp end = %v, want base 0", got)
	}
}

func TestInjectorPartitionSeversAcrossLine(t *testing.T) {
	g := simtime.NewShardGroup(1)
	pos := map[radio.NodeID]geom.Point{
		1: geom.Pt(2, 0),
		2: geom.Pt(8, 0),
		3: geom.Pt(3, 5),
	}
	hooks := Hooks{Position: func(n radio.NodeID) (geom.Point, bool) {
		p, ok := pos[n]
		return p, ok
	}}
	in, err := NewInjector(on(g), mustParse(t, "partition:x=5,at=10s,for=10s"), hooks)
	if err != nil {
		t.Fatal(err)
	}
	if in.Linked(5*time.Second, 1, 2) != true {
		t.Error("link severed before partition onset")
	}
	if in.Linked(15*time.Second, 1, 2) != false {
		t.Error("cross-partition link alive during partition")
	}
	if in.Linked(15*time.Second, 1, 3) != true {
		t.Error("same-side link severed during partition")
	}
	if in.Linked(15*time.Second, 1, 99) != true {
		t.Error("link with unknown-position node severed")
	}
	if in.Linked(20*time.Second, 1, 2) != true {
		t.Error("link still severed after partition heals")
	}
}

func TestInjectorDuplicateWindows(t *testing.T) {
	g := simtime.NewShardGroup(1)
	in, err := NewInjector(on(g), mustParse(t, "dup:at=10s,for=5s,p=0.3"), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.DuplicateProb(5 * time.Second); got != 0 {
		t.Errorf("before window: %v, want 0", got)
	}
	if got := in.DuplicateProb(12 * time.Second); got != 0.3 {
		t.Errorf("inside window: %v, want 0.3", got)
	}
	if got := in.DuplicateProb(15 * time.Second); got != 0 {
		t.Errorf("after window: %v, want 0", got)
	}
}

// on routes every crash/restore event to the one shard of g.
func on(g *simtime.ShardGroup) func(int) *simtime.Scheduler {
	return func(int) *simtime.Scheduler { return g.Shard(0) }
}
