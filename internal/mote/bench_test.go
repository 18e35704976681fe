package mote

import (
	"testing"

	"envirotrack/internal/geom"
	"envirotrack/internal/phenomena"
	"envirotrack/internal/radio"
	"envirotrack/internal/sensor"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// sweepField builds the large-field sensing tier: a 100x100 grid of
// vehicle-sensing motes, four vehicles on slanted lines, and a started
// sweep over the motes in id order. The motes share one HotState and
// carry one context type, whose scanner reads magnetic_detect and
// thresholds it, as a vehicle tracker's activation predicate does, so
// every scan computes the channel a tracker reads. Like core's scanner of
// a type with one shared spec, it reports a scan that detects nothing as
// quiet, so the sweep culls the motes no vehicle reaches. The returned
// counts hold the scans made and the detections seen.
func sweepField(tb testing.TB) (*simtime.ShardGroup, *Sweep, *sweepCounts) {
	tb.Helper()
	const side = 100
	group := simtime.NewShardGroup(1)
	var stats trace.Stats
	rt := radio.ShardRuntime{Sched: group.Shard(0), Seed: 1, Stats: &stats}
	medium := radio.New(radio.Params{CommRadius: 2.5}, nil, rt)
	field := phenomena.NewField()
	for i := 0; i < 4; i++ {
		field.Add(&phenomena.Target{
			Kind:            "vehicle",
			Traj:            phenomena.Line{Start: geom.Pt(5, float64(10+20*i)), Dir: geom.Vec(1, 0.2), Speed: 2},
			SignatureRadius: 1.6,
		})
	}
	model := sensor.VehicleModel("vehicle")
	counts := new(sweepCounts)
	scan := scanFunc(func(_ int, rd *sensor.Reading) bool {
		counts.scans++
		if v, _ := rd.Value("magnetic_detect"); v > 0.5 {
			counts.detections++
			return false
		}
		return true
	})
	env := NewEnv(rt, medium, field, Config{}, NewHotState())
	mask, _ := env.Hot.CtxMask("tracker")
	sw := NewSweep(env)
	for id := 0; id < side*side; id++ {
		pos := geom.Pt(float64(id%side), float64(id/side))
		m, err := New(radio.NodeID(id), pos, model, env)
		if err != nil {
			tb.Fatal(err)
		}
		env.Hot.Attach(int(m.row), mask, scan)
		sw.Add(m)
	}
	sw.Start()
	return group, sw, counts
}

// sweepCounts tallies sweepField's scanner calls.
type sweepCounts struct{ scans, detections int }

// sweepTick runs the group through one sensing period.
func sweepTick(tb testing.TB, group *simtime.ShardGroup) {
	if err := group.Run(group.Now()+DefaultSensePeriod, 0, nil); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSenseSweep measures the sensing sweep on the large-field tier.
// A mote scan is sampling VehicleModel against the tick's snapshot and
// calling the type's scanner, which reads magnetic_detect; ticks visit
// only the motes a vehicle can reach, and the field is resolved once per
// tick as in a run. ns/mote_scan is the cost of a tick over the motes in
// the field, as the bench's sense layer reports it, and scans/tick the
// motes a tick visits. With the snapshot, scan scratch, grid and skip set
// owned by the sweep, steady state allocates nothing.
func BenchmarkSenseSweep(b *testing.B) {
	group, sw, counts := sweepField(b)
	sweepTick(b, group) // warm the snapshot and scan scratch, learn the skips
	ticks := (b.N + len(sw.rows) - 1) / len(sw.rows)
	scans := counts.scans
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < ticks; i++ {
		sweepTick(b, group)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks*len(sw.rows)), "ns/mote_scan")
	b.ReportMetric(float64(counts.scans-scans)/float64(ticks), "scans/tick")
}

func TestSweepTickAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10k-mote field")
	}
	group, sw, counts := sweepField(t)
	sweepTick(t, group)
	if counts.scans != len(sw.rows) {
		t.Fatalf("the first tick made %d scans, want all %d: nothing is proven yet", counts.scans, len(sw.rows))
	}
	const runs = 5
	scans := counts.scans
	allocs := testing.AllocsPerRun(runs, func() { sweepTick(t, group) })
	if allocs != 0 {
		t.Errorf("a steady-state sweep tick allocated %v times", allocs)
	}
	// AllocsPerRun runs the function once more to warm up.
	if perTick := float64(counts.scans-scans) / (runs + 1); perTick >= 0.01*float64(len(sw.rows)) {
		t.Errorf("a steady-state tick made %.0f scans of %d motes, want under 1%%: the cull did not fire", perTick, len(sw.rows))
	}
	if counts.detections == 0 {
		t.Error("no scan detected a vehicle: the scanner read nothing")
	}
}
