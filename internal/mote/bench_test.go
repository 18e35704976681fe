package mote

import (
	"math/rand"
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
// every scan computes the channel a tracker reads; the returned counter
// holds the detections seen.
func sweepField(tb testing.TB) (*simtime.ShardGroup, *Sweep, *int) {
	tb.Helper()
	const side = 100
	group := simtime.NewShardGroup(1)
	var stats trace.Stats
	rt := radio.ShardRuntime{Sched: group.Shard(0), RNG: rand.New(rand.NewSource(1)), Stats: &stats}
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
	detections := new(int)
	scan := scanFunc(func(_ int, rd *sensor.Reading) {
		if v, _ := rd.Value("magnetic_detect"); v > 0.5 {
			*detections++
		}
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
	return group, sw, detections
}

// sweepTick runs the group through one sensing period.
func sweepTick(tb testing.TB, group *simtime.ShardGroup) {
	if err := group.Run(group.Now()+DefaultSensePeriod, 0, nil); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSenseSweep measures the sensing sweep on the large-field tier:
// each op is one mote scan (sampling VehicleModel against the tick's
// snapshot and calling the type's scanner, which reads magnetic_detect),
// and ops run in whole sweep ticks, so the field is resolved once per 10k
// scans as in a run. ns/mote_scan is the per-scan cost over the ticks actually run.
// With the snapshot and scan scratch owned by the sweep, steady state
// allocates nothing.
func BenchmarkSenseSweep(b *testing.B) {
	group, sw, _ := sweepField(b)
	sweepTick(b, group) // warm the snapshot and scan scratch
	ticks := (b.N + len(sw.rows) - 1) / len(sw.rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < ticks; i++ {
		sweepTick(b, group)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks*len(sw.rows)), "ns/mote_scan")
}

func TestSweepTickAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10k-mote field")
	}
	group, _, detections := sweepField(t)
	allocs := testing.AllocsPerRun(5, func() { sweepTick(t, group) })
	if allocs != 0 {
		t.Errorf("a steady-state sweep tick allocated %v times", allocs)
	}
	if *detections == 0 {
		t.Error("no scan detected a vehicle: the scanner read nothing")
	}
}
