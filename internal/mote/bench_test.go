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
// vehicle-sensing motes with a no-op listener, four vehicles on slanted
// lines, and a started sweep over the motes in id order.
func sweepField(tb testing.TB) (*simtime.Scheduler, *Sweep) {
	tb.Helper()
	const side = 100
	sched := simtime.NewScheduler()
	var stats trace.Stats
	rng := rand.New(rand.NewSource(1))
	medium := radio.New(radio.Params{CommRadius: 2.5}, nil, radio.ShardRuntime{Sched: sched, RNG: rng, Stats: &stats})
	field := phenomena.NewField()
	for i := 0; i < 4; i++ {
		field.Add(&phenomena.Target{
			Kind:            "vehicle",
			Traj:            phenomena.Line{Start: geom.Pt(5, float64(10+20*i)), Dir: geom.Vec(1, 0.2), Speed: 2},
			SignatureRadius: 1.6,
		})
	}
	model := sensor.VehicleModel("vehicle")
	sw := NewSweep(sched, field)
	for id := 0; id < side*side; id++ {
		pos := geom.Pt(float64(id%side), float64(id/side))
		m, err := New(radio.NodeID(id), pos, sched, medium, field, model, Config{}, rng, &stats)
		if err != nil {
			tb.Fatal(err)
		}
		m.AddSenseListener(func(*sensor.Reading) {})
		sw.Add(m)
	}
	sw.Start()
	return sched, sw
}

// BenchmarkSenseSweep measures the sensing sweep on the large-field tier:
// each op is one mote scan (sampling both VehicleModel channels against
// the tick's snapshot and calling the listener), and ops run in whole
// sweep ticks, so the field is resolved once per 10k scans as in a run.
// ns/mote_scan is the per-scan cost over the ticks actually run. With the
// snapshot and reading scratch owned by the sweep, steady state allocates
// nothing.
func BenchmarkSenseSweep(b *testing.B) {
	sched, sw := sweepField(b)
	tick := func() {
		if err := sched.RunUntil(sched.Now() + DefaultSensePeriod); err != nil {
			b.Fatal(err)
		}
	}
	tick() // warm the snapshot and value scratch
	ticks := (b.N + len(sw.motes) - 1) / len(sw.motes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < ticks; i++ {
		tick()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks*len(sw.motes)), "ns/mote_scan")
}

func TestSweepTickAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10k-mote field")
	}
	sched, _ := sweepField(t)
	allocs := testing.AllocsPerRun(5, func() {
		if err := sched.RunUntil(sched.Now() + DefaultSensePeriod); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a steady-state sweep tick allocated %v times", allocs)
	}
}
