package mote

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/phenomena"
	"envirotrack/internal/radio"
	"envirotrack/internal/sensor"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// cullLine is a row of 20 vehicle-sensing motes at x = 0..19, rows 0..19,
// with a vehicle parked over mote 0, carrying one type whose scanner
// detects like a tracker's: quiet unless magnetic_detect fires. It logs
// the rows it scans by the row argument, since reading the reading's
// MoteID would make every scan unprovable.
type cullLine struct {
	h       *harness
	model   *sensor.Model
	motes   []*Mote
	mask    uint32
	scanned []int
}

func newCullLine(t *testing.T) *cullLine {
	t.Helper()
	c := &cullLine{h: newHarness(t, radio.Params{CommRadius: 2}), model: sensor.VehicleModel("vehicle")}
	c.h.field.Add(&phenomena.Target{
		Kind: "vehicle", Traj: phenomena.Stationary{At: geom.Pt(0, 0)}, SignatureRadius: 1.2,
	})
	c.mask, _ = c.h.hot.CtxMask("tracker")
	for id := 0; id < 20; id++ {
		m := c.h.mote(t, radio.NodeID(id), geom.Pt(float64(id), 0), c.model, Config{})
		_, row := m.Hot()
		c.h.hot.Attach(row, c.mask, scanFunc(c.scan))
		c.motes = append(c.motes, m)
	}
	c.h.sweep(c.motes...)
	return c
}

func (c *cullLine) scan(row int, rd *sensor.Reading) bool {
	c.scanned = append(c.scanned, row)
	v, _ := rd.Value("magnetic_detect")
	return v < 0.5
}

// tick runs one sensing period and returns the rows scanned in it.
func (c *cullLine) tick(t *testing.T) []int {
	t.Helper()
	c.scanned = c.scanned[:0]
	c.h.runUntil(t, c.h.sched.Now()+SensePeriod)
	return slices.Clone(c.scanned)
}

// reached is what a tick of cullLine scans once the cull fires: the rows
// in the grid cells the vehicle's disc overlaps.
var reached = []int{0, 1}

// TestSweepScansMotesWithBitsSet checks that a mote outside every
// signature disc, proven quiet, is scanned on every tick that finds its
// sensing or leading bit set, and skipped again once both are clear; a
// failed mote is never scanned.
func TestSweepScansMotesWithBitsSet(t *testing.T) {
	c := newCullLine(t)
	if got := c.tick(t); len(got) != 20 {
		t.Fatalf("first tick scanned rows %v, want all 20", got)
	}
	if got := c.tick(t); !slices.Equal(got, reached) {
		t.Fatalf("second tick scanned rows %v, want %v", got, reached)
	}
	hot := c.h.hot
	hot.SetLeading(10, c.mask, true)
	if got, want := c.tick(t), []int{0, 1, 10}; !slices.Equal(got, want) {
		t.Errorf("with mote 10 leading, a tick scanned rows %v, want %v", got, want)
	}
	hot.SetLeading(10, c.mask, false)
	hot.SetSensing(15, c.mask, true)
	if got, want := c.tick(t), []int{0, 1, 15}; !slices.Equal(got, want) {
		t.Errorf("with mote 15 sensing, a tick scanned rows %v, want %v", got, want)
	}
	c.motes[15].Fail()
	if got := c.tick(t); !slices.Equal(got, reached) {
		t.Errorf("with sensing mote 15 failed, a tick scanned rows %v, want %v", got, reached)
	}
	c.motes[15].Restore()
	hot.SetSensing(15, c.mask, false)
	if got := c.tick(t); !slices.Equal(got, reached) {
		t.Errorf("with every bit clear again, a tick scanned rows %v, want %v", got, reached)
	}
}

// TestSweepForgetsProofsOnChange checks that the proofs go when what they
// were learned under changes: attaching a type makes the next tick scan
// every mote, and so does a new channel in the model, which, being eager,
// keeps every later tick scanning every mote too.
func TestSweepForgetsProofsOnChange(t *testing.T) {
	c := newCullLine(t)
	c.tick(t)
	if got := c.tick(t); !slices.Equal(got, reached) {
		t.Fatalf("second tick scanned rows %v, want %v", got, reached)
	}
	other, _ := c.h.hot.CtxMask("other")
	c.h.hot.Attach(7, other, scanFunc(func(int, *sensor.Reading) bool { return true }))
	if got := c.tick(t); len(got) != 20 {
		t.Errorf("the tick after an attach scanned rows %v, want all 20", got)
	}
	if got := c.tick(t); !slices.Equal(got, reached) {
		t.Errorf("the next tick scanned rows %v, want %v", got, reached)
	}
	c.model.SetChannel("hum", sensor.ConstantChannel(0))
	for i := 0; i < 2; i++ {
		if got := c.tick(t); len(got) != 20 {
			t.Errorf("tick %d after SetChannel scanned rows %v, want all 20", i+1, got)
		}
	}
}

// TestSweepReachMarksEveryRowInADisc places sensing motes at random,
// some on a line, with stationary targets among them, and checks the
// reach a tick computes: unless it finds every row in reach, it marks
// every row whose position geom.Point.Within puts in a signature disc.
// The index's own cover is checked in geom.
func TestSweepReachMarksEveryRowInADisc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := sensor.VehicleModel("vehicle")
	checked := 0
	for trial := 0; trial < 60; trial++ {
		h := newHarness(t, radio.Params{CommRadius: 2})
		scale := math.Pow(10, float64(rng.Intn(7)-2))
		motes := make([]*Mote, 1+rng.Intn(150))
		for i := range motes {
			p := geom.Pt(rng.NormFloat64()*scale, rng.NormFloat64()*scale)
			if trial%3 == 0 {
				p.Y = 0 // a line
			}
			motes[i] = h.mote(t, radio.NodeID(i), p, model, Config{})
		}
		for range 1 + rng.Intn(3) {
			c := motes[rng.Intn(len(motes))].Pos()
			c.X += rng.NormFloat64() * scale / 4
			h.field.Add(&phenomena.Target{
				Kind: "vehicle", Traj: phenomena.Stationary{At: c}, SignatureRadius: rng.ExpFloat64() * scale / 2,
			})
		}
		sw := h.sweep(motes...)
		sw.env.Field.Resolve(0, &sw.snap)
		if !sw.markReach() {
			continue
		}
		checked++
		for k, row := range sw.rows {
			for i := 0; i < sw.snap.Targets(); i++ {
				if c, r := sw.snap.Disc(i); h.hot.pos[row].Within(c, r) && !sw.reach.has(k) {
					t.Fatalf("trial %d: row %d at %v lies in the disc %v r=%v but is not in reach", trial, row, h.hot.pos[row], c, r)
				}
			}
		}
	}
	if checked < 30 {
		t.Errorf("only %d of 60 trials left some row out of reach", checked)
	}
}

// TestSweepVisitsWhatThePerRowRuleVisits runs the word-wide pass against
// the per-row rule it replaces. A row is visited unless it is failed, or
// it is proven quiet, outside every signature disc's cells, and has no
// sensing or leading bit set. The motes are built in a shuffled id order,
// so a row's HotState index differs from its index in its sweep, and they
// are split over k shards, one sweep each, sharing one HotState, as a
// sharded network is. Between ticks each shard flips the sensing, leading
// and failed bits of random rows of its own; every tick must visit, in
// add order, exactly the rows the per-row rule visits.
func TestSweepVisitsWhatThePerRowRuleVisits(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) { testSweepPerRowRule(t, k) })
	}
}

func testSweepPerRowRule(t *testing.T, k int) {
	const side, period, ticks = 20, SensePeriod, 40
	group := simtime.NewShardGroup(k)
	shardOf := func(p geom.Point) int32 { return int32(p.X) * int32(k) / side }
	rts := make([]radio.ShardRuntime, k)
	for i := range rts {
		rts[i] = radio.ShardRuntime{Sched: group.Shard(i), Seed: 1, Stats: &trace.Stats{}}
	}
	medium := radio.New(radio.Params{CommRadius: 2}, shardOf, rts...)
	field := phenomena.NewField()
	field.Add(&phenomena.Target{
		Kind: "vehicle", Traj: phenomena.Stationary{At: geom.Pt(3, 4)}, SignatureRadius: 1.5,
	})
	field.Add(&phenomena.Target{
		// Half a grid unit per sensing period: the target crosses the
		// field in the test's 40 ticks.
		Kind: "vehicle", Traj: phenomena.Line{Start: geom.Pt(0, 9), Dir: geom.Vec(1, 0.1), Speed: 5}, SignatureRadius: 1.5,
	})
	hot := NewHotState()
	mask, _ := hot.CtxMask("tracker")
	envs := make([]*Env, k)
	sweeps := make([]*Sweep, k)
	for i := range envs {
		envs[i] = NewEnv(rts[i], medium, field, Config{}, hot)
		sweeps[i] = NewSweep(envs[i])
	}
	// Each shard logs the rows its sweep scans, and flips bits of its own
	// rows only, so no two shard goroutines share a log or a row.
	logs := make([][]int, k)
	rowShard := make([]int, side*side)
	shardRows := make([][]int, k)
	scan := scanFunc(func(row int, rd *sensor.Reading) bool {
		s := rowShard[row]
		logs[s] = append(logs[s], row)
		v, _ := rd.Value("magnetic_detect")
		return v < 0.5
	})
	model := sensor.VehicleModel("vehicle")
	motes := make([]*Mote, side*side)
	for _, id := range rand.New(rand.NewSource(7)).Perm(side * side) {
		pos := geom.Pt(float64(id%side), float64(id/side))
		s := int(shardOf(pos))
		m, err := New(radio.NodeID(id), pos, model, envs[s])
		if err != nil {
			t.Fatal(err)
		}
		hot.Attach(int(m.row), mask, scan)
		rowShard[m.row] = s
		shardRows[s] = append(shardRows[s], int(m.row))
		motes[id] = m
	}
	for _, m := range motes {
		sweeps[rowShard[m.row]].Add(m)
	}
	for _, sw := range sweeps {
		sw.Start()
	}
	if motes[0].row == 0 && motes[1].row == 1 {
		t.Fatal("the shuffled build order left rows in id order")
	}
	for s := range k {
		rng := rand.New(rand.NewSource(int64(s)))
		flip := func(any) {
			for range 6 {
				row := shardRows[s][rng.Intn(len(shardRows[s]))]
				switch rng.Intn(3) {
				case 0:
					hot.SetSensing(row, mask, rng.Intn(3) == 0)
				case 1:
					hot.SetLeading(row, mask, rng.Intn(3) == 0)
				default:
					hot.failed[row] = rng.Intn(4) == 0
				}
			}
		}
		for n := range ticks {
			group.Shard(s).AtEventOwned(time.Duration(n)*period+period/2, simtime.OwnerNone, flip, nil)
		}
	}
	run := func(deadline time.Duration) {
		if err := group.Run(deadline, time.Millisecond, nil); err != nil {
			t.Fatal(err)
		}
	}
	visited := 0
	for n := 1; n <= ticks; n++ {
		run(time.Duration(n)*period - period/4)
		want := make([][]int, k)
		for s, sw := range sweeps {
			want[s] = sw.perRowRule(time.Duration(n) * period)
			logs[s] = logs[s][:0]
		}
		run(time.Duration(n)*period + period/4)
		for s := range sweeps {
			if !slices.Equal(logs[s], want[s]) {
				t.Fatalf("tick %d, shard %d: scanned rows %v, the per-row rule visits %v", n, s, logs[s], want[s])
			}
			visited += len(logs[s])
		}
	}
	if visited >= ticks*side*side/2 {
		t.Errorf("the ticks visited %d rows of %d: the cull hardly fired", visited, ticks*side*side)
	}
}

// perRowRule returns the rows a tick of s at time at visits by the
// per-row rule, in add order. It must run between ticks.
func (s *Sweep) perRowRule(at time.Duration) []int {
	h := s.env.Hot
	s.env.Field.Resolve(at, &s.snap)
	all := !s.skipping || !s.markReach()
	var rows []int
	for k, row := range s.rows {
		if h.failed[row] {
			continue
		}
		if all || !s.skip.has(k) || s.reach.has(k) || h.sensing[row]|h.leading[row] != 0 {
			rows = append(rows, int(row))
		}
	}
	s.reach.clear()
	return rows
}
