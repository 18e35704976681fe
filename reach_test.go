package envirotrack

import (
	"fmt"
	"testing"
	"time"

	"envirotrack/internal/mote"
	"envirotrack/internal/phenomena"
	"envirotrack/internal/sensor"
	"envirotrack/internal/simtime"
)

// visitLog records the sensing sweep's scans of one context type, per
// HotState row: how many there were and the instant of the latest. Each
// row's entries are written only by the scheduler shard that owns the
// mote, so parallel runs record without locks.
type visitLog struct {
	scheds []*simtime.Scheduler
	count  []int
	last   []time.Duration
}

// total returns the number of scans recorded.
func (l *visitLog) total() int { return sum(l.count) }

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// watchScans replaces the scanner of the attached context type ctxType by
// one that logs every scan and then delegates to it, so it reports the
// same quiet scans and the sweep keeps its proofs.
func watchScans(t *testing.T, n *Network, ctxType string) *visitLog {
	t.Helper()
	h := n.hot
	l := &visitLog{
		scheds: make([]*simtime.Scheduler, h.Len()),
		count:  make([]int, h.Len()),
		last:   make([]time.Duration, h.Len()),
	}
	carrier := -1
	for _, id := range n.Nodes() {
		nd := n.nodes[id]
		_, row := nd.mote.Hot()
		l.scheds[row] = nd.mote.Scheduler()
		if _, ok := nd.stack.Runtime(ctxType); ok {
			carrier = row
		}
	}
	if carrier < 0 {
		t.Fatalf("no mote carries context type %q", ctxType)
	}
	mask, _ := h.CtxMask(ctxType)
	// The type has one scanner for all its rows: attaching it again at a
	// row that carries the type replaces it everywhere.
	h.Attach(carrier, mask, loggedScanner{h.Scanner(mask), l})
	return l
}

// loggedScanner logs a scan, then hands it to the type's own scanner.
type loggedScanner struct {
	inner mote.Scanner
	log   *visitLog
}

func (s loggedScanner) Scan(row int, rd *Reading) bool {
	s.log.count[row]++
	s.log.last[row] = s.log.scheds[row].Now()
	return s.inner.Scan(row, rd)
}

// reachOracle checks each tick of a sweep shard against a full
// evaluation, from the last mote that shard's sweep visits. It is the
// scanner of an "anchor" context type attached only to those motes, whose
// activation reads the mote's position, so no proof ever skips them.
type reachOracle struct {
	inner mote.Scanner
	net   *Network
	spec  ContextType
	model *SensorModel
	mask  uint32
	log   *visitLog
	// rows lists, per shard, the sensing motes' rows and ids; snaps and
	// fails are per shard too, and shard maps a row to its shard.
	rows  [][]int
	ids   [][]NodeID
	snaps []phenomena.Snapshot
	fails [][]string
	shard map[int]int
	// ticks, sensed and led count, per shard, the ticks checked and the
	// sensing and leading motes seen in them.
	ticks, sensed, led []int
}

// Scan runs after the sweep scanned every other mote of the anchor's
// shard in this tick, and before any other event: a mote's sensing and
// leading bits are what the tick left. A mote whose bits are set must
// have been visited, since a skipped mote keeps the clear bits it was
// skipped with, and a mote whose full sample satisfies the activation
// predicate must be sensing.
func (o *reachOracle) Scan(row int, rd *Reading) bool {
	quiet := o.inner.Scan(row, rd)
	h := o.net.hot
	shard := o.shard[row]
	now := o.log.scheds[row].Now()
	snap := &o.snaps[shard]
	o.net.field.Resolve(now, snap)
	o.ticks[shard]++
	for i, r := range o.rows[shard] {
		if h.Failed(r) {
			continue
		}
		sensing, leading := h.Sensing(r, o.mask), h.Leading(r, o.mask)
		if sensing {
			o.sensed[shard]++
		}
		if leading {
			o.led[shard]++
		}
		if (sensing || leading) && o.log.last[r] != now {
			o.fails[shard] = append(o.fails[shard], fmt.Sprintf(
				"at %v mote %d (sensing %v, leading %v) was not scanned", now, o.ids[shard][i], sensing, leading))
		}
		if !sensing && o.spec.Activation(o.model.Sample(snap, int(o.ids[shard][i]), h.Pos(r))) {
			o.fails[shard] = append(o.fails[shard], fmt.Sprintf(
				"at %v mote %d satisfies the activation predicate but is not sensing", now, o.ids[shard][i]))
		}
	}
	return quiet
}

// TestSweepSkipsOnlyProvenQuietMotes runs a 40x40 field with three
// vehicles, one of which appears late and one of which vanishes mid-run,
// on both backends, serial and at 2 shards, and checks every tick of
// every shard's sweep against an oracle (reachOracle): no mote whose
// sensing or leading bit is set goes unscanned, and every mote whose full
// sample satisfies the tracker's activation predicate is sensing. The
// sweep must also have skipped most scans, or the check proves nothing.
func TestSweepSkipsOnlyProvenQuietMotes(t *testing.T) {
	const side, pursuer = 40, 5000
	for _, backend := range []string{BackendLeader, BackendPassive} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", backend, shards), func(t *testing.T) {
				model := VehicleSensing("vehicle")
				n, err := New(WithGrid(side, side), WithCommRadius(2.5), WithSensing(model),
					WithSeed(11), WithBackend(backend), WithParallelShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				spec := trackerContext(pursuer, nil)
				if err := n.AttachContextAll(spec); err != nil {
					t.Fatal(err)
				}
				if _, err := n.AddMote(pursuer, Pt(side/2, side+1), nil); err != nil {
					t.Fatal(err)
				}
				n.AddTarget(&Target{Name: "a", Kind: "vehicle", SignatureRadius: 1.6,
					Traj: Line{Start: Pt(-1, 5), Dir: Vec(1, 0.6), Speed: 3}})
				n.AddTarget(&Target{Name: "b", Kind: "vehicle", SignatureRadius: 2.5,
					Traj: Line{Start: Pt(side, 30), Dir: Vec(-1, -0.2), Speed: 2}, DisappearsAt: 6 * time.Second})
				n.AddTarget(&Target{Name: "c", Kind: "vehicle", SignatureRadius: 1,
					Traj: Line{Start: Pt(20, -1), Dir: Vec(0.1, 1), Speed: 2.5}, AppearsAt: 2 * time.Second})

				o := &reachOracle{net: n, spec: spec, model: model,
					rows: make([][]int, shards), ids: make([][]NodeID, shards),
					snaps: make([]phenomena.Snapshot, shards), fails: make([][]string, shards),
					shard: make(map[int]int),
					ticks: make([]int, shards), sensed: make([]int, shards), led: make([]int, shards)}
				o.mask, _ = n.hot.CtxMask("tracker")
				for _, id := range n.Nodes() {
					if id == pursuer {
						continue
					}
					s := n.medium.NodeShard(id)
					_, row := n.nodes[id].mote.Hot()
					o.rows[s], o.ids[s] = append(o.rows[s], row), append(o.ids[s], id)
					o.shard[row] = int(s)
				}
				anchor := ContextType{Name: "anchor", Activation: func(rd Reading) bool {
					return rd.Position().X < 0
				}}
				for s := range o.ids {
					last, _ := n.Node(o.ids[s][len(o.ids[s])-1])
					if err := last.AttachContext(anchor); err != nil {
						t.Fatal(err)
					}
				}
				o.log = watchScans(t, n, "tracker")
				amask, _ := n.hot.CtxMask("anchor")
				o.inner = n.hot.Scanner(amask)
				_, arow := n.nodes[o.ids[0][len(o.ids[0])-1]].mote.Hot()
				n.hot.Attach(arow, amask, o)

				const ticks = 120
				if err := n.Run(ticks * 100 * time.Millisecond); err != nil {
					t.Fatal(err)
				}
				for s, fails := range o.fails {
					for i, f := range fails {
						if i == 5 {
							t.Errorf("shard %d: ... %d more", s, len(fails)-i)
							break
						}
						t.Errorf("shard %d: %s", s, f)
					}
				}
				for s := range o.ticks {
					if o.ticks[s] != ticks {
						t.Errorf("shard %d: the oracle checked %d ticks, want %d", s, o.ticks[s], ticks)
					}
				}
				if sum(o.sensed) == 0 || sum(o.led) == 0 {
					t.Errorf("the oracle saw %d sensing and %d leading motes: the field tracked nothing", sum(o.sensed), sum(o.led))
				}
				t.Logf("%d tracker scans; %d sensing and %d leading mote-ticks", o.log.total(), sum(o.sensed), sum(o.led))
				if all := ticks * side * side; o.log.total() > all/4 {
					t.Errorf("the sweep made %d of %d tracker scans: the cull hardly fired", o.log.total(), all)
				}
			})
		}
	}
}

// cullCase is a 12x12 field with one vehicle crossing it, a sensing
// model and the context type "probe".
type cullCase struct {
	name string
	// model builds the sensing model every mote shares; nil shares a
	// vehicle model with a noisy SetChannel channel.
	model func() *SensorModel
	// attach attaches the "probe" context type.
	attach func(*Network) error
}

// scanCounts runs c for ten sensing periods and returns the type's scans
// and the sensing motes' count.
func (c cullCase) scanCounts(t *testing.T, shards int) (scans, motes int) {
	t.Helper()
	const side = 12
	model := VehicleSensing("vehicle")
	model.SetChannel("hum", sensor.WithNoise(ConstantChannel(0), 1, 3))
	if c.model != nil {
		model = c.model()
	}
	n, err := New(WithGrid(side, side), WithCommRadius(2.5), WithSensing(model), WithSeed(3), WithParallelShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	n.AddTarget(&Target{Name: "tank", Kind: "vehicle", SignatureRadius: 1.6,
		Traj: Line{Start: Pt(-1, 4), Dir: Vec(1, 0.3), Speed: 2}})
	if err := c.attach(n); err != nil {
		t.Fatal(err)
	}
	log := watchScans(t, n, "probe")
	if err := n.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	return log.total(), side * side
}

// probeType is a context type named "probe" with the given activation.
func probeType(activation func(Reading) bool) func(*Network) error {
	return func(n *Network) error {
		return n.AttachContextAll(ContextType{Name: "probe", Activation: activation})
	}
}

func detects(rd Reading) bool {
	v, _ := rd.Value("magnetic_detect")
	return v > 0.5
}

func vehicleSensing() *SensorModel { return VehicleSensing("vehicle") }

// TestSweepScansWhatItCannotProve covers the scans no proof may skip: on
// every tick the sweep must scan every mote, serial and at 2 shards,
// when the predicate reads where or when the reading was taken, reads an
// unbounded channel or answers true on an empty reading, when the model
// has an eager channel, or when each mote carries its own spec of the
// type.
func TestSweepScansWhatItCannotProve(t *testing.T) {
	cases := []cullCase{
		{"position", vehicleSensing, probeType(func(rd Reading) bool {
			return rd.Position().X < -100 || detects(rd)
		})},
		{"mote-id", vehicleSensing, probeType(func(rd Reading) bool {
			return rd.MoteID() < 0 || detects(rd)
		})},
		{"instant", vehicleSensing, probeType(func(rd Reading) bool {
			return rd.At() < 0 || detects(rd)
		})},
		{"unbounded-channel", vehicleSensing, probeType(func(rd Reading) bool {
			v, _ := rd.Value("magnetic")
			return v > 0.5
		})},
		{"true-when-empty", vehicleSensing, probeType(func(rd Reading) bool {
			v, _ := rd.Value("magnetic_detect")
			return v < 0.5
		})},
		{"eager-channel", nil, probeType(detects)},
		{"per-mote-spec", vehicleSensing, func(n *Network) error {
			for _, id := range n.Nodes() {
				nd, _ := n.Node(id)
				if err := nd.AttachContext(ContextType{Name: "probe", Activation: detects}); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, c := range cases {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", c.name, shards), func(t *testing.T) {
				scans, motes := c.scanCounts(t, shards)
				if want := 10 * motes; scans != want {
					t.Errorf("the sweep made %d scans over 10 ticks of %d motes, want %d", scans, motes, want)
				}
			})
		}
	}
}

// TestSweepCullsCompiledTrackers checks that the cull needs no opt-in: a
// tracker compiled from the declaration language on magnetic_sensor_reading,
// which reads only the bounded magnetic_detect channel, is culled, while
// fire_sensor_reading, which reads the unbounded temperature channel, is
// scanned on every mote every tick.
func TestSweepCullsCompiledTrackers(t *testing.T) {
	compiled := func(sense string) func(*Network) error {
		return func(n *Network) error {
			specs, err := CompileContexts(fmt.Sprintf(`
begin context probe
    activation: %s()
    location : avg(position) confidence=1, freshness=1s
end context
`, sense), CompileEnv{})
			if err != nil {
				return err
			}
			return n.AttachContextAll(specs[0])
		}
	}
	vehicle := cullCase{"vehicle", vehicleSensing, compiled("magnetic_sensor_reading")}
	fire := cullCase{"fire", func() *SensorModel { return FireSensing("vehicle", 20) }, compiled("fire_sensor_reading")}
	for _, shards := range []int{1, 2} {
		if scans, motes := vehicle.scanCounts(t, shards); scans > 2*motes {
			t.Errorf("shards=%d: magnetic_sensor_reading made %d scans over 10 ticks of %d motes, want the cull to skip most", shards, scans, motes)
		}
		if scans, motes := fire.scanCounts(t, shards); scans != 10*motes {
			t.Errorf("shards=%d: fire_sensor_reading made %d scans over 10 ticks of %d motes, want %d", shards, scans, motes, 10*motes)
		}
	}
}
