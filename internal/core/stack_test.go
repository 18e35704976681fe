package core

import (
	"testing"
	"time"

	"envirotrack/internal/aggregate"
	"envirotrack/internal/directory"
	"envirotrack/internal/geom"
	"envirotrack/internal/group"
	"envirotrack/internal/mote"
	"envirotrack/internal/phenomena"
	"envirotrack/internal/radio"
	"envirotrack/internal/routing"
	"envirotrack/internal/sensor"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
	"envirotrack/internal/track"
	"envirotrack/internal/transport"
)

// world is a full-middleware test network.
type world struct {
	group  *simtime.ShardGroup
	sched  *simtime.Scheduler
	medium *radio.Medium
	field  *phenomena.Field
	env    *mote.Env // every mote's env, as on one network shard
	ledger *trace.Ledger
	stacks map[radio.NodeID]*Stack
	motes  map[radio.NodeID]*mote.Mote
}

func newWorld(t *testing.T, commRadius float64, bounds geom.Rect) *world {
	t.Helper()
	return newWorldP(t, radio.Params{CommRadius: commRadius}, bounds)
}

func newWorldP(t *testing.T, params radio.Params, bounds geom.Rect) *world {
	t.Helper()
	group := simtime.NewShardGroup(1)
	sched := group.Shard(0)
	rt := radio.ShardRuntime{Sched: sched, Seed: 21, Stats: &trace.Stats{}}
	medium := radio.New(params, nil, rt)
	field := phenomena.NewField()
	env := mote.NewEnv(rt, medium, field, mote.Config{}, mote.NewHotState())
	env.Ledger = &trace.Ledger{}
	env.Bounds = bounds
	return &world{
		group:  group,
		sched:  sched,
		medium: medium,
		field:  field,
		env:    env,
		ledger: env.Ledger,
		stacks: make(map[radio.NodeID]*Stack),
		motes:  make(map[radio.NodeID]*mote.Mote),
	}
}

func (w *world) addMote(t *testing.T, id radio.NodeID, pos geom.Point, model *sensor.Model) *Stack {
	t.Helper()
	m, err := mote.New(id, pos, model, w.env)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStack(m)
	w.stacks[id] = st
	w.motes[id] = m
	return st
}

func (w *world) start() {
	// Deterministic scan order (map iteration order would leak into the
	// scheduler's same-instant FIFO ordering).
	sw := mote.NewSweep(w.env)
	for _, id := range w.medium.NodeIDs() {
		sw.Add(w.motes[id])
	}
	sw.Start()
}

func (w *world) run(t *testing.T, until time.Duration) {
	t.Helper()
	if err := w.group.Run(until, 0, nil); err != nil {
		t.Fatal(err)
	}
}

// trackerSpec is the Figure 2 context: avg(position) with Ne=2, Le=1s, and
// a periodic reporter that sends (label, location) to the pursuer node.
func trackerSpec(pursuer radio.NodeID, gcfg group.Config) ContextType {
	reg := sensor.NewRegistry()
	magnetic, _ := reg.Lookup("magnetic_sensor_reading")
	return ContextType{
		Name:       "tracker",
		Activation: magnetic,
		Vars: []AggVarSpec{{
			Name:         "location",
			Func:         aggregate.Centroid,
			Input:        PositionInput,
			Freshness:    time.Second,
			CriticalMass: 2,
		}},
		Objects: []ObjectSpec{{
			Name: "reporter",
			Methods: []MethodSpec{{
				Name:   "report_function",
				Period: time.Second,
				Body: func(ctx *Ctx, _ Trigger) {
					if loc, ok := ctx.ReadPosition("location"); ok {
						ctx.SendNode(pursuer, trackReport{Label: ctx.Label(), Loc: loc})
					}
				},
			}},
		}},
		Group: gcfg,
	}
}

type trackReport struct {
	Label group.Label
	Loc   geom.Point
}

var fastGroup = group.Config{
	HeartbeatPeriod: 200 * time.Millisecond,
	CreationBackoff: 20 * time.Millisecond,
	HopsPast:        1,
}

// buildTrackingWorld creates a cols x 1 line of sensing motes plus a
// pursuer node (id 100) at the end of the line.
func buildTrackingWorld(t *testing.T, cols int) (*world, *[]trackReport) {
	t.Helper()
	bounds := geom.Rect{Min: geom.Pt(0, -1), Max: geom.Pt(float64(cols), 1)}
	w := newWorld(t, 2.5, bounds)
	spec := trackerSpec(100, fastGroup)
	for x := 0; x < cols; x++ {
		st := w.addMote(t, radio.NodeID(x), geom.Pt(float64(x), 0), sensor.VehicleModel("vehicle"))
		if _, err := st.AttachContext(spec); err != nil {
			t.Fatal(err)
		}
	}
	base := w.addMote(t, 100, geom.Pt(float64(cols-1), 1), nil)
	reports := &[]trackReport{}
	base.OnNodeMessage(func(nm NodeMessage) {
		if tr, ok := nm.Payload.(trackReport); ok {
			*reports = append(*reports, tr)
		}
	})
	return w, reports
}

func TestStationaryTargetTrackedAndReported(t *testing.T) {
	w, reports := buildTrackingWorld(t, 6)
	w.field.Add(&phenomena.Target{
		Name: "tank", Kind: "vehicle",
		Traj:            phenomena.Stationary{At: geom.Pt(2.5, 0)},
		SignatureRadius: 1.6,
	})
	w.start()
	w.run(t, 10*time.Second)

	if len(*reports) == 0 {
		t.Fatal("pursuer received no reports")
	}
	for _, r := range *reports {
		if r.Loc.Dist(geom.Pt(2.5, 0)) > 1.0 {
			t.Errorf("reported location %v too far from target (2.5, 0)", r.Loc)
		}
	}
	// All reports carry the same context label.
	label := (*reports)[0].Label
	for _, r := range *reports {
		if r.Label != label {
			t.Errorf("label changed mid-run: %q vs %q", label, r.Label)
		}
	}
}

func TestCriticalMassSuppressesInvalidReads(t *testing.T) {
	// Only one mote can sense the target (Ne=2): reads must stay invalid
	// and the reporter must stay silent.
	w, reports := buildTrackingWorld(t, 6)
	w.field.Add(&phenomena.Target{
		Name: "tank", Kind: "vehicle",
		Traj:            phenomena.Stationary{At: geom.Pt(0, 0)},
		SignatureRadius: 0.5, // covers only mote 0
	})
	w.start()
	w.run(t, 8*time.Second)

	if len(*reports) != 0 {
		t.Errorf("reports sent despite critical mass unmet: %v", *reports)
	}
	// A label still exists (activation fired), it just cannot read state.
	if w.ledger.DistinctLabels("tracker") != 1 {
		t.Errorf("labels = %d, want 1", w.ledger.DistinctLabels("tracker"))
	}
}

func TestMovingTargetKeepsLabelAndTracks(t *testing.T) {
	w, reports := buildTrackingWorld(t, 12)
	traj, err := phenomena.NewWaypoints([]geom.Point{geom.Pt(0.5, 0), geom.Pt(10.5, 0)}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	w.field.Add(&phenomena.Target{
		Name: "tank", Kind: "vehicle",
		Traj:            traj,
		SignatureRadius: 1.6,
	})
	w.start()
	w.run(t, 20*time.Second)

	if len(*reports) < 5 {
		t.Fatalf("too few reports: %d", len(*reports))
	}
	// Context-label coherence: all reports from one label.
	labels := make(map[group.Label]bool)
	for _, r := range *reports {
		labels[r.Label] = true
	}
	if len(labels) != 1 {
		t.Errorf("reports from %d labels, want 1 (coherence)", len(labels))
	}
	// Tracking error bounded by the sensing geometry.
	for _, r := range *reports {
		if r.Loc.Y < -1 || r.Loc.Y > 1 {
			t.Errorf("reported y = %v, want within the corridor", r.Loc.Y)
		}
	}
	// Handovers occurred (the target crossed many sensor neighborhoods).
	sum := w.ledger.Summarize("tracker")
	if sum.Successful == 0 {
		t.Error("no successful handovers recorded for a moving target")
	}
}

func TestTwoTargetsTwoLabels(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(20, 1)}
	w := newWorld(t, 2.0, bounds)
	spec := trackerSpec(100, fastGroup)
	for x := 0; x < 20; x++ {
		st := w.addMote(t, radio.NodeID(x), geom.Pt(float64(x), 0), sensor.VehicleModel("vehicle"))
		if _, err := st.AttachContext(spec); err != nil {
			t.Fatal(err)
		}
	}
	w.addMote(t, 100, geom.Pt(19, 1), nil)
	// Two tanks far apart: physically separated groups must get distinct
	// labels.
	w.field.Add(&phenomena.Target{
		Name: "t1", Kind: "vehicle",
		Traj: phenomena.Stationary{At: geom.Pt(2, 0)}, SignatureRadius: 1.5,
	})
	w.field.Add(&phenomena.Target{
		Name: "t2", Kind: "vehicle",
		Traj: phenomena.Stationary{At: geom.Pt(16, 0)}, SignatureRadius: 1.5,
	})
	w.start()
	w.run(t, 5*time.Second)

	live := w.ledger.LiveLabels("tracker")
	if len(live) != 2 {
		t.Errorf("live labels = %v, want 2 distinct labels", live)
	}
	leaders := 0
	for _, st := range w.stacks {
		if rt, ok := st.Runtime("tracker"); ok && rt.Leading() {
			leaders++
		}
	}
	if leaders != 2 {
		t.Errorf("leaders = %d, want 2", leaders)
	}
}

func TestMessageTriggeredMethod(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(6, 1)}
	w := newWorld(t, 2.5, bounds)
	w.env.UseDirectory = true
	var invoked []any
	spec := ContextType{
		Name:       "tracker",
		Activation: func(rd sensor.Reading) bool { v, _ := rd.Value("magnetic_detect"); return v > 0.5 },
		Objects: []ObjectSpec{{
			Name: "listener",
			Methods: []MethodSpec{{
				Name: "on_ping",
				Port: 7,
				Body: func(ctx *Ctx, trig Trigger) {
					if trig.Kind != TriggerMessage || trig.Msg == nil {
						t.Errorf("trigger = %+v, want message", trig)
						return
					}
					invoked = append(invoked, trig.Msg.Payload)
				},
			}},
		}},
		Group: fastGroup,
	}
	for x := 0; x < 4; x++ {
		st := w.addMote(t, radio.NodeID(x), geom.Pt(float64(x), 0), sensor.VehicleModel("vehicle"))
		if _, err := st.AttachContext(spec); err != nil {
			t.Fatal(err)
		}
	}
	base := w.addMote(t, 100, geom.Pt(5, 0), nil)

	w.field.Add(&phenomena.Target{
		Name: "tank", Kind: "vehicle",
		Traj: phenomena.Stationary{At: geom.Pt(1, 0)}, SignatureRadius: 1.4,
	})
	w.start()
	w.run(t, 3*time.Second)

	// Find the live label and invoke its port-7 method from the base via
	// MTP (first contact resolves through the directory).
	live := w.ledger.LiveLabels("tracker")
	if len(live) != 1 {
		t.Fatalf("live labels = %v, want 1", live)
	}
	label := group.Label(live[0])
	base.Endpoint().Send(transport.Datagram{
		SrcLabel: "base/100.1",
		DstLabel: label,
		DstPort:  7,
		Payload:  "ping",
	})
	w.run(t, 6*time.Second)

	if len(invoked) != 1 || invoked[0] != "ping" {
		t.Fatalf("invoked = %v, want [ping]", invoked)
	}
}

func TestConditionTriggeredMethod(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(6, 1)}
	w := newWorld(t, 2.5, bounds)
	fires := 0
	spec := ContextType{
		Name:       "tracker",
		Activation: func(rd sensor.Reading) bool { v, _ := rd.Value("magnetic_detect"); return v > 0.5 },
		Vars: []AggVarSpec{{
			Name: "strength", Func: aggregate.Max, Input: "magnetic",
			Freshness: time.Second, CriticalMass: 1,
		}},
		Objects: []ObjectSpec{{
			Name: "alarm",
			Methods: []MethodSpec{{
				Name: "on_strong_signal",
				Condition: func(ctx *Ctx) bool {
					v, ok := ctx.ReadScalar("strength")
					return ok && v > 0.5
				},
				Body: func(*Ctx, Trigger) { fires++ },
			}},
		}},
		Group: fastGroup,
	}
	for x := 0; x < 3; x++ {
		st := w.addMote(t, radio.NodeID(x), geom.Pt(float64(x), 0), sensor.VehicleModel("vehicle"))
		if _, err := st.AttachContext(spec); err != nil {
			t.Fatal(err)
		}
	}
	w.field.Add(&phenomena.Target{
		Name: "tank", Kind: "vehicle",
		Traj: phenomena.Stationary{At: geom.Pt(1, 0)}, SignatureRadius: 1.2, Amplitude: 10,
	})
	w.start()
	w.run(t, 3*time.Second)

	if fires == 0 {
		t.Error("condition-triggered method never fired")
	}
}

func TestStaticObjectTimerAndPort(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(4, 1)}
	w := newWorld(t, 2.5, bounds)
	w.env.UseDirectory = true
	st0 := w.addMote(t, 0, geom.Pt(0, 0), nil)
	st1 := w.addMote(t, 1, geom.Pt(1, 0), nil)

	ticks := 0
	var pings []any
	_, err := st0.AttachStatic("sink/0.1", []ObjectSpec{{
		Name: "sink",
		Methods: []MethodSpec{
			{Name: "tick", Period: time.Second, Body: func(*Ctx, Trigger) { ticks++ }},
			{Name: "recv", Port: 3, Body: func(_ *Ctx, trig Trigger) { pings = append(pings, trig.Msg.Payload) }},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	w.start()
	w.run(t, 3500*time.Millisecond)
	if ticks != 3 {
		t.Errorf("static timer ticks = %d, want 3", ticks)
	}

	// Another node reaches the static object through the directory.
	st1.Endpoint().Send(transport.Datagram{DstLabel: "sink/0.1", DstPort: 3, Payload: "hello"})
	w.run(t, 6*time.Second)
	if len(pings) != 1 || pings[0] != "hello" {
		t.Errorf("pings = %v, want [hello]", pings)
	}
}

func TestDirectoryRegistrationOfTrackedLabel(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(6, 1)}
	w := newWorld(t, 2.5, bounds)
	w.env.UseDirectory = true
	spec := trackerSpec(100, fastGroup)
	for x := 0; x < 5; x++ {
		st := w.addMote(t, radio.NodeID(x), geom.Pt(float64(x), 0), sensor.VehicleModel("vehicle"))
		if _, err := st.AttachContext(spec); err != nil {
			t.Fatal(err)
		}
	}
	base := w.addMote(t, 100, geom.Pt(5, 0), nil)
	w.field.Add(&phenomena.Target{
		Name: "tank", Kind: "vehicle",
		Traj: phenomena.Stationary{At: geom.Pt(2, 0)}, SignatureRadius: 1.4,
	})
	w.start()
	w.run(t, 3*time.Second)

	// The query's first attempt, sent at 3 s, collides at the directory
	// node (mote 3) with a heartbeat relay from mote 1, which the base
	// cannot hear (a hidden terminal). Run past one query timeout, so the
	// retry at 5 s is answered.
	var got []directory.Entry
	base.Directory().Query("tracker", func(es []directory.Entry) { got = es })
	w.run(t, 6*time.Second)

	if len(got) != 1 {
		t.Fatalf("directory entries = %d, want 1", len(got))
	}
	live := w.ledger.LiveLabels("tracker")
	if len(live) != 1 || string(got[0].Label) != live[0] {
		t.Errorf("directory label %q, live labels %v", got[0].Label, live)
	}
	if got[0].Location.Dist(geom.Pt(2, 0)) > 2 {
		t.Errorf("directory location %v too far from target", got[0].Location)
	}
}

func TestAttachContextValidation(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(2, 1)}
	w := newWorld(t, 2, bounds)
	st := w.addMote(t, 0, geom.Pt(0, 0), nil)
	if _, err := st.AttachContext(ContextType{}); err == nil {
		t.Error("expected validation error for empty spec")
	}
	spec := ContextType{
		Name:       "x",
		Activation: func(sensor.Reading) bool { return false },
	}
	if _, err := st.AttachContext(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AttachContext(spec); err == nil {
		t.Error("expected error on duplicate context type")
	}
	if _, ok := st.Runtime("x"); !ok {
		t.Error("Runtime lookup failed")
	}
	if _, ok := st.Runtime("nope"); ok {
		t.Error("Runtime lookup of unknown type succeeded")
	}
}

func TestSpecValidation(t *testing.T) {
	act := func(sensor.Reading) bool { return true }
	body := func(*Ctx, Trigger) {}
	tests := []struct {
		name    string
		spec    ContextType
		wantErr bool
	}{
		{
			name:    "empty name",
			spec:    ContextType{Activation: act},
			wantErr: true,
		},
		{
			name:    "no activation",
			spec:    ContextType{Name: "x"},
			wantErr: true,
		},
		{
			name: "duplicate variable",
			spec: ContextType{Name: "x", Activation: act, Vars: []AggVarSpec{
				{Name: "v", Func: aggregate.Avg, Input: "a", Freshness: time.Second},
				{Name: "v", Func: aggregate.Avg, Input: "b", Freshness: time.Second},
			}},
			wantErr: true,
		},
		{
			name: "zero freshness",
			spec: ContextType{Name: "x", Activation: act, Vars: []AggVarSpec{
				{Name: "v", Func: aggregate.Avg, Input: "a"},
			}},
			wantErr: true,
		},
		{
			name: "method without invocation",
			spec: ContextType{Name: "x", Activation: act, Objects: []ObjectSpec{
				{Name: "o", Methods: []MethodSpec{{Name: "m", Body: body}}},
			}},
			wantErr: true,
		},
		{
			name: "object without methods",
			spec: ContextType{Name: "x", Activation: act, Objects: []ObjectSpec{
				{Name: "o"},
			}},
			wantErr: true,
		},
		{
			name: "valid full spec",
			spec: ContextType{Name: "x", Activation: act,
				Vars: []AggVarSpec{{Name: "v", Func: aggregate.Avg, Input: "a", Freshness: time.Second}},
				Objects: []ObjectSpec{{Name: "o", Methods: []MethodSpec{
					{Name: "m", Period: time.Second, Body: body},
				}}},
			},
			wantErr: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.spec.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTriggerKindString(t *testing.T) {
	tests := []struct {
		k    TriggerKind
		want string
	}{
		{TriggerTimer, "timer"},
		{TriggerCondition, "condition"},
		{TriggerMessage, "message"},
		{TriggerKind(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestPersistentStateThroughCtx(t *testing.T) {
	w, _ := buildTrackingWorld(t, 6)
	w.field.Add(&phenomena.Target{
		Name: "tank", Kind: "vehicle",
		Traj: phenomena.Stationary{At: geom.Pt(2.5, 0)}, SignatureRadius: 1.6,
	})
	w.start()
	w.run(t, 2*time.Second)

	// Find the leader and commit state through its Ctx.
	var leaderID radio.NodeID = -1
	for id, st := range w.stacks {
		if rt, ok := st.Runtime("tracker"); ok && rt.Leading() {
			leaderID = id
			rt.Ctx().SetState([]byte("count=5"))
		}
	}
	if leaderID < 0 {
		t.Fatal("no leader found")
	}
	w.run(t, 3*time.Second)

	// Kill the leader; the successor must inherit the state.
	w.motes[leaderID].Fail()
	w.run(t, 6*time.Second)
	for id, st := range w.stacks {
		if id == leaderID {
			continue
		}
		if rt, ok := st.Runtime("tracker"); ok && rt.Leading() {
			if got := string(rt.Ctx().State()); got != "count=5" {
				t.Errorf("successor state = %q, want count=5", got)
			}
			return
		}
	}
	t.Fatal("no successor leader emerged")
}

func TestVarLookup(t *testing.T) {
	spec := ContextType{
		Name:       "x",
		Activation: func(sensor.Reading) bool { return true },
		Vars: []AggVarSpec{{
			Name: "v", Func: aggregate.Avg, Input: "a", Freshness: time.Second,
		}},
	}
	if v, ok := spec.Var("v"); !ok || v.Input != "a" {
		t.Errorf("Var(v) = %+v, %v", v, ok)
	}
	if _, ok := spec.Var("w"); ok {
		t.Error("Var(w) should not exist")
	}
}

func TestDeactivationOverride(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(4, 1)}
	w := newWorld(t, 2.5, bounds)
	// Activation on magnetic detection; deactivation only when the strong
	// "hold" channel drops — hysteresis keeps membership sticky.
	spec := ContextType{
		Name: "sticky",
		Activation: func(rd sensor.Reading) bool {
			v, _ := rd.Value("magnetic_detect")
			return v > 0.5
		},
		Deactivation: func(rd sensor.Reading) bool {
			v, _ := rd.Value("magnetic")
			return v < 0.001 // much wider than the detection radius
		},
		Group: fastGroup,
	}
	st := w.addMote(t, 0, geom.Pt(0, 0), sensor.VehicleModel("vehicle"))
	rt, err := st.AttachContext(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Target appears at t=0 within detection range, then moves just outside
	// the signature radius (activation false) but still close (magnetic
	// intensity above the deactivation floor).
	traj, err := phenomena.NewWaypoints([]geom.Point{geom.Pt(0.5, 0), geom.Pt(3, 0)}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	w.field.Add(&phenomena.Target{
		Name: "tank", Kind: "vehicle",
		Traj: traj, SignatureRadius: 1.0, Amplitude: 5,
	})
	w.start()
	w.run(t, 8*time.Second)

	// Without the deactivation override, sensing would have flipped false
	// when the target passed 1.0 grid units; with it, the mote still
	// senses because the intensity remains above the floor.
	if !rt.Backend().Sensing() {
		t.Error("deactivation override did not hold sensing on")
	}
}

// spyBackend counts the frames the stack offers a backend and those the
// backend consumed.
type spyBackend struct {
	track.Backend
	frames, consumed int
}

func (s *spyBackend) HandleFrame(f radio.Frame) bool {
	s.frames++
	ok := s.Backend.HandleFrame(f)
	if ok {
		s.consumed++
	}
	return ok
}

// TestReceiveDispatchOrder pins the stack's frame dispatch: the endpoint
// reads a heartbeat that the backend consumes, and a routed frame reaches
// the router alone, never a backend.
func TestReceiveDispatchOrder(t *testing.T) {
	w := newWorld(t, 2, geom.Rect{Max: geom.Pt(4, 4)})
	st := w.addMote(t, 1, geom.Pt(0, 0), nil)
	src := w.addMote(t, 2, geom.Pt(1, 0), nil)
	rt, err := st.AttachContext(trackerSpec(0, group.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	spy := &spyBackend{Backend: rt.be}
	rt.be = spy

	const label = group.Label("tracker/2.1")
	st.Receive(radio.Frame{Kind: trace.KindHeartbeat, Src: 2, Dst: radio.Broadcast, Payload: group.Heartbeat{
		CtxType: "tracker", Label: label, Leader: 2, LeaderLoc: geom.Pt(1, 0), Seq: 1,
	}})
	if spy.consumed != 1 {
		t.Fatalf("backend consumed %d of %d heartbeats, want 1", spy.consumed, spy.frames)
	}
	if info, ok := st.Endpoint().Table().Get(label); !ok || info.Leader != 2 {
		t.Errorf("endpoint leader table for %q = %+v, %t; want leader 2", label, info, ok)
	}

	var got []NodeMessage
	st.OnNodeMessage(func(nm NodeMessage) { got = append(got, nm) })
	src.Router().Send(routing.Message{
		Kind: trace.KindReport, Dest: geom.Pt(0, 0), DestNode: 1,
		Payload: NodeMessage{From: 2, Payload: "ping"},
	})
	w.run(t, time.Second)
	if len(got) != 1 || got[0].Payload != "ping" {
		t.Fatalf("node messages delivered = %+v, want the one ping", got)
	}
	if spy.frames != 1 {
		t.Errorf("backend was offered %d frames, want only the heartbeat", spy.frames)
	}
}
