package envirotrack

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"envirotrack/internal/core"
	"envirotrack/internal/group"
	"envirotrack/internal/track/passive"
)

// trackerContext builds the Figure 2 vehicle-tracking context for tests.
func trackerContext(pursuer NodeID, reports *[]Point) ContextType {
	return ContextType{
		Name: "tracker",
		Activation: func(rd Reading) bool {
			v, _ := rd.Value("magnetic_detect")
			return v > 0.5
		},
		Vars: []AggVar{{
			Name:         "location",
			Func:         Centroid,
			Input:        PositionInput,
			Freshness:    time.Second,
			CriticalMass: 2,
		}},
		Objects: []Object{{
			Name: "reporter",
			Methods: []Method{{
				Name:   "report_function",
				Period: time.Second,
				Body: func(ctx *Ctx, _ Trigger) {
					if loc, ok := ctx.ReadPosition("location"); ok {
						ctx.SendNode(pursuer, loc)
					}
				},
			}},
		}},
		Group: GroupConfig{
			HeartbeatPeriod: 250 * time.Millisecond,
			HopsPast:        1,
		},
	}
}

func buildNet(t *testing.T, opts ...Option) *Network {
	t.Helper()
	base := []Option{
		WithGrid(8, 3),
		WithCommRadius(2.5),
		WithSensing(VehicleSensing("vehicle")),
		WithSeed(7),
	}
	n, err := New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestEndToEndTracking(t *testing.T) {
	n := buildNet(t)
	var reports []Point
	spec := trackerContext(100, &reports)
	if err := n.AttachContextAll(spec); err != nil {
		t.Fatal(err)
	}
	pursuer, err := n.AddMote(100, Pt(7, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	pursuer.OnMessage(func(m NodeMessage) {
		if p, ok := m.Payload.(Point); ok {
			reports = append(reports, p)
		}
	})
	target := &Target{
		Name: "tank", Kind: "vehicle",
		Traj:            Stationary{At: Pt(3.5, 1)},
		SignatureRadius: 1.6,
	}
	n.AddTarget(target)

	if err := n.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no tracking reports received")
	}
	for _, p := range reports {
		if p.Dist(Pt(3.5, 1)) > 1.2 {
			t.Errorf("report %v too far from target", p)
		}
	}
	sum := n.Ledger().Summarize("tracker")
	if sum.CoherenceViolations() != 0 {
		t.Errorf("coherence violations = %d", sum.CoherenceViolations())
	}
}

func TestRunIsIncremental(t *testing.T) {
	n := buildNet(t)
	if err := n.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if n.Now() != time.Second {
		t.Errorf("Now = %v, want 1s", n.Now())
	}
	if err := n.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", n.Now())
	}
}

// TestRunRejectsNegativeDuration: a negative Run or RunSession is an error
// on both engines and leaves the clock where it was, so the next Run ends
// at the same time serially and on two shards.
func TestRunRejectsNegativeDuration(t *testing.T) {
	for _, shards := range []int{1, 2} {
		n, err := New(WithGrid(6, 6), WithSeed(7), WithParallelShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		if err := n.Run(-500 * time.Millisecond); err == nil {
			t.Errorf("%d shards: Run(-500ms) returned no error", shards)
		}
		if err := n.RunSession(-time.Second).Wait(); err == nil {
			t.Errorf("%d shards: RunSession(-1s) returned no error", shards)
		}
		if n.Now() != time.Second {
			t.Errorf("%d shards: Now = %v after rejected runs, want 1s", shards, n.Now())
		}
		if err := n.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		if n.Now() != 2*time.Second {
			t.Errorf("%d shards: Now = %v after Run(1s), want 2s", shards, n.Now())
		}
	}
}

// TestAddWaypointTargetBetweenParallelRuns adds a Waypoints literal, whose
// leg table is otherwise built on first use, between two runs of a
// 2-shard parallel network. Both shards' sensing sweeps resolve the field
// concurrently, so the table must be built when the target joins the
// field; under -race a lazy build on first resolve is reported as a data
// race.
func TestAddWaypointTargetBetweenParallelRuns(t *testing.T) {
	n := buildNet(t, WithParallelShards(2))
	if err := n.AttachContextAll(trackerContext(0, new([]Point))); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	n.AddTarget(&Target{
		Name: "tank", Kind: "vehicle",
		Traj:            &Waypoints{Points: []Point{Pt(0, 1), Pt(7, 1)}, Speed: 1},
		SignatureRadius: 1.6,
	})
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(n.Ledger().LiveLabels("tracker")) == 0 {
		t.Error("the waypoint target added between runs was never tracked")
	}
}

func TestAddMoteAfterStartFails(t *testing.T) {
	n := buildNet(t)
	if err := n.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddMote(200, Pt(0, 0), nil); err == nil {
		t.Error("expected error adding mote after start")
	}
}

func TestDuplicateMoteID(t *testing.T) {
	n := buildNet(t)
	if _, err := n.AddMote(0, Pt(0, 0), nil); err == nil {
		t.Error("expected duplicate-id error (grid already uses id 0)")
	}
}

func TestNodeAccessors(t *testing.T) {
	n := buildNet(t)
	node, ok := n.Node(5)
	if !ok {
		t.Fatal("grid node 5 missing")
	}
	if node.ID() != 5 {
		t.Errorf("ID = %v", node.ID())
	}
	if node.Pos() != Pt(5, 0) {
		t.Errorf("Pos = %v", node.Pos())
	}
	if len(n.Nodes()) != 24 {
		t.Errorf("Nodes = %d, want 24", len(n.Nodes()))
	}
	if _, ok := n.Node(999); ok {
		t.Error("unknown node found")
	}
}

// typeRecord returns the type record the backend of nd's context type
// name reads.
func typeRecord(t *testing.T, nd *Node, name string) *group.Type {
	t.Helper()
	rt, ok := nd.stack.Runtime(name)
	if !ok {
		t.Fatalf("mote %d does not run %q", nd.ID(), name)
	}
	switch be := rt.Backend().(type) {
	case *group.Manager:
		return be.Type
	case *passive.Backend:
		return be.Type
	}
	t.Fatalf("mote %d runs %q on an unknown backend %T", nd.ID(), name, rt.Backend())
	return nil
}

// TestAttachSharesOneTypeRecord checks that a context type's settings
// have one home: every mote AttachContextAll reaches reads one type
// record, while each spec Node.AttachContext installs gets a record of
// its own, with its own report period Pe = Le - d.
func TestAttachSharesOneTypeRecord(t *testing.T) {
	for _, backend := range TrackingBackends() {
		n := buildNet(t, WithBackend(backend))
		var reports []Point
		if err := n.AttachContextAll(trackerContext(100, &reports)); err != nil {
			t.Fatal(err)
		}
		ids := n.Nodes()
		shared := typeRecord(t, n.nodes[ids[0]], "tracker")
		for _, id := range ids {
			if got := typeRecord(t, n.nodes[id], "tracker"); got != shared {
				t.Fatalf("%s: mote %d reads its own type record, want the shared one", backend, id)
			}
		}
		if shared.Name != "tracker" || shared.Config.ReportPeriod != 900*time.Millisecond {
			t.Errorf("%s: shared record %q has Pe %v, want \"tracker\" with 900ms", backend, shared.Name, shared.Config.ReportPeriod)
		}

		pe := map[NodeID]time.Duration{ids[0]: 1900 * time.Millisecond, ids[1]: 400 * time.Millisecond}
		for id, want := range pe {
			spec := trackerContext(100, &reports)
			spec.Name = "fire"
			spec.Vars[0].Freshness = want + core.DelayEstimate
			if err := n.nodes[id].AttachContext(spec); err != nil {
				t.Fatal(err)
			}
		}
		a, b := typeRecord(t, n.nodes[ids[0]], "fire"), typeRecord(t, n.nodes[ids[1]], "fire")
		if a == b || a == shared || b == shared {
			t.Errorf("%s: Node.AttachContext shares a type record", backend)
		}
		if a.Config.ReportPeriod != pe[ids[0]] || b.Config.ReportPeriod != pe[ids[1]] {
			t.Errorf("%s: own records have Pe %v and %v, want %v and %v", backend,
				a.Config.ReportPeriod, b.Config.ReportPeriod, pe[ids[0]], pe[ids[1]])
		}
	}
}

func TestFaultInjectionThroughPublicAPI(t *testing.T) {
	n := buildNet(t)
	spec := trackerContext(100, nil)
	if err := n.AttachContextAll(spec); err != nil {
		t.Fatal(err)
	}
	n.AddTarget(&Target{
		Name: "tank", Kind: "vehicle",
		Traj: Stationary{At: Pt(3.5, 1)}, SignatureRadius: 1.6,
	})
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Find the leader, kill it, and verify the label survives by takeover.
	var leader *Node
	for _, id := range n.Nodes() {
		node, _ := n.Node(id)
		if node.Leading("tracker") {
			leader = node
			break
		}
	}
	if leader == nil {
		t.Fatal("no leader after 3s")
	}
	label := leader.CurrentLabel("tracker")
	leader.Fail()
	if !leader.Failed() {
		t.Error("Failed() = false")
	}
	if err := n.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	var successor *Node
	for _, id := range n.Nodes() {
		node, _ := n.Node(id)
		if node != leader && node.Leading("tracker") {
			successor = node
			break
		}
	}
	if successor == nil {
		t.Fatal("no successor leader emerged")
	}
	if successor.CurrentLabel("tracker") != label {
		t.Errorf("label changed: %q -> %q", label, successor.CurrentLabel("tracker"))
	}
}

func TestDirectoryThroughPublicAPI(t *testing.T) {
	n := buildNet(t, WithDirectory())
	spec := trackerContext(100, nil)
	if err := n.AttachContextAll(spec); err != nil {
		t.Fatal(err)
	}
	base, err := n.AddMote(100, Pt(7, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	n.AddTarget(&Target{
		Name: "tank", Kind: "vehicle",
		Traj: Stationary{At: Pt(3.5, 1)}, SignatureRadius: 1.6,
	})
	if err := n.Run(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	var got []DirectoryEntry
	base.QueryDirectory("tracker", func(es []DirectoryEntry) { got = es })
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("directory entries = %d, want 1", len(got))
	}
	if got[0].Location.Dist(Pt(3.5, 1)) > 2.5 {
		t.Errorf("directory location %v far from target", got[0].Location)
	}
}

func TestStaticObjectThroughPublicAPI(t *testing.T) {
	n := buildNet(t, WithDirectory())
	base, err := n.AddMote(100, Pt(7, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	if _, err := base.AttachStatic("sink/100.1", []Object{{
		Name: "sink",
		Methods: []Method{{
			Name:   "tick",
			Period: time.Second,
			Body:   func(*Ctx, Trigger) { ticks++ },
		}},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(4500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ticks != 4 {
		t.Errorf("static ticks = %d, want 4", ticks)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() (int, uint64) {
		n := buildNet(t)
		var count int
		spec := trackerContext(100, nil)
		if err := n.AttachContextAll(spec); err != nil {
			t.Fatal(err)
		}
		pursuer, err := n.AddMote(100, Pt(7, 3), nil)
		if err != nil {
			t.Fatal(err)
		}
		pursuer.OnMessage(func(NodeMessage) { count++ })
		traj, err := NewWaypoints([]Point{Pt(0.5, 1), Pt(7, 1)}, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		n.AddTarget(&Target{Name: "t", Kind: "vehicle", Traj: traj, SignatureRadius: 1.6})
		if err := n.Run(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		return count, n.Stats().BitsSent
	}
	c1, b1 := run()
	c2, b2 := run()
	if c1 != c2 || b1 != b2 {
		t.Errorf("runs differ under the same seed: (%d,%d) vs (%d,%d)", c1, b1, c2, b2)
	}
	if c1 == 0 {
		t.Error("no reports in determinism run")
	}
}

// TestOneShardIsSerial pins "serial is the one-shard case": a Figure
// 3-style run (a vehicle crossing the field, tracked to a pursuer) with
// WithParallelShards(1) and one with no option give byte-identical JSONL
// traces and equal Stats.
func TestOneShardIsSerial(t *testing.T) {
	run := func(opts ...Option) ([]byte, Stats) {
		var buf bytes.Buffer
		sink := NewJSONLSink(&buf)
		n := buildNet(t, append(opts, WithEventBus(NewEventBus(sink)))...)
		if err := n.AttachContextAll(trackerContext(100, nil)); err != nil {
			t.Fatal(err)
		}
		if _, err := n.AddMote(100, Pt(7, 3), nil); err != nil {
			t.Fatal(err)
		}
		traj, err := NewWaypoints([]Point{Pt(-1, 1), Pt(8, 1)}, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		n.AddTarget(&Target{Name: "tank", Kind: "vehicle", Traj: traj, SignatureRadius: 1.6})
		if err := n.Run(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), *n.Stats()
	}
	serialTrace, serialStats := run()
	oneTrace, oneStats := run(WithParallelShards(1))
	if len(serialTrace) == 0 || serialStats.BitsSent == 0 {
		t.Fatal("the serial run produced no trace or no traffic")
	}
	if !bytes.Equal(serialTrace, oneTrace) {
		t.Error("WithParallelShards(1) trace differs from the serial trace")
	}
	if !reflect.DeepEqual(serialStats, oneStats) {
		t.Errorf("WithParallelShards(1) stats differ from serial:\n%+v\n%+v", oneStats, serialStats)
	}
}
