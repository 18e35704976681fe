package envirotrack

import (
	"math"
	"testing"
	"time"

	"envirotrack/internal/group"
	"envirotrack/internal/track/passive"
)

// TestNewValidation checks that New rejects option values no run can
// use, on the serial engine and on two shards alike.
func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"negative radius", WithCommRadius(-1)},
		{"zero radius", WithCommRadius(0)},
		{"NaN radius", WithCommRadius(math.NaN())},
		{"infinite radius", WithCommRadius(math.Inf(1))},
		{"NaN loss", WithLossProb(math.NaN())},
		{"negative loss", WithLossProb(-0.1)},
		{"loss above one", WithLossProb(1.5)},
		{"unknown backend", WithBackend("nope")},
		{"one shard past the bound", WithParallelShards(MaxParallelShards + 1)},
		{"2^30 shards", WithParallelShards(1 << 30)},
	} {
		for _, k := range []int{0, 2} {
			if _, err := New(WithGrid(4, 2), WithParallelShards(k), tc.opt); err == nil {
				t.Errorf("%s, %d shards: New accepted it", tc.name, k)
			}
		}
	}
	// Boundary values stay valid.
	for _, opt := range []Option{WithLossProb(0), WithLossProb(1), WithParallelShards(MaxParallelShards)} {
		if _, err := New(WithGrid(4, 2), opt); err != nil {
			t.Errorf("New rejected a boundary value: %v", err)
		}
	}
}

// TestRelayMotesNeverLead deploys a line of motes by hand, with sensors on
// the even ones and none on the odd ones: a label forms from the sensing
// motes only, and no relay ever leads it.
func TestRelayMotesNeverLead(t *testing.T) {
	n, err := New(WithCommRadius(2.5), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for id := NodeID(0); id < 6; id++ {
		var model *SensorModel
		if id%2 == 0 {
			model = VehicleSensing("vehicle")
		}
		if _, err := n.AddMote(id, Pt(float64(id), 0), model); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AttachContextAll(trackerContext(99, nil)); err != nil {
		t.Fatal(err)
	}
	n.AddTarget(&Target{Kind: "vehicle", Traj: Stationary{At: Pt(2, 0)}, SignatureRadius: 1.4})
	if err := n.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	labels := n.Ledger().LiveLabels("tracker")
	if len(labels) != 1 {
		t.Errorf("live labels = %v, want 1", labels)
	}
	for _, id := range n.Nodes() {
		node, _ := n.Node(id)
		if id%2 == 1 && node.Leading("tracker") {
			t.Errorf("sensor-less mote %d became leader", id)
		}
	}
}

// TestWithoutCSMA checks that the option reaches the radio and that a
// network without carrier sense still forms its label.
func TestWithoutCSMA(t *testing.T) {
	n, err := New(
		WithGrid(4, 2),
		WithCommRadius(2.5),
		WithoutCSMA(),
		WithSensing(VehicleSensing("vehicle")),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !n.medium.Params().DisableCSMA {
		t.Fatal("WithoutCSMA did not reach the radio")
	}
	if err := n.AttachContextAll(trackerContext(99, nil)); err != nil {
		t.Fatal(err)
	}
	n.AddTarget(&Target{Kind: "vehicle", Traj: Stationary{At: Pt(1.5, 0.5)}, SignatureRadius: 1.6})
	if err := n.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if labels := n.Ledger().LiveLabels("tracker"); len(labels) != 1 {
		t.Errorf("live labels = %v, want 1", labels)
	}
}

func TestAddCrossTraffic(t *testing.T) {
	n := buildNet(t)
	if err := n.AddCrossTraffic(0, 1, 100*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.AddCrossTraffic(0, 1, 0, 0); err == nil {
		t.Error("expected error for zero period")
	}
	if err := n.AddCrossTraffic(12345, 1, time.Second, 0); err == nil {
		t.Error("expected error for unknown source")
	}
	if err := n.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n.Stats().Kind("cross-traffic").Sent == 0 {
		t.Error("no cross traffic transmitted")
	}
}

func TestTargetPosition(t *testing.T) {
	n := buildNet(t)
	tg := &Target{Kind: "vehicle", Traj: Line{Start: Pt(0, 0), Dir: Vec(1, 0), Speed: 1}}
	n.AddTarget(tg)
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := n.TargetPosition(tg)
	if got.Dist(Pt(3, 0)) > 1e-9 {
		t.Errorf("TargetPosition = %v, want (3,0)", got)
	}
}

func TestPublicConstructorsExist(t *testing.T) {
	if NewSensorModel() == nil || NewSenseRegistry() == nil || NewAggRegistry() == nil {
		t.Error("constructors returned nil")
	}
	m := NewSensorModel()
	m.SetChannel("x", ConstantChannel(5))
	m.SetChannel("d", DetectionChannel("vehicle"))
	m.SetChannel("i", IntensityChannel("vehicle", 2))
	if len(m.Channels()) != 3 {
		t.Errorf("channels = %v", m.Channels())
	}
	if v := Vec(3, 4); v.Len() != 5 {
		t.Errorf("Vec/Len = %v", v.Len())
	}
	fs := FireSensing("fire", 20)
	if fs == nil {
		t.Error("FireSensing returned nil")
	}
}

// TestWithBackendReachesEveryAttach: the network's default backend runs
// on a type attached to every mote and on a type attached to one mote
// alike, and a spec naming its own backend still wins.
func TestWithBackendReachesEveryAttach(t *testing.T) {
	n := buildNet(t, WithBackend(BackendPassive))
	nd, _ := n.Node(0)
	spec := func(name, backend string) ContextType {
		return ContextType{Name: name, Backend: backend, Activation: func(Reading) bool { return false }}
	}
	if err := n.AttachContextAll(spec("everywhere", "")); err != nil {
		t.Fatal(err)
	}
	if err := nd.AttachContext(spec("one-mote", "")); err != nil {
		t.Fatal(err)
	}
	if err := nd.AttachContext(spec("pinned", BackendLeader)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, want string }{
		{"everywhere", BackendPassive},
		{"one-mote", BackendPassive},
		{"pinned", BackendLeader},
	} {
		rt, ok := nd.stack.Runtime(tc.name)
		if !ok {
			t.Fatalf("type %q not attached to mote 0", tc.name)
		}
		var got string
		switch rt.Backend().(type) {
		case *group.Manager:
			got = BackendLeader
		case *passive.Backend:
			got = BackendPassive
		}
		if got != tc.want {
			t.Errorf("type %q runs backend %q (%T), want %q", tc.name, got, rt.Backend(), tc.want)
		}
	}
}
