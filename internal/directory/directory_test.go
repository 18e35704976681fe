package directory

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/group"
	"envirotrack/internal/mote"
	"envirotrack/internal/phenomena"
	"envirotrack/internal/radio"
	"envirotrack/internal/routing"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

type net struct {
	group    *simtime.ShardGroup
	sched    *simtime.Scheduler
	medium   *radio.Medium
	services map[radio.NodeID]*Service
	bounds   geom.Rect
}

// node is a test mote's receiver and its router's target: frames go to
// the router, and delivered messages to the directory service.
type node struct {
	r *routing.Router
	s *Service
}

func (nd *node) Receive(f radio.Frame) { nd.r.HandleFrame(f) }

func (nd *node) Deliver(msg routing.Message) { nd.s.Handle(msg) }

func newNet(t *testing.T, cols, rows int, commRadius float64) *net {
	t.Helper()
	group := simtime.NewShardGroup(1)
	sched := group.Shard(0)
	rt := radio.ShardRuntime{Sched: sched, RNG: rand.New(rand.NewSource(5)), Stats: &trace.Stats{}}
	// Collisions are disabled: these tests exercise directory semantics,
	// not channel contention (covered in radio's own tests).
	medium := radio.New(radio.Params{CommRadius: commRadius, DisableCollisions: true}, nil, rt)
	env := mote.NewEnv(rt, medium, phenomena.NewField(), mote.Config{}, mote.NewHotState())
	bounds := geom.Grid{Cols: cols, Rows: rows}.Bounds()
	n := &net{
		group:    group,
		sched:    sched,
		medium:   medium,
		services: make(map[radio.NodeID]*Service),
		bounds:   bounds,
	}
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			id := radio.NodeID(y*cols + x)
			m, err := mote.New(id, geom.Pt(float64(x), float64(y)), nil, env)
			if err != nil {
				t.Fatal(err)
			}
			nd := &node{}
			nd.r = routing.NewRouter(m, nd)
			nd.s = NewService(m, nd.r, Config{Bounds: bounds})
			m.SetReceiver(nd)
			n.services[id] = nd.s
		}
	}
	return n
}

// runUntil advances the one-shard group to the deadline.
func (n *net) runUntil(t *testing.T, deadline time.Duration) {
	t.Helper()
	if err := n.group.Run(deadline, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashPointInBounds(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10, 5)}
	f := func(name string) bool {
		return bounds.Contains(HashPoint(name, bounds))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashPointDeterministic(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)}
	a := HashPoint("fire", bounds)
	b := HashPoint("fire", bounds)
	if a != b {
		t.Errorf("HashPoint not deterministic: %v vs %v", a, b)
	}
	c := HashPoint("tracker", bounds)
	if a == c {
		t.Error("different names hashed to the same point (extremely unlikely)")
	}
}

func TestRegisterThenQuery(t *testing.T) {
	n := newNet(t, 6, 6, 1.5)
	n.services[0].Register("fire", "fire/1.1", geom.Pt(2, 3), 7)
	n.runUntil(t, time.Second)

	var got []Entry
	n.services[35].Query("fire", func(es []Entry) { got = es })
	n.runUntil(t, 2*time.Second)
	if len(got) != 1 {
		t.Fatalf("query returned %d entries, want 1", len(got))
	}
	e := got[0]
	if e.Label != "fire/1.1" || e.Location != geom.Pt(2, 3) || e.Leader != 7 {
		t.Errorf("entry = %+v", e)
	}
}

// TestQueryEmptyType: a directory that holds nothing for the type replies
// with a non-nil empty slice, before the first retry timeout, so callers
// can tell it from an unreachable directory (nil).
func TestQueryEmptyType(t *testing.T) {
	n := newNet(t, 4, 4, 1.5)
	called := false
	n.services[0].Query("nothing", func(es []Entry) {
		called = true
		if es == nil || len(es) != 0 {
			t.Errorf("entries = %#v, want a non-nil empty slice", es)
		}
	})
	n.runUntil(t, queryTimeout-time.Millisecond)
	if !called {
		t.Error("query callback not invoked before the query timeout")
	}
}

func TestMultipleLabelsOfSameType(t *testing.T) {
	n := newNet(t, 6, 6, 1.5)
	n.services[0].Register("car", "car/1.1", geom.Pt(1, 1), 1)
	n.services[10].Register("car", "car/9.1", geom.Pt(4, 1), 9)
	n.runUntil(t, time.Second)
	var got []Entry
	n.services[20].Query("car", func(es []Entry) { got = es })
	n.runUntil(t, 2*time.Second)
	if len(got) != 2 {
		t.Fatalf("entries = %d, want 2", len(got))
	}
	if got[0].Label >= got[1].Label {
		t.Error("entries not sorted by label")
	}
}

func TestUpdateRefreshesLocation(t *testing.T) {
	n := newNet(t, 6, 6, 1.5)
	n.services[0].Register("car", "car/1.1", geom.Pt(1, 1), 1)
	n.runUntil(t, time.Second)
	// The tracked entity moved; a later update must win.
	n.services[7].Register("car", "car/1.1", geom.Pt(5, 5), 8)
	n.runUntil(t, 2*time.Second)
	var got []Entry
	n.services[30].Query("car", func(es []Entry) { got = es })
	n.runUntil(t, 3*time.Second)
	if len(got) != 1 {
		t.Fatalf("entries = %d, want 1 (update, not new entry)", len(got))
	}
	if got[0].Location != geom.Pt(5, 5) || got[0].Leader != 8 {
		t.Errorf("entry not refreshed: %+v", got[0])
	}
}

func TestEntriesExpireAfterTTL(t *testing.T) {
	n := newNet(t, 6, 6, 1.5)
	n.services[0].Register("car", "car/1.1", geom.Pt(1, 1), 1)
	n.runUntil(t, time.Second)
	// Query long after the 30 s TTL.
	var got []Entry
	called := false
	n.sched.AtOwned(40*time.Second, simtime.OwnerNone, func() {
		n.services[30].Query("car", func(es []Entry) { got, called = es, true })
	})
	n.runUntil(t, 50*time.Second)
	if !called {
		t.Fatal("query callback not invoked")
	}
	if len(got) != 0 {
		t.Errorf("expired entries returned: %v", got)
	}
}

func TestDirectoryStoredNearHashPoint(t *testing.T) {
	n := newNet(t, 8, 8, 1.5)
	n.services[0].Register("fire", "fire/1.1", geom.Pt(0, 0), 1)
	n.runUntil(t, time.Second)
	hp := HashPoint("fire", n.bounds)
	// Find the node nearest the hash point: it must hold the entry.
	best := radio.NodeID(-1)
	bestD := 1e18
	for _, id := range n.medium.NodeIDs() {
		pos, _ := n.medium.Position(id)
		if d := pos.Dist2(hp); d < bestD {
			bestD, best = d, id
		}
	}
	if got := n.services[best].Entries("fire"); len(got) != 1 {
		t.Errorf("nearest node to hash point holds %d entries, want 1", len(got))
	}
	// A node far from the hash point holds nothing.
	farthest := radio.NodeID(-1)
	farD := -1.0
	for _, id := range n.medium.NodeIDs() {
		pos, _ := n.medium.Position(id)
		if d := pos.Dist2(hp); d > farD {
			farD, farthest = d, id
		}
	}
	if got := n.services[farthest].Entries("fire"); len(got) != 0 {
		t.Errorf("far node holds %d entries, want 0", len(got))
	}
}

func TestQueriesFromDifferentTypesAreIsolated(t *testing.T) {
	n := newNet(t, 6, 6, 1.5)
	n.services[0].Register("car", "car/1.1", geom.Pt(1, 1), 1)
	n.services[0].Register("fire", "fire/2.1", geom.Pt(3, 3), 2)
	n.runUntil(t, time.Second)
	var cars, fires []Entry
	n.services[12].Query("car", func(es []Entry) { cars = es })
	n.services[12].Query("fire", func(es []Entry) { fires = es })
	n.runUntil(t, 2*time.Second)
	if len(cars) != 1 || cars[0].CtxType != "car" {
		t.Errorf("car query = %v", cars)
	}
	if len(fires) != 1 || fires[0].CtxType != "fire" {
		t.Errorf("fire query = %v", fires)
	}
}

func TestOutOfOrderRefreshIgnored(t *testing.T) {
	n := newNet(t, 4, 4, 1.5)
	svc := n.services[0]
	svc.store(Entry{CtxType: "x", Label: group.Label("x/1"), UpdatedAt: 10 * time.Second, Location: geom.Pt(2, 2)})
	svc.store(Entry{CtxType: "x", Label: group.Label("x/1"), UpdatedAt: 5 * time.Second, Location: geom.Pt(9, 9)})
	es := svc.entries["x"]
	if es[group.Label("x/1")].Location != geom.Pt(2, 2) {
		t.Error("older update overwrote newer entry")
	}
}
