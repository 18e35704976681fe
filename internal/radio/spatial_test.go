package radio

import (
	"math"
	"math/rand"
	"testing"

	"envirotrack/internal/geom"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// bruteNeighbors is the reference O(n) scan the spatial index replaces.
func bruteNeighbors(pos map[NodeID]geom.Point, self NodeID, r float64) []NodeID {
	var out []NodeID
	for id := NodeID(0); int(id) < len(pos); id++ {
		if id == self {
			continue
		}
		if pos[id].Within(pos[self], r) {
			out = append(out, id)
		}
	}
	return out
}

// bruteNear is the reference scan for nodesWithin.
func bruteNear(pos map[NodeID]geom.Point, p geom.Point, r float64) []NodeID {
	var out []NodeID
	for id := NodeID(0); int(id) < len(pos); id++ {
		if pos[id].Within(p, r) {
			out = append(out, id)
		}
	}
	return out
}

// neighborIDs returns the ids of the neighbours of the node registered
// under id, in list order.
func neighborIDs(t testing.TB, m *Medium, id NodeID) []NodeID {
	t.Helper()
	return ids(m.Neighbors(node(t, m, id)))
}

// ids returns the ids of nodes, in order.
func ids(nodes []*Node) []NodeID {
	var out []NodeID
	for _, n := range nodes {
		out = append(out, n.ID())
	}
	return out
}

// nearIDs returns the ids of m.nodesWithin(p, r), in the order found.
func nearIDs(m *Medium, p geom.Point, r float64) []NodeID {
	var out []NodeID
	for _, i := range m.nodesWithin(p, r) {
		out = append(out, m.order[i].ID())
	}
	return out
}

func sameIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// layouts are the node placements the brute-force tests drop onto a
// medium: each returns the position of the next node.
var layouts = []struct {
	name  string
	place func(rng *rand.Rand, pos map[NodeID]geom.Point, radius float64) geom.Point
	// probe returns a query point; sparse layouts aim at a node, or most
	// queries would find nothing.
	probe func(rng *rand.Rand, pos map[NodeID]geom.Point) geom.Point
}{
	{
		name: "dense",
		place: func(rng *rand.Rand, _ map[NodeID]geom.Point, _ float64) geom.Point {
			return geom.Pt(rng.Float64()*24-8, rng.Float64()*24-8)
		},
		probe: func(rng *rand.Rand, _ map[NodeID]geom.Point) geom.Point {
			return geom.Pt(rng.Float64()*30-12, rng.Float64()*30-12)
		},
	},
	{
		// Clusters about ±1e6 apart, some at negative coordinates: the
		// bounding box is far too sparse for CommRadius cells.
		name: "sparse",
		place: func(rng *rand.Rand, pos map[NodeID]geom.Point, radius float64) geom.Point {
			if len(pos) > 0 && rng.Intn(3) > 0 {
				c := pos[NodeID(rng.Intn(len(pos)))]
				return geom.Pt(c.X+(rng.Float64()-0.5)*3*radius, c.Y+(rng.Float64()-0.5)*3*radius)
			}
			return geom.Pt(float64(rng.Intn(5)-2)*1e6, float64(rng.Intn(5)-2)*1e6)
		},
		probe: func(rng *rand.Rand, pos map[NodeID]geom.Point) geom.Point {
			c := pos[NodeID(rng.Intn(len(pos)))]
			return geom.Pt(c.X+rng.Float64()*4-2, c.Y+rng.Float64()*4-2)
		},
	},
}

// TestSpatialHashMatchesBruteForce drops random node layouts onto media
// with random communication radii and checks that Neighbors and
// nodesWithin agree with the brute-force scan — including across
// incremental registration, which exercises the index being dropped and
// rebuilt and the granular cache invalidation (queries are interleaved
// with AddNode). However sparse the layout, the index holds at most 2n+1
// cells for n nodes.
func TestSpatialHashMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, lay := range layouts {
		for trial := 0; trial < 25; trial++ {
			radius := 0.25 + rng.Float64()*4
			m := New(Params{CommRadius: radius}, nil, ShardRuntime{Sched: simtime.NewShardGroup(1).Shard(0), Stats: &trace.Stats{}})
			n := 3 + rng.Intn(120)
			pos := make(map[NodeID]geom.Point, n)
			checkSize := func() {
				if m.index == nil {
					return
				}
				if nx, ny := m.index.Dims(); nx*ny > 2*len(m.order)+1 {
					t.Fatalf("%s trial %d: the index has %d cells for %d nodes, want at most %d",
						lay.name, trial, nx*ny, len(m.order), 2*len(m.order)+1)
				}
			}
			for i := 0; i < n; i++ {
				id := NodeID(i)
				p := lay.place(rng, pos, radius)
				if err := m.AddNode(new(Node), id, p, nil); err != nil {
					t.Fatal(err)
				}
				pos[id] = p
				// Query mid-registration: a stale cached list here means the
				// invalidation missed a node the newcomer is in range of.
				probe := NodeID(rng.Intn(i + 1))
				if !sameIDs(neighborIDs(t, m, probe), bruteNeighbors(pos, probe, radius)) {
					t.Fatalf("%s trial %d: Neighbors(%d) diverged from brute force after %d registrations",
						lay.name, trial, probe, i+1)
				}
				checkSize()
			}
			for i := 0; i < n; i++ {
				id := NodeID(i)
				if got, want := neighborIDs(t, m, id), bruteNeighbors(pos, id, radius); !sameIDs(got, want) {
					t.Fatalf("%s trial %d: Neighbors(%d) = %v, want %v", lay.name, trial, id, got, want)
				}
			}
			for q := 0; q < 40; q++ {
				p := lay.probe(rng, pos)
				r := rng.Float64() * 6
				switch q {
				case 0:
					r = 1000 // a disc over many cells
				case 1:
					r = 3e6 // a disk covering every layout
				}
				if got, want := nearIDs(m, p, r), bruteNear(pos, p, r); !sameIDs(got, want) {
					t.Fatalf("%s trial %d: nodesWithin(%v, %.2f) = %v, want %v", lay.name, trial, p, r, got, want)
				}
			}
			checkSize()
		}
	}
}

// TestSpatialIndexTracksAGrowingField registers a line of nodes walking
// away from the first one, querying after every registration, so every
// newcomer lands outside the box the index was built over: each list
// must still name exactly the newcomer's predecessor.
func TestSpatialIndexTracksAGrowingField(t *testing.T) {
	m := New(Params{CommRadius: 1.5}, nil, ShardRuntime{Sched: simtime.NewShardGroup(1).Shard(0), Stats: &trace.Stats{}})
	const n = 2000
	for i := 0; i < n; i++ {
		if err := m.AddNode(new(Node), NodeID(i), geom.Pt(float64(i), float64(-i)/2), nil); err != nil {
			t.Fatal(err)
		}
		want := []NodeID{NodeID(i - 1)}
		if i == 0 {
			want = nil
		}
		if got := neighborIDs(t, m, NodeID(i)); !sameIDs(got, want) {
			t.Fatalf("Neighbors(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestSpatialIndexToleratesNonFinitePositions registers nodes at infinite
// and NaN coordinates among finite ones: the index still builds, and every
// list and query agrees with the brute-force scan.
func TestSpatialIndexToleratesNonFinitePositions(t *testing.T) {
	m := New(Params{CommRadius: 2}, nil, ShardRuntime{Sched: simtime.NewShardGroup(1).Shard(0), Stats: &trace.Stats{}})
	inf, nan := math.Inf(1), math.NaN()
	layout := []geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(inf, 0), geom.Pt(nan, 1), geom.Pt(-1e308, 1e308),
		geom.Pt(1e308, -1e308), geom.Pt(0, -inf), geom.Pt(2, 1), geom.Pt(1e308, 1e308),
	}
	pos := make(map[NodeID]geom.Point, len(layout))
	for i, p := range layout {
		if err := m.AddNode(new(Node), NodeID(i), p, nil); err != nil {
			t.Fatal(err)
		}
		pos[NodeID(i)] = p
		for id := NodeID(0); int(id) <= i; id++ {
			if got, want := neighborIDs(t, m, id), bruteNeighbors(pos, id, 2); !sameIDs(got, want) {
				t.Fatalf("after %d registrations: Neighbors(%d) = %v, want %v", i+1, id, got, want)
			}
		}
	}
	for _, r := range []float64{0.5, 3, 1e200, inf} {
		if got, want := nearIDs(m, geom.Pt(1, 0), r), bruteNear(pos, geom.Pt(1, 0), r); !sameIDs(got, want) {
			t.Fatalf("nodesWithin((1,0), %g) = %v, want %v", r, got, want)
		}
	}
}

// TestSpatialHashOutOfOrderRegistration registers ids in shuffled order,
// exercising the sorted insert into the global order; the second half
// registers after every list is resolved, which drops the index, so the
// first newcomer rebuilds it, and each newcomer drops the lists it joins
// and the index. Lists must still come out in ascending id order (the
// brute-force scan's).
func TestSpatialHashOutOfOrderRegistration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		radius := 0.25 + rng.Float64()*4
		m := New(Params{CommRadius: radius}, nil, ShardRuntime{Sched: simtime.NewShardGroup(1).Shard(0), Stats: &trace.Stats{}})
		n := 3 + rng.Intn(120)
		ids := rng.Perm(n)
		pos := make(map[NodeID]geom.Point, n)
		for k, i := range ids {
			id := NodeID(i)
			p := geom.Pt(rng.Float64()*24-8, rng.Float64()*24-8)
			if err := m.AddNode(new(Node), id, p, nil); err != nil {
				t.Fatal(err)
			}
			pos[id] = p
			if k == n/2 {
				m.PrebuildNeighbors() // builds the index mid-registration
				if m.index != nil || m.pts != nil {
					t.Fatalf("trial %d: the index outlived the last list it resolved", trial)
				}
			}
		}
		for i := 1; i < len(m.order); i++ {
			if m.order[i-1].id >= m.order[i].id {
				t.Fatalf("trial %d: order not sorted at %d", trial, i)
			}
		}
		for id := NodeID(0); int(id) < n; id++ {
			if got, want := neighborIDs(t, m, id), bruteNeighbors(pos, id, radius); !sameIDs(got, want) {
				t.Fatalf("trial %d: Neighbors(%d) = %v, want %v", trial, id, got, want)
			}
		}
	}
}

// TestAppendNodesNearReusesScratch checks the scratch contract of
// nodesWithin: the results match the brute-force scan, and a repeated
// query reuses the medium's scratch instead of reallocating it.
func TestAppendNodesNearReusesScratch(t *testing.T) {
	m := New(Params{CommRadius: 2}, nil, ShardRuntime{Sched: simtime.NewShardGroup(1).Shard(0), Stats: &trace.Stats{}})
	pos := make(map[NodeID]geom.Point, 40)
	for i := 0; i < 40; i++ {
		pos[NodeID(i)] = geom.Pt(float64(i%8), float64(i/8))
		if err := m.AddNode(new(Node), NodeID(i), pos[NodeID(i)], nil); err != nil {
			t.Fatal(err)
		}
	}
	probe := geom.Pt(3, 2)
	want := bruteNear(pos, probe, 2.5)
	if len(want) == 0 {
		t.Fatal("probe found no nodes; bad test geometry")
	}
	first := m.nodesWithin(probe, 2.5)
	for rep := 0; rep < 5; rep++ {
		if got := nearIDs(m, probe, 2.5); !sameIDs(got, want) {
			t.Fatalf("rep %d: nodesWithin = %v, want %v", rep, got, want)
		}
		if &m.found[0] != &first[0] {
			t.Fatalf("rep %d: the query scratch was reallocated", rep)
		}
	}
}
