package radio

import (
	"math/rand"
	"testing"

	"envirotrack/internal/geom"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// bruteNeighbors is the reference O(n) scan the spatial hash replaced.
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

// bruteNear is the reference scan for appendNodesWithin.
func bruteNear(pos map[NodeID]geom.Point, p geom.Point, r float64) []NodeID {
	var out []NodeID
	for id := NodeID(0); int(id) < len(pos); id++ {
		if pos[id].Within(p, r) {
			out = append(out, id)
		}
	}
	return out
}

// neighborIDs returns the ids of m.Neighbors(id), in list order.
func neighborIDs(m *Medium, id NodeID) []NodeID {
	var ids []NodeID
	for _, n := range m.Neighbors(id) {
		ids = append(ids, n.ID())
	}
	return ids
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

// TestSpatialHashMatchesBruteForce drops random node layouts onto media
// with random communication radii and checks that the spatial-hash
// Neighbors and appendNodesWithin agree with the brute-force scan — including
// across incremental registration, which exercises the granular cache
// invalidation (queries are interleaved with AddNode).
func TestSpatialHashMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		radius := 0.25 + rng.Float64()*4
		m := New(Params{CommRadius: radius}, nil, ShardRuntime{Sched: simtime.NewShardGroup(1).Shard(0), Stats: &trace.Stats{}})
		n := 3 + rng.Intn(120)
		pos := make(map[NodeID]geom.Point, n)
		for i := 0; i < n; i++ {
			id := NodeID(i)
			// Cluster around a few hotspots so cells are unevenly filled;
			// allow negative coordinates.
			p := geom.Pt(rng.Float64()*24-8, rng.Float64()*24-8)
			if err := m.AddNode(id, p, nil); err != nil {
				t.Fatal(err)
			}
			pos[id] = p
			// Query mid-registration: a stale cached list here means the
			// invalidation missed a node the newcomer is in range of.
			probe := NodeID(rng.Intn(i + 1))
			if !sameIDs(neighborIDs(m, probe), bruteNeighbors(pos, probe, radius)) {
				t.Fatalf("trial %d: Neighbors(%d) diverged from brute force after %d registrations",
					trial, probe, i+1)
			}
		}
		for i := 0; i < n; i++ {
			id := NodeID(i)
			if got, want := neighborIDs(m, id), bruteNeighbors(pos, id, radius); !sameIDs(got, want) {
				t.Fatalf("trial %d: Neighbors(%d) = %v, want %v", trial, id, got, want)
			}
		}
		for q := 0; q < 40; q++ {
			p := geom.Pt(rng.Float64()*30-12, rng.Float64()*30-12)
			r := rng.Float64() * 6
			if q == 0 {
				r = 1000 // exercise the large-radius linear fallback
			}
			if got, want := m.appendNodesWithin(nil, p, r), bruteNear(pos, p, r); !sameIDs(got, want) {
				t.Fatalf("trial %d: appendNodesWithin(%v, %.2f) = %v, want %v", trial, p, r, got, want)
			}
		}
	}
}

// TestSpatialHashOutOfOrderRegistration registers ids in shuffled order,
// exercising the sorted-insert path of both the global order and the cell
// buckets (ascending registration only ever appends). Bucket sortedness is
// what lets queries merge instead of sorting per call, so it is asserted
// directly alongside the brute-force equivalence.
func TestSpatialHashOutOfOrderRegistration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		radius := 0.25 + rng.Float64()*4
		m := New(Params{CommRadius: radius}, nil, ShardRuntime{Sched: simtime.NewShardGroup(1).Shard(0), Stats: &trace.Stats{}})
		n := 3 + rng.Intn(120)
		ids := rng.Perm(n)
		pos := make(map[NodeID]geom.Point, n)
		for _, i := range ids {
			id := NodeID(i)
			p := geom.Pt(rng.Float64()*24-8, rng.Float64()*24-8)
			if err := m.AddNode(id, p, nil); err != nil {
				t.Fatal(err)
			}
			pos[id] = p
		}
		for key, bucket := range m.cells {
			for i := 1; i < len(bucket); i++ {
				if bucket[i-1].id >= bucket[i].id {
					t.Fatalf("trial %d: bucket %v not id-sorted: %v then %v",
						trial, key, bucket[i-1].id, bucket[i].id)
				}
			}
		}
		for i := 1; i < len(m.order); i++ {
			if m.order[i-1] >= m.order[i] {
				t.Fatalf("trial %d: order not sorted at %d", trial, i)
			}
		}
		for id := NodeID(0); int(id) < n; id++ {
			if got, want := neighborIDs(m, id), bruteNeighbors(pos, id, radius); !sameIDs(got, want) {
				t.Fatalf("trial %d: Neighbors(%d) = %v, want %v", trial, id, got, want)
			}
		}
	}
}

// TestAppendNodesNearReusesScratch checks the scratch-slice contract of
// appendNodesWithin: the results match the brute-force scan, land after
// any existing dst contents, and a reused buffer with sufficient capacity
// is not reallocated.
func TestAppendNodesNearReusesScratch(t *testing.T) {
	m := New(Params{CommRadius: 2}, nil, ShardRuntime{Sched: simtime.NewShardGroup(1).Shard(0), Stats: &trace.Stats{}})
	pos := make(map[NodeID]geom.Point, 40)
	for i := 0; i < 40; i++ {
		pos[NodeID(i)] = geom.Pt(float64(i%8), float64(i/8))
		if err := m.AddNode(NodeID(i), pos[NodeID(i)], nil); err != nil {
			t.Fatal(err)
		}
	}
	probe := geom.Pt(3, 2)
	want := bruteNear(pos, probe, 2.5)
	if len(want) == 0 {
		t.Fatal("probe found no nodes; bad test geometry")
	}

	prefixed := m.appendNodesWithin([]NodeID{99}, probe, 2.5)
	if prefixed[0] != 99 || !sameIDs(prefixed[1:], want) {
		t.Fatalf("appendNodesWithin kept %v, want [99]+%v", prefixed, want)
	}

	scratch := make([]NodeID, 0, len(want)+8)
	for rep := 0; rep < 5; rep++ {
		got := m.appendNodesWithin(scratch[:0], probe, 2.5)
		if !sameIDs(got, want) {
			t.Fatalf("rep %d: appendNodesWithin = %v, want %v", rep, got, want)
		}
		if &got[0] != &scratch[:1][0] {
			t.Fatalf("rep %d: scratch with capacity %d was reallocated", rep, cap(scratch))
		}
	}
}

// TestNeighborsUnknownNodeNotCached preserves the pre-index contract:
// querying an unregistered id returns nil and does not poison the cache.
func TestNeighborsUnknownNodeNotCached(t *testing.T) {
	m := New(Params{CommRadius: 2}, nil, ShardRuntime{Sched: simtime.NewShardGroup(1).Shard(0), Seed: 1, Stats: &trace.Stats{}})
	if nb := m.Neighbors(7); nb != nil {
		t.Fatalf("Neighbors of unknown node = %v, want nil", nb)
	}
	if err := m.AddNode(7, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(8, geom.Pt(1, 0), nil); err != nil {
		t.Fatal(err)
	}
	if got := neighborIDs(m, 7); !sameIDs(got, []NodeID{8}) {
		t.Fatalf("Neighbors(7) = %v, want [8]", got)
	}
}
