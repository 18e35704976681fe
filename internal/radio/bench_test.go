package radio

import (
	"runtime"
	"testing"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// fanoutTarget is a neighbour of fanout's sender, the target of its
// unicast.
const fanoutTarget NodeID = 28

// fanout returns one frame to dst fanning out to a dense neighborhood,
// run until every resulting reception is resolved — the radio hot path.
// The neighbor cache and the record pools are warm.
func fanout(tb testing.TB, dst NodeID) func() {
	g := simtime.NewShardGroup(1)
	m := New(Params{CommRadius: 10}, nil, ShardRuntime{Sched: g.Shard(0), Stats: &trace.Stats{}})
	// 8x8 grid with spacing 2: every node hears every other (radius 10
	// covers the 14x14 diagonal partially; center sees most).
	for i := 0; i < 64; i++ {
		if err := m.AddNode(new(Node), NodeID(i), geom.Pt(float64(i%8)*2, float64(i/8)*2), nil); err != nil {
			tb.Fatal(err)
		}
	}
	src := node(tb, m, 27) // interior node with a full neighborhood
	f := Frame{Dst: dst, Bits: 256}
	send := func() {
		m.Send(src, f)
		if err := g.Run(g.Now()+time.Second, 0, nil); err != nil {
			tb.Fatal(err)
		}
	}
	send()
	return send
}

// appendNodesNear returns one spatial query, as a neighbor-cache miss
// makes it, on a 20x20 grid. The medium's query scratch has grown to the
// result's size.
func appendNodesNear(tb testing.TB) func() {
	m := New(Params{CommRadius: 3}, nil, ShardRuntime{Sched: simtime.NewShardGroup(1).Shard(0), Stats: &trace.Stats{}})
	for i := 0; i < 400; i++ {
		if err := m.AddNode(new(Node), NodeID(i), geom.Pt(float64(i%20), float64(i/20)), nil); err != nil {
			tb.Fatal(err)
		}
	}
	probe := geom.Pt(10, 10)
	if len(m.nodesWithin(probe, 3)) == 0 {
		tb.Fatal("query found nothing")
	}
	return func() { m.nodesWithin(probe, 3) }
}

// resolveSide and resolveRadius shape the field the neighbour-resolution
// benchmark and its allocation test resolve: a 100x100 grid at unit
// spacing with the field10k workload's communication radius, about 20
// neighbours a mote.
const (
	resolveSide   = 100
	resolveRadius = 2.5
)

// resolveField returns a fresh resolveSide² field with no list resolved.
func resolveField(tb testing.TB) *Medium {
	m := New(Params{CommRadius: resolveRadius}, nil, ShardRuntime{Sched: simtime.NewShardGroup(1).Shard(0), Stats: &trace.Stats{}})
	for i := 0; i < resolveSide*resolveSide; i++ {
		if err := m.AddNode(new(Node), NodeID(i), geom.Pt(float64(i%resolveSide), float64(i/resolveSide)), nil); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// BenchmarkResolveNeighbors resolves every neighbour list of a fresh
// field, as a run's first contact with each mote does, and reports the
// cost per list. Registering the field is outside the timer; building
// the spatial index, if the medium defers it to the first query, is in.
func BenchmarkResolveNeighbors(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := resolveField(b)
		b.StartTimer()
		for _, n := range m.order {
			m.Neighbors(n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*resolveSide*resolveSide), "ns/list")
}

// BenchmarkBroadcastFanout measures one broadcast to a 64-node
// neighborhood, run until drained. With pooled reception and delivery-batch
// records and typed-payload events, steady state allocates nothing.
func BenchmarkBroadcastFanout(b *testing.B) {
	benchFanout(b, Broadcast)
}

// BenchmarkUnicastFanout measures one unicast that the same neighborhood
// overhears, as a routing relay is: one target reception, and occupancy
// without a record at every other receiver.
func BenchmarkUnicastFanout(b *testing.B) {
	benchFanout(b, fanoutTarget)
}

func benchFanout(b *testing.B, dst NodeID) {
	send := fanout(b, dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// BenchmarkAppendNodesNear measures the spatial query.
func BenchmarkAppendNodesNear(b *testing.B) {
	query := appendNodesNear(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
}

// TestBroadcastFanoutAllocatesNothing pins BenchmarkBroadcastFanout's
// steady state.
func TestBroadcastFanoutAllocatesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, fanout(t, Broadcast)); allocs != 0 {
		t.Fatalf("broadcast fan-out allocates %v times, want 0", allocs)
	}
}

// TestUnicastFanoutAllocatesNothing pins BenchmarkUnicastFanout's steady
// state.
func TestUnicastFanoutAllocatesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, fanout(t, fanoutTarget)); allocs != 0 {
		t.Fatalf("unicast fan-out allocates %v times, want 0", allocs)
	}
}

// TestAppendNodesNearAllocatesNothing pins BenchmarkAppendNodesNear's
// steady state: a query into grown scratch allocates nothing.
func TestAppendNodesNearAllocatesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, appendNodesNear(t)); allocs != 0 {
		t.Fatalf("nodesWithin into grown scratch allocates %v times, want 0", allocs)
	}
}

// TestNeighborResolutionAllocatesNothing pins resolution's slab: once the
// index and the query scratch are warm, resolving every list of a field
// averages under one allocation per 100 lists (the slab's block refills).
func TestNeighborResolutionAllocatesNothing(t *testing.T) {
	m := resolveField(t)
	m.Neighbors(m.order[len(m.order)/2]) // builds the index, grows the scratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, n := range m.order {
		m.Neighbors(n)
	}
	runtime.ReadMemStats(&after)
	if allocs, lists := after.Mallocs-before.Mallocs, uint64(len(m.order)); allocs*100 >= lists {
		t.Fatalf("resolving %d lists allocated %d times, want under one per 100 lists", lists, allocs)
	}
}
