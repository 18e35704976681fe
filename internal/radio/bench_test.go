package radio

import (
	"testing"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// broadcastFanout returns one broadcast fanning out to a dense
// neighborhood, run until every resulting reception is resolved — the
// radio hot path. The neighbor cache and the record pools are warm.
func broadcastFanout(tb testing.TB) func() {
	g := simtime.NewShardGroup(1)
	m := New(Params{CommRadius: 10, PropDelay: time.Microsecond}, nil, ShardRuntime{Sched: g.Shard(0), Stats: &trace.Stats{}})
	// 8x8 grid with spacing 2: every node hears every other (radius 10
	// covers the 14x14 diagonal partially; center sees most).
	for i := 0; i < 64; i++ {
		if err := m.AddNode(NodeID(i), geom.Pt(float64(i%8)*2, float64(i/8)*2), nil); err != nil {
			tb.Fatal(err)
		}
	}
	src := NodeID(27) // interior node with a full neighborhood
	f := Frame{Src: src, Dst: Broadcast, Bits: 256}
	fanout := func() {
		m.Send(f)
		if err := g.Run(g.Now()+time.Second, 0, nil); err != nil {
			tb.Fatal(err)
		}
	}
	fanout()
	return fanout
}

// appendNodesNear returns one scratch-slice spatial query, as the
// broadcast fan-out and neighbor-cache misses make it, on a 20x20 grid.
// The scratch slice has grown to the result's size.
func appendNodesNear(tb testing.TB) func() {
	m := New(Params{CommRadius: 3}, nil, ShardRuntime{Sched: simtime.NewShardGroup(1).Shard(0), Stats: &trace.Stats{}})
	for i := 0; i < 400; i++ {
		if err := m.AddNode(NodeID(i), geom.Pt(float64(i%20), float64(i/20)), nil); err != nil {
			tb.Fatal(err)
		}
	}
	probe := geom.Pt(10, 10)
	var scratch []NodeID
	query := func() { scratch = m.appendNodesWithin(scratch[:0], probe, 3) }
	query()
	if len(scratch) == 0 {
		tb.Fatal("query found nothing")
	}
	return query
}

// BenchmarkBroadcastFanout measures one broadcast to a 64-node
// neighborhood, run until drained. With pooled reception and delivery-batch
// records and typed-payload events, steady state allocates nothing.
func BenchmarkBroadcastFanout(b *testing.B) {
	fanout := broadcastFanout(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fanout()
	}
}

// BenchmarkAppendNodesNear measures the scratch-slice spatial query.
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
	if allocs := testing.AllocsPerRun(100, broadcastFanout(t)); allocs != 0 {
		t.Fatalf("broadcast fan-out allocates %v times, want 0", allocs)
	}
}

// TestAppendNodesNearAllocatesNothing pins BenchmarkAppendNodesNear's
// steady state: a query into a grown scratch slice allocates nothing.
func TestAppendNodesNearAllocatesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, appendNodesNear(t)); allocs != 0 {
		t.Fatalf("appendNodesWithin into a grown scratch slice allocates %v times, want 0", allocs)
	}
}
