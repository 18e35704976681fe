package radio

import (
	"math/rand"
	"testing"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/simtime"
)

// BenchmarkBroadcastFanout measures one broadcast fanning out to a dense
// neighborhood and all resulting receptions being resolved — the radio
// hot path. With pooled transmission/reception records and typed-payload
// events, steady state allocates nothing.
func BenchmarkBroadcastFanout(b *testing.B) {
	s := simtime.NewScheduler()
	rng := rand.New(rand.NewSource(1))
	m := New(Params{CommRadius: 10, PropDelay: time.Microsecond}, nil, ShardRuntime{Sched: s, RNG: rng})
	// 8x8 grid with spacing 2: every node hears every other (radius 10
	// covers the 14x14 diagonal partially; center sees most).
	for i := 0; i < 64; i++ {
		if err := m.AddNode(NodeID(i), geom.Pt(float64(i%8)*2, float64(i/8)*2), nil); err != nil {
			b.Fatal(err)
		}
	}
	src := NodeID(27) // interior node with a full neighborhood
	f := Frame{Src: src, Dst: Broadcast, Bits: 256}
	// Warm the neighbor cache and the record pools.
	m.Send(f)
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(f)
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendNodesNear measures the scratch-slice spatial query used
// by the broadcast fan-out and neighbor-cache misses.
func BenchmarkAppendNodesNear(b *testing.B) {
	s := simtime.NewScheduler()
	rng := rand.New(rand.NewSource(1))
	m := New(Params{CommRadius: 3}, nil, ShardRuntime{Sched: s, RNG: rng})
	for i := 0; i < 400; i++ {
		if err := m.AddNode(NodeID(i), geom.Pt(float64(i%20), float64(i/20)), nil); err != nil {
			b.Fatal(err)
		}
	}
	probe := geom.Pt(10, 10)
	var scratch []NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = m.AppendNodesNear(scratch[:0], probe, 3)
	}
	if len(scratch) == 0 {
		b.Fatal("query found nothing")
	}
}
