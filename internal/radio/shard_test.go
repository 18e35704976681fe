package radio

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/obs"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// stripes returns a shard mapper splitting [0,width) into k vertical
// stripes.
func stripes(k int, width float64) func(geom.Point) int32 {
	stripe := width / float64(k)
	return func(pt geom.Point) int32 {
		s := int32(pt.X / stripe)
		if s < 0 {
			s = 0
		}
		if s >= int32(k) {
			s = int32(k) - 1
		}
		return s
	}
}

// shardedMedium builds a medium over g's shards, each with its own
// stats, drawing under the run seed.
func shardedMedium(g *simtime.ShardGroup, p Params, shardOf func(geom.Point) int32, seed int64) *Medium {
	rts := make([]ShardRuntime, g.Shards())
	for i := range rts {
		rts[i] = ShardRuntime{
			Sched: g.Shard(i),
			Seed:  seed,
			Stats: &trace.Stats{},
		}
	}
	return New(p, shardOf, rts...)
}

// runSharded drives g to deadline with the medium's FlushBoundary as the
// window barrier and delta as the lookahead window, failing the test if
// any barrier reports a lookahead violation. Topology must be complete:
// it prebuilds the neighbor cache first.
func runSharded(t *testing.T, g *simtime.ShardGroup, m *Medium, deadline, delta time.Duration) {
	t.Helper()
	m.PrebuildNeighbors()
	if err := g.Run(deadline, delta, m.FlushBoundary); err != nil {
		t.Fatal(err)
	}
}

// TestShardMutSkewIsZeroInNominalBuilds pins the mutation constant: the
// differential battery's byte-identity claims hold only because nominal
// builds add exactly zero skew to cross-shard deliveries.
func TestShardMutSkewIsZeroInNominalBuilds(t *testing.T) {
	if shardMutSkew != 0 {
		t.Fatalf("shardMutSkew = %v in a nominal build; run mutation tests with -tags shardmut only", time.Duration(shardMutSkew))
	}
}

// TestBoundaryClassification checks nodes resolve to the shard owning
// their region, and that on a parallel run a frame crossing the stripe
// boundary is counted as boundary traffic and delivered through the
// barrier, while same-shard traffic is not counted.
func TestBoundaryClassification(t *testing.T) {
	g := simtime.NewShardGroup(2)
	m := shardedMedium(g, Params{CommRadius: 3}, stripes(2, 10), 1)
	got := map[NodeID]int{}
	var mu sync.Mutex // receivers run on their own shard's goroutine
	recv := func(id NodeID) Receiver {
		return func(Frame) {
			mu.Lock()
			got[id]++
			mu.Unlock()
		}
	}
	// 6.0 is in stripe [5,10) -> shard 1.
	if err := m.AddNode(2, geom.Pt(6, 0), recv(2)); err != nil {
		t.Fatal(err)
	}
	// 4.0 and 3.0 are in stripe [0,5) -> shard 0.
	if err := m.AddNode(1, geom.Pt(4, 0), recv(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(3, geom.Pt(3, 0), recv(3)); err != nil {
		t.Fatal(err)
	}
	if got := m.NodeShard(1); got != 0 {
		t.Fatalf("NodeShard(1) = %d, want 0", got)
	}
	if got := m.NodeShard(2); got != 1 {
		t.Fatalf("NodeShard(2) = %d, want 1", got)
	}

	// Frames go on the air from inside callbacks, as in a real run: the
	// executor's idle skip relies on outboxes being empty between windows.
	g.Shard(0).AtEventOwned(0, simtime.OwnerNone, func(arg any) { m.Send(arg.(Frame)) },
		Frame{Kind: trace.KindHeartbeat, Src: 1, Dst: Broadcast})
	runSharded(t, g, m, time.Second, m.Airtime(DefaultFrameBits))
	// Node 1's broadcast targets 2 (cross: shard 0 -> 1) and 3 (same
	// shard, unaccounted); both receive it.
	if got[2] != 1 || got[3] != 1 {
		t.Fatalf("receptions = %v, want one each at nodes 2 and 3", got)
	}
	if got := m.BoundaryFrames(); got != 1 {
		t.Fatalf("BoundaryFrames() = %d, want 1", got)
	}
}

// TestConservativeLookaheadInvariant is the property test of the shard
// synchronization bound: across randomized fields, shard counts, frame
// sizes, and send schedules (CSMA deferrals, losses), run on the parallel
// executor with FlushBoundary as the barrier, every barrier returns nil:
// no cross-shard frame is ever delivered earlier than its commit time plus
// its own packet time (the send-time check), nor before the barrier that
// drains it when the window is the smallest frame's airtime + propagation
// delay (the barrier check).
func TestConservativeLookaheadInvariant(t *testing.T) {
	var boundary uint64
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 100))
		k := 2 + rng.Intn(7) // 2..8 shards
		width := 8 + rng.Float64()*24
		p := Params{
			CommRadius: 1.5 + rng.Float64()*4,
			PropDelay:  time.Duration(rng.Intn(3)) * time.Millisecond,
			LossProb:   rng.Float64() * 0.3,
		}
		g := simtime.NewShardGroup(k)
		m := shardedMedium(g, p, stripes(k, width), int64(trial))

		nodes := 20 + rng.Intn(40)
		for id := 0; id < nodes; id++ {
			pos := geom.Pt(rng.Float64()*width, rng.Float64()*10)
			if err := m.AddNode(NodeID(id), pos, func(Frame) {}); err != nil {
				t.Fatal(err)
			}
		}
		minBits := DefaultFrameBits
		for i := 0; i < 150; i++ {
			src := NodeID(rng.Intn(nodes))
			dst := Broadcast
			if rng.Float64() < 0.4 {
				dst = NodeID(rng.Intn(nodes))
			}
			bits := 0
			if rng.Float64() < 0.3 {
				bits = 64 + rng.Intn(512)
				if bits < minBits {
					minBits = bits
				}
			}
			at := time.Duration(rng.Intn(2000)) * time.Millisecond
			f := Frame{Kind: trace.KindHeartbeat, Src: src, Dst: dst, Bits: bits}
			g.Shard(int(m.NodeShard(src))).AtEventOwned(at, simtime.OwnerNone, func(arg any) {
				m.Send(arg.(Frame))
			}, f)
		}
		bound := m.Airtime(minBits) + p.PropDelay
		runSharded(t, g, m, 10*time.Second, bound)

		boundary += m.BoundaryFrames()
	}
	if boundary == 0 {
		t.Fatal("no trial produced boundary frames; the bound check is vacuous")
	}
}

// TestFlushBoundaryRejectsLateDelivery is the barrier half of the
// lookahead rule in a nominal build: a buffered cross-shard frame drained
// at a window edge past its arrival time must fail the barrier, while
// draining it at its arrival time is fine.
func TestFlushBoundaryRejectsLateDelivery(t *testing.T) {
	p := Params{CommRadius: 1.2, BitRate: 1000}
	const arrival = 100 * time.Millisecond // a 100-bit frame at 1000 b/s
	for _, tc := range []struct {
		window time.Duration
		late   bool
	}{
		{arrival, false},
		{arrival + time.Nanosecond, true},
	} {
		_, m, _, _, _ := crossPair(t, p)
		m.PrebuildNeighbors()
		m.Send(Frame{Kind: trace.KindReading, Src: 1, Dst: 2, Bits: 100})
		err := m.FlushBoundary(tc.window)
		if tc.late && (err == nil || !strings.Contains(err.Error(), "lookahead")) {
			t.Errorf("FlushBoundary(%v) = %v, want a lookahead error for a delivery at %v", tc.window, err, arrival)
		}
		if !tc.late && err != nil {
			t.Errorf("FlushBoundary(%v) = %v, want nil for a delivery at %v", tc.window, err, arrival)
		}
		if m.BoundaryFrames() != 1 {
			t.Fatalf("BoundaryFrames() = %d, want 1: the frame never crossed", m.BoundaryFrames())
		}
	}
}

// eventLog is an obs sink recording every event. Each shard gets its own,
// so shard goroutines never share one.
type eventLog []obs.Event

func (l *eventLog) Emit(ev obs.Event) { *l = append(*l, ev) }

// crossPair builds a 2-shard medium with sender 1 on shard 0 and receiver
// 2 just across the stripe boundary on shard 1, plus node 3 on shard 1,
// hidden from node 1, that can send a local frame to 2. It returns each
// shard's stats and event log, and the receptions node 2 heard.
func crossPair(t *testing.T, p Params) (*simtime.ShardGroup, *Medium, [2]*trace.Stats, [2]*eventLog, *int) {
	t.Helper()
	g := simtime.NewShardGroup(2)
	var stats [2]*trace.Stats
	var logs [2]*eventLog
	rts := make([]ShardRuntime, 2)
	for i := range rts {
		stats[i], logs[i] = &trace.Stats{}, &eventLog{}
		rts[i] = ShardRuntime{
			Sched: g.Shard(i),
			Seed:  1,
			Stats: stats[i],
			Bus:   obs.NewBus(logs[i]),
		}
	}
	m := New(p, stripes(2, 10), rts...)
	received := new(int)
	for _, n := range []struct {
		id   NodeID
		x    float64
		recv Receiver
	}{
		{1, 4.5, nil},
		{2, 5.5, func(Frame) { *received++ }},
		{3, 6.5, nil},
	} {
		if err := m.AddNode(n.id, geom.Pt(n.x, 0), n.recv); err != nil {
			t.Fatal(err)
		}
	}
	if m.NodeShard(1) != 0 || m.NodeShard(2) != 1 || m.NodeShard(3) != 1 {
		t.Fatal("nodes landed on the wrong shards")
	}
	return g, m, stats, logs, received
}

// sendAt schedules f's transmission at `at` on the shard owning its sender.
func sendAt(g *simtime.ShardGroup, m *Medium, at time.Duration, f Frame) {
	g.Shard(int(m.NodeShard(f.Src))).AtEventOwned(at, simtime.OwnerNone, func(arg any) {
		m.Send(arg.(Frame))
	}, f)
}

// atReceiver returns node 2's reception-side events in log order.
func atReceiver(l *eventLog) []obs.Event {
	var out []obs.Event
	for _, ev := range *l {
		if ev.Mote == 2 && (ev.Type == obs.EvFrameLost || ev.Type == obs.EvFrameReceived) {
			out = append(out, ev)
		}
	}
	return out
}

// TestCrossShardReceptionOutcomes pins how a reception whose sender lives
// on another shard resolves at the receiver: a collision with a local
// frame loses both, an iid loss is a random loss, and a clean frame is
// received with the sender counting it delivered.
func TestCrossShardReceptionOutcomes(t *testing.T) {
	p := Params{CommRadius: 1.2, BitRate: 1000}
	const packet = 100 * time.Millisecond // a 100-bit frame at 1000 b/s

	t.Run("collision", func(t *testing.T) {
		g, m, stats, logs, received := crossPair(t, p)
		sendAt(g, m, 0, Frame{Kind: trace.KindReading, Src: 1, Dst: 2, Bits: 100})
		sendAt(g, m, packet/2, Frame{Kind: trace.KindReading, Src: 3, Dst: 2, Bits: 100})
		runSharded(t, g, m, time.Second, packet)
		if *received != 0 {
			t.Fatalf("node 2 received %d frames, want 0", *received)
		}
		if ks := stats[1].Kind(trace.KindReading); ks.LostCollision != 2 || ks.Received != 0 {
			t.Fatalf("receiver shard stats = %+v, want 2 collision losses", ks)
		}
		evs := atReceiver(logs[1])
		if len(evs) != 2 {
			t.Fatalf("receiver events = %+v, want 2", evs)
		}
		peers := map[int]bool{}
		for _, ev := range evs {
			if ev.Type != obs.EvFrameLost || ev.Cause != "collision" {
				t.Fatalf("receiver event %+v, want frame_lost with cause collision", ev)
			}
			peers[ev.Peer] = true
		}
		if !peers[1] || !peers[3] {
			t.Fatalf("collision losses from %v, want senders 1 and 3", peers)
		}
	})

	t.Run("random", func(t *testing.T) {
		lossy := p
		lossy.LossProb = 1
		g, m, stats, logs, received := crossPair(t, lossy)
		sendAt(g, m, 0, Frame{Kind: trace.KindReading, Src: 1, Dst: 2, Bits: 100})
		runSharded(t, g, m, time.Second, packet)
		if *received != 0 {
			t.Fatalf("node 2 received %d frames, want 0", *received)
		}
		if ks := stats[1].Kind(trace.KindReading); ks.LostRandom != 1 || ks.LostCollision != 0 {
			t.Fatalf("receiver shard stats = %+v, want 1 random loss", ks)
		}
		if got := stats[0].Kind(trace.KindReading).Undelivered; got != 1 {
			t.Fatalf("sender Undelivered = %d, want 1", got)
		}
		evs := atReceiver(logs[1])
		if len(evs) != 1 || evs[0].Type != obs.EvFrameLost || evs[0].Cause != "random" {
			t.Fatalf("receiver events = %+v, want one frame_lost with cause random", evs)
		}
	})

	t.Run("clean", func(t *testing.T) {
		g, m, stats, logs, received := crossPair(t, p)
		sendAt(g, m, 0, Frame{Kind: trace.KindReading, Src: 1, Dst: 2, Bits: 100})
		runSharded(t, g, m, time.Second, packet)
		if *received != 1 {
			t.Fatalf("node 2 received %d frames, want 1", *received)
		}
		if ks := stats[1].Kind(trace.KindReading); ks.Received != 1 || ks.LostRandom+ks.LostCollision != 0 {
			t.Fatalf("receiver shard stats = %+v, want 1 reception", ks)
		}
		if ks := stats[0].Kind(trace.KindReading); ks.Sent != 1 || ks.Undelivered != 0 {
			t.Fatalf("sender shard stats = %+v, want 1 send and no Undelivered", ks)
		}
		evs := atReceiver(logs[1])
		if len(evs) != 1 || evs[0].Type != obs.EvFrameReceived || evs[0].Peer != 1 {
			t.Fatalf("receiver events = %+v, want one frame_received from node 1", evs)
		}
		if m.BoundaryFrames() != 1 {
			t.Fatalf("BoundaryFrames() = %d, want 1", m.BoundaryFrames())
		}
	})
}
