package radio

import (
	"math"
	"testing"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// newTestMedium returns a medium on the serial engine: a one-shard group
// whose scheduler the medium and the test's callbacks share.
func newTestMedium(t *testing.T, p Params) (*simtime.ShardGroup, *Medium, *trace.Stats) {
	t.Helper()
	g := simtime.NewShardGroup(1)
	var stats trace.Stats
	m := New(p, nil, ShardRuntime{Sched: g.Shard(0), Seed: 42, Stats: &stats})
	return g, m, &stats
}

// runTo runs g until its clock reaches deadline.
func runTo(t *testing.T, g *simtime.ShardGroup, deadline time.Duration) {
	t.Helper()
	if err := g.Run(deadline, 0, nil); err != nil {
		t.Fatal(err)
	}
}

// settle runs g for a simulated hour, long enough for every frame a test
// sends to be delivered or lost.
func settle(t *testing.T, g *simtime.ShardGroup) {
	t.Helper()
	runTo(t, g, g.Now()+time.Hour)
}

func TestAddNodeDuplicate(t *testing.T) {
	_, m, _ := newTestMedium(t, Params{CommRadius: 1})
	if err := m.AddNode(1, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(1, geom.Pt(1, 1), nil); err == nil {
		t.Fatal("expected error on duplicate node id")
	}
}

func TestAddNodeRejectsIDsOutside32Bits(t *testing.T) {
	_, m, _ := newTestMedium(t, Params{CommRadius: 1})
	for _, id := range []NodeID{-1, math.MaxUint32 + 1} {
		if err := m.AddNode(id, geom.Pt(0, 0), nil); err == nil {
			t.Errorf("AddNode(%d) = nil, want an error", id)
		}
	}
	if err := m.AddNode(math.MaxUint32, geom.Pt(0, 0), nil); err != nil {
		t.Errorf("AddNode(2^32-1) = %v, want nil", err)
	}
}

func TestBroadcastReachesOnlyNodesInRange(t *testing.T) {
	g, m, _ := newTestMedium(t, Params{CommRadius: 1.5})
	got := make(map[NodeID]int)
	mk := func(id NodeID) Receiver {
		return func(f Frame) { got[id]++ }
	}
	if err := m.AddNode(0, geom.Pt(0, 0), mk(0)); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(1, geom.Pt(1, 0), mk(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(2, geom.Pt(3, 0), mk(2)); err != nil {
		t.Fatal(err)
	}
	m.Send(Frame{Kind: trace.KindHeartbeat, Src: 0, Dst: Broadcast})
	settle(t, g)
	if got[1] != 1 {
		t.Errorf("in-range node received %d frames, want 1", got[1])
	}
	if got[2] != 0 {
		t.Errorf("out-of-range node received %d frames, want 0", got[2])
	}
	if got[0] != 0 {
		t.Errorf("sender received its own frame")
	}
}

func TestUnicastDeliversOnlyToDestination(t *testing.T) {
	g, m, _ := newTestMedium(t, Params{CommRadius: 5})
	got := make(map[NodeID]int)
	for i := NodeID(0); i < 3; i++ {
		i := i
		if err := m.AddNode(i, geom.Pt(float64(i), 0), func(f Frame) { got[i]++ }); err != nil {
			t.Fatal(err)
		}
	}
	m.Send(Frame{Kind: trace.KindTransport, Src: 0, Dst: 2})
	settle(t, g)
	if got[2] != 1 || got[1] != 0 {
		t.Errorf("unicast deliveries = %v, want only node 2", got)
	}
}

func TestDeliveryDelayIsAirtimePlusPropagation(t *testing.T) {
	g, m, _ := newTestMedium(t, Params{CommRadius: 5, BitRate: 1000, PropDelay: time.Millisecond})
	var at time.Duration
	if err := m.AddNode(0, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(1, geom.Pt(1, 0), func(f Frame) { at = g.Now() }); err != nil {
		t.Fatal(err)
	}
	m.Send(Frame{Kind: trace.KindReading, Src: 0, Dst: 1, Bits: 100})
	settle(t, g)
	// 100 bits at 1000 b/s = 100 ms, plus 1 ms propagation.
	want := 101 * time.Millisecond
	if at != want {
		t.Errorf("delivery at %v, want %v", at, want)
	}
}

func TestSenderSerializesTransmissions(t *testing.T) {
	g, m, _ := newTestMedium(t, Params{CommRadius: 5, BitRate: 1000})
	var arrivals []time.Duration
	if err := m.AddNode(0, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(1, geom.Pt(1, 0), func(f Frame) { arrivals = append(arrivals, g.Now()) }); err != nil {
		t.Fatal(err)
	}
	// Two back-to-back 100-bit frames: second must start after the first
	// finishes, arriving at 200 ms rather than colliding.
	m.Send(Frame{Kind: trace.KindReading, Src: 0, Dst: 1, Bits: 100})
	m.Send(Frame{Kind: trace.KindReading, Src: 0, Dst: 1, Bits: 100})
	settle(t, g)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v, want 2 deliveries", arrivals)
	}
	if arrivals[0] != 100*time.Millisecond {
		t.Errorf("first arrival = %v, want 100ms", arrivals[0])
	}
	// The second frame waits for the first to finish (plus CSMA backoff).
	if arrivals[1] < 200*time.Millisecond || arrivals[1] > 220*time.Millisecond {
		t.Errorf("second arrival = %v, want 200ms plus a small backoff", arrivals[1])
	}
}

func TestCollisionCorruptsOverlappingFrames(t *testing.T) {
	// Hidden-terminal topology: the two senders cannot hear each other
	// (distance 2 > radius 1.2) so carrier sensing cannot prevent their
	// frames overlapping at the receiver between them.
	g, m, stats := newTestMedium(t, Params{CommRadius: 1.2, BitRate: 1000})
	received := 0
	if err := m.AddNode(0, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(1, geom.Pt(2, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(2, geom.Pt(1, 0), func(f Frame) { received++ }); err != nil {
		t.Fatal(err)
	}
	m.Send(Frame{Kind: trace.KindReading, Src: 0, Dst: 2, Bits: 100})
	m.Send(Frame{Kind: trace.KindReading, Src: 1, Dst: 2, Bits: 100})
	settle(t, g)
	if received != 0 {
		t.Errorf("received %d frames, want 0 (collision)", received)
	}
	ks := stats.Kind(trace.KindReading)
	if ks.LostCollision != 2 {
		t.Errorf("LostCollision = %d, want 2", ks.LostCollision)
	}
	if ks.Undelivered != 2 {
		t.Errorf("Undelivered = %d, want 2", ks.Undelivered)
	}
}

func TestCollisionsDisabled(t *testing.T) {
	g, m, _ := newTestMedium(t, Params{CommRadius: 1.2, BitRate: 1000, DisableCollisions: true})
	received := 0
	if err := m.AddNode(0, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(1, geom.Pt(2, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(2, geom.Pt(1, 0), func(f Frame) { received++ }); err != nil {
		t.Fatal(err)
	}
	m.Send(Frame{Kind: trace.KindReading, Src: 0, Dst: 2, Bits: 100})
	m.Send(Frame{Kind: trace.KindReading, Src: 1, Dst: 2, Bits: 100})
	settle(t, g)
	if received != 2 {
		t.Errorf("received %d frames, want 2 with collisions disabled", received)
	}
}

func TestNonOverlappingFramesDoNotCollide(t *testing.T) {
	g, m, _ := newTestMedium(t, Params{CommRadius: 1.2, BitRate: 1000})
	received := 0
	if err := m.AddNode(0, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(1, geom.Pt(2, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(2, geom.Pt(1, 0), func(f Frame) { received++ }); err != nil {
		t.Fatal(err)
	}
	m.Send(Frame{Kind: trace.KindReading, Src: 0, Dst: 2, Bits: 100})
	g.Shard(0).AfterOwned(150*time.Millisecond, simtime.OwnerNone, func() {
		m.Send(Frame{Kind: trace.KindReading, Src: 1, Dst: 2, Bits: 100})
	})
	settle(t, g)
	if received != 2 {
		t.Errorf("received %d frames, want 2 (no overlap)", received)
	}
}

func TestRandomLoss(t *testing.T) {
	g, m, stats := newTestMedium(t, Params{CommRadius: 5, LossProb: 0.5})
	received := 0
	if err := m.AddNode(0, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(1, geom.Pt(1, 0), func(f Frame) { received++ }); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		i := i
		g.Shard(0).AtOwned(time.Duration(i)*time.Second, simtime.OwnerNone, func() {
			m.Send(Frame{Kind: trace.KindReading, Src: 0, Dst: 1})
		})
	}
	settle(t, g)
	if received < n*4/10 || received > n*6/10 {
		t.Errorf("received %d of %d at p=0.5, expected ~%d", received, n, n/2)
	}
	ks := stats.Kind(trace.KindReading)
	if ks.Received+ks.LostRandom != n {
		t.Errorf("accounting mismatch: recv=%d + lost=%d != %d", ks.Received, ks.LostRandom, n)
	}
}

func TestUndeliveredWhenNoReceiverInRange(t *testing.T) {
	g, m, stats := newTestMedium(t, Params{CommRadius: 1})
	if err := m.AddNode(0, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(1, geom.Pt(10, 10), nil); err != nil {
		t.Fatal(err)
	}
	m.Send(Frame{Kind: trace.KindHeartbeat, Src: 0, Dst: Broadcast})
	settle(t, g)
	if got := stats.Kind(trace.KindHeartbeat).Undelivered; got != 1 {
		t.Errorf("Undelivered = %d, want 1", got)
	}
}

func TestSendFromUnregisteredNodeIsNoop(t *testing.T) {
	g, m, stats := newTestMedium(t, Params{CommRadius: 1})
	m.Send(Frame{Kind: trace.KindHeartbeat, Src: 99, Dst: Broadcast})
	settle(t, g)
	if stats.Kind(trace.KindHeartbeat).Sent != 0 {
		t.Error("unregistered sender should not transmit")
	}
}

func TestNeighborsAndRangeQueries(t *testing.T) {
	_, m, _ := newTestMedium(t, Params{CommRadius: 1.5})
	for i := 0; i < 5; i++ {
		if err := m.AddNode(NodeID(i), geom.Pt(float64(i), 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	nb := neighborIDs(m, 2)
	want := []NodeID{1, 3}
	if len(nb) != len(want) {
		t.Fatalf("Neighbors(2) = %v, want %v", nb, want)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v, want %v", nb, want)
		}
	}
	if !m.InRange(0, 1) || m.InRange(0, 2) {
		t.Error("InRange gave wrong answers")
	}
	near := m.appendNodesWithin(nil, geom.Pt(0.4, 0), 1)
	if len(near) != 2 || near[0] != 0 || near[1] != 1 {
		t.Errorf("appendNodesWithin = %v, want [0 1]", near)
	}
	// Cached path returns the same answer.
	nb2 := m.Neighbors(2)
	if len(nb2) != 2 {
		t.Errorf("cached Neighbors(2) = %v", nb2)
	}
}

func TestNeighborsUnknownNode(t *testing.T) {
	_, m, _ := newTestMedium(t, Params{CommRadius: 1})
	if nb := m.Neighbors(42); nb != nil {
		t.Errorf("Neighbors of unknown node = %v, want nil", nb)
	}
	if _, ok := m.Position(42); ok {
		t.Error("Position of unknown node should report !ok")
	}
}

func TestAirtime(t *testing.T) {
	_, m, _ := newTestMedium(t, Params{CommRadius: 1, BitRate: 50000})
	if got := m.Airtime(50000); got != time.Second {
		t.Errorf("Airtime(50000) = %v, want 1s", got)
	}
	if got := m.Airtime(0); got != m.Airtime(DefaultFrameBits) {
		t.Errorf("Airtime(0) should use the default frame size")
	}
}

func TestLinkUtilizationAccounting(t *testing.T) {
	g, m, stats := newTestMedium(t, Params{CommRadius: 5})
	if err := m.AddNode(0, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(1, geom.Pt(1, 0), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		i := i
		g.Shard(0).AtOwned(time.Duration(i)*time.Second, simtime.OwnerNone, func() {
			m.Send(Frame{Kind: trace.KindHeartbeat, Src: 0, Dst: Broadcast, Bits: 500})
		})
	}
	runTo(t, g, 10*time.Second)
	// 5000 bits over 10 s on a 50 kb/s link = 1%.
	got := stats.LinkUtilization(10*time.Second, DefaultBitRate)
	if got < 0.0099 || got > 0.0101 {
		t.Errorf("LinkUtilization = %v, want ~0.01", got)
	}
}

func TestNodeIDsSorted(t *testing.T) {
	_, m, _ := newTestMedium(t, Params{CommRadius: 1})
	for _, id := range []NodeID{5, 1, 3} {
		if err := m.AddNode(id, geom.Pt(float64(id), 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	ids := m.NodeIDs()
	want := []NodeID{1, 3, 5}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("NodeIDs = %v, want %v", ids, want)
		}
	}
}
