package radio

import (
	"math"
	"math/rand"
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

// recvFunc adapts a function to a Receiver.
type recvFunc func(Frame)

func (fn recvFunc) Receive(f Frame) { fn(f) }

// runTo runs g until its clock reaches deadline.
func runTo(t *testing.T, g *simtime.ShardGroup, deadline time.Duration) {
	t.Helper()
	if err := g.Run(deadline, 0, nil); err != nil {
		t.Fatal(err)
	}
}

// node returns the node registered under id, failing the test if there
// is none.
func node(t testing.TB, m *Medium, id NodeID) *Node {
	t.Helper()
	n, ok := m.Lookup(id)
	if !ok {
		t.Fatalf("no node %d registered", id)
	}
	return n
}

// send transmits f from the node registered under f.Src.
func send(t testing.TB, m *Medium, f Frame) {
	t.Helper()
	m.Send(node(t, m, f.Src), f)
}

// settle runs g for a simulated hour, long enough for every frame a test
// sends to be delivered or lost.
func settle(t *testing.T, g *simtime.ShardGroup) {
	t.Helper()
	runTo(t, g, g.Now()+time.Hour)
}

func TestAddNodeDuplicate(t *testing.T) {
	_, m, _ := newTestMedium(t, Params{CommRadius: 1})
	if err := m.AddNode(new(Node), 1, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(new(Node), 1, geom.Pt(1, 1), nil); err == nil {
		t.Fatal("expected error on duplicate node id")
	}
}

func TestAddNodeRejectsIDsOutside32Bits(t *testing.T) {
	_, m, _ := newTestMedium(t, Params{CommRadius: 1})
	for _, id := range []NodeID{-1, math.MaxUint32 + 1} {
		if err := m.AddNode(new(Node), id, geom.Pt(0, 0), nil); err == nil {
			t.Errorf("AddNode(%d) = nil, want an error", id)
		}
	}
	if err := m.AddNode(new(Node), math.MaxUint32, geom.Pt(0, 0), nil); err != nil {
		t.Errorf("AddNode(2^32-1) = %v, want nil", err)
	}
}

func TestBroadcastReachesOnlyNodesInRange(t *testing.T) {
	g, m, _ := newTestMedium(t, Params{CommRadius: 1.5})
	got := make(map[NodeID]int)
	mk := func(id NodeID) Receiver {
		return recvFunc(func(f Frame) { got[id]++ })
	}
	if err := m.AddNode(new(Node), 0, geom.Pt(0, 0), mk(0)); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(new(Node), 1, geom.Pt(1, 0), mk(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(new(Node), 2, geom.Pt(3, 0), mk(2)); err != nil {
		t.Fatal(err)
	}
	send(t, m, Frame{Kind: trace.KindHeartbeat, Src: 0, Dst: Broadcast})
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
		if err := m.AddNode(new(Node), i, geom.Pt(float64(i), 0), recvFunc(func(f Frame) { got[i]++ })); err != nil {
			t.Fatal(err)
		}
	}
	send(t, m, Frame{Kind: trace.KindTransport, Src: 0, Dst: 2})
	settle(t, g)
	if got[2] != 1 || got[1] != 0 {
		t.Errorf("unicast deliveries = %v, want only node 2", got)
	}
}

func TestSenderSerializesTransmissions(t *testing.T) {
	g, m, _ := newTestMedium(t, Params{CommRadius: 5})
	var arrivals []time.Duration
	if err := m.AddNode(new(Node), 0, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(new(Node), 1, geom.Pt(1, 0), recvFunc(func(f Frame) { arrivals = append(arrivals, g.Now()) })); err != nil {
		t.Fatal(err)
	}
	// Two back-to-back 5000-bit (100 ms) frames: second must start after the first
	// finishes, arriving at 200 ms rather than colliding.
	send(t, m, Frame{Kind: trace.KindReading, Src: 0, Dst: 1, Bits: 5000})
	send(t, m, Frame{Kind: trace.KindReading, Src: 0, Dst: 1, Bits: 5000})
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
	g, m, stats := newTestMedium(t, Params{CommRadius: 1.2})
	received := 0
	if err := m.AddNode(new(Node), 0, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(new(Node), 1, geom.Pt(2, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(new(Node), 2, geom.Pt(1, 0), recvFunc(func(f Frame) { received++ })); err != nil {
		t.Fatal(err)
	}
	send(t, m, Frame{Kind: trace.KindReading, Src: 0, Dst: 2, Bits: 5000})
	send(t, m, Frame{Kind: trace.KindReading, Src: 1, Dst: 2, Bits: 5000})
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
	g, m, _ := newTestMedium(t, Params{CommRadius: 1.2, DisableCollisions: true})
	received := 0
	if err := m.AddNode(new(Node), 0, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(new(Node), 1, geom.Pt(2, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(new(Node), 2, geom.Pt(1, 0), recvFunc(func(f Frame) { received++ })); err != nil {
		t.Fatal(err)
	}
	send(t, m, Frame{Kind: trace.KindReading, Src: 0, Dst: 2, Bits: 5000})
	send(t, m, Frame{Kind: trace.KindReading, Src: 1, Dst: 2, Bits: 5000})
	settle(t, g)
	if received != 2 {
		t.Errorf("received %d frames, want 2 with collisions disabled", received)
	}
}

func TestNonOverlappingFramesDoNotCollide(t *testing.T) {
	g, m, _ := newTestMedium(t, Params{CommRadius: 1.2})
	received := 0
	if err := m.AddNode(new(Node), 0, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(new(Node), 1, geom.Pt(2, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(new(Node), 2, geom.Pt(1, 0), recvFunc(func(f Frame) { received++ })); err != nil {
		t.Fatal(err)
	}
	send(t, m, Frame{Kind: trace.KindReading, Src: 0, Dst: 2, Bits: 5000})
	g.Shard(0).AfterOwned(150*time.Millisecond, simtime.OwnerNone, func() {
		send(t, m, Frame{Kind: trace.KindReading, Src: 1, Dst: 2, Bits: 5000})
	})
	settle(t, g)
	if received != 2 {
		t.Errorf("received %d frames, want 2 (no overlap)", received)
	}
}

func TestRandomLoss(t *testing.T) {
	g, m, stats := newTestMedium(t, Params{CommRadius: 5, LossProb: 0.5})
	received := 0
	if err := m.AddNode(new(Node), 0, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(new(Node), 1, geom.Pt(1, 0), recvFunc(func(f Frame) { received++ })); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		i := i
		g.Shard(0).AtOwned(time.Duration(i)*time.Second, simtime.OwnerNone, func() {
			send(t, m, Frame{Kind: trace.KindReading, Src: 0, Dst: 1})
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
	if err := m.AddNode(new(Node), 0, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(new(Node), 1, geom.Pt(10, 10), nil); err != nil {
		t.Fatal(err)
	}
	send(t, m, Frame{Kind: trace.KindHeartbeat, Src: 0, Dst: Broadcast})
	settle(t, g)
	if got := stats.Kind(trace.KindHeartbeat).Undelivered; got != 1 {
		t.Errorf("Undelivered = %d, want 1", got)
	}
}

func TestNeighborsAndRangeQueries(t *testing.T) {
	_, m, _ := newTestMedium(t, Params{CommRadius: 1.5})
	for i := 0; i < 5; i++ {
		if err := m.AddNode(new(Node), NodeID(i), geom.Pt(float64(i), 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	nb := neighborIDs(t, m, 2)
	want := []NodeID{1, 3}
	if len(nb) != len(want) {
		t.Fatalf("Neighbors(2) = %v, want %v", nb, want)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v, want %v", nb, want)
		}
	}
	if got := neighborIDs(t, m, 0); !sameIDs(got, []NodeID{1}) {
		t.Errorf("Neighbors(0) = %v, want [1]", got)
	}
	if near := nearIDs(m, geom.Pt(0.4, 0), 1); !sameIDs(near, []NodeID{0, 1}) {
		t.Errorf("nodesWithin = %v, want [0 1]", near)
	}
	// Cached path returns the same answer.
	nb2 := m.Neighbors(node(t, m, 2))
	if len(nb2) != 2 {
		t.Errorf("cached Neighbors(2) = %v", nb2)
	}
}

func TestAirtime(t *testing.T) {
	if got := Airtime(int(BitRate)); got != time.Second {
		t.Errorf("Airtime(%v) = %v, want 1s", BitRate, got)
	}
	if got := Airtime(0); got != Airtime(DefaultFrameBits) {
		t.Errorf("Airtime(0) should use the default frame size")
	}
}

func TestLinkUtilizationAccounting(t *testing.T) {
	g, m, stats := newTestMedium(t, Params{CommRadius: 5})
	if err := m.AddNode(new(Node), 0, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(new(Node), 1, geom.Pt(1, 0), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		i := i
		g.Shard(0).AtOwned(time.Duration(i)*time.Second, simtime.OwnerNone, func() {
			send(t, m, Frame{Kind: trace.KindHeartbeat, Src: 0, Dst: Broadcast, Bits: 500})
		})
	}
	runTo(t, g, 10*time.Second)
	// 5000 bits over 10 s on a 50 kb/s link = 1%.
	got := stats.LinkUtilization(10*time.Second, BitRate)
	if got < 0.0099 || got > 0.0101 {
		t.Errorf("LinkUtilization = %v, want ~0.01", got)
	}
}

func TestNodeIDsSorted(t *testing.T) {
	_, m, _ := newTestMedium(t, Params{CommRadius: 1})
	for _, id := range []NodeID{5, 1, 3} {
		if err := m.AddNode(new(Node), id, geom.Pt(float64(id), 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := ids(m.order), []NodeID{1, 3, 5}; !sameIDs(got, want) {
		t.Fatalf("registration order = %v, want %v", got, want)
	}
}

// TestLookupMatchesLinearScan registers ids, the extremes 0 and 2^32-1
// among them, in random orders and checks that Lookup finds exactly the
// node a linear scan over the registrations finds, for registered ids,
// ids between them and ids outside [0, 2^32). Duplicate and out-of-range
// registrations are rejected and leave Lookup unchanged.
func TestLookupMatchesLinearScan(t *testing.T) {
	ids := []NodeID{0, 1, 2, 9, 10, 500, 1 << 16, math.MaxUint32 - 1, math.MaxUint32}
	probes := append([]NodeID{-1, 3, 8, 11, 499, 501, math.MaxUint32 - 2, math.MaxUint32 + 1}, ids...)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		_, m, _ := newTestMedium(t, Params{CommRadius: 1})
		var added []*Node
		scan := func(id NodeID) *Node {
			for _, n := range added {
				if n.ID() == id {
					return n
				}
			}
			return nil
		}
		check := func() {
			t.Helper()
			for _, id := range probes {
				got, ok := m.Lookup(id)
				if want := scan(id); got != want || ok != (want != nil) {
					t.Fatalf("trial %d, %d registered: Lookup(%d) = %p, %v, want %p", trial, len(added), id, got, ok, want)
				}
			}
		}
		for _, i := range rng.Perm(len(ids)) {
			n := new(Node)
			if err := m.AddNode(n, ids[i], geom.Pt(float64(i), 0), nil); err != nil {
				t.Fatal(err)
			}
			added = append(added, n)
			check()
		}
		for _, id := range []NodeID{ids[rng.Intn(len(ids))], -1, math.MaxUint32 + 1} {
			if err := m.AddNode(new(Node), id, geom.Pt(0, 0), nil); err == nil {
				t.Fatalf("trial %d: AddNode(%d) accepted", trial, id)
			}
			check()
		}
	}
}

// TestOverheardFrameDefersSend checks that carrier sense hears a frame
// addressed to someone else: node 3 overhears node 1's unicast to node
// 2, so its own send, 10 ms into that frame, waits for the channel.
func TestOverheardFrameDefersSend(t *testing.T) {
	g, m, _ := newTestMedium(t, Params{CommRadius: 1.2})
	var arrived time.Duration
	if err := m.AddNode(new(Node), 1, geom.Pt(0, 0), recvFunc(func(f Frame) {
		if f.Src == 3 {
			arrived = g.Now()
		}
	})); err != nil {
		t.Fatal(err)
	}
	for _, n := range []struct {
		id NodeID
		x  float64
	}{{2, 1}, {3, 0.5}} {
		if err := m.AddNode(new(Node), n.id, geom.Pt(n.x, 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	const packet = 100 * time.Millisecond // a 5000-bit frame at 50 kb/s
	send(t, m, Frame{Kind: trace.KindReading, Src: 1, Dst: 2, Bits: 5000})
	runTo(t, g, 10*time.Millisecond)
	send(t, m, Frame{Kind: trace.KindReading, Src: 3, Dst: 1, Bits: 5000})
	settle(t, g)
	// Node 3 waits out node 1's frame and one backoff slot at most, then
	// takes one packet time on the air.
	if arrived < 2*packet || arrived > 2*packet+csmaSlot {
		t.Fatalf("node 3's frame arrived at %v, want in [%v, %v]: it did not defer", arrived, 2*packet, 2*packet+csmaSlot)
	}
}

// TestUnicastTakesOneReceptionRecord checks that a unicast acquires a
// reception record for its target only: node 4's eight neighbours all
// hold the frame's occupancy, and only node 1, its target, holds a
// record; the free list is empty, so no other record was made.
func TestUnicastTakesOneReceptionRecord(t *testing.T) {
	g, m, _ := newTestMedium(t, Params{CommRadius: 1.5})
	for i := 0; i < 9; i++ {
		if err := m.AddNode(new(Node), NodeID(i), geom.Pt(float64(i%3), float64(i/3)), nil); err != nil {
			t.Fatal(err)
		}
	}
	const center, target = 4, 1
	if n := len(m.Neighbors(node(t, m, center))); n != 8 {
		t.Fatalf("node %d has %d neighbours, want 8", center, n)
	}
	send(t, m, Frame{Kind: trace.KindReading, Src: center, Dst: target})
	settle(t, g)
	for _, n := range m.Neighbors(node(t, m, center)) {
		if len(n.rx) != 1 {
			t.Fatalf("node %d holds %d occupancies, want 1", n.id, len(n.rx))
		}
		if hasRecord := n.rx[0].r != nil; hasRecord != (n.id == target) {
			t.Errorf("node %d holds a reception record: %v, want %v", n.id, hasRecord, n.id == target)
		}
	}
	if m.ctxs[0].rxFree != nil {
		t.Error("the free list holds a reception record: the send made more than one")
	}
}

// TestOccupancyPrunedWithoutCollisions checks that a receiver that never
// sends still sheds the occupancies of frames long off the air when
// collisions and carrier sense are off, and that their target records go
// back to the pool: a thousand unicasts a second apart leave one entry,
// and the medium made no more than two records for them.
func TestOccupancyPrunedWithoutCollisions(t *testing.T) {
	g, m, stats := newTestMedium(t, Params{CommRadius: 2, DisableCollisions: true, DisableCSMA: true})
	for i := 0; i < 2; i++ {
		if err := m.AddNode(new(Node), NodeID(i), geom.Pt(float64(i), 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	const sends = 1000
	for i := 0; i < sends; i++ {
		send(t, m, Frame{Kind: trace.KindReading, Src: 0, Dst: 1})
		runTo(t, g, g.Now()+time.Second)
	}
	if got := stats.Kind(trace.KindReading).Received; got != sends {
		t.Fatalf("receiver got %d frames, want %d", got, sends)
	}
	rcv := node(t, m, 1)
	if len(rcv.rx) > 1 {
		t.Fatalf("silent receiver holds %d occupancies, want at most 1", len(rcv.rx))
	}
	records := len(rcv.rx)
	for rx := m.ctxs[0].rxFree; rx != nil; rx = rx.next {
		records++
	}
	if records > 2 {
		t.Fatalf("%d unicasts made %d reception records, want at most 2", sends, records)
	}
}
