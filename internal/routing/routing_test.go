package routing

import (
	"math/rand"
	"testing"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/mote"
	"envirotrack/internal/obs"
	"envirotrack/internal/phenomena"
	"envirotrack/internal/radio"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

type net struct {
	group   *simtime.ShardGroup
	sched   *simtime.Scheduler
	medium  *radio.Medium
	env     *mote.Env
	routers map[radio.NodeID]*Router
	nodes   map[radio.NodeID]*node
	events  []obs.Event
}

// Emit records the events the routers emit; they emit only for
// correlated messages.
func (n *net) Emit(ev obs.Event) { n.events = append(n.events, ev) }

// count returns the number of events of type typ recorded so far.
func (n *net) count(typ obs.EventType) int {
	c := 0
	for _, ev := range n.events {
		if ev.Type == typ {
			c++
		}
	}
	return c
}

// node is a test mote's receiver and its router's target: frames go to
// the router, and delivered messages to deliver, when it is set.
type node struct {
	r       *Router
	deliver func(Message)
}

func (nd *node) Receive(f radio.Frame) { nd.r.HandleFrame(f) }

func (nd *node) Deliver(msg Message) {
	if nd.deliver != nil {
		nd.deliver(msg)
	}
}

func newNet(t *testing.T, commRadius float64) *net {
	t.Helper()
	group := simtime.NewShardGroup(1)
	sched := group.Shard(0)
	n := &net{
		group:   group,
		sched:   sched,
		routers: make(map[radio.NodeID]*Router),
		nodes:   make(map[radio.NodeID]*node),
	}
	rt := radio.ShardRuntime{Sched: sched, Seed: 3, Stats: &trace.Stats{}, Bus: obs.NewBus(n)}
	n.medium = radio.New(radio.Params{CommRadius: commRadius}, nil, rt)
	n.env = mote.NewEnv(rt, n.medium, phenomena.NewField(), mote.Config{}, mote.NewHotState())
	return n
}

func (n *net) add(t *testing.T, id radio.NodeID, pos geom.Point) *Router {
	t.Helper()
	m, err := mote.New(id, pos, nil, n.env)
	if err != nil {
		t.Fatal(err)
	}
	nd := &node{}
	nd.r = NewRouter(m, nd)
	m.SetReceiver(nd)
	n.routers[id], n.nodes[id] = nd.r, nd
	return nd.r
}

// settle runs the one-shard group for a simulated minute, long enough
// for every message a test sends to be delivered or dropped (the tests
// arm no periodic timers).
func (n *net) settle(t *testing.T) {
	t.Helper()
	if err := n.group.Run(n.sched.Now()+time.Minute, 0, nil); err != nil {
		t.Fatal(err)
	}
}

// grid builds a cols x rows unit grid with ids cols*y + x.
func (n *net) grid(t *testing.T, cols, rows int) {
	t.Helper()
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			n.add(t, radio.NodeID(y*cols+x), geom.Pt(float64(x), float64(y)))
		}
	}
}

func TestMultiHopUnicastToSpecificNode(t *testing.T) {
	n := newNet(t, 1.2)
	n.grid(t, 6, 1) // a line: 0..5
	var got []any
	n.nodes[5].deliver = func(m Message) { got = append(got, m.Payload) }
	n.routers[0].Send(Message{Dest: geom.Pt(5, 0), DestNode: 5, Payload: "hello"})
	n.settle(t)
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("delivered = %v, want [hello]", got)
	}
}

func TestAnycastDeliversAtNearestNode(t *testing.T) {
	n := newNet(t, 1.5)
	n.grid(t, 5, 5)
	delivered := make(map[radio.NodeID]int)
	for id, nd := range n.nodes {
		nd.deliver = func(Message) { delivered[id]++ }
	}
	// Coordinate (3.2, 2.1): nearest node is (3,2) = id 2*5+3 = 13.
	n.routers[0].Send(Message{Dest: geom.Pt(3.2, 2.1), DestNode: AnyNode, Payload: 1})
	n.settle(t)
	if len(delivered) != 1 || delivered[13] != 1 {
		t.Fatalf("delivered = %v, want only node 13", delivered)
	}
}

func TestSelfDelivery(t *testing.T) {
	n := newNet(t, 1.2)
	n.grid(t, 3, 1)
	got := 0
	n.nodes[1].deliver = func(Message) { got++ }
	n.routers[1].Send(Message{Dest: geom.Pt(1, 0), DestNode: 1, Payload: "self"})
	n.settle(t)
	if got != 1 {
		t.Errorf("self delivery count = %d, want 1", got)
	}
}

func TestAnycastSelfWhenAlreadyNearest(t *testing.T) {
	n := newNet(t, 1.2)
	n.grid(t, 3, 1)
	got := 0
	n.nodes[2].deliver = func(Message) { got++ }
	n.routers[2].Send(Message{Dest: geom.Pt(2.1, 0), DestNode: AnyNode})
	n.settle(t)
	if got != 1 {
		t.Errorf("anycast self delivery = %d, want 1", got)
	}
}

func TestDirectNeighborShortcut(t *testing.T) {
	// Destination node is a neighbor but geographically *farther* from the
	// message coordinate than the sender: direct send must still work.
	n := newNet(t, 2)
	n.add(t, 0, geom.Pt(0, 0))
	n.add(t, 1, geom.Pt(1.5, 0))
	got := 0
	n.nodes[1].deliver = func(Message) { got++ }
	// Dest coordinate equals sender's position; DestNode is node 1.
	n.routers[0].Send(Message{Dest: geom.Pt(0, 0), DestNode: 1})
	n.settle(t)
	if got != 1 {
		t.Errorf("neighbor shortcut delivery = %d, want 1", got)
	}
}

func TestDeadEndDropsTowardSpecificNode(t *testing.T) {
	// Two disconnected islands: message toward a node on the other island
	// is dropped, not delivered.
	n := newNet(t, 1.2)
	n.add(t, 0, geom.Pt(0, 0))
	n.add(t, 1, geom.Pt(1, 0))
	n.add(t, 9, geom.Pt(10, 0))
	got := 0
	n.nodes[9].deliver = func(Message) { got++ }
	n.routers[0].Send(Message{Dest: geom.Pt(10, 0), DestNode: 9, Corr: radio.Corr{Origin: 0, Seq: 1}})
	n.settle(t)
	if got != 0 {
		t.Error("message crossed a partition")
	}
	if n.count(obs.EvRouteDropped) == 0 {
		t.Error("no drop recorded at the dead end")
	}
}

func TestTTLExhaustionDrops(t *testing.T) {
	n := newNet(t, 1.2)
	n.grid(t, 10, 1)
	got := 0
	n.nodes[9].deliver = func(Message) { got++ }
	n.routers[0].Send(Message{Dest: geom.Pt(9, 0), DestNode: 9, TTL: 3})
	n.settle(t)
	if got != 0 {
		t.Error("message exceeded its TTL yet was delivered")
	}
}

func TestGreedyPathLengthIsReasonable(t *testing.T) {
	n := newNet(t, 1.5)
	n.grid(t, 8, 8)
	done := false
	n.nodes[63].deliver = func(Message) { done = true }
	n.routers[0].Send(Message{Dest: geom.Pt(7, 7), DestNode: 63, Corr: radio.Corr{Origin: 0, Seq: 1}})
	n.settle(t)
	if !done {
		t.Fatal("not delivered")
	}
	// Every hop is one transmission: the origin's, which report_sent
	// marks, and one per route_forward relay.
	hops := n.count(obs.EvReportSent) + n.count(obs.EvRouteForward)
	// Straight-line distance ~9.9, comm radius 1.5 (diagonal steps are in
	// range): expect on the order of 7 hops, certainly <= 14.
	if hops > 14 {
		t.Errorf("path used %d forwards, want <= 14", hops)
	}
}

func TestUnrelatedFramesIgnored(t *testing.T) {
	n := newNet(t, 2)
	n.add(t, 0, geom.Pt(0, 0))
	got := 0
	n.nodes[0].deliver = func(Message) { got++ }
	// A non-envelope frame is not the router's: it leaves it untouched.
	if n.routers[0].HandleFrame(radio.Frame{Kind: trace.KindCross, Src: 1, Dst: 0, Payload: "raw"}) {
		t.Error("router consumed a non-envelope frame")
	}
	n.settle(t)
	if got != 0 {
		t.Error("router delivered a non-envelope frame")
	}
}

// TestRouteDelayPositive times routed deliveries along a line: every
// route takes simulated time, and a longer route takes longer.
func TestRouteDelayPositive(t *testing.T) {
	n := newNet(t, 1.2)
	n.grid(t, 21, 1) // a line: 0..20
	routeDelay := func(dst radio.NodeID) time.Duration {
		var at time.Duration
		n.nodes[dst].deliver = func(Message) { at = n.sched.Now() }
		sent := n.sched.Now()
		n.routers[0].Send(Message{Dest: geom.Pt(float64(dst), 0), DestNode: dst, Bits: 100})
		n.settle(t)
		if at == 0 {
			t.Fatalf("message to %d not delivered", dst)
		}
		return at - sent
	}
	short, long := routeDelay(1), routeDelay(20)
	if short <= 0 {
		t.Errorf("one-hop route delay = %v, want > 0", short)
	}
	if long <= short {
		t.Errorf("route delay not increasing with distance: %v vs %v", short, long)
	}
}

func TestDeliveryIsAsynchronousForSelfSend(t *testing.T) {
	n := newNet(t, 1.2)
	n.grid(t, 2, 1)
	delivered := false
	n.nodes[0].deliver = func(Message) { delivered = true }
	n.routers[0].Send(Message{Dest: geom.Pt(0, 0), DestNode: 0})
	if delivered {
		t.Error("self delivery happened synchronously inside Send")
	}
	n.settle(t)
	if !delivered {
		t.Error("self delivery never happened")
	}
}

// Property-like sweep: from every node in a connected grid, an anycast to a
// random coordinate terminates at the node nearest that coordinate.
func TestAnycastAlwaysTerminatesAtNearest(t *testing.T) {
	n := newNet(t, 1.5)
	n.grid(t, 6, 6)
	deliveredAt := radio.NodeID(-1)
	for id, nd := range n.nodes {
		nd.deliver = func(Message) { deliveredAt = id }
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		deliveredAt = -1
		src := radio.NodeID(rng.Intn(36))
		dest := geom.Pt(rng.Float64()*5, rng.Float64()*5)

		// Find expected nearest node.
		wantNearest := radio.NodeID(-1)
		bestD := 1e18
		for _, id := range n.medium.NodeIDs() {
			pos, _ := n.medium.Position(id)
			if d := pos.Dist2(dest); d < bestD {
				bestD = d
				wantNearest = id
			}
		}

		n.routers[src].Send(Message{Dest: dest, DestNode: AnyNode})
		if err := n.group.Run(n.sched.Now()+time.Minute, 0, nil); err != nil {
			t.Fatal(err)
		}
		if deliveredAt != wantNearest {
			t.Fatalf("trial %d: src=%d dest=%v delivered at %d, want %d",
				trial, src, dest, deliveredAt, wantNearest)
		}
	}
}
