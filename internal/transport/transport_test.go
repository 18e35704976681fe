package transport

import (
	"math/rand"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"envirotrack/internal/directory"
	"envirotrack/internal/geom"
	"envirotrack/internal/group"
	"envirotrack/internal/mote"
	"envirotrack/internal/obs"
	"envirotrack/internal/phenomena"
	"envirotrack/internal/radio"
	"envirotrack/internal/routing"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// fillTable puts TableCap labels "0".."15" into a fresh table, oldest
// first.
func fillTable() *LeaderTable {
	tbl := &LeaderTable{}
	for i := 0; i < TableCap; i++ {
		tbl.Put(tableLabel(i), LeaderInfo{Leader: radio.NodeID(i)})
	}
	return tbl
}

func tableLabel(i int) group.Label { return group.Label(strconv.Itoa(i)) }

func TestLeaderTableLRUEviction(t *testing.T) {
	tbl := fillTable()
	tbl.Put("new", LeaderInfo{Leader: 99}) // evicts "0"
	if _, ok := tbl.Get(tableLabel(0)); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := tbl.Get(tableLabel(1)); !ok {
		t.Error("entry 1 missing")
	}
	if tbl.Len() != TableCap {
		t.Errorf("Len = %d, want %d", tbl.Len(), TableCap)
	}
}

func TestLeaderTableGetRefreshesRecency(t *testing.T) {
	tbl := fillTable()
	tbl.Get(tableLabel(0))                 // 0 becomes most recent
	tbl.Put("new", LeaderInfo{Leader: 99}) // evicts "1"
	if _, ok := tbl.Get(tableLabel(0)); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := tbl.Get(tableLabel(1)); ok {
		t.Error("least recently used entry kept")
	}
}

func TestLeaderTableNewerWins(t *testing.T) {
	tbl := &LeaderTable{}
	tbl.Put("a", LeaderInfo{Leader: 1, UpdatedAt: 10 * time.Second})
	tbl.Put("a", LeaderInfo{Leader: 2, UpdatedAt: 5 * time.Second}) // stale
	info, _ := tbl.Get("a")
	if info.Leader != 1 {
		t.Errorf("stale update overwrote newer entry: leader = %d", info.Leader)
	}
	tbl.Put("a", LeaderInfo{Leader: 3, UpdatedAt: 20 * time.Second})
	info, _ = tbl.Get("a")
	if info.Leader != 3 {
		t.Errorf("fresh update ignored: leader = %d", info.Leader)
	}
}

func TestLeaderTableLabelsOrder(t *testing.T) {
	tbl := &LeaderTable{}
	tbl.Put("a", LeaderInfo{})
	tbl.Put("b", LeaderInfo{})
	tbl.Get("a")
	labels := tbl.Labels()
	if len(labels) != 2 || labels[0] != "a" || labels[1] != "b" {
		t.Errorf("Labels = %v, want [a b]", labels)
	}
}

func TestLeaderTableDefaultCap(t *testing.T) {
	tbl := &LeaderTable{}
	for i := 0; i < TableCap+5; i++ {
		tbl.Put(tableLabel(i), LeaderInfo{})
	}
	if tbl.Len() != TableCap {
		t.Errorf("Len = %d, want %d", tbl.Len(), TableCap)
	}
}

// --- endpoint integration harness ---

type tnet struct {
	group     *simtime.ShardGroup
	sched     *simtime.Scheduler
	medium    *radio.Medium
	endpoints map[radio.NodeID]*Endpoint
	motes     map[radio.NodeID]*mote.Mote
	events    []obs.Event // everything the motes emitted
}

// Emit records every obs event of every mote.
func (n *tnet) Emit(ev obs.Event) { n.events = append(n.events, ev) }

// count returns how many ty events mote id emitted with the given cause
// ("" matches any).
func (n *tnet) count(ty obs.EventType, id radio.NodeID, cause string) int {
	c := 0
	for _, ev := range n.events {
		if ev.Type == ty && ev.Mote == int(id) && (cause == "" || ev.Cause == cause) {
			c++
		}
	}
	return c
}

// node is a test mote's receiver and its router's target. It dispatches
// as the middleware stack does: frames to the router, then heartbeats to
// the endpoint; routed messages to the directory, then the endpoint.
type node struct {
	r   *routing.Router
	dir *directory.Service
	ep  *Endpoint
}

func (nd *node) Receive(f radio.Frame) {
	if !nd.r.HandleFrame(f) {
		nd.ep.SnoopHeartbeat(f)
	}
}

func (nd *node) Deliver(msg routing.Message) {
	if !nd.dir.Handle(msg) {
		nd.ep.HandleRouted(msg)
	}
}

func newTnet(t *testing.T, cols, rows int) *tnet {
	t.Helper()
	group := simtime.NewShardGroup(1)
	sched := group.Shard(0)
	n := &tnet{
		group:     group,
		sched:     sched,
		endpoints: make(map[radio.NodeID]*Endpoint),
		motes:     make(map[radio.NodeID]*mote.Mote),
	}
	rt := radio.ShardRuntime{Sched: sched, Seed: 9, Stats: &trace.Stats{}, Bus: obs.NewBus(n)}
	n.medium = radio.New(radio.Params{CommRadius: 1.5, DisableCollisions: true}, nil, rt)
	env := mote.NewEnv(rt, n.medium, phenomena.NewField(), mote.Config{}, mote.NewHotState())
	env.Ledger = &trace.Ledger{}
	env.Bounds = geom.Grid{Cols: cols, Rows: rows}.Bounds()
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			id := radio.NodeID(y*cols + x)
			m, err := mote.New(id, geom.Pt(float64(x), float64(y)), nil, env)
			if err != nil {
				t.Fatal(err)
			}
			nd := &node{}
			nd.r = routing.NewRouter(m, nd)
			nd.dir = directory.NewService(m, nd.r)
			nd.ep = NewEndpoint(m, nd.r, nd.dir)
			m.SetReceiver(nd)
			n.endpoints[id] = nd.ep
			n.motes[id] = m
		}
	}
	return n
}

func (n *tnet) run(t *testing.T, until time.Duration) {
	t.Helper()
	if err := n.group.Run(until, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSendViaLearnedLeader(t *testing.T) {
	n := newTnet(t, 5, 5)
	const label = group.Label("car/24.1")
	dst := n.endpoints[24]
	dst.SetLeading(label, true)
	var got []any
	dst.Handle(label, 7, func(d Datagram) { got = append(got, d.Payload) })

	src := n.endpoints[0]
	pos := n.endpoints[24].m.Pos()
	src.Table().Put(label, LeaderInfo{Leader: 24, Loc: pos})
	src.Send(Datagram{SrcLabel: "base/0.1", DstLabel: label, DstPort: 7, Payload: "invoke"})
	n.run(t, time.Second)

	if len(got) != 1 || got[0] != "invoke" {
		t.Fatalf("delivered = %v, want [invoke]", got)
	}
	if c := n.count(obs.EvTransportDelivered, 24, ""); c != 1 {
		t.Errorf("transport_delivered events = %d, want 1", c)
	}
}

func TestFirstContactViaDirectory(t *testing.T) {
	n := newTnet(t, 5, 5)
	const label = group.Label("car/24.1")
	dst := n.endpoints[24]
	dst.SetLeading(label, true)
	delivered := 0
	dst.Handle(label, 1, func(Datagram) { delivered++ })

	// The label registers itself in the directory (as a leader would).
	pos := n.endpoints[24].m.Pos()
	// Use node 24's existing directory registration path: register from any node.
	n.endpoints[24].dir.Register("car", label, pos, 24)
	n.run(t, time.Second)

	// Node 0 has never heard of the label: first contact goes through the
	// directory, then the datagram flows.
	n.endpoints[0].Send(Datagram{DstLabel: label, DstPort: 1, Payload: "x"})
	n.run(t, 3*time.Second)

	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (via directory lookup)", delivered)
	}
	if _, ok := n.endpoints[0].Table().Get(label); !ok {
		t.Error("sender did not cache the leader after directory lookup")
	}
}

func TestNoRouteWhenUnknownAndUnregistered(t *testing.T) {
	n := newTnet(t, 4, 4)
	src := n.endpoints[0]
	src.Send(Datagram{DstLabel: "ghost/9.9", DstPort: 1, Payload: "x"})
	n.run(t, 2*time.Second)
	if c := n.count(obs.EvTransportNoRoute, 0, "label_unknown"); c != 1 {
		t.Errorf("label_unknown drops = %d, want 1", c)
	}
}

func TestForwardingAlongPastLeaderChain(t *testing.T) {
	n := newTnet(t, 6, 1)
	const label = group.Label("car/1.1")

	// Leadership has moved 1 -> 3 -> 5. Node 1 knows node 3 led later;
	// node 3 knows node 5 is current. The sender still believes node 1.
	pos := func(id radio.NodeID) geom.Point {
		return n.endpoints[id].m.Pos()
	}
	n.endpoints[1].Table().Put(label, LeaderInfo{Leader: 3, Loc: pos(3), UpdatedAt: 1})
	n.endpoints[3].Table().Put(label, LeaderInfo{Leader: 5, Loc: pos(5), UpdatedAt: 2})
	n.endpoints[5].SetLeading(label, true)
	delivered := 0
	n.endpoints[5].Handle(label, 2, func(Datagram) { delivered++ })

	src := n.endpoints[0]
	src.Table().Put(label, LeaderInfo{Leader: 1, Loc: pos(1), UpdatedAt: 0})
	src.Send(Datagram{DstLabel: label, DstPort: 2, Payload: "chase"})
	n.run(t, 2*time.Second)

	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (via forwarding chain)", delivered)
	}
	if c1, c3 := n.count(obs.EvTransportHop, 1, ""), n.count(obs.EvTransportHop, 3, ""); c1 != 1 || c3 != 1 {
		t.Errorf("chain forwards = %d/%d, want 1/1", c1, c3)
	}
}

func TestReceiverLearnsSourceLeaderFromHeader(t *testing.T) {
	n := newTnet(t, 5, 1)
	const srcLabel = group.Label("base/0.1")
	const dstLabel = group.Label("car/4.1")
	dst := n.endpoints[4]
	dst.SetLeading(dstLabel, true)
	dst.Handle(dstLabel, 1, func(Datagram) {})

	src := n.endpoints[0]
	pos := n.endpoints[4].m.Pos()
	src.SetLeading(srcLabel, true)
	src.Table().Put(dstLabel, LeaderInfo{Leader: 4, Loc: pos})
	src.Send(Datagram{SrcLabel: srcLabel, DstLabel: dstLabel, DstPort: 1, Payload: "hi"})
	n.run(t, time.Second)

	info, ok := dst.Table().Get(srcLabel)
	if !ok {
		t.Fatal("receiver did not learn the source label's leader")
	}
	if info.Leader != 0 {
		t.Errorf("learned leader = %d, want 0", info.Leader)
	}

	// The receiver can now reply without any directory traffic.
	replied := 0
	src.Handle(srcLabel, 9, func(Datagram) { replied++ })
	dst.Send(Datagram{SrcLabel: dstLabel, DstLabel: srcLabel, DstPort: 9, Payload: "re"})
	n.run(t, 2*time.Second)
	if replied != 1 {
		t.Errorf("replies delivered = %d, want 1", replied)
	}
}

func TestHeartbeatSnoopUpdatesTable(t *testing.T) {
	n := newTnet(t, 3, 1)
	// Node 0 broadcasts a heartbeat as a group leader would.
	hb := group.Heartbeat{
		CtxType:   "car",
		Label:     "car/0.1",
		Leader:    0,
		LeaderLoc: geom.Pt(0, 0),
		Weight:    3,
		Seq:       1,
	}
	n.motes[0].Broadcast(trace.KindHeartbeat, 0, hb)
	n.run(t, time.Second)

	info, ok := n.endpoints[1].Table().Get("car/0.1")
	if !ok {
		t.Fatal("neighbor did not snoop the heartbeat")
	}
	if info.Leader != 0 || info.Loc != geom.Pt(0, 0) {
		t.Errorf("snooped info = %+v", info)
	}
	// Out-of-range node learned nothing.
	if _, ok := n.endpoints[2].Table().Get("car/0.1"); !ok {
		// node 2 at distance 2 with radius 1.5 is out of range of node 0
		// but may have heard nothing; that's the expectation:
		t.Log("node 2 (out of range) has no entry, as expected")
	} else {
		t.Error("out-of-range node learned from a heartbeat it cannot hear")
	}
}

func TestNoHandlerCounted(t *testing.T) {
	n := newTnet(t, 3, 1)
	const label = group.Label("car/2.1")
	dst := n.endpoints[2]
	dst.SetLeading(label, true) // leads, but no handler for port 5

	src := n.endpoints[0]
	pos := n.endpoints[2].m.Pos()
	src.Table().Put(label, LeaderInfo{Leader: 2, Loc: pos})
	src.Send(Datagram{DstLabel: label, DstPort: 5, Payload: "x"})
	n.run(t, time.Second)

	if c := n.count(obs.EvTransportNoRoute, 2, "no_handler"); c != 1 {
		t.Errorf("no_handler drops = %d, want 1", c)
	}
	if c := n.count(obs.EvTransportDelivered, 2, ""); c != 0 {
		t.Errorf("transport_delivered events = %d, want 0 without a handler", c)
	}
	// The drop carries the datagram's correlation key, so a span sink can
	// attribute it.
	for _, ev := range n.events {
		if ev.Type == obs.EvTransportNoRoute && (ev.Origin != 0 || ev.Seq == 0 || ev.Label != string(label)) {
			t.Errorf("no_handler drop = %+v, want origin 0, a sequence and label %s", ev, label)
		}
	}
}

// TestEndpointSize pins the per-mote endpoint at 64 bytes on 64-bit
// hosts: one is built for every mote of a field.
func TestEndpointSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Endpoint{}); got > 64 {
		t.Errorf("Endpoint is %d bytes, want at most 64", got)
	}
}

func TestChainLoopGuard(t *testing.T) {
	n := newTnet(t, 2, 1)
	const label = group.Label("car/9.9")
	// Nodes 0 and 1 each believe the other is the leader: a routing loop.
	p0 := n.endpoints[0].m.Pos()
	p1 := n.endpoints[1].m.Pos()
	n.endpoints[0].Table().Put(label, LeaderInfo{Leader: 1, Loc: p1})
	n.endpoints[1].Table().Put(label, LeaderInfo{Leader: 0, Loc: p0})

	n.endpoints[0].Send(Datagram{DstLabel: label, DstPort: 1, Payload: "loop"})
	n.run(t, 5*time.Second)

	total := n.count(obs.EvTransportHop, 0, "") + n.count(obs.EvTransportHop, 1, "")
	if total > MaxForwardChain {
		t.Errorf("chain forwards = %d, want <= %d (loop guard)", total, MaxForwardChain)
	}
	if n.count(obs.EvTransportNoRoute, 0, "chain_exhausted")+n.count(obs.EvTransportNoRoute, 1, "chain_exhausted") == 0 {
		t.Error("loop not terminated with a chain_exhausted drop")
	}
}

func TestSetLeadingToggle(t *testing.T) {
	n := newTnet(t, 2, 1)
	e := n.endpoints[0]
	e.SetLeading("x/1.1", true)
	if !e.Leading("x/1.1") {
		t.Error("Leading = false after SetLeading(true)")
	}
	e.SetLeading("x/1.1", false)
	if e.Leading("x/1.1") {
		t.Error("Leading = true after SetLeading(false)")
	}
}

func TestLeaderTableZeroValue(t *testing.T) {
	var tbl LeaderTable
	if _, ok := tbl.Get("a"); ok {
		t.Error("Get found a label in the zero table")
	}
	if tbl.Len() != 0 {
		t.Errorf("Len = %d, want 0", tbl.Len())
	}
	if labels := tbl.Labels(); len(labels) != 0 {
		t.Errorf("Labels = %v, want none", labels)
	}
	tbl.Put("a", LeaderInfo{Leader: 4})
	if info, ok := tbl.Get("a"); !ok || info.Leader != 4 {
		t.Errorf("Get after Put = %+v, %v; want leader 4", info, ok)
	}
}

// lruModel is the reference LRU the table is checked against: labels
// most recently used first, with their info alongside.
type lruModel struct {
	labels []group.Label
	infos  []LeaderInfo
}

func (m *lruModel) find(label group.Label) int {
	for i, l := range m.labels {
		if l == label {
			return i
		}
	}
	return -1
}

func (m *lruModel) touch(i int) {
	l, info := m.labels[i], m.infos[i]
	m.labels = append([]group.Label{l}, append(m.labels[:i:i], m.labels[i+1:]...)...)
	m.infos = append([]LeaderInfo{info}, append(m.infos[:i:i], m.infos[i+1:]...)...)
}

func (m *lruModel) get(label group.Label) (LeaderInfo, bool) {
	i := m.find(label)
	if i < 0 {
		return LeaderInfo{}, false
	}
	m.touch(i)
	return m.infos[0], true
}

func (m *lruModel) put(label group.Label, info LeaderInfo) {
	if i := m.find(label); i >= 0 {
		if info.UpdatedAt >= m.infos[i].UpdatedAt {
			m.infos[i] = info
		}
		m.touch(i)
		return
	}
	if len(m.labels) == TableCap {
		m.labels, m.infos = m.labels[:TableCap-1], m.infos[:TableCap-1]
	}
	m.labels = append([]group.Label{label}, m.labels...)
	m.infos = append([]LeaderInfo{info}, m.infos...)
}

// TestLeaderTableMatchesLRUModel drives the table and the reference LRU
// with the same random Put/Get sequences over more labels than the table
// holds, and compares every result and the whole table after each step.
func TestLeaderTableMatchesLRUModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tbl LeaderTable
		var model lruModel
		for step := 0; step < 2000; step++ {
			label := tableLabel(rng.Intn(TableCap + 8))
			if rng.Intn(3) == 0 {
				got, gotOK := tbl.Get(label)
				want, wantOK := model.get(label)
				if got != want || gotOK != wantOK {
					t.Fatalf("seed %d step %d: Get(%s) = %+v, %v; want %+v, %v", seed, step, label, got, gotOK, want, wantOK)
				}
			} else {
				info := LeaderInfo{
					Leader:    radio.NodeID(rng.Intn(100)),
					Loc:       geom.Pt(float64(step), 0),
					UpdatedAt: time.Duration(rng.Intn(50)) * time.Second,
				}
				tbl.Put(label, info)
				model.put(label, info)
			}
			if tbl.Len() != len(model.labels) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, tbl.Len(), len(model.labels))
			}
			labels := tbl.Labels()
			for i := range labels {
				if labels[i] != model.labels[i] || tbl.entries[i].info != model.infos[i] {
					t.Fatalf("seed %d step %d: entry %d = %s %+v, want %s %+v; labels %v, want %v",
						seed, step, i, labels[i], tbl.entries[i].info, model.labels[i], model.infos[i], labels, model.labels)
				}
			}
		}
	}
}

// TestFreshEndpointState exercises an endpoint whose label, port and
// leader state were never written.
func TestFreshEndpointState(t *testing.T) {
	n := newTnet(t, 3, 1)
	e := n.endpoints[0]
	if e.Leading("car/1.1") {
		t.Error("fresh endpoint leads a label")
	}
	e.Unhandle("car/1.1", 3)
	e.SetLeading("car/1.1", false)
	if e.Table().Len() != 0 {
		t.Errorf("fresh table holds %d labels", e.Table().Len())
	}

	// Without a directory, a send to an unknown label has no route.
	lone := newTnet(t, 1, 1)
	bare := NewEndpoint(lone.motes[0], lone.endpoints[0].router, nil)
	bare.Send(Datagram{DstLabel: "car/9.9", DstPort: 1, Payload: "x"})
	if c := lone.count(obs.EvTransportNoRoute, 0, "no_directory"); c != 1 {
		t.Errorf("no_directory drops = %d, want 1 without a directory", c)
	}

	// A datagram reaching a fresh endpoint that neither leads its label
	// nor knows the label's leader is dropped, and teaches the endpoint
	// the source's leader.
	pos := n.endpoints[2].m.Pos()
	n.endpoints[0].Table().Put("car/2.1", LeaderInfo{Leader: 2, Loc: pos})
	n.endpoints[0].Send(Datagram{SrcLabel: "base/0.1", DstLabel: "car/2.1", DstPort: 1, Payload: "x"})
	n.run(t, time.Second)
	dst := n.endpoints[2]
	if c, d := n.count(obs.EvTransportNoRoute, 2, "no_leader_known"), n.count(obs.EvTransportDelivered, 2, ""); c != 1 || d != 0 {
		t.Errorf("fresh receiver: %d no_leader_known drops, %d deliveries; want 1, 0", c, d)
	}
	if _, ok := dst.Table().Get("base/0.1"); !ok {
		t.Error("fresh receiver did not learn the source label's leader")
	}
}
