package group

import (
	"testing"
	"time"
	"unsafe"

	"envirotrack/internal/geom"
	"envirotrack/internal/mote"
	"envirotrack/internal/obs"
	"envirotrack/internal/phenomena"
	"envirotrack/internal/radio"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// testNet wires motes with group managers on a loss-free medium.
type testNet struct {
	group  *simtime.ShardGroup
	sched  *simtime.Scheduler
	medium *radio.Medium
	env    *mote.Env
	stats  *trace.Stats
	ledger *trace.Ledger
	motes  map[radio.NodeID]*mote.Mote
	mgrs   map[radio.NodeID]*Manager
}

func newTestNet(t *testing.T, commRadius float64) *testNet {
	t.Helper()
	group := simtime.NewShardGroup(1)
	sched := group.Shard(0)
	var stats trace.Stats
	rt := radio.ShardRuntime{Sched: sched, Seed: 11, Stats: &stats}
	medium := radio.New(radio.Params{CommRadius: commRadius}, nil, rt)
	env := mote.NewEnv(rt, medium, phenomena.NewField(), mote.Config{}, mote.NewHotState())
	env.Ledger = &trace.Ledger{}
	return &testNet{
		group:  group,
		sched:  sched,
		medium: medium,
		env:    env,
		stats:  &stats,
		ledger: env.Ledger,
		motes:  make(map[radio.NodeID]*mote.Mote),
		mgrs:   make(map[radio.NodeID]*Manager),
	}
}

// hooks is a Runtime built from optional funcs; a nil one does nothing.
type hooks struct {
	payload    func() any
	report     func(from radio.NodeID, payload any)
	activate   func(label Label, state []byte)
	deactivate func(label Label)
	deleted    func(label Label)
}

func (h hooks) ReportPayload() any {
	if h.payload == nil {
		return nil
	}
	return h.payload()
}

func (h hooks) OnReport(from radio.NodeID, payload any) {
	if h.report != nil {
		h.report(from, payload)
	}
}

func (h hooks) OnActivate(label Label, state []byte) {
	if h.activate != nil {
		h.activate(label, state)
	}
}

func (h hooks) OnDeactivate(label Label) {
	if h.deactivate != nil {
		h.deactivate(label)
	}
}

func (h hooks) OnLabelDeleted(label Label) {
	if h.deleted != nil {
		h.deleted(label)
	}
}

func (n *testNet) add(t *testing.T, id radio.NodeID, pos geom.Point, cfg Config, rt hooks) *Manager {
	t.Helper()
	m, err := mote.New(id, pos, nil, n.env)
	if err != nil {
		t.Fatal(err)
	}
	mask, _ := n.env.Hot.CtxMask("tracker")
	mgr := NewManager(m, &Type{Name: "tracker", Config: cfg.WithDefaults(), Mask: mask}, rt)
	m.SetReceiver(managerRx{mgr})
	n.motes[id] = m
	n.mgrs[id] = mgr
	return mgr
}

// managerRx is a test mote's receiver: it hands every frame to the
// mote's manager.
type managerRx struct{ g *Manager }

func (r managerRx) Receive(f radio.Frame) { r.g.HandleFrame(f) }

// senseAt schedules a SetSensing call at virtual time at.
func (n *testNet) senseAt(id radio.NodeID, at time.Duration, sensing bool) {
	n.sched.AtOwned(at, simtime.OwnerNone, func() { n.mgrs[id].SetSensing(sensing) })
}

func (n *testNet) runUntil(t *testing.T, d time.Duration) {
	t.Helper()
	if err := n.group.Run(d, 0, nil); err != nil {
		t.Fatal(err)
	}
}

var fastCfg = Config{
	HeartbeatPeriod: 100 * time.Millisecond,
	CreationBackoff: 10 * time.Millisecond,
}

func TestSingleNodeCreatesLabelAndLeads(t *testing.T) {
	n := newTestNet(t, 2)
	var gotLabel Label
	n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{
		activate: func(l Label, _ []byte) { gotLabel = l },
	})
	n.senseAt(1, 0, true)
	n.runUntil(t, time.Second)

	mgr := n.mgrs[1]
	if mgr.Role() != RoleLeader {
		t.Fatalf("role = %v, want leader", mgr.Role())
	}
	if mgr.Label() == "" || mgr.Label() != gotLabel {
		t.Errorf("label = %q, callback got %q", mgr.Label(), gotLabel)
	}
	if mgr.LeaderID() != 1 {
		t.Errorf("LeaderID = %v, want self", mgr.LeaderID())
	}
	if got := n.ledger.Summarize("tracker"); got.Created != 1 {
		t.Errorf("ledger created = %d, want 1", got.Created)
	}
	if hb := n.stats.Kind(trace.KindHeartbeat); hb.Sent < 5 {
		t.Errorf("heartbeats sent = %d, want several", hb.Sent)
	}
}

func TestSecondSensorJoinsExistingLabel(t *testing.T) {
	n := newTestNet(t, 2)
	n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{})
	n.add(t, 2, geom.Pt(1, 0), fastCfg, hooks{})
	n.senseAt(1, 0, true)
	n.senseAt(2, 500*time.Millisecond, true)
	n.runUntil(t, 2*time.Second)

	if n.mgrs[1].Role() != RoleLeader {
		t.Fatalf("node1 role = %v, want leader", n.mgrs[1].Role())
	}
	if n.mgrs[2].Role() != RoleMember {
		t.Fatalf("node2 role = %v, want member", n.mgrs[2].Role())
	}
	if n.mgrs[1].Label() != n.mgrs[2].Label() {
		t.Errorf("labels differ: %q vs %q", n.mgrs[1].Label(), n.mgrs[2].Label())
	}
	if n.ledger.DistinctLabels("tracker") != 1 {
		t.Errorf("distinct labels = %d, want 1 (coherence)", n.ledger.DistinctLabels("tracker"))
	}
	if n.mgrs[2].LeaderID() != 1 {
		t.Errorf("member's leader = %v, want 1", n.mgrs[2].LeaderID())
	}
}

func TestSimultaneousSensingConvergesToOneLabel(t *testing.T) {
	n := newTestNet(t, 3)
	for i := radio.NodeID(1); i <= 4; i++ {
		n.add(t, i, geom.Pt(float64(i)*0.5, 0), fastCfg, hooks{})
		n.senseAt(i, 0, true)
	}
	n.runUntil(t, 3*time.Second)

	leaders := 0
	labels := make(map[Label]bool)
	for _, mgr := range n.mgrs {
		if mgr.Role() == RoleLeader {
			leaders++
		}
		if mgr.Label() != "" {
			labels[mgr.Label()] = true
		}
	}
	if leaders != 1 {
		t.Errorf("leaders = %d, want exactly 1", leaders)
	}
	if len(labels) != 1 {
		t.Errorf("distinct live labels = %d, want 1", len(labels))
	}
	if v := n.ledger.Summarize("tracker").CoherenceViolations(); v != 0 {
		t.Errorf("coherence violations = %d, want 0", v)
	}
}

func TestMemberReportsReachLeaderAndIncreaseWeight(t *testing.T) {
	n := newTestNet(t, 2)
	var reports []radio.NodeID
	n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{
		report: func(from radio.NodeID, payload any) {
			reports = append(reports, from)
			if payload != "data-2" {
				t.Errorf("payload = %v, want data-2", payload)
			}
		},
	})
	n.add(t, 2, geom.Pt(1, 0), fastCfg, hooks{
		payload: func() any { return "data-2" },
	})
	n.senseAt(1, 0, true)
	n.senseAt(2, 300*time.Millisecond, true)
	n.runUntil(t, 2*time.Second)

	if len(reports) == 0 {
		t.Fatal("leader received no reports")
	}
	if n.mgrs[1].Weight() == 0 {
		t.Error("leader weight did not increase with reports")
	}
}

func TestLeaderFailureTriggersTakeoverSameLabel(t *testing.T) {
	n := newTestNet(t, 2)
	n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{})
	n.add(t, 2, geom.Pt(1, 0), fastCfg, hooks{})
	n.senseAt(1, 0, true)
	n.senseAt(2, 200*time.Millisecond, true)
	n.runUntil(t, time.Second)
	label := n.mgrs[1].Label()

	n.sched.AtOwned(time.Second, simtime.OwnerNone, func() { n.motes[1].Fail() })
	n.runUntil(t, 3*time.Second)

	if n.mgrs[2].Role() != RoleLeader {
		t.Fatalf("node2 role = %v, want leader after takeover", n.mgrs[2].Role())
	}
	if n.mgrs[2].Label() != label {
		t.Errorf("takeover changed label: %q -> %q", label, n.mgrs[2].Label())
	}
	sum := n.ledger.Summarize("tracker")
	if sum.Takeovers != 1 {
		t.Errorf("takeovers = %d, want 1", sum.Takeovers)
	}
	if sum.Created != 1 {
		t.Errorf("created = %d, want 1 (no spurious label)", sum.Created)
	}
}

func TestTakeoverHappensAfterRoughlyTwoHeartbeats(t *testing.T) {
	n := newTestNet(t, 2)
	n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{})
	var leadAt time.Duration
	n.add(t, 2, geom.Pt(1, 0), fastCfg, hooks{
		activate: func(Label, []byte) { leadAt = n.sched.Now() },
	})
	n.senseAt(1, 0, true)
	n.senseAt(2, 200*time.Millisecond, true)
	n.sched.AtOwned(time.Second, simtime.OwnerNone, func() { n.motes[1].Fail() })
	n.runUntil(t, 3*time.Second)

	if leadAt == 0 {
		t.Fatal("no takeover happened")
	}
	// Receive timer is 2.1x the 100 ms heartbeat (plus <=10% jitter),
	// armed at the last heartbeat before the failure at t=1s.
	min := time.Second + 110*time.Millisecond
	max := time.Second + 400*time.Millisecond
	if leadAt < min || leadAt > max {
		t.Errorf("takeover at %v, want within [%v, %v]", leadAt, min, max)
	}
}

func TestRelinquishHandsLeadershipToReporter(t *testing.T) {
	n := newTestNet(t, 2)
	n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{})
	n.add(t, 2, geom.Pt(1, 0), fastCfg, hooks{})
	n.senseAt(1, 0, true)
	n.senseAt(2, 200*time.Millisecond, true)
	n.runUntil(t, time.Second)
	label := n.mgrs[1].Label()

	// Leader stops sensing (target moved on) while the member still senses.
	n.senseAt(1, time.Second, false)
	n.runUntil(t, 2*time.Second)

	if n.mgrs[2].Role() != RoleLeader {
		t.Fatalf("node2 role = %v, want leader after relinquish", n.mgrs[2].Role())
	}
	if n.mgrs[2].Label() != label {
		t.Errorf("relinquish changed label: %q -> %q", label, n.mgrs[2].Label())
	}
	sum := n.ledger.Summarize("tracker")
	if sum.Relinquish != 1 {
		t.Errorf("relinquishes = %d, want 1", sum.Relinquish)
	}
	if sum.Takeovers != 0 {
		t.Errorf("takeovers = %d, want 0 (explicit handoff should win)", sum.Takeovers)
	}
}

func TestRelinquishDisabledFallsBackToTakeover(t *testing.T) {
	cfg := fastCfg
	cfg.DisableRelinquish = true
	n := newTestNet(t, 2)
	n.add(t, 1, geom.Pt(0, 0), cfg, hooks{})
	n.add(t, 2, geom.Pt(1, 0), cfg, hooks{})
	n.senseAt(1, 0, true)
	n.senseAt(2, 200*time.Millisecond, true)
	n.runUntil(t, time.Second)

	n.senseAt(1, time.Second, false)
	n.runUntil(t, 3*time.Second)

	if n.mgrs[2].Role() != RoleLeader {
		t.Fatalf("node2 role = %v, want leader via takeover", n.mgrs[2].Role())
	}
	sum := n.ledger.Summarize("tracker")
	if sum.Relinquish != 0 || sum.Takeovers != 1 {
		t.Errorf("relinquish/takeover = %d/%d, want 0/1", sum.Relinquish, sum.Takeovers)
	}
}

func TestWeightSuppressionDeletesSpuriousLabel(t *testing.T) {
	// Two isolated groups form; then a bridge node lets them hear each
	// other. The lighter label must be deleted. The bridge is in range of
	// A's member 2, not of its leader 1.
	checkWeightSuppression(t, geom.Pt(0, 0), geom.Pt(1, 0), fastCfg)
}

func TestWeightSuppressionReachesPastTheBridge(t *testing.T) {
	// The bridge hears A's leader 1 itself. Whichever label B's node 3
	// leads by then, only A's heartbeat, relayed one hop past the group
	// by the bridge, reaches it: with h = 0 node 3 takes over the label
	// the bridge deleted and leads it on.
	cfg := fastCfg
	cfg.HopsPast = 1
	checkWeightSuppression(t, geom.Pt(1, 0), geom.Pt(0, 0), cfg)
}

// checkWeightSuppression runs the weight-suppression scenario: group A
// (leader 1 and reporter 2 at the given points) and group B (node 3 at
// x=4) form apart, then bridge 4 at x=2.5, in range of 3 and of the A mote
// at x=1, starts sensing. At 5 s only A's label may be live or led.
func checkWeightSuppression(t *testing.T, leader, reporter geom.Point, cfg Config) {
	t.Helper()
	n := newTestNet(t, 1.5)
	n.add(t, 1, leader, cfg, hooks{})
	n.add(t, 2, reporter, cfg, hooks{payload: func() any { return "x" }})
	n.add(t, 3, geom.Pt(4, 0), cfg, hooks{})

	// Group A (nodes 1,2) accumulates weight via reports; group B (node 3)
	// stays weight 0.
	n.senseAt(1, 0, true)
	n.senseAt(2, 200*time.Millisecond, true)
	n.senseAt(3, 0, true)
	n.runUntil(t, 2*time.Second)

	if n.mgrs[1].Weight() == 0 {
		t.Fatal("group A accumulated no weight")
	}
	labelA := n.mgrs[1].Label()
	labelB := n.mgrs[3].Label()
	if labelA == labelB {
		t.Fatal("expected two distinct labels before bridging")
	}

	// Bridge: node 4 in range of both 3 and the A group, sensing, so it
	// floods heartbeats across.
	n.add(t, 4, geom.Pt(2.5, 0), cfg, hooks{})
	n.senseAt(4, 2*time.Second, true)
	n.runUntil(t, 5*time.Second)

	if n.mgrs[3].Role() == RoleLeader && n.mgrs[3].Label() == labelB {
		t.Errorf("lighter label %q still led by node 3", labelB)
	}
	sum := n.ledger.Summarize("tracker")
	if sum.Deleted == 0 {
		t.Error("no label deletion recorded")
	}
	live := n.ledger.LiveLabels("tracker")
	if len(live) != 1 || live[0] != string(labelA) {
		t.Errorf("live labels = %v, want [%s]", live, labelA)
	}
	for id, g := range n.mgrs {
		if g.Role() == RoleLeader && g.Label() != labelA {
			t.Errorf("node %d leads %q at 5 s, want only %q led", id, g.Label(), labelA)
		}
	}
	if t.Failed() {
		for _, ev := range n.ledger.Events {
			t.Logf("%v mote %d %v %s", ev.At, ev.Mote, ev.Type, ev.Label)
		}
	}
}

func TestLeaderYieldsToSameLabelHigherPriority(t *testing.T) {
	if protocolMutated {
		t.Skip("protocol mutated (-tags chaosmut): yield rule is off")
	}
	n := newTestNet(t, 2)
	mgr := n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{})
	// Node 2 is a raw mote used to inject a crafted heartbeat.
	m2, err := mote.New(2, geom.Pt(1, 0), nil, n.env)
	if err != nil {
		t.Fatal(err)
	}
	n.senseAt(1, 0, true)
	n.runUntil(t, 500*time.Millisecond)
	label := mgr.Label()

	// A same-label heartbeat with a higher weight arrives: node 1 yields.
	n.sched.AtOwned(500*time.Millisecond, simtime.OwnerNone, func() {
		m2.Broadcast(trace.KindHeartbeat, 0, Heartbeat{
			CtxType: "tracker", Label: label, Leader: 2, Weight: 50, Seq: 1,
		})
	})
	// Check shortly after the yield but before the receive timer fires
	// (2.1 x 100 ms after the yield): the impostor never heartbeats again,
	// so node 1 is entitled to take leadership back later.
	n.runUntil(t, 650*time.Millisecond)
	if mgr.Role() != RoleMember {
		t.Fatalf("role = %v, want member after yield", mgr.Role())
	}
	if n.ledger.Summarize("tracker").Yields != 1 {
		t.Error("yield not recorded")
	}

	// After the silent impostor times out, node 1 recovers leadership of
	// the same label via takeover.
	n.runUntil(t, 2*time.Second)
	if mgr.Role() != RoleLeader || mgr.Label() != label {
		t.Errorf("after impostor timeout: role=%v label=%q, want leader of %q",
			mgr.Role(), mgr.Label(), label)
	}
}

func TestLeaderKeepsLeadingAgainstLowerPrioritySameLabel(t *testing.T) {
	n := newTestNet(t, 2)
	mgr := n.add(t, 5, geom.Pt(0, 0), fastCfg, hooks{})
	m2, err := mote.New(2, geom.Pt(1, 0), nil, n.env)
	if err != nil {
		t.Fatal(err)
	}
	n.senseAt(5, 0, true)
	n.runUntil(t, 500*time.Millisecond)
	label := mgr.Label()
	// Give the leader some weight so the intruder is lower priority.
	n.sched.AtOwned(500*time.Millisecond, simtime.OwnerNone, func() {
		m2.Send(trace.KindReading, 5, 0, Report{CtxType: "tracker", Label: label, Reporter: 2, Payload: "x"})
	})
	n.runUntil(t, 600*time.Millisecond)
	n.sched.AtOwned(600*time.Millisecond, simtime.OwnerNone, func() {
		m2.Broadcast(trace.KindHeartbeat, 0, Heartbeat{
			CtxType: "tracker", Label: label, Leader: 2, Weight: 0, Seq: 1,
		})
	})
	n.runUntil(t, time.Second)
	if mgr.Role() != RoleLeader {
		t.Errorf("role = %v, want still leader", mgr.Role())
	}
}

func TestWaitTimerJoinPreventsNewLabel(t *testing.T) {
	n := newTestNet(t, 2)
	n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{})
	n.add(t, 2, geom.Pt(1, 0), fastCfg, hooks{})
	n.senseAt(1, 0, true)
	// Node 2 hears heartbeats while not sensing; it senses within the wait
	// window (4.2 x 100 ms) of the last heartbeat and must join.
	n.senseAt(2, 300*time.Millisecond, true)
	// Node 1 stops sensing just before, so no fresh heartbeat arrives after
	// node 2 starts sensing; only the wait-timer memory links them.
	n.runUntil(t, 2*time.Second)

	if n.ledger.DistinctLabels("tracker") != 1 {
		t.Errorf("distinct labels = %d, want 1", n.ledger.DistinctLabels("tracker"))
	}
	if n.mgrs[2].Label() != n.mgrs[1].Label() {
		t.Error("node 2 did not join node 1's label")
	}
}

func TestNewLabelAfterWaitTimerExpiry(t *testing.T) {
	n := newTestNet(t, 2)
	n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{})
	n.add(t, 2, geom.Pt(1, 0), fastCfg, hooks{})
	n.senseAt(1, 0, true)
	n.senseAt(1, 200*time.Millisecond, false) // label dies with its only sensor
	// Node 2 senses long after the 420 ms wait timer expired.
	n.senseAt(2, 5*time.Second, true)
	n.runUntil(t, 7*time.Second)

	if n.ledger.DistinctLabels("tracker") != 2 {
		t.Errorf("distinct labels = %d, want 2 (memory expired)", n.ledger.DistinctLabels("tracker"))
	}
	if n.mgrs[2].Role() != RoleLeader {
		t.Errorf("node 2 role = %v, want leader of fresh label", n.mgrs[2].Role())
	}
}

func TestHeartbeatPropagationPastPerimeter(t *testing.T) {
	// Line topology: leader(0) - relay(1) - distant(2); the relay does not
	// sense. With h=1 the distant node hears the label and joins when it
	// senses; with h=0 it spawns its own label.
	run := func(h int) int {
		cfg := fastCfg
		cfg.HopsPast = h
		n := newTestNet(t, 1.2)
		n.add(t, 0, geom.Pt(0, 0), cfg, hooks{})
		n.add(t, 1, geom.Pt(1, 0), cfg, hooks{}) // relay, never senses
		n.add(t, 2, geom.Pt(2, 0), cfg, hooks{})
		n.senseAt(0, 0, true)
		n.senseAt(2, 300*time.Millisecond, true)
		n.runUntil(t, 2*time.Second)
		return n.ledger.DistinctLabels("tracker")
	}
	if got := run(1); got != 1 {
		t.Errorf("h=1: distinct labels = %d, want 1", got)
	}
	if got := run(0); got != 2 {
		t.Errorf("h=0: distinct labels = %d, want 2", got)
	}
}

func TestGroupFloodingReachesMultiHopMembers(t *testing.T) {
	// All three nodes sense; node 2 is out of direct range of node 0 but
	// node 1 (a member) relays heartbeats using the h-hop budget, keeping
	// the multi-hop group under a single label.
	cfg := fastCfg
	cfg.HopsPast = 1
	n := newTestNet(t, 1.2)
	n.add(t, 0, geom.Pt(0, 0), cfg, hooks{})
	n.add(t, 1, geom.Pt(1, 0), cfg, hooks{})
	n.add(t, 2, geom.Pt(2, 0), cfg, hooks{})
	n.senseAt(0, 0, true)
	n.senseAt(1, 300*time.Millisecond, true)
	n.senseAt(2, 600*time.Millisecond, true)
	n.runUntil(t, 2*time.Second)

	if n.ledger.DistinctLabels("tracker") != 1 {
		t.Errorf("distinct labels = %d, want 1 (group flood)", n.ledger.DistinctLabels("tracker"))
	}
	if n.mgrs[2].Label() != n.mgrs[0].Label() {
		t.Error("multi-hop member not in the leader's group")
	}
}

// heardSink keeps the heartbeat_heard events of a run.
type heardSink struct{ evs []obs.Event }

func (s *heardSink) Emit(ev obs.Event) {
	if ev.Type == obs.EvHeartbeatHeard {
		s.evs = append(s.evs, ev)
	}
}

// TestHandleFrameEmitsHeartbeatHeard: the manager publishes one
// heartbeat_heard for every heartbeat or relinquish of its context type it
// handles, a duplicate copy included, and none for another type's frame
// or for a report.
func TestHandleFrameEmitsHeartbeatHeard(t *testing.T) {
	n := newTestNet(t, 2)
	var sink heardSink
	n.env.Bus = obs.NewBus(&sink)
	g := n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{})
	hb := Heartbeat{CtxType: "tracker", Label: "tracker/2.1", Leader: 2, Seq: 3}
	other := Heartbeat{CtxType: "fire", Label: "fire/6.1", Leader: 6, Seq: 1}
	for _, f := range []radio.Frame{
		{Kind: trace.KindHeartbeat, Src: 2, Payload: hb},
		{Kind: trace.KindHeartbeat, Src: 5, Payload: hb}, // a relayed duplicate
		{Kind: trace.KindRelinquish, Src: 2, Payload: Relinquish{CtxType: "tracker", Label: "tracker/2.1", OldLeader: 2, NewLeader: 4}},
		{Kind: trace.KindHeartbeat, Src: 6, Payload: other},
		{Kind: trace.KindRelinquish, Src: 6, Payload: Relinquish{CtxType: "fire", Label: "fire/6.1", OldLeader: 6, NewLeader: 1}},
		{Kind: trace.KindReading, Src: 7, Payload: Report{CtxType: "tracker", Label: "tracker/2.1", Reporter: 7}},
	} {
		g.HandleFrame(f)
	}
	want := []struct {
		kind trace.Kind
		seq  uint64
	}{{trace.KindHeartbeat, 3}, {trace.KindHeartbeat, 3}, {trace.KindRelinquish, 0}}
	if len(sink.evs) != len(want) {
		t.Fatalf("heartbeat_heard events = %d (%+v), want %d", len(sink.evs), sink.evs, len(want))
	}
	for i, ev := range sink.evs {
		if ev.Kind != want[i].kind || ev.Seq != want[i].seq || ev.Mote != 1 || ev.Peer != 2 ||
			ev.Label != "tracker/2.1" || ev.CtxType != "tracker" {
			t.Errorf("event %d = %+v, want %s seq %d heard by mote 1 from origin 2 of tracker/2.1",
				i, ev, want[i].kind, want[i].seq)
		}
	}
}

func TestPersistentStateSurvivesTakeover(t *testing.T) {
	n := newTestNet(t, 2)
	var inherited []byte
	n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{})
	n.add(t, 2, geom.Pt(1, 0), fastCfg, hooks{
		activate: func(_ Label, state []byte) { inherited = state },
	})
	n.senseAt(1, 0, true)
	n.senseAt(2, 200*time.Millisecond, true)
	n.sched.AtOwned(500*time.Millisecond, simtime.OwnerNone, func() { n.mgrs[1].SetState([]byte("committed")) })
	n.sched.AtOwned(time.Second, simtime.OwnerNone, func() { n.motes[1].Fail() })
	n.runUntil(t, 3*time.Second)

	if string(inherited) != "committed" {
		t.Errorf("inherited state = %q, want %q", inherited, "committed")
	}
	if string(n.mgrs[2].State()) != "committed" {
		t.Errorf("State() = %q, want committed", n.mgrs[2].State())
	}
}

func TestSetStateIgnoredForNonLeader(t *testing.T) {
	n := newTestNet(t, 2)
	mgr := n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{})
	mgr.SetState([]byte("nope"))
	if mgr.State() != nil {
		t.Error("non-leader SetState should be ignored")
	}
}

func TestOnLoseLeadershipFires(t *testing.T) {
	n := newTestNet(t, 2)
	lost := 0
	n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{
		deactivate: func(Label) { lost++ },
	})
	n.add(t, 2, geom.Pt(1, 0), fastCfg, hooks{})
	n.senseAt(1, 0, true)
	n.senseAt(2, 200*time.Millisecond, true)
	n.senseAt(1, time.Second, false)
	n.runUntil(t, 2*time.Second)
	if lost != 1 {
		t.Errorf("OnDeactivate fired %d times, want 1", lost)
	}
}

func TestMemberLeavesWhenSensingStops(t *testing.T) {
	n := newTestNet(t, 2)
	n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{})
	n.add(t, 2, geom.Pt(1, 0), fastCfg, hooks{})
	n.senseAt(1, 0, true)
	n.senseAt(2, 200*time.Millisecond, true)
	n.runUntil(t, time.Second)
	if n.mgrs[2].Role() != RoleMember {
		t.Fatal("setup: node 2 should be a member")
	}
	n.senseAt(2, time.Second, false)
	n.runUntil(t, 2*time.Second)
	if n.mgrs[2].Role() != RoleNone {
		t.Errorf("role = %v, want none after sensing stops", n.mgrs[2].Role())
	}
	// The leader continues undisturbed.
	if n.mgrs[1].Role() != RoleLeader {
		t.Errorf("leader role = %v, want leader", n.mgrs[1].Role())
	}
}

func TestRoleString(t *testing.T) {
	tests := []struct {
		r    Role
		want string
	}{
		{RoleNone, "none"},
		{RoleMember, "member"},
		{RoleLeader, "leader"},
		{Role(0), "invalid"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestLabelType(t *testing.T) {
	tests := []struct {
		label Label
		want  string
	}{
		{"car/3.1", "car"},
		{"fire/12.7", "fire"},
		{"plain", "plain"},
	}
	for _, tt := range tests {
		if got := tt.label.Type(); got != tt.want {
			t.Errorf("Label(%q).Type() = %q, want %q", tt.label, got, tt.want)
		}
	}
}

// TestManagerSize pins the per-mote manager to its allocation size class:
// one Manager per mote and context type, holding its runtime as one
// interface value, reading the ledger from the mote's env and its type's
// name and timing from the type's shared record.
func TestManagerSize(t *testing.T) {
	if size := unsafe.Sizeof(Manager{}); size > 352 {
		t.Errorf("unsafe.Sizeof(Manager{}) = %d B, want <= 352 (its size class)", size)
	}
}

func TestManagerStopCancelsTimers(t *testing.T) {
	n := newTestNet(t, 2)
	mgr := n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{})
	n.senseAt(1, 0, true)
	n.runUntil(t, 500*time.Millisecond)
	mgr.Stop()
	sent := n.stats.Kind(trace.KindHeartbeat).Sent
	n.runUntil(t, 2*time.Second)
	if got := n.stats.Kind(trace.KindHeartbeat).Sent; got != sent {
		t.Errorf("heartbeats continued after Stop: %d -> %d", sent, got)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.HeartbeatPeriod != DefaultHeartbeatPeriod {
		t.Errorf("HeartbeatPeriod = %v", c.HeartbeatPeriod)
	}
	if c.ReportPeriod != c.HeartbeatPeriod {
		t.Errorf("ReportPeriod = %v, want heartbeat period", c.ReportPeriod)
	}
	if c.CreationBackoff != c.HeartbeatPeriod/2 {
		t.Errorf("CreationBackoff = %v", c.CreationBackoff)
	}
	if got := c.waitTimeout(); got != time.Duration(4.2*float64(c.HeartbeatPeriod)) {
		t.Errorf("waitTimeout = %v", got)
	}
	lo := c.receiveTimeout(0)
	hi := c.receiveTimeout(1)
	if lo != time.Duration(2.1*float64(c.HeartbeatPeriod)) {
		t.Errorf("receiveTimeout(0) = %v", lo)
	}
	if hi <= lo {
		t.Error("jitter should increase the receive timeout")
	}
}

func TestManagerAccessors(t *testing.T) {
	n := newTestNet(t, 2)
	mgr := n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{})
	if mgr.Name != "tracker" {
		t.Errorf("Name = %q", mgr.Name)
	}
	if mgr.Sensing() {
		t.Error("Sensing true before any SetSensing")
	}
	n.senseAt(1, 0, true)
	n.runUntil(t, time.Second)
	if !mgr.Sensing() {
		t.Error("Sensing false after SetSensing(true)")
	}
	if mgr.State() == nil {
		mgr.SetState([]byte("s"))
		if string(mgr.State()) != "s" {
			t.Errorf("leader State = %q", mgr.State())
		}
	}
}

func TestMemberLeaderIDAndState(t *testing.T) {
	n := newTestNet(t, 2)
	n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{})
	member := n.add(t, 2, geom.Pt(1, 0), fastCfg, hooks{})
	n.senseAt(1, 0, true)
	n.sched.AtOwned(100*time.Millisecond, simtime.OwnerNone, func() { n.mgrs[1].SetState([]byte("committed")) })
	n.senseAt(2, 300*time.Millisecond, true)
	n.runUntil(t, 2*time.Second)
	if member.Role() != RoleMember {
		t.Fatalf("role = %v", member.Role())
	}
	if member.LeaderID() != 1 {
		t.Errorf("member LeaderID = %v, want 1", member.LeaderID())
	}
	if string(member.State()) != "committed" {
		t.Errorf("member State = %q, want heartbeat-carried state", member.State())
	}
}

// TestFreshManagerState exercises a manager that has heard no heartbeat and
// received no report: a fresh manager has no successor to pick, and a
// leader that stops sensing before any member reported steps down without
// a relinquish.
func TestFreshManagerState(t *testing.T) {
	n := newTestNet(t, 2)
	mgr := n.add(t, 1, geom.Pt(0, 0), fastCfg, hooks{})
	if id, ok := mgr.pickSuccessor(); ok {
		t.Errorf("fresh manager picked successor %v", id)
	}
	mgr.Stop() // no timer was ever armed

	n.senseAt(1, 0, true)
	n.senseAt(1, 500*time.Millisecond, false)
	n.runUntil(t, time.Second)
	if _, ok := mgr.pickSuccessor(); ok {
		t.Error("successor picked with no member reports")
	}
	if got := n.stats.Kind(trace.KindRelinquish).Sent; got != 0 {
		t.Errorf("relinquishes sent = %d, want 0 with no reporter", got)
	}
	if mgr.Role() != RoleNone {
		t.Errorf("role = %v after step-down, want none", mgr.Role())
	}
}
