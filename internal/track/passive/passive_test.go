package passive

import (
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"

	"envirotrack/internal/geom"
	"envirotrack/internal/group"
	"envirotrack/internal/mote"
	"envirotrack/internal/obs"
	"envirotrack/internal/phenomena"
	"envirotrack/internal/radio"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// testCfg compresses the protocol timing: a deposit every 100 ms, traces
// fresh for 210 ms and stale after 420 ms.
var testCfg = group.Config{
	HeartbeatPeriod: 100 * time.Millisecond,
	CreationBackoff: 10 * time.Millisecond,
}

// testType returns a "tracker" type record on hot with testCfg timing.
func testType(hot *mote.HotState) *group.Type {
	mask, _ := hot.CtxMask("tracker")
	return &group.Type{Name: "tracker", Config: testCfg.WithDefaults(), Mask: mask}
}

// call is one recorded Runtime call.
type call struct {
	kind  string // "activate" | "deactivate" | "deleted" | "report"
	mote  radio.NodeID
	label group.Label
	state []byte
	from  radio.NodeID
	at    time.Duration
}

// testNet wires passive backends onto a loss-free medium of radius 2 and
// records their callbacks, obs events and label ledger.
type testNet struct {
	t      testing.TB
	g      *simtime.ShardGroup
	sched  *simtime.Scheduler
	medium *radio.Medium
	hot    *mote.HotState
	ledger *trace.Ledger
	motes  map[radio.NodeID]*mote.Mote
	be     map[radio.NodeID]*Backend
	calls  []call
	events []obs.Event
}

func newTestNet(t testing.TB) *testNet {
	t.Helper()
	g := simtime.NewShardGroup(1)
	sched := g.Shard(0)
	return &testNet{
		t:      t,
		g:      g,
		sched:  sched,
		medium: radio.New(radio.Params{CommRadius: 2}, nil, radio.ShardRuntime{Sched: sched, Seed: 5, Stats: &trace.Stats{}}),
		hot:    mote.NewHotState(),
		ledger: &trace.Ledger{},
		motes:  make(map[radio.NodeID]*mote.Mote),
		be:     make(map[radio.NodeID]*Backend),
	}
}

// Emit records every obs event of every mote.
func (n *testNet) Emit(ev obs.Event) { n.events = append(n.events, ev) }

func (n *testNet) add(id radio.NodeID, pos geom.Point) *Backend {
	n.t.Helper()
	// Each mote emits into the net.
	rt := radio.ShardRuntime{Sched: n.sched, Seed: 100, Stats: &trace.Stats{}, Bus: obs.NewBus(n)}
	env := mote.NewEnv(rt, n.medium, phenomena.NewField(), mote.Config{}, n.hot)
	env.Ledger = n.ledger
	m, err := mote.New(id, pos, nil, env)
	if err != nil {
		n.t.Fatal(err)
	}
	b := New(m, testType(n.hot), recorder{n, id})
	m.SetReceiver(backendRx{b})
	n.motes[id], n.be[id] = m, b
	return b
}

// backendRx is a test mote's receiver: it hands every frame to the
// mote's backend.
type backendRx struct{ b *Backend }

func (r backendRx) Receive(f radio.Frame) { r.b.HandleFrame(f) }

// recorder is mote id's Runtime: it records every call into the net.
type recorder struct {
	n  *testNet
	id radio.NodeID
}

func (r recorder) record(c call) {
	c.mote, c.at = r.id, r.n.sched.Now()
	r.n.calls = append(r.n.calls, c)
}

func (r recorder) ReportPayload() any { return nil }
func (r recorder) OnReport(from radio.NodeID, _ any) {
	r.record(call{kind: "report", from: from})
}
func (r recorder) OnActivate(l group.Label, state []byte) {
	r.record(call{kind: "activate", label: l, state: state})
}
func (r recorder) OnDeactivate(l group.Label)   { r.record(call{kind: "deactivate", label: l}) }
func (r recorder) OnLabelDeleted(l group.Label) { r.record(call{kind: "deleted", label: l}) }

// at runs fn at sim time d.
func (n *testNet) at(d time.Duration, fn func()) {
	n.sched.AtOwned(d, simtime.OwnerNone, fn)
}

func (n *testNet) run(d time.Duration) {
	n.t.Helper()
	if err := n.g.Run(d, 0, nil); err != nil {
		n.t.Fatal(err)
	}
}

// eventsOf returns mote id's events of type ty, in emission order.
func (n *testNet) eventsOf(ty obs.EventType, id radio.NodeID) []obs.Event {
	var out []obs.Event
	for _, ev := range n.events {
		if ev.Type == ty && ev.Mote == int(id) {
			out = append(out, ev)
		}
	}
	return out
}

// ledgerOf returns the ledger's events of type ty.
func (n *testNet) ledgerOf(ty trace.LabelEventType) []trace.LabelEvent {
	var out []trace.LabelEvent
	for _, ev := range n.ledger.Events {
		if ev.Type == ty {
			out = append(out, ev)
		}
	}
	return out
}

// callsOf returns mote id's callbacks of the given kind.
func (n *testNet) callsOf(kind string, id radio.NodeID) []call {
	var out []call
	for _, c := range n.calls {
		if c.kind == kind && c.mote == id {
			out = append(out, c)
		}
	}
	return out
}

// TestDepositCadence checks a lone sensing mote mints a label after the
// creation backoff, activates as its estimator, deposits its first trace
// at once and then one every jittered heartbeat period, and stops
// depositing and steps down when it stops sensing.
func TestDepositCadence(t *testing.T) {
	n := newTestNet(t)
	b := n.add(1, geom.Pt(0, 0))
	n.at(0, func() { b.SetSensing(true) })
	n.at(time.Second, func() {
		if !b.Participating() || b.Label() != "tracker/1.1" {
			t.Errorf("while sensing: Participating %v, Label %q", b.Participating(), b.Label())
		}
		b.SetSensing(false)
	})
	n.run(2 * time.Second)

	sends := n.eventsOf(obs.EvReportSent, 1)
	if len(sends) < 9 {
		t.Fatalf("%d deposits in one sensing second, want at least 9", len(sends))
	}
	if sends[0].At >= testCfg.CreationBackoff {
		t.Errorf("first deposit at %v, want within the %v creation backoff", sends[0].At, testCfg.CreationBackoff)
	}
	lo := time.Duration(float64(testCfg.HeartbeatPeriod) * (1 - group.JitterFrac/2))
	hi := time.Duration(float64(testCfg.HeartbeatPeriod) * (1 + group.JitterFrac/2))
	for i := 1; i < len(sends); i++ {
		if gap := sends[i].At - sends[i-1].At; gap < lo || gap > hi {
			t.Errorf("deposit %d came %v after the previous one, want in [%v, %v]", i, gap, lo, hi)
		}
		if sends[i].Seq <= sends[i-1].Seq {
			t.Errorf("deposit %d reuses correlation seq %d", i, sends[i].Seq)
		}
	}
	if last := sends[len(sends)-1].At; last > time.Second {
		t.Errorf("deposit at %v after sensing stopped at 1s", last)
	}

	if created := n.ledgerOf(trace.LabelCreated); len(created) != 1 || created[0].Label != "tracker/1.1" || created[0].Mote != 1 {
		t.Fatalf("LabelCreated = %+v, want one tracker/1.1 by mote 1", created)
	}
	if got := n.ledgerOf(trace.LabelTakeover); len(got) != 0 {
		t.Errorf("the minting activation recorded a takeover: %+v", got)
	}
	if act := n.callsOf("activate", 1); len(act) != 1 || act[0].state != nil {
		t.Errorf("activations = %+v, want one with no state", act)
	}
	if deact := n.callsOf("deactivate", 1); len(deact) != 1 || deact[0].at != time.Second {
		t.Errorf("deactivations = %+v, want one at 1s", deact)
	}
	if b.Participating() || b.Label() != "" {
		t.Errorf("after sensing stopped: Participating %v, Label %q", b.Participating(), b.Label())
	}
}

// TestGossipAdoptsLabelAndMergesTraces checks a mote that hears gossip
// before it senses adopts the label instead of minting one, that the two
// motes' trace fields merge, and that the active estimator receives the
// other mote's traces as reports.
func TestGossipAdoptsLabelAndMergesTraces(t *testing.T) {
	n := newTestNet(t)
	a := n.add(1, geom.Pt(0, 0))
	b := n.add(2, geom.Pt(1, 0))
	n.at(0, func() { a.SetSensing(true) })
	// Mote 1's first gossip goes out before it activates; by 200 ms its
	// active flag has reached mote 2, which therefore stays a depositor.
	n.at(200*time.Millisecond, func() {
		if b.label != "tracker/1.1" {
			t.Errorf("mote 2 heard no label before sensing: %q", b.label)
		}
		b.SetSensing(true)
	})
	n.run(500 * time.Millisecond)

	if created := n.ledgerOf(trace.LabelCreated); len(created) != 1 {
		t.Fatalf("LabelCreated = %+v, want only mote 1's", created)
	}
	if b.Label() != "tracker/1.1" || b.active {
		t.Fatalf("mote 2: label %q active %v, want tracker/1.1 as a depositor", b.Label(), b.active)
	}
	for _, be := range []*Backend{a, b} {
		if len(be.ts.traces) != 2 || be.ts.traces[0].Mote != 1 || be.ts.traces[1].Mote != 2 {
			t.Fatalf("mote %d trace field %+v, want one record each from motes 1 and 2", be.Mote.ID(), be.ts.traces)
		}
		if _, ok := be.ts.est.Estimate(n.sched.Now()); !ok {
			t.Errorf("mote %d has live traces but no estimate", be.Mote.ID())
		}
	}
	reports := n.callsOf("report", 1)
	if len(reports) == 0 {
		t.Fatal("the estimator received no report of mote 2's traces")
	}
	for _, r := range reports {
		if r.from != 2 {
			t.Fatalf("estimator report from mote %d, want 2", r.from)
		}
	}
	if len(n.callsOf("report", 2)) != 0 {
		t.Error("a depositor that is not the estimator received reports")
	}
	if len(n.eventsOf(obs.EvRouteDelivered, 2)) == 0 {
		t.Error("mote 2 closed no gossip span as delivered")
	}
}

// TestGossipSpanAndRecordMerge drives onGossip and integrate directly: a
// record only counts when its sequence is newer, and a gossip frame
// teaching nothing closes its span as dropped with cause stale_trace.
func TestGossipSpanAndRecordMerge(t *testing.T) {
	n := newTestNet(t)
	b := n.add(2, geom.Pt(0, 0))
	ts := b.traceRec()
	rec := Rec{Mote: 7, Pos: geom.Pt(1, 1), At: 0, Seq: 2}
	if !b.integrate(rec) {
		t.Fatal("a new mote's record was not integrated")
	}
	if b.integrate(Rec{Mote: 7, Seq: 1}) || b.integrate(rec) {
		t.Fatal("an older or repeated record was integrated")
	}
	if !b.integrate(Rec{Mote: 7, Pos: geom.Pt(2, 2), Seq: 3}) || ts.traces[0].Pos != geom.Pt(2, 2) {
		t.Fatalf("a newer record did not replace the old one: %+v", ts.traces)
	}

	g := Gossip{CtxType: "tracker", Label: "tracker/7.1", From: 7, Traces: []Rec{{Mote: 8, Seq: 1}}}
	b.onGossip(g, radio.Corr{Origin: 7, Seq: 1})
	b.onGossip(g, radio.Corr{Origin: 7, Seq: 1})
	delivered := n.eventsOf(obs.EvRouteDelivered, 2)
	dropped := n.eventsOf(obs.EvRouteDropped, 2)
	if len(delivered) != 1 || len(dropped) != 1 || dropped[0].Cause != "stale_trace" {
		t.Fatalf("span closes: delivered %+v dropped %+v, want one each, the drop stale_trace", delivered, dropped)
	}
	if b.label != "tracker/7.1" || b.Participating() {
		t.Fatalf("non-sensing mote: label %q Participating %v, want the label remembered but no participation", b.label, b.Participating())
	}
	if b.HandleFrame(radio.Frame{Payload: Gossip{CtxType: "other"}}) {
		t.Error("gossip of another context type was handled")
	}
}

// TestEvictStaleMatchesFilter drives integrate and evictStale with
// random records — some older than the field's oldest, some stale on
// arrival — evictions with the oldest record exactly on the horizon or
// one nanosecond past it, and clock jumps that empty the field. After
// every eviction it checks the field against a plain filter of the
// latest record per mote: evictStale's skipped scans must never keep a
// stale record. It also checks findRec against sort.Search on every
// field it builds, the empty one included, for every id from one below
// the smallest to one past the largest: first, last and absent ids.
func TestEvictStaleMatchesFilter(t *testing.T) {
	n := newTestNet(t)
	b := n.add(1, geom.Pt(0, 0))
	ts := b.traceRec()
	stale := staleness(b.Config)
	rng := rand.New(rand.NewSource(3))
	latest := map[radio.NodeID]Rec{}
	now, seq := time.Duration(0), uint64(0)
	empty := 0
	for step := 0; step < 5000; step++ {
		for k := rng.Intn(4); k > 0; k-- {
			seq++
			rec := Rec{Mote: radio.NodeID(rng.Intn(40)), At: now - time.Duration(rng.Int63n(int64(3*stale/2))), Seq: seq}
			b.integrate(rec)
			latest[rec.Mote] = rec
		}
		now += time.Duration(rng.Int63n(int64(stale / 4)))
		switch rng.Intn(100) {
		case 0:
			now += 2 * stale
		case 1, 2, 3, 4, 5, 6, 7, 8:
			// Put the oldest record on the horizon (kept) or one
			// nanosecond past it (dropped).
			if len(ts.traces) > 0 {
				oldest := ts.traces[0].At
				for _, r := range ts.traces {
					oldest = min(oldest, r.At)
				}
				now = max(now, oldest+stale+time.Duration(rng.Intn(2)))
			}
		}
		b.evictStale(now)
		var want []Rec
		for id := radio.NodeID(0); id < 40; id++ {
			if r, ok := latest[id]; ok && r.At >= now-stale {
				want = append(want, r)
			}
		}
		if len(ts.traces) != len(want) {
			t.Fatalf("step %d: field holds %d records, want %d", step, len(ts.traces), len(want))
		}
		for i := range want {
			if ts.traces[i] != want[i] {
				t.Fatalf("step %d: traces[%d] = %+v, want %+v", step, i, ts.traces[i], want[i])
			}
		}
		if len(ts.traces) == 0 {
			empty++
		}
		for id := radio.NodeID(-1); id <= 40; id++ {
			want := sort.Search(len(ts.traces), func(i int) bool { return ts.traces[i].Mote >= id })
			if got := findRec(ts.traces, id); got != want {
				t.Fatalf("step %d: findRec(%d) = %d, want %d in %+v", step, id, got, want, ts.traces)
			}
		}
	}
	if empty == 0 {
		t.Error("no step emptied the field")
	}
}

// TestLabelMergeDeletesMintedLabel checks two motes that minted labels
// independently converge on the smaller one: the loser steps down,
// deletes its own label, and joins the winner's; a larger label is
// ignored.
func TestLabelMergeDeletesMintedLabel(t *testing.T) {
	n := newTestNet(t)
	a := n.add(1, geom.Pt(0, 0))
	b := n.add(2, geom.Pt(10, 0)) // out of range: each mints
	n.at(0, func() { a.SetSensing(true); b.SetSensing(true) })
	n.at(300*time.Millisecond, func() {
		if !b.active || b.label != "tracker/2.1" {
			t.Fatalf("mote 2: label %q active %v, want its own tracker/2.1 as estimator", b.label, b.active)
		}
		b.onGossip(Gossip{CtxType: "tracker", Label: "tracker/1.1", From: 1}, radio.Corr{})
		b.onGossip(Gossip{CtxType: "tracker", Label: "tracker/3.1", From: 3}, radio.Corr{})
	})
	n.run(400 * time.Millisecond)

	if b.Label() != "tracker/1.1" {
		t.Fatalf("mote 2 label %q, want the smaller tracker/1.1", b.Label())
	}
	if del := n.ledgerOf(trace.LabelDeleted); len(del) != 1 || del[0].Label != "tracker/2.1" || del[0].Mote != 2 {
		t.Fatalf("LabelDeleted = %+v, want mote 2's tracker/2.1", del)
	}
	if del := n.callsOf("deleted", 2); len(del) != 1 || del[0].label != "tracker/2.1" {
		t.Errorf("OnLabelDeleted calls = %+v", del)
	}
	if len(n.callsOf("deactivate", 2)) != 1 || len(n.eventsOf(obs.EvLeaderStepDown, 2)) != 1 {
		t.Error("the losing estimator did not step down exactly once")
	}
	joined := n.eventsOf(obs.EvLabelJoined, 2)
	if len(joined) != 1 || joined[0].Label != "tracker/1.1" {
		t.Errorf("label_joined events %+v, want one for tracker/1.1", joined)
	}
}

// TestTakeoverAfterEstimatorStepsDown checks the estimator role moves: a
// depositor that stops hearing the estimator's active flag takes over the
// label with its gossiped state, and a lower-id active flag makes one of
// two concurrent estimators yield.
func TestTakeoverAfterEstimatorStepsDown(t *testing.T) {
	n := newTestNet(t)
	a := n.add(1, geom.Pt(0, 0))
	b := n.add(2, geom.Pt(1, 0))
	n.at(0, func() { a.SetSensing(true) })
	n.at(200*time.Millisecond, func() { b.SetSensing(true) })
	n.at(500*time.Millisecond, func() {
		a.SetState([]byte("s"))
		b.SetState([]byte("ignored")) // not the estimator
	})
	n.at(time.Second, func() {
		if !a.active || b.active {
			t.Fatalf("at 1s: active 1=%v 2=%v, want only mote 1", a.active, b.active)
		}
		a.SetSensing(false)
	})
	n.run(2 * time.Second)

	take := n.ledgerOf(trace.LabelTakeover)
	if len(take) != 1 || take[0].Mote != 2 || take[0].Label != "tracker/1.1" {
		t.Fatalf("LabelTakeover = %+v, want mote 2 taking tracker/1.1", take)
	}
	// The active flag mote 2 last heard, from mote 1's last deposit before
	// 1s, stays fresh for 210 ms; the takeover follows a deposit and a
	// backoff of under 10 ms.
	heard := b.ts.lastActiveAt
	if heard < time.Second-testCfg.HeartbeatPeriod-testCfg.CreationBackoff {
		t.Errorf("mote 2 last heard the active flag at %v, more than a deposit period before 1s", heard)
	}
	if at, fresh := take[0].At, heard+freshSlack(testCfg); at < fresh || at > fresh+testCfg.HeartbeatPeriod+2*testCfg.CreationBackoff {
		t.Errorf("takeover at %v, flag last heard at %v", at, heard)
	}
	act := n.callsOf("activate", 2)
	if len(act) != 1 || string(act[0].state) != "s" {
		t.Fatalf("mote 2 activations %+v, want one carrying the gossiped state", act)
	}
	if string(b.State()) != "s" {
		t.Errorf("mote 2 state %q, want s", b.State())
	}
	if len(n.ledgerOf(trace.LabelCreated)) != 1 {
		t.Error("the takeover minted a new label")
	}

	// Two concurrent estimators: the higher id yields to a lower id's flag.
	n.at(2*time.Second, func() {
		b.onGossip(Gossip{CtxType: "tracker", Label: "tracker/1.1", From: 1, Active: true}, radio.Corr{})
	})
	n.run(2*time.Second + time.Millisecond)
	if b.active {
		t.Fatal("mote 2 kept the role against a lower-id active flag")
	}
	if len(n.callsOf("deactivate", 2)) != 1 {
		t.Error("mote 2 did not step down exactly once")
	}
}

// TestStandDownOnStalenessAndRecovery checks a failed estimator steps
// down once its own trace goes stale, and that the deposit chain survives
// the failure so the restored mote resumes depositing and takes the role
// back.
func TestStandDownOnStalenessAndRecovery(t *testing.T) {
	n := newTestNet(t)
	a := n.add(1, geom.Pt(0, 0))
	n.at(0, func() { a.SetSensing(true) })
	n.at(500*time.Millisecond, func() { n.motes[1].Fail() })
	n.at(1500*time.Millisecond, func() {
		if a.active {
			t.Fatal("the failed estimator is still active")
		}
		n.motes[1].Restore()
	})
	n.run(2500 * time.Millisecond)

	down := n.eventsOf(obs.EvLeaderStepDown, 1)
	if len(down) != 1 {
		t.Fatalf("step-downs %+v, want one", down)
	}
	if at := down[0].At; at <= 500*time.Millisecond || at > 500*time.Millisecond+staleness(testCfg) {
		t.Errorf("step-down at %v, want within %v of the failure at 500ms", at, staleness(testCfg))
	}
	var during, after int
	for _, ev := range n.eventsOf(obs.EvReportSent, 1) {
		switch {
		case ev.At > 500*time.Millisecond && ev.At < 1500*time.Millisecond:
			during++
		case ev.At >= 1500*time.Millisecond:
			after++
		}
	}
	if during != 0 || after < 8 {
		t.Errorf("deposits while failed %d, after restore %d; want 0 and about 10", during, after)
	}
	if !a.active {
		t.Error("the restored mote did not take its label back")
	}
	if take := n.ledgerOf(trace.LabelTakeover); len(take) != 1 || take[0].At < 1500*time.Millisecond {
		t.Errorf("LabelTakeover = %+v, want one after the restore", take)
	}
}

// TestStopSilencesBackend checks Stop cancels every timer and that a
// stopped backend neither deposits nor reacts to gossip.
func TestStopSilencesBackend(t *testing.T) {
	n := newTestNet(t)
	a := n.add(1, geom.Pt(0, 0))
	b := n.add(2, geom.Pt(1, 0))
	n.at(0, func() { a.SetSensing(true) })
	n.at(50*time.Millisecond, func() { b.SetSensing(true) })
	const stopAt = 500 * time.Millisecond
	n.at(stopAt, func() { a.Stop() })
	n.run(2 * time.Second)

	for _, tm := range []*simtime.Timer{&a.ts.depositTimer, &a.CreationTimer, &a.ts.staleTimer, &a.ts.takeoverTimer} {
		if tm.Pending() {
			t.Fatal("a timer is still pending after Stop")
		}
	}
	for _, ev := range n.events {
		if ev.Mote == 1 && ev.At > stopAt {
			t.Fatalf("stopped mote 1 emitted %v at %v", ev.Type, ev.At)
		}
	}
	a.onGossip(Gossip{CtxType: "tracker", Label: "tracker/0.1", From: 2}, radio.Corr{})
	if a.label != "tracker/1.1" {
		t.Errorf("stopped backend adopted gossip label %q", a.label)
	}
	if len(n.eventsOf(obs.EvReportSent, 2)) < 15 {
		t.Error("the surviving mote stopped depositing")
	}
}

// TestBackendSize pins the per-mote backend to its allocation size class:
// one Backend per mote and context type, with the runtime held as one
// interface value, the type's name and timing read from its shared
// record, the timers scheduled through package-level handlers rather
// than per-mote closures, and the trace field, estimator, gossip memory
// and timers in one trace record made on first use.
func TestBackendSize(t *testing.T) {
	if size := unsafe.Sizeof(Backend{}); size > 96 {
		t.Errorf("unsafe.Sizeof(Backend{}) = %d B, want <= 96 (its size class)", size)
	}
}

// TestSilentBackendHasNoTraceRecord runs a label beside two motes that
// never sense: a bystander in range makes a trace record on the first
// gossip it hears and holds the sender's trace in it, while a mote out of
// range hears nothing, so it makes no record, its accessors read as
// "nothing remembered" and SetState and Stop make none. The sensing mote
// keeps its one record from its first episode to its second.
func TestSilentBackendHasNoTraceRecord(t *testing.T) {
	n := newTestNet(t)
	a := n.add(1, geom.Pt(0, 0))
	by := n.add(2, geom.Pt(1, 0))
	far := n.add(3, geom.Pt(50, 0))
	var first *traceState
	n.at(0, func() { a.SetSensing(true) })
	n.at(500*time.Millisecond, func() {
		first = a.ts
		a.SetSensing(false)
	})
	n.at(time.Second, func() { a.SetSensing(true) })
	n.run(1500 * time.Millisecond)
	if first == nil || a.ts != first {
		t.Error("the sensing mote made no record on its first episode, or a second one later")
	}

	if by.ts == nil {
		t.Fatal("a bystander that heard gossip has no trace record")
	}
	if len(by.ts.traces) != 1 || by.ts.traces[0].Mote != 1 {
		t.Errorf("bystander trace field %+v, want the sender's record alone", by.ts.traces)
	}
	if by.Participating() || by.Label() != "" {
		t.Errorf("bystander: Participating %v, Label %q, want none", by.Participating(), by.Label())
	}

	if far.ts != nil {
		t.Error("a mote that heard nothing has a trace record")
	}
	if far.Participating() || far.Label() != "" || far.State() != nil {
		t.Errorf("Participating %v, Label %q, State %q, want zero values", far.Participating(), far.Label(), far.State())
	}
	far.SetState([]byte("ignored"))
	far.Stop()
	if far.ts != nil {
		t.Error("SetState or Stop made a trace record")
	}
}

// gossipFeed replays one prebuilt gossip frame into a bystander backend
// (a mote that hears the gossip but does not sense). Every feedStep of
// sim time it refreshes the frame's records in place — the next
// gossipFanout motes of a ring of feedRing, stamped now with a new
// sequence number — so every delivery teaches the backend something and
// both the trace field and the estimator keep rolling over: records
// come back every feedRing/gossipFanout steps, later than the staleness
// bound, so each delivery also evicts.
type gossipFeed struct {
	n     *testNet
	b     *Backend
	frame radio.Frame
	recs  []Rec // the frame payload's Traces, refreshed in place
	seq   uint64
}

const (
	feedStep = 40 * time.Millisecond
	feedRing = 96
)

func newGossipFeed(tb testing.TB) *gossipFeed {
	tb.Helper()
	n := newTestNet(tb)
	// No obs bus: the receive path then records nothing anywhere.
	rt := radio.ShardRuntime{Sched: n.sched, Seed: 1, Stats: &trace.Stats{}}
	env := mote.NewEnv(rt, n.medium, phenomena.NewField(), mote.Config{}, n.hot)
	env.Ledger = n.ledger
	m, err := mote.New(1, geom.Pt(0, 0), nil, env)
	if err != nil {
		tb.Fatal(err)
	}
	recs := make([]Rec, gossipFanout)
	b := New(m, testType(n.hot), recorder{n, 1})
	m.SetReceiver(backendRx{b})
	f := &gossipFeed{
		n:    n,
		b:    b,
		recs: recs,
		frame: radio.Frame{
			Payload: Gossip{CtxType: "tracker", Label: "tracker/10.1", From: 10, Traces: recs},
			Corr:    radio.Corr{Origin: 10, Seq: 1},
		},
	}
	// Warm up until the field, the estimator and the scheduler's pools
	// hold their steady-state sizes.
	for i := 0; i < 4*feedRing; i++ {
		f.step()
	}
	return f
}

// feedFire delivers the refreshed gossip frame.
func feedFire(arg any) {
	f := arg.(*gossipFeed)
	now := f.b.Mote.Scheduler().Now()
	f.seq++
	for i := range f.recs {
		id := int(f.seq*gossipFanout+uint64(i)) % feedRing
		f.recs[i] = Rec{Mote: radio.NodeID(10 + id), Pos: geom.Pt(float64(id), float64(f.seq%7)), At: now, Seq: f.seq}
	}
	f.b.HandleFrame(f.frame)
}

// step advances sim time by feedStep and delivers one gossip frame.
func (f *gossipFeed) step() {
	at := f.n.sched.Now() + feedStep
	f.n.sched.AtEventOwned(at, simtime.OwnerNone, feedFire, f)
	f.n.run(at)
}

// TestGossipReceiveAllocatesNothing checks a warm backend merges a
// gossip frame — record lookup and insertion, trace-field and estimator
// eviction, the estimator update and re-evaluation — without allocating.
func TestGossipReceiveAllocatesNothing(t *testing.T) {
	f := newGossipFeed(t)
	if got := testing.AllocsPerRun(200, f.step); got != 0 {
		t.Errorf("receiving a gossip frame allocates %v times, want 0", got)
	}
	if ts := f.b.ts; len(ts.traces) == 0 || len(ts.traces) == feedRing || ts.est.Len() == 0 {
		t.Errorf("feed does not roll the field over: %d records, %d estimator points", len(ts.traces), ts.est.Len())
	}
}

// BenchmarkGossipReceive times one gossip delivery to a warm bystander
// backend, including the scheduler step that delivers it.
func BenchmarkGossipReceive(b *testing.B) {
	f := newGossipFeed(b)
	b.ReportAllocs()
	for b.Loop() {
		f.step()
	}
}
