package track_test

import (
	"math/rand"
	"testing"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/group"
	"envirotrack/internal/mote"
	"envirotrack/internal/obs"
	"envirotrack/internal/phenomena"
	"envirotrack/internal/radio"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
	"envirotrack/internal/track"
)

// fastCfg compresses the protocol timing so conformance runs finish in
// a few simulated seconds.
var fastCfg = group.Config{
	HeartbeatPeriod: 100 * time.Millisecond,
	CreationBackoff: 10 * time.Millisecond,
}

// cbEvent is one recorded Runtime call.
type cbEvent struct {
	kind  string // "activate" | "deactivate" | "deleted"
	mote  radio.NodeID
	label group.Label
	state []byte
	at    time.Duration
}

// backendEvents are the obs event types a tracking backend itself emits
// (as opposed to the mote/radio layers below it); the no-events-after-Stop
// check filters on this set.
var backendEvents = map[obs.EventType]bool{
	obs.EvHeartbeatSent:       true,
	obs.EvHeartbeatForwarded:  true,
	obs.EvHeartbeatSuppressed: true,
	obs.EvReceiveTimerFired:   true,
	obs.EvWaitTimerArmed:      true,
	obs.EvLabelCreated:        true,
	obs.EvLabelJoined:         true,
	obs.EvLabelTakeover:       true,
	obs.EvLabelRelinquish:     true,
	obs.EvLabelYield:          true,
	obs.EvLabelDeleted:        true,
	obs.EvLeaderStepDown:      true,
	obs.EvReportSent:          true,
	obs.EvRouteDelivered:      true,
	obs.EvRouteDropped:        true,
}

// conformNet wires motes with tracking backends on a loss-free medium and
// records every callback and backend-emitted obs event.
type conformNet struct {
	t        *testing.T
	group    *simtime.ShardGroup
	sched    *simtime.Scheduler
	medium   *radio.Medium
	hot      *mote.HotState
	backends map[radio.NodeID]track.Backend
	// ledgers holds each mote env's own coherence ledger.
	ledgers map[radio.NodeID]*trace.Ledger
	log     []cbEvent
	obsLog  []obs.Event
}

func newConformNet(t *testing.T) *conformNet {
	t.Helper()
	group := simtime.NewShardGroup(1)
	sched := group.Shard(0)
	var stats trace.Stats
	rng := rand.New(rand.NewSource(11))
	n := &conformNet{
		t:        t,
		group:    group,
		sched:    sched,
		medium:   radio.New(radio.Params{CommRadius: 2}, nil, radio.ShardRuntime{Sched: sched, RNG: rng, Stats: &stats}),
		hot:      mote.NewHotState(),
		backends: make(map[radio.NodeID]track.Backend),
		ledgers:  make(map[radio.NodeID]*trace.Ledger),
	}
	return n
}

// obsRecorder funnels backend-emitted events into the net's log.
type obsRecorder struct{ n *conformNet }

func (r obsRecorder) Emit(ev obs.Event) {
	if backendEvents[ev.Type] {
		r.n.obsLog = append(r.n.obsLog, ev)
	}
}

func (n *conformNet) add(backend string, id radio.NodeID, pos geom.Point) track.Backend {
	n.t.Helper()
	// Each mote draws from its own RNG stream and emits into the net.
	rt := radio.ShardRuntime{Sched: n.sched, RNG: rand.New(rand.NewSource(100 + int64(id))), Stats: &trace.Stats{}, Bus: obs.NewBus(obsRecorder{n})}
	env := mote.NewEnv(rt, n.medium, phenomena.NewField(), mote.Config{}, n.hot)
	env.Ledger = &trace.Ledger{}
	n.ledgers[id] = env.Ledger
	m, err := mote.New(id, pos, nil, env)
	if err != nil {
		n.t.Fatal(err)
	}
	be, err := track.New(backend, m, "tracker", fastCfg, recorder{n, id})
	if err != nil {
		n.t.Fatal(err)
	}
	m.SetReceiver(backendRx{be})
	n.backends[id] = be
	return be
}

// backendRx is a test mote's receiver: it hands every frame to the
// mote's backend.
type backendRx struct{ be track.Backend }

func (r backendRx) Receive(f radio.Frame) { r.be.HandleFrame(f) }

// recorder is mote id's Runtime: it logs activations, deactivations and
// deletions into the net.
type recorder struct {
	n  *conformNet
	id radio.NodeID
}

func (r recorder) record(kind string, l group.Label, state []byte) {
	r.n.log = append(r.n.log, cbEvent{kind: kind, mote: r.id, label: l, state: state, at: r.n.sched.Now()})
}

func (r recorder) ReportPayload() any                     { return nil }
func (r recorder) OnReport(radio.NodeID, any)             {}
func (r recorder) OnActivate(l group.Label, state []byte) { r.record("activate", l, state) }
func (r recorder) OnDeactivate(l group.Label)             { r.record("deactivate", l, nil) }
func (r recorder) OnLabelDeleted(l group.Label)           { r.record("deleted", l, nil) }

func (n *conformNet) senseAt(id radio.NodeID, at time.Duration, sensing bool) {
	n.sched.AtOwned(at, simtime.OwnerNone, func() { n.backends[id].SetSensing(sensing) })
}

func (n *conformNet) runUntil(d time.Duration) {
	n.t.Helper()
	if err := n.group.Run(d, 0, nil); err != nil {
		n.t.Fatal(err)
	}
}

// forEachBackend runs the conformance check against every backend New
// builds.
func forEachBackend(t *testing.T, f func(t *testing.T, backend string)) {
	for _, be := range track.Names() {
		t.Run(be, func(t *testing.T) { f(t, be) })
	}
}

// TestConformanceSingleMoteActivates: a lone sensing mote must create a
// label and activate under any backend.
func TestConformanceSingleMoteActivates(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		n := newConformNet(t)
		be := n.add(backend, 1, geom.Pt(0, 0))
		n.senseAt(1, 0, true)
		n.runUntil(time.Second)

		if !be.Participating() || be.Label() == "" {
			t.Fatalf("participating=%t label=%q, want active participation", be.Participating(), be.Label())
		}
		if !be.Sensing() {
			t.Error("Sensing() = false after SetSensing(true)")
		}
		var activations int
		for _, ev := range n.log {
			if ev.kind == "activate" && ev.mote == 1 {
				activations++
			}
		}
		if activations != 1 {
			t.Errorf("activations = %d, want exactly 1", activations)
		}
	})
}

// TestConformanceActivatePairing drives a two-mote handover (the first
// sensor goes quiet, the second keeps sensing) and checks the callback
// contract: per mote, activate and deactivate strictly alternate,
// starting with activate; labels match within each pair.
func TestConformanceActivatePairing(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		n := newConformNet(t)
		n.add(backend, 1, geom.Pt(0, 0))
		n.add(backend, 2, geom.Pt(1, 0))
		n.senseAt(1, 0, true)
		n.senseAt(2, 300*time.Millisecond, true)
		n.senseAt(1, 2*time.Second, false)
		n.runUntil(5 * time.Second)

		active := map[radio.NodeID]group.Label{}
		for _, ev := range n.log {
			switch ev.kind {
			case "activate":
				if l, on := active[ev.mote]; on {
					t.Fatalf("mote %d activated for %q while already active for %q at %v", ev.mote, ev.label, l, ev.at)
				}
				active[ev.mote] = ev.label
			case "deactivate":
				l, on := active[ev.mote]
				if !on {
					t.Fatalf("mote %d deactivated for %q while not active at %v", ev.mote, ev.label, ev.at)
				}
				if l != ev.label {
					t.Fatalf("mote %d deactivated for %q but was activated for %q", ev.mote, ev.label, l)
				}
				delete(active, ev.mote)
			}
		}
		if len(active) != 1 {
			t.Errorf("motes left active = %d, want exactly 1 (mote 2 carries the label)", len(active))
		}
		if _, on := active[2]; !on {
			t.Errorf("mote 2 is not the active mote at the end: %v", active)
		}
	})
}

// TestConformanceStateHandoff: state set by the active mote must reach
// the successor's OnActivate when the role moves.
func TestConformanceStateHandoff(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		n := newConformNet(t)
		n.add(backend, 1, geom.Pt(0, 0))
		n.add(backend, 2, geom.Pt(1, 0))
		n.senseAt(1, 0, true)
		n.senseAt(2, 300*time.Millisecond, true)
		// Let mote 1 activate and publish state, then lose sensing.
		n.sched.AtOwned(time.Second, simtime.OwnerNone, func() {
			if !n.backends[1].Participating() {
				t.Fatal("mote 1 not participating at state-set time")
			}
			n.backends[1].SetState([]byte("carried"))
		})
		n.senseAt(1, 2*time.Second, false)
		n.runUntil(5 * time.Second)

		var handoff *cbEvent
		for i := range n.log {
			ev := &n.log[i]
			if ev.kind == "activate" && ev.mote == 2 {
				handoff = ev
			}
		}
		if handoff == nil {
			t.Fatal("mote 2 never activated after mote 1 went quiet")
		}
		if string(handoff.state) != "carried" {
			t.Errorf("successor activated with state %q, want %q", handoff.state, "carried")
		}
	})
}

// TestConformanceNoEventsAfterStop: after Stop returns, a backend must
// invoke no callbacks and emit no protocol events, even while frames are
// still in flight and sensing continues.
func TestConformanceNoEventsAfterStop(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		n := newConformNet(t)
		n.add(backend, 1, geom.Pt(0, 0))
		n.add(backend, 2, geom.Pt(1, 0))
		n.senseAt(1, 0, true)
		n.senseAt(2, 0, true)
		const stopAt = 2 * time.Second
		n.sched.AtOwned(stopAt, simtime.OwnerNone, func() {
			for _, be := range n.backends {
				be.Stop()
			}
		})
		n.runUntil(5 * time.Second)

		for _, ev := range n.log {
			if ev.at > stopAt {
				t.Errorf("callback %s on mote %d at %v, after Stop at %v", ev.kind, ev.mote, ev.at, stopAt)
			}
		}
		sawBefore := false
		for _, ev := range n.obsLog {
			if ev.At <= stopAt {
				sawBefore = true
			} else {
				t.Errorf("backend event %v on mote %d at %v, after Stop at %v", ev.Type, ev.Mote, ev.At, stopAt)
			}
		}
		if !sawBefore {
			t.Error("backend emitted no events before Stop; harness is not observing anything")
		}
	})
}

// TestConformanceLedgerFromEnv: a backend records every label event it
// publishes in the coherence ledger of its mote's env, and nothing else.
// Each mote's env has its own ledger; the handover gives both motes label
// events.
func TestConformanceLedgerFromEnv(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		n := newConformNet(t)
		n.add(backend, 1, geom.Pt(0, 0))
		n.add(backend, 2, geom.Pt(1, 0))
		n.senseAt(1, 0, true)
		n.senseAt(2, 300*time.Millisecond, true)
		n.senseAt(1, 2*time.Second, false)
		n.runUntil(5 * time.Second)

		type labelEvent struct {
			at    time.Duration
			ty    obs.EventType
			label string
			mote  int
		}
		published := map[int][]labelEvent{}
		for _, ev := range n.obsLog {
			switch ev.Type {
			case obs.EvLabelCreated, obs.EvLabelTakeover, obs.EvLabelRelinquish, obs.EvLabelYield, obs.EvLabelDeleted:
				published[ev.Mote] = append(published[ev.Mote], labelEvent{ev.At, ev.Type, ev.Label, ev.Mote})
			}
		}
		if len(published[1]) == 0 || len(published[2]) == 0 {
			t.Fatalf("mote 1 published %d label events, mote 2 %d; the run should give both some", len(published[1]), len(published[2]))
		}
		for id, ledger := range n.ledgers {
			var recorded []labelEvent
			for _, ev := range ledger.Events {
				ty, ok := obs.LabelEvent(ev.Type)
				if !ok || ev.CtxType != "tracker" {
					t.Fatalf("mote %d's ledger holds %+v, not a tracker label event", id, ev)
				}
				recorded = append(recorded, labelEvent{ev.At, ty, ev.Label, ev.Mote})
			}
			want := published[int(id)]
			if len(recorded) != len(want) {
				t.Fatalf("mote %d's ledger holds %d events %+v, want its own %d %+v", id, len(recorded), recorded, len(want), want)
			}
			for i := range want {
				if recorded[i] != want[i] {
					t.Errorf("mote %d's ledger event %d = %+v, want %+v", id, i, recorded[i], want[i])
				}
			}
		}
	})
}

// TestNewRejectsUnknownBackend: New builds only the named backends; an
// empty name is the caller's to resolve, not a silent default.
func TestNewRejectsUnknownBackend(t *testing.T) {
	for _, name := range []string{"no-such-backend", ""} {
		if _, err := track.New(name, nil, "tracker", fastCfg, nil); err == nil {
			t.Errorf("New(%q) succeeded, want error", name)
		}
		if track.Known(name) {
			t.Errorf("Known(%q) = true", name)
		}
	}
	if got := track.Names(); len(got) != 2 || got[0] != track.BackendLeader || got[1] != track.BackendPassive {
		t.Errorf("Names() = %v, want [%s %s]", got, track.BackendLeader, track.BackendPassive)
	}
}
