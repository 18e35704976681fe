package directory

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/group"
	"envirotrack/internal/radio"
	"envirotrack/internal/routing"
	"envirotrack/internal/simtime"
)

func TestUnregisterRemovesEntry(t *testing.T) {
	n := newNet(t, 6, 6, 1.5)
	n.services[0].Register("car", "car/1.1", geom.Pt(1, 1), 1)
	n.runUntil(t, time.Second)
	n.sched.AtOwned(2*time.Second, simtime.OwnerNone, func() {
		n.services[0].Unregister("car", "car/1.1")
	})
	n.runUntil(t, 4*time.Second)
	var got []Entry
	n.services[30].Query("car", func(es []Entry) { got = es })
	n.runUntil(t, 6*time.Second)
	if len(got) != 0 {
		t.Errorf("entries after unregister = %v, want none", got)
	}
}

func TestTombstoneBlocksStaleRegistration(t *testing.T) {
	n := newNet(t, 4, 4, 1.5)
	svc := n.services[0]
	// Unregister at t=10s arrives before a registration stamped t=5s.
	svc.remove(unregisterMsg{CtxType: "x", Label: "x/1", At: 10 * time.Second})
	svc.store(Entry{CtxType: "x", Label: "x/1", UpdatedAt: 5 * time.Second})
	if es := svc.Entries("x"); len(es) != 0 {
		t.Errorf("stale registration resurrected a tombstoned label: %v", es)
	}
	// A genuinely newer registration (a reborn label) is accepted.
	svc.store(Entry{CtxType: "x", Label: "x/1", UpdatedAt: 15 * time.Second})
	if es := svc.Entries("x"); len(es) != 1 {
		t.Errorf("fresh registration rejected after tombstone: %v", es)
	}
}

func TestUnregisterOlderThanEntryKeepsEntry(t *testing.T) {
	n := newNet(t, 4, 4, 1.5)
	svc := n.services[0]
	svc.store(Entry{CtxType: "x", Label: "x/1", UpdatedAt: 20 * time.Second})
	// An unregister stamped before the entry's refresh must not delete it.
	svc.remove(unregisterMsg{CtxType: "x", Label: "x/1", At: 10 * time.Second})
	if es := svc.Entries("x"); len(es) != 1 {
		t.Errorf("older unregister deleted a fresher entry: %v", es)
	}
}

// TestQueryTimeoutInvokesNilCallback: when no directory node can answer,
// the callback gets nil once every attempt has timed out.
func TestQueryTimeoutInvokesNilCallback(t *testing.T) {
	n := newNet(t, 4, 4, 1.5)
	// Query from the mote farthest from the type's hash point, with every
	// other mote failed: the query's first hop is dead, so no reply comes.
	hp := HashPoint("anything", n.bounds)
	querier, far := radio.NodeID(0), -1.0
	for _, id := range slices.Sorted(maps.Keys(n.services)) {
		if d := n.services[id].m.Pos().Dist2(hp); d > far {
			querier, far = id, d
		}
	}
	for id, s := range n.services {
		if id != querier {
			s.m.Fail()
		}
	}
	called := false
	var result []Entry
	n.services[querier].Query("anything", func(es []Entry) { called, result = true, es })
	n.runUntil(t, queryRetries*queryTimeout+time.Second)
	if !called {
		t.Fatal("query callback never invoked")
	}
	if result != nil {
		t.Errorf("result = %#v, want nil", result)
	}
}

func TestUnregisterRepeatsOnAir(t *testing.T) {
	n := newNet(t, 4, 4, 1.5)
	n.services[5].Unregister("car", "car/9.9")
	n.runUntil(t, 2*time.Second)
	// The repetition policy sends several copies (resilience without acks);
	// verify more than one distinct send happened by checking that every
	// replica of the directory region saw the tombstone.
	hp := HashPoint("car", n.bounds)
	nearest := n.services[radio.NodeID(nearestTo(n, hp))]
	if ts := nearest.tombstones["car"]; len(ts) != 1 {
		t.Errorf("tombstones at directory node = %v, want 1", ts)
	}
}

func nearestTo(n *net, p geom.Point) (best int) {
	bestD := 1e18
	for _, id := range slices.Sorted(maps.Keys(n.services)) {
		if d := n.services[id].m.Pos().Dist2(p); d < bestD {
			bestD, best = d, int(id)
		}
	}
	return best
}

// TestTombstonePropertyUnderChurn drives a directory service through
// random register/unregister churn (out-of-order timestamps included,
// as relayed messages genuinely arrive) and checks it against a
// reference model after every operation: the entry table must match the
// model exactly, and tombstones must only move forward in time.
func TestTombstonePropertyUnderChurn(t *testing.T) {
	labels := []group.Label{"x/1", "x/2", "x/3", "x/4", "x/5", "x/6", "x/7", "x/8"}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := newNet(t, 4, 4, 1.5)
		svc := n.services[0]

		oracle := map[group.Label]time.Duration{}
		tombs := map[group.Label]time.Duration{}

		for op := 0; op < 400; op++ {
			label := labels[rng.Intn(len(labels))]
			at := time.Duration(rng.Intn(100)) * time.Second
			if rng.Intn(2) == 0 {
				svc.store(Entry{CtxType: "x", Label: label, UpdatedAt: at})
				ts, dead := tombs[label]
				if prev, live := oracle[label]; (!dead || at > ts) && (!live || prev <= at) {
					oracle[label] = at
				}
			} else {
				svc.remove(unregisterMsg{CtxType: "x", Label: label, At: at})
				if prev, live := oracle[label]; live && prev <= at {
					delete(oracle, label)
				}
				if ts, ok := tombs[label]; !ok || ts < at {
					tombs[label] = at
				}
			}

			got := map[group.Label]time.Duration{}
			for _, e := range svc.Entries("x") {
				got[e.Label] = e.UpdatedAt
			}
			if !maps.Equal(got, oracle) {
				t.Fatalf("seed %d op %d: entries diverge from model\nservice = %v\nmodel   = %v",
					seed, op, got, oracle)
			}
			for label, want := range tombs {
				if ts, ok := svc.tombstones["x"][label]; !ok || ts != want {
					t.Fatalf("seed %d op %d: tombstone[%s] = %v (present=%t), model %v — tombstones must be monotone",
						seed, op, label, ts, ok, want)
				}
			}
		}
	}
}

// TestFreshServiceState exercises services whose entry, tombstone and
// query maps were never written.
func TestFreshServiceState(t *testing.T) {
	n := newNet(t, 4, 4, 1.5)
	dir := n.services[radio.NodeID(nearestTo(n, HashPoint("car", n.bounds)))]
	if es := dir.Entries("car"); es != nil {
		t.Errorf("fresh Entries = %v, want nil", es)
	}
	// A reply to a query this node never issued is consumed and ignored.
	if !dir.Handle(routing.Message{Payload: replyMsg{QueryID: 7}}) {
		t.Error("stray reply not consumed")
	}

	// The directory node answers a type it never stored at once, with no
	// entries, rather than letting the query time out.
	called := false
	n.services[0].Query("car", func(es []Entry) {
		called = true
		if len(es) != 0 {
			t.Errorf("entries for an unseen type = %v, want none", es)
		}
	})
	n.runUntil(t, queryTimeout/2)
	if !called {
		t.Fatal("query for an unseen type not answered before its timeout")
	}

	// Unregister before any Register leaves a tombstone that blocks older
	// registrations; a newer one is accepted.
	n.services[5].Unregister("car", "car/1.1")
	n.runUntil(t, 2*time.Second)
	if ts, ok := dir.tombstones["car"]["car/1.1"]; !ok || ts != queryTimeout/2 {
		t.Fatalf("tombstone = %v, %v; want %v", ts, ok, queryTimeout/2)
	}
	dir.store(Entry{CtxType: "car", Label: "car/1.1", UpdatedAt: 0})
	if es := dir.Entries("car"); len(es) != 0 {
		t.Errorf("registration older than the unregister stored: %v", es)
	}
	n.services[5].Register("car", "car/1.1", geom.Pt(1, 1), 5)
	n.runUntil(t, 3*time.Second)
	if es := dir.Entries("car"); len(es) != 1 {
		t.Errorf("registration after the unregister = %v, want one entry", es)
	}
}
