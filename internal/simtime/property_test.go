package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refModel is the executable specification the pooled lazy-cancel
// scheduler is checked against: a plain sorted slice of (at, seq) events
// with eager removal on Stop. It is deliberately the simplest correct
// implementation — O(n) everywhere, one allocation per event.
type refModel struct {
	events   []refEvent
	now      time.Duration
	seq      uint64
	executed uint64
}

type refEvent struct {
	at  time.Duration
	seq uint64
	id  int
}

func (r *refModel) schedule(at time.Duration, id int) {
	if at < r.now {
		at = r.now
	}
	r.seq++
	r.events = append(r.events, refEvent{at: at, seq: r.seq, id: id})
	sort.Slice(r.events, func(i, j int) bool {
		if r.events[i].at != r.events[j].at {
			return r.events[i].at < r.events[j].at
		}
		return r.events[i].seq < r.events[j].seq
	})
}

func (r *refModel) stop(id int) bool {
	for i, ev := range r.events {
		if ev.id == id {
			r.events = append(r.events[:i], r.events[i+1:]...)
			return true
		}
	}
	return false
}

func (r *refModel) pending(id int) bool {
	for _, ev := range r.events {
		if ev.id == id {
			return true
		}
	}
	return false
}

// step pops the earliest event, returning its id (or -1 when empty).
func (r *refModel) step() (int, time.Duration, bool) {
	if len(r.events) == 0 {
		return -1, 0, false
	}
	ev := r.events[0]
	r.events = r.events[1:]
	r.now = ev.at
	r.executed++
	return ev.id, ev.at, true
}

// firing records one observed event execution.
type firing struct {
	id int
	at time.Duration
}

// TestSchedulerMatchesReferenceModel drives the scheduler and the
// reference model through 1000 independently seeded random schedules of
// interleaved At/After/Stop/Step operations (including events that
// re-schedule and stop other timers from inside their callbacks, the
// group protocol's churn pattern) and requires identical firing order,
// firing timestamps, executed counts, pending-event counts, and
// Stop/Pending results throughout.
func TestSchedulerMatchesReferenceModel(t *testing.T) {
	for schedule := 0; schedule < 1000; schedule++ {
		rng := rand.New(rand.NewSource(int64(schedule) + 1))
		s := NewScheduler()
		ref := &refModel{}

		var got []firing
		nextID := 0
		// live maps ref event ids to scheduler handles for Stop draws.
		live := map[int]Timer{}
		ids := []int{} // insertion-ordered keys of live, for deterministic draws

		removeID := func(id int) {
			delete(live, id)
			for i, v := range ids {
				if v == id {
					ids = append(ids[:i], ids[i+1:]...)
					break
				}
			}
		}

		var schedOne func(at time.Duration, rearm int)
		schedOne = func(at time.Duration, rearm int) {
			id := nextID
			nextID++
			tm := s.AtOwned(at, OwnerNone, func() {
				got = append(got, firing{id: id, at: s.Now()})
				removeID(id)
				if rearm > 0 {
					// Callback-driven churn: re-schedule a successor and
					// stop a random other live timer, mirroring the
					// heartbeat-reset pattern.
					schedOne(s.Now()+time.Duration(rng.Intn(50))*time.Millisecond, rearm-1)
					if len(ids) > 0 {
						victim := ids[rng.Intn(len(ids))]
						sGot := live[victim].Stop()
						refGot := ref.stop(victim)
						if sGot != refGot {
							t.Fatalf("schedule %d: nested Stop(%d) = %v, ref %v", schedule, victim, sGot, refGot)
						}
						if sGot {
							removeID(victim)
						}
					}
				}
			})
			live[id] = tm
			ids = append(ids, id)
			ref.schedule(at, id)
		}

		ops := 30 + rng.Intn(120)
		for op := 0; op < ops; op++ {
			switch r := rng.Float64(); {
			case r < 0.45: // schedule, occasionally with callback churn
				rearm := 0
				if rng.Float64() < 0.2 {
					rearm = 1 + rng.Intn(2)
				}
				at := s.Now() + time.Duration(rng.Intn(200))*time.Millisecond
				schedOne(at, rearm)
			case r < 0.70: // stop a random live (or already-dead) handle
				if len(ids) == 0 {
					continue
				}
				victim := ids[rng.Intn(len(ids))]
				sGot := live[victim].Stop()
				refGot := ref.stop(victim)
				if sGot != refGot {
					t.Fatalf("schedule %d op %d: Stop(%d) = %v, ref %v", schedule, op, victim, sGot, refGot)
				}
				if sGot {
					removeID(victim)
				}
			case r < 0.80: // probe Pending on a random handle
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				if got, want := live[id].Pending(), ref.pending(id); got != want {
					t.Fatalf("schedule %d op %d: Pending(%d) = %v, ref %v", schedule, op, id, got, want)
				}
			default: // step
				before := len(got)
				stepped := s.Step()
				refID, refAt, refStepped := ref.step()
				if stepped != refStepped {
					t.Fatalf("schedule %d op %d: Step() = %v, ref %v", schedule, op, stepped, refStepped)
				}
				if stepped {
					if len(got) != before+1 {
						t.Fatalf("schedule %d op %d: Step fired %d events, want 1", schedule, op, len(got)-before)
					}
					f := got[len(got)-1]
					if f.id != refID || f.at != refAt {
						t.Fatalf("schedule %d op %d: fired (%d, %v), ref (%d, %v)", schedule, op, f.id, f.at, refID, refAt)
					}
					if s.Now() != ref.now {
						t.Fatalf("schedule %d op %d: Now() = %v, ref %v", schedule, op, s.Now(), ref.now)
					}
				}
			}
			if s.Len() != len(ref.events) {
				t.Fatalf("schedule %d op %d: Len() = %d, ref %d", schedule, op, s.Len(), len(ref.events))
			}
		}

		// Drain both completely and compare the full tail.
		for {
			stepped := s.Step()
			refID, refAt, refStepped := ref.step()
			if stepped != refStepped {
				t.Fatalf("schedule %d drain: Step() = %v, ref %v", schedule, stepped, refStepped)
			}
			if !stepped {
				break
			}
			f := got[len(got)-1]
			if f.id != refID || f.at != refAt {
				t.Fatalf("schedule %d drain: fired (%d, %v), ref (%d, %v)", schedule, f.id, f.at, refID, refAt)
			}
		}
		if s.Executed() != ref.executed {
			t.Fatalf("schedule %d: Executed() = %d, ref %d", schedule, s.Executed(), ref.executed)
		}
		if s.Len() != 0 {
			t.Fatalf("schedule %d: Len() = %d after drain", schedule, s.Len())
		}
	}
}

// TestTimerPoolABAGuard proves a recycled Timer handle is permanently
// inert: after its slot is reused by a successor, the stale handle can
// neither stop nor observe the new tenant.
func TestTimerPoolABAGuard(t *testing.T) {
	s := NewScheduler()

	// Stop recycles the slot; the next At reuses it.
	stale := s.AtOwned(10*time.Millisecond, OwnerNone, func() { t.Fatal("stopped timer fired") })
	if !stale.Stop() {
		t.Fatal("first Stop returned false")
	}
	fired := false
	successor := s.AtOwned(20*time.Millisecond, OwnerNone, func() { fired = true })
	if stale.Stop() {
		t.Fatal("stale handle stopped its successor")
	}
	if stale.Pending() {
		t.Fatal("stale handle observes successor as its own")
	}
	if !successor.Pending() {
		t.Fatal("successor not pending")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("successor did not fire")
	}

	// Firing also recycles the slot: a kept handle of a fired timer must
	// not kill the slot's next tenant either.
	s2 := NewScheduler()
	kept := s2.AtOwned(time.Millisecond, OwnerNone, func() {})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if kept.Stop() || kept.Pending() {
		t.Fatal("handle of fired timer still live")
	}
	count := 0
	for i := 0; i < 100; i++ {
		// Each iteration reuses the same pooled slot.
		tm := s2.AfterOwned(time.Millisecond, OwnerNone, func() { count++ })
		if kept.Stop() {
			t.Fatalf("iteration %d: stale handle stopped a recycled slot", i)
		}
		if !tm.Pending() {
			t.Fatalf("iteration %d: fresh timer not pending", i)
		}
		if err := s2.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if count != 100 {
		t.Fatalf("recycled-slot timers fired %d times, want 100", count)
	}
}

// TestTombstoneCompaction checks that a Stop-heavy burst does not leave
// the heap holding hundreds of tombstones, and that survivors still fire
// in exact (at, seq) order afterwards.
func TestTombstoneCompaction(t *testing.T) {
	s := NewScheduler()
	var timers []Timer
	for i := 0; i < 500; i++ {
		at := time.Duration(i+1) * time.Hour // far future: lazy drain never reaches them
		timers = append(timers, s.AtOwned(at, OwnerNone, func() {}))
	}
	for i, tm := range timers {
		if i%5 != 0 {
			if !tm.Stop() {
				t.Fatalf("Stop(%d) failed", i)
			}
		}
	}
	if s.Len() != 100 {
		t.Fatalf("Len() = %d, want 100 live", s.Len())
	}
	// Compaction triggers once tombstones outnumber live events; the heap
	// should hold nothing close to the 400 cancelled entries.
	if len(s.heap) >= 200 {
		t.Fatalf("heap holds %d entries for 100 live events; compaction did not run", len(s.heap))
	}
	var fired []time.Duration
	prev := time.Duration(-1)
	for s.Step() {
		now := s.Now()
		if now <= prev {
			t.Fatalf("out-of-order firing: %v after %v", now, prev)
		}
		prev = now
		fired = append(fired, now)
	}
	if len(fired) != 100 {
		t.Fatalf("fired %d events, want 100", len(fired))
	}
}

// TestEventSchedulingInterleavesWithTimers checks the typed-payload
// variants share the same (at, seq) order as closure events.
func TestEventSchedulingInterleavesWithTimers(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.AtOwned(time.Millisecond, OwnerNone, func() { order = append(order, 0) })
	s.AtEventOwned(time.Millisecond, OwnerNone, func(arg any) { order = append(order, arg.(int)) }, 1)
	tm := s.AtEventTimerOwned(time.Millisecond, OwnerNone, func(arg any) { order = append(order, arg.(int)) }, 2)
	s.AfterEventOwned(time.Millisecond, OwnerNone, func(arg any) { order = append(order, arg.(int)) }, 3)
	if !tm.Pending() {
		t.Fatal("AtEventTimer handle not pending")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("fired %d events, want 4", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want scheduling order", order)
		}
	}
	if tm.Stop() {
		t.Fatal("fired AtEventTimer handle still stoppable")
	}
}

// TestAtEventTimerStopPreventsFiring checks typed-payload timers cancel
// like closure timers (the pending-rebroadcast supersede path).
func TestAtEventTimerStopPreventsFiring(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.AfterEventTimerOwned(time.Millisecond, OwnerNone, func(any) { fired = true }, nil)
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending event timer")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stopped event timer fired")
	}
	if s.Executed() != 0 {
		t.Fatalf("Executed() = %d, want 0", s.Executed())
	}
}
