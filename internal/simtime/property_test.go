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
// implementation — O(n) everywhere, one allocation per event, no runs.
// A Deadline is modelled as what it stands in for: a no-op timer, which
// the model passes (drops) when a later event fires or the clock is run
// past it, and which is never counted as an executed event.
type refModel struct {
	events   []refEvent
	now      time.Duration
	seq      uint64
	executed uint64
}

type refEvent struct {
	at       time.Duration
	seq      uint64
	id       int
	deadline bool
}

func (r *refModel) schedule(at time.Duration, id int, deadline bool) {
	if at < r.now {
		at = r.now
	}
	r.seq++
	r.events = append(r.events, refEvent{at: at, seq: r.seq, id: id, deadline: deadline})
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

// live counts pending events, deadlines excluded (the scheduler's Len).
func (r *refModel) live() int {
	n := 0
	for _, ev := range r.events {
		if !ev.deadline {
			n++
		}
	}
	return n
}

// nextAt returns the instant of the earliest pending event, deadlines
// excluded.
func (r *refModel) nextAt() (time.Duration, bool) {
	for _, ev := range r.events {
		if !ev.deadline {
			return ev.at, true
		}
	}
	return 0, false
}

// step pops the earliest event, and every deadline before it, returning
// its id (or -1 when no event remains).
func (r *refModel) step() (int, time.Duration, bool) {
	for i, ev := range r.events {
		if ev.deadline {
			continue
		}
		r.events = r.events[i+1:]
		r.now = ev.at
		r.executed++
		return ev.id, ev.at, true
	}
	return -1, 0, false
}

// runUntil is the model of a group Run to t once every event due by t has
// fired: it passes the deadlines due by t and moves the clock to t. It
// returns the id of an event still due, which the scheduler failed to
// fire.
func (r *refModel) runUntil(t time.Duration) (int, bool) {
	for len(r.events) > 0 && r.events[0].at <= t {
		if !r.events[0].deadline {
			return r.events[0].id, false
		}
		r.events = r.events[1:]
	}
	if r.now < t {
		r.now = t
	}
	return 0, true
}

// TestSchedulerMatchesReferenceModel drives the scheduler and the
// reference model through 1000 independently seeded random schedules of
// interleaved operations and requires identical firing order, firing
// timestamps, executed counts, pending-event counts, and Stop/Pending
// results throughout. The operations are closure timers (some of which
// re-schedule and stop other timers from inside their callbacks, the
// group protocol's churn pattern), bursts of handle-less typed events at
// one instant (which the scheduler folds into runs; owners vary so runs
// also break), deadlines armed from outside and inside callbacks and
// probed at their own instant, Stop, and one-shard group Run calls to
// chosen instants: grid points, and the next pending event's own instant,
// which the run's inclusive end must fire with its whole same-instant
// tail. Times are drawn on a coarse grid so that same-instant ties are
// common. Every firing advances the model from inside its callback, so
// probes made there see the model at that exact point of the (at, seq)
// order.
func TestSchedulerMatchesReferenceModel(t *testing.T) {
	owners := []Owner{OwnerRadio, OwnerMote}
	for schedule := 0; schedule < 1000; schedule++ {
		rng := rand.New(rand.NewSource(int64(schedule) + 1))
		g, s := oneShard()
		ref := &refModel{}
		fired := 0
		nextID := 0
		// live maps ref event ids to timer handles for Stop draws.
		live := map[int]Timer{}
		ids := []int{} // insertion-ordered keys of live, for deterministic draws
		deadlines := map[int]Deadline{}
		dls := []int{} // every deadline armed so far, passed ones included

		removeID := func(id int) {
			delete(live, id)
			for i, v := range ids {
				if v == id {
					ids = append(ids[:i], ids[i+1:]...)
					break
				}
			}
		}
		// onFire checks a firing against the model and advances it.
		onFire := func(id int) {
			refID, refAt, ok := ref.step()
			if !ok || refID != id || refAt != s.Now() {
				t.Fatalf("schedule %d: fired (%d, %v), ref (%d, %v, %v)", schedule, id, s.Now(), refID, refAt, ok)
			}
			fired++
		}
		probeDeadline := func(where string) {
			if len(dls) == 0 {
				return
			}
			id := dls[rng.Intn(len(dls))]
			if got, want := deadlines[id].Pending(), ref.pending(id); got != want {
				t.Fatalf("schedule %d %s: deadline %d Pending = %v, ref %v (now %v)", schedule, where, id, got, want, s.Now())
			}
		}
		armDeadline := func(d time.Duration) {
			id := nextID
			nextID++
			deadlines[id] = s.DeadlineAfter(d)
			dls = append(dls, id)
			ref.schedule(s.Now()+d, id, true)
		}

		var schedOne func(at time.Duration, rearm int)
		var schedBurst func(at time.Duration, n, depth int)
		burstFire := func(arg any) {
			b := arg.(*burstMember)
			onFire(b.id)
			probeDeadline("in burst")
			if b.depth > 0 {
				switch r := rng.Float64(); {
				case r < 0.3: // extend the same instant's work, joining the run if it is open
					schedBurst(s.Now(), 1+rng.Intn(3), b.depth-1)
				case r < 0.45:
					armDeadline(0)
				}
			}
		}
		schedBurst = func(at time.Duration, n, depth int) {
			owner := owners[rng.Intn(len(owners))]
			for k := 0; k < n; k++ {
				if rng.Float64() < 0.1 {
					owner = owners[rng.Intn(len(owners))] // a different owner breaks the run
				}
				id := nextID
				nextID++
				s.AtEventOwned(at, owner, burstFire, &burstMember{id: id, depth: depth})
				ref.schedule(at, id, false)
			}
		}
		schedOne = func(at time.Duration, rearm int) {
			id := nextID
			nextID++
			tm := s.AtOwned(at, OwnerNone, func() {
				onFire(id)
				removeID(id)
				probeDeadline("in timer")
				if rearm > 0 {
					// Callback-driven churn: re-schedule a successor and
					// stop a random other live timer, mirroring the
					// heartbeat-reset pattern.
					schedOne(s.Now()+time.Duration(rng.Intn(5))*10*time.Millisecond, rearm-1)
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
					if rng.Float64() < 0.5 {
						armDeadline(time.Duration(rng.Intn(3)) * 10 * time.Millisecond)
					}
				}
			})
			live[id] = tm
			ids = append(ids, id)
			ref.schedule(at, id, false)
		}

		ops := 30 + rng.Intn(120)
		for op := 0; op < ops; op++ {
			at := s.Now() + time.Duration(rng.Intn(20))*10*time.Millisecond
			switch r := rng.Float64(); {
			case r < 0.30: // schedule, occasionally with callback churn
				rearm := 0
				if rng.Float64() < 0.2 {
					rearm = 1 + rng.Intn(2)
				}
				schedOne(at, rearm)
			case r < 0.45: // a same-instant burst of typed events
				schedBurst(at, 1+rng.Intn(6), rng.Intn(3))
			case r < 0.52:
				armDeadline(at - s.Now())
			case r < 0.65: // stop a random live (or already-dead) handle
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
			case r < 0.72: // probe Pending on a random handle
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				if got, want := live[id].Pending(), ref.pending(id); got != want {
					t.Fatalf("schedule %d op %d: Pending(%d) = %v, ref %v", schedule, op, id, got, want)
				}
			case r < 0.78:
				probeDeadline("between runs")
			default: // run to a grid point or to the next event's instant
				deadline := s.Now() + time.Duration(rng.Intn(6))*10*time.Millisecond
				if at, ok := ref.nextAt(); ok && rng.Intn(2) == 0 {
					deadline = at
				}
				runTo(t, g, deadline)
				if id, ok := ref.runUntil(deadline); !ok {
					t.Fatalf("schedule %d op %d: Run(%v) left event %d unfired", schedule, op, deadline, id)
				}
				if s.Now() != ref.now {
					t.Fatalf("schedule %d op %d: Now() = %v after Run, ref %v", schedule, op, s.Now(), ref.now)
				}
			}
			if s.Len() != ref.live() {
				t.Fatalf("schedule %d op %d: Len() = %d, ref %d", schedule, op, s.Len(), ref.live())
			}
		}

		// Drain both completely and compare the full tail.
		end := s.Now() + time.Hour
		runTo(t, g, end)
		if id, ok := ref.runUntil(end); !ok {
			t.Fatalf("schedule %d drain: event %d left unfired", schedule, id)
		}
		if n := ref.live(); n != 0 {
			t.Fatalf("schedule %d drain: %d events left in ref", schedule, n)
		}
		if s.Executed() != ref.executed || s.Executed() != uint64(fired) {
			t.Fatalf("schedule %d: Executed() = %d, ref %d, fired %d", schedule, s.Executed(), ref.executed, fired)
		}
		if s.Len() != 0 {
			t.Fatalf("schedule %d: Len() = %d after drain", schedule, s.Len())
		}
	}
}

// burstMember is the payload of one typed event in a property-test burst.
type burstMember struct {
	id, depth int
}

// TestTimerPoolABAGuard proves a recycled Timer handle is permanently
// inert: after its slot is reused by a successor, the stale handle can
// neither stop nor observe the new tenant.
func TestTimerPoolABAGuard(t *testing.T) {
	g, s := oneShard()

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
	runTo(t, g, 20*time.Millisecond)
	if !fired {
		t.Fatal("successor did not fire")
	}

	// Firing also recycles the slot: a kept handle of a fired timer must
	// not kill the slot's next tenant either.
	g2, s2 := oneShard()
	kept := s2.AtOwned(time.Millisecond, OwnerNone, func() {})
	runTo(t, g2, time.Millisecond)
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
		runTo(t, g2, s2.Now()+time.Millisecond)
	}
	if count != 100 {
		t.Fatalf("recycled-slot timers fired %d times, want 100", count)
	}
}

// TestTombstoneCompaction checks that a Stop-heavy burst does not leave
// the heap holding hundreds of tombstones, and that survivors still fire
// in exact (at, seq) order afterwards.
func TestTombstoneCompaction(t *testing.T) {
	g, s := oneShard()
	var fired []time.Duration
	prev := time.Duration(-1)
	record := func() {
		now := s.Now()
		if now <= prev {
			t.Fatalf("out-of-order firing: %v after %v", now, prev)
		}
		prev = now
		fired = append(fired, now)
	}
	var timers []Timer
	for i := 0; i < 500; i++ {
		at := time.Duration(i+1) * time.Hour // far future: lazy drain never reaches them
		timers = append(timers, s.AtOwned(at, OwnerNone, record))
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
	runTo(t, g, 500*time.Hour)
	if len(fired) != 100 {
		t.Fatalf("fired %d events, want 100", len(fired))
	}
}

// TestEventSchedulingInterleavesWithTimers checks the typed-payload
// variants share the same (at, seq) order as closure events.
func TestEventSchedulingInterleavesWithTimers(t *testing.T) {
	g, s := oneShard()
	var order []int
	s.AtOwned(time.Millisecond, OwnerNone, func() { order = append(order, 0) })
	s.AtEventOwned(time.Millisecond, OwnerNone, func(arg any) { order = append(order, arg.(int)) }, 1)
	tm := s.AfterEventTimerOwned(time.Millisecond, OwnerNone, func(arg any) { order = append(order, arg.(int)) }, 2)
	s.AfterEventOwned(time.Millisecond, OwnerNone, func(arg any) { order = append(order, arg.(int)) }, 3)
	if !tm.Pending() {
		t.Fatal("AfterEventTimer handle not pending")
	}
	runTo(t, g, time.Millisecond)
	if len(order) != 4 {
		t.Fatalf("fired %d events, want 4", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want scheduling order", order)
		}
	}
	if tm.Stop() {
		t.Fatal("fired AfterEventTimer handle still stoppable")
	}
}

// TestAtEventTimerStopPreventsFiring checks typed-payload timers cancel
// like closure timers (the pending-rebroadcast supersede path).
func TestAtEventTimerStopPreventsFiring(t *testing.T) {
	g, s := oneShard()
	fired := false
	tm := s.AfterEventTimerOwned(time.Millisecond, OwnerNone, func(any) { fired = true }, nil)
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending event timer")
	}
	runTo(t, g, time.Second)
	if fired {
		t.Fatal("stopped event timer fired")
	}
	if s.Executed() != 0 {
		t.Fatalf("Executed() = %d, want 0", s.Executed())
	}
}
