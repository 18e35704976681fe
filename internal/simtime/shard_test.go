package simtime

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// shardModel is one shard's half of TestShardGroupMatchesReferenceModel:
// the shard's reference model, its own RNG, and its live timer handles.
// Callbacks touch only the model of the shard they run on, so shard
// goroutines share nothing.
type shardModel struct {
	rng   *rand.Rand
	ref   refModel
	live  map[int]Timer
	ids   []int // insertion-ordered keys of live, for deterministic draws
	fired int
}

func (m *shardModel) remove(id int) {
	delete(m.live, id)
	for i, v := range m.ids {
		if v == id {
			m.ids = append(m.ids[:i], m.ids[i+1:]...)
			break
		}
	}
}

// TestShardGroupMatchesReferenceModel drives a ShardGroup through
// Run against one sorted-slice reference model per shard, over
// independently seeded random schedules of interleaved At/Stop operations
// and Run calls with random deadlines and lookahead windows.
// Callbacks stay on their own shard: they re-schedule successors and stop
// sibling timers there, as the protocol layers do. Every firing must match
// its shard's reference in order and timestamp, and between runs each
// shard's Len, Executed, and clock must match too: windowing is a
// partition of time, never a reordering within a shard.
func TestShardGroupMatchesReferenceModel(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 8} {
		for schedule := 0; schedule < 100; schedule++ {
			rng := rand.New(rand.NewSource(int64(k*10_000+schedule) + 1))
			g := NewShardGroup(k)
			models := make([]*shardModel, k)
			for i := range models {
				models[i] = &shardModel{rng: rand.New(rand.NewSource(rng.Int63())), live: map[int]Timer{}}
			}
			nextID := make([]int, k) // per-shard id counters; ids are shard-scoped

			var schedOne func(shard int, at time.Duration, rearm int)
			schedOne = func(shard int, at time.Duration, rearm int) {
				m, s := models[shard], g.Shard(shard)
				id := nextID[shard]
				nextID[shard]++
				tm := s.AtOwned(at, OwnerNone, func() {
					m.fired++
					refID, refAt, ok := m.ref.step()
					if !ok || refID != id || refAt != s.Now() {
						t.Errorf("k=%d schedule %d shard %d: fired (%d, %v), ref (%d, %v, %v)",
							k, schedule, shard, id, s.Now(), refID, refAt, ok)
					}
					m.remove(id)
					if rearm > 0 {
						schedOne(shard, s.Now()+time.Duration(m.rng.Intn(50))*time.Millisecond, rearm-1)
						if len(m.ids) > 0 {
							victim := m.ids[m.rng.Intn(len(m.ids))]
							if got, want := m.live[victim].Stop(), m.ref.stop(victim); got != want {
								t.Errorf("k=%d schedule %d shard %d: nested Stop(%d) = %v, ref %v",
									k, schedule, shard, victim, got, want)
							}
							m.remove(victim)
						}
					}
				})
				m.live[id] = tm
				m.ids = append(m.ids, id)
				m.ref.schedule(at, id, false)
			}

			ops := 30 + rng.Intn(120)
			for op := 0; op < ops; op++ {
				shard := rng.Intn(k)
				m := models[shard]
				switch r := rng.Float64(); {
				case r < 0.5:
					rearm := 0
					if rng.Float64() < 0.2 {
						rearm = 1 + rng.Intn(2)
					}
					schedOne(shard, g.Now()+time.Duration(rng.Intn(200))*time.Millisecond, rearm)
				case r < 0.75:
					if len(m.ids) == 0 {
						continue
					}
					victim := m.ids[rng.Intn(len(m.ids))]
					if got, want := m.live[victim].Stop(), m.ref.stop(victim); got != want {
						t.Fatalf("k=%d schedule %d op %d shard %d: Stop(%d) = %v, ref %v", k, schedule, op, shard, victim, got, want)
					}
					m.remove(victim)
				default:
					deadline := g.Now() + time.Duration(rng.Intn(150))*time.Millisecond
					delta := time.Duration(1+rng.Intn(30)) * time.Millisecond
					runAndCheck(t, g, models, deadline, delta)
				}
				for i, m := range models {
					if got := g.Shard(i).Len(); got != len(m.ref.events) {
						t.Fatalf("k=%d schedule %d op %d: shard %d Len() = %d, ref %d", k, schedule, op, i, got, len(m.ref.events))
					}
				}
				if t.Failed() {
					t.FailNow()
				}
			}
			runAndCheck(t, g, models, g.Now()+time.Hour, 10*time.Millisecond)
			for i, m := range models {
				if len(m.ref.events) != 0 {
					t.Fatalf("k=%d schedule %d: shard %d reference still holds %d events after drain", k, schedule, i, len(m.ref.events))
				}
				if got := g.Shard(i).Executed(); got != m.ref.executed || got != uint64(m.fired) {
					t.Fatalf("k=%d schedule %d: shard %d Executed() = %d, ref %d, fired %d", k, schedule, i, got, m.ref.executed, m.fired)
				}
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// runAndCheck runs g to deadline and checks every shard against its model
// at the end: nothing at or before the deadline is left behind, and every
// clock rests at the deadline. It also checks the barrier sees strictly
// increasing window edges that never pass the deadline.
func runAndCheck(t *testing.T, g *ShardGroup, models []*shardModel, deadline, delta time.Duration) {
	t.Helper()
	prev := g.Now()
	err := g.Run(deadline, delta, func(w time.Duration) error {
		if w <= prev && w != deadline || w > deadline {
			t.Errorf("barrier at %v after %v (deadline %v)", w, prev, deadline)
		}
		prev = w
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if g.Now() != deadline {
		t.Fatalf("group clock %v after Run(%v)", g.Now(), deadline)
	}
	for i, m := range models {
		if len(m.ref.events) > 0 && m.ref.events[0].at <= deadline {
			t.Fatalf("shard %d left event %d at %v unfired at deadline %v", i, m.ref.events[0].id, m.ref.events[0].at, deadline)
		}
		m.ref.now = deadline
		if got := g.Shard(i).Now(); got != deadline {
			t.Fatalf("shard %d clock %v after Run(%v)", i, got, deadline)
		}
	}
}

// TestShardGroupRunUntilAndStop checks Run's deadline and stop
// semantics: events at or before the deadline fire (the final window is
// inclusive), later events stay pending, every clock rests at the
// deadline; a group Stop from inside a callback halts the calling shard
// before its next event, runs no further window, and surfaces as
// ErrStopped; a barrier error aborts the run and stops the group; several
// shards refuse a non-positive lookahead; and a lone shard, which needs
// none, runs the whole interval as one window whose group stop halts it
// before the next event, with its clock as the group clock.
func TestShardGroupRunUntilAndStop(t *testing.T) {
	g := NewShardGroup(2)
	var fired [2][]time.Duration // per shard: callbacks never share a slice
	note := func(shard int) func() {
		s := g.Shard(shard)
		return func() { fired[shard] = append(fired[shard], s.Now()) }
	}
	g.Shard(0).AtOwned(10*time.Millisecond, OwnerNone, note(0))
	g.Shard(1).AtOwned(20*time.Millisecond, OwnerNone, note(1)) // exactly at the deadline
	g.Shard(1).AtOwned(30*time.Millisecond, OwnerNone, note(1))
	if err := g.Run(20*time.Millisecond, 5*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	if len(fired[0]) != 1 || len(fired[1]) != 1 {
		t.Fatalf("fired = %v after Run(20ms), want one event per shard", fired)
	}
	if g.Now() != 20*time.Millisecond || g.Shard(0).Now() != 20*time.Millisecond || g.Shard(1).Now() != 20*time.Millisecond {
		t.Fatalf("clocks = %v/%v/%v, want 20ms", g.Now(), g.Shard(0).Now(), g.Shard(1).Now())
	}
	if g.Len() != 1 {
		t.Fatalf("Len() = %d, want 1 pending", g.Len())
	}

	// The idle skip puts the next window at [20ms, 35ms): shard 0 stops
	// the group at 25ms and skips its 27ms event. Shard 1 runs the same
	// window concurrently, so it may fire its 26ms and 30ms events before
	// it sees the flag, but nothing from a later window runs.
	g.Shard(0).AtOwned(25*time.Millisecond, OwnerNone, g.Stop)
	g.Shard(0).AtOwned(27*time.Millisecond, OwnerNone, note(0))
	g.Shard(1).AtOwned(26*time.Millisecond, OwnerNone, note(1))
	g.Shard(1).AtOwned(100*time.Millisecond, OwnerNone, note(1))
	if err := g.Run(time.Second, 10*time.Millisecond, nil); err != ErrStopped {
		t.Fatalf("Run after Stop = %v, want ErrStopped", err)
	}
	want1 := []time.Duration{20 * time.Millisecond, 26 * time.Millisecond, 30 * time.Millisecond}
	if n := len(fired[1]); len(fired[0]) != 1 || n == 0 || n > len(want1) || !slices.Equal(fired[1], want1[:n]) {
		t.Fatalf("fired = %v, want shard 0 [10ms] and shard 1 a prefix of %v", fired, want1)
	}
	if !g.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}

	h := NewShardGroup(2)
	h.Shard(1).AtOwned(5*time.Millisecond, OwnerNone, func() {})
	boom := errors.New("barrier failed")
	if err := h.Run(time.Second, time.Millisecond, func(time.Duration) error { return boom }); err != boom {
		t.Fatalf("Run with failing barrier = %v, want %v", err, boom)
	}
	if !h.Stopped() {
		t.Fatal("barrier error did not stop the group")
	}

	if err := NewShardGroup(2).Run(time.Second, 0, nil); err == nil {
		t.Fatal("Run on 2 shards with a zero lookahead returned no error")
	}
	one := NewShardGroup(1)
	s := one.Shard(0)
	var at []time.Duration
	for i := 1; i <= 5; i++ {
		s.AtOwned(time.Duration(i)*time.Millisecond, OwnerNone, func() {
			at = append(at, one.Now())
			if len(at) == 3 {
				one.Stop()
			}
		})
	}
	barriers := 0
	err := one.Run(time.Second, 0, func(time.Duration) error { barriers++; return nil })
	if err != ErrStopped {
		t.Fatalf("one-shard Run after a group Stop = %v, want ErrStopped", err)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	if !slices.Equal(at, want) || one.Now() != 3*time.Millisecond || barriers != 1 {
		t.Fatalf("one shard fired at %v, clock %v, %d barriers; want %v, 3ms, one barrier", at, one.Now(), barriers, want)
	}
}

// TestShardGroupProfileAttribution checks per-shard profile attribution
// under the parallel executor: every executed event is tallied under the
// shard that ran it.
func TestShardGroupProfileAttribution(t *testing.T) {
	g := NewShardGroup(3)
	p := NewProfile()
	g.SetProfile(p)
	for i := 0; i < 3; i++ {
		shard := g.Shard(i)
		for j := 0; j <= i; j++ {
			shard.AtOwned(time.Duration(j+1)*time.Millisecond, OwnerNone, func() {})
		}
	}
	if err := g.Run(10*time.Millisecond, time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	stats := p.ShardSnapshot()
	if len(stats) != 3 {
		t.Fatalf("ShardSnapshot len = %d, want 3", len(stats))
	}
	for i, st := range stats {
		if st.Events != uint64(i+1) {
			t.Fatalf("shard %d events = %d, want %d", i, st.Events, i+1)
		}
	}
	if p.TotalEvents() != 6 || g.Executed() != 6 {
		t.Fatalf("TotalEvents = %d, Executed = %d, want 6", p.TotalEvents(), g.Executed())
	}
}

// TestShardSeedStreams pins the per-shard RNG stream derivation: the
// mapping is a pure function of (seed, shard) — invariant across shard
// counts by construction, so shard 0 of a 2-way run and shard 0 of an
// 8-way run draw the same stream — distinct across shards of one run,
// distinct from the raw run seed, and decorrelated enough that the
// leading draws of neighboring streams share no prefix.
func TestShardSeedStreams(t *testing.T) {
	seen := map[int64]int{}
	for shard := 0; shard < 16; shard++ {
		s := ShardSeed(42, shard)
		if s == 42 {
			t.Errorf("shard %d stream seed equals the run seed", shard)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("shards %d and %d derive the same stream seed %d", prev, shard, s)
		}
		seen[s] = shard
		if again := ShardSeed(42, shard); again != s {
			t.Errorf("shard %d seed not stable: %d then %d", shard, s, again)
		}
	}
	// Different run seeds must move every shard's stream.
	for shard := 0; shard < 16; shard++ {
		if ShardSeed(42, shard) == ShardSeed(43, shard) {
			t.Errorf("shard %d stream identical across run seeds 42 and 43", shard)
		}
	}
	// Stream independence smoke: adjacent shards' generators must not
	// track each other over their first draws.
	a := rand.New(rand.NewSource(ShardSeed(7, 0)))
	b := rand.New(rand.NewSource(ShardSeed(7, 1)))
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Errorf("adjacent shard streams collided on %d of 64 draws", same)
	}
}
